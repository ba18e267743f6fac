#include "server/dispatch.h"

#include <fstream>
#include <mutex>
#include <sstream>

#include "core/parser.h"
#include "core/printer.h"

namespace gerel {
namespace server {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r' || s.front() == '\n')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

namespace {

DispatchOutcome UnknownKb(Op op, const std::string& name) {
  return DispatchOutcome::Error(op, name, kErrUnknownKb,
                                "unknown kb \"" + name + "\"");
}

// Copies the tenant's replication cursor into `out`; the caller holds
// the tenant lock.
void SetCursor(const Tenant& tenant, DispatchOutcome* out) {
  out->has_cursor = true;
  out->seq = tenant.seq;
  out->epoch = tenant.epoch;
}

// Maps `a` from the request's `scratch` table onto the tenant's
// `symbols` by lookup; variables stay per-request.
void Resolve(Atom* a, const SymbolTable& scratch, const SymbolTable& symbols) {
  a->pred = symbols.FindRelation(scratch.RelationName(a->pred));
  auto resolve = [&](Term& t) {
    if (t.IsConstant()) t = symbols.FindConstant(scratch.ConstantName(t));
    if (t.IsNull()) t = symbols.FindNamedNull(scratch.NamedNullName(t));
  };
  for (Term& t : a->args) resolve(t);
  for (Term& t : a->annotation) resolve(t);
}

// Interns `a` from the request's `scratch` table into the tenant's
// `symbols` in the order a parse would (annotation terms, then
// arguments), so ids come out as if the text had been parsed there.
void Intern(Atom* a, const SymbolTable& scratch, SymbolTable* symbols) {
  auto intern = [&](Term& t) {
    if (t.IsConstant()) t = symbols->Constant(scratch.ConstantName(t));
    if (t.IsNull()) t = symbols->NamedNull(scratch.NamedNullName(t));
  };
  for (Term& t : a->annotation) intern(t);
  for (Term& t : a->args) intern(t);
  a->pred = symbols->Relation(scratch.RelationName(a->pred),
                              static_cast<int>(a->arity()));
}

// Whether `a`'s relation, if the tenant knows it, has `a`'s arity.
bool ArityFits(const Atom& a, const SymbolTable& scratch,
               const SymbolTable& symbols) {
  RelationId known = symbols.FindRelation(scratch.RelationName(a.pred));
  int declared =
      known == kUnknownRelation ? -1 : symbols.RelationArity(known);
  return declared < 0 || declared == static_cast<int>(a.arity());
}

// The parse error a parse of `text` (a rule, or `facts`) into the
// tenant's table would report: a reparse into a table seeded with the
// tenant's arities.
std::string TenantParseError(const std::string& text, bool facts,
                             const SymbolTable& scratch,
                             const SymbolTable& symbols) {
  SymbolTable seeded;
  for (RelationId r = 0; r < scratch.NumRelations(); ++r) {
    RelationId known = symbols.FindRelation(scratch.RelationName(r));
    if (known != kUnknownRelation) {
      seeded.Relation(scratch.RelationName(r), symbols.RelationArity(known));
    }
  }
  Status reparsed = facts ? ParseDatabase(text, &seeded).status()
                          : ParseRule(text, &seeded).status();
  if (!reparsed.ok()) return reparsed.message();
  return facts ? "facts do not match the kb's relation arities"
               : "query does not match the kb's relation arities";
}

// One answer as the scratch-table `head` states it: variables show the
// tuple's values, constants show as the query wrote them.
std::string RenderAnswer(const Atom& head, const std::vector<Term>& tuple,
                         const SymbolTable& scratch,
                         const SymbolTable& symbols) {
  std::string out = scratch.RelationName(head.pred);
  if (head.args.empty()) return out;
  out += '(';
  for (size_t i = 0; i < head.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += head.args[i].IsVariable() ? ToString(tuple[i], symbols)
                                     : ToString(head.args[i], scratch);
  }
  out += ')';
  return out;
}

}  // namespace

DispatchOutcome Dispatcher::Dispatch(const WireRequest& req) {
  if (req.op == Op::kStats) return Stats(req);
  std::string name = req.kb.empty() ? kDefaultKbName : req.kb;
  switch (req.op) {
    case Op::kQuery: return Query(req, name);
    case Op::kAssert:
    case Op::kRetract: return Write(req, name);
    case Op::kPrepare: return Prepare(req, name);
    case Op::kSave: return Save(req, name);
    case Op::kDrop: return Drop(req, name);
    case Op::kStats: break;  // Handled above.
  }
  return DispatchOutcome::Error(req.op, name, kErrBadRequest,
                                "unhandled op");
}

DispatchOutcome Dispatcher::Query(const WireRequest& req,
                                  const std::string& name) {
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (tenant == nullptr) return UnknownKb(Op::kQuery, name);
  // The query's names go into a table of its own (DESIGN.md §7): the
  // tenant's table is only read, so a query leaves the tenant as it was.
  SymbolTable scratch;
  Result<Rule> parsed = ParseRule(req.cq, &scratch);
  std::lock_guard<std::mutex> lock(tenant->mu);
  const SymbolTable& symbols = *tenant->symbols;
  bool parse_ok = parsed.ok();
  Rule cq = parse_ok ? std::move(parsed).value() : Rule();
  // The head as written, for rendering (ParseRule yields at least one).
  const Atom head = parse_ok ? cq.head[0] : Atom();
  for (Literal& l : cq.body) {
    // A known body relation keeps its arity; the head's is free.
    if (!ArityFits(l.atom, scratch, symbols)) parse_ok = false;
    Resolve(&l.atom, scratch, symbols);
  }
  for (Atom& h : cq.head) Resolve(&h, scratch, symbols);
  if (!parse_ok) {
    return DispatchOutcome::Error(
        Op::kQuery, name, kErrParse,
        TenantParseError(req.cq, /*facts=*/false, scratch, symbols));
  }
  Result<PreparedQueryResult> answers = tenant->kb->Query(cq);
  if (!answers.ok()) {
    return DispatchOutcome::Error(Op::kQuery, name, kErrFailed,
                                  answers.status().message());
  }
  DispatchOutcome out;
  out.op = Op::kQuery;
  out.kb = name;
  out.query.answers.reserve(answers.value().answers.size());
  for (const std::vector<Term>& tuple : answers.value().answers) {
    out.query.answers.push_back(RenderAnswer(head, tuple, scratch, symbols));
  }
  out.query.complete = answers.value().complete;
  out.query.cache_hit = answers.value().cache_hit;
  out.query.degradation = answers.value().degradation;
  SetCursor(*tenant, &out);
  return out;
}

DispatchOutcome Dispatcher::Write(const WireRequest& req,
                                  const std::string& name) {
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (tenant == nullptr) return UnknownKb(req.op, name);
  std::string padded(Trim(req.facts));
  if (!padded.empty() && padded.back() != '.') padded += '.';
  // As for queries, the facts parse into a table of their own: a write
  // that fails leaves the tenant's table as it was.
  SymbolTable scratch;
  Result<Database> parsed = ParseDatabase(padded, &scratch);
  std::lock_guard<std::mutex> lock(tenant->mu);
  SymbolTable& symbols = *tenant->symbols;
  std::vector<Atom> facts;
  bool parse_ok = parsed.ok();
  if (parse_ok) facts = parsed.value().AtomsVector();
  for (const Atom& f : facts) {
    if (!ArityFits(f, scratch, symbols)) parse_ok = false;
  }
  if (!parse_ok) {
    return DispatchOutcome::Error(
        req.op, name, kErrParse,
        TenantParseError(padded, /*facts=*/true, scratch, symbols));
  }
  // An assert interns its now-valid batch; a retract only looks names
  // up, and a name the tenant lacks names no EDB fact.
  for (Atom& f : facts) {
    if (req.op == Op::kAssert) {
      Intern(&f, scratch, &symbols);
    } else {
      Resolve(&f, scratch, symbols);
    }
  }
  // One KB call per request frame: the whole batch seeds a single
  // semi-naive delta pass or DRed run.
  DispatchOutcome out;
  out.op = req.op;
  out.kb = name;
  bool delta = true;
  if (req.op == Op::kAssert) {
    Result<AssertResult> r = tenant->kb->Assert(facts);
    if (!r.ok()) {
      return DispatchOutcome::Error(req.op, name, kErrFailed,
                                    r.status().message());
    }
    out.assert_reply = {r.value().new_atoms, r.value().derived_atoms,
                        r.value().delta};
    delta = r.value().delta;
  } else {
    Result<RetractResult> r = tenant->kb->Retract(facts);
    if (!r.ok()) {
      // Covers retracting an unknown or derived-only fact: the KB is
      // untouched, so the cursor does not move.
      return DispatchOutcome::Error(req.op, name, kErrFailed,
                                    r.status().message());
    }
    out.retract = {r.value().removed_atoms, r.value().overdeleted_atoms,
                   r.value().rederived_atoms, r.value().delta};
    delta = r.value().delta;
  }
  if (delta) {
    // Replicas replay the batch as one delta step.
    ++tenant->seq;
  } else {
    // The model was rebuilt from the EDB: delta replicas cannot catch
    // up incrementally, so open a new epoch (full resync point).
    ++tenant->epoch;
    tenant->seq = 0;
  }
  tenant->dirty = true;
  SetCursor(*tenant, &out);
  return out;
}

DispatchOutcome Dispatcher::Prepare(const WireRequest& req,
                                    const std::string& name) {
  if (!TenantRegistry::ValidName(name)) {
    return DispatchOutcome::Error(Op::kPrepare, name, kErrBadName,
                                  "invalid kb name \"" + name + "\"");
  }
  if (registry_->Find(name) != nullptr) {
    return DispatchOutcome::Error(Op::kPrepare, name, kErrKbExists,
                                  "kb \"" + name + "\" already exists");
  }
  std::string text = req.program;
  if (text.empty()) {
    std::ifstream in(req.path);
    if (!in) {
      return DispatchOutcome::Error(Op::kPrepare, name, kErrIo,
                                    "cannot open " + req.path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  TenantRegistry::PrepareInfo info;
  Result<std::shared_ptr<Tenant>> prepared =
      registry_->Prepare(name, text, req.max_rules, &info);
  if (!prepared.ok()) {
    // Covers parse failures, non-wfg theories, and prepare-race losses;
    // the message says which.
    return DispatchOutcome::Error(Op::kPrepare, name, kErrFailed,
                                  prepared.status().message());
  }
  Tenant& tenant = *prepared.value();
  std::lock_guard<std::mutex> lock(tenant.mu);
  DispatchOutcome out;
  out.op = Op::kPrepare;
  out.kb = name;
  out.prepare.mode = ModeName(tenant.kb->mode());
  out.prepare.datalog_rules = tenant.kb->datalog_rules();
  out.prepare.model_atoms = tenant.kb->model_size();
  out.prepare.loaded_snapshot = info.loaded_snapshot;
  out.prepare.complete = tenant.kb->prepare_complete();
  SetCursor(tenant, &out);
  return out;
}

DispatchOutcome Dispatcher::Stats(const WireRequest& req) {
  DispatchOutcome out;
  out.op = Op::kStats;
  if (req.kb.empty()) {
    // Aggregate: one block per tenant (name-sorted) plus the sum.
    out.stats.aggregated = true;
    for (const std::shared_ptr<Tenant>& tenant : registry_->All()) {
      std::lock_guard<std::mutex> lock(tenant->mu);
      ServiceStats stats = tenant->kb->stats();
      out.stats.total.Accumulate(stats);
      out.stats.per_kb.emplace_back(tenant->name, std::move(stats));
    }
    return out;
  }
  std::shared_ptr<Tenant> tenant = registry_->Find(req.kb);
  if (tenant == nullptr) return UnknownKb(Op::kStats, req.kb);
  std::lock_guard<std::mutex> lock(tenant->mu);
  out.kb = req.kb;
  out.stats.total = tenant->kb->stats();
  SetCursor(*tenant, &out);
  return out;
}

DispatchOutcome Dispatcher::Save(const WireRequest& req,
                                 const std::string& name) {
  std::shared_ptr<Tenant> tenant = registry_->Find(name);
  if (tenant == nullptr) return UnknownKb(Op::kSave, name);
  std::string path = !req.path.empty() ? req.path : tenant->snapshot_path;
  if (path.empty()) {
    return DispatchOutcome::Error(Op::kSave, name, kErrBadRequest,
                                  "save requires a path");
  }
  // The saved image corresponds to one (seq, epoch).
  std::lock_guard<std::mutex> lock(tenant->mu);
  Status s = tenant->kb->SaveSnapshot(path);
  if (!s.ok()) {
    return DispatchOutcome::Error(Op::kSave, name, kErrIo, s.message());
  }
  tenant->dirty = false;
  DispatchOutcome out;
  out.op = Op::kSave;
  out.kb = name;
  out.save.path = path;
  SetCursor(*tenant, &out);
  return out;
}

DispatchOutcome Dispatcher::Drop(const WireRequest& /*req*/,
                                 const std::string& name) {
  if (registry_->Find(name) == nullptr) return UnknownKb(Op::kDrop, name);
  Status s = registry_->Drop(name);
  if (!s.ok()) {
    return DispatchOutcome::Error(Op::kDrop, name, kErrIo, s.message());
  }
  DispatchOutcome out;
  out.op = Op::kDrop;
  out.kb = name;
  return out;
}

}  // namespace server
}  // namespace gerel
