#include "server/session.h"

#include <cstdio>

#include "core/check.h"

namespace gerel {

using server::Trim;

namespace {

// Splits off the first whitespace-delimited word.
std::string_view FirstWord(std::string_view line, std::string_view* rest) {
  size_t i = 0;
  while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
  *rest = Trim(line.substr(i));
  return line.substr(0, i);
}

}  // namespace

ServiceSession::ServiceSession(PreparedKb* kb, SymbolTable* symbols)
    : kb_name_(server::kDefaultKbName) {
  owned_registry_ = std::make_unique<server::TenantRegistry>(
      server::TenantRegistry::Config());
  auto adopted = owned_registry_->Adopt(kb_name_, kb, symbols,
                                        /*snapshot_path=*/"");
  GEREL_CHECK(adopted.ok());
  owned_dispatcher_ =
      std::make_unique<server::Dispatcher>(owned_registry_.get());
  dispatcher_ = owned_dispatcher_.get();
}

ServiceSession::ServiceSession(server::Dispatcher* dispatcher,
                               std::string kb_name)
    : dispatcher_(dispatcher), kb_name_(std::move(kb_name)) {}

ServiceSession::Response ServiceSession::HandleLine(std::string_view line) {
  Response r;
  line = Trim(line);
  if (line.empty() || line.front() == '%' || line.front() == '#') return r;
  std::string_view rest;
  std::string_view cmd = FirstWord(line, &rest);
  if (cmd == "quit" || cmd == "exit") {
    r.quit = true;
    return r;
  }
  if (cmd == "stats") return Stats();
  if (cmd == "query") return Query(rest);
  if (cmd == "assert") return Assert(rest);
  if (cmd == "retract") return Retract(rest);
  if (cmd == "save") return Save(rest);
  r.error = true;
  saw_error_ = true;
  r.text = "error: unknown command \"" + std::string(cmd) +
           "\" (expected query, assert, retract, stats, save, quit)\n";
  return r;
}

ServiceSession::Response ServiceSession::RenderError(
    const server::DispatchOutcome& outcome) {
  Response r;
  r.error = true;
  saw_error_ = true;
  r.text = "error: " + outcome.error_message + "\n";
  return r;
}

ServiceSession::Response ServiceSession::Query(std::string_view text) {
  server::WireRequest req;
  req.op = server::Op::kQuery;
  req.kb = kb_name_;
  req.cq = std::string(text);
  server::DispatchOutcome outcome = dispatcher_->Dispatch(req);
  if (!outcome.ok) return RenderError(outcome);
  Response r;
  for (const std::string& answer : outcome.query.answers) {
    r.text += answer + "\n";
  }
  char line[96];
  if (outcome.query.complete) {
    std::snprintf(line, sizeof(line), "%zu answers (complete)%s\n",
                  outcome.query.answers.size(),
                  outcome.query.cache_hit ? " [cached]" : "");
  } else {
    saw_incomplete_ = true;
    std::snprintf(line, sizeof(line),
                  "%zu answers (sound, possibly incomplete)%s\n",
                  outcome.query.answers.size(),
                  outcome.query.cache_hit ? " [cached]" : "");
  }
  r.text += line;
  if (outcome.query.degradation.degraded()) {
    r.text += "degradation: " + outcome.query.degradation.ToString() + "\n";
  }
  return r;
}

ServiceSession::Response ServiceSession::Assert(std::string_view text) {
  server::WireRequest req;
  req.op = server::Op::kAssert;
  req.kb = kb_name_;
  req.facts = std::string(text);
  server::DispatchOutcome outcome = dispatcher_->Dispatch(req);
  if (!outcome.ok) return RenderError(outcome);
  Response r;
  char line[96];
  std::snprintf(line, sizeof(line), "asserted %zu new, derived %zu (%s)\n",
                outcome.assert_reply.new_atoms,
                outcome.assert_reply.derived_atoms,
                outcome.assert_reply.delta ? "delta" : "rematerialized");
  r.text = line;
  return r;
}

ServiceSession::Response ServiceSession::Retract(std::string_view text) {
  server::WireRequest req;
  req.op = server::Op::kRetract;
  req.kb = kb_name_;
  req.facts = std::string(text);
  server::DispatchOutcome outcome = dispatcher_->Dispatch(req);
  if (!outcome.ok) return RenderError(outcome);
  Response r;
  char line[96];
  std::snprintf(line, sizeof(line),
                "retracted %zu, overdeleted %zu, rederived %zu (%s)\n",
                outcome.retract.removed, outcome.retract.overdeleted,
                outcome.retract.rederived,
                outcome.retract.delta ? "dred" : "rematerialized");
  r.text = line;
  return r;
}

ServiceSession::Response ServiceSession::Stats() {
  server::WireRequest req;
  req.op = server::Op::kStats;
  req.kb = kb_name_;
  server::DispatchOutcome outcome = dispatcher_->Dispatch(req);
  if (!outcome.ok) return RenderError(outcome);
  Response r;
  r.text = outcome.stats.total.ToString();
  return r;
}

ServiceSession::Response ServiceSession::Save(std::string_view text) {
  std::string path(Trim(text));
  if (path.empty()) {
    Response r;
    r.error = true;
    saw_error_ = true;
    r.text = "error: save requires a path\n";
    return r;
  }
  server::WireRequest req;
  req.op = server::Op::kSave;
  req.kb = kb_name_;
  req.path = path;
  server::DispatchOutcome outcome = dispatcher_->Dispatch(req);
  if (!outcome.ok) return RenderError(outcome);
  Response r;
  r.text = "snapshot saved to " + path + "\n";
  return r;
}

}  // namespace gerel
