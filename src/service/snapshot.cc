// Crash-safe persistence for PreparedKb (DESIGN.md §9).
//
// On-disk layout:
//
//   u64  magic       "GRELSNAP" (0x4752454C534E4150)
//   u32  version     kSnapshotVersion
//   u64  payload_size
//   ...  payload     (see Serialize below)
//   u64  checksum    FNV-1a over the payload bytes
//
// The payload carries everything Prepare computed that is expensive to
// rebuild: the symbol table (names re-interned at their original dense
// ids, named nulls at theirs), the normalized and weakly guarded
// theories, the compiled program's rule set (so LoadSnapshot skips
// rewrite/grounding/saturation and only re-runs the cheap join-plan
// compilation), the EDB, the materialized model, the program's Skolem
// table (so a warm tenant mints the nulls a cold one would), the
// degradation certificate, and the prepare-time analysis stats
// (termination certificate kind, pre-flight diagnostics count), so a warm
// start reports what the cold prepare did. Every read is bounds-checked;
// truncation, bit-flips, magic/version skew, and fingerprint mismatches
// all surface as errors so callers can fall back to a fresh Prepare.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analyze/termination.h"
#include "core/classify.h"
#include "core/database.h"
#include "core/fault.h"
#include "service/prepared_kb.h"

namespace gerel {

namespace {

constexpr uint64_t kSnapshotMagic = 0x4752454C534E4150ull;  // "GRELSNAP"
// v2: Mode::kChaseMaterialized joined the mode byte's range; chase-mode
// images serialize an empty placeholder where the compiled program
// theory would be (there is no compiled program to store).
// v3: the termination certificate kind name (empty when the planner did
// not analyze the theory) and the pre-flight diagnostics count follow
// the degradation records.
// v4: chase-mode images store their compiled program like every other
// mode (the normalized theory, read as a Skolem program); the named
// nulls' (name, id) pairs, sorted by id, follow the null counter; the
// program's Skolem table, sorted, ends the payload.
constexpr uint32_t kSnapshotVersion = 4;

uint64_t Fnv1a(const uint8_t* data, size_t n) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---- Writer -------------------------------------------------------------

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void TermBits(Term t) { U32(t.bits()); }
  void Terms(const std::vector<Term>& ts) {
    U32(static_cast<uint32_t>(ts.size()));
    for (Term t : ts) TermBits(t);
  }
  void AtomRec(const Atom& a) {
    U32(a.pred);
    Terms(a.args);
    Terms(a.annotation);
  }
  void RuleRec(const Rule& r) {
    U32(static_cast<uint32_t>(r.body.size()));
    for (const Literal& l : r.body) {
      U8(l.negated ? 1 : 0);
      AtomRec(l.atom);
    }
    U32(static_cast<uint32_t>(r.head.size()));
    for (const Atom& a : r.head) AtomRec(a);
  }
  void TheoryRec(const Theory& t) {
    U32(static_cast<uint32_t>(t.size()));
    for (const Rule& r : t.rules()) RuleRec(r);
  }
  void DatabaseRec(const Database& db) {
    U64(db.size());
    for (const Atom& a : db.atoms()) AtomRec(a);
  }
  void Degradation(const DegradationReason& d) {
    U8(static_cast<uint8_t>(d.stage));
    U8(static_cast<uint8_t>(d.limit));
    U64(d.round);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

// ---- Reader -------------------------------------------------------------

// Bounds-checked cursor over the payload. Every primitive read sets
// ok() = false instead of running past the end, and all composite reads
// bail out early once !ok().
class Reader {
 public:
  Reader(const uint8_t* data, size_t n) : data_(data), n_(n) {}

  bool ok() const { return ok_; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::string Str() {
    uint32_t len = U32();
    if (!Need(len)) return "";
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }
  Term TermBits() {
    uint32_t bits = U32();
    switch (static_cast<TermKind>(bits >> 30)) {
      case TermKind::kConstant:
        return Term::Constant(bits & 0x3FFFFFFFu);
      case TermKind::kVariable:
        return Term::Variable(bits & 0x3FFFFFFFu);
      case TermKind::kNull:
        return Term::Null(bits & 0x3FFFFFFFu);
      default:
        ok_ = false;
        return Term();
    }
  }
  std::vector<Term> Terms() {
    uint32_t n = U32();
    if (!CheckCount(n, 4)) return {};
    std::vector<Term> out;
    out.reserve(n);
    for (uint32_t i = 0; i < n && ok_; ++i) out.push_back(TermBits());
    return out;
  }
  Atom AtomRec() {
    Atom a;
    a.pred = U32();
    a.args = Terms();
    a.annotation = Terms();
    return a;
  }
  Rule RuleRec() {
    Rule r;
    uint32_t nb = U32();
    if (!CheckCount(nb, 9)) return r;
    r.body.reserve(nb);
    for (uint32_t i = 0; i < nb && ok_; ++i) {
      Literal l;
      l.negated = U8() != 0;
      l.atom = AtomRec();
      r.body.push_back(std::move(l));
    }
    uint32_t nh = U32();
    if (!CheckCount(nh, 8)) return r;
    r.head.reserve(nh);
    for (uint32_t i = 0; i < nh && ok_; ++i) r.head.push_back(AtomRec());
    return r;
  }
  Theory TheoryRec() {
    Theory t;
    uint32_t n = U32();
    if (!CheckCount(n, 8)) return t;
    for (uint32_t i = 0; i < n && ok_; ++i) t.AddRule(RuleRec());
    return t;
  }
  DegradationReason Degradation() {
    DegradationReason d;
    uint8_t stage = U8();
    uint8_t limit = U8();
    d.round = U64();
    // kDepth (after kFault) stays out: PreparedKb never bounds null depth.
    if (stage > static_cast<uint8_t>(GovernedStage::kSnapshot) ||
        limit > static_cast<uint8_t>(BudgetLimit::kFault)) {
      ok_ = false;
      return d;
    }
    d.stage = static_cast<GovernedStage>(stage);
    d.limit = static_cast<BudgetLimit>(limit);
    return d;
  }
  bool AtEnd() const { return ok_ && pos_ == n_; }

 private:
  bool Need(size_t k) {
    if (!ok_ || n_ - pos_ < k) {
      ok_ = false;
      return false;
    }
    return true;
  }
  // A declared element count cannot exceed the bytes remaining (each
  // element is at least `min_bytes` long); rejects counts forged by
  // corruption before any multi-gigabyte reserve().
  bool CheckCount(uint64_t count, size_t min_bytes) {
    if (!ok_ || count > (n_ - pos_) / min_bytes + 1) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t n_;
  size_t pos_ = 0;
  bool ok_ = true;
};

Status CorruptError(const std::string& path, const char* what) {
  return Status::Error("snapshot " + path + ": " + what);
}

// Whether `t` names an entry of its kind's table in the loaded symbol
// table, nulls lying below the restored null counter. A ground term
// (in a database atom or the Skolem table) must not be a variable.
bool FitsSymbols(Term t, const SymbolTable& symbols, bool ground) {
  switch (t.kind()) {
    case TermKind::kConstant:
      return t.id() < symbols.NumConstants();
    case TermKind::kVariable:
      return !ground && t.id() < symbols.NumVariables();
    case TermKind::kNull:
      return t.id() < symbols.NumNulls();
  }
  return false;
}

// Whether `a` fits the loaded symbol table: its relation exists with a
// matching arity (when one is recorded) and each term fits. A valid
// checksum only proves the image was written as read, not that its
// writer was sound, so every id is checked before any engine sees it.
bool FitsSymbols(const Atom& a, const SymbolTable& symbols,
                 bool database_atom) {
  if (a.pred >= symbols.NumRelations()) return false;
  int arity = symbols.RelationArity(a.pred);
  if (arity >= 0 && static_cast<size_t>(arity) != a.arity()) return false;
  auto fits = [&](Term t) { return FitsSymbols(t, symbols, database_atom); };
  return std::all_of(a.args.begin(), a.args.end(), fits) &&
         std::all_of(a.annotation.begin(), a.annotation.end(), fits);
}

// Whether `name` is empty (the planner did not analyze the theory) or a
// termination certificate kind name.
bool IsCertificateKindName(const std::string& name) {
  if (name.empty()) return true;
  for (int k = 0; k <= static_cast<int>(CertificateKind::kInconclusive); ++k) {
    if (name == CertificateKindName(static_cast<CertificateKind>(k))) {
      return true;
    }
  }
  return false;
}

bool FitsSymbols(const Theory& theory, const SymbolTable& symbols) {
  for (const Rule& r : theory.rules()) {
    for (const Literal& l : r.body) {
      if (!FitsSymbols(l.atom, symbols, /*database_atom=*/false)) return false;
    }
    for (const Atom& a : r.head) {
      if (!FitsSymbols(a, symbols, /*database_atom=*/false)) return false;
    }
  }
  return true;
}

}  // namespace

Status PreparedKb::SaveSnapshot(const std::string& path) const {
  Writer w;
  w.U64(snapshot_fingerprint_);
  w.U8(static_cast<uint8_t>(mode_));
  uint8_t flags = 0;
  if (rewrite_complete_) flags |= 1;
  if (compile_complete_) flags |= 2;
  if (materialize_complete_) flags |= 4;
  if (theory_has_existentials_) flags |= 8;
  w.U8(flags);
  w.Degradation(rewrite_degradation_);
  w.Degradation(compile_degradation_);
  w.Degradation(materialize_degradation_);
  w.Str(stats_.termination_certificate);
  w.U64(stats_.diagnostics);
  // Symbol table, in dense-id order so re-interning reproduces ids.
  w.U32(static_cast<uint32_t>(symbols_->NumRelations()));
  for (RelationId id = 0; id < symbols_->NumRelations(); ++id) {
    w.Str(symbols_->RelationName(id));
    w.U32(static_cast<uint32_t>(symbols_->RelationArity(id)));
  }
  w.U32(static_cast<uint32_t>(symbols_->NumConstants()));
  for (uint32_t id = 0; id < symbols_->NumConstants(); ++id) {
    w.Str(symbols_->ConstantName(Term::Constant(id)));
  }
  w.U32(static_cast<uint32_t>(symbols_->NumVariables()));
  for (uint32_t id = 0; id < symbols_->NumVariables(); ++id) {
    w.Str(symbols_->VariableName(Term::Variable(id)));
  }
  w.U32(symbols_->NumNulls());
  // Named nulls, so a warm CQ's `_x` still names the EDB's `_x`.
  std::vector<std::pair<std::string, uint32_t>> named = symbols_->NamedNulls();
  w.U32(static_cast<uint32_t>(named.size()));
  for (const auto& [name, id] : named) {
    w.Str(name);
    w.U32(id);
  }
  w.TheoryRec(normal_);
  w.TheoryRec(weakly_guarded_);
  w.TheoryRec(program_->theory());
  w.DatabaseRec(edb_);
  w.DatabaseRec(model_);
  // Sorted for byte-stable images (the set iterates in hash order).
  std::vector<uint32_t> grounded(grounded_constants_.begin(),
                                 grounded_constants_.end());
  std::sort(grounded.begin(), grounded.end());
  w.U32(static_cast<uint32_t>(grounded.size()));
  for (uint32_t bits : grounded) w.U32(bits);
  // The Skolem table, sorted by (rule, frontier) for the same reason.
  struct SkolemEntry {
    uint32_t rule;
    std::vector<Term> frontier;
    std::vector<Term> nulls;
  };
  std::vector<SkolemEntry> skolem;
  program_->ForEachSkolem([&](uint32_t rule, const std::vector<Term>& frontier,
                              const std::vector<Term>& nulls) {
    skolem.push_back({rule, frontier, nulls});
  });
  std::sort(skolem.begin(), skolem.end(),
            [](const SkolemEntry& a, const SkolemEntry& b) {
              return a.rule != b.rule ? a.rule < b.rule
                                      : a.frontier < b.frontier;
            });
  w.U64(skolem.size());
  for (const SkolemEntry& e : skolem) {
    w.U32(e.rule);
    w.Terms(e.frontier);
    w.Terms(e.nulls);
  }
  const std::vector<uint8_t>& payload = w.bytes();

  Writer image;
  image.U64(kSnapshotMagic);
  image.U32(kSnapshotVersion);
  image.U64(payload.size());
  std::vector<uint8_t> out = image.bytes();
  out.insert(out.end(), payload.begin(), payload.end());
  uint64_t checksum = Fnv1a(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) out.push_back((checksum >> (8 * i)) & 0xFF);

  // Fault injection: corrupt the image in memory so the *write* path is
  // exercised end to end (temp file, rename) and only the load detects it.
  const FaultPlan* fault = GlobalFaultPlan();
  if (fault != nullptr && !out.empty()) {
    // Offsets are clamped into the image (per core/fault.h) so any seeded
    // offset yields a valid corruption; the flip XORs a single bit to
    // model the weakest detectable damage.
    if (fault->snapshot_truncate_at >= 0) {
      size_t at = std::min(static_cast<size_t>(fault->snapshot_truncate_at),
                           out.size() - 1);
      out.resize(at);
    }
    if (fault->snapshot_flip_byte >= 0 && !out.empty()) {
      size_t at = std::min(static_cast<size_t>(fault->snapshot_flip_byte),
                           out.size() - 1);
      out[at] ^= 0x01;
    }
  }

  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Error("snapshot: cannot open " + tmp + " for writing");
  }
  size_t written = out.empty() ? 0 : std::fwrite(out.data(), 1, out.size(), f);
  bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != out.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Error("snapshot: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error("snapshot: cannot rename " + tmp + " to " + path);
  }
  ++stats_.snapshot_saves;
  return Status::Ok();
}

Result<std::unique_ptr<PreparedKb>> PreparedKb::LoadSnapshot(
    const std::string& path, SymbolTable* symbols,
    const PreparedKbOptions& options, uint64_t expected_fingerprint) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return CorruptError(path, "cannot open");
  std::vector<uint8_t> image;
  uint8_t chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    image.insert(image.end(), chunk, chunk + n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return CorruptError(path, "read error");

  // Envelope checks: header present, magic/version match, payload not
  // truncated, checksum intact.
  constexpr size_t kHeader = 8 + 4 + 8;
  if (image.size() < kHeader + 8) return CorruptError(path, "truncated header");
  Reader header(image.data(), kHeader);
  if (header.U64() != kSnapshotMagic) return CorruptError(path, "bad magic");
  uint32_t version = header.U32();
  if (version != kSnapshotVersion) {
    return CorruptError(path, "unsupported version");
  }
  uint64_t payload_size = header.U64();
  if (image.size() != kHeader + payload_size + 8) {
    return CorruptError(path, "truncated payload");
  }
  const uint8_t* payload = image.data() + kHeader;
  Reader trailer(payload + payload_size, 8);
  if (trailer.U64() != Fnv1a(payload, payload_size)) {
    return CorruptError(path, "checksum mismatch");
  }

  Reader r(payload, payload_size);
  uint64_t fingerprint = r.U64();
  if (expected_fingerprint != 0 && fingerprint != 0 &&
      fingerprint != expected_fingerprint) {
    return CorruptError(path, "fingerprint mismatch (stale snapshot)");
  }
  uint8_t mode_byte = r.U8();
  if (mode_byte > static_cast<uint8_t>(Mode::kChaseMaterialized)) {
    return CorruptError(path, "corrupt payload");
  }
  uint8_t flags = r.U8();
  DegradationReason rewrite_deg = r.Degradation();
  DegradationReason compile_deg = r.Degradation();
  DegradationReason materialize_deg = r.Degradation();
  std::string certificate_kind = r.Str();
  uint64_t diagnostics = r.U64();
  if (!IsCertificateKindName(certificate_kind)) {
    return CorruptError(path, "corrupt payload");
  }

  // Re-intern names in dense-id order; `symbols` must be fresh so the
  // ids assigned here equal the ids baked into the serialized terms.
  if (symbols->NumRelations() != 0 || symbols->NumConstants() != 0 ||
      symbols->NumVariables() != 0) {
    return Status::Error("snapshot: symbol table must be empty before load");
  }
  // A repeated name would re-intern to an earlier id (and shift every
  // later one), so each name must land on the next dense id.
  uint32_t num_relations = r.U32();
  for (uint32_t i = 0; i < num_relations && r.ok(); ++i) {
    std::string name = r.Str();
    int arity = static_cast<int>(r.U32());
    if (!r.ok()) break;
    if (symbols->FindRelation(name) != kUnknownRelation || arity < -1) {
      return CorruptError(path, "corrupt payload");
    }
    symbols->Relation(name, arity);
  }
  uint32_t num_constants = r.U32();
  for (uint32_t i = 0; i < num_constants && r.ok(); ++i) {
    if (symbols->Constant(r.Str()).id() != i) {
      return CorruptError(path, "corrupt payload");
    }
  }
  uint32_t num_variables = r.U32();
  for (uint32_t i = 0; i < num_variables && r.ok(); ++i) {
    if (symbols->Variable(r.Str()).id() != i) {
      return CorruptError(path, "corrupt payload");
    }
  }
  symbols->RestoreNullCounter(r.U32());
  // Named nulls in strictly increasing id order, each name once, every
  // id below the counter.
  uint32_t num_named = r.U32();
  int64_t last_named = -1;
  for (uint32_t i = 0; i < num_named && r.ok(); ++i) {
    std::string name = r.Str();
    uint32_t id = r.U32();
    if (!r.ok()) break;
    if (static_cast<int64_t>(id) <= last_named ||
        !symbols->RestoreNamedNull(name, id)) {
      return CorruptError(path, "corrupt payload");
    }
    last_named = id;
  }

  Theory normal = r.TheoryRec();
  Theory weakly_guarded = r.TheoryRec();
  Theory program_rules = r.TheoryRec();
  if (!r.ok() || !FitsSymbols(normal, *symbols) ||
      !FitsSymbols(weakly_guarded, *symbols) ||
      !FitsSymbols(program_rules, *symbols)) {
    return CorruptError(path, "corrupt payload");
  }
  // Only a certified theory runs as a Skolem program: chase mode's
  // program is the normalized theory, whose existential rules have one
  // head atom each, and every other mode's is Datalog.
  const bool chase = mode_byte == static_cast<uint8_t>(Mode::kChaseMaterialized);
  if (chase && program_rules.rules() != normal.rules()) {
    return CorruptError(path, "corrupt payload");
  }
  for (const Rule& rule : program_rules.rules()) {
    if (!rule.IsDatalog() && (!chase || rule.head.size() != 1)) {
      return CorruptError(path, "corrupt payload");
    }
  }
  auto read_database = [&](Database* db) {
    uint64_t atoms = r.U64();
    for (uint64_t i = 0; i < atoms && r.ok(); ++i) {
      Atom a = r.AtomRec();
      if (!r.ok() || !FitsSymbols(a, *symbols, /*database_atom=*/true)) {
        return false;
      }
      db->Insert(a);
    }
    return r.ok();
  };
  Database edb;
  Database model;
  if (!read_database(&edb) || !read_database(&model)) {
    return CorruptError(path, "corrupt payload");
  }
  uint32_t num_grounded = r.U32();
  std::unordered_set<uint32_t> grounded;
  for (uint32_t i = 0; i < num_grounded && r.ok(); ++i) grounded.insert(r.U32());
  if (!r.ok()) return CorruptError(path, "corrupt payload");

  std::unique_ptr<PreparedKb> kb(new PreparedKb(symbols, options));
  kb->budget_ = std::make_unique<ExecutionBudget>();
  kb->budget_->Arm(options.budget, GlobalFaultPlan());
  kb->snapshot_fingerprint_ = fingerprint;
  kb->mode_ = static_cast<Mode>(mode_byte);
  kb->rewrite_complete_ = (flags & 1) != 0;
  kb->compile_complete_ = (flags & 2) != 0;
  kb->materialize_complete_ = (flags & 4) != 0;
  kb->theory_has_existentials_ = (flags & 8) != 0;
  kb->rewrite_degradation_ = rewrite_deg;
  kb->compile_degradation_ = compile_deg;
  kb->materialize_degradation_ = materialize_deg;
  kb->normal_ = std::move(normal);
  kb->weakly_guarded_ = std::move(weakly_guarded);
  kb->affected_ = AffectedPositions(kb->normal_);
  kb->acdom_ = AcdomRelation(symbols);
  kb->edb_ = std::move(edb);
  kb->model_ = std::move(model);
  kb->grounded_constants_ = std::move(grounded);
  // Only the join-plan compilation re-runs; rewrite, grounding, and
  // saturation artifacts are all baked into the stored rule set.
  DatalogOptions dopts = options.datalog;
  dopts.budget = kb->budget_.get();
  // Derivation supports are not persisted: the freshly compiled program
  // does not trust its empty log, so the first Retract re-materializes
  // (and rebuilds the log as a side effect). The dependency index is
  // pure program structure, so it is rebuilt here for cache eviction.
  dopts.support_log = &kb->supports_;
  Result<DatalogProgram> program =
      DatalogProgram::Compile(std::move(program_rules), symbols, dopts);
  if (!program.ok()) return program.status();
  kb->program_ = std::make_unique<DatalogProgram>(std::move(program).value());
  kb->BuildDependencyIndex();
  // The Skolem table: ground frontier images and nulls that fit the
  // symbol table, for existential rules of matching shape (SeedSkolem).
  uint64_t num_skolem = r.U64();
  for (uint64_t i = 0; i < num_skolem && r.ok(); ++i) {
    uint32_t rule = r.U32();
    std::vector<Term> frontier = r.Terms();
    std::vector<Term> nulls = r.Terms();
    if (!r.ok()) break;
    auto ground = [&](Term t) { return FitsSymbols(t, *symbols, true); };
    auto null = [&](Term t) { return t.IsNull() && ground(t); };
    if (!std::all_of(frontier.begin(), frontier.end(), ground) ||
        !std::all_of(nulls.begin(), nulls.end(), null) ||
        !kb->program_->SeedSkolem(rule, std::move(frontier), std::move(nulls))
             .ok()) {
      return CorruptError(path, "corrupt payload");
    }
  }
  if (!r.AtEnd()) return CorruptError(path, "corrupt payload");
  ServiceStats& stats = kb->stats_;
  stats.snapshot_loads = 1;
  stats.model_atoms = kb->model_.size();
  stats.datalog_rules = kb->datalog_rules();
  stats.materialization_strategy =
      kb->mode_ == Mode::kChaseMaterialized ? "chase" : "datalog";
  stats.termination_certificate = std::move(certificate_kind);
  stats.diagnostics = diagnostics;
  DegradationReason reason = kb->degradation();
  if (reason.degraded()) stats.last_degradation = reason;
  return kb;
}

}  // namespace gerel
