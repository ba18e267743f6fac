// Tests for crash-safe PreparedKb persistence (service/snapshot.cc):
// round-trip fidelity, corruption/version/fingerprint detection at load,
// and the re-materialization fallback.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fault.h"
#include "core/parser.h"
#include "service/prepared_kb.h"

namespace gerel {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* tmp = std::getenv("TMPDIR");
    // The pid keeps parallel test processes apart: the fixture's address
    // alone repeats from one process to the next.
    path_ = std::string(tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp") +
            "/gerel-snapshot-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".snap";
  }
  void TearDown() override {
    SetFaultPlanForTest(nullptr);
    std::remove(path_.c_str());
  }

  std::string path_;
};

const char* kWgTheory = R"(
  gen(X) -> exists Y. e(X, Y).
  e(X, Y), e(Y, Z) -> e(X, Z).
  e(X, Y) -> node(X).
)";

std::unique_ptr<PreparedKb> PrepareWg(SymbolTable* syms) {
  Theory t = ParseTheory(kWgTheory, syms).value();
  Database db = ParseDatabase("gen(a). e(a, b). e(b, c).", syms).value();
  Result<std::unique_ptr<PreparedKb>> kb = PreparedKb::Prepare(t, db, syms);
  EXPECT_TRUE(kb.ok()) << kb.status().message();
  return std::move(kb).value();
}

std::set<std::vector<Term>> QueryNodes(PreparedKb* kb, SymbolTable* syms) {
  Rule cq = ParseRule("node(U) -> q(U)", syms).value();
  Result<PreparedQueryResult> r = kb->Query(cq);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.value().answers;
}

TEST_F(SnapshotTest, RoundTripPreservesModelAndAnswers) {
  SymbolTable syms;
  auto kb = PrepareWg(&syms);
  std::set<std::vector<Term>> clean_answers = QueryNodes(kb.get(), &syms);
  ASSERT_FALSE(clean_answers.empty());
  ASSERT_TRUE(kb->SaveSnapshot(path_).ok());

  SymbolTable loaded_syms;
  Result<std::unique_ptr<PreparedKb>> loaded =
      PreparedKb::LoadSnapshot(path_, &loaded_syms);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value()->mode(), kb->mode());
  EXPECT_EQ(loaded.value()->model_size(), kb->model_size());
  EXPECT_EQ(QueryNodes(loaded.value().get(), &loaded_syms), clean_answers);
  EXPECT_EQ(loaded.value()->stats().snapshot_loads, 1u);
}

TEST_F(SnapshotTest, WarmStartKeepsTheAnalysisStats) {
  // A certified program with a pre-flight finding (orphan/1 is never
  // populated): the planner's certificate and the diagnostics count
  // belong to the program, so a warm start must report the cold ones.
  SymbolTable syms;
  Theory t = ParseTheory(std::string(kWgTheory) + "orphan(X) -> node(X).\n",
                         &syms)
                 .value();
  Database db = ParseDatabase("gen(a). e(a, b). e(b, c).", &syms).value();
  Result<std::unique_ptr<PreparedKb>> kb = PreparedKb::Prepare(t, db, &syms);
  ASSERT_TRUE(kb.ok()) << kb.status().message();
  ServiceStats cold = kb.value()->stats();
  ASSERT_EQ(cold.termination_certificate, "weakly-acyclic");
  ASSERT_GT(cold.diagnostics, 0u);
  ASSERT_TRUE(kb.value()->SaveSnapshot(path_).ok());

  SymbolTable loaded_syms;
  Result<std::unique_ptr<PreparedKb>> loaded =
      PreparedKb::LoadSnapshot(path_, &loaded_syms);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ServiceStats warm = loaded.value()->stats();
  EXPECT_EQ(warm.termination_certificate, cold.termination_certificate);
  EXPECT_EQ(warm.diagnostics, cold.diagnostics);
  EXPECT_EQ(warm.materialization_strategy, cold.materialization_strategy);
  EXPECT_EQ(warm.model_atoms, cold.model_atoms);
  EXPECT_EQ(warm.datalog_rules, cold.datalog_rules);
}

TEST_F(SnapshotTest, LoadedKbAcceptsAsserts) {
  SymbolTable syms;
  auto kb = PrepareWg(&syms);
  ASSERT_TRUE(kb->SaveSnapshot(path_).ok());
  SymbolTable loaded_syms;
  Result<std::unique_ptr<PreparedKb>> loaded =
      PreparedKb::LoadSnapshot(path_, &loaded_syms);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  Database extra = ParseDatabase("e(c, d).", &loaded_syms).value();
  Result<AssertResult> asserted =
      loaded.value()->Assert(extra.AtomsVector());
  ASSERT_TRUE(asserted.ok()) << asserted.status().message();
  EXPECT_EQ(asserted.value().new_atoms, 1u);
  Rule cq = ParseRule("node(U) -> q(U)", &loaded_syms).value();
  Result<PreparedQueryResult> r = loaded.value()->Query(cq);
  ASSERT_TRUE(r.ok());
  // d's predecessor chain makes c a node too.
  Term c = loaded_syms.Constant("c");
  EXPECT_TRUE(r.value().answers.count({c}));
}

TEST_F(SnapshotTest, WarmStartKeepsNamedNulls) {
  // A CQ naming the EDB's `_x` must match it warm as it does cold: the
  // image carries the named nulls' names, not just the null counter.
  SymbolTable syms;
  Program program =
      ParseProgram("p(X, Y) -> r(X, Y).\np(_x, a). p(b, c).\n", &syms).value();
  Result<std::unique_ptr<PreparedKb>> kb =
      PreparedKb::Prepare(program.theory, program.database, &syms);
  ASSERT_TRUE(kb.ok()) << kb.status().message();
  auto answers = [](PreparedKb* kb, SymbolTable* syms) {
    Rule cq = ParseRule("p(_x, Y) -> q(Y)", syms).value();
    Result<PreparedQueryResult> r = kb->Query(cq);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return r.value().answers;
  };
  std::set<std::vector<Term>> cold = answers(kb.value().get(), &syms);
  EXPECT_EQ(cold, (std::set<std::vector<Term>>{{syms.Constant("a")}}));
  ASSERT_TRUE(kb.value()->SaveSnapshot(path_).ok());

  SymbolTable loaded_syms;
  Result<std::unique_ptr<PreparedKb>> loaded =
      PreparedKb::LoadSnapshot(path_, &loaded_syms);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded_syms.FindNamedNull("_x"), syms.FindNamedNull("_x"));
  EXPECT_EQ(answers(loaded.value().get(), &loaded_syms), cold);
}

TEST_F(SnapshotTest, WarmChaseTenantMintsTheColdNulls) {
  SymbolTable syms;
  auto kb = PrepareWg(&syms);
  ASSERT_EQ(kb->mode(), PreparedKb::Mode::kChaseMaterialized);
  ASSERT_TRUE(kb->SaveSnapshot(path_).ok());
  SymbolTable loaded_syms;
  Result<std::unique_ptr<PreparedKb>> loaded =
      PreparedKb::LoadSnapshot(path_, &loaded_syms);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value()->datalog_rules(), kb->datalog_rules());
  // e(c, a) closes a cycle through a's null successor (a Skolem table
  // hit) and gen(b) mints a new null: both tenants must derive the same
  // atoms with the same null ids.
  const char* facts = "e(c, a). gen(b).";
  Result<AssertResult> cold =
      kb->Assert(ParseDatabase(facts, &syms).value().AtomsVector());
  Result<AssertResult> warm = loaded.value()->Assert(
      ParseDatabase(facts, &loaded_syms).value().AtomsVector());
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  ASSERT_TRUE(warm.ok()) << warm.status().message();
  EXPECT_TRUE(warm.value().delta);
  EXPECT_GT(cold.value().derived_atoms, 0u);
  EXPECT_EQ(warm.value().derived_atoms, cold.value().derived_atoms);
  EXPECT_EQ(loaded_syms.NumNulls(), syms.NumNulls());
  EXPECT_TRUE(loaded.value()->ModelAtoms() == kb->ModelAtoms());
}

TEST_F(SnapshotTest, LoadRequiresFreshSymbolTable) {
  SymbolTable syms;
  auto kb = PrepareWg(&syms);
  ASSERT_TRUE(kb->SaveSnapshot(path_).ok());
  // Reusing the populated table must be rejected, not silently mis-bound.
  Result<std::unique_ptr<PreparedKb>> loaded =
      PreparedKb::LoadSnapshot(path_, &syms);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SnapshotTest, DetectsTruncation) {
  SymbolTable syms;
  auto kb = PrepareWg(&syms);
  ASSERT_TRUE(kb->SaveSnapshot(path_).ok());
  // Truncate at several depths: inside the header, inside the payload,
  // and just shy of the checksum trailer. Every cut must be detected.
  std::ifstream in(path_, std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(image.size(), 30u);
  for (size_t cut : {size_t{0}, size_t{10}, size_t{25}, image.size() - 1}) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(image.data(), cut);
    out.close();
    SymbolTable fresh;
    Result<std::unique_ptr<PreparedKb>> loaded =
        PreparedKb::LoadSnapshot(path_, &fresh);
    EXPECT_FALSE(loaded.ok()) << "undetected truncation at byte " << cut;
  }
}

TEST_F(SnapshotTest, DetectsBitFlipAnywhere) {
  SymbolTable syms;
  auto kb = PrepareWg(&syms);
  ASSERT_TRUE(kb->SaveSnapshot(path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one bit in the magic, the version, the size field, the payload,
  // and the checksum trailer.
  for (size_t at : {size_t{2}, size_t{9}, size_t{13}, size_t{24},
                    image.size() - 3}) {
    std::string bad = image;
    bad[at] ^= 0x01;
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bad.data(), bad.size());
    out.close();
    SymbolTable fresh;
    Result<std::unique_ptr<PreparedKb>> loaded =
        PreparedKb::LoadSnapshot(path_, &fresh);
    EXPECT_FALSE(loaded.ok()) << "undetected bit flip at byte " << at;
  }
}

TEST_F(SnapshotTest, DetectsFingerprintMismatch) {
  SymbolTable syms;
  auto kb = PrepareWg(&syms);
  kb->set_snapshot_fingerprint(42);
  ASSERT_TRUE(kb->SaveSnapshot(path_).ok());
  SymbolTable fresh;
  Result<std::unique_ptr<PreparedKb>> stale =
      PreparedKb::LoadSnapshot(path_, &fresh, PreparedKbOptions(), 43);
  EXPECT_FALSE(stale.ok());
  SymbolTable fresh2;
  Result<std::unique_ptr<PreparedKb>> match =
      PreparedKb::LoadSnapshot(path_, &fresh2, PreparedKbOptions(), 42);
  EXPECT_TRUE(match.ok()) << match.status().message();
}

TEST_F(SnapshotTest, FaultPlanCorruptionIsDetectedAndRecoverable) {
  SymbolTable syms;
  auto kb = PrepareWg(&syms);
  std::set<std::vector<Term>> clean_answers = QueryNodes(kb.get(), &syms);

  FaultPlan truncate;
  truncate.snapshot_truncate_at = 12;
  FaultPlan flip;
  flip.snapshot_flip_byte = 30;
  for (const FaultPlan* plan : {&truncate, &flip}) {
    SetFaultPlanForTest(plan);
    ASSERT_TRUE(kb->SaveSnapshot(path_).ok());
    SetFaultPlanForTest(nullptr);
    SymbolTable fresh;
    Result<std::unique_ptr<PreparedKb>> loaded =
        PreparedKb::LoadSnapshot(path_, &fresh);
    EXPECT_FALSE(loaded.ok()) << "undetected injected corruption";
    // Recovery: fall back to a fresh Prepare (what `gerel serve` does).
    SymbolTable recovered_syms;
    auto recovered = PrepareWg(&recovered_syms);
    EXPECT_EQ(QueryNodes(recovered.get(), &recovered_syms), clean_answers);
  }
}

// --- Well-sealed but malformed payloads ---------------------------------
//
// The checksum only proves the bytes were read as written. These images
// are corrupted *and then re-sealed* (FNV-1a trailer recomputed), so the
// loader's own payload checks must reject them before an engine sees an
// atom it cannot handle.

constexpr size_t kHeaderBytes = 8 + 4 + 8;  // magic, version, payload size

std::string ReadImage(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteResealed(const std::string& path, std::string image) {
  size_t payload_end = image.size() - 8;
  uint64_t h = 14695981039346656037ull;
  for (size_t i = kHeaderBytes; i < payload_end; ++i) {
    h ^= static_cast<uint8_t>(image[i]);
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    image[payload_end + i] = static_cast<char>((h >> (8 * i)) & 0xFF);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(image.data(), image.size());
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint32_t GetU32(const std::string& image, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(image[at + i])) << (8 * i);
  }
  return v;
}

// Replaces the payload's last `old_len` bytes by `tail` and rewrites the
// header's payload size to match (LoadResealed recomputes the checksum).
std::string WithPayloadTail(const std::string& image, size_t old_len,
                            const std::string& tail) {
  std::string out = image.substr(0, image.size() - 8 - old_len) + tail +
                    image.substr(image.size() - 8);
  uint64_t payload = out.size() - kHeaderBytes - 8;
  for (int i = 0; i < 8; ++i) {
    out[12 + i] = static_cast<char>((payload >> (8 * i)) & 0xFF);
  }
  return out;
}

// A serialized Skolem table: u64 count, then (rule, frontier, nulls).
struct SkolemRecord {
  uint32_t rule;
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> nulls;
};

std::string SkolemTableBytes(const std::vector<SkolemRecord>& records) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(records.size()));
  PutU32(&out, 0);
  for (const SkolemRecord& r : records) {
    PutU32(&out, r.rule);
    PutU32(&out, static_cast<uint32_t>(r.frontier.size()));
    for (uint32_t bits : r.frontier) PutU32(&out, bits);
    PutU32(&out, static_cast<uint32_t>(r.nulls.size()));
    for (uint32_t bits : r.nulls) PutU32(&out, bits);
  }
  return out;
}

// The serialized record of a binary atom without annotation.
std::string AtomBytes(RelationId pred, Term a, Term b) {
  std::string out;
  PutU32(&out, pred);
  PutU32(&out, 2);
  PutU32(&out, a.bits());
  PutU32(&out, b.bits());
  PutU32(&out, 0);
  return out;
}

// Saves a snapshot and locates the two records of tag(k1, k2) in it: the
// first lies in the EDB, the second in the model (no rule mentions `tag`).
class MalformedSnapshotTest : public SnapshotTest {
 protected:
  void SetUp() override {
    SnapshotTest::SetUp();
    Theory t = ParseTheory(kWgTheory, &syms_).value();
    Database db =
        ParseDatabase("gen(a). e(a, b). e(b, c). tag(k1, k2).", &syms_).value();
    Result<std::unique_ptr<PreparedKb>> kb = PreparedKb::Prepare(t, db, &syms_);
    ASSERT_TRUE(kb.ok()) << kb.status().message();
    ASSERT_TRUE(kb.value()->SaveSnapshot(path_).ok());
    image_ = ReadImage(path_);
    std::string record = AtomBytes(syms_.Relation("tag"), syms_.Constant("k1"),
                                   syms_.Constant("k2"));
    edb_at_ = image_.find(record, kHeaderBytes);
    ASSERT_NE(edb_at_, std::string::npos);
    model_at_ = image_.find(record, edb_at_ + record.size());
    ASSERT_NE(model_at_, std::string::npos);
    // Re-sealing alone must not be what the tests below trip over.
    Result<std::unique_ptr<PreparedKb>> clean = LoadResealed(image_);
    ASSERT_TRUE(clean.ok()) << clean.status().message();
  }

  // Loads `image` after re-sealing it into a fresh symbol table.
  Result<std::unique_ptr<PreparedKb>> LoadResealed(const std::string& image) {
    WriteResealed(path_, image);
    SymbolTable fresh;
    return PreparedKb::LoadSnapshot(path_, &fresh);
  }

  // Overwrites the u32 at `at` in a copy of the image.
  std::string Patched(size_t at, uint32_t v) const {
    std::string bad = image_;
    std::string bytes;
    PutU32(&bytes, v);
    bad.replace(at, 4, bytes);
    return bad;
  }

  SymbolTable syms_;
  std::string image_;
  size_t edb_at_ = 0;
  size_t model_at_ = 0;
};

TEST_F(MalformedSnapshotTest, RejectsVariableInEdbAtom) {
  // tag(X, k2) in the EDB: a database atom may not hold a variable.
  size_t first_arg = edb_at_ + 8;
  Result<std::unique_ptr<PreparedKb>> loaded =
      LoadResealed(Patched(first_arg, Term::Variable(0).bits()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("corrupt payload"),
            std::string::npos)
      << loaded.status().message();
}

TEST_F(MalformedSnapshotTest, RejectsUnknownIdsInModelAtom) {
  size_t first_arg = model_at_ + 8;
  const std::pair<size_t, uint32_t> corruptions[] = {
      // A constant id far past the constant table.
      {first_arg, 0x3FFFFFF0u},
      // A null at or above the restored null counter.
      {first_arg, Term::Null(syms_.NumNulls()).bits()},
      // A variable in a model atom.
      {first_arg, Term::Variable(0).bits()},
      // A relation id past the relation table.
      {model_at_, static_cast<uint32_t>(syms_.NumRelations())},
      // A known relation of another arity (gen/1).
      {model_at_, syms_.Relation("gen")},
  };
  for (const auto& [at, value] : corruptions) {
    Result<std::unique_ptr<PreparedKb>> loaded =
        LoadResealed(Patched(at, value));
    ASSERT_FALSE(loaded.ok()) << "accepted 0x" << std::hex << value
                              << " at byte " << std::dec << at;
    EXPECT_NE(loaded.status().message().find("corrupt payload"),
              std::string::npos)
        << loaded.status().message();
  }
}

TEST_F(MalformedSnapshotTest, RejectsRepeatedSymbolNames) {
  // A repeated name would re-intern to an earlier id: for a relation of
  // another arity that trips the symbol table's arity check, for a
  // constant it shifts every later constant's id.
  const std::pair<std::string, std::string> renames[] = {
      {std::string("\x03\0\0\0tag", 7), std::string("\x03\0\0\0gen", 7)},
      {std::string("\x02\0\0\0k2", 6), std::string("\x02\0\0\0k1", 6)},
  };
  for (const auto& [from, to] : renames) {
    std::string bad = image_;
    size_t at = bad.find(from, kHeaderBytes);
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, from.size(), to);
    Result<std::unique_ptr<PreparedKb>> loaded = LoadResealed(bad);
    ASSERT_FALSE(loaded.ok()) << "accepted a repeated " << to.substr(4);
    EXPECT_NE(loaded.status().message().find("corrupt payload"),
              std::string::npos)
        << loaded.status().message();
  }
}

TEST_F(MalformedSnapshotTest, RejectsUnknownCertificateKind) {
  const std::string name = "weakly-acyclic";
  std::string bad = image_;
  size_t at = bad.find(name, kHeaderBytes);
  ASSERT_NE(at, std::string::npos);
  bad[at + name.size() - 1] = 'x';
  Result<std::unique_ptr<PreparedKb>> loaded = LoadResealed(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("corrupt payload"),
            std::string::npos)
      << loaded.status().message();
}

TEST_F(MalformedSnapshotTest, RejectsMalformedSkolemEntries) {
  // gen(a) fired once, so the fixture's Skolem table is one entry that
  // ends the payload: (rule, [a], [n]), 28 bytes with the count.
  const size_t table_bytes = 8 + 20;
  const size_t entry_at = image_.size() - 8 - 20;
  const uint32_t rule = GetU32(image_, entry_at);
  const uint32_t a = GetU32(image_, entry_at + 8);
  const uint32_t n = GetU32(image_, entry_at + 16);
  ASSERT_EQ(a, syms_.Constant("a").bits());
  const SkolemRecord clean = {rule, {a}, {n}};
  ASSERT_EQ(SkolemTableBytes({clean}),
            image_.substr(image_.size() - 8 - table_bytes, table_bytes));
  const std::pair<const char*, std::vector<SkolemRecord>> corruptions[] = {
      {"rule past the program", {{99, {a}, {n}}}},
      {"Datalog rule", {{rule == 0 ? 1u : 0u, {a}, {n}}}},
      {"frontier too long", {{rule, {a, a}, {n}}}},
      {"frontier too short", {{rule, {}, {n}}}},
      {"too many nulls", {{rule, {a}, {n, n}}}},
      {"no null", {{rule, {a}, {}}}},
      {"variable in the frontier", {{rule, {Term::Variable(0).bits()}, {n}}}},
      {"unknown constant in the frontier",
       {{rule, {Term::Constant(0x3FFFFFF0u).bits()}, {n}}}},
      {"constant for a null", {{rule, {a}, {a}}}},
      {"null at the counter",
       {{rule, {a}, {Term::Null(syms_.NumNulls()).bits()}}}},
      {"repeated entry", {clean, clean}},
  };
  for (const auto& [what, records] : corruptions) {
    Result<std::unique_ptr<PreparedKb>> loaded = LoadResealed(
        WithPayloadTail(image_, table_bytes, SkolemTableBytes(records)));
    ASSERT_FALSE(loaded.ok()) << "accepted a Skolem entry with " << what;
    EXPECT_NE(loaded.status().message().find("corrupt payload"),
              std::string::npos)
        << what << ": " << loaded.status().message();
  }
}

TEST_F(MalformedSnapshotTest, RejectsAChaseProgramOtherThanTheTheory) {
  // A chase-mode image stores the normalized theory three times: as
  // itself, as the weakly guarded theory, and as the Skolem program. A
  // program whose node(X) head reads node(Y) is not the theory.
  std::string head;
  PutU32(&head, syms_.Relation("node"));
  PutU32(&head, 1);
  PutU32(&head, syms_.Variable("X").bits());
  PutU32(&head, 0);
  size_t at = kHeaderBytes;
  for (int copy = 0; copy < 3; ++copy) {
    at = image_.find(head, copy == 0 ? at : at + head.size());
    ASSERT_NE(at, std::string::npos) << "copy " << copy;
  }
  Result<std::unique_ptr<PreparedKb>> loaded =
      LoadResealed(Patched(at + 8, syms_.Variable("Y").bits()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("corrupt payload"),
            std::string::npos)
      << loaded.status().message();
}

TEST_F(MalformedSnapshotTest, RejectsMalformedNamedNulls) {
  // An image whose named nulls _x and _y hold ids 0 and 1: each patch
  // below repeats a name or an id, or points past the null counter.
  SymbolTable syms;
  Program program =
      ParseProgram("p(X) -> r(X).\np(_x). p(_y).\n", &syms).value();
  Result<std::unique_ptr<PreparedKb>> kb =
      PreparedKb::Prepare(program.theory, program.database, &syms);
  ASSERT_TRUE(kb.ok()) << kb.status().message();
  ASSERT_TRUE(kb.value()->SaveSnapshot(path_).ok());
  const std::string image = ReadImage(path_);
  const std::string y_record = std::string("\x02\0\0\0_y", 6);
  const size_t y_at = image.find(y_record, kHeaderBytes);
  ASSERT_NE(y_at, std::string::npos);
  const size_t y_id_at = y_at + y_record.size();
  ASSERT_EQ(GetU32(image, y_id_at), syms.FindNamedNull("_y").id());
  ASSERT_TRUE(LoadResealed(image).ok());
  std::string repeated_name = image;
  repeated_name[y_at + 5] = 'x';
  std::string repeated_id = image;
  repeated_id.replace(y_id_at, 4, std::string(4, '\0'));
  std::string past_counter = image;
  std::string counter;
  PutU32(&counter, syms.NumNulls());
  past_counter.replace(y_id_at, 4, counter);
  for (const std::string& bad : {repeated_name, repeated_id, past_counter}) {
    Result<std::unique_ptr<PreparedKb>> loaded = LoadResealed(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("corrupt payload"),
              std::string::npos)
        << loaded.status().message();
  }
}

TEST_F(SnapshotTest, MissingFileIsAnError) {
  SymbolTable fresh;
  Result<std::unique_ptr<PreparedKb>> loaded =
      PreparedKb::LoadSnapshot(path_ + ".does-not-exist", &fresh);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SnapshotTest, SaveCountsInStats) {
  SymbolTable syms;
  auto kb = PrepareWg(&syms);
  ASSERT_TRUE(kb->SaveSnapshot(path_).ok());
  ASSERT_TRUE(kb->SaveSnapshot(path_).ok());
  EXPECT_EQ(kb->stats().snapshot_saves, 2u);
}

}  // namespace
}  // namespace gerel
