// Serving-layer tests (ctest label `serving`): the JSON codec, wire
// decode/encode, the multi-tenant dispatcher (including queries that
// write nothing to the tenant, and 4 readers with 1 writer on one
// tenant), and loopback-socket integration against a live SocketServer —
// including the differential check that socket answers are
// byte-identical to an in-process PreparedKb over the same program, at 1
// and 8 client threads, and a mixed query/assert hammer sized for TSan.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/parser.h"
#include "core/printer.h"
#include "server/dispatch.h"
#include "server/json.h"
#include "server/registry.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"
#include "service/prepared_kb.h"

namespace gerel {
namespace server {
namespace {

constexpr char kTcProgram[] =
    "e(X, Y) -> t(X, Y).\n"
    "e(X, Y), t(Y, Z) -> t(X, Z).\n"
    "e(a, b). e(b, c). e(c, d).\n";

// Weakly guarded: invents a null successor, so e-queries come back
// sound but possibly incomplete — the degradation-shaped differential
// case.
constexpr char kWgProgram[] =
    "gen(X) -> exists Y. e(X, Y).\n"
    "e(X, Y), e(Y, Z) -> e(X, Z).\n"
    "gen(a). e(a, b). e(b, c).\n";

// --- JSON ---

TEST(JsonTest, ParseScalars) {
  auto v = JsonValue::Parse("{\"a\": 1, \"b\": true, \"c\": null, "
                            "\"d\": \"x\", \"e\": -2.5}");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().Get("a")->as_number(), 1);
  EXPECT_TRUE(v.value().Get("b")->as_bool());
  EXPECT_TRUE(v.value().Get("c")->is_null());
  EXPECT_EQ(v.value().Get("d")->as_string(), "x");
  EXPECT_DOUBLE_EQ(v.value().Get("e")->as_number(), -2.5);
  EXPECT_EQ(v.value().Get("missing"), nullptr);
}

TEST(JsonTest, ParseNestedAndDumpRoundTrip) {
  const std::string text =
      "{\"op\": \"query\", \"ids\": [1, 2, 3], "
      "\"inner\": {\"k\": [true, null]}}";
  auto v = JsonValue::Parse(text);
  ASSERT_TRUE(v.ok());
  // Dump preserves member order and the repo's one-line style, so a
  // parse→dump round trip reproduces the input exactly.
  EXPECT_EQ(v.value().Dump(), text);
}

TEST(JsonTest, ParseStringEscapes) {
  auto v = JsonValue::Parse("\"a\\n\\t\\\"\\\\b\\u00e9\\ud83d\\ude00\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().as_string(),
            "a\n\t\"\\b\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{oops}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
  EXPECT_FALSE(JsonValue::Parse("\"ctrl\x01char\"").ok());
  EXPECT_FALSE(JsonValue::Parse("").ok());
  // Depth bound: the default admits nesting levels 0..32, so 34 nested
  // arrays are one too many.
  std::string deep(34, '[');
  deep += std::string(34, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
  EXPECT_TRUE(JsonValue::Parse(std::string(33, '[') +
                               std::string(33, ']')).ok());
}

TEST(JsonTest, DumpIntegralNumbersWithoutDecimalPoint) {
  EXPECT_EQ(JsonValue::Number(3).Dump(), "3");
  EXPECT_EQ(JsonValue::Number(3.5).Dump(), "3.5");
  EXPECT_EQ(JsonValue::Number(-7).Dump(), "-7");
}

// --- Wire decode/encode ---

TEST(WireTest, DecodeQuery) {
  auto frame = JsonValue::Parse(
      "{\"op\": \"query\", \"kb\": \"main\", "
      "\"cq\": \"e(X, Y) -> q(X)\", \"id\": 7}");
  ASSERT_TRUE(frame.ok());
  auto req = DecodeRequest(frame.value());
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().op, Op::kQuery);
  EXPECT_EQ(req.value().kb, "main");
  EXPECT_EQ(req.value().cq, "e(X, Y) -> q(X)");
  EXPECT_TRUE(req.value().has_id);
  EXPECT_EQ(req.value().id, 7);
}

TEST(WireTest, DecodeAssertJoinsFactArrays) {
  auto frame = JsonValue::Parse(
      "{\"op\": \"assert\", \"facts\": [\"e(a, b)\", \"e(b, c).\"]}");
  ASSERT_TRUE(frame.ok());
  auto req = DecodeRequest(frame.value());
  ASSERT_TRUE(req.ok());
  // Array elements are joined into one batch; missing periods padded.
  EXPECT_EQ(req.value().facts, "e(a, b). e(b, c).");
}

TEST(WireTest, DecodeRejectsUnknownOp) {
  auto frame = JsonValue::Parse("{\"op\": \"teleport\"}");
  ASSERT_TRUE(frame.ok());
  auto req = DecodeRequest(frame.value());
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().message().rfind("unknown_op: ", 0), 0u)
      << req.status().message();
}

TEST(WireTest, DecodeRejectsMissingOp) {
  auto frame = JsonValue::Parse("{\"kb\": \"main\"}");
  ASSERT_TRUE(frame.ok());
  auto req = DecodeRequest(frame.value());
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().message().rfind("bad_request: ", 0), 0u);
}

// Request integers arrive as JSON doubles: only integral values within
// ±(2^53 - 1) are accepted, so the id a reply echoes is the one sent.
TEST(WireTest, IdMustBeAnExactInteger) {
  auto decode = [](const std::string& id) {
    auto frame = JsonValue::Parse("{\"op\": \"stats\", \"id\": " + id + "}");
    EXPECT_TRUE(frame.ok()) << id;
    return DecodeRequest(frame.value());
  };
  for (const char* bad : {"1e300", "-1e19", "2.7", "9007199254740993",
                          "-9007199254740993", "\"7\"", "true"}) {
    auto req = decode(bad);
    ASSERT_FALSE(req.ok()) << bad;
    EXPECT_EQ(req.status().message().rfind("bad_request: ", 0), 0u)
        << req.status().message();
  }
  for (int64_t good : {int64_t{9007199254740991}, int64_t{-9007199254740991},
                       int64_t{0}, int64_t{-3}}) {
    auto req = decode(std::to_string(good));
    ASSERT_TRUE(req.ok()) << good;
    EXPECT_EQ(req.value().id, good);
    DispatchOutcome out;
    std::string echoed = EncodeResponse(out, true, req.value().id);
    EXPECT_NE(echoed.find("\"id\": " + std::to_string(good) + ","),
              std::string::npos)
        << echoed;
  }
}

TEST(WireTest, MaxRulesMustBeANonNegativeExactInteger) {
  auto decode = [](const std::string& max_rules) {
    auto frame = JsonValue::Parse(
        "{\"op\": \"prepare\", \"program\": \"p(a).\", \"max_rules\": " +
        max_rules + "}");
    EXPECT_TRUE(frame.ok()) << max_rules;
    return DecodeRequest(frame.value());
  };
  for (const char* bad : {"-1", "1.5", "1e300", "9007199254740993"}) {
    auto req = decode(bad);
    ASSERT_FALSE(req.ok()) << bad;
    EXPECT_EQ(req.status().message().rfind("bad_request: ", 0), 0u);
  }
  auto req = decode("250");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().max_rules, 250u);
}

TEST(WireTest, ProtocolErrorShape) {
  auto v = JsonValue::Parse(EncodeProtocolError(kErrOversized, "too big"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().Get("status")->as_string(), "error");
  EXPECT_EQ(v.value().Get("error")->Get("code")->as_string(), "oversized");
  EXPECT_EQ(v.value().Get("error")->Get("message")->as_string(), "too big");
}

// --- Dispatcher (in-process) ---

struct Backend {
  TenantRegistry registry;
  Dispatcher dispatcher;

  explicit Backend(TenantRegistry::Config config = {})
      : registry(std::move(config)), dispatcher(&registry) {}

  DispatchOutcome Prepare(const std::string& name, const std::string& text) {
    WireRequest req;
    req.op = Op::kPrepare;
    req.kb = name;
    req.program = text;
    return dispatcher.Dispatch(req);
  }
  DispatchOutcome Query(const std::string& kb, const std::string& cq) {
    WireRequest req;
    req.op = Op::kQuery;
    req.kb = kb;
    req.cq = cq;
    return dispatcher.Dispatch(req);
  }
  DispatchOutcome Assert(const std::string& kb, const std::string& facts) {
    WireRequest req;
    req.op = Op::kAssert;
    req.kb = kb;
    req.facts = facts;
    return dispatcher.Dispatch(req);
  }
  DispatchOutcome Retract(const std::string& kb, const std::string& facts) {
    WireRequest req;
    req.op = Op::kRetract;
    req.kb = kb;
    req.facts = facts;
    return dispatcher.Dispatch(req);
  }
};

TEST(DispatcherTest, PrepareQueryAssertCursor) {
  Backend b;
  DispatchOutcome prep = b.Prepare("tc", kTcProgram);
  ASSERT_TRUE(prep.ok) << prep.error_message;
  EXPECT_EQ(prep.prepare.mode, "datalog");
  EXPECT_EQ(prep.epoch, 1u);
  EXPECT_EQ(prep.seq, 0u);

  DispatchOutcome q = b.Query("tc", "t(X, Y) -> q(X, Y)");
  ASSERT_TRUE(q.ok) << q.error_message;
  // e-chain a→b→c→d closes to 6 t-pairs.
  EXPECT_EQ(q.query.answers.size(), 6u);
  EXPECT_TRUE(q.query.complete);

  DispatchOutcome a = b.Assert("tc", "e(d, e5)");
  ASSERT_TRUE(a.ok) << a.error_message;
  EXPECT_TRUE(a.assert_reply.delta);
  EXPECT_EQ(a.epoch, 1u);
  EXPECT_EQ(a.seq, 1u);  // Delta assert advances seq within the epoch.

  q = b.Query("tc", "t(X, Y) -> q(X, Y)");
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(q.query.answers.size(), 10u);  // Chain of 4 edges → 10 pairs.
}

TEST(DispatcherTest, ErrorsCarryStableCodes) {
  Backend b;
  EXPECT_EQ(b.Query("nope", "t(X, Y) -> q(X, Y)").error_code,
            kErrUnknownKb);
  ASSERT_TRUE(b.Prepare("tc", kTcProgram).ok);
  EXPECT_EQ(b.Prepare("tc", kTcProgram).error_code, kErrKbExists);
  EXPECT_EQ(b.Prepare("bad/name", kTcProgram).error_code, kErrBadName);
  EXPECT_EQ(b.Query("tc", "this is not a rule").error_code, kErrParse);
  EXPECT_EQ(b.Assert("tc", "e(X, b)").error_code, kErrParse);
  WireRequest save;
  save.op = Op::kSave;
  save.kb = "tc";
  // No snapshot dir and no explicit path.
  EXPECT_EQ(b.dispatcher.Dispatch(save).error_code, kErrBadRequest);
}

TEST(DispatcherTest, StatsAggregatesAcrossTenants) {
  Backend b;
  ASSERT_TRUE(b.Prepare("alpha", kTcProgram).ok);
  ASSERT_TRUE(b.Prepare("beta", kWgProgram).ok);
  ASSERT_TRUE(b.Query("alpha", "t(X, Y) -> q(X, Y)").ok);
  ASSERT_TRUE(b.Query("beta", "gen(X) -> q(X)").ok);
  WireRequest req;
  req.op = Op::kStats;  // Empty kb → aggregate.
  DispatchOutcome out = b.dispatcher.Dispatch(req);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.stats.aggregated);
  ASSERT_EQ(out.stats.per_kb.size(), 2u);
  EXPECT_EQ(out.stats.per_kb[0].first, "alpha");  // Name-sorted.
  EXPECT_EQ(out.stats.per_kb[1].first, "beta");
  EXPECT_EQ(out.stats.total.queries,
            out.stats.per_kb[0].second.queries +
                out.stats.per_kb[1].second.queries);
  EXPECT_EQ(out.stats.total.prepares, 2u);
}

TEST(DispatcherTest, DropUnregistersTenant) {
  Backend b;
  ASSERT_TRUE(b.Prepare("tc", kTcProgram).ok);
  WireRequest req;
  req.op = Op::kDrop;
  req.kb = "tc";
  ASSERT_TRUE(b.dispatcher.Dispatch(req).ok);
  EXPECT_EQ(b.Query("tc", "t(X, Y) -> q(X, Y)").error_code, kErrUnknownKb);
}

// --- Queries write nothing (DESIGN.md §7) ---

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> Answers(const DispatchOutcome& out) {
  EXPECT_TRUE(out.ok) << out.error_message;
  return out.query.answers;
}

TEST(DispatcherTest, QueriesLeaveTheSymbolTableAndSnapshotUnchanged) {
  Backend b;
  ASSERT_TRUE(b.Prepare("tc", kTcProgram).ok);
  const SymbolTable& syms = *b.registry.Find("tc")->symbols;
  const size_t relations = syms.NumRelations();
  const size_t constants = syms.NumConstants();
  const size_t variables = syms.NumVariables();
  const size_t nulls = syms.NumNulls();
  auto save = [&](const std::string& file) {
    WireRequest req;
    req.op = Op::kSave;
    req.kb = "tc";
    req.path = ::testing::TempDir() + file;
    EXPECT_TRUE(b.dispatcher.Dispatch(req).ok);
    std::string bytes = FileBytes(req.path);
    std::remove(req.path.c_str());
    return bytes;
  };
  const std::string before = save("queries_write_nothing_before.snap");
  for (int i = 0; i < 10000; ++i) {
    // Fresh variables, constants, named nulls, body relations and head
    // names in every query.
    const std::string k = std::to_string(i);
    const std::string cqs[] = {
        "t(X" + k + ", Y" + k + ") -> h" + k + "(X" + k + ", c" + k + ")",
        "e(c" + k + ", Y" + k + ") -> h" + k + "(Y" + k + ")",
        "e(_z" + k + ", Y" + k + ") -> h" + k + "(Y" + k + ", _w" + k + ")",
        "r" + k + "(X" + k + ") -> h" + k + "(X" + k + ")",
    };
    DispatchOutcome q = b.Query("tc", cqs[i % 4]);
    ASSERT_TRUE(q.ok) << cqs[i % 4] << ": " << q.error_message;
  }
  EXPECT_EQ(syms.NumRelations(), relations);
  EXPECT_EQ(syms.NumConstants(), constants);
  EXPECT_EQ(syms.NumVariables(), variables);
  EXPECT_EQ(syms.NumNulls(), nulls);
  EXPECT_EQ(save("queries_write_nothing_after.snap"), before);
}

TEST(DispatcherTest, FailedWritesInternNothing) {
  Backend b;
  ASSERT_TRUE(b.Prepare("tc", kTcProgram).ok);
  const SymbolTable& syms = *b.registry.Find("tc")->symbols;
  const size_t relations = syms.NumRelations();
  const size_t constants = syms.NumConstants();
  const size_t nulls = syms.NumNulls();
  auto save = [&](const std::string& file) {
    WireRequest req;
    req.op = Op::kSave;
    req.kb = "tc";
    req.path = ::testing::TempDir() + file;
    EXPECT_TRUE(b.dispatcher.Dispatch(req).ok);
    std::string bytes = FileBytes(req.path);
    std::remove(req.path.c_str());
    return bytes;
  };
  const std::string before = save("failed_writes_before.snap");
  // Retracts only look names up: a name the tenant lacks names no fact.
  for (const char* facts : {"foo(a)", "e(a, zz)", "e(_q, b)"}) {
    DispatchOutcome r = b.Retract("tc", facts);
    EXPECT_EQ(r.error_code, kErrFailed) << facts;
    EXPECT_EQ(r.error_message, "cannot retract a fact that is not in the EDB")
        << facts;
  }
  // A batch whose second fact fails interns nothing of the first: the
  // tenant's arity, and the batch's own.
  DispatchOutcome tenant_arity = b.Assert("tc", "e(x1, y1). e(z1)");
  EXPECT_EQ(tenant_arity.error_code, kErrParse);
  EXPECT_NE(tenant_arity.error_message.find(
                "relation 'e' used with arity 1 but declared with 2"),
            std::string::npos)
      << tenant_arity.error_message;
  DispatchOutcome batch_arity = b.Assert("tc", "g(x2). g(x2, _w)");
  EXPECT_EQ(batch_arity.error_code, kErrParse);
  EXPECT_NE(batch_arity.error_message.find(
                "relation 'g' used with arity 2 but declared with 1"),
            std::string::npos)
      << batch_arity.error_message;
  EXPECT_EQ(syms.NumRelations(), relations);
  EXPECT_EQ(syms.NumConstants(), constants);
  EXPECT_EQ(syms.NumNulls(), nulls);
  EXPECT_EQ(save("failed_writes_after.snap"), before);
  // The failed retract of foo(a) declared nothing: foo/2 is free.
  EXPECT_TRUE(b.Assert("tc", "foo(a, b)").ok);
  DispatchOutcome q = b.Query("tc", "foo(X, Y) -> q(X, Y)");
  EXPECT_EQ(Answers(q), std::vector<std::string>{"q(a, b)"});
}

TEST(DispatcherTest, QueryHeadNameAndArityAreFree) {
  Backend b;
  ASSERT_TRUE(b.Prepare("tc", kTcProgram).ok);
  EXPECT_EQ(Answers(b.Query("tc", "t(X, Y) -> ans(X, Y)")).size(), 6u);
  EXPECT_EQ(Answers(b.Query("tc", "t(X, Y) -> ans(X)")),
            (std::vector<std::string>{"ans(a)", "ans(b)", "ans(c)"}));
  // A head may reuse a tenant relation's name at another arity.
  EXPECT_EQ(Answers(b.Query("tc", "e(X, Y) -> t(X)")),
            (std::vector<std::string>{"t(a)", "t(b)", "t(c)"}));
  // A known body relation keeps its arity.
  EXPECT_EQ(b.Query("tc", "t(X) -> q(X)").error_code, kErrParse);
}

TEST(DispatcherTest, UnknownNamesAnswerNothingAndStayFree) {
  Backend b;
  ASSERT_TRUE(b.Prepare("tc", kTcProgram).ok);
  DispatchOutcome q = b.Query("tc", "foo(X) -> q(X)");
  EXPECT_TRUE(Answers(q).empty());
  EXPECT_TRUE(q.query.complete);
  EXPECT_TRUE(Answers(b.Query("tc", "t(zz, Y) -> q(Y)")).empty());
  // The query did not declare foo/1, so foo/2 facts are welcome.
  DispatchOutcome a = b.Assert("tc", "foo(a, b)");
  ASSERT_TRUE(a.ok) << a.error_message;
  EXPECT_EQ(Answers(b.Query("tc", "foo(X, Y) -> q(X, Y)")),
            (std::vector<std::string>{"q(a, b)"}));

  // `complete` is computed as for any body: an unknown constant on an
  // affected position forfeits it, an unknown relation does not.
  TenantRegistry::Config config;
  config.kb_options.planner = false;
  Backend wg(config);
  ASSERT_TRUE(wg.Prepare("wg", kWgProgram).ok);
  EXPECT_FALSE(wg.Query("wg", "e(X, Y) -> q(X)").query.complete);
  q = wg.Query("wg", "e(X, zz) -> q(X)");
  EXPECT_TRUE(Answers(q).empty());
  EXPECT_FALSE(q.query.complete);
  q = wg.Query("wg", "gen(X), foo(X) -> q(X)");
  EXPECT_TRUE(Answers(q).empty());
  EXPECT_TRUE(q.query.complete);
}

TEST(DispatcherTest, HeadConstantsRenderByName) {
  Backend b;
  ASSERT_TRUE(b.Prepare("tc", kTcProgram).ok);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(Answers(b.Query("tc", "t(X, Y) -> ans(X, zzz)")),
              (std::vector<std::string>{"ans(a, zzz)", "ans(b, zzz)",
                                        "ans(c, zzz)"}));
    EXPECT_EQ(Answers(b.Query("tc", "e(X, Y) -> ans(a, X)")),
              (std::vector<std::string>{"ans(a, a)", "ans(a, b)",
                                        "ans(a, c)"}));
  }
}

TEST(DispatcherTest, CacheKeysKeepBodiesApart) {
  Backend b;
  ASSERT_TRUE(b.Prepare("tc", kTcProgram).ok);
  const std::vector<std::string> t_reversed = {
      "t(b, a)", "t(c, a)", "t(c, b)", "t(d, a)", "t(d, b)", "t(d, c)"};
  const std::vector<std::string> e_reversed = {"e(b, a)", "e(c, b)",
                                               "e(d, c)"};
  for (int round = 0; round < 2; ++round) {
    DispatchOutcome t = b.Query("tc", "t(X, Y) -> t(Y, X)");
    DispatchOutcome e = b.Query("tc", "e(X, Y) -> e(Y, X)");
    EXPECT_EQ(Answers(t), t_reversed);
    EXPECT_EQ(Answers(e), e_reversed);
    EXPECT_EQ(t.query.cache_hit, round == 1);
    EXPECT_EQ(e.query.cache_hit, round == 1);
  }
  // Heads the tenant does not know key by their argument pattern: a
  // second name over the same body hits, and renders its own name.
  EXPECT_FALSE(b.Query("tc", "e(X, Y) -> p1(Y, X)").query.cache_hit);
  DispatchOutcome p2 = b.Query("tc", "e(X, Y) -> p2(Y, X)");
  EXPECT_TRUE(p2.query.cache_hit);
  EXPECT_EQ(Answers(p2), (std::vector<std::string>{"p2(b, a)", "p2(c, b)",
                                                   "p2(d, c)"}));
  EXPECT_FALSE(b.Query("tc", "t(X, Y) -> p2(Y, X)").query.cache_hit);
}

// 4 reader threads and 1 writer on one tenant, all through
// Dispatcher::Dispatch: the tenant's mutex is the only lock a request
// takes inside the tenant, so this is the race detector's target for the
// serving layer (tools/run_sanitizers.sh thread -L serving).
TEST(DispatcherTest, ConcurrentReadersAndWriterOnOneTenant) {
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 200;
  constexpr int kAsserts = 24;
  const std::string program =
      "e(X, Y) -> t(X, Y).\n"
      "e(X, Y), t(Y, Z) -> t(X, Z).\n"
      "e(n0, n1). e(n1, n2).\n";
  std::string final_program = program;
  std::vector<std::string> facts;
  for (int i = 2; i < 2 + kAsserts; ++i) {
    facts.push_back("e(" + IndexedName("n", i) + ", " +
                    IndexedName("n", i + 1) + ")");
    final_program += facts.back() + ".\n";
  }
  Backend b;
  ASSERT_TRUE(b.Prepare("tc", program).ok);
  const std::string cq = "t(U, V) -> q(U, V)";
  const std::vector<std::string> at_start = Answers(b.Query("tc", cq));

  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t last_size = 0;
      for (int i = 0; i < kQueriesPerReader; ++i) {
        const bool closure = (r + i) % 3 != 0;
        DispatchOutcome got =
            b.Query("tc", closure ? cq : "e(U, V) -> q2(U, V)");
        if (!got.ok) {
          ++violations;
          continue;
        }
        if (!closure) continue;
        // The KB only grows, so answer sets are monotone per reader.
        const std::vector<std::string>& answers = got.query.answers;
        if (answers.size() < last_size) ++violations;
        last_size = answers.size();
        std::set<std::string> now(answers.begin(), answers.end());
        for (const std::string& a : at_start) {
          if (now.count(a) == 0) ++violations;
        }
      }
    });
  }
  std::thread writer([&] {
    for (const std::string& fact : facts) {
      if (!b.Assert("tc", fact).ok) ++violations;
      std::this_thread::yield();
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(violations.load(), 0);

  // Steady state: the hammered tenant's model is a fresh prepare's.
  Backend fresh;
  ASSERT_TRUE(fresh.Prepare("tc", final_program).ok);
  auto rendered_model = [](Backend& backend) {
    std::shared_ptr<Tenant> tenant = backend.registry.Find("tc");
    std::set<std::string> out;
    for (const Atom& a : tenant->kb->ModelAtoms()) {
      out.insert(ToString(a, *tenant->symbols));
    }
    return out;
  };
  EXPECT_EQ(rendered_model(b), rendered_model(fresh));
  EXPECT_EQ(Answers(b.Query("tc", cq)), Answers(fresh.Query("tc", cq)));
  // Every assert and every query was counted.
  WireRequest stats;
  stats.op = Op::kStats;
  stats.kb = "tc";
  ServiceStats counted = b.dispatcher.Dispatch(stats).stats.total;
  EXPECT_EQ(counted.asserts, static_cast<uint64_t>(kAsserts));
  EXPECT_EQ(counted.queries,
            static_cast<uint64_t>(2 + kReaders * kQueriesPerReader));
}

// --- Loopback socket integration ---

class LineClient {
 public:
  explicit LineClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~LineClient() { Close(); }

  bool connected() const { return connected_; }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool SendRaw(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }
  bool SendLine(const std::string& line) { return SendRaw(line + "\n"); }

  bool ReadLine(std::string* line) {
    while (true) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Sends one request line and parses the one response line.
  Result<JsonValue> Call(const std::string& request) {
    if (!SendLine(request)) return Status::Error("send failed");
    std::string line;
    if (!ReadLine(&line)) return Status::Error("connection closed");
    return JsonValue::Parse(line);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

std::string QueryFrame(const std::string& kb, const std::string& cq) {
  return "{\"op\": \"query\", \"kb\": \"" + kb + "\", \"cq\": \"" +
         JsonEscape(cq) + "\"}";
}

std::string AssertFrame(const std::string& kb, const std::string& facts) {
  return "{\"op\": \"assert\", \"kb\": \"" + kb + "\", \"facts\": \"" +
         JsonEscape(facts) + "\"}";
}

std::string RetractFrame(const std::string& kb, const std::string& facts) {
  return "{\"op\": \"retract\", \"kb\": \"" + kb + "\", \"facts\": \"" +
         JsonEscape(facts) + "\"}";
}

struct LiveServer {
  Backend backend;
  SocketServer server;

  explicit LiveServer(ServerOptions options = {},
                      TenantRegistry::Config config = {})
      : backend(std::move(config)),
        server(&backend.dispatcher, std::move(options)) {}

  void StartWithDefaultKbs() {
    ASSERT_TRUE(backend.Prepare("tc", kTcProgram).ok);
    ASSERT_TRUE(backend.Prepare("wg", kWgProgram).ok);
    Status started = server.Start();
    ASSERT_TRUE(started.ok()) << started.message();
  }
};

TEST(SocketServerTest, HappyPathQuery) {
  LiveServer live;
  live.StartWithDefaultKbs();
  LineClient client(live.server.port());
  ASSERT_TRUE(client.connected());
  auto resp = client.Call(QueryFrame("tc", "t(X, Y) -> q(X, Y)"));
  ASSERT_TRUE(resp.ok()) << resp.status().message();
  EXPECT_EQ(resp.value().Get("status")->as_string(), "ok");
  EXPECT_EQ(resp.value().Get("op")->as_string(), "query");
  EXPECT_EQ(resp.value().Get("kb")->as_string(), "tc");
  EXPECT_EQ(resp.value().Get("count")->as_number(), 6);
  EXPECT_TRUE(resp.value().Get("complete")->as_bool());
  EXPECT_EQ(resp.value().Get("epoch")->as_number(), 1);
  EXPECT_EQ(resp.value().Get("seq")->as_number(), 0);
}

TEST(SocketServerTest, EchoesCorrelationId) {
  LiveServer live;
  live.StartWithDefaultKbs();
  LineClient client(live.server.port());
  ASSERT_TRUE(client.connected());
  auto resp = client.Call(
      "{\"op\": \"query\", \"kb\": \"tc\", "
      "\"cq\": \"t(X, Y) -> q(X, Y)\", \"id\": 42}");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().Get("id")->as_number(), 42);
}

TEST(SocketServerTest, MalformedFrameKeepsConnectionAlive) {
  LiveServer live;
  live.StartWithDefaultKbs();
  LineClient client(live.server.port());
  ASSERT_TRUE(client.connected());
  auto bad = client.Call("{this is not json");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().Get("status")->as_string(), "error");
  EXPECT_EQ(bad.value().Get("error")->Get("code")->as_string(),
            "bad_request");
  // Valid frames with unknown ops and bad payloads also keep the
  // session going.
  auto unknown = client.Call("{\"op\": \"teleport\"}");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value().Get("error")->Get("code")->as_string(),
            "unknown_op");
  auto good = client.Call(QueryFrame("tc", "t(X, Y) -> q(X, Y)"));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().Get("status")->as_string(), "ok");
  EXPECT_EQ(live.server.protocol_errors(), 2u);
}

TEST(SocketServerTest, OversizedFrameIsDrainedAndReported) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  LiveServer live(options);
  live.StartWithDefaultKbs();
  LineClient client(live.server.port());
  ASSERT_TRUE(client.connected());
  // 8 KiB of junk in one frame, well past the 1 KiB cap.
  std::string big(8192, 'x');
  auto resp = client.Call(big);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().Get("error")->Get("code")->as_string(),
            "oversized");
  // The connection resynchronized at the newline.
  auto good = client.Call(QueryFrame("tc", "t(X, Y) -> q(X, Y)"));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().Get("status")->as_string(), "ok");
}

TEST(SocketServerTest, MidFrameDisconnectIsDiscarded) {
  LiveServer live;
  live.StartWithDefaultKbs();
  {
    LineClient client(live.server.port());
    ASSERT_TRUE(client.connected());
    // A partial frame with no newline, then a hard close.
    ASSERT_TRUE(client.SendRaw("{\"op\": \"qu"));
    client.Close();
  }
  // The server survives and keeps serving new connections.
  LineClient client(live.server.port());
  ASSERT_TRUE(client.connected());
  auto resp = client.Call(QueryFrame("tc", "t(X, Y) -> q(X, Y)"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().Get("status")->as_string(), "ok");
}

TEST(SocketServerTest, ConcurrentClientsOnDistinctTenants) {
  ServerOptions options;
  options.num_workers = 8;
  LiveServer live(options);
  live.StartWithDefaultKbs();
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&live, &failures, c] {
      const std::string kb = (c % 2 == 0) ? "tc" : "wg";
      const std::string cq = (c % 2 == 0) ? "t(X, Y) -> q(X, Y)"
                                          : "gen(X) -> q(X)";
      LineClient client(live.server.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 20; ++i) {
        auto resp = client.Call(QueryFrame(kb, cq));
        if (!resp.ok() ||
            resp.value().Get("status")->as_string() != "ok") {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(live.server.requests_served(), 160u);
}

// In-process reference: prepare the same program with the default
// options and answer `cq`, rendering answers exactly as the dispatcher
// does.
struct Reference {
  SymbolTable syms;
  std::unique_ptr<PreparedKb> kb;

  explicit Reference(const std::string& program) {
    auto parsed = ParseProgram(program, &syms);
    GEREL_CHECK(parsed.ok());
    auto prepared = PreparedKb::Prepare(parsed.value().theory,
                                        parsed.value().database, &syms,
                                        PreparedKbOptions());
    GEREL_CHECK(prepared.ok());
    kb = std::move(prepared).value();
  }

  std::pair<std::vector<std::string>, bool> Answer(const std::string& cq) {
    auto rule = ParseRule(cq, &syms);
    if (!rule.ok()) {
      ADD_FAILURE() << "parse \"" << cq
                    << "\": " << rule.status().message();
      return {{}, true};
    }
    auto result = kb->Query(rule.value());
    if (!result.ok()) {
      ADD_FAILURE() << "query failed: " << result.status().message();
      return {{}, true};
    }
    std::vector<std::string> rendered;
    for (const std::vector<Term>& tuple : result.value().answers) {
      Atom a(rule.value().head[0].pred, tuple);
      rendered.push_back(ToString(a, syms));
    }
    return {std::move(rendered), result.value().complete};
  }
};

// The acceptance differential: answers served over the socket are
// byte-identical to the in-process PreparedKb — including the
// chase-materialized weakly guarded case with a null witness — at 1
// and 8 client threads.
TEST(SocketServerTest, DifferentialAgainstInProcessKb) {
  struct Case {
    const char* kb;
    const char* program;
    const char* cq;
  };
  const Case cases[] = {
      {"tc", kTcProgram, "t(X, Y) -> ans2(X, Y)"},
      {"tc", kTcProgram, "e(X, Y) -> ans2(X, Y)"},
      {"wg", kWgProgram, "gen(X) -> ans1(X)"},
      // Sound but possibly incomplete: e holds an invented null.
      {"wg", kWgProgram, "e(U, V) -> ans2(U, V)"},
  };
  // One reference KB per program.
  Reference tc_ref(kTcProgram);
  Reference wg_ref(kWgProgram);
  struct Expected {
    std::vector<std::string> answers;
    bool complete;
  };
  std::vector<Expected> expected;
  for (const Case& c : cases) {
    Reference& ref = std::string(c.kb) == "tc" ? tc_ref : wg_ref;
    auto [answers, complete] = ref.Answer(c.cq);
    expected.push_back({std::move(answers), complete});
  }
  EXPECT_TRUE(expected[3].answers.size() > 0);
  // The planner certifies kWgProgram (MFA) and serves it from the chase
  // model, so even the null-witness e-query is answered completely.
  EXPECT_TRUE(expected[3].complete);

  ServerOptions options;
  options.num_workers = 8;
  LiveServer live(options);
  live.StartWithDefaultKbs();
  for (size_t num_clients : {size_t{1}, size_t{8}}) {
    std::vector<std::thread> clients;
    std::atomic<int> mismatches{0};
    for (size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&] {
        LineClient client(live.server.port());
        if (!client.connected()) {
          ++mismatches;
          return;
        }
        for (size_t i = 0; i < std::size(cases); ++i) {
          auto resp = client.Call(QueryFrame(cases[i].kb, cases[i].cq));
          if (!resp.ok()) {
            ++mismatches;
            return;
          }
          std::vector<std::string> got;
          for (const JsonValue& a : resp.value().Get("answers")->items()) {
            got.push_back(a.as_string());
          }
          if (got != expected[i].answers ||
              resp.value().Get("complete")->as_bool() !=
                  expected[i].complete) {
            ++mismatches;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(mismatches.load(), 0) << num_clients << " clients";
  }
}

// TSan target: 8 clients hammer 2 tenants with mixed queries, asserts,
// and retracts. tc writers use per-client fresh constants (the delta
// assert path) and retract their previous round's edge (the DRed
// path); wg writers repeat three edges over the program's constants on
// the certified tenant, so each distinct edge is one delta pass and
// every repeat a no-op; a fresh constant follows once, after the storm.
TEST(SocketServerTest, MixedReadWriteHammer) {
  ServerOptions options;
  options.num_workers = 8;
  LiveServer live(options);
  live.StartWithDefaultKbs();
  constexpr int kClients = 8;
  constexpr int kRounds = 12;
  // Edges over the wg program's own constants: closing the a→b→c cycle
  // keeps every assert on the incremental path.
  const char* kWgEdges[] = {"e(c, a)", "e(b, a)", "e(c, b)"};
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&live, &failures, kWgEdges, c] {
      const bool on_tc = (c % 2 == 0);
      const std::string kb = on_tc ? "tc" : "wg";
      LineClient client(live.server.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        std::string tag = IndexedName(IndexedName("h", c) + "_", i);
        auto asserted = client.Call(AssertFrame(
            kb, on_tc ? "e(" + tag + "a, " + tag + "b)"
                      : kWgEdges[i % 3]));
        if (!asserted.ok() ||
            asserted.value().Get("status")->as_string() != "ok") {
          ++failures;
          return;
        }
        auto queried = client.Call(QueryFrame(
            kb, on_tc ? "t(X, Y) -> q(X, Y)" : "gen(X) -> q(X)"));
        if (!queried.ok() ||
            queried.value().Get("status")->as_string() != "ok") {
          ++failures;
          return;
        }
        // tc writers retract their previous edge: only each client's
        // final edge survives the storm, and every retract rides the
        // DRed delta path concurrently with other clients' writes.
        if (on_tc && i > 0) {
          std::string prev =
              "h" + std::to_string(c) + "_" + std::to_string(i - 1);
          auto retracted = client.Call(RetractFrame(
              kb, "e(" + prev + "a, " + prev + "b)"));
          if (!retracted.ok() ||
              retracted.value().Get("status")->as_string() != "ok" ||
              !retracted.value().Get("delta")->as_bool()) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  LineClient client(live.server.port());
  ASSERT_TRUE(client.connected());
  // Each tc writer retracted all but its final edge: 4 writers × 1
  // surviving fresh edge on top of the program's 3.
  auto tc = client.Call(QueryFrame("tc", "e(X, Y) -> q(X, Y)"));
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(tc.value().Get("count")->as_number(), 3 + 4);
  // The planner serves wg from its Skolem program: the three *distinct*
  // new edges each ran a delta pass and every duplicate assert was a
  // no-op delta, so all 4 writers × 12 asserts advanced seq within the
  // first epoch — regardless of interleaving.
  auto wg = client.Call(QueryFrame("wg", "gen(X) -> q(X)"));
  ASSERT_TRUE(wg.ok());
  EXPECT_EQ(wg.value().Get("count")->as_number(), 1);
  EXPECT_EQ(wg.value().Get("epoch")->as_number(), 1);
  EXPECT_EQ(wg.value().Get("seq")->as_number(), 4 * kRounds);
  // ...and a genuinely new fact, with a constant the program never saw,
  // is one more delta step: no resync for replicas.
  auto grown = client.Call(AssertFrame("wg", "gen(z9)"));
  ASSERT_TRUE(grown.ok());
  ASSERT_EQ(grown.value().Get("status")->as_string(), "ok");
  EXPECT_TRUE(grown.value().Get("delta")->as_bool());
  EXPECT_EQ(grown.value().Get("epoch")->as_number(), 1);
  EXPECT_EQ(grown.value().Get("seq")->as_number(), 4 * kRounds + 1);
}

TEST(SocketServerTest, ShutdownSavesDirtyTenantsForWarmRestart) {
  std::string dir = ::testing::TempDir() + "serving_warm_restart";
  ASSERT_EQ(0, ::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()));
  TenantRegistry::Config config;
  config.snapshot_dir = dir;
  uint64_t cold_epoch = 0;
  {
    LiveServer live(ServerOptions{}, config);
    ASSERT_TRUE(live.backend.Prepare("tc", kTcProgram).ok);
    Status started = live.server.Start();
    ASSERT_TRUE(started.ok());
    LineClient client(live.server.port());
    ASSERT_TRUE(client.connected());
    auto asserted = client.Call(AssertFrame("tc", "e(d, e9)"));
    ASSERT_TRUE(asserted.ok());
    ASSERT_EQ(asserted.value().Get("status")->as_string(), "ok");
    cold_epoch = asserted.value().Get("epoch")->as_number();
    client.Close();
    // Graceful shutdown: drain, then persist dirty tenants.
    live.server.Shutdown();
    ASSERT_TRUE(live.backend.registry.SaveDirty().ok());
  }
  // A fresh process warm-starts from the snapshot: the asserted edge is
  // already in the model and the epoch advances past the saved one.
  Backend restarted(config);
  DispatchOutcome prep = restarted.Prepare("tc", kTcProgram);
  ASSERT_TRUE(prep.ok) << prep.error_message;
  EXPECT_TRUE(prep.prepare.loaded_snapshot);
  DispatchOutcome q = restarted.Query("tc", "e(X, Y) -> q(X, Y)");
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(q.query.answers.size(), 4u);
  EXPECT_GE(q.epoch, cold_epoch);
}

// The REPL session and the socket path share the dispatcher, so a
// session layered over a server-backed dispatcher must render the same
// results the socket reports.
TEST(SocketServerTest, ReplSessionSharesDispatchCore) {
  LiveServer live;
  live.StartWithDefaultKbs();
  ServiceSession session(&live.backend.dispatcher, "tc");
  auto r = session.HandleLine("query t(X, Y) -> q(X, Y)");
  EXPECT_NE(r.text.find("6 answers (complete)"), std::string::npos)
      << r.text;
  LineClient client(live.server.port());
  ASSERT_TRUE(client.connected());
  auto resp = client.Call(QueryFrame("tc", "t(X, Y) -> q(X, Y)"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().Get("count")->as_number(), 6);
}

}  // namespace
}  // namespace server
}  // namespace gerel
