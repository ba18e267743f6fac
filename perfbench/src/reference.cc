#include "reference.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

// Successors of u, including the stream's live fresh edge.
template <typename F>
void ForEachSucc(const Graph& g, const ExtraEdge& extra, uint32_t u, F f) {
  for (uint32_t v : g.out[u]) f(v);
  if (extra.active && extra.u == u) f(extra.v);
}

// Marks every node reachable from `from` (≥ 1 step when `strict`).
void Reach(const Graph& g, const ExtraEdge& extra,
           const std::vector<uint32_t>& from, bool strict,
           std::vector<char>* seen) {
  std::vector<uint32_t> stack;
  for (uint32_t s : from) {
    if (strict) {
      stack.push_back(s);
    } else if (!(*seen)[s]) {
      (*seen)[s] = 1;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    uint32_t u = stack.back();
    stack.pop_back();
    ForEachSucc(g, extra, u, [&](uint32_t v) {
      if (!(*seen)[v]) {
        (*seen)[v] = 1;
        stack.push_back(v);
      }
    });
  }
}

std::vector<uint32_t> Collect(const std::vector<char>& seen) {
  std::vector<uint32_t> out;
  for (uint32_t v = 0; v < seen.size(); ++v) {
    if (seen[v]) out.push_back(v);
  }
  return out;
}

bool HasSucc(const Graph& g, const ExtraEdge& extra, uint32_t u) {
  return !g.out[u].empty() || (extra.active && extra.u == u);
}

std::vector<std::string> Render(const std::vector<uint32_t>& nodes) {
  std::vector<std::string> out;
  for (uint32_t v : nodes) out.push_back("q(" + NodeName(v) + ")");
  std::sort(out.begin(), out.end());
  return out;
}

// The unsigned integer after `"key": ` in a response line, or −1.
long long Field(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\": ";
  size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  at += needle.size();
  if (at >= line.size() || line[at] < '0' || line[at] > '9') return -1;
  return std::stoll(line.substr(at));
}

bool IsOk(const std::string& line, const char* op) {
  return line.rfind("{\"status\": \"ok\"", 0) == 0 &&
         line.find(std::string("\"op\": \"") + op + "\"") != std::string::npos;
}

}  // namespace

std::vector<uint32_t> ExpectedNodes(const ProgramInput& p, const QuerySpec& q,
                                    const ExtraEdge& extra) {
  const Graph& g = p.graph;
  std::vector<char> seen(g.n, 0);
  switch (q.kind) {
    case QueryKind::kDescendants:
      Reach(g, extra, {q.key}, true, &seen);
      break;
    case QueryKind::kAncestors: {
      Graph reversed;
      reversed.n = g.n;
      reversed.out.resize(g.n);
      for (uint32_t u = 0; u < g.n; ++u) {
        ForEachSucc(g, extra, u,
                    [&](uint32_t v) { reversed.out[v].push_back(u); });
      }
      Reach(reversed, ExtraEdge(), {q.key}, true, &seen);
      break;
    }
    case QueryKind::kTwoStep: {
      std::vector<uint32_t> succ;
      ForEachSucc(g, extra, q.key, [&](uint32_t v) { succ.push_back(v); });
      Reach(g, extra, succ, true, &seen);
      break;
    }
    case QueryKind::kDescendantsWithOut: {
      Reach(g, extra, {q.key}, true, &seen);
      for (uint32_t v = 0; v < g.n; ++v) {
        bool gen = std::binary_search(p.marked.begin(), p.marked.end(), v);
        if (seen[v] && !HasSucc(g, extra, v) && !gen) seen[v] = 0;
      }
      break;
    }
    case QueryKind::kReachFromKey:
      Reach(g, extra, {q.key}, false, &seen);
      break;
  }
  return Collect(seen);
}

std::vector<std::string> ExpectedAnswers(const ProgramInput& p,
                                         const QuerySpec& q,
                                         const ExtraEdge& extra) {
  return Render(ExpectedNodes(p, q, extra));
}

bool ParseAnswers(const std::string& response,
                  std::vector<std::string>* answers) {
  answers->clear();
  if (!IsOk(response, "query")) return false;
  const std::string key = "\"answers\": [";
  size_t at = response.find(key);
  if (at == std::string::npos) return false;
  at += key.size();
  // Answers are rendered atoms over generated names: no quotes or
  // escapes inside the strings.
  while (at < response.size() && response[at] != ']') {
    if (response[at] == '"') {
      size_t end = response.find('"', at + 1);
      if (end == std::string::npos) return false;
      answers->push_back(response.substr(at + 1, end - at - 1));
      at = end + 1;
    } else {
      ++at;
    }
  }
  if (at >= response.size()) return false;
  std::sort(answers->begin(), answers->end());
  return true;
}

bool CheckWriteResponse(OpType type, const std::string& response) {
  if (type == OpType::kAssert) {
    return IsOk(response, "assert") && Field(response, "new") == 1;
  }
  return IsOk(response, "retract") && Field(response, "removed") == 1;
}

namespace {

bool CheckQueryResponse(const ProgramInput& p, const QuerySpec& q,
                        const ExtraEdge& extra, const std::string& response) {
  std::vector<std::string> got;
  return ParseAnswers(response, &got) && got == ExpectedAnswers(p, q, extra);
}

bool ParseKind(const std::string& s, QueryKind* kind) {
  static const std::pair<const char*, QueryKind> kNames[] = {
      {"descendants", QueryKind::kDescendants},
      {"ancestors", QueryKind::kAncestors},
      {"two_step", QueryKind::kTwoStep},
      {"descendants_with_out", QueryKind::kDescendantsWithOut},
      {"reach_from_key", QueryKind::kReachFromKey},
  };
  for (const auto& [name, k] : kNames) {
    if (s == name) {
      *kind = k;
      return true;
    }
  }
  return false;
}

}  // namespace

int SelfTest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return -1;
  ProgramInput p;
  ExtraEdge extra;
  int failures = 0;
  int cases = 0;
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;
    auto fail = [&](const std::string& why) {
      std::printf("selftest line %d: %s\n", lineno, why.c_str());
      ++failures;
    };
    if (word == "nodes") {
      ls >> p.graph.n;
      p.graph.out.assign(p.graph.n, {});
    } else if (word == "edge") {
      uint32_t u = 0, v = 0;
      if (!(ls >> u >> v) || u >= p.graph.n || v >= p.graph.n) {
        fail("bad edge");
        continue;
      }
      p.graph.out[u].push_back(v);
    } else if (word == "mark") {
      uint32_t u = 0;
      if (!(ls >> u) || u >= p.graph.n) {
        fail("bad mark");
        continue;
      }
      p.marked.push_back(u);
      std::sort(p.marked.begin(), p.marked.end());
    } else if (word == "extra") {
      extra = ExtraEdge();
      if (ls >> extra.u >> extra.v) {
        extra.active = extra.u < p.graph.n && extra.v < p.graph.n;
        if (!extra.active) fail("bad extra edge");
      }
    } else if (word == "expect" || word == "respond") {
      // expect KIND KEY : NODE...
      // respond KIND KEY ok|wrong RESPONSE-LINE
      std::string kind_name;
      QuerySpec q;
      ls >> kind_name >> q.key;
      if (!ParseKind(kind_name, &q.kind) || q.key >= p.graph.n) {
        fail("bad query " + kind_name);
        continue;
      }
      ++cases;
      if (word == "expect") {
        std::string colon;
        ls >> colon;
        std::vector<uint32_t> want;
        for (uint32_t v = 0; ls >> v;) want.push_back(v);
        std::sort(want.begin(), want.end());
        if (ExpectedNodes(p, q, extra) != want) {
          fail("reference disagrees with the expected answers");
        }
      } else {
        std::string verdict, response;
        ls >> verdict;
        std::getline(ls >> std::ws, response);
        bool accepted = CheckQueryResponse(p, q, extra, response);
        if (accepted != (verdict == "ok")) {
          fail(std::string("checker ") + (accepted ? "accepted" : "rejected") +
               " a response marked " + verdict);
        }
      }
    } else if (word == "write") {
      // write assert|retract ok|wrong RESPONSE-LINE
      std::string type, verdict, response;
      ls >> type >> verdict;
      std::getline(ls >> std::ws, response);
      ++cases;
      bool accepted = CheckWriteResponse(
          type == "assert" ? OpType::kAssert : OpType::kRetract, response);
      if (accepted != (verdict == "ok")) {
        fail(std::string("checker ") + (accepted ? "accepted" : "rejected") +
             " a write response marked " + verdict);
      }
    } else {
      fail("unknown directive " + word);
    }
  }
  std::printf("selftest: %d cases, %d failures\n", cases, failures);
  return cases == 0 ? 1 : failures;
}

}  // namespace perfbench
