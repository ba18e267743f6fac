#include "server/wire.h"

#include <cmath>

namespace gerel {
namespace server {

const char* OpName(Op op) {
  switch (op) {
    case Op::kQuery: return "query";
    case Op::kAssert: return "assert";
    case Op::kRetract: return "retract";
    case Op::kPrepare: return "prepare";
    case Op::kStats: return "stats";
    case Op::kSave: return "save";
    case Op::kDrop: return "drop";
  }
  return "?";
}

namespace {

Status BadRequest(const std::string& detail) {
  return Status::Error(std::string(kErrBadRequest) + ": " + detail);
}

// Fetches a required string field.
Status GetString(const JsonValue& frame, const char* key, std::string* out) {
  const JsonValue* v = frame.Get(key);
  if (v == nullptr) {
    return BadRequest(std::string("missing field \"") + key + "\"");
  }
  if (!v->is_string()) {
    return BadRequest(std::string("field \"") + key +
                      "\" must be a string");
  }
  *out = v->as_string();
  return Status::Ok();
}

// Reads an optional integer field; *present (if given) records that it
// was there. JSON numbers are doubles: only integral values of magnitude
// at most 2^53 - 1 name one integer exactly, so anything else is refused.
Status GetInteger(const JsonValue& frame, const char* key, bool non_negative,
                  int64_t* out, bool* present = nullptr) {
  const JsonValue* v = frame.Get(key);
  if (v == nullptr) return Status::Ok();
  constexpr double kMaxExact = 9007199254740991.0;  // 2^53 - 1
  double d = v->is_number() ? v->as_number() : NAN;
  if (!(d >= (non_negative ? 0 : -kMaxExact) && d <= kMaxExact) ||
      d != std::trunc(d)) {
    return BadRequest(std::string("field \"") + key + "\" must be " +
                      (non_negative ? "a non-negative" : "an") +
                      " integer of magnitude at most 2^53 - 1");
  }
  if (present != nullptr) *present = true;
  *out = static_cast<int64_t>(d);
  return Status::Ok();
}

}  // namespace

Result<WireRequest> DecodeRequest(const JsonValue& frame) {
  if (!frame.is_object()) {
    return BadRequest("request frame must be a JSON object");
  }
  WireRequest req;
  std::string op;
  Status s = GetString(frame, "op", &op);
  if (!s.ok()) return s;
  if (op == "query") {
    req.op = Op::kQuery;
  } else if (op == "assert") {
    req.op = Op::kAssert;
  } else if (op == "retract") {
    req.op = Op::kRetract;
  } else if (op == "prepare") {
    req.op = Op::kPrepare;
  } else if (op == "stats") {
    req.op = Op::kStats;
  } else if (op == "save") {
    req.op = Op::kSave;
  } else if (op == "drop") {
    req.op = Op::kDrop;
  } else {
    return Status::Error(std::string(kErrUnknownOp) + ": unknown op \"" +
                         op + "\"");
  }
  if (const JsonValue* kb = frame.Get("kb"); kb != nullptr) {
    if (!kb->is_string()) return BadRequest("field \"kb\" must be a string");
    req.kb = kb->as_string();
  }
  s = GetInteger(frame, "id", /*non_negative=*/false, &req.id, &req.has_id);
  if (!s.ok()) return s;
  switch (req.op) {
    case Op::kQuery: {
      s = GetString(frame, "cq", &req.cq);
      if (!s.ok()) return s;
      break;
    }
    case Op::kAssert:
    case Op::kRetract: {
      const JsonValue* facts = frame.Get("facts");
      if (facts == nullptr) return BadRequest("missing field \"facts\"");
      if (facts->is_string()) {
        req.facts = facts->as_string();
      } else if (facts->is_array()) {
        // An array of fact statements becomes one batch: a single
        // parse, a single delta pass.
        for (const JsonValue& item : facts->items()) {
          if (!item.is_string()) {
            return BadRequest("\"facts\" array items must be strings");
          }
          std::string f = item.as_string();
          while (!f.empty() && (f.back() == ' ' || f.back() == '\t')) {
            f.pop_back();
          }
          if (f.empty()) continue;
          if (f.back() != '.') f += '.';
          if (!req.facts.empty()) req.facts += ' ';
          req.facts += f;
        }
      } else {
        return BadRequest("field \"facts\" must be a string or array");
      }
      break;
    }
    case Op::kPrepare: {
      const JsonValue* program = frame.Get("program");
      const JsonValue* path = frame.Get("path");
      if (program != nullptr) {
        if (!program->is_string()) {
          return BadRequest("field \"program\" must be a string");
        }
        req.program = program->as_string();
      }
      if (path != nullptr) {
        if (!path->is_string()) {
          return BadRequest("field \"path\" must be a string");
        }
        req.path = path->as_string();
      }
      if (req.program.empty() && req.path.empty()) {
        return BadRequest("prepare needs \"program\" or \"path\"");
      }
      int64_t max_rules = 0;
      s = GetInteger(frame, "max_rules", /*non_negative=*/true, &max_rules);
      if (!s.ok()) return s;
      req.max_rules = static_cast<size_t>(max_rules);
      break;
    }
    case Op::kSave: {
      if (const JsonValue* path = frame.Get("path"); path != nullptr) {
        if (!path->is_string()) {
          return BadRequest("field \"path\" must be a string");
        }
        req.path = path->as_string();
      }
      break;
    }
    case Op::kStats:
    case Op::kDrop:
      break;
  }
  return req;
}

DispatchOutcome DispatchOutcome::Error(Op op, std::string kb,
                                       std::string code,
                                       std::string message) {
  DispatchOutcome out;
  out.ok = false;
  out.op = op;
  out.kb = std::move(kb);
  out.error_code = std::move(code);
  out.error_message = std::move(message);
  return out;
}

namespace {

void AppendCommon(const DispatchOutcome& outcome, bool has_id, int64_t id,
                  std::string* out) {
  *out += ", \"op\": \"";
  *out += OpName(outcome.op);
  *out += "\"";
  if (!outcome.kb.empty()) {
    *out += ", \"kb\": \"" + JsonEscape(outcome.kb) + "\"";
  }
  if (has_id) *out += ", \"id\": " + std::to_string(id);
}

void AppendCursor(const DispatchOutcome& outcome, std::string* out) {
  if (!outcome.has_cursor) return;
  *out += ", \"seq\": " + std::to_string(outcome.seq);
  *out += ", \"epoch\": " + std::to_string(outcome.epoch);
}

}  // namespace

std::string EncodeResponse(const DispatchOutcome& outcome, bool has_id,
                           int64_t id) {
  std::string out;
  if (!outcome.ok) {
    out = "{\"status\": \"error\"";
    AppendCommon(outcome, has_id, id, &out);
    out += ", \"error\": {\"code\": \"" + JsonEscape(outcome.error_code) +
           "\", \"message\": \"" + JsonEscape(outcome.error_message) +
           "\"}}";
    return out;
  }
  out = "{\"status\": \"ok\"";
  AppendCommon(outcome, has_id, id, &out);
  switch (outcome.op) {
    case Op::kQuery: {
      const QueryReply& q = outcome.query;
      out += ", \"answers\": [";
      for (size_t i = 0; i < q.answers.size(); ++i) {
        if (i > 0) out += ", ";
        out += '"';
        out += JsonEscape(q.answers[i]);
        out += '"';
      }
      out += "], \"count\": " + std::to_string(q.answers.size());
      out += std::string(", \"complete\": ") +
             (q.complete ? "true" : "false");
      out += std::string(", \"cache_hit\": ") +
             (q.cache_hit ? "true" : "false");
      out += ", \"degradation\": ";
      out += q.degradation.degraded() ? q.degradation.ToJson() : "null";
      AppendCursor(outcome, &out);
      break;
    }
    case Op::kAssert: {
      const AssertReply& a = outcome.assert_reply;
      out += ", \"new\": " + std::to_string(a.new_atoms);
      out += ", \"derived\": " + std::to_string(a.derived_atoms);
      out += std::string(", \"delta\": ") + (a.delta ? "true" : "false");
      AppendCursor(outcome, &out);
      break;
    }
    case Op::kRetract: {
      const RetractReply& r = outcome.retract;
      out += ", \"removed\": " + std::to_string(r.removed);
      out += ", \"overdeleted\": " + std::to_string(r.overdeleted);
      out += ", \"rederived\": " + std::to_string(r.rederived);
      out += std::string(", \"delta\": ") + (r.delta ? "true" : "false");
      AppendCursor(outcome, &out);
      break;
    }
    case Op::kPrepare: {
      const PrepareReply& p = outcome.prepare;
      out += ", \"mode\": \"" + JsonEscape(p.mode) + "\"";
      out += ", \"rules\": " + std::to_string(p.datalog_rules);
      out += ", \"model_atoms\": " + std::to_string(p.model_atoms);
      out += std::string(", \"loaded_snapshot\": ") +
             (p.loaded_snapshot ? "true" : "false");
      out += std::string(", \"complete\": ") +
             (p.complete ? "true" : "false");
      AppendCursor(outcome, &out);
      break;
    }
    case Op::kStats: {
      const StatsReply& st = outcome.stats;
      if (st.aggregated) {
        out += ", \"kbs\": {";
        for (size_t i = 0; i < st.per_kb.size(); ++i) {
          if (i > 0) out += ", ";
          out += '"';
          out += JsonEscape(st.per_kb[i].first);
          out += "\": ";
          out += st.per_kb[i].second.ToJson();
        }
        out += "}, \"total\": " + st.total.ToJson();
      } else {
        out += ", \"stats\": " + st.total.ToJson();
        AppendCursor(outcome, &out);
      }
      break;
    }
    case Op::kSave: {
      out += ", \"path\": \"" + JsonEscape(outcome.save.path) + "\"";
      AppendCursor(outcome, &out);
      break;
    }
    case Op::kDrop: {
      out += ", \"dropped\": true";
      break;
    }
  }
  out += "}";
  return out;
}

std::string EncodeProtocolError(const std::string& code,
                                const std::string& message) {
  return "{\"status\": \"error\", \"error\": {\"code\": \"" +
         JsonEscape(code) + "\", \"message\": \"" + JsonEscape(message) +
         "\"}}";
}

}  // namespace server
}  // namespace gerel
