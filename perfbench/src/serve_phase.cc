#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "cpus.h"
#include "phases.h"
#include "reference.h"
#include "server/json.h"
#include "server/wire.h"

namespace perfbench {

using gerel::ServiceStats;
using gerel::server::DispatchOutcome;
using gerel::server::JsonValue;
using gerel::server::WireRequest;

namespace {

// Seed salts keep the served graph and the request stream independent.
constexpr uint64_t kServedSalt = 0x5e7ed;
constexpr uint64_t kStreamSalt = 0x57ea3;
// A whole number of write periods, so the warm-up ends with no fresh
// edge live.
constexpr size_t kWarmupOps = 400;
static_assert(kWarmupOps % kWritePeriod == 0);

double Us(const Span& s) { return s.ms() * 1000.0; }

}  // namespace

void Tally::Record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (messages.size() < 8) messages.push_back(what);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

ServeSession::ServeSession(const ServeConfig& config, uint64_t seed)
    : served_(MakeProgram(config.route, config.size, seed ^ kServedSalt)),
      stream_(&served_, seed ^ kStreamSalt) {}

ServeSession::~ServeSession() {
  client_.Close();
  if (server_ != nullptr) server_->Shutdown();
}

bool ServeSession::Start(bool replay, Tally* tally) {
  using gerel::server::TenantRegistry;
  registry_ = std::make_unique<TenantRegistry>(TenantRegistry::Config());
  auto tenant = [&] {
    OtherCpus away;
    return registry_->Prepare("main", served_.text, 0, nullptr);
  }();
  if (!tenant.ok()) {
    tally->Record(false, "prepare: " + tenant.status().message());
    return false;
  }
  stats_after_prepare_ = tenant.value()->kb->stats();
  dispatcher_ = std::make_unique<gerel::server::Dispatcher>(registry_.get());
  gerel::server::ServerOptions options;
  options.num_workers = 1;
  server_ = std::make_unique<gerel::server::SocketServer>(dispatcher_.get(),
                                                          options);
  gerel::Status started = server_->Start();
  if (!started.ok() || !client_.Connect(server_->port())) {
    tally->Record(false, "server start: " + started.message());
    return false;
  }
  if (replay) {
    replay_registry_ =
        std::make_unique<TenantRegistry>(TenantRegistry::Config());
    auto twin = [&] {
      OtherCpus away;
      return replay_registry_->Prepare("main", served_.text, 0, nullptr);
    }();
    if (!twin.ok()) {
      tally->Record(false, "replay prepare: " + twin.status().message());
      return false;
    }
    stats_after_prepare_ = twin.value()->kb->stats();
    replay_dispatcher_ =
        std::make_unique<gerel::server::Dispatcher>(replay_registry_.get());
  }
  Send(kWarmupOps, false, nullptr, tally);
  return tally->failed == 0;
}

void ServeSession::Send(size_t n, bool timed, Tracer* tracer, Tally* tally) {
  for (size_t i = 0; i < n; ++i) {
    if (!Exchange(stream_.Next(), timed, tracer, tally)) return;
  }
}

bool ServeSession::Exchange(const Op& op, bool timed, Tracer* tracer,
                            Tally* tally) {
  std::string response;
  Clock::time_point start = Clock::now();
  bool ok = client_.RoundTrip(op.frame, &response);
  double ms = MsBetween(start, Clock::now());
  if (!ok) {
    tally->Record(false, "connection lost");
    return false;
  }
  if (timed) latency_ms_[static_cast<size_t>(op.type)].push_back(ms);
  ++requests_;
  sent_.push_back(op);
  responses_.push_back(std::move(response));
  if (replay_dispatcher_ != nullptr) Replay(op, timed ? tracer : nullptr);
  return true;
}

void ServeSession::Replay(const Op& op, Tracer* tracer) {
  // The same frame, in-process: decode → Dispatch → encode, with the
  // tenant's ServiceStats read around the dispatch for service time.
  std::shared_ptr<gerel::server::Tenant> tenant =
      replay_registry_->Find("main");
  ServiceStats before = tenant->kb->stats();
  int64_t request_id = static_cast<int64_t>(requests_) - 1;
  if (tracer == nullptr) {
    auto frame = JsonValue::Parse(op.frame);
    auto req = gerel::server::DecodeRequest(frame.value());
    DispatchOutcome out = replay_dispatcher_->Dispatch(req.value());
    responses_.push_back(gerel::server::EncodeResponse(
        out, req.value().has_id, req.value().id));
    sent_.push_back(op);
    return;
  }
  int64_t request = tracer->Begin("request", -1, request_id);
  int64_t decode = tracer->Begin("server.decode", request, request_id);
  gerel::Result<JsonValue> frame = JsonValue::Parse(op.frame);
  gerel::Result<WireRequest> req = gerel::server::DecodeRequest(frame.value());
  tracer->End(decode);
  std::string op_name = OpTypeName(op.type);
  int64_t dispatch =
      tracer->Begin("server.dispatch_" + op_name, request, request_id);
  DispatchOutcome out = replay_dispatcher_->Dispatch(req.value());
  tracer->End(dispatch);
  int64_t encode = tracer->Begin("server.encode", request, request_id);
  std::string response =
      gerel::server::EncodeResponse(out, req.value().has_id, req.value().id);
  tracer->End(encode);
  tracer->End(request);
  ServiceStats after = tenant->kb->stats();

  // Service time from the stats delta, as a child of the dispatch span
  // placed at its start.
  double service_ms = 0;
  switch (op.type) {
    case OpType::kQuery:
      service_ms = after.query_wall_ms - before.query_wall_ms;
      break;
    case OpType::kAssert:
      service_ms = after.assert_wall_ms - before.assert_wall_ms;
      break;
    case OpType::kRetract:
      service_ms = after.retract_wall_ms - before.retract_wall_ms;
      break;
  }
  const Span r = tracer->span(request);
  const Span d = tracer->span(decode);
  const Span x = tracer->span(dispatch);
  const Span e = tracer->span(encode);
  tracer->Add("service." + op_name, x.start_ms, x.start_ms + service_ms,
              dispatch, request_id);
  for (const Span* child : {&d, &x, &e}) {
    if (child->start_ms < r.start_ms || child->end_ms > r.end_ms) {
      ++replay_.nesting_violations;
    }
  }
  if (d.ms() + x.ms() + e.ms() > r.ms()) ++replay_.nesting_violations;
  replay_.decode_us.push_back(Us(d));
  replay_.encode_us.push_back(Us(e));
  replay_.dispatch_us[static_cast<size_t>(op.type)].push_back(Us(x));
  if (op.type == OpType::kQuery) {
    replay_.query_inproc_us.push_back(Us(d) + Us(x) + Us(e));
  }
  responses_.push_back(std::move(response));
  sent_.push_back(op);
}

void ServeSession::Check(Tally* tally) {
  // Expected answers depend only on (kind, key, live fresh edge).
  std::map<std::tuple<int, uint32_t, bool, uint32_t, uint32_t>,
           std::vector<std::string>>
      memo;
  for (size_t i = 0; i < sent_.size(); ++i) {
    const Op& op = sent_[i];
    const std::string& response = responses_[i];
    bool ok;
    if (op.type == OpType::kQuery) {
      auto key = std::make_tuple(static_cast<int>(op.query.kind),
                                 op.query.key, op.edge.active, op.edge.u,
                                 op.edge.v);
      auto it = memo.find(key);
      if (it == memo.end()) {
        it = memo.emplace(key, ExpectedAnswers(served_, op.query, op.edge))
                 .first;
      }
      std::vector<std::string> got;
      ok = ParseAnswers(response, &got) && got == it->second;
      query_response_bytes_ += response.size() + 1;  // + newline
      ++query_responses_;
    } else {
      ok = CheckWriteResponse(op.type, response);
    }
    tally->Record(ok, ok ? std::string()
                         : op.frame + " -> " + response.substr(0, 160));
  }
  sent_.clear();
  responses_.clear();
}

double ServeSession::mean_query_response_bytes() const {
  return query_responses_ == 0 ? 0
                                : static_cast<double>(query_response_bytes_) /
                                      static_cast<double>(query_responses_);
}

ServiceStats ServeSession::stats() const {
  const auto* registry =
      replay_registry_ != nullptr ? replay_registry_.get() : registry_.get();
  return registry->Find("main")->kb->stats();
}

}  // namespace perfbench
