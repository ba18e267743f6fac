// The request-dispatch core shared by the socket front-end
// (server/server.h) and the stdin REPL (server/session.h): both decode
// their input into a WireRequest, pass it here, and render the
// DispatchOutcome in their own framing — so the two paths cannot drift.
//
// Locking per request (see registry.h): every op takes its tenant's one
// mutex once and holds it to the end, cursor update included. A query
// parses its CQ into a scratch symbol table before taking the lock and
// resolves the names against the tenant's table without interning, so it
// writes nothing to the tenant.
#ifndef GEREL_SERVER_DISPATCH_H_
#define GEREL_SERVER_DISPATCH_H_

#include <string>
#include <string_view>

#include "server/registry.h"
#include "server/wire.h"

namespace gerel {
namespace server {

// The tenant a KB-scoped request resolves to when it names none.
inline constexpr char kDefaultKbName[] = "default";

// `s` without leading and trailing spaces, tabs, CRs and LFs.
std::string_view Trim(std::string_view s);

class Dispatcher {
 public:
  explicit Dispatcher(TenantRegistry* registry) : registry_(registry) {}

  // Executes one request. Never fails at the C++ level: protocol and
  // semantic failures come back as outcomes with ok = false and a
  // stable error code.
  DispatchOutcome Dispatch(const WireRequest& req);

 private:
  DispatchOutcome Query(const WireRequest& req, const std::string& name);
  // Assert and retract: parse the facts, apply them as one batch, move
  // the cursor, mark the tenant dirty.
  DispatchOutcome Write(const WireRequest& req, const std::string& name);
  DispatchOutcome Prepare(const WireRequest& req, const std::string& name);
  DispatchOutcome Stats(const WireRequest& req);
  DispatchOutcome Save(const WireRequest& req, const std::string& name);
  DispatchOutcome Drop(const WireRequest& req, const std::string& name);

  TenantRegistry* const registry_;
};

}  // namespace server
}  // namespace gerel

#endif  // GEREL_SERVER_DISPATCH_H_
