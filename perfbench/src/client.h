// A blocking JSON-lines client: one request in flight at a time (the
// closed loop of a single client session).
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <string>

namespace perfbench {

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects to 127.0.0.1:port. False on failure.
  bool Connect(uint16_t port);
  // Sends `frame` plus a newline and reads one response line (newline
  // stripped). False when the connection fails.
  bool RoundTrip(const std::string& frame, std::string* response);
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;  // Bytes read past the last returned line.
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
