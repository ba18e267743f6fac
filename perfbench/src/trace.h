// In-memory span recorder for the traced run. Spans are recorded from
// the harness around each public gerel call, kept in memory, and
// written out once at exit.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;
  double start_ms = 0;  // Since the tracer's origin.
  double end_ms = 0;
  int64_t parent = -1;  // Index of the enclosing span; −1 at the root.
  int64_t request = -1; // Request id for serve spans; −1 otherwise.
  double ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  // Opens a span and returns its index; spans nest by `parent`.
  int64_t Begin(std::string name, int64_t parent = -1, int64_t request = -1);
  void End(int64_t span);
  // Records a span whose interval was measured elsewhere.
  int64_t Add(std::string name, double start_ms, double end_ms,
              int64_t parent, int64_t request);
  const Span& span(int64_t i) const { return spans_[i]; }
  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: total self time in ms (duration minus the time its
  // direct children cover).
  std::map<std::string, double> SelfTimeMs() const;
  // One JSON object per line. False on an I/O error.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
