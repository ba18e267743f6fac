#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t Tracer::Begin(std::string name, int64_t parent, int64_t request) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.request = request;
  s.start_ms = MsBetween(origin_, Clock::now());
  s.end_ms = s.start_ms;
  spans_.push_back(std::move(s));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span) {
  spans_[span].end_ms = MsBetween(origin_, Clock::now());
}

int64_t Tracer::Add(std::string name, double start_ms, double end_ms,
                    int64_t parent, int64_t request) {
  spans_.push_back({std::move(name), start_ms, end_ms, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::SelfTimeMs() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += s.ms();
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].ms() - child_ms[i];
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f, \"parent\": %lld, \"request\": %lld}\n",
                 i, s.name.c_str(), s.start_ms, s.end_ms,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
