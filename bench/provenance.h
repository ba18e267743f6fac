// Where a BENCH_*.json dump was measured: the host's hardware threads and
// the binary's build type, compiler and commit, recorded the way
// perfbench's `provenance` line records them. tools/bench_diff.py refuses
// to compare two dumps whose nproc, build type or compiler differ, so a
// committed baseline is only ever diffed against numbers from a like
// host and build. Shared by the bench binaries (bench_util.h) and
// gerel-loadgen; the definitions come from the gerel_bench_provenance
// CMake target (the commit is the one the build was configured at).
#ifndef GEREL_BENCH_PROVENANCE_H_
#define GEREL_BENCH_PROVENANCE_H_

#include <string>
#include <thread>

namespace gerel::bench {

// The `"provenance": {...}` member of a BENCH_*.json object.
inline std::string ProvenanceJsonMember() {
  return "\"provenance\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" GEREL_BENCH_BUILD_TYPE
         "\", \"compiler\": \"" GEREL_BENCH_COMPILER
         "\", \"git_sha\": \"" GEREL_BENCH_GIT_SHA "\"}";
}

}  // namespace gerel::bench

#endif  // GEREL_BENCH_PROVENANCE_H_
