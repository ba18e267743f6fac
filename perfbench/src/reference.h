// The reference checker: expected answers by plain graph search over the
// edges the harness generated and wrote. It shares no code with gerel's
// engines (chase, Datalog, saturation) or its JSON codec.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

// The sorted node ids that answer `q` over `p`'s graph plus `extra`.
std::vector<uint32_t> ExpectedNodes(const ProgramInput& p, const QuerySpec& q,
                                    const ExtraEdge& extra);

// The answers `q` renders as, sorted: "q(c7)", ...
std::vector<std::string> ExpectedAnswers(const ProgramInput& p,
                                         const QuerySpec& q,
                                         const ExtraEdge& extra);

// Extracts the "answers" array of an ok query response line, sorted.
// False when the line is an error or not a query response.
bool ParseAnswers(const std::string& response,
                  std::vector<std::string>* answers);

// Whether `response` acknowledges a write of one fresh edge: "new": 1
// for an assert, "removed": 1 for a retract.
bool CheckWriteResponse(OpType type, const std::string& response);

// Runs the checker against the hand-written cases in `path` (format in
// testdata/checker_selftest.txt). Prints one line per failure; returns
// the number of failures, or −1 when the file cannot be read.
int SelfTest(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
