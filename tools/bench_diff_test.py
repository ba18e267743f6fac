#!/usr/bin/env python3
"""Exit-code test for tools/bench_diff.py's provenance guard.

Writes pairs of one-binary BENCH_*.json directories into a temporary
directory and checks that bench_diff.py exits 2 whenever either side lacks
provenance or the two sides differ in nproc, build type or compiler, and
diffs normally (exit 0) when only the git sha differs.

Usage: tools/bench_diff_test.py path/to/bench_diff.py
"""

import json
import pathlib
import subprocess
import sys
import tempfile

PROVENANCE = {"nproc": 4, "build_type": "Release", "compiler": "GNU 12.2.0",
              "git_sha": "e5a990c5be74"}


def write_dump(directory, provenance):
    directory.mkdir(parents=True)
    doc = {"binary": "bench_x",
           "benchmarks": [{"name": "BM_X", "wall_ms": 1.0, "cpu_ms": 1.0,
                           "iterations": 10, "threads": 1}]}
    if provenance is not None:
        doc["provenance"] = provenance
    (directory / "BENCH_bench_x.json").write_text(json.dumps(doc))


def main():
    tool = sys.argv[1]
    cases = [
        ("same host and build", PROVENANCE, dict(PROVENANCE), 0),
        ("another commit", PROVENANCE, dict(PROVENANCE, git_sha="3917095"), 0),
        ("nproc differs", PROVENANCE, dict(PROVENANCE, nproc=1), 2),
        ("build type differs", PROVENANCE,
         dict(PROVENANCE, build_type="Debug"), 2),
        ("compiler differs", PROVENANCE,
         dict(PROVENANCE, compiler="Clang 15.0.0"), 2),
        ("baseline lacks provenance", None, PROVENANCE, 2),
        ("current lacks provenance", PROVENANCE, None, 2),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, base, cur, want) in enumerate(cases):
            base_dir = pathlib.Path(tmp) / f"{i}" / "base"
            cur_dir = pathlib.Path(tmp) / f"{i}" / "cur"
            write_dump(base_dir, base)
            write_dump(cur_dir, cur)
            got = subprocess.run([sys.executable, tool, str(base_dir),
                                  str(cur_dir)], capture_output=True,
                                 text=True).returncode
            status = "ok" if got == want else "FAIL"
            print(f"{status}: {name}: exit {got} (want {want})")
            failures += got != want
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
