#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json dumps and fail on regressions.

Every bench binary writes a machine-readable BENCH_<binary>.json next to
its console table (see bench/bench_util.h). This tool compares a
committed baseline directory (bench/baseline/) against a directory of
fresh dumps and exits non-zero if any benchmark regressed by more than
the threshold (default 15% wall time), implementing the perf trend
tracking item from ROADMAP.md.

Usage:
  tools/bench_diff.py BASELINE_DIR CURRENT_DIR [--threshold 0.15]
                      [--min-ms 0.5]

Every dump must carry a "provenance" object (nproc, build_type,
compiler, git_sha; see bench/provenance.h). A pair of dumps is only
comparable when both sides were measured on a host with the same nproc
by a build of the same build type and compiler: a wall time from a
1-core container says nothing about a 4-core host. The git sha is
recorded but may differ (comparing commits is the point).

Matching is by (binary, benchmark name). Benchmarks present only in the
baseline are reported as missing (a warning, not a failure: binaries and
cases come and go); benchmarks present only in the current run are new
and ignored. Runs faster than --min-ms in the baseline are skipped —
sub-noise-floor timings regress by 15% from scheduler jitter alone.

Exit codes: 0 no regressions, 1 regressions over threshold, 2 unusable
input (missing directory, no BENCH_*.json files, unparsable JSON, a
dump without the expected fields or without provenance, or a pair whose
nproc, build type or compiler differ) — so CI can tell "perf got worse"
from "the harness never produced comparable numbers".
"""

import argparse
import json
import pathlib
import sys

EXIT_REGRESSION = 1
EXIT_BAD_INPUT = 2

# Provenance fields that must agree for two dumps to be comparable.
HOST_FIELDS = ("nproc", "build_type", "compiler")


def fail_input(message):
    """Input errors are diagnosed on stderr and exit 2, never a traceback."""
    print(f"bench_diff: error: {message}", file=sys.stderr)
    sys.exit(EXIT_BAD_INPUT)


def load_dir(path):
    """Returns ({(binary, name): wall_ms}, {binary: provenance}) over every
    BENCH_*.json in path."""
    out = {}
    provenance = {}
    root = pathlib.Path(path)
    if not root.exists():
        fail_input(f"directory {path} does not exist")
    if not root.is_dir():
        fail_input(f"{path} is not a directory")
    files = sorted(root.glob("BENCH_*.json"))
    if not files:
        fail_input(f"no BENCH_*.json files in {path}")
    for f in files:
        try:
            doc = json.loads(f.read_text())
        except OSError as e:
            fail_input(f"{f}: {e}")
        except json.JSONDecodeError as e:
            fail_input(f"{f}: not valid JSON: {e}")
        if not isinstance(doc, dict):
            fail_input(f"{f}: expected a JSON object at top level")
        binary = doc.get("binary", f.stem)
        prov = doc.get("provenance")
        if not isinstance(prov, dict) or any(k not in prov
                                             for k in HOST_FIELDS):
            fail_input(f"{f}: no provenance ({', '.join(HOST_FIELDS)}); "
                       f"re-record it with a current bench build")
        provenance[binary] = prov
        benchmarks = doc.get("benchmarks", [])
        if not isinstance(benchmarks, list):
            fail_input(f"{f}: \"benchmarks\" must be a list")
        for i, run in enumerate(benchmarks):
            if not isinstance(run, dict) or "name" not in run:
                fail_input(f"{f}: benchmarks[{i}] has no \"name\"")
            if "wall_ms" not in run:
                fail_input(f"{f}: benchmark {run['name']!r} has no \"wall_ms\"")
            try:
                wall_ms = float(run["wall_ms"])
            except (TypeError, ValueError):
                fail_input(f"{f}: benchmark {run['name']!r} has non-numeric "
                           f"wall_ms {run['wall_ms']!r}")
            out[(binary, run["name"])] = wall_ms
    return out, provenance


def check_comparable(base_prov, cur_prov):
    """Exits 2 when a binary present on both sides was measured on another
    kind of host or build."""
    mismatches = []
    for binary in sorted(set(base_prov) & set(cur_prov)):
        for field in HOST_FIELDS:
            if base_prov[binary][field] != cur_prov[binary][field]:
                mismatches.append(f"{binary}: {field} "
                                  f"{base_prov[binary][field]!r} (baseline) "
                                  f"vs {cur_prov[binary][field]!r} (current)")
    if mismatches:
        fail_input("dumps are not comparable across hosts or builds:\n  " +
                   "\n  ".join(mismatches))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="directory of committed BENCH_*.json")
    ap.add_argument("current", help="directory of freshly produced BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative wall-time regression that fails (0.15 = 15%%)")
    ap.add_argument("--min-ms", type=float, default=0.5,
                    help="skip benchmarks whose baseline is below this "
                         "noise floor in milliseconds")
    args = ap.parse_args()

    base, base_prov = load_dir(args.baseline)
    cur, cur_prov = load_dir(args.current)
    check_comparable(base_prov, cur_prov)

    regressions = []
    improved = 0
    compared = 0
    skipped = 0
    missing = []
    for key, base_ms in sorted(base.items()):
        if key not in cur:
            missing.append(key)
            continue
        if base_ms < args.min_ms:
            skipped += 1
            continue
        cur_ms = cur[key]
        compared += 1
        rel = (cur_ms - base_ms) / base_ms
        tag = ""
        if rel > args.threshold:
            regressions.append((key, base_ms, cur_ms, rel))
            tag = "  << REGRESSION"
        elif rel < -args.threshold:
            improved += 1
            tag = "  (improved)"
        print(f"{key[0]}:{key[1]}: {base_ms:.3f} ms -> {cur_ms:.3f} ms "
              f"({rel:+.1%}){tag}")

    for key in missing:
        print(f"warning: {key[0]}:{key[1]} missing from current run")
    print(f"\nbench_diff: {compared} compared, {improved} improved, "
          f"{skipped} below noise floor ({args.min_ms} ms), "
          f"{len(missing)} missing, {len(regressions)} regressed "
          f"(threshold {args.threshold:.0%})")
    if regressions:
        print("\nFAIL: wall-time regressions over threshold:")
        for (binary, name), base_ms, cur_ms, rel in regressions:
            print(f"  {binary}:{name}: {base_ms:.3f} ms -> {cur_ms:.3f} ms "
                  f"({rel:+.1%})")
        return EXIT_REGRESSION
    return 0


if __name__ == "__main__":
    sys.exit(main())
