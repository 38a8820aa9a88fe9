#!/usr/bin/env python3
"""Compares two sets of perfbench reports: a base commit and a change.

  python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are report files or directories of them, as run.py writes
them to .bench_build/perfbench/reports/. Only end-to-end (--trace 0)
reports are compared. The comparison is refused, with exit code 2, when
the reports differ in anything but the commit and the seed: benchmark
code, compiler and version, flags, build type, nproc, CPU model, run
length or repetition statistic.

For every workload and every end-to-end metric of BENCHMARK.json it
prints each side's median and quartiles and a verdict against the
metric's bound: "worse" when the change's median is worse than the
base's by more than the bound; "unresolved" when the base's own quartile
spread is wider than the bound, unless every change run beats every base
run; "ok" otherwise. Exits 1 when a metric is worse or when the change
fails more operations than the base.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUST_MATCH = ("bench_digest", "compiler", "compiler_version", "flags",
              "build_type", "nproc", "cpu_model", "run_seconds", "statistic")


def load(path):
    if os.path.isfile(path):
        files = [path]
    else:
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))
                 if f.endswith(".json")]
    reports = []
    for name in files:
        with open(name) as f:
            report = json.load(f)
        if report["provenance"]["trace"] == 0:
            reports.append(report)
    return reports


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def refuse_mixed_provenance(sides):
    seen = {}
    for side, reports in sides.items():
        for r in reports:
            key = tuple(r["provenance"].get(k) for k in MUST_MATCH)
            seen.setdefault(key, set()).add(side)
    if len(seen) <= 1:
        return False
    print("refusing to compare: provenance differs", file=sys.stderr)
    for key, where in seen.items():
        print(f"  {sorted(where)}: {dict(zip(MUST_MATCH, key))}",
              file=sys.stderr)
    return True


def compare_workload(spec, workload, runs):
    """Prints one workload's table; returns True when the change is worse."""
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"{workload}: {len(runs['base'])} base runs, "
          f"{len(runs['change'])} change runs; failed operations "
          f"{failed['base']} -> {failed['change']}")
    worse_any = failed["change"] > failed["base"]
    for m in spec["end_to_end"]:
        vals = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                for side, rs in runs.items()}
        b1, bmed, b3 = quartiles(vals["base"])
        c1, cmed, c3 = quartiles(vals["change"])
        sign = 1.0 if m["better"] == "lower" else -1.0
        worse = sign * (cmed - bmed) / bmed if bmed else 0.0
        spread = (b3 - b1) / bmed if bmed else 0.0
        dominates = all(sign * c < sign * b
                        for c in vals["change"] for b in vals["base"])
        if spread > m["bound"] and not dominates:
            verdict = "unresolved"
        elif worse > m["bound"]:
            verdict = "worse"
            worse_any = True
        else:
            verdict = "ok"
        change = (cmed - bmed) / bmed if bmed else 0.0
        print(f"  {m['name']:20s} base {bmed:.6g} [{b1:.6g}, {b3:.6g}]  "
              f"change {cmed:.6g} [{c1:.6g}, {c3:.6g}] {m['unit']}  "
              f"{change:+.1%} (bound {m['bound']:.0%}, {m['better']} is "
              f"better): {verdict}")
    return worse_any


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sides = {"base": load(argv[1]), "change": load(argv[2])}
    for side, reports in sides.items():
        if not reports:
            print(f"no end-to-end reports for {side}", file=sys.stderr)
            return 2
    if refuse_mixed_provenance(sides):
        return 2
    worse = False
    for workload in sorted({r["workload"] for rs in sides.values()
                            for r in rs}):
        runs = {side: [r for r in rs if r["workload"] == workload]
                for side, rs in sides.items()}
        if not runs["base"] or not runs["change"]:
            print(f"{workload}: runs on one side only, not compared")
            worse = True
            continue
        worse |= compare_workload(spec, workload, runs)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
