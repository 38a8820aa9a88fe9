#!/usr/bin/env python3
"""Cross-PR benchmark diff: compares freshly emitted BENCH_*.json reports
against the committed baselines and prints a delta table.

Usage:
    python3 scripts/bench_diff.py BASELINE_DIR FRESH_DIR [--threshold PCT]

Every BENCH_*.json found in either directory is paired by filename. Result
rows are matched by their identity fields (every non-numeric value: monitor
name, mode, batch size is numeric but listed as identity below); numeric
fields are treated as metrics and reported as percentage deltas. Rows whose
largest |delta| is below --threshold are suppressed.

The diff is informational by default: committed baselines are full runs
while CI emits RANM_SMOKE runs, so absolute deltas across that boundary are
expected to be large (a warning is printed when the smoke flags differ) and
the exit code is 0 unless a report fails to parse.

--fail-increase METRIC[:PCT] (repeatable) turns a metric into a tracked
regression gate: if that metric grows by more than PCT percent (default 0)
on any row matched between baseline and fresh, the script exits 1. Use it
for metrics that are deterministic across run shapes — e.g. bdd_nodes,
which depends only on the seeded workload, never on timer noise.

--fail-increase-matching-smoke METRIC[:PCT] (repeatable) is the same gate
but only enforced when the baseline and fresh reports have the same smoke
flag and the same provenance. Use it for timing metrics (e.g. p99_ms):
comparing a committed full run against a CI smoke run is noise, but two
runs of the same shape regressing by a wide margin is a real signal.

Like perfbench/compare.py, the script refuses to compare timings between
reports whose provenance differs in compiler, build type, compiler flags,
CPU, hardware threads or repetition statistic (or that carry no provenance): such a
delta measures the two set-ups, not the change. For a refused pair only
the --fail-increase metrics, which are deterministic, are shown and gated.

--self-test checks the gating and refusal rules on synthetic reports.

Stdlib only — no pip dependencies.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

# Fields that identify a row even though they are numeric: sweeps are keyed
# by these, so a delta between batch sizes would be meaningless.
IDENTITY_NUMERIC = {"batch_size", "shards", "threads", "bits", "samples",
                    "dim", "kp", "hidden_layers", "train_size", "workers",
                    "clients"}
# Run-shape metadata: differs between smoke and full runs by design, and a
# delta on it is noise — excluded from both identity and metrics.
IGNORED = {"requests"}
# Provenance keys (bench_util.hpp's stamp) that must agree before timings
# are compared. The commit and the dirty flag may differ: they are the
# change being measured.
MUST_MATCH = ("compiler", "build_type", "flags", "cpu", "hardware_threads",
              "statistic")


def row_identity(row):
    parts = []
    for key in sorted(row):
        value = row[key]
        if key in IGNORED:
            continue
        if isinstance(value, str) or isinstance(value, bool) \
                or key in IDENTITY_NUMERIC:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def row_metrics(row):
    return {
        key: value
        for key, value in row.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
        and key not in IDENTITY_NUMERIC and key not in IGNORED
    }


def load_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_fail_rules(specs):
    """METRIC[:PCT] strings -> {metric: allowed_increase_pct}."""
    rules = {}
    for spec in specs:
        metric, _, pct = spec.partition(":")
        if not metric:
            raise SystemExit(f"bench_diff: bad --fail-increase spec {spec!r}")
        try:
            rules[metric] = float(pct) if pct else 0.0
        except ValueError:
            raise SystemExit(
                f"bench_diff: bad --fail-increase percentage in {spec!r}")
    return rules


def provenance_mismatch(baseline, fresh):
    """The MUST_MATCH keys on which two reports' provenance differs; all of
    them when either report has none."""
    old = baseline.get("provenance")
    new = fresh.get("provenance")
    if not isinstance(old, dict) or not isinstance(new, dict):
        return list(MUST_MATCH)
    return [k for k in MUST_MATCH if old.get(k) != new.get(k)]


def diff_report(name, baseline, fresh, threshold, fail_rules,
                matching_smoke_rules):
    failures = []
    lines = []
    smoke_matches = baseline.get("smoke") == fresh.get("smoke")
    if not smoke_matches:
        lines.append(
            f"  note: smoke flags differ (baseline={baseline.get('smoke')}, "
            f"fresh={fresh.get('smoke')}) — absolute deltas are expected")
    mismatch = provenance_mismatch(baseline, fresh)
    if mismatch:
        lines.append(
            "  refusing to compare timings: provenance differs in "
            f"{', '.join(mismatch)}; showing only "
            f"{', '.join(sorted(fail_rules)) or 'no metrics'}")
    elif smoke_matches and matching_smoke_rules:
        fail_rules = {**matching_smoke_rules, **fail_rules}

    base_rows = {row_identity(r): r for r in baseline.get("results", [])}
    fresh_rows = {row_identity(r): r for r in fresh.get("results", [])}

    for identity in sorted(set(base_rows) | set(fresh_rows)):
        if identity not in base_rows:
            lines.append(f"  + new row: {identity}")
            continue
        if identity not in fresh_rows:
            lines.append(f"  - missing row: {identity}")
            continue
        old_metrics = row_metrics(base_rows[identity])
        new_metrics = row_metrics(fresh_rows[identity])
        if mismatch:
            old_metrics = {k: v for k, v in old_metrics.items()
                           if k in fail_rules}
            new_metrics = {k: v for k, v in new_metrics.items()
                           if k in fail_rules}
        cells = []
        worst = 0.0
        for key in sorted(set(old_metrics) | set(new_metrics)):
            old = old_metrics.get(key)
            new = new_metrics.get(key)
            if old is None or new is None:
                cells.append(f"{key}: {old} -> {new}")
                worst = float("inf")
                continue
            if old == 0:
                delta = 0.0 if new == 0 else float("inf")
            else:
                delta = 100.0 * (new - old) / abs(old)
            worst = max(worst, abs(delta))
            marker = " !" if abs(delta) >= 20.0 else ""
            cells.append(f"{key}: {old:g} -> {new:g} ({delta:+.1f}%{marker})")
            if key in fail_rules and delta > fail_rules[key]:
                failures.append(
                    f"{name}: {identity}: {key} {old:g} -> {new:g} "
                    f"(+{delta:.1f}% > allowed {fail_rules[key]:g}%)")
        if worst >= threshold:
            lines.append(f"  {identity}")
            for cell in cells:
                lines.append(f"      {cell}")

    print(f"== {name} ==")
    if lines:
        print("\n".join(lines))
    else:
        print(f"  no deltas >= {threshold}%")
    print()
    return failures


def self_test():
    """Runs diff_report on synthetic reports; returns the exit status."""
    prov = {"commit": "a", "dirty": False, "compiler": "gcc 12.2.0",
            "build_type": "Release", "flags": "-O3 -DNDEBUG", "cpu": "cpu",
            "hardware_threads": 4, "statistic": "median"}

    def report(ms, nodes, **changes):
        row = {"mode": "robust", "train_size": 64, "build_ms": ms,
               "bdd_nodes": nodes}
        out = {"bench": "b", "smoke": True, "results": [row]}
        if changes.get("provenance", True):
            out["provenance"] = {**prov, **changes.get("stamp", {})}
        return out

    gates = {"bdd_nodes": 0.0}
    timing = {"build_ms": 10.0}
    cases = [
        # (what, baseline, fresh, expect failures, expect refusal)
        ("slower build, same provenance", report(1.0, 5),
         report(2.0, 5, stamp={"commit": "b", "dirty": True}), 1, False),
        ("slower build, other compiler", report(1.0, 5),
         report(2.0, 5, stamp={"compiler": "clang 17"}), 0, True),
        ("slower build, other flags", report(1.0, 5),
         report(2.0, 5, stamp={"flags": "-O2 -fsanitize=address"}), 0, True),
        ("slower build, other CPU", report(1.0, 5),
         report(2.0, 5, stamp={"cpu": "other"}), 0, True),
        ("slower build, no provenance", report(1.0, 5),
         report(2.0, 5, provenance=False), 0, True),
        ("more nodes, other compiler", report(1.0, 5),
         report(1.0, 6, stamp={"compiler": "clang 17"}), 1, True),
        ("same run", report(1.0, 5), report(1.0, 5), 0, False),
    ]
    errors = []
    for what, base, fresh, want_failures, want_refusal in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            failures = diff_report("b", base, fresh, 0.0, gates, timing)
        refused = "refusing to compare timings" in out.getvalue()
        shows_timing = "build_ms" in out.getvalue()
        if len(failures) != want_failures or refused != want_refusal \
                or shows_timing == want_refusal:
            errors.append(f"{what}: {len(failures)} failures, refused "
                          f"{refused}, timings shown {shows_timing}")
    for error in errors:
        print(f"self-test FAILED: {error}", file=sys.stderr)
    if not errors:
        print(f"self-test ok: {len(cases)} cases")
    return 1 if errors else 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir", type=Path)
    parser.add_argument("fresh_dir", type=Path)
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="suppress rows whose largest |delta| is below "
                             "this percentage (default: show everything)")
    parser.add_argument("--fail-increase", action="append", default=[],
                        metavar="METRIC[:PCT]",
                        help="exit 1 if METRIC increases by more than PCT "
                             "percent (default 0) on any matched row; "
                             "repeatable")
    parser.add_argument("--fail-increase-matching-smoke", action="append",
                        default=[], metavar="METRIC[:PCT]",
                        help="like --fail-increase, but only enforced when "
                             "baseline and fresh have the same smoke flag "
                             "(for timing metrics); repeatable")
    args = parser.parse_args()
    fail_rules = parse_fail_rules(args.fail_increase)
    matching_smoke_rules = parse_fail_rules(args.fail_increase_matching_smoke)

    names = sorted({p.name for p in args.baseline_dir.glob("BENCH_*.json")} |
                   {p.name for p in args.fresh_dir.glob("BENCH_*.json")})
    if not names:
        print("bench_diff: no BENCH_*.json reports found", file=sys.stderr)
        return 0

    failed = False
    failures = []
    for name in names:
        base_path = args.baseline_dir / name
        fresh_path = args.fresh_dir / name
        if not base_path.exists():
            print(f"== {name} ==\n  new report (no committed baseline)\n")
            continue
        if not fresh_path.exists():
            print(f"== {name} ==\n  baseline exists but no fresh report\n")
            continue
        try:
            failures += diff_report(name, load_report(base_path),
                                    load_report(fresh_path),
                                    args.threshold, fail_rules,
                                    matching_smoke_rules)
        except (json.JSONDecodeError, OSError) as err:
            print(f"bench_diff: cannot read {name}: {err}", file=sys.stderr)
            failed = True
    for failure in failures:
        print(f"bench_diff: FAIL {failure}", file=sys.stderr)
    return 1 if failed or failures else 0


if __name__ == "__main__":
    sys.exit(main())
