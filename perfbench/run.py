#!/usr/bin/env python3
"""Runs the repository benchmark.

Builds perfbench (the ranm library from src/ plus perfbench.cpp) under
.bench_build/perfbench, runs one workload and prints, as its last stdout
line, one JSON object with the keys correct, attempted, failed and metrics.
Run from the repository root:

  python3 perfbench/run.py --workload track_serve --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all --seed 1      # every workload, end to end
  python3 perfbench/run.py --self-test         # tiny sizes, schema checks

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Every run also writes a report stamped with its provenance
to .bench_build/perfbench/reports/; perfbench/compare.py compares two sets
of reports. See perfbench/NOTES.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("track_build", "track_serve", "mlp_socket")
STATISTIC = ("setup_s: median over the run's set-ups; samples_per_s: callers "
             "x samples per request / 5th-percentile request latency; "
             "build_samples_per_s: sum over build chunks of each chunk's "
             "fastest time; latency: nearest rank over every request, on "
             "mlp_socket over a uniform sample of 65536 per client")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    bdir = build_root()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(bdir, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def digest(paths):
    """sha256 over the contents of every file under `paths`, sorted."""
    h = hashlib.sha256()
    files = []
    for p in paths:
        full = os.path.join(ROOT, p)
        if os.path.isfile(full):
            files.append(p)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in filenames:
                files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(files):
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def run_binary(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns the binary's detail record."""
    workdir = os.path.join(build_root(), "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           # Relative, so the Unix socket path stays short.
           "--workdir", os.path.relpath(workdir, ROOT)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def select(spec, detail, trace):
    """The metrics of BENCHMARK.json this run reports, checked against it."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, problems = {}, []
    for m in wanted:
        got = detail["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{m['name']}: missing")
            continue
        if got["unit"] != m["unit"] or got["better"] != m["better"]:
            problems.append(f"{m['name']}: {got['unit']}/{got['better']} "
                            f"does not match {m['unit']}/{m['better']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, problems


def write_report(detail, seconds, trace):
    report = {
        "provenance": {
            "git_sha": git_sha(),
            "source_digest": digest(["src"]),
            "bench_digest": digest(["perfbench", "BENCHMARK.json"]),
            **detail["build"],
            **detail["host"],
            "seed": detail["seed"],
            "run_seconds": seconds,
            "trace": trace,
            "runs": 1,
            "setups": detail["info"].get("setups"),
            "statistic": STATISTIC,
        },
        "workload": detail["workload"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "complete": detail["complete"],
        "metrics": detail["metrics"],
        "info": detail["info"],
    }
    rdir = os.path.join(build_root(), "reports")
    os.makedirs(rdir, exist_ok=True)
    path = os.path.join(rdir, f"{detail['workload']}-seed{detail['seed']}-"
                              f"trace{trace}-{time.time_ns()}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return path


def print_table(detail, metrics):
    info = detail["info"]
    print(f"{detail['workload']} seed={detail['seed']}: attempted "
          f"{detail['attempted']}, failed {detail['failed']} (failed_fraction "
          f"{info.get('failed_fraction', 0):.3g})")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    if "latency_samples" in info:
        # Reported, not gated: they follow the host's other tenants.
        print(f"  latency over {info['latency_samples']:.0f} requests "
              f"({info['latency_samples_beyond_p99']:.0f} beyond p99): "
              f"p5 {info['latency_p5_ms']:.4g} ms, "
              f"p50 {info['latency_p50_ms']:.4g} ms, "
              f"p99 {info['latency_p99_ms']:.4g} ms; plain rate "
              f"{info['plain_samples_per_s']:.6g} 1/s")


def run_workload(spec, binary, workload, seed, seconds, trace):
    """One run: checked metrics, report written, table printed."""
    detail = run_binary(binary, workload, seed, seconds, trace)
    metrics, problems = select(spec, detail, trace)
    if problems:
        raise RuntimeError(f"{workload}: " + "; ".join(problems))
    write_report(detail, seconds, trace)
    print_table(detail, metrics)
    return {"correct": bool(detail["complete"]) and detail["failed"] == 0,
            "attempted": detail["attempted"], "failed": detail["failed"],
            "metrics": metrics}


def self_test(spec, binary):
    """Tiny sizes: every metric present with its unit and direction, no
    failed operation, and fp_rate/detection_rate repeat for one seed."""
    errors = []
    for workload in WORKLOADS:
        rates = []
        for trace in (0, 1, 0):
            detail = run_binary(binary, workload, 3, 1, trace, tiny=True)
            tag = f"{workload} trace {trace}"
            _, problems = select(spec, detail, trace)
            errors += [f"{tag}: {p}" for p in problems]
            if detail["failed"] != 0 or detail["attempted"] < 1:
                errors.append(f"{tag}: failed_fraction "
                              f"{detail['info'].get('failed_fraction')}")
            if not detail["complete"]:
                errors.append(f"{tag}: incomplete run")
            if trace == 0:
                rates.append((detail["metrics"]["fp_rate"]["value"],
                              detail["metrics"]["detection_rate"]["value"]))
        if rates[0] != rates[1]:
            errors.append(f"{workload}: rates differ across runs {rates}")
        ok = not any(e.startswith(workload) for e in errors)
        print(f"self-test {workload}: {'ok' if ok else 'FAILED'}")
    for e in errors:
        log(f"self-test: {e}")
    print(json.dumps({"self_test": "failed" if errors else "passed",
                      "errors": len(errors)}))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload end to end (--trace 0)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.all or args.self_test):
        ap.error("one of --workload, --all or --self-test is required")
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        binary = build()
        if args.self_test:
            return self_test(spec, binary)
        if args.all:
            results = {w: run_workload(spec, binary, w, args.seed, seconds, 0)
                       for w in WORKLOADS}
            print(json.dumps(results))
            return 0
        print(json.dumps(run_workload(spec, binary, args.workload, args.seed,
                                      seconds, args.trace)))
        return 0
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
