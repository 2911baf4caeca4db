#!/usr/bin/env python3
"""The ecthub benchmark.

Builds the library and the benchmark program from this checkout's sources
(into $CARGO_TARGET_DIR, default .bench_build), then runs workloads.

  One run (the BENCHMARK.json form; the last stdout line is the JSON result):
    python3 perfbench/run.py --workload sweep-rules --seed 1 --seconds 10 --trace 0

  Every BENCHMARK.json workload (or --workloads, which may also name the
  ungated metro-drl and train-ppo), several seeds, with medians, quartiles
  and spreads; saves a result set:
    python3 perfbench/run.py --all [--runs 10] [--seconds 20] [--trace 0]
                             [--workloads a,b] [--seed-base 1] [--out set.json]

  Compare two result sets against the bounds in BENCHMARK.json:
    python3 perfbench/run.py --compare base.json new.json

See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# Workloads ecthub_perfbench implements that BENCHMARK.json does not gate: their
# figures moved 25-60% between two 10-seed sets on the host the benchmark
# was defined on (see README.md).  They run by name, and their traced passes
# supply the nn, rl, sim and spatial per-layer metrics of every traced run.
UNGATED = ("metro-drl", "train-ppo")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configures and builds ecthub_perfbench (both no-ops when up to date); returns
    the binary path."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "ecthub_perfbench", "-j", jobs]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=max(1.0, deadline - time.monotonic()))
        if res.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out / "ecthub_perfbench"


def parse_result(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("ecthub_perfbench printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line: " + lines[-1])
    machine = next((l[len("machine: "):] for l in lines if l.startswith("machine: ")), "")
    return result, machine


def parse_derived(stdout):
    """The workload-named figures ("derived: <name> <value> <unit> ...")."""
    derived = {}
    for line in stdout.splitlines():
        if line.startswith("derived: "):
            name, value, unit = line.split()[1:4]
            derived[name] = {"value": float(value), "unit": unit}
    return derived


def run_once(binary, workload, seed, seconds, trace, extra=(), echo=True):
    """Runs one workload; returns (result dict, machine record, stdout)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-dir", str(traces)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(res.stdout)
        sys.stdout.flush()
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {res.returncode}")
    result, machine = parse_result(res.stdout)
    return result, machine, res.stdout


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def metric_table(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def summarize(spec, rs):
    """Prints median, quartiles and spread per workload x metric."""
    trace = rs["trace"]
    for workload, runs in rs["runs"].items():
        print(f"\n== {workload}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} failed of "
              f"{sum(r['attempted'] for r in runs)} checked operations")
        print(f"{'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}"
              + ("" if trace else f" {'bound':>6s}"))
        for m in metric_table(spec, trace):
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            line = (f"{m['name']:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                    f"{spread(vals):8.4f}")
            if not trace:
                flag = "" if m["name"] == "setup_s" or spread(vals) <= m["bound"] / 3 else \
                    ("  > bound/3" if spread(vals) <= m["bound"] else "  > BOUND")
                line += f" {m['bound']:6.2f}{flag}"
            print(f"{line} {m['unit']}")
        for name, first in runs[0].get("derived", {}).items():
            vals = [r["derived"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            print(f"  derived {name:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread(vals):8.4f} {first['unit']}")


def run_all(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = [w for w in wanted if w not in names + list(UNGATED)]
        if unknown:
            raise SystemExit(f"unknown workload(s): {', '.join(unknown)}")
        names = wanted
    binary = build()
    seconds = args.seconds or spec["run_seconds"]
    rs = {"seconds": seconds, "trace": args.trace, "machine": "", "runs": {}}
    for workload in names:
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            result, machine, stdout = run_once(binary, workload, seed, seconds, args.trace,
                                               echo=False)
            rs["machine"] = machine
            result["seed"] = seed
            result["derived"] = parse_derived(stdout)
            runs.append(result)
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace))
        rs["runs"][workload] = runs
    print(f"machine: {rs['machine']}")
    summarize(spec, rs)
    out = Path(args.out) if args.out else \
        build_dir() / "results" / f"set-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(rs, f, indent=1)
    print(f"\nresult set written to {out}")
    bad = sum(r["failed"] for runs in rs["runs"].values() for r in runs)
    return 1 if bad else 0


def compare(args):
    spec = load_spec()
    with open(args.compare[0]) as f:
        a = json.load(f)
    with open(args.compare[1]) as f:
        b = json.load(f)
    print(f"A: {args.compare[0]}\n   {a.get('machine', '')}")
    print(f"B: {args.compare[1]}\n   {b.get('machine', '')}")
    print(f"{'workload':12s} {'metric':18s} {'A median':>12s} {'A q1..q3':>25s} "
          f"{'B median':>12s} {'B q1..q3':>25s} {'change':>8s}  verdict")
    disagreements = 0
    for workload in sorted(set(a["runs"]) ^ set(b["runs"])):
        print(f"{workload:12s} (in one set only; not compared)")
    for workload in [w for w in a["runs"] if w in b["runs"]]:
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a["runs"][workload]]
            vb = [r["metrics"][m["name"]]["value"] for r in b["runs"][workload]]
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            worse = change > 0 if m["better"] == "lower" else change < 0
            if abs(change) <= m["bound"]:
                verdict = "agree"
            else:
                verdict = "B worse" if worse else "B better"
                disagreements += 1
            print(f"{workload:12s} {m['name']:18s} {qa[1]:12.6g} "
                  f"{qa[0]:12.6g}..{qa[2]:<12.6g} {qb[1]:12.6g} "
                  f"{qb[0]:12.6g}..{qb[2]:<12.6g} {change:+8.3f}  {verdict}"
                  f" (bound {m['bound']})")
    print(f"\n{disagreements} workload x metric pair(s) outside the bounds")
    return 1 if disagreements else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, help="T (default min(nproc, 4); > nproc is refused)")
    p.add_argument("--smoke", action="store_true", help="tiny shapes: checks the harness only")
    p.add_argument("--all", action="store_true")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--workloads")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()

    try:
        if args.compare:
            return compare(args)
        if args.all:
            return run_all(args)
        if not args.workload or args.seed is None or args.seconds is None:
            p.error("--workload, --seed and --seconds are required for one run")
        spec = load_spec()
        if args.workload not in [w["name"] for w in spec["workloads"]] + list(UNGATED):
            p.error(f"unknown workload {args.workload}")
        extra = []
        if args.threads:
            extra += ["--threads", str(args.threads)]
        if args.smoke:
            extra.append("--smoke")
        binary = build()
        result, machine, _ = run_once(binary, args.workload, args.seed, args.seconds,
                                      args.trace, extra)
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, machine=machine)
        out = build_dir() / "results"
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{args.workload}.seed{args.seed}.trace{args.trace}.json", "w") as f:
            json.dump(record, f, indent=1)
        return 0
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
