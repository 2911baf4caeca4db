#!/usr/bin/env python3
"""Tiny-shape smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of ecthub_perfbench (the two BENCHMARK.json gates and the
ungated metro-drl and train-ppo) through perfbench/run.py with --smoke
(8 hubs x 2 days, 2 PPO lanes, a slowed serve ladder), once untraced and
once traced, and asserts that:
  * the last stdout line is the result object, with exactly the metrics
    BENCHMARK.json lists for that mode, each with its listed unit, and each
    also printed as a "metric: <name> <value> <unit>" line;
  * the workload-named figures (hub_days_per_s, train_transitions_per_s,
    serve_p50_us, serve_p99_us, serve_max_rps) and failed_frac are printed
    with their units, and failed_frac is 0;
  * the run is correct with no failed operation;
  * every traced run's serial replays reproduced the engine's results
    ("replay: n/n ... == engine" for the sweep-rules and metro-drl passes).
Exits 1 on the first failed assertion.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

DERIVED = {
    "sweep-rules": {"hub_days_per_s": "hub-days/s"},
    "metro-drl": {"hub_days_per_s": "hub-days/s"},
    "train-ppo": {"train_transitions_per_s": "transitions/s"},
    "serve-open": {"serve_p50_us": "us", "serve_p99_us": "us", "serve_max_rps": "req/s"},
}


def check(cond, what):
    if not cond:
        print(f"SMOKE FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    check(res.returncode == 0, f"{' '.join(cmd)} exited {res.returncode}")
    return res.stdout.splitlines()


def main():
    # Every workload ecthub_perfbench implements, gated in BENCHMARK.json or not.
    for name in DERIVED:
        for trace in (0, 1):
            lines = run(name, trace)
            where = f"{name} --trace {trace}"
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{where}: correct={result['correct']} failed={result['failed']}")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            check(list(result["metrics"]) == [m["name"] for m in wanted],
                  f"{where}: metrics {list(result['metrics'])}")
            printed = {}
            for line in lines:
                m = re.match(r"(metric|derived): (\S+) (\S+) (\S+)", line)
                if m:
                    printed[m.group(2)] = (float(m.group(3)), m.group(4))
            for m in wanted:
                got = result["metrics"][m["name"]]
                check(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}")
                check(printed.get(m["name"], (None, None))[1] == m["unit"],
                      f"{where}: {m['name']} not printed with its unit")
            check(printed.get("failed_frac") == (0.0, "ratio"), f"{where}: failed_frac")
            if not trace:
                for metric, unit in DERIVED[name].items():
                    check(printed.get(metric, (None, None))[1] == unit,
                          f"{where}: {metric} not printed with unit {unit}")
            else:
                replays = [re.search(r"replay: (\d+)/(\d+) .*== engine", l) for l in lines]
                replays = [m for m in replays if m]
                check(len(replays) == 2, f"{where}: expected the sweep and metro replay notes")
                for m in replays:
                    check(m.group(1) == m.group(2) and int(m.group(2)) > 0,
                          f"{where}: replay reproduced only {m.group(1)}/{m.group(2)}")
            print(f"ok  {where}")
    print("perfbench smoke: all workloads ok")


if __name__ == "__main__":
    main()
