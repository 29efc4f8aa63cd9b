"""Run every listed workload over several seeds and print each end-to-end
metric with its median, quartiles and spread against the benchmark's bound.

    python3 perfbench/report.py --seeds 10

Runs two sets, A then B.  Each set runs every listed workload once per seed
(seeds 1..N) at the benchmark's run_seconds, one run after another, each in
its own process.  The spread is the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
Each metric's two medians are then compared.

Exits 1 if a run fails, reports incorrect results or misses a metric; if a
spread exceeds its metric's bound; or if the two sets' medians differ by
more than the bound.  The spread of setup_s is printed but not gated, as in
the benchmark's acceptance rule: set-up is five cold passes per run and
swings with the machine more than the timed loop does.  setup_s is gated by
the comparison of medians between sets instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The spread of these metrics is reported but not gated (see above).
SPREAD_EXEMPT = ("setup_s",)


def run_once(workload: str, seed: int, label: str) -> dict | None:
    """One --trace 0 run; None if it exits non-zero or prints no result."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{label}{workload} seed {seed}: exited {proc.returncode}: "
              f"{proc.stderr.strip()[-500:]}")
        return None
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def run_set(benchmark: dict, seeds: int, label: str) -> tuple[int, dict]:
    """Run one set; returns (status, {workload: {metric: median}})."""
    status = 0
    medians: dict[str, dict[str, float]] = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        values: dict[str, list] = {m["name"]: [] for m in benchmark["end_to_end"]}
        for seed in range(1, seeds + 1):
            outcome = run_once(workload, seed, label)
            if outcome is None:
                status = 1
                continue
            if not outcome["correct"]:
                print(f"{label}{workload} seed {seed}: incorrect results "
                      f"({outcome['failed']} of {outcome['attempted']} failed)")
                status = 1
            for name, metric in outcome["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{label}{workload} seed {seed}: " + ", ".join(
                f"{name}={_fmt(metric['value'])}"
                for name, metric in outcome["metrics"].items()), flush=True)
        medians[workload] = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            series = [v for v in values[name] if v is not None]
            missing = seeds - len(series)
            if missing or len(series) < 2:
                print(f"{label}{workload} {name}: missing in {missing} of {seeds} runs")
                status = 1
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            medians[workload][name] = med
            if name in SPREAD_EXEMPT:
                verdict = "not gated"
            elif spread <= metric["bound"] / 3:
                verdict = "ok"
            elif spread <= metric["bound"]:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                status = 1
            print(f"{label}{workload} {name} [{metric['unit']}]: median {med:.6g}, "
                  f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.4f}, "
                  f"bound {metric['bound']}: {verdict}", flush=True)
    return status, medians


def compare_sets(benchmark: dict, first: dict, second: dict) -> int:
    """Each metric's median in the second set against the first."""
    status = 0
    for workload in first:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a, b = first[workload].get(name), second[workload].get(name)
            if a is None or b is None:
                print(f"{workload} {name}: no median in one set")
                status = 1
                continue
            drift = abs(b - a) / a
            verdict = "ok" if drift <= metric["bound"] else "OVER BOUND"
            if drift > metric["bound"]:
                status = 1
            print(f"{workload} {name}: medians {a:.6g} then {b:.6g}, "
                  f"drift {drift:.4f}, bound {metric['bound']}: {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    status_a, first = run_set(benchmark, args.seeds, "set A: ")
    status_b, second = run_set(benchmark, args.seeds, "set B: ")
    return status_a | status_b | compare_sets(benchmark, first, second)


if __name__ == "__main__":
    raise SystemExit(main())
