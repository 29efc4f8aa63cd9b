"""gadet's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload query-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gadet is imported from ``src/``.
With ``--trace 0`` the run measures end-to-end metrics: set-up in fresh
processes, then a closed loop with one client for ``--seconds`` seconds of
timed operations.  With ``--trace 1`` it runs a fixed, seeded list of
operations twice, untraced and then traced, and reports per-layer metrics
from the spans, the tracing overhead, and whether both passes returned
identical results.  Every operation's result goes through a correctness gate
outside the timed interval and outside any span.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Workload definitions and the predictions per layer are in
``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up is measured this many times per run, in fresh processes (this
# process is the first), and reported as the median.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


def load_spec() -> dict:
    with open(os.path.join(HERE, "spec.json")) as f:
        return json.load(f)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _require_source() -> None:
    """Import gadet from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "gadet", "__init__.py")):
        print(f"error: no gadet sources under {os.path.relpath(SRC)}; run from "
              "the root of a gadet checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)


def cold_setup(name: str, trace: bool):
    """Import gadet and warm up every signature the workload uses.

    Returns (workload module, workload, tracer or None, import_s, warmup_s).
    """
    t0 = time.perf_counter()
    import gadet
    import gadet.cli  # noqa: F401  (the query front end)
    t1 = time.perf_counter()
    import workloads
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer(gadet)
        tracer.install()
        tracer.active = True
    workload = workloads.make(name)
    for item in workload.warmup_inputs():
        workload.run(item)
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    return workloads, workload, tracer, t1 - t0, t2 - t1


def _probe_setup(name: str) -> float:
    """Set-up time of one fresh process running the same warm-up."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"] + probe["warmup_s"]


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1]


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


class Tally:
    """Operation and method failures of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_layer = Counter()
        self.by_method_n = Counter()
        self.examples = []

    def add(self, failures) -> None:
        self.attempted += 1
        if not failures:
            return
        self.failed += 1
        for f in failures:
            self.by_layer[f.layer] += 1
            if f.method == "interp":
                self.by_layer["charpoly.interp"] += 1
            if f.raised_in == "algebra":
                self.by_layer["algebra"] += 1
            self.by_method_n[(f.method, f.n)] += 1
            if len(self.examples) < 5:
                self.examples.append(f"{f.method} n={f.n}: {f.reason}")

    def report(self) -> None:
        for (method, n), count in sorted(self.by_method_n.items()):
            print(f"failures: method {method} n={n}: {count}")
        for line in self.examples:
            print(f"failure example: {line}")


def measure(args, spec_entry) -> dict:
    """--trace 0: set-up samples, then the timed closed loop."""
    _, workload, _, import_s, warmup_s = cold_setup(args.workload, False)
    setups = [import_s + warmup_s]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(_probe_setup(args.workload))

    # Whole blocks only, so every run sees the same input mix; the run ends
    # with the block during which --seconds of timed work is reached.
    tally = Tally()
    latencies = []
    block_rates = []
    timed = 0.0
    rng = random.Random(args.seed)
    clock = time.perf_counter
    while timed < args.seconds:
        block = workload.block(rng)
        block_timed = 0.0
        for item in block:
            start = clock()
            result = workload.run(item)
            elapsed = clock() - start
            block_timed += elapsed
            failures = workload.check(item, result)
            tally.add(failures)
            # A failed operation misses every latency limit.
            latencies.append(float("inf") if failures else elapsed)
        timed += block_timed
        block_rates.append(len(block) / block_timed)

    latencies.sort()
    pct = spec_entry["tail_percentile"]
    beyond = tally.attempted - math.ceil(tally.attempted * pct / 100)
    print(f"workload {args.workload}: {tally.attempted} operations in "
          f"{len(block_rates)} blocks, {timed:.3f} s timed; tail percentile p{pct} with {beyond} "
          f"samples beyond it")
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"block rates (ops/s): {', '.join(f'{r:.4g}' for r in block_rates)}")
    tally.report()

    def ms(value):
        # A percentile that lands on failed operations has no finite value.
        return None if value == float("inf") else value * 1e3

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(block_rates), "ops/s"),
        "latency_ms_p50": (ms(percentile(latencies, 50)), "ms"),
        "latency_ms_tail": (ms(percentile(latencies, pct)), "ms"),
        "success_share": (1 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def _pass(workload, items, tracer=None):
    """Run every item once; returns (timed seconds, results)."""
    results = []
    timed = 0.0
    clock = time.perf_counter
    for op, item in enumerate(items):
        if tracer is not None:
            tracer.op = op
            tracer.active = True
        start = clock()
        result = workload.run(item)
        timed += clock() - start
        if tracer is not None:
            tracer.active = False
        results.append(result)
    return timed, results


def measure_traced(args, spec_entry) -> dict:
    """--trace 1: the same fixed list untraced, then traced."""
    workloads, workload, tracer, import_s, warmup_s = cold_setup(args.workload, True)
    items = workloads.first_blocks(workload, args.seed, spec_entry["trace_blocks"])
    count = len(items)

    plain_s, plain = _pass(workload, items)
    traced_s, traced = _pass(workload, items, tracer)
    tracer.uninstall()

    tally = Tally()
    for item, result in zip(items, traced):
        tally.add(workload.check(item, result))
    plain_digest = _digest([workloads.canonical(r) for r in plain])
    traced_digest = _digest([workloads.canonical(r) for r in traced])
    identical = plain_digest == traced_digest
    input_digest = _digest([workloads.canonical(i) for i in items])
    print(f"workload {args.workload}: {count} operations per pass; "
          f"{len(tracer.spans)} spans")
    print(f"inputs digest: {input_digest}")
    print(f"results digest untraced: {plain_digest}")
    print(f"results digest traced: {traced_digest}")
    tally.report()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.write(os.path.join(HERE, "out", f"trace-{args.workload}.jsonl"),
                 {"workload": args.workload, "seed": args.seed, "operations": count,
                  "span": ["op", "parent", "name", "start_ns", "end_ns"],
                  "failures": [[m, n, c] for (m, n), c in tally.by_method_n.items()]})

    totals = tracer.layer_totals()
    benchmark = load_benchmark()
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    values = {}
    for name in units:
        layer, _, stat = name.rpartition(".")
        if stat == "failures":
            values[name] = tally.by_layer[layer]
        elif layer in ("setup", "trace"):
            continue
        elif stat == "max_bits":
            values[name] = tracer.max_bits
        else:
            values[name] = totals.get(layer, {}).get(stat, 0)
    values["setup.import_s"] = import_s
    values["setup.warmup_s"] = warmup_s
    values["trace.overhead"] = 1 - plain_s / traced_s
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return {"correct": tally.failed == 0 and identical, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(spec['workloads'])}")
    _require_source()

    if args.setup_probe:
        _, _, _, import_s, warmup_s = cold_setup(args.workload, False)
        print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))
        return 0

    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    entry = spec["workloads"][args.workload]
    outcome = measure_traced(args, entry) if args.trace else measure(args, entry)
    metrics = outcome["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    outcome["metrics"] = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
