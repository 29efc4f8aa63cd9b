"""Self-test of the benchmark itself (not of gadet).

    python3 perfbench/selftest.py

Checks that one seed gives identical inputs and another seed different ones;
that the correctness gate rejects a tampered result and blames the right
layer; and that two traced runs of each workload with one seed report
identical counters and identical results, traced and untraced.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

SEED = 3
# Count-valued per-layer metrics; times and the overhead vary run to run.
COUNT_SUFFIXES = (".calls", ".max_bits", ".failures")


def check_inputs(workloads, names) -> list[str]:
    problems = []
    for name in names:
        workload = workloads.make(name)
        first = [workloads.canonical(i) for i in workloads.first_blocks(workload, SEED, 2)]
        again = [workloads.canonical(i) for i in workloads.first_blocks(workload, SEED, 2)]
        other = [workloads.canonical(i) for i in workloads.first_blocks(workload, SEED + 1, 2)]
        if first != again:
            problems.append(f"{name}: seed {SEED} gave different inputs twice")
        if first == other:
            problems.append(f"{name}: seeds {SEED} and {SEED + 1} gave the same inputs")
    return problems


def check_gate(workloads) -> list[str]:
    """A wrong answer must fail the gate and be attributed to its layer."""
    problems = []
    query = workloads.QueryExact()
    for req in query.block(random.Random(SEED)):
        if req.op == "det_fl" and req.sig.n == 4 and req.kind == "dense-int":
            break
    result = query.run(req)
    if query.check(req, result):
        problems.append("query-exact: gate rejected a correct determinant")
    result[req.op] += 1
    failures = query.check(req, result)
    if [f.layer for f in failures] != ["charpoly"]:
        problems.append("query-exact: gate missed a wrong determinant")

    cross = workloads.make("crosscheck-exact")
    u = cross.block(random.Random(SEED))[0]
    result = cross.run(u)
    if cross.check(u, result):
        problems.append("crosscheck-exact: gate rejected agreeing methods")
    result["det"]["matrix"] += 1
    failures = cross.check(u, result)
    if [(f.method, f.layer) for f in failures] != [("matrix", "matrix_rep")]:
        problems.append("crosscheck-exact: gate missed a wrong matrix determinant")
    return problems


def traced_run(name: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(SEED), "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: traced run exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digests = dict(line.split(": ", 1) for line in lines if "digest" in line)
    return json.loads(lines[-1]), digests


def check_traced(names, listed) -> list[str]:
    problems = []
    for name in names:
        (first, first_digests), (second, second_digests) = (
            traced_run(name), traced_run(name))
        if name in listed and not first["correct"]:
            problems.append(f"{name}: traced run reports incorrect results")
        if first_digests["results digest untraced"] != first_digests["results digest traced"]:
            problems.append(f"{name}: traced and untraced results differ")
        if first_digests != second_digests:
            problems.append(f"{name}: two runs gave different inputs or results")
        counts = [
            {k: v["value"] for k, v in outcome["metrics"].items()
             if k.endswith(COUNT_SUFFIXES)} | {"failed": outcome["failed"]}
            for outcome in (first, second)
        ]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                    if counts[0][k] != counts[1][k]}
            problems.append(f"{name}: counters differ between runs: {diff}")
        print(f"{name}: {len(counts[0])} counters repeat exactly" if counts[0] == counts[1]
              else f"{name}: counters differ", flush=True)
    return problems


def main() -> int:
    import workloads

    names = list(run.load_spec()["workloads"])
    problems = check_inputs(workloads, names) + check_gate(workloads)
    listed = {w["name"] for w in run.load_benchmark()["workloads"]}
    problems += check_traced(names, listed)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
