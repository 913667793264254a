"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:  python3 perfbench/smoke.py

Checks that
- BENCHMARK.json names exactly the workloads in perfbench/workloads, with
  the same one-line why;
- run.py prints exactly the metric names and units BENCHMARK.json lists,
  untraced and traced, and reports correct outputs;
- the simulated metrics (every ratio and count except the trace overhead)
  and the report digests are identical across two runs of one seed;
- run.py fails, printing no result, in a directory that holds only
  BENCHMARK.json and the benchmark's own files.
Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
TIMEOUT_S = 300


def fail(msg):
    sys.exit(f"smoke: FAILED: {msg}")


def run(workload, trace, n_ops, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--n-ops", str(n_ops)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc


def result(workload, trace, n_ops):
    proc = run(workload, trace, n_ops)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n"
             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(out)}")
    if out["correct"] is not True or out["attempted"] < 1:
        fail(f"{workload} trace={trace}: {lines[-1]}")
    digests = [line for line in lines if line.startswith("report ")]
    return out["metrics"], digests


def simulated(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] in ("count", "ratio")
            and name != "trace.overhead_ratio"}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    files = {p.stem: json.loads(p.read_text())
             for p in (HERE / "workloads").glob("*.json")}
    if sorted(w["name"] for w in bench["workloads"]) != sorted(files):
        fail("BENCHMARK.json workloads differ from perfbench/workloads")
    for w in bench["workloads"]:
        if w["why"] != files[w["name"]]["why"]:
            fail(f"{w['name']}: why differs from its workload file")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[key]}
        for name, workload in sorted(files.items()):
            first, digests = result(name, trace, workload["smoke_n_ops"])
            got = {n: m["unit"] for n, m in first.items()}
            if got != expected:
                fail(f"{name} trace={trace}: metrics {got} != {expected}")
            second, digests_again = result(name, trace, workload["smoke_n_ops"])
            if simulated(first) != simulated(second):
                fail(f"{name} trace={trace}: simulated metrics differ")
            if digests != digests_again:
                fail(f"{name} trace={trace}: report digests differ")
            print(f"ok {name} trace={trace}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        name = sorted(files)[0]
        proc = run(name, 0, files[name]["smoke_n_ops"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("run.py succeeded without the wsmap sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory fails")


if __name__ == "__main__":
    main()
