#!/usr/bin/env python3
"""Self-test of the perfbench benchmark (run from the root of a checkout).

    python3 perfbench/selftest.py

Checks, on small runs of every workload:
  * two runs with the same seed give identical qor_* metrics and identical
    per-job structure fingerprints, power and area;
  * hier-power at 1 thread and at nproc threads gives identical per-job
    results (the library's thread-count invariant, checked from outside);
  * a traced run reports every per-layer metric BENCHMARK.json names.
Exits non-zero on the first mismatch.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import build_root  # noqa: E402
SEED = 7
SMALL = {
    "hier-power": ["--designs", "test1,lat"],
    "flat-area": ["--designs", "test1,lat"],
    "serve-sweep": ["--designs", "test1"],
}


def run(workload, tag, extra, trace=0):
    out = build_root() / "run" / f"selftest-{workload}-{tag}.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--passes", "1", "--fingerprints", str(out)] + SMALL[workload] + extra
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"{workload} {tag}: exit {r.returncode}\n{r.stdout}{r.stderr}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} {tag}: run reported failures\n{r.stdout}")
    return result["metrics"], out.read_text()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in SMALL:
        m1, fp1 = run(workload, "a", [])
        m2, fp2 = run(workload, "b", [])
        qor = {k: (m1[k]["value"], m2[k]["value"]) for k in m1 if k.startswith("qor_")}
        if any(a != b for a, b in qor.values()):
            sys.exit(f"{workload}: qor differs between runs: {qor}")
        if fp1 != fp2 or not fp1:
            sys.exit(f"{workload}: per-job results differ between runs:\n{fp1}\n{fp2}")
        missing = [e["name"] for e in spec["end_to_end"] if e["name"] not in m1]
        if missing:
            sys.exit(f"{workload}: end-to-end metrics missing: {missing}")
        traced, _ = run(workload, "traced", [], trace=1)
        missing = [e["name"] for e in spec["per_layer"] if e["name"] not in traced]
        if missing:
            sys.exit(f"{workload}: per-layer metrics missing: {missing}")
        print(f"{workload}: repeatable ({len(fp1.splitlines())} jobs), "
              f"all metrics present")
    _, one = run("hier-power", "threads1", ["--threads", "1"])
    _, many = run("hier-power", "a", [])
    if one != many:
        sys.exit(f"hier-power: results differ between 1 and nproc threads:\n{one}\n{many}")
    print("hier-power: identical at 1 and nproc threads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
