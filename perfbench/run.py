"""Benchmark of the imvc pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload toy-fit --seed 0 --seconds 30 --trace 0

Each invocation starts fresh worker processes with BLAS pinned to one
thread: SETUP_PROBES that only import ``imvc`` and build the data (their
median is ``setup_s``), then one that runs the workload. It prints every
metric with its unit, the operation counts and every correctness check,
and as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 7
DEADLINE_S = 170  # every worker of one invocation ends within this

# pinned here so that this process and every worker it starts inherit it
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"


def run_worker(args, deadline):
    """Run worker.py with ``args``; its stderr passes through, the parsed
    last line of its stdout is returned. A worker still running at
    ``deadline`` is killed."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    for need in ("BENCHMARK.json", "src/imvc/__init__.py", "data/toy/view0.csv"):
        if not (ROOT / need).is_file():
            print(f"{ROOT / need} is missing: run from the root of an imvc checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [run_worker([*common, "--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    out = run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                     deadline)

    metrics = out["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    names = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{out['attempted']} operations attempted, {out['failed']} failed; repeats "
          + ", ".join(f"{p} {n}" for p, n in out["repeats"].items()))
    for name, (ok, detail) in out["checks"].items():
        print(f"  check {name:18s} {'PASS' if ok else 'FAIL'}  {detail}")
    if args.trace:
        print(f"  traced names not found: {out['missing'] or 'none'}")
        print("  bindings wrapped: " + ", ".join(
            f"{k}x{v}" for k, v in out["bindings"].items() if v > 1))
        print(f"  spans written to {out['trace_file']}")
        print(f"  measured traced/untraced - 1: {out['measured_overhead']:+.3f} "
              "(a difference of few medians; unresolved below the host's timing noise)")
    for name, unit in names:
        print(f"  {name:38s} {metrics.get(name, 0.0):14.6g} {unit}")
    result = {
        "correct": all(ok for ok, _ in out["checks"].values()),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": metrics.get(n, 0), "unit": u} for n, u in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
