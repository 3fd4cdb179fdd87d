"""One workload in a fresh process; started by run.py, not by hand.

    worker.py --workload NAME --seed N --seconds S --trace 0|1
    worker.py --workload NAME --setup-only

``--setup-only`` imports ``imvc``, builds the workload's data and prints
the elapsed time. Otherwise the worker runs each of the three operations
(score, plugin, fit) at least twice, then interleaves further repeats for
about ``--seconds``, checks every repeat, and prints a JSON summary as its
last line. With ``--trace 1`` untraced and traced repeats alternate; the
traced ones give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
PHASES = ("score", "plugin", "fit")


def import_imvc():
    sys.path.insert(0, str(ROOT / "src"))
    import imvc

    if not pathlib.Path(imvc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported imvc from {imvc.__file__}, not from the checkout")
    return imvc


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_op(phase, wl, ds, state):
    import workloads as W

    if phase == "score":
        state["corr"], state["table"] = W.score(wl, ds)
    elif phase == "plugin":
        state["filled"], state["imputed"] = W.plugin(wl, ds, state["table"])
    else:
        state["res"], state["fit_ds"] = W.fit(wl, ds, state["filled"])


def check_op(phase, wl, ds, state, first, rng, imvc):
    """Checks of one operation's output: {name: (ok, detail)}."""
    import numpy as np

    import checks as C

    k = wl.train["n_neighbors"]
    if phase == "score":
        found = {"scores": C.score_sample(ds, state["corr"], state["table"], rng, wl.sample),
                 "selection": C.selection(state["table"], wl.ratio)}
        same = np.array_equal(first["table"].scores, state["table"].scores) and \
            np.array_equal(first["table"].selected, state["table"].selected)
    elif phase == "plugin":
        found = {"plugin": C.plugin_fills(ds, state["table"], state["filled"],
                                          state["imputed"], k, rng, wl.sample)}
        same = all(np.array_equal(a, b) for a, b in
                   zip(first["filled"].views, state["filled"].views))
    else:
        res, labels = state["res"], state["fit_ds"].labels
        state["acc"] = imvc.metrics.accuracy(res.assignments, labels)
        state["nmi"] = imvc.metrics.nmi(res.assignments, labels)
        found = {"gamma": C.fit_gamma(res, state["fit_ds"], k, imvc.model.encode_all),
                 "fit_quality": C.fit_quality(res, labels, ds.K, state["acc"])}
        same = np.array_equal(first["res"].gamma, res.gamma)
    found[f"repeatable_{phase}"] = (same, "every repeat equal to the first")
    return found


def layer_row(summary, counts):
    """Per-layer values of one traced operation."""
    row = {}
    for name, rec in summary.items():
        row[f"{name}.s"] = rec["s"]
        row[f"{name}.calls"] = rec["calls"]
        row[f"{name}.failed"] = rec["failed"].get("NonFiniteLossError", 0)
        for key, val in counts.get(name, {}).items():
            row[f"{name}.{key}"] = val
    # the logged evaluations inside fit, not the benchmark's own scoring
    evals = [summary.get(f"metrics.{m}", {}).get("under", {}).get("trainer.fit", (0.0, 0))
             for m in ("accuracy", "nmi", "ari")]
    row["metrics.eval.s"] = sum(s for s, _ in evals)
    row["metrics.eval.calls"] = evals[0][1]
    row["trace.spans"] = sum(rec["calls"] for rec in summary.values())
    return row


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    imvc = import_imvc()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ds = wl.build(ROOT)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource

    import numpy as np

    import tracer as T

    tr = T.Tracer()
    state, first, checks = {}, {}, {}
    attempted = failed = 0
    times = {p: {False: [], True: []} for p in PHASES}
    rows = {p: [] for p in PHASES}  # per-layer values of each traced repeat
    data_row = {}
    if args.trace:  # the data layer runs at set-up; trace one more build
        with tr:
            wl.build(ROOT)
        data_row = layer_row(tr.summary(), tr.counts)

    # Every operation runs at least twice, so that each repeatable_* check
    # compares two independent outputs. After that the operation furthest
    # below its share of the time goes next (the workload's main operation
    # gets half), so that the repeats of every operation are spread over the
    # run. The run stops before a repeat expected to end more than half its
    # length past --seconds.
    min_n = 2
    share = {p: 2.0 if p == wl.main else 1.0 for p in PHASES}
    spent = dict.fromkeys(PHASES, 0.0)
    count = dict.fromkeys(PHASES, 0)
    start = time.perf_counter()
    while True:
        due = [p for p in PHASES if count[p] < min_n]
        phase = due[0] if due else min(PHASES, key=lambda p: spent[p] / share[p])
        expected = spent[phase] / max(count[phase], 1)
        if not due and time.perf_counter() - start + expected / 2 > args.seconds:
            break
        traced = bool(args.trace) and count[phase] % 2 == 1
        stray = T.wrapped_names()
        if stray:
            checks["no_stray_wrappers"] = (False, ", ".join(stray))
        mark = tr.mark()
        tr.counts = {}
        attempted += 1
        count[phase] += 1
        t = time.perf_counter()
        try:
            with tr if traced else contextlib.nullcontext():
                run_op(phase, wl, ds, state)
            times[phase][traced].append(time.perf_counter() - t)
            if traced:
                rows[phase].append(layer_row(tr.summary(mark), tr.counts))
            for key in ("table", "filled", "res"):
                if key in state:
                    first.setdefault(key, state[key])
            rng = np.random.default_rng([args.seed, attempted])
            for name, (ok, detail) in check_op(phase, wl, ds, state, first, rng,
                                               imvc).items():
                prev = checks.get(name, (True, ""))
                checks[name] = (prev[0] and bool(ok), detail if prev[0] else prev[1])
        except Exception:
            traceback.print_exc()
            failed += 1
        spent[phase] += time.perf_counter() - t
    checks.setdefault("no_stray_wrappers", (not T.wrapped_names(), "none left installed"))
    for p in PHASES:
        name = f"repeatable_{p}"
        if name in checks and count[p] < 2:
            checks[name] = (False, "only one repeat completed")
        elif checks.get(name, (False,))[0]:
            checks[name] = (True, f"{count[p]} repeats equal to the first")
    if "acc" not in state or any(not times[p][False] for p in PHASES):
        print("an operation never completed", file=sys.stderr)
        return 2

    out = {"attempted": attempted, "failed": failed, "checks": checks,
           "repeats": {p: len(times[p][False]) + len(times[p][True]) for p in PHASES}}
    if not args.trace:
        out["metrics"] = {
            "setup_s": setup_s,
            **{f"{p}_s": median(times[p][False]) for p in PHASES},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "acc": state["acc"], "nmi": state["nmi"],
        }
    else:
        metrics = dict(data_row)
        for p in PHASES:
            for key in {k for row in rows[p] for k in row}:
                metrics[key] = metrics.get(key, 0) + median(row.get(key, 0) for row in rows[p])
        for name, (orig, a, kw) in tr.last_args.items():
            metrics[f"{name}.peak_mb"] = T.probe_peak_mb(orig, a, kw)
        untraced = sum(median(times[p][False]) for p in PHASES)
        traced = sum(median(times[p][True]) for p in PHASES)
        spans = sum(median(row["trace.spans"] for row in rows[p]) for p in PHASES)
        span_s = T.span_cost_s()
        metrics.update({"trace.untraced_s": untraced, "trace.traced_s": traced,
                        "trace.spans": spans, "trace.span_us": span_s * 1e6,
                        "trace.overhead": spans * span_s / untraced})
        out["metrics"] = metrics
        out["measured_overhead"] = traced / untraced - 1.0
        out["missing"], out["bindings"] = tr.missing, tr.bindings
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tr.dump(path, {"workload": args.workload, "seed": args.seed})
        out["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
