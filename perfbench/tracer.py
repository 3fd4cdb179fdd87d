"""Span tracer that wraps the public functions of the ``imvc`` modules.

The tracer adds no code to the library: it replaces module and class
attributes with thin wrappers for the duration of a traced round and puts
the originals back afterwards. A function is wrapped under every name that
binds it in any loaded ``imvc`` module, so a call that goes through another
module's import (``trainer`` calls its own ``accuracy`` binding) is traced
too. Names that a refactor removed are skipped and listed in ``missing``.

Each wrapped call records a span: ``(id, parent, name, start, end, error)``
plus per-name counts. Spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
import threading
import time

# layer -> traced names, as ``module.function`` or ``module.Class.method``
LAYERS = {
    "data": ["data.load_dataset", "data.normalize", "data.generate_mask",
             "data.make_synthetic"],
    "nn": ["nn.Mlp.forward", "nn.Mlp.backward", "nn.Adam.step"],
    "scoring": ["scoring.pairwise_similarity", "scoring.view_correlation",
                "scoring.info_scores", "scoring.select_positions"],
    "model": ["model.encode_all", "model.impute_all", "model.aggregate_observed",
              "model.aggregate_with_imputations", "model.loss_and_grads",
              "model.responsibilities"],
    "trainer": ["trainer.pretrain", "trainer.calibrate_heads", "trainer.init_prior",
                "trainer.fit"],
    "metrics": ["metrics.accuracy", "metrics.nmi", "metrics.ari",
                "metrics.plugin_impute"],
}
TRACED = [name for names in LAYERS.values() for name in names]

# calls whose arguments are kept so their peak memory can be probed later
PROBED = ("scoring.info_scores", "model.impute_all", "metrics.plugin_impute")

_MARK = "__perfbench_span__"


def _selected_count(args, kwargs):
    """Selected positions of the first InfoTable-like argument."""
    for a in (*args, *kwargs.values()):
        sel = getattr(a, "selected", None)
        if sel is not None:
            return int(sel.sum())
    return 0


def _count(name, args, kwargs, result, counts):
    if name == "scoring.pairwise_similarity":
        counts["bytes"] = counts.get("bytes", 0) + int(result.nbytes)
    elif name == "scoring.info_scores":
        counts["positions"] = counts.get("positions", 0) + int(len(result.scores))
    elif name == "scoring.select_positions":
        counts["selected"] = counts.get("selected", 0) + int(result.selected.sum())
    elif name in ("model.impute_all", "metrics.plugin_impute"):
        key = "queries" if name == "model.impute_all" else "filled"
        counts[key] = counts.get(key, 0) + _selected_count(args, kwargs)


def _rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def probe_peak_mb(fn, args, kwargs):
    """Peak growth of resident memory, in MB, during one call of ``fn``.

    Free heap pages are handed back to the system first (glibc
    ``malloc_trim``) so that re-used heap shows as growth; a thread samples
    the resident size every millisecond. Agrees with ``tracemalloc`` peaks
    to within about 20 % on these workloads, at a fraction of its cost:
    under ``tracemalloc`` the per-position loop of ``info_scores`` runs
    20 times slower.
    """
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)
    base = _rss_bytes()
    peak = [base]
    stop = threading.Event()

    def sample():
        while not stop.is_set():
            peak[0] = max(peak[0], _rss_bytes())
            stop.wait(0.001)

    thread = threading.Thread(target=sample)
    thread.start()
    try:
        fn(*args, **kwargs)
    finally:
        stop.set()
        thread.join()
    return (max(peak[0], _rss_bytes()) - base) / 2**20


def span_cost_s(calls=10000, rounds=5):
    """Time that one span adds to a call, in seconds: the median over
    ``rounds`` of (``calls`` wrapped calls of a no-op minus as many plain
    calls) / ``calls``. Times the span count, it gives the tracing overhead
    of a repeat to well below the run-to-run noise of whole repeats."""
    def noop():
        return None

    wrapped = Tracer()._wrap("perfbench.noop", noop)
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    costs.sort()
    return costs[len(costs) // 2]


def imvc_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "imvc" or k.startswith("imvc."))]


def wrapped_names():
    """Every ``module.attr`` (or ``module.Class.attr``) holding a tracer wrapper."""
    found = []
    for mod in imvc_modules():
        for key, val in vars(mod).items():
            if getattr(val, _MARK, None):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{m}" for m, f in vars(val).items()
                          if getattr(f, _MARK, None)]
    return found


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, error)
        self.counts = {}  # name -> {count: value}
        self.last_args = {}  # probed name -> (original, args, kwargs)
        self.missing = []
        self.bindings = {}  # name -> number of attributes wrapped
        self._stack = []
        self._restore = []

    def _wrap(self, name, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, name, start, end, error)
            counts = tracer.counts.setdefault(name, {})
            _count(name, args, kwargs, result, counts)
            if name in PROBED:
                tracer.last_args[name] = (orig, args, kwargs)
            return result

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    def __enter__(self):
        self.missing, self.bindings = [], {}
        modules = imvc_modules()
        for name in TRACED:
            mod_name, *attr = name.split(".")
            owner = sys.modules.get(f"imvc.{mod_name}")
            if len(attr) == 2:  # a method: wrap it once on its class
                cls = getattr(owner, attr[0], None)
                orig = vars(cls).get(attr[1]) if isinstance(cls, type) else None
                if not callable(orig):
                    self.missing.append(name)
                    continue
                setattr(cls, attr[1], self._wrap(name, orig))
                self._restore.append((cls, attr[1], orig))
                self.bindings[name] = 1
                continue
            orig = getattr(owner, attr[0], None)
            if not callable(orig):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))
                        self.bindings[name] = self.bindings.get(name, 0) + 1
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        return False

    def mark(self):
        """Span index to pass to ``summary`` for the spans recorded after it."""
        return len(self.spans)

    def summary(self, since=0):
        """Per-name totals of the spans recorded since ``since``.

        Returns {name: {"s": self time, "calls": n, "failed": {error: n},
        "under": {parent name: (self time, calls)}}}; self time is the span's
        duration minus the durations of its direct children.
        """
        spans = self.spans[since:]
        child = {}
        for sid, parent, _, start, end, _ in spans:
            if parent >= since:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for sid, parent, name, start, end, error in spans:
            own = (end - start) - child.get(sid, 0.0)
            rec = out.setdefault(name, {"s": 0.0, "calls": 0, "failed": {}, "under": {}})
            rec["s"] += own
            rec["calls"] += 1
            if error:
                rec["failed"][error] = rec["failed"].get(error, 0) + 1
            pname = self.spans[parent][2] if parent >= 0 else None
            s, n = rec["under"].get(pname, (0.0, 0))
            rec["under"][pname] = (s + own, n + 1)
        return out

    def dump(self, path, meta):
        """Write every span, one JSON object per line, after a header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**meta, "missing": self.missing,
                                 "bindings": self.bindings}) + "\n")
            for sid, parent, name, start, end, error in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "error": error}) + "\n")
