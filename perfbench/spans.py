"""Span recorder for the traced run.

``Tracer`` wraps the public functions of each ospkit layer at every name
the package calls them through (a module attribute, a name bound by
``from .kalman import g_step``, the ``SystemModel.discretize`` method, and
``scipy.linalg.expm`` as ``dynamics`` calls it), records one span per
call in memory, and restores the original functions on exit.
``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter

import numpy as np
import scipy.linalg

# layer -> (module, traced functions).  The model layer's function is the
# SystemModel.discretize method.
TRACED = {
    "sim": ("ospkit.sim", ("run_simulation", "step_true_state", "sample_airtimes")),
    "scheduler": ("ospkit.scheduler", ("bnb_search", "greedy_search")),
    "kalman": ("ospkit.kalman", (
        "g_step", "predict_cov", "scalar_update_cov", "boundary_predict",
        "sequence_mse", "propagate_estimate", "update_estimate", "cycle_candidates",
    )),
    "model": ("ospkit.model", ("discretize",)),
    "dynamics": ("ospkit.dynamics", ("phi", "noise_cov")),
    "config": ("ospkit.config", ("preset_config", "load_config", "write_csv")),
}
EXPM = "dynamics.expm"
SEARCHES = ("scheduler.bnb_search", "scheduler.greedy_search")

# Van Loan substep cap of dynamics.noise_cov, in units of 1 / ||A||_inf.
NOISE_COV_SUBSTEP_SCALE = 2.0

SPAN_NAMES = tuple(
    f"{layer}.{fn}" for layer, (_, fns) in TRACED.items() for fn in fns
) + (EXPM,)


def _search_extra(args, result):
    return (args["ctx"], result.nodes_visited)


def _noise_cov_extra(args, result):
    return (args["A"], args["s"], args["t"])


# Values kept per span, for counts that need the call's arguments or result.
_EXTRA = {
    "scheduler.bnb_search": _search_extra,
    "scheduler.greedy_search": _search_extra,
    "dynamics.noise_cov": _noise_cov_extra,
}


class Tracer:
    """Context manager recording spans ``[name, start_ns, end_ns, parent,
    run_id, extra]``.  ``parent`` is the index of the enclosing span or -1;
    ``run_id`` numbers the top-level calls, and a span shares it with the
    top-level call it runs under."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for name, owner, attr in self._targets():
                orig = getattr(owner, attr)
                wrapper = self._wrap(name, orig)
                for site_owner, site_attr in _binding_sites(owner, attr, orig):
                    self._patched.append((site_owner, site_attr, orig))
                    setattr(site_owner, site_attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _targets(self):
        for layer, (modname, fns) in TRACED.items():
            module = importlib.import_module(modname)
            owner = module.SystemModel if layer == "model" else module
            for fn in fns:
                if hasattr(owner, fn):
                    yield f"{layer}.{fn}", owner, fn
                else:
                    self.missing.append(f"{layer}.{fn}")
        yield EXPM, scipy.linalg, "expm"

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        extra = _EXTRA.get(name)
        signature = inspect.signature(fn) if extra is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self.run_id += 1
            span = [name, 0, 0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as gzipped CSV."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,run_id\n")
            for name, start, end, parent, run_id, _ in self.spans:
                fh.write(f"{name},{start},{end},{parent},{run_id}\n")


def _binding_sites(owner, attr: str, orig):
    """(owner, attr) plus every ospkit module attribute bound to ``orig``."""
    sites = [(owner, attr)]
    for modname, module in list(sys.modules.items()):
        if module is owner or not (modname == "ospkit" or modname.startswith("ospkit.")):
            continue
        for name, value in list(vars(module).items()):
            if value is orig:
                sites.append((module, name))
    return sites


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _substeps(A, s: float, t: float, norms: dict) -> int:
    if not t > s:
        return 0
    norm = norms.get(id(A))
    if norm is None:
        norm = norms[id(A)] = float(np.linalg.norm(np.asarray(A, dtype=float), np.inf))
    return max(1, math.ceil((t - s) * norm / NOISE_COV_SUBSTEP_SCALE))


def layer_metrics(spans, is_loose) -> dict[str, float]:
    """Per-layer metrics from the spans.

    ``is_loose(ctx)`` tells whether every subset of a search instance is
    feasible; it splits the node count into loose and tight instances.
    """
    n = len(spans)
    child_ns = [0] * n
    children = [0] * n
    under_search = [False] * n
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            children[parent] += 1
            under_search[i] = under_search[parent] or spans[parent][0] in SEARCHES

    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for i, (name, start, end, *_) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9

    nodes = {"loose": 0, "tight": 0}
    search_ms = []
    for name, start, end, _, _, extra in spans:
        if name in SEARCHES:
            ctx, visited = extra
            nodes["loose" if is_loose(ctx) else "tight"] += visited
            search_ms.append((end - start) / 1e6)
    total_nodes = nodes["loose"] + nodes["tight"]
    evals = sum(
        1 for i, s in enumerate(spans) if s[0] == "kalman.g_step" and under_search[i]
    )
    out["scheduler.nodes"] = total_nodes
    out["scheduler.nodes.loose"] = nodes["loose"]
    out["scheduler.nodes.tight"] = nodes["tight"]
    out["scheduler.evals"] = evals
    out["scheduler.eval_ratio"] = evals / total_nodes if total_nodes else 0.0
    out["scheduler.us_per_node"] = (
        sum(search_ms) * 1e3 / total_nodes if total_nodes else 0.0
    )
    out["scheduler.call_ms_p50"] = percentile(search_ms, 50)
    out["scheduler.call_ms_p95"] = percentile(search_ms, 95)

    misses = sum(
        1 for i, s in enumerate(spans) if s[0] == "model.discretize" and children[i]
    )
    out["model.discretize.misses"] = misses
    hits = calls["model.discretize"] - misses
    out["model.discretize.hit_ratio"] = (
        hits / calls["model.discretize"] if calls["model.discretize"] else 0.0
    )
    norms: dict = {}
    out["dynamics.noise_cov.substeps"] = sum(
        _substeps(*s[5], norms) for s in spans if s[0] == "dynamics.noise_cov"
    )
    return out
