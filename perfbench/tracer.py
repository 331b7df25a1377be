"""Outside-in tracing of the freeops layers.

Wrappers are installed from the benchmark's own code, on the attribute the
call site looks up (``cli`` imports ``freeness_scan`` and ``canonical_json``
by name, ``resourcegraph`` imports ``choi``), so the package itself is not
edited.  Coarse public calls become spans kept in memory (name, start, end,
parent, run id); hot kernels are aggregated as call counts and seconds to
keep the overhead small.  A wrapped name that no longer exists is recorded
as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name, counter on the result)
SPANS = (
    ("freeops.cli", "freeness_scan", "freerot.freeness_scan", lambda r: {"words": r.word_count}),
    ("freeops.cli", "canonical_json", "util.canonical_json", None),
    ("freeops.pcp", "solve_bounded", "pcp.solve_bounded", lambda r: {"nodes": r.nodes_expanded}),
    ("freeops.reduction", "compile_generators", "reduction.compile_generators", None),
    (
        "freeops.reduction",
        "membership_search",
        "reduction.membership_search",
        lambda r: {"nodes": r.nodes_expanded},
    ),
    ("freeops.reduction", "theory_diff", "reduction.theory_diff", lambda r: {"nodes": r.nodes_expanded}),
    ("freeops.resourcegraph", "choi", "reduction.choi", None),
    ("freeops.resourcegraph", "certify_cptp", "resourcegraph.certify_cptp", None),
    (
        "freeops.resourcegraph",
        "explore",
        "resourcegraph.explore",
        # Every channel application adds exactly one distinct (from, to,
        # label) edge, so the edge count is the number of applications.
        lambda g: {
            "states": len(g.nodes),
            "added": len(g.nodes) - len(g.seeds),
            "applications": len(g.edges),
        },
    ),
    ("freeops.resourcegraph", "reach", "resourcegraph.reach", None),
    ("freeops.resourcegraph", "quotient", "resourcegraph.quotient", lambda q: {"classes": q.size}),
    ("freeops.resourcegraph", "monotone_family", "resourcegraph.monotone_family", None),
    ("freeops.resourcegraph", "check_compatible", "resourcegraph.check_compatible", None),
    ("freeops.resourcegraph", "check_complete", "resourcegraph.check_complete", None),
)


def _matmul_mults(args):
    """Complex multiplies of an n*m by m*p product."""
    a, b = args
    return a.rows * a.cols * getattr(b, "cols", 0)


# (module, attribute path, kernel name, name of the extra counter, its function)
KERNELS = (
    ("freeops.exact", "ExactMatrix.__matmul__", "exact.matmul", "mults", _matmul_mults),
    ("freeops.exact", "ExactMatrix.is_psd", "exact.is_psd", None, None),
    ("freeops.exact", "ExactDensityMatrix.__init__", "exact.density_init", None, None),
    ("freeops.exact", "ExactMatrix.digest", "exact.digest", None, None),
    ("freeops.reduction", "phase_canonical", "reduction.phase_canonical", None, None),
    ("freeops.reduction", "ChannelElement.apply_to_matrix", "reduction.apply_to_matrix", None, None),
)


def _resolve(module_name, path):
    """(owner, attribute, original) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Spans and kernel aggregates of one traced pass, held in memory."""

    def __init__(self):
        self.spans = []  # dicts: id, name, start, end, parent, run, kernel_s, counts
        self.kernels = {}  # name -> {"calls", "s", "self_s", extra counter}
        self.absent = []
        self.run = None
        self._open = []  # ids of the open spans, innermost last
        self._nested = []  # per open kernel: seconds spent in nested kernels
        self._installed = []

    # -- spans ----------------------------------------------------------------

    def open(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run,
            "kernel_s": 0.0,
            "counts": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._open.pop()

    def _span_wrapper(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span["counts"] = counter(result)
            return result

        return wrapped

    # -- kernels --------------------------------------------------------------

    def _kernel_wrapper(self, name, fn, extra_name, extra):
        agg = self.kernels.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if extra_name:
            agg[extra_name] = 0
        nested = self._nested
        spans = self.spans
        open_ids = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            nested.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = nested.pop()
                agg["calls"] += 1
                agg["s"] += dt
                agg["self_s"] += dt - inner
                if extra is not None:
                    agg[extra_name] += extra(args)
                if nested:
                    nested[-1] += dt
                elif open_ids:
                    spans[open_ids[-1]]["kernel_s"] += dt

        return wrapped

    # -- installation ---------------------------------------------------------

    def install(self):
        for module, path, name, counter in SPANS:
            self._patch(module, path, name, lambda fn, n=name, c=counter: self._span_wrapper(n, fn, c))
        for module, path, name, extra_name, extra in KERNELS:
            self._patch(
                module,
                path,
                name,
                lambda fn, n=name, en=extra_name, e=extra: self._kernel_wrapper(n, fn, en, e),
            )
        return self

    def _patch(self, module, path, name, make):
        found = _resolve(module, path)
        if found is None:
            self.absent.append(name)
            return
        owner, attr, original = found
        setattr(owner, attr, make(original))
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def to_json(self):
        return {"spans": self.spans, "kernels": self.kernels, "absent": self.absent}


# --- analysis -------------------------------------------------------------------


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def self_time_ranking(trace):
    """(name, self seconds) summed per name, largest first.

    Kernel time is subtracted from the span it ran in as well, since kernels
    are child work aggregated rather than recorded call by call.
    """
    totals = {}
    own = self_times(trace["spans"])
    for s in trace["spans"]:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]] - s["kernel_s"]
    for name, agg in trace["kernels"].items():
        totals[name] = totals.get(name, 0.0) + agg["self_s"]
    return sorted(totals.items(), key=lambda kv: -kv[1])


def layer_value(trace, metric):
    """Value of a per-layer metric named <layer>.<call>.<field> from a trace.

    Fields: `s` (inclusive seconds), `calls`, `s_per_node`, `new_frac`, or a
    counter recorded at that call.  Names never seen read 0.
    """
    base, field = metric.rsplit(".", 1)
    if base in trace["kernels"]:
        agg = trace["kernels"][base]
        return agg.get(field, 0)
    spans = [s for s in trace["spans"] if s["name"] == base]

    def total(key):
        return sum(s["counts"].get(key, 0) for s in spans)

    seconds = sum(s["end"] - s["start"] for s in spans)
    if field == "s":
        return seconds
    if field == "calls":
        return len(spans)
    if field == "s_per_node":
        nodes = total("nodes")
        return seconds / nodes if nodes else 0.0
    if field == "new_frac":
        applications = total("applications")
        return total("added") / applications if applications else 0.0
    return total(field)
