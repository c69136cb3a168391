"""Per-layer tracing from outside the package.

The tracer rebinds every public function of the package's modules, in every
module namespace and module-level dict that holds it (so `from .binary_info
import h_b` in broadcast_region is wrapped too), and restores them on exit.
A non-leaf call becomes a span: name, start, end, parent and the exception
type it raised, if any. The scalar kernel leaves (h_b, h_b_inv, conv) run
about 1e5 times per region point, so they only add a count and a time to
their parent span; a leaf called inside another leaf is counted but not
timed, and its time stays with the outer leaf.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("binary_info", "_scalar_opt", "bounds_core", "broadcast_region",
          "oracles", "cli")
LEAVES = frozenset({"binary_info.h_b", "binary_info.h_b_inv", "binary_info.conv"})
# private functions traced because they are where a layer's work is counted
EXTRA = frozenset({"oracles._encoder_costs"})
# optimiser whose objective evaluations are counted
COUNT_EVALS = frozenset({"_scalar_opt.golden_min"})


class Trace:
    """Spans and leaf aggregates of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, raised type]
        self.leaf = {}  # (parent, name) -> [calls, seconds], calls not nested
        self.nested = {}  # name -> [calls made from inside another leaf]
        self.evals = {}  # optimiser name -> objective evaluations
        self.tables = 0  # costs returned by oracles._encoder_costs, one per table
        self.table_bytes = 0  # derived: int64 (codeword, output) entries for them
        self.points = 0  # d1 values handed to region_trace


class Tracer:
    """Context manager: `with Tracer(modules) as trace:` traces every call."""

    def __init__(self, modules: dict):
        self.modules = modules  # short layer name -> module, plus "" -> package
        self.trace = None
        self._undo = []

    def __enter__(self) -> Trace:
        self.trace = Trace()
        stack = [-1]
        in_leaf = [False]
        wrapped = {}
        for short in LAYERS:
            mod = self.modules[short]
            for name, obj in list(vars(mod).items()):
                full = "%s.%s" % (short, name)
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if name.startswith("_") and full not in EXTRA:
                    continue
                if full in LEAVES:
                    wrapped[obj] = self._leaf(full, obj, stack, in_leaf)
                else:
                    wrapped[obj] = self._span(full, obj, stack)
        for mod in self.modules.values():
            ns = vars(mod)
            for key, val in list(ns.items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._undo.append((ns, key, val))
                    setattr(mod, key, wrapped[val])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            self._undo.append((val, k, v))
                            val[k] = wrapped[v]
        return self.trace

    def __exit__(self, *exc):
        for container, key, val in reversed(self._undo):
            container[key] = val
        self._undo = []
        return False

    def _leaf(self, name, fn, stack, in_leaf):
        leaf = self.trace.leaf
        nested = self.trace.nested.setdefault(name, [0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if in_leaf[0]:
                nested[0] += 1
                return fn(*args, **kwargs)
            in_leaf[0] = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                in_leaf[0] = False
                rec = leaf.get((stack[-1], name))
                if rec is None:
                    leaf[(stack[-1], name)] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt

        return wrapper

    def _span(self, name, fn, stack):
        tr = self.trace
        spans = tr.spans
        clock = time.perf_counter
        if name in COUNT_EVALS:
            fn = self._counting(name, fn)
        post = self._post_hook(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, out)
            return out

        return wrapper

    def _counting(self, name, fn):
        evals = self.trace.evals
        evals[name] = 0

        def run(objective, *args, **kwargs):
            def counted(x):
                evals[name] += 1
                return objective(x)

            return fn(counted, *args, **kwargs)

        return run

    def _post_hook(self, name, fn):
        tr = self.trace
        if name == "broadcast_region.region_trace":
            def post(args, kwargs, out):
                tr.points += len(out)
            return post
        if name == "oracles._encoder_costs":
            sig = inspect.signature(fn)

            def post(args, kwargs, out):
                # counted from what the call returned: one cost per table
                tables = len(out[0])
                bound = sig.bind(*args, **kwargs).arguments
                tr.tables += tables
                tr.table_bytes += 8 * tables * (1 << bound["m"]) * (1 << bound["n"])
            return post
        return None


def self_times(trace: Trace) -> list[float]:
    """Self time of each span: its duration minus what child spans and the
    leaf calls made directly under it cover (calls nest, so children are
    disjoint and inside their parent)."""
    spans = trace.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (parent, _name), (_calls, secs) in trace.leaf.items():
        if parent >= 0:
            covered[parent] += secs
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def layer_metrics(trace: Trace) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name (no units)."""
    spans = trace.spans
    selfs = self_times(trace)
    calls = {}
    incl = {}
    self_by_fn = {}
    raised = {}
    for (name, start, end, _p, exc), st in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_by_fn[name] = self_by_fn.get(name, 0.0) + st
        if exc is not None:
            raised[(name, exc)] = raised.get((name, exc), 0) + 1
    leaf_outer = {}
    leaf_secs = {}
    for (_parent, name), (outer, secs) in trace.leaf.items():
        leaf_outer[name] = leaf_outer.get(name, 0) + outer
        leaf_secs[name] = leaf_secs.get(name, 0.0) + secs
    leaf_calls = {name: leaf_outer.get(name, 0) + cell[0]
                  for name, cell in trace.nested.items()}

    def layer_self(layer):
        total = sum(v for k, v in self_by_fn.items() if k.startswith(layer + "."))
        if layer == "binary_info":
            total += sum(leaf_secs.values())
        return total

    def per_call_us(name):
        n = leaf_outer.get(name, 0)
        return 1e6 * leaf_secs.get(name, 0.0) / n if n else 0.0

    def mean_ms(name):
        n = calls.get(name, 0)
        return 1e3 * incl[name] / n if n else 0.0

    slack = "broadcast_region.outer_bound_slack"
    golden = "_scalar_opt.golden_min"
    slack_calls = calls.get(slack, 0)
    golden_calls = calls.get(golden, 0)
    enc_secs = incl.get("oracles._encoder_costs", 0.0)
    return {
        "binary_info.h_b.calls": leaf_calls.get("binary_info.h_b", 0),
        "binary_info.h_b_inv.calls": leaf_calls.get("binary_info.h_b_inv", 0),
        "binary_info.conv.calls": leaf_calls.get("binary_info.conv", 0),
        "binary_info.h_b.us_per_call": per_call_us("binary_info.h_b"),
        "binary_info.h_b_inv.us_per_call": per_call_us("binary_info.h_b_inv"),
        "binary_info.self_s": layer_self("binary_info"),
        "scalar_opt.golden_min.calls": golden_calls,
        "scalar_opt.golden_min.evals_per_call":
            trace.evals.get(golden, 0) / golden_calls if golden_calls else 0.0,
        "scalar_opt.self_s": layer_self("_scalar_opt"),
        "broadcast_region.region_trace.points": trace.points,
        "broadcast_region.outer_bound_slack.calls": slack_calls,
        "broadcast_region.outer_bound_slack.calls_per_point":
            slack_calls / trace.points if trace.points else 0.0,
        "broadcast_region.outer_bound_slack.domain_error_frac":
            raised.get((slack, "DomainError"), 0) / slack_calls if slack_calls else 0.0,
        "broadcast_region.outer_bound_slack.self_s": self_by_fn.get(slack, 0.0),
        "broadcast_region.region_trace.self_s":
            self_by_fn.get("broadcast_region.region_trace", 0.0),
        "broadcast_region.self_s": layer_self("broadcast_region"),
        "bounds_core.gamma_corr.calls": calls.get("bounds_core.gamma_corr", 0),
        "bounds_core.self_s": layer_self("bounds_core"),
        "oracles.tables_scanned": trace.tables,
        "oracles.tables_per_s": trace.tables / enc_secs if enc_secs else 0.0,
        "oracles.encoder_bytes_computed": trace.table_bytes,
        "oracles.coupling_distance_exact.ms": mean_ms("oracles.coupling_distance_exact"),
        "oracles.verify_inequalities.ms": mean_ms("oracles.verify_inequalities"),
        "oracles.converse_search_gq.ms": mean_ms("oracles.converse_search_gq"),
        "oracles.self_s": layer_self("oracles"),
        "cli.main_ms": mean_ms("cli.main"),
        "cli.self_s": layer_self("cli"),
    }


def dump_spans(trace: Trace) -> dict:
    """JSON-ready copy of the spans (times in seconds from the first span)."""
    t0 = trace.spans[0][1] if trace.spans else 0.0
    names = sorted({s[0] for s in trace.spans} | {k[1] for k in trace.leaf})
    index = {n: i for i, n in enumerate(names)}
    return {
        "names": names,
        "spans": [[index[n], round(a - t0, 9), round(b - t0, 9), p, e]
                  for n, a, b, p, e in trace.spans],
        "leaves": [[p, index[n], c, round(s, 9)]
                   for (p, n), (c, s) in trace.leaf.items()],
        "nested_leaf_calls": {n: cell[0] for n, cell in trace.nested.items()},
        "span_columns": ["name", "start_s", "end_s", "parent", "raised"],
        "leaf_columns": ["parent", "name", "calls", "seconds"],
    }
