"""Span tracer for the benchmark's traced run.

`Tracer.install()` wraps every public function of the k3mod layer modules,
in its defining module and in every k3mod module that bound it by name
(`reflective` binds `disc_group`, `roots` binds `pairing_vector`, ...).
Calls made through a module-level table that captured the function before
the wrapping (`search._PREDICATE`, `qseries._REP_LATTICES`) are not seen;
their time counts as self time of the caller.

Spans live in memory as [name, start, end, parent, count] lists until the
run ends.  `count` is a result size recorded for the few functions whose
result is a count of work done (see `_COUNTS`).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("cli", "lattice", "roots", "e8", "search", "qseries", "reflective", "rst")

# result -> work count, for the functions whose result measures work done
_COUNTS = {
    "roots.enumerate_norm_vectors": lambda out: out,
    "roots.enumerate_up_to": lambda out: out,
    "search.structured_search": len,
    "reflective.reflk3_sample_check": lambda out: (out["samples"], out["reflective"]),
}


_S = "s"
LAYER_UNITS = {
    "search.exhaustive_search.self_s": _S, "search.exhaustive_search.vectors": "count",
    "e8.count_orth_roots_2x.calls": "count", "e8.count_orth_roots_2x.us_per_call": "us",
    "e8.count_orth_roots_2x.self_s": _S, "search.structured_search.self_s": _S,
    "search.structured_search.candidates": "count",
    "search.structured_search.hit_ratio": "ratio", "search.kodaira_verdict.self_s": _S,
    "qseries.rep_num.calls": "count", "qseries.rep_num.self_s": _S,
    "qseries.series_build.self_s": _S, "roots.enumerate.self_s": _S, "roots.vectors": "count",
    "roots.vectors_per_s": "1/s", "qseries.theta_brute.self_s": _S,
    "roots.enumerate_roots.calls": "count", "roots.enumerate_roots.miss_ratio": "ratio",
    "roots.count_orth_roots.us_per_call": "us", "lattice.smith_normal_form.calls": "count",
    "lattice.smith_normal_form.self_s": _S, "lattice.disc_group.self_s": _S,
    "lattice.orth_complement.self_s": _S, "lattice.parse_lattice_expr.self_s": _S,
    "reflective.reflection.self_s": _S, "reflective.orth_det_check.self_s": _S,
    "reflective.classify_reflection.self_s": _S, "reflective.samples": "count",
    "reflective.reflective_ratio": "ratio",
    **{f"{layer}.self_s": _S for layer in LAYERS[1:]},
    "setup.traced_s": _S, "setup.series_build.self_s": _S,
    "cli.import_ms": "ms", "cli.run.self_ms": "ms", "trace.traced_s": _S,
    "trace.untraced_s": _S, "trace.overhead_frac": "ratio", "trace.unattributed_s": _S,
}


class Tracer:
    """In-memory spans of wrapped k3mod calls; records only while `active`."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False

    def install(self):
        mods = [importlib.import_module(f"k3mod.{name}") for name in LAYERS]
        wrappers = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, val in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(val) or not callable(val):
                    continue
                fn = inspect.unwrap(val)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(val)] = self._wrap(f"{layer}.{attr}", val)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if count is not None:
                span[4] = count(out)
            return out

        return traced

    def open(self, name):
        """Start a benchmark-level span (an op or the set-up); returns its index."""
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                           None])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.stack.pop()
        self.spans[idx][2] = perf_counter()

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _c in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent, cnt in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, cnt]) + "\n")


_SERIES_BUILD = ("qseries.theta_e7", "qseries.theta_dn", "qseries.theta_e6",
                 "qseries.theta_d6_eis")


def layer_metrics(tracer):
    """Per-layer metrics from the spans under the timed ops ("bench.op"), plus
    the traced set-up ("bench.setup") as figures of their own."""
    spans = tracer.spans
    selfs = tracer.self_times()
    root = []
    for name, _a, _b, p, _c in spans:
        root.append(root[p] if p >= 0 else name)
    in_ops = [root[i] == "bench.op" and sp[0] != "bench.op" for i, sp in enumerate(spans)]
    calls, incl, selft = {}, {}, {}
    for (name, t0, t1, _p, _c), st, keep in zip(spans, selfs, in_ops):
        if keep:
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            selft[name] = selft.get(name, 0.0) + st
    # blank the spans outside the ops, keeping the indices that parents refer to
    spans = [sp if keep else [None, 0.0, 0.0, -1, None] for sp, keep in zip(spans, in_ops)]

    def n(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(selft.get(x, 0.0) for x in names)

    def per_call_us(name):
        return incl.get(name, 0.0) / n(name) * 1e6 if n(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    parent_name = {i: spans[p][0] for i, (_n, _a, _b, p, _c) in enumerate(spans) if p >= 0}
    orth2x = [i for i, sp in enumerate(spans) if sp[0] == "e8.count_orth_roots_2x"]
    exh_vectors = sum(1 for i in orth2x if parent_name.get(i) == "search.exhaustive_search")
    candidates = sum(1 for i in orth2x if parent_name.get(i) == "search.structured_search")
    hits = sum(sp[4] or 0 for sp in spans if sp[0] == "search.structured_search")
    enum_names = ("roots.enumerate_norm_vectors", "roots.enumerate_up_to")
    vectors = sum(sp[4] or 0 for sp in spans if sp[0] in enum_names)
    spawned = {p for nm, _a, _b, p, _c in spans
               if nm == "roots.enumerate_norm_vectors" and p >= 0
               and spans[p][0] == "roots.enumerate_roots"}
    sampled = [sp[4] for sp in spans
               if sp[0] == "reflective.reflk3_sample_check" and sp[4]]
    samples = sum(a for a, _b in sampled)
    reflective = sum(b for _a, b in sampled)
    enum_self = s(*enum_names)
    module_self = {layer: 0.0 for layer in LAYERS}
    for name, st in selft.items():
        layer = name.split(".", 1)[0]
        if layer in module_self:
            module_self[layer] += st

    out = {
        "search.exhaustive_search.self_s": s("search.exhaustive_search"),
        "search.exhaustive_search.vectors": exh_vectors,
        "e8.count_orth_roots_2x.calls": n("e8.count_orth_roots_2x"),
        "e8.count_orth_roots_2x.us_per_call": per_call_us("e8.count_orth_roots_2x"),
        "e8.count_orth_roots_2x.self_s": s("e8.count_orth_roots_2x"),
        "search.structured_search.self_s": s("search.structured_search"),
        "search.structured_search.candidates": candidates,
        "search.structured_search.hit_ratio": ratio(hits, candidates),
        "search.kodaira_verdict.self_s": s("search.kodaira_verdict"),
        "qseries.rep_num.calls": n("qseries.rep_num"),
        "qseries.rep_num.self_s": s("qseries.rep_num"),
        "qseries.series_build.self_s": s(*_SERIES_BUILD),
        "roots.enumerate.self_s": enum_self,
        "roots.vectors": vectors,
        "roots.vectors_per_s": ratio(vectors, enum_self),
        "qseries.theta_brute.self_s": s("qseries.theta_brute"),
        "roots.enumerate_roots.calls": n("roots.enumerate_roots"),
        "roots.enumerate_roots.miss_ratio": ratio(len(spawned), n("roots.enumerate_roots")),
        "roots.count_orth_roots.us_per_call": per_call_us("roots.count_orth_roots"),
        "lattice.smith_normal_form.calls": n("lattice.smith_normal_form"),
        "lattice.smith_normal_form.self_s": s("lattice.smith_normal_form"),
        "lattice.disc_group.self_s": s("lattice.disc_group"),
        "lattice.orth_complement.self_s": s("lattice.orth_complement"),
        "lattice.parse_lattice_expr.self_s": s("lattice.parse_lattice_expr"),
        "reflective.reflection.self_s": s("reflective.reflection"),
        "reflective.orth_det_check.self_s": s("reflective.orth_det_check"),
        "reflective.classify_reflection.self_s": s("reflective.classify_reflection"),
        "reflective.samples": samples,
        "reflective.reflective_ratio": ratio(reflective, samples),
    }
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = module_self[layer]
    setup = [i for i, r in enumerate(root) if r == "bench.setup"]
    out["setup.traced_s"] = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in setup
                                if tracer.spans[i][0] == "bench.setup")
    out["setup.series_build.self_s"] = sum(selfs[i] for i in setup
                                           if tracer.spans[i][0] in _SERIES_BUILD)
    return out


def cli_self_ms(tracer):
    """Self time of the cli layer (argument parsing and output), in ms."""
    return sum(st for sp, st in zip(tracer.spans, tracer.self_times())
               if sp[0].startswith("cli.")) * 1e3
