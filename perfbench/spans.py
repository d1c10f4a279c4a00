"""In-memory span tracing from outside the program.

`instrument(tracer)` wraps the public functions of each hyquant module and
rebinds every name under which a module looks them up (for example
`graph.quantize_dequantize` as well as `quant.quantize_dequantize`, and the
`tensor` functions that `graph` reaches as `T.<name>`), then restores every
original on exit. Spans hold a name, a start and an end in nanoseconds and
the index of the enclosing span; they stay in memory until `save`.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import hyquant
from hyquant import bridge, calib, cli, graph, quant, tensor, zoo

# Modules searched for bindings of a wrapped function.
MODULES = (hyquant, tensor, quant, graph, bridge, calib, zoo, cli)


def _first(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _qdq_bytes(args, kwargs, out):
    return {"quant.quantize_dequantize.bytes":
            _first(args, kwargs, 0, "t").data.nbytes + out.data.nbytes}


def _matmul_flops(args, kwargs, out):
    k = _first(args, kwargs, 0, "a").data.shape[-1]
    return {"tensor.matmul.flops": 2 * out.data.size * k}


def _conv_flops(args, kwargs, out):
    _, cg, kh, kw = _first(args, kwargs, 1, "w").data.shape
    return {"tensor.conv2d.flops": 2 * out.data.size * cg * kh * kw}


def cache_bytes(cache) -> int:
    """Bytes of the distinct arrays a CalibCache holds (computed, not RSS)."""
    arrays = [cache.logits_fp, *cache.unit_outputs.values(),
              *cache.site_values.values(), *cache.unit_grads.values()]
    for ext in cache.unit_inputs.values():
        arrays.extend(ext.values())
    distinct = {id(a): a for a in arrays if a is not None}
    return sum(a.nbytes for a in distinct.values())


def _cache_bytes(args, kwargs, out):
    return {"calib.cache.bytes": cache_bytes(out)}


def _unit_counts(args, kwargs, out):
    return {"bridge.units": len(out),
            "bridge.bridge_units": sum(u.is_bridge for u in out)}


def _layer_kind(args, kwargs):
    return f"graph.run_layer.{_first(args, kwargs, 0, 'layer').kind}"


def _unit_label(args, kwargs):
    return f"calib.unit.{_first(args, kwargs, 1, 'unit').label}"


# (defining module, function name, span name or callable(args, kwargs),
#  counter callable(args, kwargs, result) or None). Every tensor op the
# executor calls is wrapped, reported or not, so that the self time of a
# layer span is its own Python glue.
TARGETS = (
    *((tensor, name, f"tensor.{name}", None) for name in (
        "add", "scale", "softmax", "layer_norm", "group_norm",
        "batch_norm_folded", "gelu", "silu", "relu", "reshape", "transpose",
        "mean", "backward", "load_tensor")),
    (tensor, "matmul", "tensor.matmul", _matmul_flops),
    (tensor, "conv2d", "tensor.conv2d", _conv_flops),
    (quant, "quantize_dequantize", "quant.quantize_dequantize", _qdq_bytes),
    (quant, "fit_minmax", "quant.fit_minmax", None),
    (quant, "params_for_scale", "quant.params_for_scale", None),
    (graph, "run_layer", _layer_kind, None),
    (graph, "forward_fp", "graph.forward_fp", None),
    (graph, "forward_quant", "graph.forward_quant", None),
    (graph, "load_manifest", "graph.load_manifest", None),
    (bridge, "units_for", "bridge.units_for", _unit_counts),
    (calib, "calibrate", "calib.calibrate", None),
    (calib, "pass1_cache_fp", "calib.pass1", None),
    (calib, "pass2_cache_gradients", "calib.pass2", _cache_bytes),
    (calib, "search_unit", _unit_label, None),
    (zoo, "build_fixture", "zoo.build_fixture", None),
    (cli, "evaluate_model", "cli.evaluate_model", None),
)


class Tracer:
    """Spans of one single-threaded run, kept in flat arrays.

    A span's slot is reserved when it opens, so a parent always has a lower
    index than its children.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counters: dict[str, int] = defaultdict(int)
        self._open = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, count=None):
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(self.start)
            self.name_id.append(self._name_id(label))
            self.parent.append(self._open[-1])
            self.start.append(0)
            self.end.append(0)
            self._open.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                self.start[idx] = t0
                self._open.pop()
            if count is not None:
                for key, value in count(args, kwargs, out).items():
                    self.counters[key] += value
            return out

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """(name ids, start ns, end ns, parent index) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int32))

    def save(self, path) -> None:
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start_ns=start, end_ns=end, parent=parent)


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every binding of each target to a traced wrapper; restore all.

    Yields the list of (module, attribute, original) that were rebound.
    """
    rebound = []
    try:
        for home, attr, name, count in TARGETS:
            original = getattr(home, attr)
            wrapper = tracer.wrap(original, name, count)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        rebound.append((module, key, original))
                        setattr(module, key, wrapper)
        yield rebound
    finally:
        for module, key, original in reversed(rebound):
            setattr(module, key, original)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Spans come from one thread, so the children of a span never overlap
    each other; the covered time is the sum of the children's durations,
    each clipped to the parent's interval.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.shape[0], dtype=np.int64)
    child = parent >= 0
    p = parent[child]
    overlap = (np.minimum(end[child], end[p])
               - np.maximum(start[child], start[p])).clip(min=0)
    np.add.at(covered, p, overlap)
    return (end - start) - covered


def children_within_parents(start, end, parent, selfs) -> bool:
    """True when, for every span, its children's self times sum to no more
    than its own duration."""
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    total = np.zeros(parent.shape[0], dtype=np.int64)
    np.add.at(total, parent[child], np.asarray(selfs)[child])
    return bool(np.all(total <= np.asarray(end) - np.asarray(start)))


def roots(parent) -> np.ndarray:
    """Index of each span's outermost enclosing span (itself if none)."""
    parent = np.asarray(parent, dtype=np.int64)
    root = np.where(parent >= 0, parent, np.arange(parent.shape[0]))
    while True:
        up = root[root]
        if np.array_equal(up, root):
            return root
        root = up


def summarize(tracer: Tracer, under: str | None = None) -> dict[str, dict]:
    """Per span name: call count, inclusive and self seconds, durations.

    With `under`, only spans inside an outermost span of that name count.
    """
    name_id, start, end, parent = tracer.arrays()
    dur = end - start
    selfs = self_times(start, end, parent)
    keep = np.ones(dur.shape[0], dtype=bool)
    if under is not None:
        keep = name_id[roots(parent)] == tracer.names.index(under)
    out = {}
    for nid, name in enumerate(tracer.names):
        mask = (name_id == nid) & keep
        if not mask.any():
            continue
        out[name] = {"calls": int(mask.sum()),
                     "s": float(dur[mask].sum()) / 1e9,
                     "self_s": float(selfs[mask].sum()) / 1e9,
                     "durations_ns": dur[mask]}
    return out
