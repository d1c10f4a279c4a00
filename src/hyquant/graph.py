"""Typed layer IR and executor for hybrid conv+attention models.

A Graph is an ordered DAG of LayerSpec entries (ids topologically ordered,
single output). Every layer kind is a step list, compiled once into a Plan
and run by one loop (Plan.run) for the full-precision and fake-quant
forwards, on Tensors, and for the search, on arrays with the same bits: a
site absent from the qconfig runs in full precision, so an empty qconfig is
bitwise forward_fp. Sites are a layer's weights and input activations, plus the operands of attention's
two matrix products; softmax/norm inputs are sites only in "full" mode.
"""

from __future__ import annotations

import errno
import functools
import json
import math
import os
import reprlib
from collections import ChainMap
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import tensor as T
from .quant import quantize_dequantize
from .tensor import Tape, Tensor

ACTIVATION_FNS = ("gelu", "silu", "relu")

MANIFEST_FORMAT = "hyquant-manifest/1"

GRAPH_INPUT = -1


class GraphError(ValueError):
    """Invalid graph structure or manifest."""


class GraphExecutionError(GraphError):
    """Forward failure; the message names the offending layer."""


class SiteCoverageError(GraphError):
    """qconfig does not line up with the graph's declared quant sites."""


@dataclass(frozen=True)
class Site:
    """One quantizable tensor inside a layer."""

    layer: int
    name: str
    kind: str  # "weight" | "activation"
    channel_axis: int
    allow_per_channel: bool = True

    @property
    def key(self) -> tuple[int, str]:
        return (self.layer, self.name)


@dataclass
class LayerSpec:
    """One layer: kind tag, kind-specific attrs, producer ids, weight tensors."""

    id: int
    kind: str
    attrs: dict = field(default_factory=dict)
    inputs: list[int] = field(default_factory=list)
    weights: dict[str, Tensor] = field(default_factory=dict)

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        """Its kind's steps (LAYER_STEPS) with every value named by key: the
        inputs x and y are (producer id, "out"), any other name and each site
        are (layer id, name)."""
        ext = dict(zip(("x", "y"), ((pid, "out") for pid in self.inputs)))

        def key(name):
            return ext.get(name, (self.id, name))
        return tuple(s._replace(out=key(s.out), ins=tuple(map(key, s.ins)),
                                site=s.site and (self.id, s.site))
                     for s in LAYER_STEPS[self.kind])

    @cached_property
    def plan(self) -> Plan:
        """Its steps compiled once (Plan), with no values: a forward reads
        its weights anew at each run, as they may be replaced."""
        return Plan(self.steps, (self.id, "out"))

    @property
    def values(self) -> dict:
        """Its weights and attrs under the keys its steps read them by."""
        return {**{(self.id, n): w for n, w in self.weights.items()},
                (self.id, "attrs"): self.attrs}


@dataclass
class Graph:
    """Ordered layer list plus input shape, output id and quantization mode."""

    layers: list[LayerSpec]
    input_shape: tuple[int, ...]
    output_id: int | None = None
    mode: str = "partial"
    bridge_annotations: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise GraphError("graph needs at least one layer")
        if self.mode not in ("partial", "full"):
            raise GraphError(f"unknown quantization mode '{self.mode}'")
        self._by_id: dict[int, LayerSpec] = {}
        for layer in self.layers:
            if layer.kind not in LAYER_KINDS:
                raise GraphError(f"unknown layer kind '{layer.kind}' at layer "
                                 f"{layer.id}; known: {', '.join(LAYER_KINDS)}")
            if layer.id < 0:
                raise GraphError(f"layer id {layer.id} is negative; "
                                 f"{GRAPH_INPUT} names the graph input")
            if layer.id in self._by_id:
                raise GraphError(f"duplicate layer id {layer.id}")
            for pid in layer.inputs:
                if pid != GRAPH_INPUT and pid not in self._by_id:
                    raise GraphError(
                        f"layer {layer.id} consumes {pid} before it is produced")
            self._by_id[layer.id] = layer
            _validate_layer(layer)
        if self.output_id is None:
            self.output_id = self.layers[-1].id
        if self.output_id not in self._by_id:
            raise GraphError(f"output layer {self.output_id} does not exist")
        self.input_shape = tuple(int(d) for d in self.input_shape)

    def layer(self, layer_id: int) -> LayerSpec:
        try:
            return self._by_id[layer_id]
        except KeyError:
            raise GraphError(f"no layer with id {layer_id}") from None

    @cached_property
    def consumers(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {layer.id: [] for layer in self.layers}
        for layer in self.layers:
            for pid in layer.inputs:
                if pid != GRAPH_INPUT:
                    out[pid].append(layer.id)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def quant_sites(self) -> tuple[Site, ...]:
        sites: list[Site] = []
        for layer in self.layers:
            sites.extend(sites_for_layer(layer, self.mode))
        return tuple(sites)

    @cached_property
    def sites_by_layer(self) -> dict[int, tuple[Site, ...]]:
        out: dict[int, list[Site]] = {layer.id: [] for layer in self.layers}
        for s in self.quant_sites:
            out[s.layer].append(s)
        return {k: tuple(v) for k, v in out.items()}


def read_fields(doc, schema: dict, error: type, where: str, noun="field") -> dict:
    """doc's fields read against schema, {name: (check, what a valid value
    is[, default])}, defaults filled in; error names where and the field,
    the first one outside schema included, so that no misspelled name is
    dropped unread."""
    if not isinstance(doc, dict):
        raise error(f"{where} is not an object: {reprlib.repr(doc)}")
    for name in doc:
        if name not in schema:
            raise error(f"{where}: unknown {noun} {reprlib.repr(name)}")
    out = {}
    for name, entry in schema.items():
        if name in doc:
            value = out[name] = doc[name]
            if not entry[0](value):
                raise error(f"{where}: {noun} '{name}' has the wrong type or "
                            f"value {reprlib.repr(value)}, expected {entry[1]}")
        elif len(entry) > 2:
            out[name] = entry[2]
        else:
            raise error(f"{where}: missing {noun} '{name}'")
    return out


def read_json(path: str, error: type):
    """The JSON document in the file at path; error names the file."""
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (ValueError, RecursionError) as e:  # bad syntax or text; deep nesting
        raise error(f"{path}: not valid JSON: {e}") from None


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(ok(i) for i in v)


def _int_or_pair(ok):
    return lambda v: ok(v) or (isinstance(v, (list, tuple)) and len(v) == 2
                               and all(ok(i) for i in v))


def _one_of(*values):
    return lambda v: v in values, " or ".join(map(repr, values))


_POSITIVE = (lambda v: _is_int(v) and v > 0, "a positive integer")
_INT = (_is_int, "an integer")
_STRIDE = (_int_or_pair(_POSITIVE[0]), "a positive integer or a pair of them", 1)
_PADDING = (_int_or_pair(lambda v: _is_int(v) and v >= 0),
            "a non-negative integer or a pair of them", 0)
_EPS = (lambda v: (_is_int(v) or isinstance(v, (float, np.floating))) and v >= 0,
        "a non-negative number", 1e-5)

# by layer kind, the attributes its steps read: name -> (check, what a valid
# value is[, default]); a None default marks one that only some uses need
_LAYER_ATTRS = {
    "conv2d": {"stride": _STRIDE, "padding": _PADDING, "groups": (*_POSITIVE, 1)},
    "depthwise_conv2d": {"stride": _STRIDE, "padding": _PADDING},
    "mhsa": {"heads": _POSITIVE},
    "softmax": {"axis": (*_INT, -1)},
    "layer_norm": {"eps": _EPS},
    "group_norm": {"groups": _POSITIVE, "eps": _EPS, "channel_axis": (*_INT, 1)},
    "batch_norm": {"channel_axis": (*_INT, 1)},
    "activation": {"fn": _one_of(*ACTIVATION_FNS)},
    "reshape": {"op": _one_of("nchw_to_tokens", "tokens_to_nchw", "flatten"),
                "h": (*_POSITIVE, None), "w": (*_POSITIVE, None)},
    "pool": {"op": _one_of("mean_tokens", "global_avg")},
    "matmul": {"transpose_b": (lambda v: isinstance(v, bool), "a boolean", False)},
}


def _validate_layer(layer: LayerSpec) -> None:
    """Check the layer and set its attrs to those its steps read, defaults
    filled in and None left out, so that a second check changes nothing."""
    k, w, where = layer.kind, layer.weights, f"layer {layer.id}"
    a = layer.attrs = {name: v for name, v in read_fields(
        layer.attrs, _LAYER_ATTRS.get(k, {}), GraphError, where,
        "attribute").items() if v is not None}
    if a.get("op") == "tokens_to_nchw":  # the one op that reads h and w
        read_fields({n: a[n] for n in ("h", "w") if n in a},
                    {"h": _POSITIVE, "w": _POSITIVE}, GraphError,
                    f"{where} (tokens_to_nchw)", "attribute")
    arity = 2 if k in ("add", "matmul") else 1
    if len(layer.inputs) != arity:
        raise GraphError(f"layer {layer.id}: {k} needs exactly {arity} input(s)")
    if k in ("conv2d", "depthwise_conv2d"):
        if "w" not in w or w["w"].ndim != 4:
            raise GraphError(f"layer {layer.id}: conv weight must be 4-D")
        if k == "depthwise_conv2d" and w["w"].shape[1] != 1:
            raise GraphError(
                f"layer {layer.id}: depthwise kernel must have one input "
                f"channel per group, got {w['w'].shape}")
    elif k == "linear":
        if "w" not in w or w["w"].ndim != 2:
            raise GraphError(f"layer {layer.id}: linear weight must be 2-D (out, in)")
    elif k == "mhsa":
        embed = w["w_q"].shape[0] if "w_q" in w and w["w_q"].ndim == 2 else -1
        for name in ("w_q", "w_k", "w_v", "w_o"):
            if name not in w or w[name].shape != (embed, embed):
                got = w[name].shape if name in w else "missing"
                raise GraphError(
                    f"layer {layer.id}: mhsa projection '{name}' must be a 2-D "
                    f"(E, E) matrix with E the embedding dim, got {got}")
        if embed % a["heads"] != 0:
            raise GraphError(f"layer {layer.id}: embedding dim {embed} not "
                             f"divisible by heads {a['heads']}")
    elif k in ("layer_norm", "group_norm", "batch_norm"):
        need = ("scale", "shift") if k == "batch_norm" else ("gamma", "beta")
        if not all(name in w for name in need):
            raise GraphError(f"layer {layer.id}: {k} needs weights {need}")


def sites_for_layer(layer: LayerSpec, mode: str) -> list[Site]:
    """The layer's quant sites as its kind's steps declare them, in step
    order; sites of "full" mode only come last and only in that mode. A
    channel_axis attr, on the kinds that take one, overrides the step's."""
    axis = layer.attrs.get("channel_axis")
    steps = sorted((s for s in LAYER_STEPS[layer.kind] if s.site
                    and (mode == "full" or not s.full_only)),
                   key=lambda s: s.full_only)
    return [Site(layer.id, s.site, s.kind, s.axis if axis is None else axis,
                 s.per_channel) for s in steps]


# ---------------------------------------------------------------------------
# execution


def site_hook(tape: Tape | None = None, capture: dict | None = None):
    """The forwards' site hook: a callable(key, Tensor, params) that
    fake-quantizes the tensor at site key, (layer_id, site_name), by params
    on tape, or passes it through when params is None.

    capture, when given, is filled with the full-precision value of every
    site tensor by its key.
    """

    def site(key: tuple[int, str], x: Tensor, p) -> Tensor:
        if capture is not None:
            capture[key] = x.data
        return quantize_dequantize(x, p, tape) if p is not None else x

    return site


def taped_ops(tape: Tape | None) -> SimpleNamespace:
    """The ops of T.KERNELS as Tensor ops with one forward's tape bound,
    ops.<name>(...) = T.<name>(..., tape=tape), each looked up in T now, so
    a tracer that rebinds the tensor functions sees every call of the
    forwards and the calibration passes (not the search's, on T.KERNELS)."""
    return SimpleNamespace(**{name: functools.partial(getattr(T, name), tape=tape)
                              for name in vars(T.KERNELS)})


# Every layer kind is an ordered list of steps (LAYER_STEPS). A step computes
# out = op(ops, *ins) from named values, ops being the namespace of tensor
# ops it calls by name, or, when op is None, passes its one input through
# the site hook under its site name; such a step is the one declaration of
# that quant site (sites_for_layer). A kind's steps read its weights by
# name, its attrs as "attrs" and its inputs as "x" and "y"; its last step
# writes "out". LayerSpec.steps names these values by layer, so the steps of
# any run of layers concatenate into one list. A Plan compiles a list once
# into slots, and Plan.run is the one loop that runs it: per layer in the
# forwards and calibration passes, on Tensors with taped_ops and site_hook;
# per unit in the search, on arrays with the kernels those ops call
# (T.KERNELS) and quant.fake_quant_site.


class Step(NamedTuple):  # names are keys (layer id, name) in LayerSpec.steps
    out: str
    op: Callable | None
    ins: tuple[str, ...]
    site: str | None = None
    # the site's declaration: "weight" or "activation", its channel axis,
    # whether it may be per-channel, whether it is a site in "full" mode only
    kind: str = "activation"
    axis: int = -1
    per_channel: bool = True
    full_only: bool = False


def _quant(out: str, x: str, site: str, **decl) -> Step:
    """The step that quantizes value x as site, declared by decl."""
    return Step(out, None, (x,), site, **decl)


# The ops below call the tensor ops through ops (taped_ops or T.KERNELS), so
# each is written once for both and runs the same kernels in the same order.
def _tensor_op(name: str):
    """An op whose last input is the layer's attrs: ops.<name>(*ts, **attrs)."""
    def op(ops, *ins):
        *tensors, attrs = ins
        return getattr(ops, name)(*tensors, **attrs)
    return op


def _depthwise_conv(ops, x, w, b, attrs):
    return ops.conv2d(x, w, b, groups=w.shape[0], **attrs)


def _project(ops, x, w, b):
    out = ops.matmul(x, w, transpose_b=True)
    return ops.add(out, b) if b is not None else out


def _activation(ops, x, attrs):
    return getattr(ops, attrs["fn"])(x)


def _reshape(ops, x, attrs: dict):
    op = attrs["op"]
    if op == "nchw_to_tokens":
        n, c, h, w = x.shape
        moved = ops.transpose(x, (0, 2, 3, 1))
        return ops.reshape(moved, (n, h * w, c))
    if op == "tokens_to_nchw":
        n, t, e = x.shape
        h, w = attrs["h"], attrs["w"]
        if h * w != t:
            raise GraphError(f"tokens_to_nchw: {h}x{w} != token count {t}")
        grid = ops.reshape(x, (n, h, w, e))
        return ops.transpose(grid, (0, 3, 1, 2))
    n = x.shape[0]
    return ops.reshape(x, (n, int(np.prod(x.shape[1:]))))


def _pool(ops, x, attrs):
    return ops.mean(x, (1,) if attrs["op"] == "mean_tokens" else (2, 3))


def _split_heads(ops, x, attrs: dict):
    n, t, e = x.shape
    heads = attrs["heads"]
    x = ops.reshape(x, (n, t, heads, e // heads))
    return ops.transpose(x, (0, 2, 1, 3))


def _scores(ops, qh, kh):
    return ops.scale(ops.matmul(qh, kh, transpose_b=True),
                     1.0 / math.sqrt(qh.shape[-1]))


def _merge_heads(ops, probs, vh):
    ctx = ops.transpose(ops.matmul(probs, vh), (0, 2, 1, 3))
    n, t, heads, dk = ctx.shape
    return ops.reshape(ctx, (n, t, heads * dk))


# (N, T, E) projections "q", "k", "v" and attrs holding "heads" -> "ctx"
ATTENTION_STEPS = (
    _quant("qs", "q", "attn_q"),
    Step("qh", _split_heads, ("qs", "attrs")),
    _quant("ks", "k", "attn_k"),
    Step("kh", _split_heads, ("ks", "attrs")),
    _quant("vs", "v", "attn_v"),
    Step("vh", _split_heads, ("vs", "attrs")),
    Step("scores", _scores, ("qh", "kh")),
    _quant("scores_q", "scores", "softmax_in", per_channel=False, full_only=True),
    Step("probs", lambda ops, s: ops.softmax(s, -1), ("scores_q",)),
    _quant("probs_q", "probs", "attn_probs", per_channel=False),
    Step("ctx", _merge_heads, ("probs_q", "vh")),
)


def _input(**decl) -> Step:
    return _quant("xq", "x", "input", **decl)


def _weight(out: str, w: str, site: str) -> Step:
    return _quant(out, w, site, kind="weight", axis=0)


_WEIGHT = _weight("wq", "w", "weight")

# by layer kind, in the order of LAYER_KINDS
LAYER_STEPS = {kind: tuple(steps) for kind, steps in (
    ("conv2d", (_input(axis=1), _WEIGHT, Step("out", _tensor_op("conv2d"),
                                              ("xq", "wq", "b", "attrs")))),
    ("depthwise_conv2d", (_input(axis=1), _WEIGHT,
                          Step("out", _depthwise_conv, ("xq", "wq", "b", "attrs")))),
    ("linear", (_input(), _WEIGHT, Step("out", _project, ("xq", "wq", "b")))),
    ("mhsa", (
        _input(),
        _weight("wq", "w_q", "w_q"),
        Step("q", _project, ("xq", "wq", "b_q")),
        _weight("wk", "w_k", "w_k"),
        Step("k", _project, ("xq", "wk", "b_k")),
        _weight("wv", "w_v", "w_v"),
        Step("v", _project, ("xq", "wv", "b_v")),
        *ATTENTION_STEPS,
        _quant("ctx_q", "ctx", "proj_in"),
        _weight("wo", "w_o", "w_o"),
        Step("out", _project, ("ctx_q", "wo", "b_o")))),
    ("softmax", (_input(per_channel=False, full_only=True),
                 Step("out", _tensor_op("softmax"), ("xq", "attrs")))),
    ("layer_norm", (_input(full_only=True), Step("out", _tensor_op(
        "layer_norm"), ("xq", "gamma", "beta", "attrs")))),
    ("group_norm", (_input(axis=1, full_only=True), Step("out", _tensor_op(
        "group_norm"), ("xq", "gamma", "beta", "attrs")))),
    ("batch_norm", (_input(axis=1, full_only=True), Step("out", _tensor_op(
        "batch_norm_folded"), ("xq", "scale", "shift", "attrs")))),
    ("activation", (Step("out", _activation, ("x", "attrs")),)),
    ("add", (Step("out", _tensor_op("add"), ("x", "y", "attrs")),)),
    ("reshape", (Step("out", _reshape, ("x", "attrs")),)),
    ("pool", (Step("out", _pool, ("x", "attrs")),)),
    ("matmul", (_quant("aq", "x", "input_a"), _quant("bq", "y", "input_b"),
                Step("out", _tensor_op("matmul"), ("aq", "bq", "attrs")))),
)}

LAYER_KINDS = tuple(LAYER_STEPS)


class Plan:
    """steps compiled once into slots, with no values: each value the steps
    read or write gets a slot in a run's list, and each step becomes
    (output slot, op, input slots, site key, slots to free after it).

    full frees each value after its last use, the output at slot out
    excepted, so a run holds no more intermediates at once than the steps
    require; keep frees none, so that its values can be the state that
    cone(site) re-runs from.
    """

    def __init__(self, steps, out):
        written = {step.out for step in steps}
        slot: dict = {}
        for key in (n for step in steps for n in (*step.ins, step.out)):
            slot.setdefault(key, len(slot))
        self._reads = tuple(None if key in written else key for key in slot)
        self.out = slot[out]
        # the step that last reads each step output, or writes it if none
        last = {slot[n]: i for i, step in enumerate(steps)
                for n in (step.out, *step.ins) if n in written}
        frees: list[list[int]] = [[] for _ in steps]
        for s, i in last.items():
            if s != self.out:
                frees[i].append(s)
        compiled = [(slot[step.out], step.op, tuple(slot[n] for n in step.ins),
                     step.site) for step in steps]
        self.full = tuple((*c, tuple(f)) for c, f in zip(compiled, frees))
        self.keep = tuple((*c, ()) for c in compiled)

    def start(self, values) -> list:
        """A run's start list: the values the steps read that no step writes,
        from the mapping values (a key it lacks, an absent bias, is None),
        and None for each output."""
        return [None if key is None else values.get(key) for key in self._reads]

    def cone(self, site: tuple[int, str]) -> tuple:
        """The steps of keep to re-run when only site's params change: the
        step that quantizes site and every step that reads a changed value,
        in order."""
        dirty, cone = set(), []
        for step in self.keep:
            if step[3] == site or dirty.intersection(step[2]):
                dirty.add(step[0])
                cone.append(step)
        return tuple(cone)

    def run(self, program, params: dict, vals: list, ops, site) -> list:
        """Run program (full, keep or a cone) on vals, a start list or a
        kept state, and return it: an op step runs op(ops, *inputs), a site
        step site(key, x, params.get(key)), params mapping site keys to
        QuantParams."""
        for out, op, ins, key, free in program:
            if op is None:
                vals[out] = site(key, vals[ins[0]], params.get(key))
            else:
                vals[out] = op(ops, *[vals[i] for i in ins])
            for i in free:
                vals[i] = None
        return vals


def run_layer(layer: LayerSpec, vals: dict, qcfg: dict, ops, site) -> Tensor:
    """Execute one layer: run its plan on its values and its inputs from
    vals, the forward's {key: value} map, with ops, site and qcfg's params.
    Returns its output, added to vals under (layer id, "out")."""
    plan = layer.plan
    try:
        out = plan.run(plan.full, qcfg, plan.start(ChainMap(vals, layer.values)),
                       ops, site)[plan.out]
    except Exception as e:
        raise GraphExecutionError(f"layer {layer.id} ({layer.kind}): {e}") from e
    vals[(layer.id, "out")] = out
    return out


def _forward(graph: Graph, x: Tensor, qcfg: dict, watch, tape: Tape | None,
             capture: dict | None):
    if tuple(x.shape[1:]) != graph.input_shape:
        raise GraphExecutionError(
            f"input shape {tuple(x.shape[1:])} does not match graph input "
            f"{graph.input_shape}")
    vals = {(GRAPH_INPUT, "out"): tape.leaf(x) if tape is not None else x}
    ops, site = taped_ops(tape), site_hook(tape, capture)
    for layer in graph.layers:
        run_layer(layer, vals, qcfg, ops, site)
    if capture is not None:  # site steps run in every mode; keep the mode's
        for key in set(capture) - {s.key for s in graph.quant_sites}:
            del capture[key]
    outputs = {lid: vals[(lid, "out")] for lid in watch if (lid, "out") in vals}
    if tape is not None:
        for out in outputs.values():
            if out.node is not None:
                tape.watch(out.node)
    return vals[(graph.output_id, "out")], outputs


def forward_fp(graph: Graph, x: Tensor, watch=(), capture: dict | None = None):
    """Full-precision forward; returns (logits, {id: output}) for the ids in
    watch (GRAPH_INPUT allowed). capture, when given, receives the value of
    every quant site of the graph's mode keyed by (layer_id, site_name)."""
    return _forward(graph, x, {}, watch, None, capture)


def forward_quant(graph: Graph, x: Tensor, qcfg: dict, watch=(),
                  tape: Tape | None = None):
    """Fake-quant forward. Sites absent from qcfg run in full precision, so an
    empty qcfg reproduces forward_fp bit for bit."""
    unknown = set(qcfg) - {s.key for s in graph.quant_sites}
    if unknown:
        raise SiteCoverageError("qconfig names unknown sites, absent from the "
                                f"model: {_fmt_keys(unknown)}")
    return _forward(graph, x, qcfg, watch, tape, None)


def _fmt_keys(keys) -> str:
    return ", ".join(f"{l}:{n}" for l, n in sorted(keys)) or "-"


def check_site_coverage(graph: Graph, qcfg: dict) -> None:
    """Error unless qcfg covers the graph's declared quant sites exactly."""
    declared = {s.key for s in graph.quant_sites}
    got = set(qcfg)
    missing = declared - got
    extra = got - declared
    if missing or extra:
        raise SiteCoverageError(
            f"site coverage mismatch: missing [{_fmt_keys(missing)}], "
            f"unexpected [{_fmt_keys(extra)}]")


# ---------------------------------------------------------------------------
# manifest + weight blobs


def save_manifest(graph: Graph, manifest_path: str) -> None:
    """Write the model manifest plus one blob file per weight tensor, under
    blobs/ beside it."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    os.makedirs(os.path.join(base, "blobs"), exist_ok=True)
    layers_doc = []
    for layer in graph.layers:
        wdoc = {}
        for name, t in sorted(layer.weights.items()):
            rel = f"blobs/l{layer.id}_{name}.hqt"
            T.save_tensor(os.path.join(base, rel), t)
            wdoc[name] = rel
        layers_doc.append({
            "id": layer.id,
            "kind": layer.kind,
            "attrs": layer.attrs,
            "inputs": list(layer.inputs),
            "weights": wdoc,
        })
    doc = {
        "format": MANIFEST_FORMAT,
        "input_shape": list(graph.input_shape),
        "output": graph.output_id,
        "mode": graph.mode,
        "layers": layers_doc,
        "bridge_blocks": graph.bridge_annotations,
    }
    with open(manifest_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


_MANIFEST_FIELDS = {
    "format": (lambda v: v == MANIFEST_FORMAT, repr(MANIFEST_FORMAT)),
    "layers": (_list_of(lambda v: isinstance(v, dict)), "a list of layer objects"),
    "input_shape": (lambda v: _list_of(_POSITIVE[0])(v) and len(v) > 0,
                    "a non-empty list of positive integers"),
    "output": (lambda v: v is None or _is_int(v), "a layer id", None),
    "mode": (*_one_of("partial", "full"), "partial"),
    "bridge_blocks": (lambda v: isinstance(v, list), "a list", []),
}

_LAYER_FIELDS = {
    "id": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "kind": (lambda v: isinstance(v, str), "a string"),  # Graph checks it is known
    "attrs": (lambda v: isinstance(v, dict), "an object", {}),
    "inputs": (_list_of(_is_int), "a list of layer ids", []),
    "weights": (lambda v: isinstance(v, dict) and all(
        isinstance(rel, str) and "\0" not in rel for rel in v.values()),
        "an object of blob paths", {}),
}


def load_manifest(manifest_path: str) -> Graph:
    """Read a manifest and its weight blobs and check its bridge annotations;
    a malformed document raises one GraphError naming the file and, where
    there is one, the layer, annotation and field."""
    from .bridge import resolve_bridge_blocks  # bridge imports this module
    m = read_fields(read_json(manifest_path, GraphError), _MANIFEST_FIELDS,
                    GraphError, manifest_path)
    blob_path = _blob_resolver(os.path.dirname(os.path.abspath(manifest_path)))
    try:
        layers = []
        for ldoc in m["layers"]:
            f = read_fields(ldoc, _LAYER_FIELDS, GraphError,
                            f"layer {ldoc.get('id', '?')}")
            layers.append(LayerSpec(
                id=f["id"], kind=f["kind"], attrs=dict(f["attrs"]),
                inputs=list(f["inputs"]),
                weights={name: T.load_tensor(blob_path(f["id"], name, rel),
                                             opener=_open_nofollow)
                         for name, rel in f["weights"].items()}))
        graph = Graph(layers=layers, input_shape=tuple(m["input_shape"]),
                      output_id=m["output"], mode=m["mode"],
                      bridge_annotations=list(m["bridge_blocks"]))
        resolve_bridge_blocks(graph, graph.bridge_annotations)
        return graph
    except GraphError as e:
        raise GraphError(f"{manifest_path}: {e}") from None


def _blob_resolver(base: str) -> Callable[[int, str, str], str]:
    """(layer id, weight name, relative path) -> the blob's path under base,
    refusing a path whose directory, symlinks resolved, is not inside base.
    realpath runs once per distinct blob directory (an export has one); the
    blob itself is opened with _open_nofollow, so it cannot be a symlink."""
    real_base = os.path.realpath(base)
    inside: dict[str, bool] = {}

    def resolve(layer_id, name: str, rel: str) -> str:
        path = os.path.normpath(os.path.join(base, rel))
        folder = os.path.dirname(path)
        if folder not in inside:
            inside[folder] = os.path.commonpath(
                [real_base, os.path.realpath(folder)]) == real_base
        if not inside[folder]:
            raise GraphError(f"layer {layer_id}: weight '{name}' path {rel!r} is "
                             f"not inside the manifest directory")
        return path

    return resolve


def _open_nofollow(path: str, flags: int) -> int:
    """os.open that refuses a symlink as the last path component (where the
    platform has O_NOFOLLOW)."""
    try:
        return os.open(path, flags | getattr(os, "O_NOFOLLOW", 0))
    except OSError as e:
        if e.errno == errno.ELOOP:
            raise GraphError(f"weight blob {path} is a symbolic link") from None
        raise
