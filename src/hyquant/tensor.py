"""Dense float32 tensors plus the reverse-mode tape behind calibration gradients.

Everything downstream (graph execution, calibration passes) is built from the
ops in this module, so every op carries its own backward rule. Weights have no
tape node and are never differentiated, so only matmul and add, which can
combine two activations, have a rule for a second operand. Tensors are
immutable by convention: ops allocate fresh arrays and never write into their
inputs. A tape is single-owner (one forward/backward pair per tape); tensors
themselves are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import struct
from types import SimpleNamespace
from typing import Callable

import numpy as np
from scipy.special import erf as _erf

_F32 = np.float32
_INV_SQRT2 = np.float32(1.0 / math.sqrt(2.0))
_INV_SQRT2PI = np.float32(1.0 / math.sqrt(2.0 * math.pi))

BLOB_MAGIC = b"HQT1"


class TensorError(ValueError):
    """Bad tensor construction or use."""


class ShapeMismatchError(TensorError):
    """Operands with incompatible shapes; the message carries both shapes."""


class EmptyTapeError(TensorError):
    """backward() called on a tape with no recorded nodes."""


class Tensor:
    """Row-major float32 array, optionally attached to a tape node.

    Construction from external data validates finiteness (NaN/Inf rejected);
    internal op results use the trusted `_wrap` path.
    """

    __slots__ = ("data", "node")

    def __init__(self, data):
        arr = np.array(data, dtype=_F32, order="C")
        if not np.all(np.isfinite(arr)):
            raise TensorError("tensor rejects non-finite values (NaN/Inf)")
        self.data = arr
        self.node = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, node: int | None = None) -> "Tensor":
        t = cls.__new__(cls)
        t.data = arr
        t.node = node
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f", node={self.node}" if self.node is not None else ""
        return f"Tensor(shape={self.shape}{tag})"


class Tape:
    """Append-only record of one forward pass: per node, the op's output
    shape and its backward rule, g -> [(parent node id, parent gradient)].

    `watch` marks nodes whose gradients must be retained by `backward`;
    gradients at unwatched nodes are freed as the reverse sweep passes them.
    `backward` consumes the tape: it releases each rule (and the forward
    arrays the rule holds) once the sweep has passed its node, so a tape can
    be swept once; a second `backward` raises TensorError.
    """

    def __init__(self):
        self.nodes: list[tuple[tuple[int, ...], Callable | None]] = []
        self.watched: set[int] = set()
        self.swept = False

    def record(self, shape: tuple[int, ...], backward_fn) -> int:
        self.nodes.append((tuple(shape), backward_fn))
        return len(self.nodes) - 1

    def leaf(self, t: Tensor) -> Tensor:
        nid = self.record(t.data.shape, lambda g: [])
        return Tensor._wrap(t.data, nid)

    def watch(self, node_id: int) -> None:
        if not (0 <= node_id < len(self.nodes)):
            raise TensorError(f"cannot watch unknown node {node_id}")
        self.watched.add(node_id)


def backward(loss_grad: Tensor, tape: Tape) -> dict[int, Tensor]:
    """Reverse sweep; returns gradients for the watched nodes.

    Watched nodes never reached by the sweep get zero gradients of their
    recorded shape. Node ids are topological (an op's inputs are recorded
    before it), so the sweep stops at the lowest watched node: nothing below
    it can reach a watched gradient, and the gradients it does compute
    accumulate in the same order as in a sweep down to the leaves.
    """
    if tape is None or not tape.nodes:
        raise EmptyTapeError("backward() on an empty tape")
    if tape.swept:
        raise TensorError("tape already swept")
    nodes, targets = tape.nodes, set(tape.watched)
    last = len(nodes) - 1
    if tuple(loss_grad.shape) != nodes[last][0]:
        raise ShapeMismatchError(
            f"loss gradient shape {tuple(loss_grad.shape)} does not match "
            f"final output shape {nodes[last][0]}")
    tape.swept = True
    grads: dict[int, np.ndarray] = {last: loss_grad.data.astype(_F32, copy=False)}
    for nid in range(last, min(targets, default=last), -1):
        shape, rule = nodes[nid]
        nodes[nid] = (shape, None)
        g = grads.get(nid) if nid in targets else grads.pop(nid, None)
        if g is None:
            continue
        for pid, pg in rule(g):
            pg = np.asarray(pg, dtype=_F32)
            if pg.shape != nodes[pid][0]:
                raise ShapeMismatchError(
                    f"gradient shape {pg.shape} does not match node {pid} "
                    f"output shape {nodes[pid][0]}")
            acc = grads.get(pid)
            grads[pid] = pg if acc is None else acc + pg
    out: dict[int, Tensor] = {}
    for nid in targets:
        arr = grads.get(nid)
        if arr is None:
            arr = np.zeros(nodes[nid][0], dtype=_F32)
        out[nid] = Tensor._wrap(np.ascontiguousarray(arr, dtype=_F32))
    return out


# ---------------------------------------------------------------------------
# op plumbing


def _record(tape: Tape | None, out: np.ndarray,
            pairs: list[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]) -> Tensor:
    """Wrap an op result; records a node when any input is traced."""
    live = [(t.node, fn) for t, fn in pairs if t.node is not None]
    if tape is None or not live:
        return Tensor._wrap(out)

    def backward_fn(g: np.ndarray) -> list[tuple[int, np.ndarray]]:
        return [(nid, fn(g)) for nid, fn in live]

    return Tensor._wrap(out, tape.record(out.shape, backward_fn))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


# ---------------------------------------------------------------------------
# arithmetic


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return a + b
    except ValueError as e:
        raise ShapeMismatchError(f"add {a.shape} + {b.shape}: {e}") from e


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    return _record(tape, _add(a.data, b.data), [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ])


def _scale(x: np.ndarray, c: float) -> np.ndarray:
    return x * _F32(c)


def scale(t: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    c32 = _F32(c)
    return _record(tape, _scale(t.data, c), [(t, lambda g: g * c32)])


def _matmul(A: np.ndarray, B: np.ndarray, transpose_b: bool = False) -> np.ndarray:
    if A.ndim < 2 or B.ndim < 2:
        raise ShapeMismatchError(f"matmul needs rank>=2 operands, got {A.shape} x {B.shape}")
    Bm = np.swapaxes(B, -1, -2) if transpose_b else B
    if A.shape[-1] != Bm.shape[-2]:
        raise ShapeMismatchError(
            f"matmul inner dimensions disagree: {A.shape} x {B.shape}"
            f"{' (transposed)' if transpose_b else ''}")
    return np.matmul(A, Bm)


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None,
           transpose_b: bool = False) -> Tensor:
    """Matrix product, batched over leading axes; optional transpose of b's
    trailing two axes. Registers a tape node when recording."""
    A, B = a.data, b.data
    out = _matmul(A, B, transpose_b)
    Bm = np.swapaxes(B, -1, -2) if transpose_b else B

    def grad_a(g):
        return _unbroadcast(np.matmul(g, np.swapaxes(Bm, -1, -2)), A.shape)

    def grad_b(g):
        dBm = _unbroadcast(np.matmul(np.swapaxes(A, -1, -2), g), Bm.shape)
        return np.swapaxes(dBm, -1, -2) if transpose_b else dBm

    return _record(tape, out, [(a, grad_a), (b, grad_b)])


def _conv2d(xa: np.ndarray, wa: np.ndarray, bias: np.ndarray | None = None,
            stride=1, padding=0, groups: int = 1) -> np.ndarray:
    if xa.ndim != 4 or wa.ndim != 4:
        raise ShapeMismatchError(f"conv2d expects 4-D input/kernel, got {xa.shape} / {wa.shape}")
    N, C, H, W = xa.shape
    O, Cg, kh, kw = wa.shape
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if groups < 1 or C % groups != 0 or O % groups != 0:
        raise ShapeMismatchError(
            f"conv2d groups={groups} must divide channels C={C} and filters O={O}")
    if Cg != C // groups:
        raise ShapeMismatchError(
            f"conv2d kernel expects {Cg} input channels per group, input has {C // groups}")
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    if Ho <= 0 or Wo <= 0:
        raise ShapeMismatchError(
            f"conv2d output dims must be positive, got {Ho}x{Wo} from input {xa.shape}")

    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):  # columns = the input
        cols = np.ascontiguousarray(xa)
    else:
        idx, padded = _im2col_index(H, W, kh, kw, sh, sw, ph, pw)
        cols = np.take(xa.reshape(N * C, H * W), idx, axis=1)
        taps = cols.reshape(N * C, kh, kw, Ho, Wo)
        for region in padded:
            taps[region] = 0
    wg = wa.reshape(groups, O // groups, Cg * kh * kw)
    out = np.matmul(wg[None], cols.reshape(N, groups, Cg * kh * kw, Ho * Wo))
    del cols
    out = out.reshape(N, O, Ho, Wo)
    if bias is not None:
        if bias.shape != (O,):
            raise ShapeMismatchError(f"conv2d bias shape {bias.shape} != ({O},)")
        out += bias.reshape(1, O, 1, 1)
    return out


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None, stride=1,
           padding=0, groups: int = 1, tape: Tape | None = None) -> Tensor:
    """2-D cross-correlation over NCHW input with OIHW kernels.

    groups == C with O == C gives a depthwise convolution.
    """
    out = _conv2d(x.data, w.data, None if bias is None else bias.data,
                  stride, padding, groups)
    N, C, H, W = x.shape
    O, Cg, kh, kw = w.shape
    Ho, Wo = out.shape[2:]
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    wg = w.data.reshape(groups, O // groups, Cg * kh * kw)

    def grad_x(g):
        gg = g.reshape(N, groups, O // groups, Ho * Wo)
        dcols = np.matmul(np.swapaxes(wg[None], -1, -2), gg)
        # col2im with the batch and channel axes innermost: each tap adds
        # runs of N*C elements instead of Wo; an element's adds keep the
        # tap order (i outer, j inner), so its sum has the same bits
        dcols = np.moveaxis(dcols.reshape(N * C, kh, kw, Ho, Wo), 0, -1)
        dxp = np.zeros((H + 2 * ph, W + 2 * pw, N * C), dtype=_F32)
        for i in range(kh):
            for j in range(kw):
                dxp[i:i + sh * Ho:sh, j:j + sw * Wo:sw] += dcols[i, j]
        dx = np.moveaxis(dxp[ph:ph + H, pw:pw + W], -1, 0)
        return np.ascontiguousarray(dx).reshape(N, C, H, W)

    return _record(tape, out, [(x, grad_x)])


@functools.cache
def _im2col_index(H: int, W: int, kh: int, kw: int, sh: int, sw: int,
                  ph: int, pw: int) -> tuple[np.ndarray, tuple]:
    """(gather index, padded regions) of im2col over a row of H*W pixels, in
    the column order (kh, kw, Ho, Wo): tap (i, j) of output pixel (y, x)
    reads pixel (sh*y + i - ph, sw*x + j - pw). A tap that falls in the
    padding reads the nearest edge pixel and is then zeroed, so no padded
    copy is made. The padded regions index the (N*C, kh, kw, Ho, Wo) view of
    the columns: the output rows that tap row i reads from the padding are
    a prefix and a suffix of range(Ho), and the same holds for tap column j
    and range(Wo), so each region is one slice."""
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    r = (np.arange(kh)[:, None] + sh * np.arange(Ho)[None, :] - ph)[:, None, :, None]
    c = (np.arange(kw)[:, None] + sw * np.arange(Wo)[None, :] - pw)[None, :, None, :]
    idx = (np.clip(r, 0, H - 1) * W + np.clip(c, 0, W - 1)).reshape(-1).astype(np.intp)
    idx.flags.writeable = False  # shared by every call
    a = slice(None)
    padded = tuple([(a, i, a, s) for i, s in _padded_slices(kh, ph, sh, H, Ho)]
                   + [(a, a, j, a, s) for j, s in _padded_slices(kw, pw, sw, W, Wo)])
    return idx, padded


def _padded_slices(k: int, pad: int, stride: int, size: int, out: int):
    """(tap, slice of range(out)) for the non-empty prefix and suffix of
    outputs o that tap reads from the padding: those not in
    0 <= stride*o + tap - pad < size."""
    for tap in range(k):
        off = tap - pad
        lo = min(out, max(0, -(off // stride)))
        hi = min(out, max(lo, (size - 1 - off) // stride + 1))
        if lo:
            yield tap, slice(0, lo)
        if hi < out:
            yield tap, slice(hi, out)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def _max_keepdims(xa: np.ndarray, axis: int) -> np.ndarray:
    """xa.max(axis, keepdims=True), fast on a short last axis.

    numpy reduces a short contiguous last axis one row at a time. An
    elementwise maximum over the slices of a copy with the axis moved first
    gives the same maxima (only the sign of a zero maximum may differ, which
    neither exp(x - m) nor a softmax can see), and is faster up to a last
    axis of about 32 to 48, slower beyond it and on any other axis. Timed on
    a 2-vCPU Intel Xeon, numpy 2.4, float32, xa.max -> moved reduce: last
    axis of (32, 2, 16, 16) 140 -> 30 us, (16384, 32) 2.2 -> 1.7 ms,
    (16384, 64) 2.6 -> 6.6 ms, (4, 4096) 4.5 -> 206 us; axis 1 of
    (32, 2, 16, 16) 9.7 -> 21 us, axis 0 of (64, 1024) 12 -> 22 us.
    """
    ax = axis % xa.ndim
    if ax != xa.ndim - 1 or xa.shape[ax] > 32:
        return xa.max(axis=ax, keepdims=True)
    return np.maximum.reduce(np.ascontiguousarray(np.moveaxis(xa, ax, 0)))[..., None]


def _softmax(xa: np.ndarray, axis: int = -1) -> np.ndarray:
    if not -xa.ndim <= axis < xa.ndim:
        raise ShapeMismatchError(f"softmax axis {axis} invalid for shape {xa.shape}")
    e = np.exp(xa - _max_keepdims(xa, axis))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(t: Tensor, axis: int = -1, tape: Tape | None = None) -> Tensor:
    y = _softmax(t.data, axis)

    def grad(g):
        return y * (g - (g * y).sum(axis=axis, keepdims=True))

    return _record(tape, y, [(t, grad)])


def _norm_core(xa: np.ndarray, gamma: np.ndarray, beta: np.ndarray, groups: int,
               channel_axis: int, eps: float, op: str):
    """(output, xhat, 1/std, gamma broadcast), the last three for the
    backward rule, xhat and 1/std shaped (lead, groups, m)."""
    ca = channel_axis % xa.ndim
    C = xa.shape[ca]
    if groups < 1 or C % groups != 0:
        raise ShapeMismatchError(f"{op}: groups={groups} must divide channels {C}")
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeMismatchError(
            f"{op}: affine params must have shape ({C},), got {gamma.shape}/{beta.shape}")
    lead = int(np.prod(xa.shape[:ca])) if ca else 1
    tail = int(np.prod(xa.shape[ca + 1:])) if ca + 1 < xa.ndim else 1
    m = (C // groups) * tail

    xv = xa.reshape(lead, groups, m)
    mu = xv.mean(axis=-1, keepdims=True)
    var = xv.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _F32(eps))
    xhat = (xv - mu) * inv
    bshape = [1] * xa.ndim
    bshape[ca] = C
    ga = gamma.reshape(bshape)
    be = beta.reshape(bshape)
    return (xhat.reshape(xa.shape) * ga + be).astype(_F32, copy=False), xhat, inv, ga


def _norm_op(x: Tensor, parts, tape: Tape | None) -> Tensor:
    """The norm of x from _norm_core's parts, with its backward rule."""
    out, xhat, inv, ga = parts
    shape = out.shape  # the rule holds xhat, not the output

    def grad_x(g):
        dxhat = (g * ga).reshape(xhat.shape)
        t1 = dxhat.mean(axis=-1, keepdims=True)
        t2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (inv * (dxhat - t1 - xhat * t2)).reshape(shape)

    return _record(tape, out, [(x, grad_x)])


def _layer_norm(xa: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                eps: float = 1e-5):
    return _norm_core(xa, gamma, beta, 1, xa.ndim - 1, eps, "layer_norm")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
               tape: Tape | None = None) -> Tensor:
    """Normalize over the last axis: zero mean, unit variance, then affine."""
    return _norm_op(x, _layer_norm(x.data, gamma.data, beta.data, eps), tape)


def _group_norm(xa: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                groups: int, eps: float = 1e-5, channel_axis: int = 1):
    return _norm_core(xa, gamma, beta, groups, channel_axis, eps, "group_norm")


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int,
               eps: float = 1e-5, channel_axis: int = 1,
               tape: Tape | None = None) -> Tensor:
    """Normalize within each channel group together with all trailing axes.

    groups=1 with channel_axis on the channel dim reduces to a layer norm over
    channel+trailing dims.
    """
    return _norm_op(x, _group_norm(x.data, gamma.data, beta.data, groups, eps,
                                   channel_axis), tape)


def _batch_norm_folded(xa: np.ndarray, scale_w: np.ndarray, shift: np.ndarray,
                       channel_axis: int = 1):
    """(output, scale broadcast), the scale for the backward rule."""
    ca = channel_axis % xa.ndim
    C = xa.shape[ca]
    if scale_w.shape != (C,) or shift.shape != (C,):
        raise ShapeMismatchError(
            f"batch_norm_folded params must have shape ({C},), "
            f"got {scale_w.shape}/{shift.shape}")
    bshape = [1] * xa.ndim
    bshape[ca] = C
    sa = scale_w.reshape(bshape)
    return xa * sa + shift.reshape(bshape), sa


def batch_norm_folded(x: Tensor, scale_w: Tensor, shift: Tensor,
                      channel_axis: int = 1, tape: Tape | None = None) -> Tensor:
    """Inference-mode batch norm: per-channel affine with folded statistics."""
    out, sa = _batch_norm_folded(x.data, scale_w.data, shift.data, channel_axis)
    return _record(tape, out, [(x, lambda g: g * sa)])


def _gelu(xa: np.ndarray):
    """(output, phi), phi for the backward rule."""
    phi = _F32(0.5) * (1.0 + _erf(xa * _INV_SQRT2))
    return (xa * phi).astype(_F32, copy=False), phi


def gelu(t: Tensor, tape: Tape | None = None) -> Tensor:
    """Exact (erf-based) GELU."""
    xa = t.data
    out, phi = _gelu(xa)

    def grad(g):
        pdf = np.exp(_F32(-0.5) * xa * xa) * _INV_SQRT2PI
        return g * (phi + xa * pdf)

    return _record(tape, out, [(t, grad)])


def _silu(xa: np.ndarray):
    """(output, sigmoid), the sigmoid for the backward rule."""
    with np.errstate(over="ignore"):  # exp(-x) -> inf below about -88: sig 0
        sig = 1.0 / (1.0 + np.exp(-xa))
    return (xa * sig).astype(_F32, copy=False), sig


def silu(t: Tensor, tape: Tape | None = None) -> Tensor:
    xa = t.data
    out, sig = _silu(xa)

    def grad(g):
        return g * (sig * (1.0 + xa * (1.0 - sig)))

    return _record(tape, out, [(t, grad)])


def _relu(xa: np.ndarray) -> np.ndarray:
    return np.maximum(xa, _F32(0))


def relu(t: Tensor, tape: Tape | None = None) -> Tensor:
    xa = t.data
    return _record(tape, _relu(xa), [(t, lambda g: g * (xa > 0))])


# ---------------------------------------------------------------------------
# shape manipulation and reductions


def _reshape(xa: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    try:
        return xa.reshape(shape)
    except ValueError as e:
        raise ShapeMismatchError(f"reshape {xa.shape} -> {shape}: {e}") from e


def reshape(t: Tensor, shape: tuple[int, ...], tape: Tape | None = None) -> Tensor:
    src = t.data.shape
    return _record(tape, _reshape(t.data, shape), [(t, lambda g: g.reshape(src))])


def _transpose(xa: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    return np.ascontiguousarray(np.transpose(xa, axes))


def transpose(t: Tensor, axes: tuple[int, ...], tape: Tape | None = None) -> Tensor:
    return _record(tape, _transpose(t.data, axes), [(t, lambda g: np.ascontiguousarray(
        np.transpose(g, np.argsort(axes))))])


def _mean(xa: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    return xa.mean(axis=tuple(a % xa.ndim for a in axes))


def mean(t: Tensor, axes: tuple[int, ...], tape: Tape | None = None) -> Tensor:
    out = _mean(t.data, axes)
    axes = tuple(a % t.ndim for a in axes)
    count = 1
    for a in axes:
        count *= t.shape[a]
    inv_count = _F32(1.0 / count)
    src = t.data.shape

    def grad(g):
        ge = np.expand_dims(g, axes)
        return np.broadcast_to(ge * inv_count, src).astype(_F32, copy=False)

    return _record(tape, out, [(t, grad)])


def _output_only(kernel):
    """kernel without the values it returns for a backward rule."""
    return lambda *args, **kwargs: kernel(*args, **kwargs)[0]


# The ops a graph step runs, as ndarray kernels: each takes an op's
# arguments but the tape, with arrays for its tensors, and returns the
# output array of the same arithmetic as the op, which calls it, but with no
# Tensor, tape node or backward rule.
KERNELS = SimpleNamespace(
    add=_add, scale=_scale, matmul=_matmul, conv2d=_conv2d, softmax=_softmax,
    layer_norm=_output_only(_layer_norm), group_norm=_output_only(_group_norm),
    batch_norm_folded=_output_only(_batch_norm_folded),
    gelu=_output_only(_gelu), silu=_output_only(_silu), relu=_relu,
    reshape=_reshape, transpose=_transpose, mean=_mean)


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  tape: Tape | None = None) -> Tensor:
    """Sum-reduced cross-entropy of logits (N, C) against integer labels; the
    logit gradient is exactly softmax - onehot."""
    la = logits.data
    if la.ndim != 2:
        raise ShapeMismatchError(f"cross_entropy expects (N, C) logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (la.shape[0],):
        raise ShapeMismatchError(
            f"labels shape {labels.shape} does not match batch {la.shape[0]}")
    idx = np.arange(la.shape[0])
    m = la.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(la - m).sum(axis=1, keepdims=True))
    nll = lse[:, 0] - la[idx, labels]
    out = np.asarray(np.sum(nll, dtype=np.float64), dtype=_F32)
    probs = np.exp(la - lse)

    def grad(g):
        d = probs.copy()
        d[idx, labels] -= 1.0
        return d * g

    return _record(tape, out, [(logits, grad)])


# ---------------------------------------------------------------------------
# blob format: "HQT1", u32 rank, u32 dims..., little-endian f32 payload


def save_tensor(path, t: Tensor) -> None:
    arr = np.asarray(t.data, dtype="<f4")  # keeps a scalar rank 0
    with open(path, "wb") as f:
        f.write(BLOB_MAGIC)
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes(order="C"))


def load_tensor(path, opener=None) -> Tensor:
    """Read a blob; opener is passed to open()."""
    with open(path, "rb", opener=opener) as f:
        raw = f.read()
    if raw[:4] != BLOB_MAGIC:
        raise TensorError(f"{path}: bad magic {raw[:4]!r}, expected {BLOB_MAGIC!r}")
    if len(raw) < 8:
        raise TensorError(f"{path}: truncated header")
    (rank,) = struct.unpack_from("<I", raw, 4)
    if rank > 32:
        raise TensorError(f"{path}: implausible rank {rank}")
    head = 8 + 4 * rank
    if len(raw) < head:
        raise TensorError(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{rank}I", raw, 8)
    count = 1
    for d in dims:
        if d <= 0:
            raise TensorError(f"{path}: non-positive dimension {d}")
        count *= d
    if len(raw) != head + 4 * count:
        raise TensorError(
            f"{path}: payload size {len(raw) - head} != {4 * count} for dims {dims}")
    arr = np.frombuffer(raw, dtype="<f4", offset=head).reshape(dims)
    try:
        return Tensor(arr)
    except TensorError as e:
        raise TensorError(f"{path}: {e}") from None
