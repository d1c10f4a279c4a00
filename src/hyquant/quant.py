"""Uniform quantizer: scale/zero-point fitting, fake quantization, overflow analysis.

Conventions fixed here:

* signed integer grid [-2^(k-1), 2^(k-1)-1] for weights and activations;
* codes and zero-points round half to even (np.rint), IEEE 754's default and
  PyTorch's; fake quantization runs in float32 throughout, and its float32
  clip bounds are exact up to 24 bits (above, q_max rounds up to 2^(k-1));
* the raw zero-point is kept as the continuous value q_min - r_min/scale so
  overflow diagnosis is exactly the r_min>0 / r_max<0 condition, while the
  stored integer zero-point is rounded then clamped into the grid;
* degenerate (constant) ranges floor the scale at SCALE_FLOOR instead of
  erroring - narrow or all-constant channels are expected inputs.

All functions are pure over immutable inputs and freely parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tape, Tensor

_F32 = np.float32

SCALE_FLOOR = 1e-8

SCHEMES = ("symmetric", "asymmetric")
GRANULARITIES = ("per_layer", "per_channel")


class QuantError(ValueError):
    """Bad quantizer parameters or application."""


def grid_range(bits: int) -> tuple[int, int]:
    """Signed clip range [q_min, q_max] for a k-bit grid.

    6 and 8 are the production settings; 1 supports degradation probes and
    widths up to 32 support infinite-resolution stubs in tests.
    """
    if not 1 <= bits <= 32:
        raise QuantError(f"bit-width {bits} outside supported range [1, 32]")
    return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1


def floor_scale(scale: np.ndarray) -> np.ndarray:
    """Apply the degenerate-range floor so scales stay strictly positive."""
    return np.maximum(np.asarray(scale, dtype=np.float64), SCALE_FLOOR)


@dataclass(frozen=True)
class QuantParams:
    """Quantizer parameters for one tensor site.

    scale/zero_point are scalars (shape ()) for per_layer granularity and
    vectors (C,) along channel_axis for per_channel. zero_point_raw retains
    the continuous pre-round, pre-clamp zero-point for overflow diagnosis.
    q_min/q_max and their float32 form and the float32 form of zero_point,
    which every quantize_dequantize call reads, are derived once at
    construction.
    """

    bits: int
    scheme: str
    granularity: str
    channel_axis: int | None
    scale: np.ndarray
    zero_point: np.ndarray
    zero_point_raw: np.ndarray
    q_min: int = field(init=False, repr=False, compare=False)
    q_max: int = field(init=False, repr=False, compare=False)
    q_bounds32: tuple = field(init=False, repr=False, compare=False)
    zero_point32: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise QuantError(f"unknown scheme '{self.scheme}'")
        if self.granularity not in GRANULARITIES:
            raise QuantError(f"unknown granularity '{self.granularity}'")
        if self.granularity == "per_channel" and self.channel_axis is None:
            raise QuantError("per_channel params require a channel_axis")
        q_min, q_max = grid_range(self.bits)
        object.__setattr__(self, "zero_point", np.asarray(self.zero_point, dtype=np.int32))
        object.__setattr__(self, "zero_point_raw",
                           np.asarray(self.zero_point_raw, dtype=np.float64))
        shapes = (np.shape(self.scale), self.zero_point.shape, self.zero_point_raw.shape)
        rank = int(self.granularity == "per_channel")
        if len(set(shapes)) > 1 or len(shapes[0]) != rank:
            raise QuantError(f"{self.granularity} params need scale and both "
                             f"zero-points of one shape of rank {rank}, got {shapes}")
        object.__setattr__(self, "scale", _f32_scale(self.scale))
        if self.scheme == "symmetric" and np.any(self.zero_point != 0):
            raise QuantError("symmetric scheme requires zero_point == 0")
        if np.any(self.zero_point < q_min) or np.any(self.zero_point > q_max):
            raise QuantError(f"stored zero_point outside grid [{q_min}, {q_max}]")
        object.__setattr__(self, "q_min", q_min)
        object.__setattr__(self, "q_max", q_max)
        object.__setattr__(self, "q_bounds32", (_F32(q_min), _F32(q_max)))
        object.__setattr__(self, "zero_point32", self.zero_point.astype(_F32))

    def __eq__(self, other) -> bool:
        """Value equality, arrays compared whole (the generated __eq__
        compares them elementwise, which raises for per-channel params)."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.bits, self.scheme, self.granularity, self.channel_axis)
                == (other.bits, other.scheme, other.granularity,
                    other.channel_axis)
                and all(np.array_equal(getattr(self, n), getattr(other, n))
                        for n in ("scale", "zero_point", "zero_point_raw")))

    @property
    def any_clamped(self) -> bool:
        """True when clamping altered a stored integer zero-point."""
        rounded = np.rint(self.zero_point_raw)
        return bool(np.any((rounded < self.q_min) | (rounded > self.q_max)))


def _f32_scale(scale) -> np.ndarray:
    """scale as float32, refused unless strictly positive and finite."""
    with np.errstate(over="ignore"):  # too large for float32: inf, refused below
        scale = np.asarray(scale, dtype=_F32)
    if not ((scale > 0) & np.isfinite(scale)).all():
        raise QuantError("scale must be strictly positive (floor degenerate "
                         "ranges) and finite as float32")
    return scale


@dataclass(frozen=True)
class ChannelOverflow:
    channel: int
    r_min: float
    r_max: float
    zero_point_raw: float
    flagged: bool


@dataclass(frozen=True)
class OverflowReport:
    """Per-channel zero-point overflow diagnosis for an asymmetric fit."""

    bits: int
    axis: int
    channels: tuple[ChannelOverflow, ...] = field(default=())


def channel_ranges(t: np.ndarray, channel_axis: int | None):
    """float64 (min, max, absmax) over everything, or per channel along
    channel_axis (vectors indexed by channel)."""
    if channel_axis is None:
        return (np.asarray(t.min(), dtype=np.float64),
                np.asarray(t.max(), dtype=np.float64),
                np.asarray(np.abs(t).max(), dtype=np.float64))
    ax = channel_axis % t.ndim
    moved = np.moveaxis(t, ax, 0).reshape(t.shape[ax], -1)
    return (moved.min(axis=1).astype(np.float64),
            moved.max(axis=1).astype(np.float64),
            np.abs(moved).max(axis=1).astype(np.float64))


def fit_minmax(t: Tensor, bits: int, scheme: str, granularity: str,
               channel_axis: int | None = None) -> QuantParams:
    """Min-max fit of scale and zero-point.

    symmetric: scale = absmax / (2^(k-1) - 1), zero_point = 0
    asymmetric: scale = (max - min) / (2^k - 1), zp from r_min (clamped)
    """
    data = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=_F32)
    if data.size == 0:
        raise QuantError("cannot fit quantizer parameters on an empty tensor")
    if granularity == "per_layer":
        channel_axis = None
    elif channel_axis is None:
        raise QuantError("per_channel fit requires a channel_axis")
    r_min, r_max, r_abs = channel_ranges(data, channel_axis)
    q_min, q_max = grid_range(bits)
    if scheme == "symmetric":
        denom = max(2 ** (bits - 1) - 1, 1)
        sc = floor_scale(r_abs / denom)
        zp = np.zeros_like(sc, dtype=np.int32)
        raw = np.zeros_like(sc, dtype=np.float64)
    elif scheme == "asymmetric":
        sc = floor_scale((r_max - r_min) / (2 ** bits - 1))
        raw = q_min - r_min / sc
        zp = np.clip(np.rint(raw), q_min, q_max).astype(np.int32)
    else:
        raise QuantError(f"unknown scheme '{scheme}'")
    return QuantParams(bits=bits, scheme=scheme, granularity=granularity,
                       channel_axis=channel_axis, scale=sc, zero_point=zp,
                       zero_point_raw=raw)


def params_for_scale(base: QuantParams, scales) -> list[QuantParams]:
    """Candidate-search params, one per row of scales ((n,) per layer, (n, C)
    per channel): the base fit's zero-point with that row as its scale.

    The search optimizes only the scale (plus granularity and scheme); the
    zero-point always stays the min-max fit's, so scanning scales rescales the
    represented range without inventing new clamping. The rows are floored,
    cast and checked together.
    """
    sc = floor_scale(scales)
    if sc.ndim == 0 or sc.shape[1:] != base.scale.shape:
        raise QuantError(f"candidate scales of shape {sc.shape} are not rows "
                         f"of the base's scale shape {base.scale.shape}")
    sc = _f32_scale(sc)
    out = []
    for i in range(sc.shape[0]):
        # every other field was checked when base was built
        p = object.__new__(QuantParams)
        vars(p).update(vars(base), scale=sc[i, ...])
        out.append(p)
    return out


def broadcast_ready(p: QuantParams, v: np.ndarray, shape: tuple[int, ...]):
    """v, p's float32 scale or zero-point (p.scale, p.zero_point32), shaped
    to broadcast against an input of shape. Per channel along axis 0 it is
    (C, 1, ...); along any other axis it is tiled over the non-sample axes,
    shape[1:], so that an elementwise op runs one contiguous loop per sample
    instead of one per channel run."""
    if p.granularity != "per_channel":
        return v
    ndim = len(shape)
    if not -ndim <= p.channel_axis < ndim:
        raise QuantError(f"channel_axis {p.channel_axis} is out of range "
                         f"for a tensor of shape {shape}")
    ax = p.channel_axis % ndim
    if shape[ax] != v.size:
        raise QuantError(
            f"per_channel params carry {v.size} channels but tensor "
            f"has {shape[ax]} along axis {ax}")
    bshape = [1] * ndim
    bshape[ax] = v.size
    if ax == 0:
        return v.reshape(bshape)
    return np.ascontiguousarray(np.broadcast_to(v.reshape(bshape[1:]),
                                                shape[1:]))


def fake_quant(xa: np.ndarray, sc, zp, bounds, keep_mask: bool = False):
    """The fake-quantization kernel: (clip(rint(x / sc + zp)) - zp) * sc in
    float32, with sc and zp from broadcast_ready and bounds p.q_bounds32.
    Returns (values, mask), mask the unclipped codes' in-grid test when
    keep_mask is set and None otherwise.

    Each step is one float32 ufunc over the whole tensor, and rint rounds
    half to even. x / sc can overflow float32 to inf, which clips to a
    bound, so callers run it under np.errstate(over="ignore")."""
    q_min, q_max = bounds
    c = np.divide(xa, sc, out=np.empty(xa.shape, _F32))
    c += zp
    np.rint(c, out=c)
    mask = (c >= q_min) & (c <= q_max) if keep_mask else None
    # the method, not np.clip's slower wrapper; c is never NaN, and a -0.0
    # code at q_max == 0 (bits 1) stays -0.0
    c.clip(q_min, q_max, out=c)
    c -= zp
    c *= sc
    return c, mask


def fake_quant_site():
    """A site hook for runs on arrays, callable(key, x, params): x fake-
    quantized by params (fake_quant) or, params None, x itself. Each scale
    and zero-point array's broadcast_ready form is made once, so an array
    must serve one site; a site's candidates share their fit's zero-point
    array, so its per-channel tile is made once per site, and a scale's
    once per candidate. Run it under np.errstate(over="ignore"), as
    fake_quant needs."""
    ready: dict = {}  # id(v) -> (v, so its id stays its own, its form)

    def shaped(p: QuantParams, v: np.ndarray, shape) -> np.ndarray:
        r = ready.get(id(v))
        if r is None:
            r = ready[id(v)] = (v, broadcast_ready(p, v, shape))
        return r[1]

    def site(key, x: np.ndarray, p: QuantParams | None) -> np.ndarray:
        if p is None:
            return x
        return fake_quant(x, shaped(p, p.scale, x.shape),
                          shaped(p, p.zero_point32, x.shape), p.q_bounds32)[0]

    return site


def quantize_dequantize(t: Tensor, p: QuantParams, tape: Tape | None = None) -> Tensor:
    """Fake quantization of t by p (fake_quant), recorded on tape.

    Backward is a clip-aware straight-through estimator: the gradient passes
    where the unclipped code lies in [q_min, q_max] (a bool mask taken
    before clipping; g * mask gives the bits of g times a float32 0/1 mask).
    """
    sc, zp = (broadcast_ready(p, v, t.data.shape)
              for v in (p.scale, p.zero_point32))
    taped = tape is not None and t.node is not None
    with np.errstate(over="ignore"):
        c, mask = fake_quant(t.data, sc, zp, p.q_bounds32, taped)
    if not taped:
        return Tensor._wrap(c)
    parent = t.node
    nid = tape.record(c.shape, lambda g: [(parent, g * mask)])
    return Tensor._wrap(c, nid)


def detect_zero_point_overflow(t: Tensor, bits: int, axis: int) -> OverflowReport:
    """Flag channels whose per-channel asymmetric raw zero-point leaves the grid.

    By construction this is exactly the set of channels with r_min > 0 (or
    r_max < 0 at the other end).
    """
    data = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=_F32)
    if not -data.ndim <= axis < data.ndim:
        raise QuantError(f"axis {axis} invalid for shape {data.shape}")
    r_min, r_max, _ = channel_ranges(data, axis)
    p = fit_minmax(data, bits, "asymmetric", "per_channel", axis)
    raw = p.zero_point_raw
    flagged = (raw < p.q_min) | (raw > p.q_max)
    channels = tuple(
        ChannelOverflow(channel=i, r_min=float(r_min[i]), r_max=float(r_max[i]),
                        zero_point_raw=float(raw[i]), flagged=bool(flagged[i]))
        for i in range(r_min.shape[0]))
    return OverflowReport(bits=bits, axis=axis % data.ndim, channels=channels)
