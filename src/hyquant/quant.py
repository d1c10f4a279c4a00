"""Uniform quantizer: scale/zero-point fitting, fake quantization, overflow analysis.

Conventions fixed here and relied on by golden files elsewhere:

* signed integer grid [-2^(k-1), 2^(k-1)-1] for weights and activations;
* rounding is half-away-from-zero (numpy's default half-even would shift
  quantized codes by one ulp and break bit-exact artifacts);
* the raw zero-point is kept as the continuous value q_min - r_min/scale so
  overflow diagnosis is exactly the r_min>0 / r_max<0 condition, while the
  stored integer zero-point is rounded then clamped into the grid;
* degenerate (constant) ranges floor the scale at SCALE_FLOOR instead of
  erroring - narrow or all-constant channels are expected inputs.

All functions are pure over immutable inputs and freely parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tape, Tensor

_F32 = np.float32

SCALE_FLOOR = 1e-8

# Elements per block of quantize_dequantize: a block's two float64 work
# arrays take 128 KiB each, so they stay in L2 cache from pass to pass.
_BLOCK = 16384

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


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round half away from zero (ties at .5 move away from 0)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def floor_scale(scale: np.ndarray) -> np.ndarray:
    """Apply the degenerate-range floor so scales stay strictly positive."""
    return np.maximum(np.asarray(scale, dtype=np.float64), SCALE_FLOOR)


@dataclass(frozen=True)
class QuantParams:
    """Quantizer parameters for one tensor site.

    scale/zero_point are scalars (shape ()) for per_layer granularity and
    vectors (C,) along channel_axis for per_channel. zero_point_raw retains
    the continuous pre-round, pre-clamp zero-point for overflow diagnosis.
    q_min/q_max and the float64 forms of scale and zero_point, which every
    quantize_dequantize call reads, are derived once at construction.
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
    scale64: np.ndarray = field(init=False, repr=False, compare=False)
    zero_point64: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise QuantError(f"unknown scheme '{self.scheme}'")
        if self.granularity not in GRANULARITIES:
            raise QuantError(f"unknown granularity '{self.granularity}'")
        if self.granularity == "per_channel" and self.channel_axis is None:
            raise QuantError("per_channel params require a channel_axis")
        q_min, q_max = grid_range(self.bits)
        with np.errstate(over="ignore"):  # too large for float32: inf, refused below
            object.__setattr__(self, "scale", np.asarray(self.scale, dtype=_F32))
        object.__setattr__(self, "zero_point", np.asarray(self.zero_point, dtype=np.int32))
        object.__setattr__(self, "zero_point_raw",
                           np.asarray(self.zero_point_raw, dtype=np.float64))
        shapes = (self.scale.shape, self.zero_point.shape, self.zero_point_raw.shape)
        rank = int(self.granularity == "per_channel")
        if len(set(shapes)) > 1 or len(shapes[0]) != rank:
            raise QuantError(f"{self.granularity} params need scale and both "
                             f"zero-points of one shape of rank {rank}, got {shapes}")
        if not np.all((self.scale > 0) & np.isfinite(self.scale)):
            raise QuantError("scale must be strictly positive (floor degenerate "
                             "ranges) and finite as float32")
        if self.scheme == "symmetric" and np.any(self.zero_point != 0):
            raise QuantError("symmetric scheme requires zero_point == 0")
        if np.any(self.zero_point < q_min) or np.any(self.zero_point > q_max):
            raise QuantError(f"stored zero_point outside grid [{q_min}, {q_max}]")
        object.__setattr__(self, "q_min", q_min)
        object.__setattr__(self, "q_max", q_max)
        object.__setattr__(self, "scale64", self.scale.astype(np.float64))
        object.__setattr__(self, "zero_point64", self.zero_point.astype(np.float64))

    @property
    def any_clamped(self) -> bool:
        """True when clamping altered a stored integer zero-point."""
        rounded = round_half_away(self.zero_point_raw)
        return bool(np.any((rounded < self.q_min) | (rounded > self.q_max)))


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

    @property
    def flagged_channels(self) -> tuple[int, ...]:
        return tuple(c.channel for c in self.channels if c.flagged)

    @property
    def flagged_count(self) -> int:
        return len(self.flagged_channels)


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


def _asym_zero_points(r_min: np.ndarray, scale: np.ndarray, bits: int):
    """Continuous raw zero-point and its rounded, clamped integer form."""
    q_min, q_max = grid_range(bits)
    raw = q_min - np.asarray(r_min, dtype=np.float64) / np.asarray(scale, dtype=np.float64)
    stored = np.clip(round_half_away(raw), q_min, q_max).astype(np.int32)
    return raw, stored


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
        raw, zp = _asym_zero_points(r_min, sc, bits)
    else:
        raise QuantError(f"unknown scheme '{scheme}'")
    return QuantParams(bits=bits, scheme=scheme, granularity=granularity,
                       channel_axis=channel_axis, scale=sc, zero_point=zp,
                       zero_point_raw=raw)


def params_for_scale(base: QuantParams, scale) -> QuantParams:
    """Candidate-search params: the base fit's zero-point with a new scale.

    The search optimizes only the scale (plus granularity and scheme); the
    zero-point always stays the min-max fit's, so scanning scales rescales the
    represented range without inventing new clamping.
    """
    sc = floor_scale(scale)
    if sc.shape != base.scale.shape:
        raise QuantError(
            f"candidate scale shape {sc.shape} does not match base {base.scale.shape}")
    return QuantParams(bits=base.bits, scheme=base.scheme,
                       granularity=base.granularity,
                       channel_axis=base.channel_axis, scale=sc,
                       zero_point=base.zero_point,
                       zero_point_raw=base.zero_point_raw)


def _broadcast_param(v: np.ndarray, ndim: int, channel_axis: int | None) -> np.ndarray:
    if v.ndim == 0 or channel_axis is None:
        return v
    shape = [1] * ndim
    shape[channel_axis % ndim] = v.shape[0]
    return v.reshape(shape)


def quantize_dequantize(t: Tensor, p: QuantParams, tape: Tape | None = None) -> Tensor:
    """Fake quantization: clip(round(x/scale + zp)) mapped back to reals.

    Computed in float64 then cast to float32 so the high-bit limit collapses
    to identity within float32 rounding. Backward is a clip-aware
    straight-through estimator: the gradient passes where the rounded,
    unclipped code lies in [q_min, q_max] and is zero elsewhere.

    The tensor is evaluated in blocks of about _BLOCK elements along axis 0,
    each through two reused float64 work arrays that stay in cache, and
    written into one preallocated float32 output. A block goes through the
    operations of the reference formula
    `((clip(round_half_away(x64 / sc + zp)) - zp) * sc).astype(float32)` in
    its order and in the same float64 arithmetic, in place, so the output is
    bit for bit the reference's. round_half_away(y) is computed as
    trunc(y + copysign(0.5, y)): for y >= 0 the sum is the reference's
    |y| + 0.5, and for y < 0 it is its exact negation, so trunc gives
    -floor(|y| + 0.5) with the reference's negative zero. The two differ
    only at y = -0.0, which cannot occur: zp is never -0.0, so a zero
    x/sc + zp is +0.0. The gradient mask is taken from the rounded codes
    before they are clipped and is stored as bool; g * mask gives the bits
    of g times a float32 0/1 mask.
    """
    xa = t.data
    ax = None
    if p.granularity == "per_channel":
        if not -xa.ndim <= p.channel_axis < xa.ndim:
            raise QuantError(f"channel_axis {p.channel_axis} is out of range "
                             f"for a tensor of shape {xa.shape}")
        ax = p.channel_axis % xa.ndim
        if xa.shape[ax] != p.scale.size:
            raise QuantError(
                f"per_channel params carry {p.scale.size} channels but tensor "
                f"has {xa.shape[ax]} along axis {ax}")
    sc = _broadcast_param(p.scale64, xa.ndim, p.channel_axis)
    zp = _broadcast_param(p.zero_point64, xa.ndim, p.channel_axis)
    q_min, q_max = p.q_min, p.q_max
    x = xa.reshape(1) if xa.ndim == 0 else xa
    out = np.empty(x.shape, _F32)
    taped = tape is not None and t.node is not None
    mask = np.empty(x.shape, np.bool_) if taped else None
    rows = max(1, min(len(x), _BLOCK // max(1, math.prod(x.shape[1:]))))
    y_buf = np.empty((rows,) + x.shape[1:])
    h_buf = np.empty_like(y_buf)
    for i in range(0, len(x), rows):
        blk = slice(i, i + rows)
        s, z = (sc[blk], zp[blk]) if ax == 0 else (sc, zp)
        xb = x[blk]
        y, h = y_buf[:len(xb)], h_buf[:len(xb)]
        np.divide(xb, s, out=y)
        y += z
        np.copysign(0.5, y, out=h)
        y += h
        np.trunc(y, out=y)
        if taped:
            np.logical_and(y >= q_min, y <= q_max, out=mask[blk])
        np.clip(y, q_min, q_max, out=y)
        y -= z
        np.multiply(y, s, out=out[blk], casting="same_kind")
    out = out.reshape(xa.shape)
    if not taped:
        return Tensor._wrap(out)
    mask = mask.reshape(xa.shape)
    parent = t.node
    nid = tape.record(out.shape, lambda g: [(parent, g * mask)])
    return Tensor._wrap(out, nid)


def detect_zero_point_overflow(t: Tensor, bits: int, axis: int) -> OverflowReport:
    """Flag channels whose per-channel asymmetric raw zero-point leaves the grid.

    By construction this is exactly the set of channels with r_min > 0 (or
    r_max < 0 at the other end).
    """
    data = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=_F32)
    if not -data.ndim <= axis < data.ndim:
        raise QuantError(f"axis {axis} invalid for shape {data.shape}")
    r_min, r_max, _ = channel_ranges(data, axis)
    sc = floor_scale((r_max - r_min) / (2 ** bits - 1))
    raw, _ = _asym_zero_points(r_min, sc, bits)
    q_min, q_max = grid_range(bits)
    flagged = (raw < q_min) | (raw > q_max)
    channels = tuple(
        ChannelOverflow(channel=i, r_min=float(r_min[i]), r_max=float(r_max[i]),
                        zero_point_raw=float(raw[i]), flagged=bool(flagged[i]))
        for i in range(r_min.shape[0]))
    return OverflowReport(bits=bits, axis=axis % data.ndim, channels=channels)
