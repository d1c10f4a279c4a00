import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyquant.graph as graph_module
from hyquant.bridge import resolve_bridge_blocks, units_for
from hyquant.calib import pass1_cache_fp, pass2_cache_gradients
from hyquant.cli import with_mode
from hyquant.quant import (QuantError, QuantParams, SCALE_FLOOR,
                           detect_zero_point_overflow, fit_minmax, grid_range,
                           params_for_scale, quantize_dequantize)
from hyquant.tensor import Tape, Tensor, backward
from hyquant.zoo import FIXTURES, build_fixture
from oracles import raw_zero_point_oracle

F32 = np.float32


def t(data):
    return Tensor(np.asarray(data, dtype=F32))


class TestRounding:
    def test_kernel_rounds_ties_to_even(self):
        p = QuantParams(bits=8, scheme="symmetric", granularity="per_layer",
                        channel_axis=None, scale=1.0, zero_point=0,
                        zero_point_raw=0.0)
        out = quantize_dequantize(t([0.5, 1.5, 2.5, -0.5, -2.5]), p).data
        # half away from zero would give [1, 2, 3, -1, -3]
        assert out.tobytes() == np.array([0, 2, 2, -0.0, -2], F32).tobytes()


class TestFitMinmax:
    def test_symmetric_formula(self):
        p = fit_minmax(t([-1.0, 1.0]), 8, "symmetric", "per_layer")
        assert p.scale == pytest.approx(1.0 / 127.0)
        assert p.zero_point == 0
        assert not p.any_clamped

    def test_asymmetric_formula(self):
        p = fit_minmax(t([0.0, 2.55]), 8, "asymmetric", "per_layer")
        assert p.scale == pytest.approx(0.01)
        assert float(p.zero_point_raw) == pytest.approx(-128.0)
        assert int(p.zero_point) == -128
        assert not p.any_clamped

    def test_zero_point_rounds_ties_to_even(self):
        # scale (253.5 + 1.5) / 255 = 1, raw zero-point -128 + 1.5 = -126.5
        p = fit_minmax(t([-1.5, 253.5]), 8, "asymmetric", "per_layer")
        assert float(p.scale) == 1.0 and float(p.zero_point_raw) == -126.5
        assert int(p.zero_point) == -126  # half away from zero gives -127
        assert not p.any_clamped

    def test_all_positive_channel_is_clamped(self):
        # r_min > 0 forces the raw zero-point below the grid
        p = fit_minmax(t(np.linspace(0.5, 1.5, 64)), 8, "asymmetric", "per_layer")
        scale = (1.5 - 0.5) / 255.0
        assert float(p.zero_point_raw) == pytest.approx(-128.0 - 0.5 / scale, rel=1e-5)
        assert float(p.zero_point_raw) < -128.0
        assert int(p.zero_point) == -128
        assert p.any_clamped

    def test_per_channel_fit(self):
        data = np.stack([np.linspace(-1, 1, 10), np.linspace(-4, 4, 10)]).astype(F32)
        p = fit_minmax(t(data), 8, "symmetric", "per_channel", channel_axis=0)
        np.testing.assert_allclose(p.scale, [1.0 / 127, 4.0 / 127], rtol=1e-6)

    def test_degenerate_constant_range_floors_scale(self):
        p = fit_minmax(t(np.zeros(8)), 8, "asymmetric", "per_layer")
        assert float(p.scale) == pytest.approx(SCALE_FLOOR)
        # all-zero input round-trips exactly
        out = quantize_dequantize(t(np.zeros(8)), p).data
        np.testing.assert_array_equal(out, np.zeros(8, F32))

    def test_empty_tensor_rejected(self):
        with pytest.raises(QuantError, match="empty"):
            fit_minmax(Tensor(np.zeros((0,), F32)), 8, "symmetric", "per_layer")

    def test_one_bit_supported_for_probes(self):
        p = fit_minmax(t([-2.0, 2.0]), 1, "symmetric", "per_layer")
        assert grid_range(1) == (-1, 0)
        assert float(p.scale) == pytest.approx(2.0)

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(QuantError):
            grid_range(0)
        with pytest.raises(QuantError):
            grid_range(33)


class TestQuantizeDequantize:
    @settings(max_examples=60, deadline=None)
    @given(bits=st.sampled_from([2, 4, 6, 8]),
           scheme=st.sampled_from(["symmetric", "asymmetric"]),
           seed=st.integers(0, 10_000))
    def test_round_trip_bound_per_layer(self, bits, scheme, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 2, 256).astype(F32)
        x[0], x[1] = -abs(x).max() - 0.1, abs(x).max() + 0.1  # span zero
        p = fit_minmax(t(x), bits, scheme, "per_layer")
        assert not p.any_clamped
        err = np.abs(quantize_dequantize(t(x), p).data - x)
        assert err.max() <= float(p.scale) / 2 + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(bits=st.sampled_from([6, 8]),
           scheme=st.sampled_from(["symmetric", "asymmetric"]),
           seed=st.integers(0, 10_000))
    def test_round_trip_bound_per_channel(self, bits, scheme, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (4, 64)) * np.array([[0.1], [1], [5], [20]])
        x = x.astype(F32)
        x[:, 0] = -np.abs(x).max(axis=1) - 0.1
        x[:, 1] = np.abs(x).max(axis=1) + 0.1
        p = fit_minmax(t(x), bits, scheme, "per_channel", channel_axis=0)
        assert not p.any_clamped
        err = np.abs(quantize_dequantize(t(x), p).data - x)
        assert (err <= p.scale[:, None] / 2 + 1e-6).all()

    def test_per_channel_bound_never_worse_than_per_layer_absent_clamping(self):
        # channel range is a subset of the layer range, so every channel scale
        # (and with it the worst-case error bound) is <= the layer scale
        rng = np.random.default_rng(7)
        x = (rng.normal(0, 1, (6, 128)) * rng.uniform(0.05, 8, (6, 1))).astype(F32)
        x[:, 0] = -np.abs(x).max(axis=1)  # every channel spans zero
        pl = fit_minmax(t(x), 8, "symmetric", "per_layer")
        pc = fit_minmax(t(x), 8, "symmetric", "per_channel", channel_axis=0)
        assert (pc.scale <= float(pl.scale) + 1e-12).all()
        err_pc = np.abs(quantize_dequantize(t(x), pc).data - x)
        assert (err_pc.max(axis=1) <= pc.scale / 2 + 1e-6).all()
        assert (err_pc.max(axis=1) <= float(pl.scale) / 2 + 1e-6).all()
        # and the aggregate error drops channel by channel on spread ranges
        err_pl = np.abs(quantize_dequantize(t(x), pl).data - x)
        assert ((err_pc ** 2).mean(axis=1) <= (err_pl ** 2).mean(axis=1) + 1e-10).all()

    def test_clamped_channel_collapses_values(self):
        # values well above zero with a narrow spread: the clamped zero-point
        # reconstructs the whole grid of inputs as one value
        x = np.linspace(3.9, 4.1, 50).astype(F32)
        p = fit_minmax(t(x), 8, "asymmetric", "per_layer")
        assert p.any_clamped
        out = quantize_dequantize(t(x), p).data
        assert len(np.unique(x)) >= 10
        assert len(np.unique(out)) <= 2

    def test_per_layer_asym_beats_per_channel_asym_under_clamping(self):
        # one strictly-positive narrow channel + one spanning channel: layer-wise
        # keeps r_min <= 0 and avoids the collapse
        chan_bad = np.linspace(3.9, 4.1, 128)
        chan_ok = np.linspace(-4.0, 4.0, 128)
        x = np.stack([chan_bad, chan_ok]).astype(F32)
        pl = fit_minmax(t(x), 8, "asymmetric", "per_layer")
        pc = fit_minmax(t(x), 8, "asymmetric", "per_channel", channel_axis=0)
        assert not pl.any_clamped and pc.any_clamped
        mse_pl = np.mean((quantize_dequantize(t(x), pl).data - x) ** 2)
        mse_pc = np.mean((quantize_dequantize(t(x), pc).data - x) ** 2)
        assert mse_pl < mse_pc

    def test_symmetric_zero_maps_to_zero(self):
        p = fit_minmax(t([-3.0, 1.0, 3.0]), 8, "symmetric", "per_layer")
        out = quantize_dequantize(t([0.0]), p).data
        assert out[0] == 0.0

    def test_channel_count_mismatch_error(self):
        p = fit_minmax(t(np.random.default_rng(0).normal(0, 1, (4, 8)).astype(F32)),
                       8, "symmetric", "per_channel", channel_axis=0)
        with pytest.raises(QuantError, match="channels"):
            quantize_dequantize(t(np.zeros((5, 8))), p)

    @pytest.mark.parametrize("axis", [2, 3, -3])
    def test_channel_axis_out_of_range_error(self, axis):
        # a square tensor has the right channel count along any axis, so
        # only the range check stops an axis it does not have
        x = np.random.default_rng(0).normal(0, 1, (4, 4)).astype(F32)
        p = fit_minmax(t(x), 8, "symmetric", "per_channel", channel_axis=0)
        p = QuantParams(bits=8, scheme="symmetric", granularity="per_channel",
                        channel_axis=axis, scale=p.scale,
                        zero_point=p.zero_point,
                        zero_point_raw=p.zero_point_raw)
        with pytest.raises(QuantError, match=f"channel_axis {axis} is out"):
            quantize_dequantize(t(x), p)

    def test_high_bit_stub_is_near_identity(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 3, 512).astype(F32)
        p = fit_minmax(t(x), 32, "symmetric", "per_layer")
        out = quantize_dequantize(t(x), p).data
        assert np.abs(out - x).max() < 1e-4


def _param_shape(p: QuantParams, ndim: int):
    """Shape that broadcasts p's scale and zero-point against ndim axes."""
    if p.granularity != "per_channel":
        return ()
    shape = [1] * ndim
    shape[p.channel_axis % ndim] = -1
    return shape


def reference_fake_quant(x: np.ndarray, p: QuantParams):
    """The formula quantize_dequantize must reproduce bit for bit, float32
    throughout with ties rounded to even; also returns the unclipped codes."""
    sc = p.scale.astype(F32).reshape(_param_shape(p, x.ndim))
    zp = p.zero_point.astype(F32).reshape(_param_shape(p, x.ndim))
    r = np.rint(x.astype(F32) / sc + zp)
    q = np.clip(r, F32(p.q_min), F32(p.q_max))
    return (q - zp) * sc, r


def reference_quantize_dequantize(t, p, tape=None):
    """quantize_dequantize from the reference formula, with a float32 0/1
    straight-through mask."""
    out, r = reference_fake_quant(t.data, p)
    if tape is None or t.node is None:
        return Tensor._wrap(out)
    mask = ((r >= p.q_min) & (r <= p.q_max)).astype(F32)
    parent = t.node
    nid = tape.record(out.shape, lambda g: [(parent, g * mask)])
    return Tensor._wrap(out, nid)


def power_of_two_params(bits, scheme, axis, channels, rng):
    """Params with power-of-two scales, so that chosen inputs land exactly
    on .5 ties, and random in-grid zero-points for the asymmetric scheme."""
    q_min, q_max = grid_range(bits)
    n = 1 if axis is None else channels
    scale = 2.0 ** rng.integers(-6, 2, n)
    zp = np.zeros(n, np.int32) if scheme == "symmetric" else \
        rng.integers(max(q_min, -100), min(q_max, 100) + 1, n).astype(np.int32)
    if axis is None:
        scale, zp = scale[0], zp[0]
    return QuantParams(bits=bits, scheme=scheme,
                       granularity="per_layer" if axis is None else "per_channel",
                       channel_axis=axis, scale=scale, zero_point=zp,
                       zero_point_raw=np.asarray(zp, np.float64))


def hard_inputs(shape, p: QuantParams, rng) -> np.ndarray:
    """Normal values, a quarter of them replaced by exact .5 ties, a quarter
    by +-0.0 and a quarter by values beyond either clip bound."""
    x = np.asarray(rng.normal(0, 4, shape), dtype=F32)
    flat = x.reshape(-1)
    ps = _param_shape(p, len(shape))
    sc = np.broadcast_to(p.scale.astype(np.float64).reshape(ps), shape).reshape(-1)
    zp = np.broadcast_to(p.zero_point.astype(np.float64).reshape(ps),
                         shape).reshape(-1)
    ties, zeros, far = np.array_split(
        rng.permutation(flat.size)[: 3 * flat.size // 4], 3)
    flat[ties] = (rng.integers(-700, 700, ties.size) + 0.5 - zp[ties]) * sc[ties]
    flat[zeros] = np.where(rng.random(zeros.size) < 0.5, -0.0, 0.0)
    bound = np.where(rng.random(far.size) < 0.5, p.q_min - 1.0, p.q_max + 1.0)
    flat[far] = (bound * rng.uniform(1, 4, far.size) - zp[far]) * sc[far]
    return x


KERNEL_SHAPES = [(), (7,), (49163,), (2, 3, 5, 4), (5, 6, 40, 40), (53, 4, 250)]


class TestKernelAgainstReference:
    @pytest.mark.parametrize("bits", [1, 2, 4, 6, 8, 16, 32])
    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    def test_bytes_equal_reference_formula(self, bits, scheme):
        rng = np.random.default_rng(bits * 7 + len(scheme))
        for shape in KERNEL_SHAPES:
            for axis in (None, 0, 1, -1):
                if axis is not None and len(shape) <= (1 if axis == 1 else 0):
                    continue
                channels = shape[axis] if axis is not None else 1
                p = power_of_two_params(bits, scheme, axis, channels, rng)
                x = hard_inputs(shape, p, rng)
                got = quantize_dequantize(t(x), p).data
                want, _ = reference_fake_quant(x, p)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (shape, axis)

    def test_inputs_cover_ties_zeros_and_both_bounds(self):
        rng = np.random.default_rng(0)
        p = power_of_two_params(6, "symmetric", None, 1, rng)
        x = hard_inputs((64, 50), p, rng)
        y = x.astype(np.float64) / float(p.scale)
        assert np.any(y - np.floor(y) == 0.5)
        assert np.any((x == 0) & np.signbit(x)) and np.any((x == 0) & ~np.signbit(x))
        assert np.any(y < p.q_min - 1) and np.any(y > p.q_max + 1)
        out, _ = reference_fake_quant(x, p)
        assert np.any((out == 0) & np.signbit(out))

    @pytest.mark.parametrize("bits", [2, 6, 8])
    @pytest.mark.parametrize("axis", [None, 0, -1])
    def test_ste_gradient_is_g_times_unclipped_code_mask(self, bits, axis):
        rng = np.random.default_rng(bits + (axis or 0) + 10)
        shape = (53, 1000)
        p = power_of_two_params(bits, "asymmetric", axis, shape[axis or 0], rng)
        x = hard_inputs(shape, p, rng)
        # codes that round to just outside the grid, and ones whose unclipped
        # value lies past a bound but rounds back onto it
        sc, zp = p.scale.astype(np.float64), p.zero_point
        if axis == 0:
            sc, zp = sc[:, None], zp[:, None]
        elif axis == -1:
            sc, zp = sc[:6], zp[:6]
        edge = np.array([p.q_min - 1, p.q_min - 0.6, p.q_min - 0.4,
                         p.q_max + 0.4, p.q_max + 0.6, p.q_max + 1])
        x[:, :6] = ((edge - zp) * sc).astype(F32)
        tape = Tape()
        xt = tape.leaf(t(x))
        tape.watch(xt.node)
        out = quantize_dequantize(xt, p, tape)
        g = rng.normal(0, 1, shape).astype(F32)
        got = backward(Tensor(g), tape)[xt.node].data
        want_out, r = reference_fake_quant(x, p)
        in_grid = (r >= p.q_min) & (r <= p.q_max)
        assert out.data.tobytes() == want_out.tobytes()
        assert got.tobytes() == (g * in_grid.astype(F32)).tobytes()
        assert np.any(r == p.q_min - 1) and np.any(r == p.q_max + 1)
        assert np.any(~in_grid) and np.any(in_grid[:, :6])

    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("mode", ["partial", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_pass2_gradients_equal_reference_formula_run(self, monkeypatch,
                                                          name, mode, bits):
        graph, calib, _, _ = build_fixture(name)
        graph = with_mode(graph, mode)
        units = units_for(graph, resolve_bridge_blocks(graph,
                                                        graph.bridge_annotations))

        def unit_grads():
            cache = pass1_cache_fp(graph, calib, units)
            pass2_cache_gradients(graph, calib, units, cache, bits)
            return cache.unit_grads

        got = unit_grads()
        monkeypatch.setattr(graph_module, "quantize_dequantize",
                            reference_quantize_dequantize)
        want = unit_grads()
        assert got.keys() == want.keys()
        assert any(np.any(g) for g in got.values())
        for key in got:
            assert got[key].tobytes() == want[key].tobytes(), key


def arbitrary_params(bits, scheme, axis, rng):
    """Params with random float32 scales that are not powers of two, one
    below 2 and one at least 2 (per channel: three channels, the third
    random), and random in-grid zero-points for the asymmetric scheme."""
    q_min, q_max = grid_range(bits)
    n = 2 if axis is None else 3
    exp = np.array([rng.integers(-8, 1), rng.integers(1, 4),
                    rng.integers(-8, 4)])[:n]
    scale = (rng.uniform(1.01, 1.99, n) * 2.0 ** exp).astype(F32)
    zp = np.zeros(n, np.int32) if scheme == "symmetric" else \
        rng.integers(q_min, q_max + 1, n).astype(np.int32)

    def params(granularity, sc, z):
        return QuantParams(bits=bits, scheme=scheme, granularity=granularity,
                           channel_axis=axis, scale=sc, zero_point=z,
                           zero_point_raw=z.astype(np.float64))

    if axis is None:
        return [params("per_layer", scale[i], zp[i]) for i in range(n)]
    return [params("per_channel", scale, zp)]


def near_ties(bits, scale, zp, rng):
    """float32 inputs 0-4 ulps either side of the preimage of every
    half-integer code from q_min - 1.5 to q_max + 1.5 (at bits > 16, of the
    ones within 64 of either bound or of zero, plus 4096 random ones), then
    +-0.0 and the four negative subnormals closest to zero."""
    q_min, q_max = grid_range(bits)
    if bits <= 16:
        half = np.arange(q_min - 2, q_max + 2) + 0.5
    else:
        half = np.concatenate([np.arange(q_min - 64, q_min + 64),
                               np.arange(-64, 64),
                               np.arange(q_max - 64, q_max + 64),
                               rng.integers(q_min, q_max, 4096)]) + 0.5
    x0 = ((half - float(zp)) * float(scale)).astype(F32)
    steps = [x0]
    for direction in (np.inf, -np.inf):
        x = x0
        for _ in range(4):
            x = np.nextafter(x, F32(direction))
            steps.append(x)
    tiny = np.array([-0.0, 0.0, *(-k * 2.0 ** -149 for k in range(1, 5))], F32)
    return np.concatenate(steps + [tiny])


class TestFloat32KernelStress:
    """The kernel near ties, against the reference formula, with scales
    whose preimages of half-integers do not land exactly on float32
    inputs."""

    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24])
    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("axis", [None, 0, -1])
    def test_bytes_and_mask_equal_reference_formula(self, bits, scheme, axis):
        rng = np.random.default_rng(bits * 11 + len(scheme) + (axis or 0) * 3)
        for p in arbitrary_params(bits, scheme, axis, rng):
            if axis is None:
                x = near_ties(bits, p.scale, p.zero_point, rng)
            else:
                x = np.stack([near_ties(bits, s, z, rng)
                              for s, z in zip(p.scale, p.zero_point)])
                if axis == -1:
                    x = np.ascontiguousarray(x.T)
            tape = Tape()
            xt = tape.leaf(t(x))
            tape.watch(xt.node)
            out = quantize_dequantize(xt, p, tape)
            g = rng.normal(0, 1, x.shape).astype(F32)
            got = backward(Tensor(g), tape)[xt.node].data
            want, r = reference_fake_quant(x, p)
            in_grid = (r >= p.q_min) & (r <= p.q_max)
            assert out.data.tobytes() == want.tobytes()
            assert got.tobytes() == (g * in_grid.astype(F32)).tobytes()

    def test_inputs_reach_ties_that_half_away_rounds_apart_and_underflow(self):
        rng = np.random.default_rng(5)
        p_small, p_big = arbitrary_params(8, "symmetric", None, rng)
        assert p_big.scale >= 2
        for p in (p_small, p_big):
            y = near_ties(8, p.scale, 0, rng) / p.scale
            tie = np.abs(y - np.rint(y)) == 0.5
            away = np.sign(y) * np.floor(np.abs(y) + 0.5)
            # float32 ties on both odd and even codes, so half to even and
            # half away from zero give different codes on some of them
            assert np.any(tie & (np.rint(y) != away))
            assert np.any(tie & (np.rint(y) == away))
        # negative subnormals whose x / scale underflows to -0.0, which
        # + zero-point makes +0.0
        sub = near_ties(8, p_big.scale, 0, rng)[-4:]
        under = sub / p_big.scale == 0
        assert np.any(under) and np.all(sub < 0)
        assert not np.any(np.signbit(reference_fake_quant(sub, p_big)[0][under]))


class TestParamsForScale:
    def test_keeps_base_zero_point(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.5, 1, 128).astype(F32)
        base = fit_minmax(t(x), 8, "asymmetric", "per_layer")
        p, = params_for_scale(base, np.asarray([0.05]))
        assert float(p.scale) == pytest.approx(0.05)
        assert int(p.zero_point) == int(base.zero_point)
        assert float(p.zero_point_raw) == float(base.zero_point_raw)

    def test_floors_zero_candidate(self):
        base = fit_minmax(t([-1.0, 1.0]), 8, "symmetric", "per_layer")
        p, = params_for_scale(base, np.asarray([0.0]))
        assert float(p.scale) == pytest.approx(SCALE_FLOOR)

    def test_rows_equal_params_built_one_by_one(self):
        x = t(np.linspace(-1.0, 3.0, 24).reshape(4, 6))
        base = fit_minmax(x, 6, "asymmetric", "per_channel", 0)
        rows = np.linspace(0.0, 0.2, 12).reshape(3, 4)
        got = params_for_scale(base, rows)
        assert got == [QuantParams(
            bits=6, scheme="asymmetric", granularity="per_channel",
            channel_axis=0, scale=np.maximum(r, SCALE_FLOOR),
            zero_point=base.zero_point, zero_point_raw=base.zero_point_raw)
            for r in rows]
        assert all(p.scale.dtype == F32 and p.scale.shape == (4,) for p in got)

    def test_scale_too_large_for_float32_refused(self):
        base = fit_minmax(t([-1.0, 1.0]), 8, "symmetric", "per_layer")
        with pytest.raises(QuantError, match="finite as float32"):
            params_for_scale(base, np.asarray([0.1, 1e300]))

    def test_shape_mismatch_rejected(self):
        base = fit_minmax(t([-1.0, 1.0]), 8, "symmetric", "per_layer")
        for scales in (0.1, [[0.1, 0.2]]):  # not rows of a scalar scale
            with pytest.raises(QuantError, match="rows"):
                params_for_scale(base, np.asarray(scales))


class TestOverflowDetection:
    def test_channels_spanning_zero_are_clean(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (6, 100)).astype(F32)
        x[:, 0] = -1.0
        rep = detect_zero_point_overflow(t(x), 8, axis=0)
        assert not any(c.flagged for c in rep.channels)
        assert len(rep.channels) == 6

    def test_positive_channel_flagged(self):
        x = np.stack([np.linspace(0.5, 1.5, 32),
                      np.linspace(-1.0, 1.0, 32)]).astype(F32)
        rep = detect_zero_point_overflow(t(x), 8, axis=0)
        assert [c.flagged for c in rep.channels] == [True, False]

    def test_negative_channel_flagged_at_other_end(self):
        x = np.stack([np.linspace(-1.5, -0.5, 32),
                      np.linspace(-1.0, 1.0, 32)]).astype(F32)
        rep = detect_zero_point_overflow(t(x), 8, axis=0)
        assert [c.flagged for c in rep.channels] == [True, False]
        assert rep.channels[0].zero_point_raw > 127

    @settings(max_examples=60, deadline=None)
    @given(bits=st.sampled_from([6, 8]), seed=st.integers(0, 10_000))
    def test_flags_equal_brute_force_raw_zero_points(self, bits, seed):
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(-3, 3, 8)
        x = (rng.normal(0, 0.8, (8, 64)) + offsets[:, None]).astype(F32)
        rep = detect_zero_point_overflow(t(x), bits, axis=0)
        q_min, q_max = grid_range(bits)
        for ch in rep.channels:
            raw = raw_zero_point_oracle(x[ch.channel], bits)
            assert ch.zero_point_raw == pytest.approx(raw, rel=1e-9)
            assert ch.flagged == (raw < q_min or raw > q_max)
            assert ch.flagged == (x[ch.channel].min() > 0 or x[ch.channel].max() < 0)


class TestQuantParamsValidation:
    def test_symmetric_requires_zero_zp(self):
        with pytest.raises(QuantError, match="zero_point"):
            QuantParams(bits=8, scheme="symmetric", granularity="per_layer",
                        channel_axis=None, scale=np.asarray(0.1, F32),
                        zero_point=np.asarray(3), zero_point_raw=np.asarray(3.0))

    def test_scale_must_be_positive(self):
        with pytest.raises(QuantError, match="positive"):
            QuantParams(bits=8, scheme="symmetric", granularity="per_layer",
                        channel_axis=None, scale=np.asarray(0.0, F32),
                        zero_point=np.asarray(0), zero_point_raw=np.asarray(0.0))

    def test_stored_zp_must_fit_grid(self):
        with pytest.raises(QuantError, match="grid"):
            QuantParams(bits=8, scheme="asymmetric", granularity="per_layer",
                        channel_axis=None, scale=np.asarray(0.1, F32),
                        zero_point=np.asarray(400), zero_point_raw=np.asarray(400.0))

    @pytest.mark.parametrize("granularity, scale, zp, raw", [
        ("per_layer", [0.1, 0.2], 0, 0.0),
        ("per_channel", [0.1, 0.2], [0, 0, 0], [0.0, 0.0]),
        ("per_channel", 0.1, 0, 0.0),
        ("per_channel", [[0.1, 0.2]], [[0, 0]], [[0.0, 0.0]]),
    ], ids=["per-layer-vector", "per-channel-lengths", "per-channel-scalar",
            "per-channel-2d"])
    def test_shapes_must_fit_granularity(self, granularity, scale, zp, raw):
        with pytest.raises(QuantError, match=f"{granularity} params need"):
            QuantParams(bits=8, scheme="symmetric", granularity=granularity,
                        channel_axis=0, scale=np.asarray(scale, F32),
                        zero_point=np.asarray(zp), zero_point_raw=np.asarray(raw))

    def test_per_channel_needs_axis(self):
        with pytest.raises(QuantError, match="channel_axis"):
            QuantParams(bits=8, scheme="symmetric", granularity="per_channel",
                        channel_axis=None, scale=np.asarray([0.1], F32),
                        zero_point=np.asarray([0]), zero_point_raw=np.asarray([0.0]))


class TestQuantParamsEquality:
    @staticmethod
    def per_channel(scale=(0.1, 0.2), zp=(3, -2), raw=(3.25, -2.5)):
        return QuantParams(bits=8, scheme="asymmetric", granularity="per_channel",
                           channel_axis=0, scale=np.asarray(scale, F32),
                           zero_point=np.asarray(zp), zero_point_raw=np.asarray(raw))

    def test_equal_per_channel_params_compare_equal(self):
        a, b = self.per_channel(), self.per_channel()
        assert a == b and not a != b
        assert {"site": a} == {"site": b}

    def test_a_differing_scale_compares_unequal(self):
        a, b = self.per_channel(), self.per_channel(scale=(0.1, 0.3))
        assert a != b and not a == b
        assert a != self.per_channel(raw=(3.25, -2.25))

    def test_per_layer_params_compare_by_value(self):
        x = t(np.linspace(-1.0, 3.0, 64))
        a = fit_minmax(x, 8, "asymmetric", "per_layer")
        assert a == fit_minmax(x, 8, "asymmetric", "per_layer")
        assert a != fit_minmax(x, 8, "symmetric", "per_layer")
        assert a != fit_minmax(x, 6, "asymmetric", "per_layer")
        assert a != params_for_scale(a, np.asarray([0.5]))[0]
