import hashlib
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyquant.calib as C
import hyquant.quant as quant_module
from hyquant.bridge import resolve_bridge_blocks, units_for
from hyquant.calib import (CalibError, CalibOptions, SearchSpace, calibrate,
                           cosine_distance, generate_candidates, objective,
                           pass1_cache_fp, pass2_cache_gradients, search_unit)
from hyquant.cli import qconfig_to_doc, with_mode
from hyquant.graph import (GRAPH_INPUT, Graph, LayerSpec, forward_fp,
                           forward_quant, run_layer, site_hook, taped_ops)
from hyquant.quant import channel_ranges, fit_minmax, params_for_scale
from hyquant.tensor import Tensor, cross_entropy
from hyquant.zoo import FIXTURES, build_fixture
from oracles import dense_objective_oracle, plain_coordinate_descent

F32 = np.float32


def t(data):
    return Tensor(np.asarray(data, dtype=F32))


def linear_graph(weights, input_dim):
    layers = []
    for i, w in enumerate(weights):
        layers.append(LayerSpec(i, "linear", {}, [i - 1], {"w": t(w)}))
    return Graph(layers=layers, input_shape=(input_dim,))


def fixture_units(graph):
    return units_for(graph, resolve_bridge_blocks(graph, graph.bridge_annotations))


class TestObjective:
    def test_hand_case(self):
        assert objective(t([1.0, 2.0]), t([3.0, 4.0])) == pytest.approx(73.0)

    def test_zero_delta_gives_zero(self):
        assert objective(t(np.zeros((3, 4))), t(np.ones((3, 4)))) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(CalibError, match="shapes"):
            objective(t(np.zeros(3)), t(np.zeros(4)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), size=st.integers(1, 40))
    def test_matches_dense_hessian_oracle(self, seed, size):
        rng = np.random.default_rng(seed)
        d = rng.normal(0, 2, size).astype(F32)
        g = rng.normal(0, 2, size).astype(F32)
        want = dense_objective_oracle(d, g)
        assert objective(t(d), t(g)) == pytest.approx(want, abs=1e-6, rel=1e-9)

    # every size to 300 (the pieces of numpy's pairwise_sum: < 8, an
    # 8-unrolled block to 128, halves above), one leaf and two leaves at
    # their edges, and a few trees of many leaves
    @pytest.mark.parametrize("sizes", [range(1, 301), [
        b + k for b in (2 ** 14, 2 ** 15) for k in (-9, -8, -7, -1, 0,
                                                         1, 7, 8, 9)],
        [3 * 2 ** 14 + 5, 100_003, 2 ** 20 + 12_345, 2 ** 21]])
    def test_leaf_tree_sum_equals_add_reduce(self, sizes):
        """_g2_weighted sums leaf by leaf, yet has the bits of one
        np.add.reduce over the whole product, in every form it takes: g^2
        kept or made per leaf, a difference or a value."""
        rng = np.random.default_rng(len(sizes))
        for n in sizes:
            # magnitudes over 16 binades, so that the order of the sum shows
            o = (rng.normal(0, 1, n) * 2.0 ** rng.integers(-8, 8, n)).astype(F32)
            ref = rng.normal(0, 1, n).astype(F32)
            same = rng.random(n) < 0.1  # exact zeros of the difference
            ref[same] = o[same]
            o[rng.random(n) < 0.1] = 0.0
            g = rng.normal(0, 1, n).astype(F32)
            g[rng.random(n) < 0.1] = 0.0
            g2 = np.multiply(g, g, dtype=np.float64)
            for r in (ref, None):
                d64 = o.astype(np.float64) - (0.0 if r is None else r)
                want = float(np.add.reduce(d64 * d64 * g2)).hex()
                assert C._g2_weighted(o, r, g).hex() == want, (n, r is None)
                assert C._g2_weighted(o, r, g, g2).hex() == want, (n, r is None)


class TestCosine:
    def test_identical_tensors_give_zero(self):
        x = np.random.default_rng(0).normal(0, 1, 32)
        assert cosine_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_gives_one(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == \
            pytest.approx(1.0)

    def test_zero_norms(self):
        # two zero vectors are alike; a zero vector is unlike any other
        z, x = np.zeros(3), np.array([1.0, -2.0, 0.5])
        assert cosine_distance(z, z) == 0.0
        assert cosine_distance(z, x) == 1.0 and cosine_distance(x, z) == 1.0


class TestGenerateCandidates:
    def test_formula_example(self):
        x = np.zeros(16, F32)
        x[3] = 2.4
        space = SearchSpace(alpha=0.0, beta=1.2, candidates=3)
        cands = generate_candidates(t(x), 8, space, "per_layer")
        np.testing.assert_allclose(cands, [0.0, 0.01125, 0.0225], atol=1e-12)

    def test_alpha_equals_beta_collapses(self):
        space = SearchSpace(alpha=1.0, beta=1.0, candidates=4)
        cands = generate_candidates(t([-2.0, 2.0]), 8, space, "per_layer")
        np.testing.assert_allclose(cands, np.full(4, 2.0 / 128))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 32),
           bits=st.sampled_from([6, 8]))
    def test_sorted_ascending_with_length_n(self, seed, n, bits):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 3, 64).astype(F32)
        space = SearchSpace(alpha=0.1, beta=1.4, candidates=n)
        cands = generate_candidates(t(x), bits, space, "per_layer")
        assert cands.shape == (n,)
        assert (np.diff(cands) >= 0).all()

    def test_per_channel_uses_channel_maxima(self):
        x = np.stack([np.linspace(-1, 1, 8), np.linspace(-4, 4, 8)]).astype(F32)
        space = SearchSpace(alpha=0.0, beta=1.0, candidates=2)
        cands = generate_candidates(t(x), 8, space, "per_channel", channel_axis=0)
        assert cands.shape == (2, 2)
        np.testing.assert_allclose(cands[1], [1.0 / 128, 4.0 / 128])

    @pytest.mark.parametrize("axis", [-1, 1])
    def test_per_channel_uses_channel_maxima_of_3d_tensor(self, axis):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (2, 3, 4)).astype(F32)
        x *= np.arange(1, x.shape[axis] + 1, dtype=F32).reshape(
            [-1 if a == axis % 3 else 1 for a in range(3)])
        others = tuple(a for a in range(3) if a != axis % 3)
        absmax = np.abs(x).max(axis=others).astype(np.float64)
        space = SearchSpace(alpha=0.0, beta=1.0, candidates=2)
        cands = generate_candidates(t(x), 8, space, "per_channel",
                                    channel_axis=axis)
        assert cands.shape == (2, x.shape[axis])
        assert cands[0].tolist() == [0.0] * x.shape[axis]
        assert cands[1].tolist() == (absmax / 128).tolist()

    def test_empty_tensor_rejected(self):
        with pytest.raises(CalibError, match="empty"):
            generate_candidates(Tensor(np.zeros((0,), F32)), 8,
                                SearchSpace(), "per_layer")


class TestSpaceAndOptions:
    def test_alpha_above_beta_rejected(self):
        with pytest.raises(CalibError):
            SearchSpace(alpha=2.0, beta=1.0)

    def test_single_candidate_and_equal_bounds_allowed(self):
        SearchSpace(alpha=1.0, beta=1.0, candidates=1)

    @pytest.mark.parametrize("alpha,beta,match", [
        (-3.0, -1.0, "alpha -3.0 must not be negative"),
        (-0.5, 1.2, "alpha -0.5 must not be negative"),
        (0.0, 0.0, "beta 0.0 must be positive"),
        (0.0, -1.0, "beta -1.0 must be positive"),
    ])
    def test_range_without_positive_scale_rejected(self, alpha, beta, match):
        # every multiplier <= 0 is floored to the same SCALE_FLOOR scale
        with pytest.raises(CalibError, match=match):
            SearchSpace(alpha=alpha, beta=beta)

    def test_flag_chain_enforced(self):
        with pytest.raises(CalibError, match="granularity"):
            CalibOptions(scale_search=False, granularity_search=True)
        with pytest.raises(CalibError, match="scheme"):
            CalibOptions(scheme_search=True, granularity_search=False,
                         scale_search=True)

    def test_unknown_metric_rejected(self):
        with pytest.raises(CalibError, match="metric"):
            CalibOptions(metric="manhattan")


class TestPass1:
    def test_identity_graph_caches_input(self):
        g = linear_graph([np.eye(4, dtype=F32)], 4)
        batch = t(np.random.default_rng(0).normal(0, 1, (8, 4)).astype(F32))
        cache = pass1_cache_fp(g, batch, fixture_units(g))
        np.testing.assert_array_equal(cache.unit_outputs[0], batch.data)
        np.testing.assert_array_equal(cache.unit_inputs[0][-1], batch.data)

    def test_cache_shapes_match_forward_watch(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        units = fixture_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        _, outs = forward_fp(graph, calib, watch={u.output_id for u in units})
        for u in units:
            assert cache.unit_outputs[u.output_id].shape == \
                outs[u.output_id].shape

    def test_rerun_is_bit_identical(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        units = fixture_units(graph)
        c1 = pass1_cache_fp(graph, calib, units)
        c2 = pass1_cache_fp(graph, calib, units)
        assert c1.logits_fp.tobytes() == c2.logits_fp.tobytes()
        for k in c1.unit_outputs:
            assert c1.unit_outputs[k].tobytes() == c2.unit_outputs[k].tobytes()

    def test_empty_batch_rejected(self):
        g = linear_graph([np.eye(4, dtype=F32)], 4)
        with pytest.raises(CalibError, match="empty"):
            pass1_cache_fp(g, Tensor(np.zeros((0, 4), F32)), fixture_units(g))

    def test_scalar_batch_rejected(self):
        g = linear_graph([np.eye(4, dtype=F32)], 4)
        with pytest.raises(CalibError, match="sample axis"):
            pass1_cache_fp(g, Tensor(np.float32(1.0)), fixture_units(g))


class TestSiteExtremes:
    """Pass 1 caches each site's extremes stand-in in place of its value:
    whatever calibration reads of a site reads the same from it."""

    @pytest.mark.parametrize("shape, axis", [
        ((5, 3), -1), ((5, 3), 0), ((2, 3, 4, 5), 1), ((2, 3, 4, 5), 0),
        ((2, 3, 4, 5), -1), ((6, 1, 4), 1), ((1, 7), 0)])
    def test_channel_ranges_keep_their_bytes(self, shape, axis):
        rng = np.random.default_rng(len(shape) * 10 + axis)
        v = rng.normal(0, 3, shape).astype(F32)
        v[rng.random(shape) < 0.2] = 0.0
        v[rng.random(shape) < 0.2] = -0.0
        got = C.site_extremes(v, axis)
        a = axis % v.ndim
        want_shape = [1] * v.ndim
        want_shape[a], want_shape[int(a == 0)] = v.shape[a], 2
        assert (got.shape, got.dtype) == (tuple(want_shape), v.dtype)
        for ca in (None, axis):
            for x, y in zip(channel_ranges(got, ca), channel_ranges(v, ca)):
                assert x.tobytes() == y.tobytes()

    def test_a_vector_is_kept(self):
        v = np.arange(4, dtype=F32)
        assert C.site_extremes(v, 0) is v

    @pytest.mark.parametrize("mode", ["partial", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_stand_in_fits_like_the_full_value(self, name, mode):
        graph, calib, _, _ = build_fixture(name)
        graph = with_mode(graph, mode)
        cache = pass1_cache_fp(graph, calib, fixture_units(graph))
        full = {}
        forward_fp(graph, calib, capture=full)
        space = SearchSpace(candidates=7)
        for s in graph.quant_sites:
            v, ext = full[s.key], cache.site_values[s.key]
            assert ext.size <= 2 * v.shape[s.channel_axis], s
            assert bool(np.any(ext)) == bool(np.any(v)), s
            for gran in ("per_layer", "per_channel"):
                for bits in (6, 8):
                    for scheme in ("symmetric", "asymmetric"):
                        assert fit_minmax(Tensor._wrap(ext), bits, scheme,
                                          gran, s.channel_axis) == fit_minmax(
                            Tensor._wrap(v), bits, scheme, gran,
                            s.channel_axis), (s, gran, bits, scheme)
                got = generate_candidates(ext, 8, space, gran, s.channel_axis)
                want = generate_candidates(v, 8, space, gran, s.channel_axis)
                assert got.tobytes() == want.tobytes(), (s, gran)


class TestPass2:
    def test_every_unit_gets_a_gradient(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        units = fixture_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        pass2_cache_gradients(graph, calib, units, cache, bits=8)
        assert cache.logits_fp is not None
        for u in units:
            assert cache.unit_grads[u.output_id].shape == \
                cache.unit_outputs[u.output_id].shape

    @pytest.mark.parametrize("mode", ["partial", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_searched_unit_gradients_equal_a_full_sweeps_bytes(
            self, name, mode, monkeypatch):
        # calibrate's pass 2 watches only the units it searches, so its sweep
        # stops at the lowest of them; watching every unit and the graph-input
        # leaf as well forces the sweep down to the leaves
        graph, calib, _, _ = build_fixture(name)
        graph = with_mode(graph, mode)
        every = fixture_units(graph)
        searched = [u for u in every
                    if any(graph.sites_by_layer[lid] for lid in u.layer_ids)]
        stopped = pass2_cache_gradients(
            graph, calib, searched, pass1_cache_fp(graph, calib, searched))

        def watch_input_too(graph, x, qcfg, watch=(), tape=None):
            return forward_quant(graph, x, qcfg, {*watch, GRAPH_INPUT}, tape)

        monkeypatch.setattr(C, "forward_quant", watch_input_too)
        full = pass2_cache_gradients(
            graph, calib, every, pass1_cache_fp(graph, calib, every))
        assert set(stopped.unit_grads) == {u.output_id for u in searched}
        for u in searched:
            assert stopped.unit_grads[u.output_id].tobytes() == \
                full.unit_grads[u.output_id].tobytes(), u.label

    def test_requires_pass1(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        units = fixture_units(graph)
        with pytest.raises(CalibError, match="pass 1"):
            pass2_cache_gradients(graph, calib, units, C.CalibCache(), bits=8)

    def test_logit_gradient_is_softmax_minus_onehot_on_fp_path(self):
        # with an empty qconfig, whose forward is the full-precision one bit
        # for bit, pass-2's loss gradient at the logits is exactly
        # softmax - onehot
        rng = np.random.default_rng(5)
        w = rng.normal(0, 1, (3, 4)).astype(F32)
        g = linear_graph([w], 4)
        batch = t(rng.normal(0, 1, (6, 4)).astype(F32))
        from hyquant.tensor import Tape, backward
        tape = Tape()
        logits, outs = forward_quant(g, batch, {}, watch={0}, tape=tape)
        labels = np.argmax(logits.data, axis=1)
        cross_entropy(logits, labels, tape)
        grads = backward(Tensor(1.0), tape)
        got = grads[outs[0].node].data
        probs = np.exp(logits.data - logits.data.max(1, keepdims=True))
        probs /= probs.sum(1, keepdims=True)
        onehot = np.eye(3, dtype=F32)[labels]
        np.testing.assert_allclose(got, probs - onehot, atol=1e-6)

    def test_broadcast_add_gradient_is_the_sum_over_tokens(self):
        # a manifest's add of (N, T, C) tokens and an (N, 1, C) row made by
        # a conv to 1 x 1: pass 2 caches the conv's gradient as the tokens'
        # gradients summed over T, and the mean over T gives each token
        # (softmax - onehot) / T
        rng = np.random.default_rng(13)
        n, c, hw = 6, 3, 4
        layers = [
            LayerSpec(0, "conv2d", {}, [GRAPH_INPUT],
                      {"w": t(rng.normal(0, 0.3, (c, c, hw, hw)))}),
            LayerSpec(1, "reshape", {"op": "nchw_to_tokens"}, [0]),
            LayerSpec(2, "reshape", {"op": "nchw_to_tokens"}, [GRAPH_INPUT]),
            LayerSpec(3, "add", {}, [2, 1]),
            LayerSpec(4, "pool", {"op": "mean_tokens"}, [3]),
        ]
        graph = Graph(layers=layers, input_shape=(c, hw, hw))
        x = t(rng.normal(0, 1, (n, c, hw, hw)))
        units = searched_units(graph)
        assert [u.output_id for u in units] == [0]
        cache = pass1_cache_fp(graph, x, units)
        pass2_cache_gradients(graph, x, units, cache)
        logits, _ = forward_quant(graph, x, C.default_qconfig(graph, 8, cache))
        z = logits.data.astype(np.float64)
        p = np.exp(z - z.max(1, keepdims=True))
        p /= p.sum(1, keepdims=True)
        p[np.arange(n), np.argmax(cache.logits_fp, 1)] -= 1
        per_token = np.broadcast_to(p[:, None, :] / hw ** 2, (n, hw ** 2, c))
        got = cache.unit_grads[0]
        assert got.shape == (n, c, 1, 1)
        np.testing.assert_allclose(got.reshape(n, c), per_token.sum(axis=1),
                                   rtol=1e-5, atol=1e-7)

    def test_gradients_match_finite_differences_on_two_layer_toy(self, monkeypatch):
        # an empty default qconfig keeps the pass-2 path smooth for differencing
        rng = np.random.default_rng(9)
        w0 = rng.normal(0, 1, (4, 4)).astype(F32)
        w1 = rng.normal(0, 1, (3, 4)).astype(F32)
        g = linear_graph([w0, w1], 4)
        batch = t(rng.normal(0, 1, (5, 4)).astype(F32))
        units = fixture_units(g)
        cache = pass1_cache_fp(g, batch, units)
        monkeypatch.setattr(C, "default_qconfig", lambda *args: {})
        pass2_cache_gradients(g, batch, units, cache)
        labels = np.argmax(cache.logits_fp, axis=1)
        layer1, plan = g.layer(1), g.plan
        program = plan.full[len(g.layer(0).steps):]  # layer 1's slice

        def loss_from_unit0(o0):
            vals = plan.start(layer1.values)
            vals[plan.slot[(0, "out")]] = Tensor._wrap(o0.astype(F32))
            run_layer(layer1, program, vals, {}, taped_ops(None), site_hook())
            return float(cross_entropy(vals[plan.out], labels).data)

        o0 = cache.unit_outputs[0].copy()
        analytic = cache.unit_grads[0]
        h = 1e-3
        fd = np.zeros_like(o0, dtype=np.float64)
        flat = o0.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_from_unit0(o0)
            flat[i] = orig - h
            fm = loss_from_unit0(o0)
            flat[i] = orig
            fd.reshape(-1)[i] = (fp - fm) / (2 * h)
        denom = max(np.abs(fd).max(), 1e-3)
        assert np.abs(analytic - fd).max() / denom < 1e-2


def _toy_unit_setup(seed, n_in=4, n_out=4, batch=12):
    """Single-linear-unit calibration state for search tests."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0, 1, (n_out, n_in)).astype(F32)
    g = linear_graph([w], n_in)
    x = t(rng.normal(0, 1.5, (batch, n_in)).astype(F32))
    units = fixture_units(g)
    cache = pass1_cache_fp(g, x, units)
    pass2_cache_gradients(g, x, units, cache, bits=8)
    return g, units[0], cache


from oracles import brute_force_search_minimum as brute_force_minimum  # noqa: E402


class TestSearchUnit:
    def test_single_candidate_single_combo_is_deterministic(self):
        g, unit, cache = _toy_unit_setup(seed=1)
        space = SearchSpace(alpha=1.0, beta=1.0, candidates=1, iterations=1)
        options = CalibOptions(granularity_search=False, scheme_search=False)
        d = search_unit(g, unit, cache, space, options, bits=8)
        assert d.granularity == "per_layer"
        assert d.scheme == "default"
        # objective can never exceed the min-max default's
        ev = C._UnitEvaluator(g, unit, cache, "hessian")
        sites = [s for lid in unit.layer_ids for s in g.sites_by_layer[lid]]
        default_obj = ev.run({s.key: C._fit(s, cache, 8, C._DEFAULT)
                              for s in sites})
        assert d.objective <= default_obj

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_matches_exhaustive_brute_force_on_toy_unit(self, seed):
        g, unit, cache = _toy_unit_setup(seed=seed)
        space = SearchSpace(alpha=0.3, beta=1.3, candidates=6, iterations=8)
        options = CalibOptions()
        d = search_unit(g, unit, cache, space, options, bits=8)
        want = brute_force_minimum(g, unit, cache, space, options, bits=8)
        assert d.objective == want  # same arithmetic path: exact equality

    @pytest.mark.parametrize("name", sorted(
        __import__("hyquant.zoo", fromlist=["FIXTURES"]).FIXTURES))
    def test_never_worse_than_minmax_default_on_any_zoo_unit(self, name):
        graph, calib, _, _ = build_fixture(name)
        units = fixture_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        pass2_cache_gradients(graph, calib, units, cache, bits=8)
        space = SearchSpace(candidates=6, iterations=1)
        for unit in units:
            sites = [s for lid in unit.layer_ids
                     for s in graph.sites_by_layer[lid]]
            if not sites:
                continue
            ev = C._UnitEvaluator(graph, unit, cache, "hessian")
            default_obj = ev.run({s.key: C._fit(s, cache, 8, C._DEFAULT)
                                  for s in sites})
            d = search_unit(graph, unit, cache, space, CalibOptions(), bits=8)
            assert d.objective <= default_obj, unit.label

    def test_overflow_unit_avoids_clamped_zero_points(self):
        graph, calib, _, _ = build_fixture("overflow-bridge")
        units = fixture_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        pass2_cache_gradients(graph, calib, units, cache, bits=8)
        bridge = next(u for u in units if u.is_bridge)
        space = SearchSpace(candidates=12, iterations=2)
        d = search_unit(graph, bridge, cache, space, CalibOptions(), bits=8)
        assert all(not p.any_clamped for p in d.params.values())
        assert (d.granularity, d.scheme) != ("per_channel", "asymmetric")
        # and beats the clamped per-channel+asymmetric configuration
        ev = C._UnitEvaluator(graph, bridge, cache, "hessian")
        sites = [s for lid in bridge.layer_ids for s in graph.sites_by_layer[lid]]
        forced = {}
        for s in sites:
            gran = "per_channel" if s.allow_per_channel else "per_layer"
            axis = s.channel_axis if gran == "per_channel" else None
            forced[s.key] = fit_minmax(
                Tensor._wrap(C._site_fp_value(s, cache)), 8, "asymmetric",
                gran, axis)
        assert any(p.any_clamped for p in forced.values())
        assert d.objective <= ev.run(forced)

    def test_degenerate_unit_falls_back_with_warning_flag(self):
        g = linear_graph([np.zeros((4, 4), F32)], 4)
        batch = Tensor(np.zeros((6, 4), F32))
        units = fixture_units(g)
        cache = pass1_cache_fp(g, batch, units)
        pass2_cache_gradients(g, batch, units, cache, bits=8)
        d = search_unit(g, units[0], cache, SearchSpace(candidates=4),
                        CalibOptions(), bits=8)
        assert d.fallback
        assert d.scheme == "default" and d.granularity == "per_layer"
        assert set(d.params) == {s.key for s in g.quant_sites}

    def test_unit_without_sites_rejected(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        units = fixture_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        pass2_cache_gradients(graph, calib, units, cache, bits=8)
        no_site_unit = next(u for u in units
                            if not graph.sites_by_layer[u.layer_ids[0]])
        with pytest.raises(CalibError, match="no quant sites"):
            search_unit(graph, no_site_unit, cache, SearchSpace(),
                        CalibOptions(), bits=8)


    def test_ties_keep_the_minmax_default(self):
        # a zero output gradient scores every combination and candidate 0
        g, unit, cache = _toy_unit_setup(seed=2)
        cache.unit_grads[unit.output_id] = np.zeros_like(
            cache.unit_grads[unit.output_id])
        d = search_unit(g, unit, cache, SearchSpace(candidates=3),
                        CalibOptions(), bits=8)
        assert (d.granularity, d.scheme, d.objective) == \
            ("per_layer", "default", 0.0)
        assert d.params == {s.key: C._fit(s, cache, 8, C._DEFAULT)
                            for s in g.quant_sites}

    @pytest.mark.parametrize("metric", ["hessian", "cosine"])
    def test_empty_cache_names_unit_and_missing_pass(self, metric):
        g, unit, _ = _toy_unit_setup(seed=1)
        with pytest.raises(CalibError,
                           match=f"unit {unit.label}: no pass 1 values"):
            search_unit(g, unit, C.CalibCache(), SearchSpace(candidates=2),
                        CalibOptions(metric=metric), bits=8)

    def test_hessian_without_pass2_names_unit_and_missing_pass(self):
        g, unit, _ = _toy_unit_setup(seed=1)
        cache = pass1_cache_fp(g, Tensor(np.ones((2, 4), F32)), [unit])
        with pytest.raises(CalibError,
                           match=f"unit {unit.label}: no pass 2 gradient"):
            search_unit(g, unit, cache, SearchSpace(candidates=2),
                        CalibOptions(), bits=8)


def searched_units(graph):
    return [u for u in fixture_units(graph)
            if any(graph.sites_by_layer[lid] for lid in u.layer_ids)]


def cache_entries(cache):
    """(key, array) of every array a CalibCache holds, in a fixed order."""
    yield "logits", cache.logits_fp
    for uid, a in cache.unit_outputs.items():
        yield ("out", uid), a
    for uid, ext in cache.unit_inputs.items():
        for pid, a in ext.items():
            yield ("in", uid, pid), a
    for key, a in cache.site_values.items():
        yield ("site", key), a
    for uid, a in cache.unit_grads.items():
        yield ("grad", uid), a


class TestChunkedPasses:
    """Pass 1 is one whole-batch forward; pass 2 runs C.PASS_CHUNK samples
    at a time into whole-batch arrays. The cache holds what whole-batch
    passes hold, byte for byte and array for array."""

    @staticmethod
    def passes(graph, calib):
        units = searched_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        return pass2_cache_gradients(graph, calib, units, cache)

    @staticmethod
    def count_forwards(monkeypatch):
        """Lists of the batch sizes that forward_fp (pass 1) and
        forward_quant (pass 2) are called with."""
        fp, quant = C.forward_fp, C.forward_quant
        fps, quants = [], []
        monkeypatch.setattr(C, "forward_fp", lambda g, x, **kw:
                            fps.append(x.shape[0]) or fp(g, x, **kw))
        monkeypatch.setattr(C, "forward_quant", lambda g, x, q, **kw:
                            quants.append(x.shape[0]) or quant(g, x, q, **kw))
        return fps, quants

    def test_chunk_is_512_samples(self):
        # chunks of 256 or 128 samples change wide-mvit-ln's head product
        # (N, 32)·(32, 4) in the last bit, since OpenBLAS picks its sgemm
        # kernel by row count; test_chunks_equal_one_chunk_bytes shows it
        assert C.PASS_CHUNK == 512

    # no chunk of 1,300 samples has fewer than 512 rows, so its bytes are
    # still the whole batch's
    @pytest.mark.parametrize("count, sizes", [(2048, [512] * 4),
                                              (1300, [512, 788])])
    @pytest.mark.parametrize("mode", ["partial", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_chunks_equal_one_chunk_bytes(self, name, mode, count, sizes,
                                          monkeypatch):
        spec = replace(FIXTURES[name], calib_count=count)
        graph, calib, _, _ = build_fixture(spec)
        graph = with_mode(graph, mode)
        forwards, quants = self.count_forwards(monkeypatch)
        chunked = dict(cache_entries(self.passes(graph, calib)))
        assert forwards == [count] and quants == sizes
        monkeypatch.setattr(C, "PASS_CHUNK", count)
        whole = dict(cache_entries(self.passes(graph, calib)))
        assert forwards == [count] * 2 and quants == sizes + [count]
        assert list(chunked) == list(whole)
        for key, a in whole.items():
            b = chunked[key]
            assert (b.dtype, b.shape) == (a.dtype, a.shape), key
            assert b.tobytes() == a.tobytes(), key

        def sharing(cache):  # each key's first key holding the same array
            first: dict = {}
            return {key: first.setdefault(id(a), key) for key, a in cache.items()}
        assert sharing(chunked) == sharing(whole)
        held = {key for key, a in whole.items() if a is calib.data}
        assert held and held == {key for key, a in chunked.items()
                                 if a is calib.data}

    @pytest.mark.parametrize("n, sizes", [
        (0, [0]), (1023, [1023]), (1024, [512, 512]), (1300, [512, 788]),
        (2047, [512, 512, 1023])])
    def test_remainder_joins_the_last_chunk(self, n, sizes):
        batch = Tensor(np.arange(2 * n, dtype=F32).reshape(n, 2))
        calls, results = [], []

        def run(rows, chunk):
            # the previous chunk's results are released before this one runs
            assert all(ref() is None for part in results for ref in part)
            calls.append((rows, chunk))
            part = {"twice": chunk.data * 2,
                    "first": chunk.data[:, 0].astype(np.int64)}
            results.append([weakref.ref(a) for a in part.values()])
            return part
        joined = C.run_chunked(batch, run)
        assert [chunk.shape[0] for _, chunk in calls] == sizes
        for rows, chunk in calls:
            assert chunk.data.tobytes() == batch.data[rows].tobytes()
        assert calls[-1][0].stop in (None, n)
        if len(calls) == 1:  # the batch itself, and run's arrays as they are
            assert calls[0][0] == slice(None) and calls[0][1] is batch
            assert all(ref() is a for ref, a in zip(results[0],
                                                    joined.values()))
        expected = {"twice": batch.data * 2,
                    "first": batch.data[:, 0].astype(np.int64)}
        assert list(joined) == list(expected)
        for key, a in expected.items():
            b = joined[key]
            assert (b.dtype, b.shape) == (a.dtype, a.shape), key
            assert b.tobytes() == a.tobytes(), key

    # pass 1 is one forward at every batch size, 2,048 samples included
    def test_one_chunk_caches_the_forwards_own_arrays(self, monkeypatch):
        spec = replace(FIXTURES["wide-mvit-ln"], calib_count=2048)
        graph, calib, _, _ = build_fixture(spec)
        units = searched_units(graph)
        runs = []
        fp = C.forward_fp
        monkeypatch.setattr(C, "forward_fp",
                            lambda g, x, **kw: runs.append(fp(g, x, **kw)) or runs[-1])
        cache = pass1_cache_fp(graph, calib, units)
        (logits, outs), = runs
        assert cache.logits_fp is logits.data
        for u in units:
            assert cache.unit_outputs[u.output_id] is outs[u.output_id].data


class TestCalibrate:
    def test_covers_every_site_exactly_once(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        qcfg, decisions = calibrate(graph, calib,
                                    SearchSpace(candidates=4, iterations=1),
                                    CalibOptions(), bits=8)
        assert set(qcfg) == {s.key for s in graph.quant_sites}
        decided = [k for d in decisions for k in d.params]
        assert len(decided) == len(set(decided)) == len(qcfg)

    # 512 samples are one pass chunk, where pass 2 sets the peak: 63.8 MiB
    # once the sweep released the tape as it went, stopped at the lowest
    # watched unit and only searched units were cached, against 88.7 MiB
    # before. At 2,048 samples, four chunks, the peak is 148.9 MiB (bridge0's
    # search; pass 2 holds 147.6), against 254.4 MiB when pass 2 ran the
    # whole batch on one tape. Since pass 1 keeps each site's extremes
    # stand-in, not its tensor, the peaks are 58.2 and 125.4 MiB (63.7 and
    # 147.4 before), and 52.1 and 119.3 MiB since a forward frees each
    # layer's output after its last reader. numpy reports its allocations to
    # tracemalloc, so the figures do not vary by run.
    @pytest.mark.parametrize("count, bound_mib", [(512, 65), (2048, 155)])
    def test_peak_traced_memory_of_the_passes(self, count, bound_mib):
        spec = replace(FIXTURES["wide-mvit-ln"], calib_count=count)
        graph, calib, _, _ = build_fixture(spec)
        graph = with_mode(graph, "partial")
        off = CalibOptions(scale_search=False, granularity_search=False,
                           scheme_search=False)
        tracemalloc.start()
        try:
            calibrate(graph, calib, options=off)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20, \
            f"traced peak {peak / 2 ** 20:.1f} MiB"

    # The search-off objectives of wide-mvit-ln at 2,048 samples, as
    # float.hex(), recorded before the objective was summed leaf by leaf.
    # Every unit output here but the head's spans many of _g2_weighted's
    # leaves, which the option pins' 32-sample traces never do.
    LARGE_BATCH_OBJECTIVES = {
        "layer0": "0x1.a33d29374197fp-4",
        "bridge0": "0x1.a54340208a3bcp+1",
        "layer7": "0x1.7d9801896f6acp-5",
        "layer10": "0x1.80460de2e1288p-4",
        "layer12": "0x1.7107ef6c4b1f4p-3",
        "layer15": "0x1.4ccea0e764470p+1",
    }

    @staticmethod
    def large_batch():
        spec = replace(FIXTURES["wide-mvit-ln"], calib_count=2048)
        graph, calib, _, _ = build_fixture(spec)
        off = CalibOptions(scale_search=False, granularity_search=False,
                           scheme_search=False)
        return with_mode(graph, "partial"), calib, off

    def test_large_batch_objectives_keep_their_bits(self):
        graph, calib, off = self.large_batch()
        _, decisions = calibrate(graph, calib, options=off)
        assert {d.label: d.objective.hex() for d in decisions} \
            == self.LARGE_BATCH_OBJECTIVES
        _, outs = forward_fp(graph, Tensor(calib.data[:1]),
                             watch=[d.output_id for d in decisions])
        # every output but the head's spans 32 to 128 leaves of 2 ** 14
        leaves = sorted(o.size * calib.shape[0] / 2 ** 14 for o in outs.values())
        assert leaves[0] < 1 and leaves[1] >= 32, leaves

    def search_off_peaks(self, metric):
        """{unit label: traced peak of its search-off search_unit above the
        cache}, on wide-mvit-ln at 2,048 samples."""
        graph, calib, off = self.large_batch()
        units = searched_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        pass2_cache_gradients(graph, calib, units, cache)
        tracemalloc.start()
        try:
            peaks = {}
            for unit in units:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                search_unit(graph, unit, cache, SearchSpace(),
                            replace(off, metric=metric))
                peaks[unit.label] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peaks

    # With the search off, a unit is scored once, by the min-max default's
    # run(keep=False): it never makes g^2 in float64, and each score sums in
    # leaf-sized scratch. The worst unit, bridge0, then peaks 28.0 MiB above
    # the cache (its values and output); with a whole-output float64 g^2 and
    # difference, layer0 peaked at 43.5 MiB.
    def test_search_off_unit_holds_no_output_sized_float64(self):
        peaks = self.search_off_peaks("hessian")
        assert max(peaks.values()) <= 32 * 2 ** 20, \
            {k: f"{v / 2 ** 20:.1f} MiB" for k, v in peaks.items()}

    # The cosine metric sums a·a, b·b and a·b over the same leaves; with
    # float64 copies of both outputs and their products, layer0 and layer10
    # each peaked 56.0 MiB above the cache.
    def test_search_off_cosine_unit_holds_no_output_sized_float64(self):
        peaks = self.search_off_peaks("cosine")
        assert max(peaks.values()) <= 32 * 2 ** 20, \
            {k: f"{v / 2 ** 20:.1f} MiB" for k, v in peaks.items()}

    # Pass 1 is one whole-batch forward, which holds no tape: 90.4 MiB at
    # 2,048 samples since a forward frees each layer's output after its last
    # reader (98.4 MiB before, 99.0 MiB when it ran in 512-sample chunks).
    # The bound stays below calibrate's 119.3 MiB, so pass 1 becoming the
    # peak shows here.
    def test_peak_traced_memory_of_pass1(self):
        spec = replace(FIXTURES["wide-mvit-ln"], calib_count=2048)
        graph, calib, _, _ = build_fixture(spec)
        graph = with_mode(graph, "partial")
        units = searched_units(graph)
        tracemalloc.start()
        try:
            pass1_cache_fp(graph, calib, units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 105 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"

    # A forward runs the graph plan on one run list, which frees each layer's
    # output after its last reader: 28.0 MiB at 2,048 samples, against 74.4
    # MiB when the forward kept every output until it returned.
    def test_peak_traced_memory_of_a_forward(self):
        spec = replace(FIXTURES["wide-mvit-ln"], calib_count=2048)
        graph, calib, _, _ = build_fixture(spec)
        tracemalloc.start()
        try:
            forward_fp(graph, calib)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"

    def test_deterministic_given_fixed_inputs(self):
        from hyquant.cli import qconfig_to_doc
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        space = SearchSpace(candidates=4, iterations=1)
        a, da = calibrate(graph, calib, space, CalibOptions(), bits=8)
        b, db = calibrate(graph, calib, space, CalibOptions(), bits=8)
        assert qconfig_to_doc(a, 8, "partial") == qconfig_to_doc(b, 8, "partial")
        assert [d.objective for d in da] == [d.objective for d in db]

    def test_all_flags_off_reproduces_minmax_default(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        opts = CalibOptions(scale_search=False, granularity_search=False,
                            scheme_search=False)
        qcfg, decisions = calibrate(graph, calib, SearchSpace(), opts, bits=8)
        for d in decisions:
            assert d.granularity == "per_layer" and d.scheme == "default"
        for site in graph.quant_sites:
            p = qcfg[site.key]
            assert p.granularity == "per_layer"
            expected = "symmetric" if site.kind == "weight" else "asymmetric"
            assert p.scheme == expected

    def test_scale_only_stays_on_default_granularity_and_scheme(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        opts = CalibOptions(granularity_search=False, scheme_search=False)
        qcfg, decisions = calibrate(graph, calib,
                                    SearchSpace(candidates=4, iterations=1),
                                    opts, bits=8)
        for d in decisions:
            assert d.granularity == "per_layer"
        for site in graph.quant_sites:
            assert qcfg[site.key].granularity == "per_layer"

    def test_flag_chain_objective_monotone(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        space = SearchSpace(candidates=5, iterations=1)
        totals = []
        for opts in (CalibOptions(granularity_search=False, scheme_search=False),
                     CalibOptions(scheme_search=False),
                     CalibOptions()):
            _, decisions = calibrate(graph, calib, space, opts, bits=8)
            totals.append(sum(d.objective for d in decisions))
        assert totals[1] <= totals[0] + 1e-12
        assert totals[2] <= totals[1] + 1e-12

    def test_trace_rows_emitted(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        trace = []
        calibrate(graph, calib, SearchSpace(candidates=3, iterations=1),
                  CalibOptions(), bits=8, trace=trace)
        assert trace
        labels = {row[0] for row in trace}
        assert "bridge0" in labels
        assert any(row[3] == -1 for row in trace)  # init/default evaluations
        assert all(len(row) == 5 and row[4] >= 0.0 for row in trace)

    def test_cosine_metric_runs(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        qcfg, decisions = calibrate(
            graph, calib, SearchSpace(candidates=3, iterations=1),
            CalibOptions(metric="cosine"), bits=8)
        assert set(qcfg) == {s.key for s in graph.quant_sites}
        assert all(0.0 <= d.objective <= 2.0 for d in decisions)


class TestOneExecutor:
    """A unit re-run on cached inputs is the whole-model forward restricted to
    the unit's sites: the same output bits, so the same objective."""

    @pytest.mark.parametrize("mode", ["partial", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_unit_rerun_equals_full_forward(self, name, mode):
        graph, calib, _, _ = build_fixture(name)
        graph = with_mode(graph, mode)
        units = fixture_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        pass2_cache_gradients(graph, calib, units, cache, bits=8)
        default = C.default_qconfig(graph, 8, cache)
        searched, objectives = [], []
        for unit in units:
            keys = [s.key for lid in unit.layer_ids
                    for s in graph.sites_by_layer[lid]]
            if not keys:
                with pytest.raises(CalibError, match="no quant sites"):
                    search_unit(graph, unit, cache, SearchSpace(),
                                CalibOptions(), bits=8)
                continue
            params = {key: default[key] for key in keys}
            _, outs = forward_quant(graph, calib, params, watch={unit.output_id})
            delta = (outs[unit.output_id].data.astype(np.float64)
                     - cache.unit_outputs[unit.output_id].astype(np.float64))
            want = objective(delta, cache.unit_grads[unit.output_id])
            ev = C._UnitEvaluator(graph, unit, cache, "hessian")
            assert ev.run(params).hex() == want.hex(), unit.label
            searched.append(unit.label)
            objectives.append(want)
        # calibrate skips exactly the site-less units and, with the search
        # off, scores the rest with the same default objective
        off = CalibOptions(scale_search=False, granularity_search=False,
                           scheme_search=False)
        _, decisions = calibrate(graph, calib, options=off, bits=8)
        assert [d.label for d in decisions] == searched
        assert [d.objective for d in decisions] == objectives

    @pytest.mark.parametrize("mode", ["partial", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_site_cone_score_equals_full_rerun(self, name, mode):
        # every combination, every site of every unit, one of two candidate
        # scales each (alternating): the cone re-run scores bitwise what a
        # full re-run scores, also once earlier sites' changes are adopted
        graph, calib, _, _ = build_fixture(name)
        graph = with_mode(graph, mode)
        units = fixture_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        pass2_cache_gradients(graph, calib, units, cache, bits=8)
        space = SearchSpace(alpha=0.5, beta=1.1, candidates=2)
        checks = 0
        for metric in C.METRICS:
            for unit in units:
                sites = [s for lid in unit.layer_ids
                         for s in graph.sites_by_layer[lid]]
                if not sites:
                    continue
                ev = C._UnitEvaluator(graph, unit, cache, metric)
                ref = C._UnitEvaluator(graph, unit, cache, metric)
                for ci, combo in enumerate(C._combos(CalibOptions())):
                    params = {s.key: C._fit(s, cache, 8, combo) for s in sites}
                    ev.run(params)
                    for si, s in enumerate(sites):
                        scales = generate_candidates(
                            Tensor._wrap(cache.site_values[s.key]), 8, space,
                            params[s.key].granularity, s.channel_axis)
                        trial = {**params, s.key: params_for_scale(
                            params[s.key], scales[(si + ci) % 2][None])[0]}
                        got = ev.score_site(trial, s)
                        assert got.hex() == ref.run(trial).hex(), (
                            metric, unit.label, combo, s.name)
                        checks += 1
                        params = trial
                        ev.adopt(params, s)
                    assert ev.run(params).hex() == ref.run(params).hex()
        assert checks > 0

    @pytest.mark.parametrize("mode", ["partial", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_plan_equals_the_tensor_executor(self, name, mode):
        # the evaluator's plan against the forwards': at W6 and W8 and every
        # combination's fits (per-channel tiles included), run's unit output
        # has the bytes of forward_quant on the unit's sites, and so does a
        # cone re-run at one candidate scale per site
        graph, calib, _, _ = build_fixture(name)
        graph = with_mode(graph, mode)
        units = searched_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        space = SearchSpace(alpha=0.3, beta=1.2, candidates=5)
        checks = 0
        for bits in (6, 8):
            for unit in units:
                sites = [s for lid in unit.layer_ids
                         for s in graph.sites_by_layer[lid]]
                ev = C._UnitEvaluator(graph, unit, cache, "cosine")
                plan = ev._plan

                def check(params, vals):
                    _, outs = forward_quant(graph, calib, params,
                                            watch={unit.output_id})
                    want = outs[unit.output_id].data
                    got = vals[plan.out]
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (bits, unit.label)

                for combo in (C._DEFAULT, *C._combos(CalibOptions())):
                    params = {s.key: C._fit(s, cache, bits, combo) for s in sites}
                    ev.run(params)
                    check(params, ev._state)
                    for i, s in enumerate(sites):
                        trial = {**params, s.key: params_for_scale(
                            params[s.key], generate_candidates(
                                cache.site_values[s.key], bits, space,
                                params[s.key].granularity,
                                s.channel_axis))[i % space.candidates]}
                        check(trial, ev._run(ev._cones[s.key], trial,
                                             list(ev._state)))
                        checks += 1
        assert checks > 0

    def test_full_run_frees_every_value_but_the_output(self):
        # what a unit re-run with no score_site after it holds at its end
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        graph = with_mode(graph, "full")
        units = searched_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        default = C.default_qconfig(graph, 8, cache)
        for unit in units:
            ev = C._UnitEvaluator(graph, unit, cache, "cosine")
            plan = ev._plan
            vals = ev._run(plan.full, default, list(ev._start))
            assert [s for s, *_ in plan.full if vals[s] is not None] == \
                [plan.out], unit.label

    @pytest.mark.parametrize("label, site, calls", [
        ("layer0", (0, "weight"), 1),    # conv: the weight only
        ("layer10", (10, "weight"), 1),  # linear: the weight only
        ("bridge0", (3, "weight"), 2),   # and the next member's input
    ])
    def test_weight_scan_requantizes_only_what_the_weight_reaches(
            self, monkeypatch, label, site, calls):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        units = fixture_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        pass2_cache_gradients(graph, calib, units, cache, bits=8)
        unit = next(u for u in units if u.label == label)
        sites = {s.key: s for lid in unit.layer_ids
                 for s in graph.sites_by_layer[lid]}
        params = {k: C._fit(s, cache, 8, C._DEFAULT)
                  for k, s in sites.items()}
        ev = C._UnitEvaluator(graph, unit, cache, "hessian")
        ev.run(params)
        # counted at the plan's fake-quantization kernel, which every site
        # step of a unit re-run calls
        seen = []
        kernel = quant_module.fake_quant
        monkeypatch.setattr(quant_module, "fake_quant",
                            lambda *a: seen.append(a) or kernel(*a))
        ev.score_site(params, sites[site])
        assert len(seen) == calls
        ev.run(params)
        assert len(seen) == calls + len(sites)

    @pytest.mark.parametrize("mode", ["partial", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_pass1_caches_only_declared_sites(self, name, mode):
        graph, calib, _, _ = build_fixture(name)
        graph = with_mode(graph, mode)
        cache = pass1_cache_fp(graph, calib, fixture_units(graph))
        assert set(cache.site_values) == {s.key for s in graph.quant_sites}


class TestSearchPin:
    def test_overflow_full_w6_search_matches_recorded_result(self):
        # the qconfig recorded before candidate scoring re-ran only a site's
        # cone; the evaluation count of every unit and the trace length
        # re-recorded when the combinations began to be searched by
        # successive halving, and the counts again when each rung began
        # with the arm that holds the evaluator's state
        graph, calib, _, _ = build_fixture("overflow-bridge")
        graph = with_mode(graph, "full")
        rows = []
        qcfg, decisions = calibrate(graph, calib,
                                    SearchSpace(candidates=8, iterations=2),
                                    CalibOptions(), bits=6, trace=rows)
        doc = json.dumps(qconfig_to_doc(qcfg, 6, "full"), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "f64e03f1b225426e43da18e526975b97f8b7bd1fc5f2f88c820cb9195cc67e69")
        assert {d.label: d.evals for d in decisions} == {
            "layer0": 72, "layer1": 31, "bridge0": 119, "layer6": 31,
            "layer7": 448, "layer9": 31, "layer10": 55, "layer12": 55,
            "layer15": 71}
        assert len(rows) == 891


# (fixture, mode) -> (qconfig sha256, evaluations per unit, trace rows) of
# calibrate at W8 with SearchSpace(candidates=4, iterations=2); the sha256s
# recorded before every layer kind ran as a step list, the evaluation counts
# and trace rows re-recorded when the combinations began to be searched by
# successive halving (a count includes the re-runs that resume a combination,
# which write no trace row), and the counts again when each rung began with
# the arm that holds the evaluator's state
_W8_PINS = {
    ("overflow-bridge", "partial"): (
        "d7e1247b8796504bd1a10b9bc37e671247328d4b492010f9d57ce297733beafe",
        {"layer0": 31, "bridge0": 54, "layer7": 109, "layer10": 31,
         "layer12": 31, "layer15": 34},
        278),
    ("overflow-bridge", "full"): (
        "715c3a576ac004c9d9c8e015f7ac1d0c14cf22a81f7135e0a6ddea7bf72d8b60",
        {"layer0": 31, "layer1": 19, "bridge0": 54, "layer6": 19, "layer7": 133,
         "layer9": 19, "layer10": 31, "layer12": 31, "layer15": 34},
        353),
    ("tiny-mvit-bn", "partial"): (
        "cd4d10cf233edc5dc5d42b3f94fb88e1a21475f39fe260cf50e85db783709483",
        {"layer0": 36, "bridge0": 55, "layer7": 164, "layer10": 31,
         "layer12": 31, "layer15": 30},
        333),
    ("tiny-mvit-bn", "full"): (
        "7c845a4cdb1cb401a24a389d3676f26a88349cd7dbb6feb4a89a971b0a9c35e7",
        {"layer0": 31, "layer1": 19, "bridge0": 55, "layer6": 19, "layer7": 228,
         "layer9": 19, "layer10": 31, "layer12": 31, "layer15": 30},
        444),
    ("tiny-mvit-gn", "partial"): (
        "8a7e3d5c8db1a354df93f94963f908bd860eb55b1c5b6227b73edd85e1441543",
        {"layer0": 31, "bridge0": 55, "layer7": 148, "layer10": 31,
         "layer12": 31, "layer15": 34},
        317),
    ("tiny-mvit-gn", "full"): (
        "4339aae474d799684ef9964d1e50c5d1686f9f85ab7300ff260e7b1c89f71d58",
        {"layer0": 35, "layer1": 19, "bridge0": 59, "layer6": 19, "layer7": 144,
         "layer9": 19, "layer10": 31, "layer12": 31, "layer15": 34},
        372),
    ("tiny-mvit-ln", "partial"): (
        "7803c647c0214143368e6d6acb18242f62c3e77d6a9bf86eced0777b61801c3e",
        {"layer0": 31, "bridge0": 55, "layer7": 156, "layer10": 31,
         "layer12": 31, "layer15": 35},
        325),
    ("tiny-mvit-ln", "full"): (
        "4bf9dc6fcf6c363cc87296fb5bfb94d40e556f3a4389f57b42391c594d6b0a29",
        {"layer0": 31, "layer1": 19, "bridge0": 55, "layer6": 19, "layer7": 172,
         "layer9": 18, "layer10": 31, "layer12": 31, "layer15": 35},
        391),
    ("wide-mvit-ln", "partial"): (
        "283c7089080d7e377db54ede804018ca23915e61afa60458d327e5322063a319",
        {"layer0": 31, "bridge0": 66, "layer7": 127, "layer10": 31,
         "layer12": 31, "layer15": 30},
        304),
    ("wide-mvit-ln", "full"): (
        "536adf2f4d1bd99c6859a78ed40b22999120d3d81297c82325c6c285afdd3263",
        {"layer0": 31, "layer1": 19, "bridge0": 66, "layer6": 19, "layer7": 172,
         "layer9": 19, "layer10": 31, "layer12": 31, "layer15": 30},
        399),
}


class TestSearchPinAllFixtures:
    @pytest.mark.parametrize("name,mode", sorted(_W8_PINS))
    def test_w8_search_matches_recorded_result(self, name, mode):
        sha, evals, n_rows = _W8_PINS[(name, mode)]
        graph, calib, _, _ = build_fixture(name)
        graph = with_mode(graph, mode)
        rows = []
        qcfg, decisions = calibrate(graph, calib,
                                    SearchSpace(candidates=4, iterations=2),
                                    CalibOptions(), bits=8, trace=rows)
        doc = json.dumps(qconfig_to_doc(qcfg, 8, mode), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == sha
        assert {d.label: d.evals for d in decisions} == evals
        assert len(rows) == n_rows


# (fixture, mode, bits, options) -> (qconfig sha256, evaluations per unit,
# sha256 of the trace rows written "unit,granularity,scheme,candidate,
# objective.hex()" one a line) of calibrate with SearchSpace(candidates=4,
# iterations=2): the ablation chain below the full search, whose combinations
# carry the "default" scheme label, and the cosine metric. The chain searches
# at most 2 combinations, which no cut drops; the cosine counts and trace
# sha256s were re-recorded when the combinations began to be searched by
# successive halving, and the no-scheme and cosine ones again when each rung
# began with the arm that holds the evaluator's state (the same rows, in
# another order)
_OPTION_PINS = {
    ("overflow-bridge", "full", 6, "scale-only"): (
        "8a6bd8a3f9b6ddbd3da25ba98846648e08d237fa600f9c0dff0f0a200755eab2",
        {"layer0": 14, "layer1": 6, "bridge0": 30, "layer6": 6, "layer7": 46,
         "layer9": 6, "layer10": 10, "layer12": 10, "layer15": 14},
        "8395d01e902044f64c4b9d0d3e71a2330174634d4298a4b8a6630a0ac41b940f"),
    ("overflow-bridge", "full", 6, "no-scheme"): (
        "a4f7203adbe275175f8920d45f6dddcb629bac8b8d55ce171a38f7b3a7117570",
        {"layer0": 29, "layer1": 12, "bridge0": 30, "layer6": 12, "layer7": 97,
         "layer9": 12, "layer10": 20, "layer12": 20, "layer15": 14},
        "29e5e26c84f93d2f8376ea970bc090f8d3375fac6b25b1cd100807d6d10db950"),
    ("overflow-bridge", "full", 6, "cosine"): (
        "65daa29ff58dabb30ef031646730f47d31969a186f8493ede673be7c7b8fd6d2",
        {"layer0": 40, "layer1": 19, "bridge0": 67, "layer6": 19, "layer7": 208,
         "layer9": 19, "layer10": 31, "layer12": 31, "layer15": 30},
        "80bac72af2a0dc6a5da0c717a879679c385fb5caebfca2cf6a019204382e071e"),
    ("tiny-mvit-bn", "partial", 8, "scale-only"): (
        "ef9dc920148360a2771af9dad368c079b339f7de1f0847ea49634c78d299cdb4",
        {"layer0": 10, "bridge0": 22, "layer7": 66, "layer10": 10,
         "layer12": 10, "layer15": 10},
        "00aac75d3bbe5f8e90d6693d35ff440e80bdcea40f26fa30df207ed90cf80548"),
    ("tiny-mvit-bn", "partial", 8, "no-scheme"): (
        "cc700cba16c6c01218522b0d6c77d4ed2401185134d448d21c431bfdef726b44",
        {"layer0": 20, "bridge0": 40, "layer7": 141, "layer10": 20,
         "layer12": 20, "layer15": 10},
        "f4ccfa35dc87d2a114f8798820d345becce3cffa96a77233ea13e439827b262b"),
    ("tiny-mvit-bn", "partial", 8, "cosine"): (
        "7d22dfa3e5e2b83ff529de1f5dfa1fccbdb810435ecdd8e0b4e4fddea97346c9",
        {"layer0": 31, "bridge0": 59, "layer7": 164, "layer10": 31,
         "layer12": 31, "layer15": 30},
        "696df40c3dc3832a7af92f6067be8365ff7a0e1851d983087564894d016ba939"),
}

_PIN_OPTIONS = {
    "scale-only": CalibOptions(granularity_search=False, scheme_search=False),
    "no-scheme": CalibOptions(scheme_search=False),
    "cosine": CalibOptions(metric="cosine"),
}


class TestSearchPinOptions:
    @pytest.mark.parametrize("name,mode,bits,options", sorted(_OPTION_PINS))
    def test_search_matches_recorded_result(self, name, mode, bits, options):
        sha, evals, trace_sha = _OPTION_PINS[(name, mode, bits, options)]
        graph, calib, _, _ = build_fixture(name)
        graph = with_mode(graph, mode)
        rows = []
        qcfg, decisions = calibrate(graph, calib,
                                    SearchSpace(candidates=4, iterations=2),
                                    _PIN_OPTIONS[options], bits=bits, trace=rows)
        doc = json.dumps(qconfig_to_doc(qcfg, bits, mode), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == sha
        assert {d.label: d.evals for d in decisions} == evals
        text = "\n".join(f"{u},{g},{s},{ci},{obj.hex()}"
                         for u, g, s, ci, obj in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == trace_sha


def _search_result(name, mode, bits, space):
    graph, calib, _, _ = build_fixture(name)
    graph = with_mode(graph, mode)
    qcfg, decisions = calibrate(graph, calib, space, CalibOptions(), bits=bits)
    doc = json.dumps(qconfig_to_doc(qcfg, bits, mode), sort_keys=True)
    return (hashlib.sha256(doc.encode()).hexdigest(),
            {d.label: d.objective for d in decisions})


class TestSuccessiveHalving:
    """The full search runs round 1 for the C.ROUND1_ARMS combinations of
    lowest min-max start and the later rounds for the C.FINAL_ARMS lowest
    after round 1; with both cuts keeping every combination it is the
    unpruned search, every combination run in full."""

    @pytest.mark.parametrize("name,mode,bits", [
        (name, mode, bits) for name in sorted(FIXTURES)
        for mode in ("partial", "full") for bits in (6, 8)])
    def test_equals_the_unpruned_search(self, name, mode, bits, monkeypatch):
        space = SearchSpace(candidates=4, iterations=2)
        pruned = _search_result(name, mode, bits, space)
        monkeypatch.setattr(C, "ROUND1_ARMS", 4)
        monkeypatch.setattr(C, "FINAL_ARMS", 4)
        assert pruned == _search_result(name, mode, bits, space)

    @pytest.mark.parametrize("name,mode,bits", [
        ("overflow-bridge", "full", 6), ("tiny-mvit-bn", "partial", 8)])
    def test_unpruned_search_equals_plain_coordinate_descent(
            self, name, mode, bits, monkeypatch):
        # the fixed-point stop (settled) and the cone scores leave every
        # combination's search as a full-rerun descent that never skips
        monkeypatch.setattr(C, "ROUND1_ARMS", 4)
        monkeypatch.setattr(C, "FINAL_ARMS", 4)
        graph, calib, _, _ = build_fixture(name)
        graph = with_mode(graph, mode)
        units = searched_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        pass2_cache_gradients(graph, calib, units, cache, bits=bits)
        space, options = SearchSpace(candidates=4, iterations=3), CalibOptions()
        for unit in units:
            d = search_unit(graph, unit, cache, space, options, bits=bits)
            obj, params = plain_coordinate_descent(graph, unit, cache, space,
                                                   options, bits)
            assert d.objective.hex() == obj.hex(), unit.label
            assert qconfig_to_doc(d.params, bits, mode) == \
                qconfig_to_doc(params, bits, mode), unit.label

    def test_keeps_a_winner_with_the_third_best_start(self, monkeypatch):
        # tiny-mvit-gn full W6: bridge0's winner, per-channel symmetric, has
        # only the 3rd-lowest start, so keeping the 2 best starts loses it
        graph, calib, _, _ = build_fixture("tiny-mvit-gn")
        graph = with_mode(graph, "full")
        units = searched_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        pass2_cache_gradients(graph, calib, units, cache, bits=6)
        bridge = next(u for u in units if u.label == "bridge0")
        space = SearchSpace(candidates=32, iterations=2)

        def search(*cuts):  # the shipped cuts, or (round 1, final) counts
            if cuts:
                monkeypatch.setattr(C, "ROUND1_ARMS", cuts[0])
                monkeypatch.setattr(C, "FINAL_ARMS", cuts[1])
            rows = []
            d = search_unit(graph, bridge, cache, space, CalibOptions(), bits=6,
                            trace=rows)
            return d, [(r[1], r[2]) for r in sorted(
                rows[1:], key=lambda r: r[4]) if r[3] == -1]

        d, starts = search()
        assert (d.granularity, d.scheme) == ("per_channel", "symmetric")
        assert starts.index(("per_channel", "symmetric")) == 2
        unpruned, _ = search(4, 4)
        assert (unpruned.granularity, unpruned.scheme, unpruned.objective) == \
            (d.granularity, d.scheme, d.objective)
        two_best_starts, _ = search(2, 2)
        assert two_best_starts.objective > d.objective
        assert (two_best_starts.granularity, two_best_starts.scheme) != \
            ("per_channel", "symmetric")

    def test_no_rung_reruns_the_arm_that_holds_the_state(self, monkeypatch):
        # overflow-bridge full W6 at SearchSpace(32, 2), the search perfbench's
        # calib-overflow-full runs; round 1 scans every site of every arm it
        # runs, so the round-1 rung ends after that many trace rows
        graph, calib, _, _ = build_fixture("overflow-bridge")
        graph = with_mode(graph, "full")
        units = searched_units(graph)
        cache = pass1_cache_fp(graph, calib, units)
        pass2_cache_gradients(graph, calib, units, cache, bits=6)
        space = SearchSpace(candidates=32, iterations=2)
        events = []  # the trace rows, with ("run", params id) among them
        run = C._UnitEvaluator.run

        def spy(self, params, keep=True):
            events.append(("run", id(params)))
            return run(self, params, keep)

        monkeypatch.setattr(C._UnitEvaluator, "run", spy)
        runs, resumed_live = {}, []
        for unit in units:
            events.clear()
            search_unit(graph, unit, cache, space, CalibOptions(), bits=6,
                        trace=events)
            runs[unit.label] = sum(e[0] == "run" for e in events)
            starts = [i for i, e in enumerate(events) if e[0] != "run"
                      and e[3] == -1]
            live = events[starts[-1] - 1][1]  # the last start's params
            sites = sum(len(graph.sites_by_layer[lid]) for lid in unit.layer_ids)
            round1_rows = sites * space.candidates * min(C.ROUND1_ARMS,
                                                         len(starts) - 1)
            rung_live, rows = live, 0
            for e in events[starts[-1] + 1:]:
                if e[0] == "run":
                    if e[1] == rung_live:
                        resumed_live.append(unit.label)
                    live = e[1]
                    continue
                rows += 1
                if rows == round1_rows:  # the last rung starts
                    rung_live = live
        assert resumed_live == []
        # one start per arm plus the resumes: 64 runs, where running each
        # rung in preference order took 78
        assert runs == {
            "layer0": 8, "layer1": 7, "bridge0": 7, "layer6": 7, "layer7": 8,
            "layer9": 7, "layer10": 7, "layer12": 7, "layer15": 6}
