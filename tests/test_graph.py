import json
import os

import numpy as np
import pytest

from hyquant import tensor as T
from hyquant.cli import with_mode
from hyquant.graph import (ATTENTION_STEPS, GRAPH_INPUT, Graph, GraphError,
                           GraphExecutionError, LayerSpec, Plan,
                           SiteCoverageError,
                           check_site_coverage, forward_fp, forward_quant,
                           load_manifest, run_layer, save_manifest, site_hook,
                           taped_ops)
from hyquant.quant import fake_quant_site, fit_minmax
from hyquant.tensor import Tensor
from hyquant.zoo import build_fixture
from oracles import attention_oracle

F32 = np.float32
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def t(data):
    return Tensor(np.asarray(data, dtype=F32))


def attention(q, k, v, heads):
    """The attention steps of mhsa, unquantized, on (N, T, E) q, k, v."""
    plan = Plan(ATTENTION_STEPS, "ctx")
    vals = plan.start({"q": np.asarray(q, F32), "k": np.asarray(k, F32),
                       "v": np.asarray(v, F32), "attrs": {"heads": heads}})
    return plan.run(plan.full, {}, vals, T.KERNELS,
                    lambda key, x, p: x)[plan.out]


def single_linear_graph(w, bias=None):
    weights = {"w": t(w)}
    if bias is not None:
        weights["b"] = t(bias)
    layer = LayerSpec(0, "linear", {}, [-1], weights)
    return Graph(layers=[layer], input_shape=(w.shape[1],))


class TestGraphValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError, match="unknown layer kind"):
            Graph(layers=[LayerSpec(0, "wavelet", {}, [-1])], input_shape=(4,))

    def test_duplicate_ids_rejected(self):
        layers = [LayerSpec(0, "activation", {"fn": "relu"}, [-1]),
                  LayerSpec(0, "activation", {"fn": "relu"}, [0])]
        with pytest.raises(GraphError, match="duplicate"):
            Graph(layers=layers, input_shape=(4,))

    @pytest.mark.parametrize("layer_id", [GRAPH_INPUT, -2])
    def test_negative_id_rejected(self, layer_id):
        # layer -1 would shadow the graph input for every later consumer
        layers = [LayerSpec(layer_id, "activation", {"fn": "relu"}, [-1]),
                  LayerSpec(0, "add", {}, [-1, -1])]
        with pytest.raises(GraphError, match=f"layer id {layer_id} is negative"):
            Graph(layers=layers, input_shape=(3,))

    def test_forward_reference_rejected(self):
        layers = [LayerSpec(0, "add", {}, [-1, 1]),
                  LayerSpec(1, "activation", {"fn": "relu"}, [0])]
        with pytest.raises(GraphError, match="before it is produced"):
            Graph(layers=layers, input_shape=(4,))

    @pytest.mark.parametrize("name, shape", [
        ("w_k", None), ("w_v", None), ("w_o", None),
        ("w_k", (6, 4)), ("w_v", (6,)), ("w_o", (2, 6, 6)), ("w_q", (4, 6)),
    ])
    def test_mhsa_projections_checked_at_construction(self, name, shape):
        rng = np.random.default_rng(0)
        weights = {n: t(rng.normal(0, 1, (6, 6)).astype(F32))
                   for n in ("w_q", "w_k", "w_v", "w_o")}
        if shape is None:
            del weights[name]
        else:
            weights[name] = t(np.ones(shape, dtype=F32))
        with pytest.raises(GraphError, match=f"layer 3: mhsa projection '{name}'"):
            Graph(layers=[LayerSpec(3, "mhsa", {"heads": 2}, [-1], weights)],
                  input_shape=(3, 6))

    def test_mhsa_head_divisibility(self):
        rng = np.random.default_rng(0)
        weights = {n: t(rng.normal(0, 1, (6, 6)).astype(F32))
                   for n in ("w_q", "w_k", "w_v", "w_o")}
        with pytest.raises(GraphError, match="divisible"):
            Graph(layers=[LayerSpec(0, "mhsa", {"heads": 4}, [-1], weights)],
                  input_shape=(3, 6))


class TestForwardFP:
    def test_identity_linear(self):
        g = single_linear_graph(np.eye(4, dtype=F32))
        x = t(np.random.default_rng(0).normal(0, 1, (3, 4)).astype(F32))
        y, _ = forward_fp(g, x)
        np.testing.assert_array_equal(y.data, x.data)

    def test_empty_watch_returns_empty_cache(self):
        g = single_linear_graph(np.eye(4, dtype=F32))
        _, outs = forward_fp(g, t(np.zeros((2, 4))))
        assert outs == {}

    def test_golden_fixture_logits(self):
        with open(os.path.join(DATA_DIR, "golden_tiny_mvit_ln.json")) as f:
            golden = json.load(f)
        graph, _, _, _ = build_fixture(golden["fixture"])
        rng = np.random.default_rng(golden["input_seed"])
        x = t(rng.normal(0, 1, golden["input_shape"]).astype(F32))
        y, _ = forward_fp(graph, x)
        want = np.asarray(golden["logits"], dtype=np.float64).reshape(y.shape)
        np.testing.assert_allclose(y.data, want, atol=1e-5)

    def test_layer_plan_is_compiled_once_and_reads_weights_anew(self):
        # a plan holds no values: a weight replaced after a forward, as
        # build_fixture does, is the one the next forward reads
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        before = forward_fp(graph, calib)[0].data
        plans = [layer.plan for layer in graph.layers]
        head = graph.layer(15)
        head.weights["w"] = Tensor(head.weights["w"].data * 2)
        after = forward_fp(graph, calib)[0].data
        assert all(layer.plan is p for layer, p in zip(graph.layers, plans))
        fresh = Graph(layers=[LayerSpec(l.id, l.kind, dict(l.attrs),
                                        list(l.inputs), dict(l.weights))
                              for l in graph.layers],
                      input_shape=graph.input_shape)
        assert after.tobytes() == forward_fp(fresh, calib)[0].data.tobytes()
        assert after.tobytes() != before.tobytes()

    def test_taped_ops_are_the_kernels_tensor_ops(self):
        # a forward's ops: for each kernel a step may call, the Tensor op of
        # that name in the tensor module, with the forward's tape bound
        tape = T.Tape()
        ops = taped_ops(tape)
        assert list(vars(ops)) == list(vars(T.KERNELS))
        for name, op in vars(ops).items():
            assert op.func is getattr(T, name) and op.keywords == {"tape": tape}

    def test_shape_failure_names_layer(self):
        g = single_linear_graph(np.eye(4, dtype=F32))
        with pytest.raises(GraphExecutionError, match="input shape"):
            forward_fp(g, t(np.zeros((2, 5))))
        layers = [LayerSpec(0, "linear", {}, [-1], {"w": t(np.eye(4, dtype=F32))}),
                  LayerSpec(1, "linear", {}, [0], {"w": t(np.eye(3, dtype=F32))})]
        g2 = Graph(layers=layers, input_shape=(4,))
        with pytest.raises(GraphExecutionError, match="layer 1"):
            forward_fp(g2, t(np.zeros((2, 4))))


class TestForwardQuant:
    def test_empty_qconfig_is_bitwise_fp(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        y_fp, _ = forward_fp(graph, calib)
        y_q, _ = forward_quant(graph, calib, {})
        assert y_fp.data.tobytes() == y_q.data.tobytes()

    def _minmax_qconfig(self, graph, calib, bits):
        capture = {}
        forward_fp(graph, calib, capture=capture)
        cfg = {}
        for site in graph.quant_sites:
            scheme = "symmetric" if site.kind == "weight" else "asymmetric"
            cfg[site.key] = fit_minmax(Tensor._wrap(capture[site.key]), bits,
                                       scheme, "per_layer")
        return cfg

    def test_8bit_minmax_agreement_at_least_90_percent(self):
        graph, calib, ev, _ = build_fixture("tiny-mvit-ln")
        x = Tensor(ev.data[:64])
        cfg = self._minmax_qconfig(graph, calib, 8)
        y_fp, _ = forward_fp(graph, x)
        y_q, _ = forward_quant(graph, x, cfg)
        agreement = (np.argmax(y_fp.data, 1) == np.argmax(y_q.data, 1)).mean()
        assert agreement >= 0.90

    def test_1bit_degrades_below_8bit(self):
        graph, calib, ev, _ = build_fixture("tiny-mvit-ln")
        x = Tensor(ev.data[:64])
        y_fp, _ = forward_fp(graph, x)
        pred_fp = np.argmax(y_fp.data, 1)
        agreements = {}
        for bits in (8, 1):
            cfg = self._minmax_qconfig(graph, calib, bits)
            y_q, _ = forward_quant(graph, x, cfg)
            agreements[bits] = (pred_fp == np.argmax(y_q.data, 1)).mean()
        assert agreements[1] < agreements[8]

    def test_high_bit_stub_changes_little(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        x = Tensor(calib.data[:8])
        y_fp, _ = forward_fp(graph, x)
        cfg32 = self._minmax_qconfig(graph, Tensor(calib.data[:8]), 32)
        for key in cfg32:
            y_q, _ = forward_quant(graph, x, {key: cfg32[key]})
            assert np.abs(y_q.data - y_fp.data).max() < 1e-4, key

    def test_unknown_site_rejected(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        p = fit_minmax(t([-1.0, 1.0]), 8, "symmetric", "per_layer")
        with pytest.raises(SiteCoverageError, match="unknown site"):
            forward_quant(graph, calib, {(999, "weight"): p})

    def test_coverage_check_reports_missing_and_extra(self):
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        p = fit_minmax(t([-1.0, 1.0]), 8, "symmetric", "per_layer")
        with pytest.raises(SiteCoverageError, match="missing"):
            check_site_coverage(graph, {graph.quant_sites[0].key: p})


class TestQuantAttention:
    def test_single_head_identity_values_returns_attention_weights(self):
        rng = np.random.default_rng(3)
        q = rng.normal(0, 1, (1, 4, 4)).astype(F32)
        k = rng.normal(0, 1, (1, 4, 4)).astype(F32)
        v = np.eye(4, dtype=F32)[None]
        out = attention(q, k, v, heads=1)
        scores = (q[0] @ k[0].T) / 2.0
        e = np.exp(scores - scores.max(1, keepdims=True))
        probs = e / e.sum(1, keepdims=True)
        np.testing.assert_allclose(out[0], probs, atol=1e-6)

    def test_two_heads_equal_two_independent_single_heads(self):
        rng = np.random.default_rng(4)
        q, k, v = (rng.normal(0, 1, (2, 5, 8)).astype(F32) for _ in range(3))
        full = attention(q, k, v, heads=2)
        lo = attention(q[:, :, :4], k[:, :, :4], v[:, :, :4], heads=1)
        hi = attention(q[:, :, 4:], k[:, :, 4:], v[:, :, 4:], heads=1)
        np.testing.assert_allclose(full, np.concatenate([lo, hi], axis=-1),
                                   atol=1e-6)

    def test_unquantized_path_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        q, k, v = (rng.normal(0, 1, (2, 6, 12)).astype(F32) for _ in range(3))
        got = attention(q, k, v, heads=3)
        np.testing.assert_allclose(got, attention_oracle(q, k, v, 3), atol=1e-5)

    def test_post_softmax_rows_sum_to_one(self):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        capture = {}
        mhsa = graph.layer(7)
        _, outs = forward_fp(graph, calib, watch={6})
        run_layer(mhsa, {(6, "out"): outs[6]}, {}, taped_ops(None),
                  site_hook(capture=capture))
        probs = capture[(7, "attn_probs")]
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


# (fixture, mode) -> {layer id: its sites in search scan order, weights
# then activations, each as name@channel_axis with "!" when per-channel is
# not allowed}, recorded before sites were declared on their steps;
# "softmax-matmul" is a small graph holding the two kinds no fixture has
_CONV = "weight@0 input@1"
_LINEAR = "weight@0 input@-1"
_MHSA = ("w_q@0 w_k@0 w_v@0 w_o@0 input@-1 attn_q@-1 attn_k@-1 attn_v@-1 "
         "attn_probs@-1! proj_in@-1")
_PARTIAL = {0: _CONV, 3: _CONV, 4: _CONV, 7: _MHSA, 10: _LINEAR, 12: _LINEAR,
            15: _LINEAR}


def _full(norm_axis):
    return {**_PARTIAL, 1: "input@1", 6: f"input@{norm_axis}",
            7: _MHSA + " softmax_in@-1!", 9: f"input@{norm_axis}"}


_SITE_PINS = {
    ("overflow-bridge", "partial"): _PARTIAL,
    ("overflow-bridge", "full"): _full(-1),
    ("tiny-mvit-bn", "partial"): _PARTIAL,
    ("tiny-mvit-bn", "full"): _full(2),
    ("tiny-mvit-gn", "partial"): _PARTIAL,
    ("tiny-mvit-gn", "full"): _full(2),
    ("tiny-mvit-ln", "partial"): _PARTIAL,
    ("tiny-mvit-ln", "full"): _full(-1),
    ("wide-mvit-ln", "partial"): _PARTIAL,
    ("wide-mvit-ln", "full"): _full(-1),
    ("softmax-matmul", "partial"): {0: _LINEAR, 1: "input_a@-1 input_b@-1"},
    ("softmax-matmul", "full"): {0: _LINEAR, 1: "input_a@-1 input_b@-1",
                                 2: "input@-1!"},
}


def _pin_graph(name, mode):
    """The graph that _SITE_PINS[(name, mode)] records."""
    if name != "softmax-matmul":
        return with_mode(build_fixture(name)[0], mode)
    rng = np.random.default_rng(0)
    return Graph(layers=[
        LayerSpec(0, "linear", {}, [-1],
                  {"w": t(rng.normal(0, 1, (4, 4)).astype(F32))}),
        LayerSpec(1, "matmul", {"transpose_b": True}, [0, 0]),
        LayerSpec(2, "softmax", {"axis": -1}, [1])],
        input_shape=(3, 4), mode=mode)


_BIASES = ("b", "b_q", "b_k", "b_v", "b_o")


class TestSites:
    def test_partial_mode_site_census(self):
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        by_layer = graph.sites_by_layer
        assert {s.name for s in by_layer[0]} == {"weight", "input"}
        assert {s.name for s in by_layer[7]} == {
            "input", "w_q", "w_k", "w_v", "w_o", "attn_q", "attn_k", "attn_v",
            "attn_probs", "proj_in"}
        assert by_layer[6] == ()  # norms carry no sites in partial mode
        assert by_layer[8] == ()  # adds never carry sites

    def test_full_mode_adds_norm_softmax_sites(self):
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        full = Graph(layers=graph.layers, input_shape=graph.input_shape,
                     output_id=graph.output_id, mode="full",
                     bridge_annotations=graph.bridge_annotations)
        partial_keys = {s.key for s in graph.quant_sites}
        full_keys = {s.key for s in full.quant_sites}
        added = full_keys - partial_keys
        assert (6, "input") in added and (9, "input") in added
        assert (7, "softmax_in") in added
        assert (1, "input") in added  # folded batch norm input

    @pytest.mark.parametrize("name,mode", sorted(_SITE_PINS))
    def test_sites_match_recorded_declarations(self, name, mode):
        graph = _pin_graph(name, mode)
        got = {}
        for layer in graph.layers:
            sites = graph.sites_by_layer[layer.id]
            scan = ([s for s in sites if s.kind == "weight"]
                    + [s for s in sites if s.kind == "activation"])
            if scan:
                got[layer.id] = " ".join(
                    f"{s.name}@{s.channel_axis}{'' if s.allow_per_channel else '!'}"
                    for s in scan)
        assert got == _SITE_PINS[(name, mode)]

    @pytest.mark.parametrize("name,mode", sorted(_SITE_PINS))
    def test_keyed_steps_are_well_formed(self, name, mode):
        # walked in order, the layers' steps read only the graph input, an
        # earlier step's output, their own layer's weights and attrs, or an
        # absent bias; each key is written once, by its own layer; and the
        # site steps are the full-mode quant sites
        graph = _pin_graph(name, mode)
        written, sites = {(GRAPH_INPUT, "out")}, set()
        for layer in graph.layers:
            own = {(layer.id, n) for n in (*layer.weights, "attrs")}
            absent = {(layer.id, n) for n in _BIASES if n not in layer.weights}
            for step in layer.steps:
                for key in step.ins:
                    assert key in written | own | absent, (layer.id, step.out, key)
                assert step.out[0] == layer.id and step.out not in written
                written.add(step.out)
                if step.site:
                    assert step.site[0] == layer.id
                    sites.add(step.site)
        assert sites == {s.key for s in with_mode(graph, "full").quant_sites}
        assert sites >= {s.key for s in graph.quant_sites}

    @pytest.mark.parametrize("name,mode", sorted(_SITE_PINS))
    def test_layer_plans_free_each_value_after_its_last_use(self, name, mode):
        # full frees every value a step writes, the output excepted, once,
        # at the step that last reads it (or writes it, if none does), and
        # never a value the layer reads from outside; keep frees none
        for layer in _pin_graph(name, mode).layers:
            plan = layer.plan
            last = {}
            for i, (out, _, ins, _, _) in enumerate(plan.full):
                for s in (out, *ins):
                    last[s] = i
            written = {out for out, *_ in plan.full}
            want = [sorted(s for s in written - {plan.out} if last[s] == i)
                    for i in range(len(plan.full))]
            assert [sorted(step[4]) for step in plan.full] == want, layer.id
            assert [step[:4] for step in plan.keep] == \
                [step[:4] for step in plan.full]
            assert not any(step[4] for step in plan.keep)

    def test_layer_norm_refuses_the_channel_axis_it_does_not_read(self):
        # layer_norm always normalizes over the last axis, where its
        # full-mode input site sits; a channel_axis attribute in a manifest
        # is refused, not dropped unread
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        assert [(s.name, s.channel_axis) for s in
                with_mode(graph, "full").sites_by_layer[6]] == [("input", -1)]
        layers = [LayerSpec(l.id, l.kind, {**l.attrs, "channel_axis": 1}
                            if l.kind == "layer_norm" else l.attrs,
                            l.inputs, l.weights) for l in graph.layers]
        with pytest.raises(GraphError,
                           match="layer 6: unknown attribute 'channel_axis'"):
            Graph(layers=layers, input_shape=graph.input_shape, mode="full")

    def test_probs_site_pins_per_layer(self):
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        (site,) = [s for s in graph.sites_by_layer[7] if s.name == "attn_probs"]
        assert not site.allow_per_channel


class TestLayerKindDispatch:
    def test_standalone_softmax_layer(self):
        g = Graph(layers=[LayerSpec(0, "softmax", {"axis": -1}, [-1])],
                  input_shape=(5,))
        x = t(np.random.default_rng(0).normal(0, 2, (3, 5)).astype(F32))
        y, _ = forward_fp(g, x)
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_matmul_layer_two_producers(self):
        rng = np.random.default_rng(1)
        eye = np.eye(4, dtype=F32)
        layers = [
            LayerSpec(0, "linear", {}, [-1], {"w": t(eye)}),
            LayerSpec(1, "linear", {}, [-1], {"w": t(2 * eye)}),
            LayerSpec(2, "matmul", {"transpose_b": True}, [0, 1]),
        ]
        g = Graph(layers=layers, input_shape=(4,))
        x = rng.normal(0, 1, (3, 4)).astype(F32)
        y, _ = forward_fp(g, t(x))
        np.testing.assert_allclose(y.data, x @ (2 * x).T, rtol=1e-5)

    def test_global_avg_pool(self):
        g = Graph(layers=[LayerSpec(0, "pool", {"op": "global_avg"}, [-1])],
                  input_shape=(3, 4, 4))
        x = np.random.default_rng(2).normal(0, 1, (2, 3, 4, 4)).astype(F32)
        y, _ = forward_fp(g, t(x))
        np.testing.assert_allclose(y.data, x.mean(axis=(2, 3)), rtol=1e-5)

    def test_tokens_to_nchw_inverts_nchw_to_tokens(self):
        layers = [
            LayerSpec(0, "reshape", {"op": "nchw_to_tokens"}, [-1]),
            LayerSpec(1, "reshape", {"op": "tokens_to_nchw", "h": 4, "w": 4}, [0]),
        ]
        g = Graph(layers=layers, input_shape=(3, 4, 4))
        x = np.random.default_rng(3).normal(0, 1, (2, 3, 4, 4)).astype(F32)
        y, _ = forward_fp(g, t(x))
        np.testing.assert_array_equal(y.data, x)

    def test_flatten_between_conv_and_linear(self, tmp_path):
        # conv -> flatten -> linear through both forwards, a compiled plan
        # and a manifest round trip
        rng = np.random.default_rng(4)
        w, b = rng.normal(0, 0.2, (5, 32)), rng.normal(0, 0.1, 5)
        layers = [
            LayerSpec(0, "conv2d", {"padding": 1}, [GRAPH_INPUT],
                      {"w": t(rng.normal(0, 0.5, (2, 3, 3, 3))),
                       "b": t(rng.normal(0, 0.1, 2))}),
            LayerSpec(1, "reshape", {"op": "flatten"}, [0]),
            LayerSpec(2, "linear", {}, [1], {"w": t(w), "b": t(b)}),
        ]
        g = Graph(layers=layers, input_shape=(3, 4, 4))
        x = t(rng.normal(0, 1, (6, 3, 4, 4)))
        y, outs = forward_fp(g, x, watch={0, 1})
        flat = outs[0].data.reshape(6, 32)
        assert outs[1].data.tobytes() == flat.tobytes()
        np.testing.assert_allclose(y.data, flat @ w.T.astype(F32) + b.astype(F32),
                                   rtol=1e-5, atol=1e-6)
        values = {}
        forward_fp(g, x, capture=values)
        qcfg = {s.key: fit_minmax(
            values[s.key], 6, "symmetric" if s.kind == "weight" else "asymmetric",
            "per_channel", s.channel_axis) for s in g.quant_sites}
        y_q, _ = forward_quant(g, x, qcfg)
        assert y_q.shape == (6, 5) and y_q.data.tobytes() != y.data.tobytes()
        base = {(GRAPH_INPUT, "out"): x.data}
        for layer in g.layers:
            base.update((key, v.data if isinstance(v, Tensor) else v)
                        for key, v in layer.values.items())
        plan = Plan(tuple(st for layer in g.layers for st in layer.steps),
                    (2, "out"))
        vals = plan.run(plan.full, qcfg, plan.start(base), T.KERNELS,
                        fake_quant_site())
        assert vals[plan.out].tobytes() == y_q.data.tobytes()
        path = tmp_path / "model.json"
        save_manifest(g, str(path))
        back = load_manifest(str(path))
        assert [(l.kind, l.attrs, l.inputs) for l in back.layers] == \
            [(l.kind, l.attrs, l.inputs) for l in g.layers]
        assert forward_fp(back, x)[0].data.tobytes() == y.data.tobytes()
        assert forward_quant(back, x, qcfg)[0].data.tobytes() == \
            y_q.data.tobytes()


class TestFullQuantMode:
    def test_full_mode_calibrates_and_covers_norm_sites(self):
        from hyquant.calib import CalibOptions, SearchSpace, calibrate
        graph, calib, ev, labels = build_fixture("tiny-mvit-ln")
        full = Graph(layers=graph.layers, input_shape=graph.input_shape,
                     output_id=graph.output_id, mode="full",
                     bridge_annotations=graph.bridge_annotations)
        qcfg, _ = calibrate(full, calib, SearchSpace(candidates=4, iterations=1),
                            CalibOptions(), bits=8)
        assert set(qcfg) == {s.key for s in full.quant_sites}
        assert (6, "input") in qcfg and (7, "softmax_in") in qcfg
        y_fp, _ = forward_fp(full, ev)
        y_q, _ = forward_quant(full, ev, qcfg)
        agreement = (np.argmax(y_fp.data, 1) == np.argmax(y_q.data, 1)).mean()
        assert agreement >= 0.85  # full quantization still tracks FP closely


class TestManifest:
    def test_round_trip_bit_exact(self, tmp_path):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        path = tmp_path / "model.json"
        save_manifest(graph, str(path))
        back = load_manifest(str(path))
        assert back.input_shape == graph.input_shape
        assert back.mode == graph.mode
        assert back.bridge_annotations == graph.bridge_annotations
        assert [l.kind for l in back.layers] == [l.kind for l in graph.layers]
        for la, lb in zip(graph.layers, back.layers):
            assert la.attrs == lb.attrs and la.inputs == lb.inputs
            for name in la.weights:
                assert la.weights[name].data.tobytes() == \
                    lb.weights[name].data.tobytes()
        y0, _ = forward_fp(graph, calib)
        y1, _ = forward_fp(back, calib)
        assert y0.data.tobytes() == y1.data.tobytes()

    def test_saved_attributes_are_the_effective_ones(self, tmp_path):
        # omitted attributes are saved with their defaults, and building a
        # graph again from the same layers changes none of them
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        path = tmp_path / "model.json"
        save_manifest(graph, str(path))
        doc = json.loads(path.read_text())
        assert doc["layers"][0]["attrs"] == {"stride": 2, "padding": 1,
                                             "groups": 1}
        attrs = [dict(l.attrs) for l in graph.layers]
        full = Graph(layers=graph.layers, input_shape=graph.input_shape,
                     mode="full")
        assert [l.attrs for l in full.layers] == attrs

    @pytest.mark.parametrize("given, missing", [
        ({}, "h"), ({"w": 2}, "h"), ({"h": 2}, "w")])
    def test_tokens_to_nchw_needs_h_and_w_at_load(self, tmp_path, given,
                                                  missing):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format": "hyquant-manifest/1", "input_shape": [4, 3],
            "layers": [
                {"id": 0, "kind": "reshape", "inputs": [-1],
                 "attrs": {"op": "tokens_to_nchw", **given}},
                {"id": 1, "kind": "pool", "inputs": [0],
                 "attrs": {"op": "global_avg"}}]}))
        with pytest.raises(GraphError) as e:
            load_manifest(str(path))
        assert str(e.value) == (f"{path}: layer 0 (tokens_to_nchw): missing "
                                f"attribute '{missing}'")

    def test_misspelled_attribute_refused(self):
        w = t(np.ones((2, 3, 3, 3), F32))
        with pytest.raises(GraphError,
                           match="^layer 0: unknown attribute 'strides'$"):
            Graph(layers=[LayerSpec(0, "conv2d", {"strides": 2, "padding": 1},
                                    [-1], {"w": w})], input_shape=(3, 8, 8))

    def test_unknown_kind_in_manifest_rejected(self, tmp_path):
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        path = tmp_path / "model.json"
        save_manifest(graph, str(path))
        doc = json.loads(path.read_text())
        doc["layers"][0]["kind"] = "quantum_fold"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphError, match="unknown layer kind 'quantum_fold'"):
            load_manifest(str(path))

    @pytest.mark.parametrize("escape", ["../outside.hqt", "ABSOLUTE"])
    def test_blob_path_leaving_the_manifest_dir_rejected(self, tmp_path, escape):
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        export = tmp_path / "export"
        export.mkdir()
        path = export / "model.json"
        save_manifest(graph, str(path))
        outside = tmp_path / "outside.hqt"
        outside.write_bytes((export / "blobs" / "l0_w.hqt").read_bytes())
        doc = json.loads(path.read_text())
        doc["layers"][0]["weights"]["w"] = \
            str(outside) if escape == "ABSOLUTE" else escape
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphError, match="layer 0: weight 'w' path"):
            load_manifest(str(path))

    def test_bad_format_string_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "something/9", "layers": []}))
        with pytest.raises(GraphError, match="format"):
            load_manifest(str(path))
