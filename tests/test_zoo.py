from dataclasses import replace

import numpy as np
import pytest

from hyquant.bridge import resolve_bridge_blocks, units_for
from hyquant.calib import CalibOptions, SearchSpace, calibrate
from hyquant.graph import forward_fp
from hyquant.quant import detect_zero_point_overflow
from hyquant.tensor import Tensor
from hyquant.zoo import (BRIDGE_KXK_ID, FIXTURES, INPUT_HW, ZooError,
                         build_fixture, fixture_spec)


def norm_variants(groups=2):
    """tiny-mvit-ln's graph with each norm kind (layer, group, batch)."""
    return [build_fixture(replace(FIXTURES["tiny-mvit-ln"], norm=norm,
                                  groups=groups, seed=31))[0]
            for norm in ("layer", "group", "batch")]


def bridge_input(graph, batch):
    _, outs = forward_fp(graph, batch, watch={graph.layer(BRIDGE_KXK_ID).inputs[0]})
    return outs[graph.layer(BRIDGE_KXK_ID).inputs[0]].data


class TestDeterminism:
    def test_same_seed_builds_bit_identical_fixture(self):
        a = build_fixture("tiny-mvit-ln")
        b = build_fixture("tiny-mvit-ln")
        for la, lb in zip(a[0].layers, b[0].layers):
            for name in la.weights:
                assert la.weights[name].data.tobytes() == \
                    lb.weights[name].data.tobytes()
        assert a[1].data.tobytes() == b[1].data.tobytes()
        assert a[2].data.tobytes() == b[2].data.tobytes()
        assert np.array_equal(a[3], b[3])

    def test_seed_override_changes_fixture(self):
        a = build_fixture("tiny-mvit-ln")
        b = build_fixture("tiny-mvit-ln", seed=99)
        assert a[1].data.tobytes() != b[1].data.tobytes()

    def test_unknown_fixture_rejected(self):
        with pytest.raises(ZooError, match="unknown fixture"):
            fixture_spec("colossal-vit")


class TestAccuracy:
    def test_tiny_ln_fp_top1_at_least_95_percent(self):
        graph, _, ev, labels = build_fixture("tiny-mvit-ln")
        y, _ = forward_fp(graph, ev)
        top1 = (np.argmax(y.data, axis=1) == labels).mean()
        assert top1 >= 0.95

    def test_eval_and_calib_shapes(self):
        spec = fixture_spec("tiny-mvit-ln")
        graph, calib, ev, labels = build_fixture(spec)
        assert calib.shape == (spec.calib_count, 3, INPUT_HW, INPUT_HW)
        assert ev.shape == (spec.eval_count, 3, INPUT_HW, INPUT_HW)
        assert labels.shape == (spec.eval_count,)


class TestOverflowFixture:
    def test_at_least_quarter_of_bridge_channels_strictly_positive(self):
        graph, calib, _, _ = build_fixture("overflow-bridge")
        vals = bridge_input(graph, calib)
        mins = vals.min(axis=(0, 2, 3))
        assert (mins > 0).mean() >= 0.25

    def test_overflow_fixture_triggers_flags_plain_does_not(self):
        graph_o, calib_o, _, _ = build_fixture("overflow-bridge")
        rep_o = detect_zero_point_overflow(
            Tensor._wrap(bridge_input(graph_o, calib_o)), 8, axis=1)
        assert any(c.flagged for c in rep_o.channels)
        graph_p, calib_p, _, _ = build_fixture("tiny-mvit-ln")
        rep_p = detect_zero_point_overflow(
            Tensor._wrap(bridge_input(graph_p, calib_p)), 8, axis=1)
        assert not any(c.flagged for c in rep_p.channels)

    def test_collapse_channel_exists(self):
        graph, calib, _, _ = build_fixture("overflow-bridge")
        vals = bridge_input(graph, calib)
        mins = vals.min(axis=(0, 2, 3))
        maxs = vals.max(axis=(0, 2, 3))
        assert ((mins > 0) & (mins >= maxs - mins)).any()


class TestDepth:
    def test_two_block_fixture_builds_and_calibrates(self):
        from dataclasses import replace
        spec = replace(fixture_spec("tiny-mvit-ln"), depth=2)
        graph, calib, ev, labels = build_fixture(spec)
        assert sum(l.kind == "mhsa" for l in graph.layers) == 2
        y, _ = forward_fp(graph, ev)
        assert (np.argmax(y.data, 1) == labels).mean() >= 0.85
        qcfg, _ = calibrate(graph, calib, SearchSpace(candidates=3, iterations=1),
                            CalibOptions(), bits=8)
        assert set(qcfg) == {s.key for s in graph.quant_sites}

    def test_zero_depth_rejected(self):
        from dataclasses import replace
        with pytest.raises(ZooError, match="depth"):
            replace(fixture_spec("tiny-mvit-ln"), depth=0)


class TestNormVariants:
    def test_siblings_share_layer_counts_and_weight_shapes(self):
        ln, gn, bn = norm_variants()
        assert len(ln.layers) == len(gn.layers) == len(bn.layers)
        for a, b, c in zip(ln.layers, gn.layers, bn.layers):
            shapes = lambda l: sorted(  # noqa: E731
                (w.shape for w in l.weights.values()))
            assert shapes(a) == shapes(b) == shapes(c)
        kinds = [(a.kind, b.kind, c.kind)
                 for a, b, c in zip(ln.layers, gn.layers, bn.layers)]
        assert ("layer_norm", "group_norm", "batch_norm") in kinds

    def test_group_norm_with_one_group_matches_layer_norm_sibling(self):
        ln, gn, _ = norm_variants(groups=1)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(0, 1, (4, 3, 16, 16)).astype(np.float32))
        y_ln, _ = forward_fp(ln, x)
        y_gn, _ = forward_fp(gn, x)
        np.testing.assert_allclose(y_gn.data, y_ln.data, atol=1e-6)

    def test_all_variants_calibrate_and_emit_full_qconfigs(self):
        space = SearchSpace(candidates=3, iterations=1)
        for graph in norm_variants():
            rng = np.random.default_rng(1)
            calib = Tensor(rng.normal(0, 1, (8, 3, INPUT_HW,
                                              INPUT_HW)).astype(np.float32))
            qcfg, _ = calibrate(graph, calib, space, CalibOptions(), bits=8)
            assert set(qcfg) == {s.key for s in graph.quant_sites}


class TestBridgeAnnotations:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_every_fixture_annotation_validates(self, name):
        graph, _, _, _ = build_fixture(name)
        groups = resolve_bridge_blocks(graph, graph.bridge_annotations)
        assert len(groups) == 1
        units = units_for(graph, groups)
        covered = [lid for u in units for lid in u.layer_ids]
        assert sorted(covered) == [l.id for l in graph.layers]
