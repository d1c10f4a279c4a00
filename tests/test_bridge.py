import numpy as np
import pytest

from hyquant.bridge import (BridgeAnnotationError, resolve_bridge_blocks,
                            units_for)
from hyquant.graph import Graph, LayerSpec
from hyquant.tensor import Tensor
from hyquant.zoo import BRIDGE_1X1_ID, BRIDGE_KXK_ID, build_fixture

F32 = np.float32


def chain_graph(n=5):
    """n linear layers in a row."""
    eye = np.eye(4, dtype=F32)
    layers = [LayerSpec(i, "linear", {}, [i - 1], {"w": Tensor(eye)})
              for i in range(n)]
    return Graph(layers=layers, input_shape=(4,))


def branching_graph():
    """layer 1 feeds both 2 and 3; 4 adds them."""
    eye = np.eye(4, dtype=F32)
    layers = [
        LayerSpec(0, "linear", {}, [-1], {"w": Tensor(eye)}),
        LayerSpec(1, "linear", {}, [0], {"w": Tensor(eye)}),
        LayerSpec(2, "linear", {}, [1], {"w": Tensor(eye)}),
        LayerSpec(3, "linear", {}, [1], {"w": Tensor(eye)}),
        LayerSpec(4, "add", {}, [2, 3]),
    ]
    return Graph(layers=layers, input_shape=(4,))


class TestResolve:
    def test_empty_annotations_leave_singletons(self):
        g = chain_graph()
        groups = resolve_bridge_blocks(g, [])
        assert groups == []
        units = units_for(g, groups)
        assert [u.layer_ids for u in units] == [(i,) for i in range(5)]
        assert all(not u.is_bridge for u in units)

    def test_fixture_resolves_two_layer_conv_group(self):
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        groups = resolve_bridge_blocks(graph, graph.bridge_annotations)
        assert len(groups) == 1
        group = groups[0]
        assert group.layer_ids == (BRIDGE_KXK_ID, BRIDGE_1X1_ID)
        kinds = [graph.layer(i).kind for i in group.layer_ids]
        assert kinds == ["depthwise_conv2d", "conv2d"]
        assert group.output_id == BRIDGE_1X1_ID

    def test_overlapping_annotation_rejected(self):
        g = chain_graph()
        anns = [{"label": "a", "layer_ids": [1, 2]},
                {"label": "b", "layer_ids": [2, 3]}]
        with pytest.raises(BridgeAnnotationError, match="appears in both"):
            resolve_bridge_blocks(g, anns)

    def test_non_contiguous_annotation_rejected(self):
        g = chain_graph()
        with pytest.raises(BridgeAnnotationError, match="contiguous"):
            resolve_bridge_blocks(g, [{"label": "a", "layer_ids": [1, 3]}])

    def test_chain_violation_rejected(self):
        g = branching_graph()
        # 1 feeds both 2 and 3, so [1, 2] is not a clean chain
        with pytest.raises(BridgeAnnotationError, match="nothing else"):
            resolve_bridge_blocks(g, [{"label": "a", "layer_ids": [1, 2]}])

    def test_unknown_layer_rejected(self):
        g = chain_graph()
        with pytest.raises(BridgeAnnotationError, match="unknown layer"):
            resolve_bridge_blocks(g, [{"label": "a", "layer_ids": [44]}])

    def test_empty_member_list_rejected(self):
        g = chain_graph()
        with pytest.raises(BridgeAnnotationError, match="no layers"):
            resolve_bridge_blocks(g, [{"label": "a", "layer_ids": []}])


def unit_of(units, layer_id):
    """The one unit whose members include layer_id."""
    (unit,) = [u for u in units if layer_id in u.layer_ids]
    return unit


class TestUnits:
    def test_member_maps_to_group_with_tail_output(self):
        g = chain_graph()
        groups = resolve_bridge_blocks(g, [{"label": "a", "layer_ids": [1, 2, 3]}])
        units = units_for(g, groups)
        for lid in (1, 2, 3):
            unit = unit_of(units, lid)
            assert unit.layer_ids == (1, 2, 3)
            assert unit.output_id == 3
            assert unit.is_bridge

    def test_non_member_maps_to_singleton(self):
        g = chain_graph()
        groups = resolve_bridge_blocks(g, [{"label": "a", "layer_ids": [1, 2]}])
        unit = unit_of(units_for(g, groups), 4)
        assert unit.layer_ids == (4,) and not unit.is_bridge

    def test_units_cover_every_layer_exactly_once(self):
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        groups = resolve_bridge_blocks(graph, graph.bridge_annotations)
        units = units_for(graph, groups)
        covered = [lid for u in units for lid in u.layer_ids]
        assert sorted(covered) == [l.id for l in graph.layers]
        assert len(covered) == len(set(covered))

    def test_watch_set_is_group_tails_plus_singletons(self):
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        groups = resolve_bridge_blocks(graph, graph.bridge_annotations)
        got = frozenset(u.output_id for u in units_for(graph, groups))
        member_ids = {lid for g in groups for lid in g.layer_ids}
        want = {g.output_id for g in groups} | \
            {l.id for l in graph.layers if l.id not in member_ids}
        assert got == frozenset(want)
        assert BRIDGE_KXK_ID not in got and BRIDGE_1X1_ID in got

