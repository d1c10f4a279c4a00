"""Bridge blocks: contiguous layer chains treated as one reconstruction unit.

Bridge blocks are declared in the model manifest rather than auto-detected
(the transition between convolutional and attention stages differs across
architectures, so heuristics would be speculative).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, _is_int, _list_of, read_fields


class BridgeAnnotationError(GraphError):
    """Annotation violates the chain/disjointness invariants."""


# a manifest's "bridge_blocks" entry: (check, what a valid value is[, default])
_ANNOTATION_FIELDS = {
    "label": (lambda v: isinstance(v, str), "a string", None),
    "layer_ids": (_list_of(_is_int), "a list of integer layer ids"),
}


@dataclass(frozen=True)
class ReconstructionUnit:
    """Reconstruction scope of one search step: a bridge block or a singleton;
    the last member produces the unit output."""

    label: str
    layer_ids: tuple[int, ...]
    output_id: int
    is_bridge: bool


def resolve_bridge_blocks(graph: Graph, annotations) -> list[ReconstructionUnit]:
    """Validate manifest annotations into bridge units.

    Members must be consecutive in topological order and each member's sole
    consumer inside the block must be the next member; blocks are disjoint.
    Layers not annotated stay singleton reconstruction units.
    """
    blocks: list[ReconstructionUnit] = []
    claimed: dict[int, str] = {}
    order = {layer.id: i for i, layer in enumerate(graph.layers)}
    for idx, ann in enumerate(annotations or []):
        f = read_fields(ann, _ANNOTATION_FIELDS, BridgeAnnotationError,
                        f"bridge annotation {idx}")
        label, ids = f["label"] or f"bridge{idx}", f["layer_ids"]
        if not ids:
            raise BridgeAnnotationError(f"bridge '{label}' lists no layers")
        for lid in ids:
            if lid not in order:
                raise BridgeAnnotationError(
                    f"bridge '{label}' names unknown layer {lid}")
            if lid in claimed:
                raise BridgeAnnotationError(
                    f"layer {lid} appears in both '{claimed[lid]}' and '{label}'")
            claimed[lid] = label
        positions = [order[lid] for lid in ids]
        if positions != list(range(positions[0], positions[0] + len(ids))):
            raise BridgeAnnotationError(
                f"bridge '{label}' members {ids} are not contiguous in "
                f"topological order")
        for cur, nxt in zip(ids, ids[1:]):
            consumers = list(graph.consumers[cur])
            if consumers != [nxt]:
                # a side consumer would see the member's quantization error
                # without the block's tail-output objective measuring it
                raise BridgeAnnotationError(
                    f"bridge '{label}': layer {cur} must feed exactly the next "
                    f"member {nxt} and nothing else, found {consumers}")
        blocks.append(ReconstructionUnit(label=label, layer_ids=tuple(ids),
                                         output_id=ids[-1], is_bridge=True))
    return blocks


def units_for(graph: Graph, groups) -> list[ReconstructionUnit]:
    """Every layer exactly once: bridge units plus singletons, in topo order."""
    member_of = {lid: g for g in groups for lid in g.layer_ids}
    units: list[ReconstructionUnit] = []
    for layer in graph.layers:
        g = member_of.get(layer.id)
        if g is None:
            units.append(ReconstructionUnit(
                label=f"layer{layer.id}", layer_ids=(layer.id,),
                output_id=layer.id, is_bridge=False))
        elif layer.id == g.layer_ids[0]:
            units.append(g)
    return units
