"""Bridge-block groups: contiguous layer chains treated as one reconstruction unit.

Groups are declared in the model manifest rather than auto-detected (the
transition between convolutional and attention stages differs across
architectures, so heuristics would be speculative); `suggest_bridge_annotations`
offers an advisory pattern-based starting point for manifest authors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError


class BridgeAnnotationError(GraphError):
    """Annotation violates the chain/disjointness invariants."""


@dataclass(frozen=True)
class BridgeBlockGroup:
    """Contiguous chain of layer ids; the tail produces the group output."""

    label: str
    layer_ids: tuple[int, ...]

    @property
    def output_id(self) -> int:
        return self.layer_ids[-1]


@dataclass(frozen=True)
class ReconstructionUnit:
    """Reconstruction scope of one search step: a bridge group or a singleton."""

    label: str
    layer_ids: tuple[int, ...]
    output_id: int
    is_bridge: bool


def resolve_bridge_blocks(graph: Graph, annotations) -> list[BridgeBlockGroup]:
    """Validate manifest annotations into groups.

    Members must be consecutive in topological order and each member's sole
    consumer inside the group must be the next member; groups are disjoint.
    Layers not annotated stay singleton reconstruction units.
    """
    groups: list[BridgeBlockGroup] = []
    claimed: dict[int, str] = {}
    order = {layer.id: i for i, layer in enumerate(graph.layers)}
    for idx, ann in enumerate(annotations or []):
        label = str(ann.get("label", f"bridge{idx}"))
        ids = [int(i) for i in ann.get("layer_ids", [])]
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
                # without the group's tail-output objective measuring it
                raise BridgeAnnotationError(
                    f"bridge '{label}': layer {cur} must feed exactly the next "
                    f"member {nxt} and nothing else, found {consumers}")
        groups.append(BridgeBlockGroup(label=label, layer_ids=tuple(ids)))
    return groups


def units_for(graph: Graph, groups) -> list[ReconstructionUnit]:
    """Every layer exactly once: bridge groups plus singletons, in topo order."""
    member_of: dict[int, BridgeBlockGroup] = {}
    for g in groups:
        for lid in g.layer_ids:
            member_of[lid] = g
    units: list[ReconstructionUnit] = []
    emitted: set[str] = set()
    for layer in graph.layers:
        g = member_of.get(layer.id)
        if g is None:
            units.append(ReconstructionUnit(
                label=f"layer{layer.id}", layer_ids=(layer.id,),
                output_id=layer.id, is_bridge=False))
        elif g.label not in emitted:
            emitted.add(g.label)
            units.append(ReconstructionUnit(
                label=g.label, layer_ids=g.layer_ids,
                output_id=g.output_id, is_bridge=True))
    return units


def suggest_bridge_annotations(graph: Graph) -> list[dict]:
    """Advisory only: propose conv->conv chains that feed the token reshape.

    Mirrors the common local->global transition (a kxk conv into a 1x1 conv
    right before tokens enter attention). Authors should review before adopting.
    """
    suggestions = []
    by_id = {layer.id: layer for layer in graph.layers}
    for layer in graph.layers:
        if layer.kind != "reshape" or layer.attrs.get("op") != "nchw_to_tokens":
            continue
        prev = by_id.get(layer.inputs[0]) if layer.inputs else None
        if prev is None or prev.kind not in ("conv2d", "depthwise_conv2d"):
            continue
        prev2 = by_id.get(prev.inputs[0]) if prev.inputs else None
        if prev2 is None or prev2.kind not in ("conv2d", "depthwise_conv2d"):
            continue
        if graph.consumers[prev2.id] != (prev.id,):
            continue
        suggestions.append({
            "label": f"suggested{len(suggestions)}",
            "layer_ids": [prev2.id, prev.id],
        })
    return suggestions
