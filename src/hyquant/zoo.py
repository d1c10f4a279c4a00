"""Deterministic synthetic fixtures: tiny hybrid models with real bridge structure.

Each fixture is a conv stem (with folded batch norm) feeding a two-conv bridge
(kxk then 1x1), a token reshape, a stack of attention+FFN blocks and a pooled
linear head, trained-free: head weights come from a closed-form ridge fit on
the fixture's own synthetic Gaussian-blob task. Same (name, seed) is
bit-identical.

The "overflow-bridge" fixture biases half the stem channels strongly positive
so the bridge conv's input activation has channels with r_min > 0, reproducing
the zero-point overflow pathology; the plain fixtures do not trigger it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph, LayerSpec, forward_fp, save_manifest
from .tensor import Tensor, save_tensor

_F32 = np.float32


class ZooError(ValueError):
    """Unknown fixture or invalid fixture parameters."""


# Generation constants shared by every fixture.
CLASSES = 4
INPUT_HW = 16
FIT_COUNT = 256  # held-out samples the ridge head is fitted on
NOISE = 0.7  # std of the Gaussian blobs around each class mean
SEPARATION = 1.2  # std of the class means
# per-output-channel magnitude factors are log-uniform in
# [1/CHANNEL_SPREAD, CHANNEL_SPREAD]: the highly dynamic per-channel ranges
# hybrid stacks exhibit
CHANNEL_SPREAD = 6.0
# overflow bait: the even stem channels' weights are scaled down by
# OVERFLOW_WEIGHT_SCALE and their batch-norm shift raised by OVERFLOW_SHIFT
OVERFLOW_SHIFT = 4.0
OVERFLOW_WEIGHT_SCALE = 0.05


@dataclass(frozen=True)
class FixtureSpec:
    """Builder parameters; same (name, seed) gives a bit-identical fixture."""

    name: str
    channels: int = 8
    embed: int = 16
    heads: int = 2
    depth: int = 1
    norm: str = "layer"  # "layer" | "group" | "batch"
    groups: int = 2
    seed: int = 11
    calib_count: int = 32
    eval_count: int = 128
    overflow: bool = False

    def __post_init__(self):
        if self.norm not in ("layer", "group", "batch"):
            raise ZooError(f"unknown norm kind '{self.norm}'")
        if self.depth < 1:
            raise ZooError("depth must be at least one transformer block")
        if self.embed % self.heads != 0:
            raise ZooError(f"embed {self.embed} not divisible by heads {self.heads}")
        if self.embed % self.groups != 0:
            raise ZooError(f"embed {self.embed} not divisible by groups {self.groups}")


FIXTURES: dict[str, FixtureSpec] = {
    "tiny-mvit-ln": FixtureSpec(name="tiny-mvit-ln"),
    "tiny-mvit-gn": FixtureSpec(name="tiny-mvit-gn", norm="group"),
    "tiny-mvit-bn": FixtureSpec(name="tiny-mvit-bn", norm="batch"),
    "overflow-bridge": FixtureSpec(name="overflow-bridge", seed=23, overflow=True),
    "wide-mvit-ln": FixtureSpec(name="wide-mvit-ln", channels=16, embed=32),
}

BRIDGE_KXK_ID = 3
BRIDGE_1X1_ID = 4


def fixture_spec(name: str) -> FixtureSpec:
    try:
        return FIXTURES[name]
    except KeyError:
        raise ZooError(
            f"unknown fixture '{name}'; known: {', '.join(sorted(FIXTURES))}") from None


def _norm_layer(layer_id: int, kind: str, inputs: list[int], gamma: np.ndarray,
                beta: np.ndarray, groups: int) -> LayerSpec:
    if kind == "layer":
        return LayerSpec(layer_id, "layer_norm", {"eps": 1e-5}, inputs,
                         {"gamma": Tensor(gamma), "beta": Tensor(beta)})
    if kind == "group":
        return LayerSpec(layer_id, "group_norm",
                         {"groups": groups, "eps": 1e-5, "channel_axis": 2}, inputs,
                         {"gamma": Tensor(gamma), "beta": Tensor(beta)})
    return LayerSpec(layer_id, "batch_norm", {"channel_axis": 2}, inputs,
                     {"scale": Tensor(gamma), "shift": Tensor(beta)})


def _build_layers(spec: FixtureSpec, rng: np.random.Generator) -> list[LayerSpec]:
    c, e = spec.channels, spec.embed
    f = lambda *shape: rng.normal(0.0, 1.0, shape).astype(_F32)

    def spread(n):
        log_s = np.log(CHANNEL_SPREAD)
        return np.exp(rng.uniform(-log_s, log_s, n)).astype(_F32)

    w0 = (f(c, 3, 3, 3) / np.sqrt(27.0)).astype(_F32)
    b0 = (0.05 * f(c)).astype(_F32)
    m0 = spread(c)
    w0 = (w0 * m0[:, None, None, None]).astype(_F32)
    b0 = (b0 * m0).astype(_F32)
    bn_scale = (1.0 + 0.1 * f(c)).astype(_F32)
    bn_shift = (0.1 * f(c)).astype(_F32)
    w_dw = (f(c, 1, 3, 3) / 3.0).astype(_F32)
    b_dw = (0.05 * f(c)).astype(_F32)
    w_1x1 = (f(e, c, 1, 1) / np.sqrt(c)).astype(_F32)
    b_1x1 = (0.05 * f(e)).astype(_F32)
    m1 = spread(e)
    w_1x1 = (w_1x1 * m1[:, None, None, None]).astype(_F32)
    b_1x1 = (b_1x1 * m1).astype(_F32)

    if spec.overflow:
        # push even stem channels strictly positive with a narrow spread so the
        # bridge input exhibits r_min > 0 channels (zero-point overflow bait);
        # odd channels keep their normal spread and carry the class signal
        w0 = w0.copy()
        w0[::2] *= _F32(OVERFLOW_WEIGHT_SCALE)
        bn_shift = bn_shift.copy()
        bn_shift[::2] += _F32(OVERFLOW_SHIFT)

    layers = [
        LayerSpec(0, "conv2d", {"stride": 2, "padding": 1}, [-1],
                  {"w": Tensor(w0), "b": Tensor(b0)}),
        LayerSpec(1, "batch_norm", {"channel_axis": 1}, [0],
                  {"scale": Tensor(bn_scale), "shift": Tensor(bn_shift)}),
        LayerSpec(2, "activation", {"fn": "silu"}, [1]),
        LayerSpec(BRIDGE_KXK_ID, "depthwise_conv2d", {"stride": 2, "padding": 1}, [2],
                  {"w": Tensor(w_dw), "b": Tensor(b_dw)}),
        LayerSpec(BRIDGE_1X1_ID, "conv2d", {"stride": 1, "padding": 0}, [3],
                  {"w": Tensor(w_1x1), "b": Tensor(b_1x1)}),
        LayerSpec(5, "reshape", {"op": "nchw_to_tokens"}, [4]),
    ]
    tokens_id, nid = 5, 6
    for _ in range(spec.depth):
        g_a, be_a = (1.0 + 0.1 * f(e)).astype(_F32), (0.1 * f(e)).astype(_F32)
        attn = {n: (f(e, e) / np.sqrt(e)).astype(_F32)
                for n in ("w_q", "w_k", "w_v", "w_o")}
        attn_b = {n: (0.02 * f(e)).astype(_F32)
                  for n in ("b_q", "b_k", "b_v", "b_o")}
        g_b, be_b = (1.0 + 0.1 * f(e)).astype(_F32), (0.1 * f(e)).astype(_F32)
        w_ffn1 = (f(2 * e, e) / np.sqrt(e)).astype(_F32)
        b_ffn1 = (0.02 * f(2 * e)).astype(_F32)
        m2 = spread(2 * e)
        w_ffn1 = (w_ffn1 * m2[:, None]).astype(_F32)
        b_ffn1 = (b_ffn1 * m2).astype(_F32)
        w_ffn2 = (f(e, 2 * e) / np.sqrt(2 * e)).astype(_F32)
        b_ffn2 = (0.02 * f(e)).astype(_F32)

        layers.append(_norm_layer(nid, spec.norm, [tokens_id], g_a, be_a,
                                  spec.groups))
        layers.append(LayerSpec(nid + 1, "mhsa", {"heads": spec.heads}, [nid],
                                {**{n: Tensor(w) for n, w in attn.items()},
                                 **{n: Tensor(b) for n, b in attn_b.items()}}))
        layers.append(LayerSpec(nid + 2, "add", {}, [tokens_id, nid + 1]))
        layers.append(_norm_layer(nid + 3, spec.norm, [nid + 2], g_b, be_b,
                                  spec.groups))
        layers.append(LayerSpec(nid + 4, "linear", {}, [nid + 3],
                                {"w": Tensor(w_ffn1), "b": Tensor(b_ffn1)}))
        layers.append(LayerSpec(nid + 5, "activation", {"fn": "gelu"}, [nid + 4]))
        layers.append(LayerSpec(nid + 6, "linear", {}, [nid + 5],
                                {"w": Tensor(w_ffn2), "b": Tensor(b_ffn2)}))
        layers.append(LayerSpec(nid + 7, "add", {}, [nid + 2, nid + 6]))
        tokens_id = nid + 7
        nid += 8
    layers.append(LayerSpec(nid, "pool", {"op": "mean_tokens"}, [tokens_id]))
    layers.append(LayerSpec(nid + 1, "linear", {}, [nid],
                            {"w": Tensor(np.zeros((CLASSES, e), dtype=_F32)),
                             "b": Tensor(np.zeros(CLASSES, dtype=_F32))}))
    return layers


def _draw_batch(rng: np.random.Generator, means: np.ndarray, count: int):
    labels = rng.integers(0, CLASSES, count)
    x = means[labels] + rng.normal(0.0, NOISE, (count, 3 * INPUT_HW * INPUT_HW))
    return x.reshape(count, 3, INPUT_HW, INPUT_HW).astype(_F32), labels.astype(np.int64)


def build_fixture(spec: FixtureSpec | str, seed: int | None = None):
    """Build (graph, calib_batch, eval_batch, eval_labels) for a fixture.

    The layers are drawn once; two tensors are then set from a forward pass on
    a held-out fit split: the overflow fixture's depthwise bias, re-centred so
    the bait means stop at the bridge, and the classifier head, a ridge
    least-squares fit of pooled features to one-hot targets (no training loop).
    """
    if isinstance(spec, str):
        spec = fixture_spec(spec)
    if seed is not None:
        spec = replace(spec, seed=seed)

    rng = np.random.default_rng(spec.seed)
    layers = _build_layers(spec, rng)
    means = rng.normal(0.0, SEPARATION, (CLASSES, 3 * INPUT_HW * INPUT_HW))
    calib_x, _ = _draw_batch(rng, means, spec.calib_count)
    eval_x, eval_labels = _draw_batch(rng, means, spec.eval_count)
    fit_x, fit_labels = _draw_batch(rng, means, FIT_COUNT)
    graph = Graph(layers=layers, input_shape=(3, INPUT_HW, INPUT_HW),
                  bridge_annotations=[{"label": "bridge0",
                                       "layer_ids": [BRIDGE_KXK_ID, BRIDGE_1X1_ID]}])
    fit = Tensor(fit_x)

    if spec.overflow:
        dw = graph.layer(BRIDGE_KXK_ID)
        _, outs = forward_fp(graph, fit, watch={BRIDGE_KXK_ID})
        dw.weights["b"] = Tensor(
            dw.weights["b"].data - outs[BRIDGE_KXK_ID].data.mean(axis=(0, 2, 3)))

    head = layers[-1]
    _, outs = forward_fp(graph, fit, watch={head.inputs[0]})
    feats = outs[head.inputs[0]].data.astype(np.float64)
    a = np.concatenate([feats, np.ones((feats.shape[0], 1))], axis=1)
    y = np.eye(CLASSES, dtype=np.float64)[fit_labels]
    beta = np.linalg.solve(a.T @ a + 1e-3 * np.eye(a.shape[1]), a.T @ y)
    head.weights["w"] = Tensor(beta[:-1].T.astype(_F32))
    head.weights["b"] = Tensor(beta[-1].astype(_F32))
    return graph, Tensor(calib_x), Tensor(eval_x), eval_labels


def export_fixture(name: str, out_dir: str) -> dict:
    """Write a fixture as manifest + weight blobs + data blobs; returns paths."""
    graph, calib_x, eval_x, eval_labels = build_fixture(name)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "manifest": os.path.join(out_dir, "model.json"),
        "calib": os.path.join(out_dir, "calib.hqt"),
        "eval": os.path.join(out_dir, "eval.hqt"),
        "eval_labels": os.path.join(out_dir, "eval_labels.hqt"),
    }
    save_manifest(graph, paths["manifest"])
    save_tensor(paths["calib"], calib_x)
    save_tensor(paths["eval"], eval_x)
    save_tensor(paths["eval_labels"], Tensor(eval_labels.astype(_F32)))
    return paths
