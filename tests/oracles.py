"""Independent oracles shared by the unit and acceptance suites.

Everything here deliberately avoids the library's fast paths: matmul is a
triple loop, conv a six-deep loop nest, attention a per-head dense
computation, and gradients come from central finite differences on the
public forward ops.
"""

from __future__ import annotations

import numpy as np

from hyquant import tensor as T
from hyquant.quant import grid_range


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = acc
    return out


def conv2d_oracle(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
                  stride: int, padding: int, groups: int) -> np.ndarray:
    n, c, h, wd = x.shape
    o, cg, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    og = o // groups
    out = np.zeros((n, o, ho, wo), dtype=np.float64)
    for b_i in range(n):
        for oc in range(o):
            g = oc // og
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0 if bias is None else float(bias[oc])
                    for ic in range(cg):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky - padding
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < wd:
                                    acc += float(x[b_i, g * cg + ic, iy, ix]) * \
                                        float(w[oc, ic, ky, kx])
                    out[b_i, oc, oy, ox] = acc
    return out


def conv2d_slice_reference(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                           stride, padding, groups: int):
    """(output, input gradient for output gradient g) of conv2d as it was
    first written: im2col from kh*kw strided slice copies of a zero-padded
    input, col2im by kh*kw strided slice adds into zeros, tap (i, j) in
    row-major order. Its matrix products have the library's operand shapes,
    so its bytes are what a faster im2col/col2im must reproduce."""
    sh, sw = T._pair(stride)
    ph, pw = T._pair(padding)
    n, c, h, wd = x.shape
    o, cg, kh, kw = w.shape
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=np.float32)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw]
    wg = w.reshape(groups, o // groups, cg * kh * kw)
    out = np.matmul(wg[None], cols.reshape(n, groups, cg * kh * kw, ho * wo))
    gg = g.reshape(n, groups, o // groups, ho * wo)
    dcols = np.matmul(np.swapaxes(wg[None], -1, -2), gg)
    dcols = dcols.reshape(n, c, kh, kw, ho, wo)
    dxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += dcols[:, :, i, j]
    return out.reshape(n, o, ho, wo), dxp[:, :, ph:ph + h, pw:pw + wd]


def attention_oracle(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     heads: int) -> np.ndarray:
    n, t, e = q.shape
    dk = e // heads
    out = np.zeros((n, t, e), dtype=np.float64)
    for b in range(n):
        for h in range(heads):
            qs = q[b, :, h * dk:(h + 1) * dk].astype(np.float64)
            ks = k[b, :, h * dk:(h + 1) * dk].astype(np.float64)
            vs = v[b, :, h * dk:(h + 1) * dk].astype(np.float64)
            scores = qs @ ks.T / np.sqrt(dk)
            scores -= scores.max(axis=1, keepdims=True)
            probs = np.exp(scores)
            probs /= probs.sum(axis=1, keepdims=True)
            out[b, :, h * dk:(h + 1) * dk] = probs @ vs
    return out


def dense_objective_oracle(delta_o: np.ndarray, g: np.ndarray) -> float:
    """Explicit dense H = diag(g^2) quadratic form."""
    d = delta_o.astype(np.float64).reshape(-1)
    h = np.diag(g.astype(np.float64).reshape(-1) ** 2)
    return float(d @ h @ d)


def raw_zero_point_oracle(values: np.ndarray, bits: int) -> float:
    """Continuous asymmetric zero-point from a channel's min/max."""
    q_min, q_max = grid_range(bits)
    r_min, r_max = float(values.min()), float(values.max())
    scale = max((r_max - r_min) / (2 ** bits - 1), 1e-8)
    return q_min - r_min / scale


# ---------------------------------------------------------------------------
# finite differences


def brute_force_search_minimum(graph, unit, cache, space, options, bits):
    """Exhaustive minimum over the same candidate set the search considers:
    the min-max default, each feasible combo's init, and the full per-site
    grid of {init scale} + generated candidates."""
    import itertools

    from hyquant import calib as C
    from hyquant.quant import params_for_scale

    ev = C._UnitEvaluator(graph, unit, cache, options.metric)
    sites = [s for lid in unit.layer_ids for s in graph.sites_by_layer[lid]]
    best = ev.run({s.key: C._fit(s, cache, bits, C._DEFAULT) for s in sites})
    for combo in C._combos(options):
        init = {s.key: C._fit(s, cache, bits, combo) for s in sites}
        if any(p.any_clamped for p in init.values()):
            continue
        per_site = []
        for s in sites:
            cands = C.generate_candidates(
                C._site_fp_value(s, cache), bits, space,
                init[s.key].granularity, s.channel_axis)
            choices = [init[s.key]]
            choices += params_for_scale(init[s.key], cands)
            per_site.append(choices)
        for choice in itertools.product(*per_site):
            params = {s.key: p for s, p in zip(sites, choice)}
            best = min(best, ev.run(params))
    return best


def plain_coordinate_descent(graph, unit, cache, space, options, bits):
    """(objective, params) of the alternating scale search with no skip, no
    cone and no pruning: every feasible combination runs space.iterations
    full rounds (weight sites, then activation sites), scoring each
    candidate by a full re-run and adopting the first lowest on a strict
    improvement. The result is the first lowest of the min-max default and
    the combinations."""
    from hyquant import calib as C
    from hyquant.quant import params_for_scale

    ev = C._UnitEvaluator(graph, unit, cache, options.metric)
    sites = [s for lid in unit.layer_ids for s in graph.sites_by_layer[lid]]
    scan_order = sorted(sites, key=lambda s: s.kind != "weight")
    init = {s.key: C._fit(s, cache, bits, C._DEFAULT) for s in sites}
    best = (ev.run(init), init)
    for combo in C._combos(options):
        params = {s.key: C._fit(s, cache, bits, combo) for s in sites}
        if any(p.any_clamped for p in params.values()):
            continue
        obj = ev.run(params)
        for _ in range(space.iterations):
            for s in scan_order:
                cands = params_for_scale(params[s.key], C.generate_candidates(
                    C._site_fp_value(s, cache), bits, space,
                    params[s.key].granularity, s.channel_axis))
                objs = [ev.run({**params, s.key: p}) for p in cands]
                i = int(np.argmin(objs))
                if objs[i] < obj:
                    params = {**params, s.key: cands[i]}
                    obj = objs[i]
        if obj < best[0]:
            best = (obj, params)
    return best


def fd_gradient(build, x0: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar loss over every element of x0.

    build(x_array) must evaluate the full forward and return a python float;
    x0 is mutated in place during probing and restored.
    """
    fd = np.zeros(x0.size, dtype=np.float64)
    flat = x0.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = build(x0)
        flat[i] = orig - h
        fm = build(x0)
        flat[i] = orig
        fd[i] = (fp - fm) / (2.0 * h)
    return fd.reshape(x0.shape)


def check_gradient(op_apply, x0: np.ndarray, seed: int, h: float = 1e-3) -> float:
    """Max relative error between tape gradient and finite differences.

    op_apply(x_tensor, tape) -> output Tensor; the scalar loss is
    sum(output * R) for a fixed random weighting R so gradients stay O(1).
    Its gradient at the output is R, which seeds the backward sweep.
    """
    rng = np.random.default_rng(seed + 90001)
    probe = op_apply(T.Tensor(x0), None)
    r = rng.normal(0.0, 1.0, probe.shape).astype(np.float32)

    def loss_value(x_arr):
        y = op_apply(T.Tensor(x_arr), None).data
        # float32 products summed in float64, then rounded to float32
        return float(np.float32(np.sum(y * r, dtype=np.float64)))

    tape = T.Tape()
    xt = tape.leaf(T.Tensor(x0))
    op_apply(xt, tape)
    tape.watch(xt.node)
    analytic = T.backward(T.Tensor(r), tape)[xt.node].data.astype(np.float64)

    fd = fd_gradient(loss_value, x0.copy(), h=h)
    denom = max(float(np.abs(fd).max()), 1e-3)
    return float(np.abs(analytic - fd).max() / denom)
