"""Calibration: two caching passes plus the per-unit quantizer search.

Pass 1 runs the model in full precision over the calibration batch and caches
every reconstruction unit's output, the unit members' external inputs, the
full-precision values at every quant site, and the final logits. Pass 2 runs
the default-quantized model (min-max fits), takes cross-entropy against the
full-precision argmax labels, and backpropagates to cache each unit's output
gradient. Pass 1 is one whole-batch forward; pass 2, like evaluation, runs
through run_chunked, PASS_CHUNK samples at a time, each chunk on its own
tape. The search then minimizes the squared-gradient reconstruction
objective per unit over scale candidates, granularity and scheme, re-running
only the unit's own layers on the cached full-precision inputs. A scale
candidate re-runs only the steps that depend on the scanned site (its cone);
every other value is reused from the unit's current parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bridge import ReconstructionUnit, resolve_bridge_blocks, units_for
from .graph import (Graph, Site, forward_fp, forward_quant, run_steps,
                    site_cone, site_hook)
from .quant import QuantParams, channel_ranges, fit_minmax, params_for_scale
from .tensor import Tape, Tensor, backward, cross_entropy

_F32 = np.float32

METRICS = ("hessian", "cosine")


class CalibError(ValueError):
    """Calibration pipeline misuse or failure."""


@dataclass(frozen=True)
class SearchSpace:
    """Scale-candidate range multipliers, candidate count, alternation rounds;
    0 <= alpha <= beta and beta > 0, as a scale <= 0 is floored to SCALE_FLOOR."""

    alpha: float = 0.0
    beta: float = 1.2
    candidates: int = 100
    iterations: int = 3

    def __post_init__(self):
        for name in ("alpha", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise CalibError(f"{name} {getattr(self, name)} must be finite")
        if self.alpha < 0:
            raise CalibError(f"alpha {self.alpha} must not be negative")
        if self.beta <= 0:
            raise CalibError(f"beta {self.beta} must be positive")
        if self.alpha > self.beta:
            raise CalibError(f"alpha {self.alpha} must not exceed beta {self.beta}")
        if self.candidates < 1:
            raise CalibError("need at least one scale candidate")
        if self.iterations < 1:
            raise CalibError("need at least one alternation round")


@dataclass(frozen=True)
class CalibOptions:
    """Ablation flags (a monotone chain) and objective metric."""

    scale_search: bool = True
    granularity_search: bool = True
    scheme_search: bool = True
    metric: str = "hessian"

    def __post_init__(self):
        if self.granularity_search and not self.scale_search:
            raise CalibError("granularity search requires scale search")
        if self.scheme_search and not self.granularity_search:
            raise CalibError("scheme search requires granularity search")
        if self.metric not in METRICS:
            raise CalibError(f"unknown metric '{self.metric}'")


@dataclass
class CalibCache:
    """Write-once store filled by the two calibration passes."""

    unit_outputs: dict[int, np.ndarray] = field(default_factory=dict)
    unit_inputs: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)
    site_values: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    unit_grads: dict[int, np.ndarray] = field(default_factory=dict)
    logits_fp: np.ndarray | None = None


@dataclass
class UnitDecision:
    """Chosen parameters for every site of one unit plus the winning objective."""

    label: str
    output_id: int
    params: dict[tuple[int, str], QuantParams]
    granularity: str
    scheme: str
    objective: float
    fallback: bool = False
    evals: int = 0


def objective(delta_o, grad) -> float:
    """Squared-gradient reconstruction error: sum_i grad_i^2 * delta_o_i^2."""
    d = delta_o.data if isinstance(delta_o, Tensor) else np.asarray(delta_o)
    g = grad.data if isinstance(grad, Tensor) else np.asarray(grad)
    if d.shape != g.shape:
        raise CalibError(f"objective shapes disagree: {d.shape} vs {g.shape}")
    g64 = g.astype(np.float64).ravel()
    return _g2_weighted(g64 * g64, d.astype(np.float64).ravel())


def _g2_weighted(g2: np.ndarray, d: np.ndarray) -> float:
    """sum_i g2_i * d_i^2 over flat float64 arrays, overwriting d (the
    caller's own temporary); the one place the objective's arithmetic lives,
    so search scores equal objective().

    Sums with numpy's pairwise add.reduce, never BLAS: a BLAS dot splits long
    sums across its threads, and the rounding then depends on the thread
    count."""
    np.multiply(d, d, out=d)
    d *= g2
    return float(np.add.reduce(d))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine similarity of flattened tensors (the metric-ablation
    variant), summed like _g2_weighted so no BLAS thread count shows."""
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    na = np.sqrt(np.add.reduce(av * av))
    nb = np.sqrt(np.add.reduce(bv * bv))
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return 1.0
    return float(1.0 - np.add.reduce(av * bv) / (na * nb))


def generate_candidates(t, bits: int, space: SearchSpace, granularity: str,
                        channel_axis: int | None = None) -> np.ndarray:
    """Linearly spaced scale candidates over [alpha, beta] x absmax / 2^(k-1).

    Returns shape (n,) per layer or (n, C) per channel (row i applies the
    same relative step to every channel). Zero candidates (alpha = 0) are
    floored later by the quantizer's degenerate-range rule.
    """
    data = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=_F32)
    if data.size == 0:
        raise CalibError("cannot generate candidates from an empty tensor")
    if granularity != "per_channel":
        channel_axis = None
    elif channel_axis is None:
        raise CalibError("per_channel candidates need a channel_axis")
    absmax = channel_ranges(data, channel_axis)[2]
    mult = np.linspace(space.alpha, space.beta, space.candidates, dtype=np.float64)
    return np.multiply.outer(mult, absmax / float(2 ** (bits - 1)))


# ---------------------------------------------------------------------------
# calibration passes


# Samples per chunk of pass 2 and of evaluation. Pass 1 holds no tape and is
# one forward: at 2,048 samples of wide-mvit-ln it peaks at 98.4 MiB traced
# (99.0 in chunks), under pass 2's 147.6. No step of a forward mixes samples
# (batch norm is folded), so a chunk's values are its rows of the whole
# batch's, byte for byte, as long as each matrix product runs the same
# kernel: OpenBLAS picks its sgemm kernel by row count, and with 256 or 128
# rows wide-mvit-ln's head product (N, 32)·(32, 4) changes in the last bit.
# So a remainder is never a chunk of its own.
PASS_CHUNK = 512


def run_chunked(batch: Tensor, run) -> dict:
    """run(rows, chunk) -> {key: the chunk's rows} on PASS_CHUNK-sample
    chunks, the last taking the remainder too, joined into {key: the whole
    batch's rows}. A batch of fewer than 2 * PASS_CHUNK samples is one call,
    run(slice(None), batch), whose arrays come back as they are; otherwise
    the first chunk allocates each whole-batch array and a chunk's results
    are released before the next chunk runs."""
    n = batch.shape[0]
    count = n // PASS_CHUNK
    if count < 2:
        return run(slice(None), batch)
    out: dict = {}
    for k in range(count):
        rows = slice(k * PASS_CHUNK, (k + 1) * PASS_CHUNK if k + 1 < count else n)
        part = run(rows, Tensor._wrap(batch.data[rows]))
        if not out:
            out = {key: np.empty((n, *a.shape[1:]), a.dtype)
                   for key, a in part.items()}
        for key in part:
            out[key][rows] = part[key]
        del part  # before the next chunk runs
    return out


def pass1_cache_fp(graph: Graph, calib_batch: Tensor, units) -> CalibCache:
    """Forward the whole calibration batch in full precision; cache unit
    outputs, member inputs, per-site values and the final logits as the
    forward's own arrays, so keys that hold one value share one array."""
    if calib_batch.ndim == 0:
        raise CalibError("calibration batch is a scalar; it needs a sample axis")
    if calib_batch.size == 0:
        raise CalibError("calibration batch is empty")
    inputs = {u.output_id: [pid for lid in u.layer_ids
                            for pid in graph.layer(lid).inputs
                            if pid not in u.layer_ids] for u in units}
    cache = CalibCache()
    logits, outs = forward_fp(graph, calib_batch, capture=cache.site_values,
                              watch=set(inputs).union(*inputs.values()))
    cache.logits_fp = logits.data
    for uid, pids in inputs.items():
        cache.unit_outputs[uid] = outs[uid].data
        cache.unit_inputs[uid] = {pid: outs[pid].data for pid in pids}
    return cache


# the min-max init as a (granularity, weight scheme, activation scheme, label)
_DEFAULT = ("per_layer", "symmetric", "asymmetric", "default")


def default_qconfig(graph: Graph, bits: int, cache: CalibCache) -> dict:
    """Min-max per-layer init: weights symmetric, activations asymmetric."""
    return {site.key: _fit(site, cache, bits, _DEFAULT)
            for site in graph.quant_sites}


def _site_fp_value(site: Site, cache: CalibCache) -> np.ndarray:
    try:
        return cache.site_values[site.key]
    except KeyError:
        raise CalibError(
            f"no cached full-precision value for site {site.layer}:{site.name}; "
            f"run pass1_cache_fp first") from None


def _fit(site: Site, cache: CalibCache, bits: int,
         combo: tuple[str, str, str, str]) -> QuantParams:
    """Min-max fit of one site's cached value under a (granularity, weight
    scheme, activation scheme, label) combination; per layer where the site
    has no per-channel axis."""
    gran, s_w, s_a, _ = combo
    return fit_minmax(_site_fp_value(site, cache), bits,
                      s_w if site.kind == "weight" else s_a,
                      gran if site.allow_per_channel else "per_layer",
                      site.channel_axis)


def pass2_cache_gradients(graph: Graph, calib_batch: Tensor, units,
                          cache: CalibCache, bits: int = 8) -> CalibCache:
    """Default-quantized forward + backward; caches per-unit output gradients.

    Loss is sum-reduced cross-entropy of the quantized logits against the
    full-precision argmax labels, so the logit gradient is softmax - onehot
    and each sample's gradient is its own: the pass runs PASS_CHUNK samples
    at a time (run_chunked), each chunk with its own tape, under one min-max
    qconfig fitted on the whole batch's pass-1 values.
    """
    if cache.logits_fp is None:
        raise CalibError("pass 1 cache missing; run pass1_cache_fp first")
    qcfg = default_qconfig(graph, bits, cache)
    cache.unit_grads.update(run_chunked(calib_batch, lambda rows, chunk:
        _grads_chunk(graph, chunk, qcfg, units, cache.logits_fp[rows])))
    return cache


def _grads_chunk(graph: Graph, chunk: Tensor, qcfg: dict, units,
                 logits_fp: np.ndarray) -> dict:
    """Pass 2 on one chunk: {unit output id: its loss gradient}."""
    tape = Tape()
    logits, outs = forward_quant(graph, chunk, qcfg, tape=tape,
                                 watch={u.output_id for u in units})
    loss = cross_entropy(logits, np.argmax(logits_fp, axis=1), tape=tape)
    assert loss.node is not None
    grads = backward(Tensor(1.0), tape)
    return {u.output_id: grads[outs[u.output_id].node].data for u in units}


# ---------------------------------------------------------------------------
# per-unit search


class _UnitEvaluator:
    """Re-runs one unit's layers on cached FP inputs and scores the output.

    The unit is the concatenation of its members' steps (LayerSpec.steps),
    run on a base map of its cached inputs and its members' values. run()
    runs them all and keeps every value as the state of its params.
    score_site() scores params that differ from that state's only at one
    site by re-running just that site's cone across the members (site_cone):
    the step quantizing it and every step reading a changed value. Every
    other value, quantized operands included, is the state's, so the result
    is bitwise run()'s.
    """

    def __init__(self, graph: Graph, unit: ReconstructionUnit, cache: CalibCache,
                 metric: str):
        if unit.output_id not in cache.unit_inputs:
            raise CalibError(f"unit {unit.label}: no pass 1 values cached; "
                             f"run pass1_cache_fp first")
        grad = cache.unit_grads.get(unit.output_id)
        if metric == "hessian" and grad is None:
            raise CalibError(f"unit {unit.label}: no pass 2 gradient cached; "
                             f"run pass2_cache_gradients first")
        members = [graph.layer(lid) for lid in unit.layer_ids]
        self.steps = tuple(step for layer in members for step in layer.steps)
        self._cones = {s.key: site_cone(self.steps, s.key) for layer in members
                       for s in graph.sites_by_layer[layer.id]}
        self._base = {(pid, "out"): Tensor._wrap(arr)
                      for pid, arr in cache.unit_inputs[unit.output_id].items()}
        for layer in members:
            self._base.update(layer.values)
        self._out = (unit.output_id, "out")
        self.o_fp = cache.unit_outputs[unit.output_id]
        self.metric = metric
        if metric == "hessian":
            g64 = grad.astype(np.float64).ravel()
            self._g2 = g64 * g64
        self._state: dict = {}
        self.evals = 0

    def run(self, params: dict, keep: bool = True) -> float:
        """Objective of params from a full re-run; params become the state.
        keep=False drops each value after its last use and leaves no state,
        for a run that no score_site follows."""
        self.evals += 1
        vals = run_steps(self.steps, dict(self._base), site_hook(params),
                         keep=keep)
        self._state = vals if keep else {}
        return self._score(vals[self._out])

    def score_site(self, params: dict, site: Site) -> float:
        """run(params)'s objective, re-running only the cone of site."""
        self.evals += 1
        return self._score(run_steps(self._cones[site.key], dict(self._state),
                                     site_hook(params))[self._out])

    def adopt(self, params: dict, site: Site) -> None:
        """Make params, changed from the state's at site only, the state."""
        run_steps(self._cones[site.key], self._state, site_hook(params))

    def _score(self, out: Tensor) -> float:
        o_hat = out.data
        if self.metric == "cosine":
            return cosine_distance(o_hat, self.o_fp)
        # float32 -> float64 is exact, so this is o_hat64 - o_fp64 in one pass
        return _g2_weighted(self._g2, np.subtract(
            o_hat, self.o_fp, dtype=np.float64).ravel())


def _combos(options: CalibOptions) -> list[tuple[str, str, str, str]]:
    """(granularity, weight scheme, activation scheme, scheme label) in the
    fixed preference order that realizes the deterministic tie-break."""
    gs = ["per_layer"]
    if options.granularity_search:
        gs.append("per_channel")
    if options.scheme_search:
        return [(g, s, s, s) for g in gs for s in ("symmetric", "asymmetric")]
    return [(g, *_DEFAULT[1:]) for g in gs]


def search_unit(graph: Graph, unit: ReconstructionUnit, cache: CalibCache,
                space: SearchSpace, options: CalibOptions, bits: int = 8,
                trace: list | None = None) -> UnitDecision:
    """Pick scale / granularity / scheme for every site of one unit.

    For each enabled (granularity, scheme) combination, weight-site scales and
    then activation-site scales are alternately optimized for the configured
    number of rounds; the min-max default always stays available as the
    fallback candidate, so the result never scores worse than the default.
    Ties resolve to per-layer over per-channel, symmetric over asymmetric,
    then the smallest scale, via the fixed enumeration order.
    """
    sites = [s for lid in unit.layer_ids for s in graph.sites_by_layer[lid]]
    if not sites:
        raise CalibError(f"unit {unit.label} has no quant sites to search")
    evaluator = _UnitEvaluator(graph, unit, cache, options.metric)
    default_params = {s.key: _fit(s, cache, bits, _DEFAULT) for s in sites}
    # an all-zero unit has nothing to scale: it keeps min-max, flagged
    fallback = options.scale_search and not any(
        np.any(_site_fp_value(s, cache)) for s in sites)
    scans = options.scale_search and not fallback
    default_obj = evaluator.run(default_params, keep=scans)
    if trace is not None:
        trace.append((unit.label, "per_layer", "default", -1, default_obj))

    decision = UnitDecision(label=unit.label, output_id=unit.output_id,
                            params=default_params, granularity="per_layer",
                            scheme="default", objective=default_obj,
                            fallback=fallback)
    if not scans:
        decision.evals = evaluator.evals
        return decision

    scan_order = sorted(sites, key=lambda s: s.kind != "weight")
    for combo in _combos(options):
        g, _, _, s_label = combo
        params = {s.key: _fit(s, cache, bits, combo) for s in sites}
        if any(p.any_clamped for p in params.values()):
            # zero-point overflow: the grid cannot represent real zero, so
            # this combination is not a valid quantizer for the unit
            continue
        cur_obj = evaluator.run(params)
        if trace is not None:
            trace.append((unit.label, g, s_label, -1, cur_obj))
        # candidates keep the fit's zero-point, so one list serves every round
        candidates = {s.key: [params_for_scale(params[s.key], c) for c in
                              generate_candidates(
                                  _site_fp_value(s, cache), bits, space,
                                  params[s.key].granularity, s.channel_axis)]
                      for s in sites}
        # A scan scores fixed candidates against the other sites' params, so
        # while no site adopts a scale it repeats its last result: the same
        # argmin, and obj < cur_obj false. It is skipped while the count of
        # adoptions in this combination is what it was after that scan.
        adoptions, scanned_at = 0, {}
        for _ in range(space.iterations):
            for site in scan_order:
                if scanned_at.get(site.key) == adoptions:
                    continue
                cands = candidates[site.key]
                objs = [evaluator.score_site({**params, site.key: p}, site)
                        for p in cands]
                if trace is not None:
                    trace.extend((unit.label, g, s_label, ci, obj)
                                 for ci, obj in enumerate(objs))
                best = int(np.argmin(objs))
                if objs[best] < cur_obj:
                    params[site.key] = cands[best]
                    evaluator.adopt(params, site)
                    cur_obj = objs[best]
                    adoptions += 1
                scanned_at[site.key] = adoptions
        # strictly lower only: ties keep the default or the earlier combination
        if cur_obj < decision.objective:
            decision = replace(decision, params=params, granularity=g,
                               scheme=s_label, objective=cur_obj)
    decision.evals = evaluator.evals
    return decision


def calibrate(graph: Graph, calib_batch: Tensor, space: SearchSpace | None = None,
              options: CalibOptions | None = None, bits: int = 8,
              trace: list | None = None):
    """End-to-end calibration: both cache passes then sequential unit search.

    Returns (qconfig, decisions): a QuantParams map covering every quant site
    exactly once, plus the per-unit decisions in topological order.
    """
    space = space or SearchSpace()
    options = options or CalibOptions()
    groups = resolve_bridge_blocks(graph, graph.bridge_annotations)
    # units without sites have nothing to search: neither pass caches them
    units = [u for u in units_for(graph, groups)
             if any(graph.sites_by_layer[lid] for lid in u.layer_ids)]
    cache = pass1_cache_fp(graph, calib_batch, units)
    pass2_cache_gradients(graph, calib_batch, units, cache, bits)
    qcfg: dict[tuple[int, str], QuantParams] = {}
    decisions: list[UnitDecision] = []
    for unit in units:
        d = search_unit(graph, unit, cache, space, options, bits, trace)
        qcfg.update(d.params)
        decisions.append(d)
    return qcfg, decisions
