"""Calibration: two caching passes plus the per-unit quantizer search.

Pass 1 runs the model in full precision over the calibration batch and caches
every reconstruction unit's output, the unit members' external inputs, the
final logits and, for every quant site, its extremes stand-in: the
per-channel min and max of its full-precision value, all that the min-max
fits and the scale candidates read of it (site_extremes). Pass 2 runs
the default-quantized model (min-max fits), takes cross-entropy against the
full-precision argmax labels, and backpropagates to cache each unit's output
gradient. Pass 1 is one whole-batch forward; pass 2, like evaluation, runs
through run_chunked, PASS_CHUNK samples at a time, each chunk on its own
tape. The search then minimizes the squared-gradient reconstruction
objective per unit over scale candidates, granularity and scheme, re-running
only the unit's own layers on the cached full-precision inputs. A scale
candidate re-runs only the steps that depend on the scanned site (its cone);
every other value is reused from the unit's current parameters. The
(granularity, scheme) combinations are searched by successive halving
(ROUND1_ARMS, FINAL_ARMS).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bridge import ReconstructionUnit, resolve_bridge_blocks, units_for
from .graph import Graph, Plan, Site, forward_fp, forward_quant
from .quant import (QuantParams, channel_ranges, fake_quant_site, fit_minmax,
                    params_for_scale)
from .tensor import KERNELS, Tape, Tensor, backward, cross_entropy

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
    """Write-once store filled by the two calibration passes. site_values
    holds each quant site's extremes stand-in (site_extremes), not its
    full-precision value."""

    unit_outputs: dict[int, np.ndarray] = field(default_factory=dict)
    unit_inputs: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)
    site_values: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    unit_grads: dict[int, np.ndarray] = field(default_factory=dict)
    logits_fp: np.ndarray | None = None


@dataclass
class UnitDecision:
    """Chosen parameters for every site of one unit plus the winning
    objective; evals counts the unit's evaluations: each arm's start, every
    candidate scored, and the re-runs that resume a combination's search."""

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
    return _g2_weighted(d.ravel(), None, g.ravel())


# Elements per leaf of _g2_weighted's tree: a leaf's float64 scratch is
# 128 KiB, so it stays in cache between its passes.
_LEAF = 1 << 14


def _g2_weighted(o: np.ndarray, ref: np.ndarray | None, grad: np.ndarray,
                 g2: np.ndarray | None = None) -> float:
    """sum_i g_i^2 * (o_i - ref_i)^2 over flat arrays of one size in
    float64, ref None reading as 0, g_i^2 read from g2 when given (float64
    grad * grad) and computed from grad otherwise; the one place the
    objective's arithmetic lives, so search scores equal objective().

    The sum has the bits of numpy's pairwise add.reduce over the whole
    product, never a BLAS dot, which splits long sums across its threads so
    that the rounding depends on the thread count. But no product of the
    output's size is made. numpy's pairwise_sum halves a contiguous vector
    at n // 2 rounded down to a multiple of 8 until a piece has at most 128
    elements, and add.reduce of a contiguous float64 vector is one
    pairwise_sum call over it plus the identity 0.0, exact for a sum of
    squares. So the vector is split the same way down to leaves of at most
    _LEAF elements, each leaf's product is made in leaf-sized scratch and
    add.reduced, and the leaves' sums are added back up the tree.
    TestObjective.test_leaf_tree_sum_equals_add_reduce pins this against
    numpy's own sum."""
    d = np.empty(min(o.size, _LEAF))
    w = np.empty_like(d) if g2 is None else None

    def leaf(lo: int, hi: int):
        # float32 -> float64 is exact, so this is o64 - ref64; casting in a
        # copy first is faster than np.subtract(..., out=, dtype=)
        dv = d[:hi - lo]
        dv[...] = o[lo:hi]
        if ref is not None:
            dv -= ref[lo:hi]
        dv *= dv
        if g2 is None:
            wv = w[:hi - lo]
            wv[...] = grad[lo:hi]
            wv *= wv
            dv *= wv
        else:
            dv *= g2[lo:hi]
        return np.add.reduce(dv)

    return float(_pairwise(leaf, 0, o.size))


def _pairwise(leaf, lo: int, n: int):
    """The sum of [lo, lo + n) as numpy's pairwise_sum splits it, down to
    leaf(lo, hi), the sum of a piece of at most _LEAF elements (or an array
    of such sums, added elementwise). Not a closure of its callers: one
    that calls itself is a reference cycle, which would keep the scratch
    until the garbage collector runs."""
    if n <= _LEAF:
        return leaf(lo, lo + n)
    half = n // 2 - n // 2 % 8
    return _pairwise(leaf, lo, half) + _pairwise(leaf, lo + half, n - half)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine similarity of flattened tensors in float64 (the
    metric-ablation variant). a·a, b·b and a·b each have the bits of numpy's
    pairwise add.reduce over the whole product, like _g2_weighted's sum, but
    are summed leaf by leaf, so no array of the output's size is made."""
    av, bv = np.ravel(a), np.ravel(b)

    def leaf(lo: int, hi: int) -> np.ndarray:
        x, y = av[lo:hi].astype(np.float64), bv[lo:hi].astype(np.float64)
        return np.array([np.add.reduce(x * x), np.add.reduce(y * y),
                         np.add.reduce(x * y)])

    aa, bb, ab = _pairwise(leaf, 0, av.size)
    na, nb = np.sqrt(aa), np.sqrt(bb)
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return 1.0
    return float(1.0 - ab / (na * nb))


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
# (99.0 in chunks), under calibrate's 125.4 with all search off. No step of
# a forward mixes samples (batch norm is folded), so a chunk's values are
# its rows of the whole batch's, byte for byte, as long as each matrix
# product runs the same kernel: OpenBLAS picks its sgemm kernel by row
# count, and with 256 or 128 rows wide-mvit-ln's head product (N, 32)·(32, 4)
# changes in the last bit. So a remainder is never a chunk of its own.
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


def site_extremes(v: np.ndarray, channel_axis: int) -> np.ndarray:
    """v's extremes stand-in: v's dtype, shape 1 on every axis but C on the
    channel axis a and 2 on axis b (0, or 1 when a is 0), row 0 of b holding
    the per-channel min and row 1 the max. Min and max are exact and
    max|x| = max(|min|, |max|), so channel_ranges of it equals that of v bit
    for bit, per layer and per channel along a, and np.any agrees. An array
    of fewer than 2 axes is kept, as it has no axis b.

    Unless it is the channel axis, the sample axis is reduced first: that is
    one elementwise pass over the batch's rows, and leaves one sample's
    worth for the other axes. Min and max do not depend on the order but
    for the sign of a zero, which no fit reads (0 - (-0.0) is 0.0)."""
    if v.ndim < 2:
        return v
    a = channel_axis % v.ndim
    first = (0,) if a else ()
    lo = hi = v
    for axes in (first, tuple(i for i in range(v.ndim) if i not in (a, *first))):
        if axes:
            lo = np.minimum.reduce(lo, axis=axes, keepdims=True)
            hi = np.maximum.reduce(hi, axis=axes, keepdims=True)
    return np.concatenate((lo, hi), axis=int(a == 0))


def pass1_cache_fp(graph: Graph, calib_batch: Tensor, units) -> CalibCache:
    """Forward the whole calibration batch in full precision; cache unit
    outputs, member inputs and the final logits as the forward's own arrays,
    so keys that hold one value share one array, and each site's extremes
    stand-in (site_extremes)."""
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
    if logits.ndim != 2:  # pass 2's labels are the argmax over classes
        raise CalibError(f"model output {logits.shape} is not (N, classes) "
                         f"logits")
    cache.logits_fp = logits.data
    for site in graph.quant_sites:
        cache.site_values[site.key] = site_extremes(
            cache.site_values[site.key], site.channel_axis)
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
    compiled once into a Plan, which runs on the ndarray kernels (KERNELS)
    and one fake_quant_site from a start list of its cached inputs and its
    members' values. run() runs them all and keeps every value as the state
    of its params.
    score_site() scores params that differ from that state's only at one
    site by re-running just that site's cone across the members (Plan.cone):
    the step quantizing it and every step reading a changed value. Every
    other value, quantized operands included, is the state's, so the result
    is bitwise run()'s, and both are bitwise a forward_quant's.
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
        values = {(pid, "out"): arr
                  for pid, arr in cache.unit_inputs[unit.output_id].items()}
        for layer in members:
            values.update((key, v.data if isinstance(v, Tensor) else v)
                          for key, v in layer.values.items())
        self._plan = Plan(tuple(step for layer in members for step in layer.steps),
                          (unit.output_id, "out"))
        self._start = self._plan.start(values)
        self._site = fake_quant_site()
        self._cones = {s.key: self._plan.cone(s.key) for layer in members
                       for s in graph.sites_by_layer[layer.id]}
        self.o_fp = cache.unit_outputs[unit.output_id].ravel()
        self.metric = metric
        # the cache's gradient as it is; g^2 in float64 once a run keeps a
        # state, for the many score_site calls that follow (_g2_weighted)
        self._grad = None if grad is None else grad.ravel()
        self._g2: np.ndarray | None = None
        self._state: list = []
        self.owner: dict | None = None  # the params whose state is held
        self.evals = 0

    def run(self, params: dict, keep: bool = True) -> float:
        """Objective of params from a full re-run; params become the state
        and its owner. keep=False frees each value after its last use and
        leaves no state (owner None), for a run that no score_site follows."""
        self.evals += 1
        if keep and self._g2 is None and self.metric == "hessian":
            self._g2 = np.multiply(self._grad, self._grad, dtype=np.float64)
        plan = self._plan
        vals = self._run(plan.keep if keep else plan.full, params,
                         list(self._start))
        self._state = vals if keep else []
        self.owner = params if keep else None
        return self._score(vals[plan.out])

    def score_site(self, params: dict, site: Site) -> float:
        """run(params)'s objective, re-running only the cone of site."""
        self.evals += 1
        return self._score(self._run(self._cones[site.key], params,
                                     list(self._state))[self._plan.out])

    def adopt(self, params: dict, site: Site) -> None:
        """Make params, changed from the state's at site only, the state."""
        self._run(self._cones[site.key], params, self._state)

    def _run(self, program, params: dict, vals: list) -> list:
        """The plan's program run on vals with params; returns vals."""
        with np.errstate(over="ignore"):  # for fake_quant's x / sc
            return self._plan.run(program, params, vals, KERNELS, self._site)

    def _score(self, o_hat: np.ndarray) -> float:
        if self.metric == "cosine":
            return cosine_distance(o_hat, self.o_fp)
        return _g2_weighted(o_hat.ravel(), self.o_fp, self._grad, self._g2)


def _combos(options: CalibOptions) -> list[tuple[str, str, str, str]]:
    """(granularity, weight scheme, activation scheme, scheme label) in the
    fixed preference order that realizes the deterministic tie-break."""
    gs = ["per_layer"]
    if options.granularity_search:
        gs.append("per_channel")
    if options.scheme_search:
        return [(g, s, s, s) for g in gs for s in ("symmetric", "asymmetric")]
    return [(g, *_DEFAULT[1:]) for g in gs]


# Successive halving over the feasible (granularity, scheme) combinations:
# every one scores its min-max start, the ROUND1_ARMS with the lowest start
# run alternation round 1, and the FINAL_ARMS lowest after it run the rest.
# Each combination's search starts from its own fits, so a cut changes the
# result only by dropping the winner. These cuts kept it on every fixture at
# W6 and W8; keeping 1 after round 1, or only the 2 best starts, did not.
ROUND1_ARMS = 3
FINAL_ARMS = 2


@dataclass(eq=False)
class _Arm:
    """One (granularity, scheme) combination's search so far: its params and
    their objective, scale candidates, and settled, the number of scans in a
    row that left their site at its argmin."""

    combo: tuple[str, str, str, str]
    params: dict
    objective: float = float("inf")
    candidates: dict | None = None
    settled: int = 0


def search_unit(graph: Graph, unit: ReconstructionUnit, cache: CalibCache,
                space: SearchSpace, options: CalibOptions, bits: int = 8,
                trace: list | None = None) -> UnitDecision:
    """Pick scale / granularity / scheme for every site of one unit.

    The arms are the min-max default and, with scale search on, each enabled
    (granularity, scheme) combination whose fits clamp no zero-point. Every
    unit runs three rungs: every arm scores its min-max start; the
    ROUND1_ARMS combinations of lowest objective run alternation round 1
    (weight-site scales, then activation-site scales); the FINAL_ARMS lowest
    after it run the remaining rounds. A combination's search stops at a
    fixed point, once its last len(sites) scans each left their site at its
    argmin. The default is never scanned and stays a candidate, so the
    result never scores worse than it. Each rung advances first the arm
    whose params the evaluator holds (its owner); the others re-run the unit
    to resume, and evals counts those re-runs. Ties resolve to the default,
    then per-layer over per-channel, symmetric over asymmetric, then the
    smallest scale, via the fixed enumeration order.
    """
    sites = [s for lid in unit.layer_ids for s in graph.sites_by_layer[lid]]
    if not sites:
        raise CalibError(f"unit {unit.label} has no quant sites to search")
    evaluator = _UnitEvaluator(graph, unit, cache, options.metric)
    # an all-zero unit has nothing to scale: it keeps min-max, flagged
    fallback = options.scale_search and not any(
        np.any(_site_fp_value(s, cache)) for s in sites)
    arms = [_Arm(_DEFAULT, {s.key: _fit(s, cache, bits, _DEFAULT) for s in sites})]
    for combo in _combos(options) if options.scale_search and not fallback else ():
        params = {s.key: _fit(s, cache, bits, combo) for s in sites}
        # zero-point overflow: the grid cannot represent real zero, so this
        # combination is not a valid quantizer for the unit
        if not any(p.any_clamped for p in params.values()):
            arms.append(_Arm(combo, params))
    default, searched = arms[0], arms[1:]
    scan_order = sorted(sites, key=lambda s: s.kind != "weight")
    for arm in arms:
        # the default is never scanned, so its run keeps no state
        arm.objective = evaluator.run(arm.params, keep=arm is not default)
        if trace is not None:
            trace.append((unit.label, arm.combo[0], arm.combo[3], -1,
                          arm.objective))
    for k, rounds in ((ROUND1_ARMS, 1), (FINAL_ARMS, space.iterations - 1)):
        # the k combinations of lowest objective, earlier first on a tie; no
        # dropped one can rank above a kept one, as a round never raises an
        # objective
        kept = sorted(searched, key=lambda a: a.objective)[:k]
        for arm in sorted((a for a in searched if a in kept),
                          key=lambda a: a.params is not evaluator.owner):
            g, _, _, s_label = arm.combo
            params = arm.params
            for site in scan_order * rounds:
                # A scan scores fixed candidates against the other sites'
                # params, so once the last len(sites) scans, one per site,
                # each left its site at its argmin, every further scan would
                # repeat its last result: the combination is at a fixed point.
                if arm.settled >= len(sites):
                    break
                if evaluator.owner is not params:  # resume, bit for bit
                    evaluator.run(params)
                # candidates keep the fit's zero-point, so one list serves
                # every round
                if arm.candidates is None:
                    arm.candidates = {s.key: params_for_scale(
                        params[s.key], generate_candidates(
                            _site_fp_value(s, cache), bits, space,
                            params[s.key].granularity, s.channel_axis))
                        for s in sites}
                cands = arm.candidates[site.key]
                objs = [evaluator.score_site({**params, site.key: p}, site)
                        for p in cands]
                if trace is not None:
                    trace.extend((unit.label, g, s_label, ci, obj)
                                 for ci, obj in enumerate(objs))
                best = int(np.argmin(objs))
                if objs[best] < arm.objective:
                    params[site.key] = cands[best]
                    evaluator.adopt(params, site)
                    arm.objective = objs[best]
                    arm.settled = 1
                else:
                    arm.settled += 1
    # the first lowest wins a tie: the default, then the earlier combination
    best = min(arms, key=lambda a: a.objective)
    return UnitDecision(label=unit.label, output_id=unit.output_id,
                        params=best.params, granularity=best.combo[0],
                        scheme=best.combo[3], objective=best.objective,
                        fallback=fallback, evals=evaluator.evals)


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
