"""Workloads, their inputs, and the calls into hyquant's public API.

Every workload calibrates one fixture from the zoo, built at the fixture's
own seed, on the fixture's own calibration batch, so the qconfig is the same
at every seed and is checked against a recorded fingerprint on every run.
The benchmark seed picks the evaluation batch: a seeded draw of
`eval_count` samples from a larger batch of the fixture's data
distribution. `write_inputs` makes these files in a child process (see
make_inputs.py), so drawing them does not count in the measured process's
peak memory.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

import hyquant as hq
from hyquant import cli
from hyquant.graph import SiteCoverageError

# Evaluation batches are drawn from this many times as many samples of the
# fixture's distribution.
POOL_FACTOR = 4


def input_paths(workdir: str) -> dict[str, str]:
    return {"manifest": os.path.join(workdir, "model.json"),
            **{k: os.path.join(workdir, f"{k}.hqt")
               for k in ("calib", "eval", "labels")}}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: hq.FixtureSpec
    bits: int
    mode: str
    space: hq.SearchSpace
    options: hq.CalibOptions
    eval_count: int             # size of the seeded evaluation batch
    artifact: bool = False      # set-up loads manifest + blobs, not the zoo


WORKLOADS = {w.name: w for w in (
    Workload("calib-overflow-full", hq.FIXTURES["overflow-bridge"], 6, "full",
             hq.SearchSpace(candidates=32, iterations=2), hq.CalibOptions(),
             eval_count=1024, artifact=True),
    Workload("passes-large-batch",
             replace(hq.FIXTURES["wide-mvit-ln"], calib_count=2048,
                     eval_count=2048),
             8, "partial", hq.SearchSpace(),
             hq.CalibOptions(scale_search=False, granularity_search=False,
                             scheme_search=False),
             eval_count=2048),
)}


def write_inputs(wl: Workload, seed: int, workdir: str) -> None:
    """Write the seeded evaluation batch and its labels and, for the
    artifact workload, the model as manifest + blobs and its calibration
    batch, at input_paths(workdir)."""
    pool_spec = replace(wl.spec, eval_count=wl.eval_count * POOL_FACTOR)
    _, _, pool, pool_labels = hq.build_fixture(pool_spec)
    pick = np.sort(np.random.default_rng(seed).choice(
        pool.shape[0], wl.eval_count, replace=False))
    paths = input_paths(workdir)
    hq.save_tensor(paths["eval"], hq.Tensor(pool.data[pick]))
    hq.save_tensor(paths["labels"],
                   hq.Tensor(pool_labels[pick].astype(np.float32)))
    if wl.artifact:
        graph, calib_x, _, _ = hq.build_fixture(wl.spec)
        hq.save_manifest(cli.with_mode(graph, wl.mode), paths["manifest"])
        hq.save_tensor(paths["calib"], calib_x)


def setup(wl: Workload, workdir: str):
    """Get the model and data into memory: (graph, calib, eval, labels)."""
    paths = input_paths(workdir)
    if wl.artifact:
        graph = hq.load_manifest(paths["manifest"])
        calib_x = hq.load_tensor(paths["calib"])
    else:
        graph, calib_x, _, _ = hq.build_fixture(wl.spec)
        graph = cli.with_mode(graph, wl.mode)
    eval_x = hq.load_tensor(paths["eval"])
    labels = hq.load_tensor(paths["labels"]).data.astype(np.int64)
    return graph, calib_x, eval_x, labels


def searched_units(graph):
    units = hq.units_for(graph, hq.resolve_bridge_blocks(
        graph, graph.bridge_annotations))
    return [u for u in units if any(graph.sites_by_layer[l] for l in u.layer_ids)]


def default_objectives(wl: Workload, graph, calib_x) -> dict[str, float]:
    """Each unit's min-max objective: search_unit with scale search off."""
    units = searched_units(graph)
    cache = hq.pass1_cache_fp(graph, calib_x, units)
    hq.pass2_cache_gradients(graph, calib_x, units, cache, wl.bits)
    off = hq.CalibOptions(scale_search=False, granularity_search=False,
                          scheme_search=False, metric=wl.options.metric)
    return {u.label: hq.search_unit(graph, u, cache, wl.space, off,
                                    wl.bits).objective for u in units}


def fingerprint(qcfg: dict, bits: int, mode: str) -> str:
    """sha256 of json.dumps(qconfig_to_doc(q, bits, mode), sort_keys=True)."""
    doc = cli.qconfig_to_doc(qcfg, bits, mode)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def combos_rejected(rows, decisions, options) -> dict[str, int]:
    """Per unit, the (granularity, scheme) combinations skipped for
    zero-point overflow, from calibrate()'s trace rows.

    Each unit logs one candidate -1 row for its min-max default and one for
    every combination it could fit; the rest were rejected.
    """
    per_unit = ((2 if options.granularity_search else 1)
                * (2 if options.scheme_search else 1))
    fitted = Counter(row[0] for row in rows if row[3] == -1)
    out = {}
    for d in decisions:
        tried = 0 if (not options.scale_search or d.fallback) else per_unit
        out[d.label] = tried - (fitted[d.label] - 1)
    return out


@dataclass
class Outcome:
    """What one calibrate() call produced, reduced to comparable values."""

    fingerprint: str
    evals: dict[str, int]
    objective_sum: float
    rejected: dict[str, int]


def run_calibration(wl: Workload, graph, calib_x):
    rows = []
    qcfg, decisions = hq.calibrate(graph, calib_x, wl.space, wl.options,
                                   wl.bits, trace=rows)
    return qcfg, decisions, rows


def check(wl: Workload, graph, qcfg, decisions, rows,
          defaults: dict[str, float]) -> tuple[Outcome, list[str]]:
    """Correctness checks on one calibrate() result; returns the outcome
    and a list of problems (empty when correct)."""
    problems = []
    try:
        hq.check_site_coverage(graph, qcfg)
    except SiteCoverageError as e:
        problems.append(str(e))
    clamped = sorted(f"{l}:{n}" for (l, n), p in qcfg.items() if p.any_clamped)
    if clamped:
        problems.append(f"clamped zero-points chosen at {', '.join(clamped)}")
    if sorted(d.label for d in decisions) != sorted(defaults):
        problems.append("searched units differ from the min-max reference units")
    for d in decisions:
        if d.label in defaults and not d.objective <= defaults[d.label]:
            problems.append(f"unit {d.label}: objective {d.objective!r} worse "
                            f"than min-max {defaults[d.label]!r}")
    outcome = Outcome(
        fingerprint=fingerprint(qcfg, wl.bits, graph.mode),
        evals={d.label: d.evals for d in decisions},
        objective_sum=float(sum(d.objective for d in decisions)),
        rejected=combos_rejected(rows, decisions, wl.options))
    return outcome, problems


def compare_reference(outcome: Outcome, reference: dict) -> list[str]:
    """Problems where a run departs from the workload's recorded reference."""
    problems = []
    if outcome.fingerprint != reference["fingerprint"]:
        problems.append(f"fingerprint {outcome.fingerprint[:12]} != reference "
                        f"{reference['fingerprint'][:12]}")
    if outcome.rejected != reference["combos_rejected"]:
        problems.append(f"rejected combinations {outcome.rejected} != "
                        f"reference {reference['combos_rejected']}")
    return problems


def compare_repeat(first: Outcome, other: Outcome) -> list[str]:
    """Problems where a repeated calibrate() call departs from the first."""
    problems = []
    for field in ("fingerprint", "evals", "objective_sum", "rejected"):
        a, b = getattr(first, field), getattr(other, field)
        if a != b:
            problems.append(f"{field} differs between repeats: {a} vs {b}")
    return problems
