#!/usr/bin/env python3
"""hyquant benchmark: calibrate one workload, check the result, report metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload calib-overflow-full [--seed N]
        [--seconds S] [--trace 0|1]

With --trace 0 the run repeats calibrate() + evaluate_model() for about S
seconds and reports the end-to-end metrics (medians). With --trace 1 it runs
one untraced and two traced calibrations and reports the per-layer metrics
from spans recorded by wrappers around hyquant's public functions. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Problems go to standard error.

Everything runs in this one process with BLAS pinned to one thread and
HYQUANT_THREADS unset, so the search runs on one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

# BLAS threads are pinned rather than left at the core count: the arrays are
# small, a second BLAS thread makes timings depend on what else the machine
# runs, and the search itself is single-threaded.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# Set-up and evaluation are short, so each is timed in a window of repeats
# (REPEAT_S seconds, at least MIN_REPEATS calls) after every calibration and
# the median over all windows is reported. The host's speed drifts over
# seconds, so samples spread over the whole run vary less from run to run
# than the same number taken at once.
REPEAT_S = 0.5
MIN_REPEATS = 3
TRACED_REPS = 2

END_TO_END = (
    ("calibrate_s", "s"),
    ("evaluate_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("top1_agreement", "fraction"),
    ("objective_sum", "objective"),
)

UNIT_LABELS = ("layer0", "layer1", "bridge0", "layer6", "layer7", "layer9",
               "layer10", "layer12", "layer15")
LAYER_KINDS = ("conv2d", "depthwise_conv2d", "batch_norm", "activation",
               "reshape", "layer_norm", "mhsa", "add", "linear", "pool")

PER_LAYER = (
    ("calib.search.s", "s"),
    ("calib.search.self_s", "s"),
    ("calib.pass1.s", "s"),
    ("calib.pass2.s", "s"),
    ("calib.cache_mb", "MB"),
    ("calib.combos_rejected", "count"),
    *((f"calib.unit.{u}.{m}", unit) for u in UNIT_LABELS for m, unit in (
        ("s", "s"), ("evals", "count"), ("us_per_eval", "us"),
        ("combos_rejected", "count"))),
    ("tensor.backward.s", "s"),
    ("tensor.matmul.calls", "count"),
    ("tensor.matmul.s", "s"),
    ("tensor.matmul.gflop_computed", "GFLOP"),
    ("tensor.conv2d.calls", "count"),
    ("tensor.conv2d.s", "s"),
    ("tensor.conv2d.gflop_computed", "GFLOP"),
    ("tensor.softmax.calls", "count"),
    ("tensor.softmax.s", "s"),
    ("tensor.load_tensor.s", "s"),
    ("quant.quantize_dequantize.calls", "count"),
    ("quant.quantize_dequantize.s", "s"),
    ("quant.quantize_dequantize.p50_us", "us"),
    ("quant.quantize_dequantize.p99_us", "us"),
    ("quant.quantize_dequantize.mb_computed", "MB"),
    ("quant.fit_minmax.calls", "count"),
    ("quant.fit_minmax.s", "s"),
    ("quant.params_for_scale.calls", "count"),
    ("quant.params_for_scale.s", "s"),
    *((f"graph.run_layer.{k}.{m}", unit) for k in LAYER_KINDS
      for m, unit in (("calls", "count"), ("s", "s"))),
    ("graph.run_layer.mhsa.self_s", "s"),
    ("graph.forward_fp.s", "s"),
    ("graph.forward_quant.s", "s"),
    ("graph.load_manifest.s", "s"),
    ("zoo.build_fixture.s", "s"),
    ("bridge.units", "count"),
    ("bridge.bridge_units", "count"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

MB = float(1 << 20)


def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    os.environ.pop("HYQUANT_THREADS", None)


def environment(np) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            **{k: os.environ[k] for k in PINNED_ENV},
            "HYQUANT_THREADS": os.environ.get("HYQUANT_THREADS", "unset")}


def repeat(call):
    """Time call() until it has run REPEAT_S seconds and MIN_REPEATS times;
    returns (durations, last result)."""
    times = []
    while len(times) < MIN_REPEATS or sum(times) < REPEAT_S:
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    return times, result


def report_problems(where: str, problems: list[str]) -> None:
    for p in problems:
        print(f"problem ({where}): {p}", file=sys.stderr)


class Run:
    """One benchmark invocation: inputs, set-up, measured calls, checks."""

    def __init__(self, wl, seed, reference, workdir):
        import program
        self.program = program
        self.wl, self.seed, self.reference = wl, seed, reference
        self.workdir = str(workdir)
        subprocess.run([sys.executable, str(HERE / "make_inputs.py"),
                        wl.name, str(seed), self.workdir], check=True)
        self.attempted = self.failed = 0
        self.outcomes = []

    def setup(self):
        return self.program.setup(self.wl, self.workdir)

    def calibrate_and_check(self, graph, calib_x, defaults):
        """One measured calibrate(), checked; returns (seconds, qconfig,
        decisions), or None if it raised."""
        program = self.program
        self.attempted += 1
        problems = []
        result = None
        try:
            t0 = time.perf_counter()
            qcfg, decisions, rows = program.run_calibration(
                self.wl, graph, calib_x)
            seconds = time.perf_counter() - t0
            outcome, problems = program.check(self.wl, graph, qcfg, decisions,
                                              rows, defaults)
            problems += program.compare_reference(outcome, self.reference)
            if self.outcomes:
                problems += program.compare_repeat(self.outcomes[0], outcome)
            self.outcomes.append(outcome)
            result = seconds, qcfg, decisions
        except Exception:  # a failing call is a failed run, not a crash
            problems.append(traceback.format_exc())
        if problems:
            self.failed += 1
            report_problems(f"calibration {self.attempted}", problems)
        return result


def measure(run: Run, seconds: float):
    """--trace 0: set up, then calibrate, evaluate and set up again until
    the time is used up; returns the samples of each end-to-end metric."""
    from hyquant import cli
    setup_s, data = repeat(run.setup)
    graph, calib_x, eval_x, labels = data
    defaults = run.program.default_objectives(run.wl, graph, calib_x)
    gc.collect()

    calib_s, eval_s, agreements = [], [], []
    started = time.perf_counter()
    while True:
        result = run.calibrate_and_check(graph, calib_x, defaults)
        if result is not None:
            calib_s.append(result[0])
            times, _ = repeat(lambda: agreements.append(cli.evaluate_model(
                graph, result[1], eval_x, labels)["top1_agreement"]))
            eval_s.extend(times)
        del result
        setup_s.extend(repeat(run.setup)[0])
        gc.collect()
        elapsed = time.perf_counter() - started
        # stop at the cycle count nearest to the requested time
        if elapsed + elapsed / run.attempted / 2 >= seconds:
            break
    if not calib_s:
        return None
    if len(set(agreements)) != 1:
        run.failed += 1
        report_problems("evaluation", [f"agreement differs between repeats: "
                                       f"{sorted(set(agreements))}"])
    return {
        "calibrate_s": calib_s,
        "evaluate_s": eval_s,
        "setup_s": setup_s,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0],
        "top1_agreement": agreements,
        "objective_sum": [o.objective_sum for o in run.outcomes],
    }


def traced(run: Run):
    """--trace 1: one untraced and TRACED_REPS traced calibrations; the
    first traced one also evaluates. Returns the per-layer metrics."""
    from hyquant import cli
    import spans

    setup_tracer = spans.Tracer()
    with spans.instrument(setup_tracer) as rebound:
        graph, calib_x, eval_x, labels = run.setup()
    restored = all(getattr(m, k) is f for m, k, f in rebound)
    defaults = run.program.default_objectives(run.wl, graph, calib_x)
    gc.collect()

    base = run.calibrate_and_check(graph, calib_x, defaults)
    tracers, traced_s, decisions = [], [], None
    for rep in range(TRACED_REPS):
        tracer = spans.Tracer()
        with spans.instrument(tracer) as rebound:
            result = run.calibrate_and_check(graph, calib_x, defaults)
            if rep == 0 and result is not None:
                cli.evaluate_model(graph, result[1], eval_x, labels)
        restored &= all(getattr(m, k) is f for m, k, f in rebound)
        if result is not None:
            traced_s.append(result[0])
            decisions = decisions or result[2]
        tracers.append(tracer)
        del result
        gc.collect()
    if base is None or len(traced_s) != TRACED_REPS:
        return None

    problems = []
    if not restored:
        problems.append("a wrapped function was not restored")
    qdq = [spans.summarize(t, under="calib.calibrate")
           ["quant.quantize_dequantize"]["calls"] for t in tracers]
    if len(set(qdq)) != 1:
        problems.append(f"quantize_dequantize calls differ between repeats: "
                        f"{qdq}")
    tracer = tracers[0]
    name_id, start, end, parent = tracer.arrays()
    if not spans.children_within_parents(start, end, parent,
                                         spans.self_times(start, end, parent)):
        problems.append("children's self times exceed their parent span")
    if problems:
        run.failed += 1
        report_problems("trace", problems)
    WORK.mkdir(exist_ok=True)
    tracer.save(WORK / f"spans-{run.wl.name}-seed{run.seed}.npz")

    evaluate_only = spans.summarize(tracer, under="cli.evaluate_model")
    return layer_metrics(spans.summarize(tracer), evaluate_only,
                         spans.summarize(setup_tracer), tracer,
                         decisions, run.outcomes[-1],
                         traced_s[0] - base[0], len(start))


def layer_metrics(summary, evaluate_only, setup, tracer, decisions, outcome,
                  overhead_s, span_count) -> dict:
    import numpy as np

    def stat(source, name, key):
        return source.get(name, {}).get(key, 0)

    out = {}
    unit_spans = [n for n in summary if n.startswith("calib.unit.")]
    out["calib.search.s"] = sum(summary[n]["s"] for n in unit_spans)
    out["calib.search.self_s"] = sum(summary[n]["self_s"] for n in unit_spans)
    out["calib.pass1.s"] = stat(summary, "calib.pass1", "s")
    out["calib.pass2.s"] = stat(summary, "calib.pass2", "s")
    out["calib.cache_mb"] = tracer.counters["calib.cache.bytes"] / MB
    out["calib.combos_rejected"] = sum(outcome.rejected.values())
    evals = {d.label: d.evals for d in decisions}
    for u in UNIT_LABELS:
        s = stat(summary, f"calib.unit.{u}", "s")
        out[f"calib.unit.{u}.s"] = s
        out[f"calib.unit.{u}.evals"] = evals.get(u, 0)
        out[f"calib.unit.{u}.us_per_eval"] = (1e6 * s / evals[u]
                                              if evals.get(u) else 0.0)
        out[f"calib.unit.{u}.combos_rejected"] = outcome.rejected.get(u, 0)
    out["tensor.backward.s"] = stat(summary, "tensor.backward", "s")
    for op in ("matmul", "conv2d", "softmax"):
        out[f"tensor.{op}.calls"] = stat(summary, f"tensor.{op}", "calls")
        out[f"tensor.{op}.s"] = stat(summary, f"tensor.{op}", "s")
    for op in ("matmul", "conv2d"):
        out[f"tensor.{op}.gflop_computed"] = \
            tracer.counters[f"tensor.{op}.flops"] / 1e9
    out["tensor.load_tensor.s"] = stat(setup, "tensor.load_tensor", "s")
    qdq = summary.get("quant.quantize_dequantize")
    durations_us = qdq["durations_ns"] / 1e3
    out["quant.quantize_dequantize.calls"] = qdq["calls"]
    out["quant.quantize_dequantize.s"] = qdq["s"]
    out["quant.quantize_dequantize.p50_us"] = float(
        np.percentile(durations_us, 50))
    out["quant.quantize_dequantize.p99_us"] = float(
        np.percentile(durations_us, 99))
    out["quant.quantize_dequantize.mb_computed"] = \
        tracer.counters["quant.quantize_dequantize.bytes"] / MB
    for fn in ("fit_minmax", "params_for_scale"):
        out[f"quant.{fn}.calls"] = stat(summary, f"quant.{fn}", "calls")
        out[f"quant.{fn}.s"] = stat(summary, f"quant.{fn}", "s")
    for kind in LAYER_KINDS:
        out[f"graph.run_layer.{kind}.calls"] = stat(
            summary, f"graph.run_layer.{kind}", "calls")
        out[f"graph.run_layer.{kind}.s"] = stat(
            summary, f"graph.run_layer.{kind}", "s")
    out["graph.run_layer.mhsa.self_s"] = stat(summary, "graph.run_layer.mhsa",
                                              "self_s")
    out["graph.forward_fp.s"] = stat(evaluate_only, "graph.forward_fp", "s")
    out["graph.forward_quant.s"] = stat(evaluate_only, "graph.forward_quant",
                                        "s")
    out["graph.load_manifest.s"] = stat(setup, "graph.load_manifest", "s")
    out["zoo.build_fixture.s"] = stat(setup, "zoo.build_fixture", "s")
    out["bridge.units"] = tracer.counters["bridge.units"]
    out["bridge.bridge_units"] = tracer.counters["bridge.bridge_units"]
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = span_count
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="evaluation-batch seed (default: the fixture's)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    if not (ROOT / "src" / "hyquant").is_dir():
        print(f"error: hyquant sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import program

    wl = program.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(program.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = wl.spec.seed if args.seed is None else args.seed
    reference = json.loads((HERE / "references.json").read_text())[wl.name]

    env = environment(np)
    print(f"workload {wl.name} seed {seed}: fixture {wl.spec.name}, "
          f"W{wl.bits}, {wl.mode} mode")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))

    workdir = WORK / f"{wl.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(wl, seed, reference, workdir)
        if args.trace:
            values = traced(run)
            names = PER_LAYER
        else:
            values = measure(run, args.seconds)
            names = END_TO_END
    finally:
        shutil.rmtree(workdir)
    if values is None:
        print("error: no calibration completed", file=sys.stderr)
        return 1

    for fp in sorted({o.fingerprint for o in run.outcomes}):
        tag = "matches" if fp == reference["fingerprint"] else "differs from"
        print(f"fingerprint {fp} ({tag} the reference)")
    if run.outcomes:
        print(f"combos_rejected {json.dumps(run.outcomes[0].rejected)}")
    if args.trace:
        metrics = {n: {"value": values[n], "unit": u} for n, u in names}
        for n, u in names:
            print(f"{n:45s} {values[n]:.6g} {u}")
    else:
        metrics = {n: {"value": statistics.median(values[n]), "unit": u}
                   for n, u in names}
        for n, u in names:
            v = values[n]
            print(f"{n:16s} {metrics[n]['value']:.6g} {u} (median of "
                  f"{len(v)}, range {min(v):.6g} .. {max(v):.6g})")
    print(f"{'failed_share':16s} {run.failed}/{run.attempted} "
          f"= {run.failed / run.attempted:.3g}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
