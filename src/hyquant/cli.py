"""Operator commands: quantize, evaluate, report, fixtures.

Exit codes: 0 success, 1 runtime failure, 2 usage error. All artifacts are
deterministic functions of (inputs, seed); the qconfig document format is
"hyquant-qconfig/1" and records raw plus clamped zero-points per site so
search decisions stay auditable against the trace.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import click
import numpy as np

from .calib import CalibError, CalibOptions, SearchSpace, calibrate, run_chunked
from .graph import (Graph, GraphError, _is_int, _list_of, _one_of, forward_fp,
                    forward_quant, load_manifest, read_fields, read_json)
from .quant import (GRANULARITIES, SCHEMES, QuantError, QuantParams,
                    channel_ranges, detect_zero_point_overflow)
from .tensor import Tensor, TensorError, load_tensor
from .zoo import FIXTURES, ZooError, build_fixture, export_fixture

QCONFIG_FORMAT = "hyquant-qconfig/1"
METRICS_FORMAT = "hyquant-metrics/1"

# bridge annotation errors are GraphErrors
_ERRORS = (GraphError, QuantError, CalibError, TensorError, ZooError, OSError)


# ---------------------------------------------------------------------------
# artifact documents


def qconfig_to_doc(qcfg: dict, bits: int, mode: str,
                   objectives: dict | None = None) -> dict:
    sites = []
    for (lid, name) in sorted(qcfg):
        p = qcfg[(lid, name)]
        # tolist() gives a scalar for per-layer and a list for per-channel
        entry = {"layer": lid, "site": name, "bits": p.bits, "scheme": p.scheme,
                 "granularity": p.granularity, "channel_axis": p.channel_axis,
                 "scale": p.scale.tolist(), "zero_point": p.zero_point.tolist(),
                 "zero_point_raw": p.zero_point_raw.tolist()}
        if objectives and (lid, name) in objectives:
            entry["objective"] = float(objectives[(lid, name)])
        sites.append(entry)
    return {"format": QCONFIG_FORMAT, "bits": bits, "mode": mode, "sites": sites}


def save_qconfig(path: str, qcfg: dict, bits: int, mode: str,
                 objectives: dict | None = None) -> None:
    with open(path, "w") as f:
        json.dump(qconfig_to_doc(qcfg, bits, mode, objectives), f, indent=2,
                  sort_keys=True)
        f.write("\n")


def _one_or_list(ok, what: str):  # a per_layer value or per_channel list
    return lambda v: ok(v) or _list_of(ok)(v), f"{what} or a list of them"


_NUMBERS = _one_or_list(lambda v: type(v) in (int, float) and math.isfinite(v),
                        "a finite number")
# (check, what a valid value is[, default]) per field, read by read_fields
_QCONFIG_FIELDS = {
    "format": (lambda v: v == QCONFIG_FORMAT, repr(QCONFIG_FORMAT)),
    "bits": (_is_int, "an integer", 8),
    "mode": (*_one_of("partial", "full"), "partial"),
    "sites": (_list_of(lambda v: isinstance(v, dict)), "a list of site objects"),
}
_ENTRY_FIELDS = {
    "layer": (_is_int, "a layer id"),
    "site": (lambda v: isinstance(v, str), "a site name"),
    "bits": (_is_int, "an integer"),
    "scheme": _one_of(*SCHEMES),
    "granularity": _one_of(*GRANULARITIES),
    "channel_axis": (lambda v: v is None or _is_int(v), "an integer or null"),
    "scale": _NUMBERS,
    "zero_point": _one_or_list(_is_int, "an integer"),
    "zero_point_raw": _NUMBERS,
}


def load_qconfig(path: str):
    """(qcfg, bits, mode) of a qconfig; a malformed one raises one QuantError
    naming the file and, where there is one, the entry and field."""
    doc = read_fields(read_json(path, QuantError), _QCONFIG_FIELDS, QuantError, path)
    qcfg = {}
    for entry in doc["sites"]:
        where = f"{path}: entry {entry.get('layer', '?')}:{entry.get('site', '?')}"
        fields = read_fields(entry, _ENTRY_FIELDS, QuantError, where)
        if fields["bits"] != doc["bits"]:
            raise QuantError(f"{where}: field 'bits' is {fields['bits']} but "
                             f"the document's bits is {doc['bits']}")
        key = (fields.pop("layer"), fields.pop("site"))
        if key in qcfg:
            raise QuantError(f"{where}: a second entry for the same site")
        try:
            qcfg[key] = QuantParams(**fields)
        except (QuantError, OverflowError) as e:  # OverflowError: int32 zero_point
            raise QuantError(f"{where}: {e}") from None
    return qcfg, doc["bits"], doc["mode"]


def with_mode(graph: Graph, mode: str) -> Graph:
    if mode == graph.mode:
        return graph
    return Graph(layers=graph.layers, input_shape=graph.input_shape,
                 output_id=graph.output_id, mode=mode,
                 bridge_annotations=graph.bridge_annotations)


# ---------------------------------------------------------------------------
# metrics


class LabelError(TensorError):
    """Evaluation labels outside the model's classes."""


def evaluate_model(graph: Graph, qcfg: dict, eval_x: Tensor,
                   labels: np.ndarray) -> dict:
    """FP vs quantized top-1, agreement, and mean logit MSE on one batch of
    one label per sample, forwarded in the calibration passes' chunks
    (run_chunked); the metrics are taken on the whole batch's logits."""
    if eval_x.ndim == 0:
        raise GraphError("evaluation batch is a scalar; it needs a sample axis")
    if eval_x.size == 0:
        raise GraphError("evaluation batch is empty")
    if labels.shape != eval_x.shape[:1]:
        raise LabelError(f"{labels.size} labels for an evaluation batch of "
                         f"shape {eval_x.shape}")
    logits = run_chunked(eval_x, lambda rows, chunk: {
        "fp": forward_fp(graph, chunk)[0].data,
        "q": forward_quant(graph, chunk, qcfg)[0].data})
    y_fp, y_q = logits["fp"], logits["q"]
    if y_fp.ndim != 2:
        raise GraphError(f"model output {y_fp.shape} is not (N, classes) logits")
    classes = y_fp.shape[1]
    if not np.all((labels >= 0) & (labels < classes)):
        raise LabelError(f"labels must lie in [0, {classes}) for a model of "
                         f"{classes} classes, got {labels.min()} to "
                         f"{labels.max()}")
    pred_fp = np.argmax(y_fp, axis=1)
    pred_q = np.argmax(y_q, axis=1)
    return {
        "format": METRICS_FORMAT,
        "samples": int(eval_x.shape[0]),
        "fp_top1": float(np.mean(pred_fp == labels)),
        "quant_top1": float(np.mean(pred_q == labels)),
        "top1_agreement": float(np.mean(pred_fp == pred_q)),
        "mean_logit_mse": float(np.mean((y_fp.astype(np.float64)
                                         - y_q.astype(np.float64)) ** 2)),
    }


def range_report(graph: Graph, calib_x: Tensor, val_x: Tensor, bits: int):
    """Per-activation-site, per-channel min/max for calibration and validation
    batches plus zero-point overflow flags on the calibration ranges."""
    capture_c: dict = {}
    capture_v: dict = {}
    forward_fp(graph, calib_x, capture=capture_c)
    forward_fp(graph, val_x, capture=capture_v)
    rows = []
    for site in graph.quant_sites:
        if site.kind != "activation":
            continue
        rep = detect_zero_point_overflow(Tensor._wrap(capture_c[site.key]),
                                         bits, site.channel_axis)
        v_min, v_max, _ = channel_ranges(capture_v[site.key], site.channel_axis)
        for ch in rep.channels:
            rows.append({
                "layer": site.layer,
                "site": site.name,
                "channel": ch.channel,
                "calib_min": ch.r_min,
                "calib_max": ch.r_max,
                "val_min": float(v_min[ch.channel]),
                "val_max": float(v_max[ch.channel]),
                "zero_point_raw": ch.zero_point_raw,
                "flagged": ch.flagged,
            })
    return rows


REPORT_COLUMNS = ("layer", "site", "channel", "calib_min", "calib_max",
                  "val_min", "val_max", "zero_point_raw", "flagged")


def write_report_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(REPORT_COLUMNS)
        for r in rows:
            # csv writes floats with repr(), so they read back exactly
            writer.writerow([int(r[c]) if c == "flagged" else r[c]
                             for c in REPORT_COLUMNS])


# ---------------------------------------------------------------------------
# shared loading helpers


def _load_labels(path: str) -> np.ndarray:
    vals = load_tensor(path).data
    # checked before the cast, which would wrap values beyond int64
    if not np.all((vals == np.trunc(vals)) & (np.abs(vals) < 2.0 ** 63)):
        raise TensorError(f"{path}: labels blob holds values that are not "
                          f"integers within the int64 range")
    return vals.astype(np.int64).reshape(-1)


def _check_source(model, fixture, seed, blobs: dict) -> None:
    """Usage error unless exactly one model source is given, a --model comes
    with every data blob (flag -> path) and no --seed, and a --fixture, which
    brings its own data, with no blob."""
    if (model is None) == (fixture is None):
        raise click.UsageError("give exactly one of --model or --fixture")
    given = [flag for flag, path in blobs.items() if path is not None]
    if fixture is not None:
        if given:
            raise click.UsageError(f"{given[0]} needs --model; --fixture "
                                   f"brings its own data")
    elif len(given) < len(blobs):
        raise click.UsageError(f"--model requires {' and '.join(blobs)}")
    elif seed is not None:
        raise click.UsageError("--seed applies to --fixture only")


def _load_source(model, fixture, seed, mode, calib_path=None, eval_path=None,
                 labels_path=None):
    """(graph, calib batch, eval batch, eval labels) of a fixture, or of the
    --model manifest and the blob paths given (None for the others); mode,
    unless None, overrides the model's declared mode."""
    if fixture is not None:
        graph, *data = build_fixture(fixture, seed=seed)
    else:
        graph = load_manifest(model)
        data = [load(path) if path else None for load, path in (
            (load_tensor, calib_path), (load_tensor, eval_path),
            (_load_labels, labels_path))]
    return (graph if mode is None else with_mode(graph, mode), *data)


# ---------------------------------------------------------------------------
# commands


class _Main(click.Group):
    """The command group: a runtime failure (_ERRORS) in any command prints
    one error: line and exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _ERRORS as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main():
    """Post-training quantization for hybrid conv+attention models."""


@main.command()
@click.option("--model", type=click.Path(exists=True), help="model manifest")
@click.option("--fixture", type=str, help="built-in fixture name")
@click.option("--calib", type=click.Path(exists=True), help="calibration blob")
@click.option("--bits", type=click.Choice(["8", "6"]), default="8", show_default=True)
@click.option("--mode", type=click.Choice(["partial", "full"]), default=None,
              help="override the model's declared quantization mode")
@click.option("--scheme-search/--no-scheme-search", default=True,
              show_default=True, help="also search symmetric vs asymmetric")
@click.option("--granularity-search/--no-granularity-search", default=True,
              show_default=True, help="also search per-layer vs per-channel")
@click.option("--scale-search/--no-scale-search", default=True,
              show_default=True, help="search scale candidates")
@click.option("--metric", type=click.Choice(["hessian", "cosine"]),
              default="hessian", show_default=True)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--beta", type=float, default=1.2, show_default=True)
@click.option("--candidates", type=int, default=100, show_default=True)
@click.option("--iterations", type=int, default=3, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="fixture seed override")
@click.option("--out", type=click.Path(), required=True, help="qconfig output path")
@click.option("--trace", type=click.Path(), default=None, help="search trace CSV")
def quantize(model, fixture, calib, bits, mode, scale_search, granularity_search,
             scheme_search, metric, alpha, beta, candidates, iterations, seed,
             out, trace):
    """Calibrate a model and write the quantization config document."""
    _check_source(model, fixture, seed, {"--calib": calib})
    try:
        space = SearchSpace(alpha=alpha, beta=beta, candidates=candidates,
                            iterations=iterations)
        options = CalibOptions(scale_search=scale_search,
                               granularity_search=granularity_search,
                               scheme_search=scheme_search, metric=metric)
    except CalibError as e:
        raise click.UsageError(str(e))
    bits = int(bits)
    graph, calib_x, _, _ = _load_source(model, fixture, seed, mode,
                                        calib_path=calib)
    trace_rows: list | None = [] if trace else None
    qcfg, decisions = calibrate(graph, calib_x, space, options, bits=bits,
                                trace=trace_rows)
    objectives = {key: d.objective for d in decisions for key in d.params}
    save_qconfig(out, qcfg, bits, graph.mode, objectives)
    if trace:
        with open(trace, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["unit", "granularity", "scheme", "candidate",
                             "objective"])
            writer.writerows(trace_rows)  # floats are written with repr()
    click.echo(f"wrote {out} ({len(qcfg)} sites, {len(decisions)} units)")
    fallbacks = [d.label for d in decisions if d.fallback]
    if fallbacks:
        click.echo(f"warning: degenerate units kept min-max defaults: "
                   f"{', '.join(fallbacks)}", err=True)


@main.command()
@click.option("--model", type=click.Path(exists=True), help="model manifest")
@click.option("--fixture", type=str, help="built-in fixture name")
@click.option("--eval", "eval_path", type=click.Path(exists=True),
              help="evaluation data blob")
@click.option("--labels", "labels_path", type=click.Path(exists=True),
              help="evaluation labels blob")
@click.option("--qconfig", "qconfig_path", type=click.Path(exists=True),
              required=True)
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="fixture seed override")
@click.option("--out", type=click.Path(), default=None, help="metrics JSON path")
def evaluate(model, fixture, eval_path, labels_path, qconfig_path, seed, out):
    """Report FP vs quantized top-1, agreement and logit MSE."""
    _check_source(model, fixture, seed,
                  {"--eval": eval_path, "--labels": labels_path})
    qcfg, _, mode = load_qconfig(qconfig_path)
    graph, _, eval_x, labels = _load_source(model, fixture, seed, mode,
                                            eval_path=eval_path,
                                            labels_path=labels_path)
    try:
        metrics = evaluate_model(graph, qcfg, eval_x, labels)
    except LabelError as e:
        raise TensorError(f"{labels_path}: {e}") from None
    doc = json.dumps(metrics, indent=2, sort_keys=True)
    click.echo(doc)
    if out:
        with open(out, "w") as f:
            f.write(doc + "\n")


@main.command()
@click.option("--model", type=click.Path(exists=True), help="model manifest")
@click.option("--fixture", type=str, help="built-in fixture name")
@click.option("--calib", type=click.Path(exists=True), help="calibration blob")
@click.option("--val", type=click.Path(exists=True), help="validation blob")
@click.option("--bits", type=click.Choice(["8", "6"]), default="8", show_default=True)
@click.option("--mode", type=click.Choice(["partial", "full"]), default=None,
              help="override the model's declared quantization mode")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="fixture seed override")
@click.option("--out", type=click.Path(), required=True, help="report CSV path")
def report(model, fixture, calib, val, bits, mode, seed, out):
    """Per-channel activation ranges, overflow flags, calib-vs-val gap."""
    _check_source(model, fixture, seed, {"--calib": calib, "--val": val})
    graph, calib_x, val_x, _ = _load_source(model, fixture, seed, mode,
                                            calib_path=calib, eval_path=val)
    rows = range_report(graph, calib_x, val_x, int(bits))
    write_report_csv(out, rows)
    flagged = [r for r in rows if r["flagged"]]
    gap = max((abs(r["calib_max"] - r["val_max"])
               + abs(r["calib_min"] - r["val_min"]) for r in rows), default=0.0)
    click.echo(f"wrote {out}: {len(rows)} channels across "
               f"{len({(r['layer'], r['site']) for r in rows})} activation sites")
    click.echo(f"zero-point overflow flags: {len(flagged)}")
    click.echo(f"largest calibration-vs-validation range gap: {gap:.6g}")


@main.group()
def fixtures():
    """List or export the built-in synthetic fixtures."""


@fixtures.command("list")
def fixtures_list():
    for name in sorted(FIXTURES):
        spec = FIXTURES[name]
        click.echo(f"{name}: channels={spec.channels} embed={spec.embed} "
                   f"heads={spec.heads} norm={spec.norm} seed={spec.seed}"
                   f"{' overflow' if spec.overflow else ''}")


@fixtures.command("export")
@click.argument("name")
@click.option("--out", type=click.Path(), required=True, help="output directory")
def fixtures_export(name, out):
    paths = export_fixture(name, out)
    for key in sorted(paths):
        click.echo(f"{key}: {paths[key]}")


if __name__ == "__main__":  # pragma: no cover
    main()
