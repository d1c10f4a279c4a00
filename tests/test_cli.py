import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hyquant.calib as C
import hyquant.cli as cli_module
from hyquant.cli import (LabelError, evaluate_model, load_qconfig, main,
                         qconfig_to_doc, range_report, save_qconfig, with_mode,
                         write_report_csv)
from hyquant.graph import (Graph, GraphError, GraphExecutionError, LayerSpec,
                           forward_fp, save_manifest)
from hyquant.quant import detect_zero_point_overflow
from hyquant.tensor import BLOB_MAGIC, Tensor, load_tensor, save_tensor
from hyquant.zoo import FIXTURES, build_fixture, export_fixture


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def run_cli_process(args, **env):
    """Run hyquant in a fresh interpreter with the given environment
    variables set; returns the CompletedProcess with text output."""
    full = dict(os.environ, **env)
    full["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), full.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "hyquant.cli", *args],
                          capture_output=True, text=True, env=full, timeout=300)


def run_quantize(runner, out, extra=()):
    args = ["quantize", "--fixture", "tiny-mvit-ln", "--out", str(out),
            "--candidates", "4", "--iterations", "1"]
    args.extend(extra)
    return runner.invoke(main, args)


def error_lines(output):
    return [line for line in output.splitlines()
            if line.lower().startswith("error:")]


def read_report(path):
    """The report CSV's rows, each value read back as the type written."""
    types = {"layer": int, "site": str, "channel": int,
             "flagged": lambda v: bool(int(v))}
    with open(path, newline="") as f:
        return [{c: types.get(c, float)(v) for c, v in rec.items()}
                for rec in csv.DictReader(f)]


class TestQuantizeCommand:
    def test_writes_qconfig_covering_all_sites(self, runner, tmp_path):
        out = tmp_path / "q.json"
        result = run_quantize(runner, out)
        assert result.exit_code == 0, result.output
        qcfg, bits, mode, objectives = load_qconfig(str(out))
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        assert set(qcfg) == {s.key for s in graph.quant_sites}
        assert bits == 8 and mode == "partial"
        doc = json.loads(out.read_text())
        assert doc["format"] == "hyquant-qconfig/1"
        assert all("objective" in e and "zero_point_raw" in e
                   for e in doc["sites"])
        # everything, the objectives included, is read back as written
        assert qconfig_to_doc(qcfg, bits, mode, objectives)["sites"] == \
            doc["sites"]

    def test_default_settings_run_under_60s(self, runner, tmp_path):
        out = tmp_path / "q.json"
        start = time.monotonic()
        result = runner.invoke(main, ["quantize", "--fixture", "tiny-mvit-ln",
                                      "--out", str(out)])
        elapsed = time.monotonic() - start
        assert result.exit_code == 0, result.output
        assert elapsed < 60.0
        # ROADMAP's baseline fingerprint of the default-space search: the
        # CLI's defaults are the library's
        qcfg, bits, mode, _ = load_qconfig(str(out))
        doc = json.dumps(qconfig_to_doc(qcfg, bits, mode), sort_keys=True)
        assert (bits, mode) == (8, "partial")
        assert hashlib.sha256(doc.encode()).hexdigest() == \
            "1ec590191eec11a7dc3d1553750515805c2ab905c467517c238341bc11b63628"

    def test_flag_chain_violation_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "q.json"
        result = run_quantize(runner, out, ["--no-scale-search"])
        assert result.exit_code == 2
        assert "scale" in result.output

    def test_scheme_without_granularity_is_usage_error(self, runner, tmp_path):
        result = run_quantize(runner, tmp_path / "q.json",
                              ["--no-granularity-search"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args,message", [
        (["--alpha", "nan"], "alpha nan must be finite"),
        (["--beta", "inf"], "beta inf must be finite"),
        (["--alpha", "-3", "--beta", "-1"], "alpha -3.0 must not be negative"),
        (["--beta", "0"], "beta 0.0 must be positive"),
    ], ids=["--alpha-nan", "--beta-inf", "--alpha--3", "--beta-0"])
    def test_non_finite_search_range_is_usage_error(self, runner, tmp_path,
                                                    args, message):
        result = run_quantize(runner, tmp_path / "q.json", args)
        assert result.exit_code == 2, result.output
        assert len(error_lines(result.output)) == 1
        assert message in result.output
        assert not (tmp_path / "q.json").exists()

    @pytest.mark.parametrize("args,message", [
        (["--candidates", "0"], "need at least one scale candidate"),
        (["--iterations", "0"], "need at least one alternation round"),
    ], ids=["--candidates-0", "--iterations-0"])
    def test_empty_search_space_is_usage_error(self, runner, tmp_path, args,
                                               message):
        result = run_quantize(runner, tmp_path / "q.json", args)
        assert result.exit_code == 2, result.output
        assert len(error_lines(result.output)) == 1
        assert message in result.output
        assert not (tmp_path / "q.json").exists()

    def test_model_and_fixture_together_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["quantize", "--out", str(tmp_path / "q")])
        assert result.exit_code == 2

    def test_model_without_calib_is_usage_error(self, runner, tmp_path):
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        result = runner.invoke(main, ["quantize", "--model", paths["manifest"],
                                      "--out", str(tmp_path / "q.json")])
        assert result.exit_code == 2, result.output
        assert "--model requires --calib" in result.output

    def test_degenerate_unit_is_warned_about(self, runner, tmp_path):
        # with the MLP's weights zero, unit layer12 sees only zero outputs:
        # its search cannot score, and it keeps the min-max defaults
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        for name in ("l10_w", "l10_b", "l12_w"):
            path = str(tmp_path / "blobs" / f"{name}.hqt")
            save_tensor(path, Tensor(np.zeros_like(load_tensor(path).data)))
        result = runner.invoke(main, [
            "quantize", "--model", paths["manifest"], "--calib", paths["calib"],
            "--out", str(tmp_path / "q.json"), "--candidates", "4",
            "--iterations", "1"])
        assert result.exit_code == 0, result.output
        assert "warning: degenerate units kept min-max defaults: layer12" \
            in result.output.splitlines()

    def test_repeat_runs_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_quantize(runner, a).exit_code == 0
        assert run_quantize(runner, b).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trace_csv_written(self, runner, tmp_path):
        out, trace = tmp_path / "q.json", tmp_path / "trace.csv"
        result = run_quantize(runner, out, ["--trace", str(trace)])
        assert result.exit_code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "unit,granularity,scheme,candidate,objective"
        assert len(lines) > 10

    def test_unknown_fixture_is_runtime_failure(self, runner, tmp_path):
        result = runner.invoke(main, ["quantize", "--fixture", "nope",
                                      "--out", str(tmp_path / "q.json")])
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_full_mode_round_trips_through_evaluate(self, runner, tmp_path):
        out = tmp_path / "full.json"
        result = run_quantize(runner, out, ["--mode", "full"])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["mode"] == "full"
        sites = {(e["layer"], e["site"]) for e in doc["sites"]}
        assert (7, "softmax_in") in sites and (6, "input") in sites
        result = runner.invoke(main, ["evaluate", "--fixture", "tiny-mvit-ln",
                                      "--qconfig", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["top1_agreement"] >= 0.85


class TestEvaluateCommand:
    def test_empty_qconfig_reproduces_fp_metrics(self, runner, tmp_path):
        qpath = tmp_path / "empty.json"
        save_qconfig(str(qpath), {}, 8, "partial")
        result = runner.invoke(main, ["evaluate", "--fixture", "tiny-mvit-ln",
                                      "--qconfig", str(qpath)])
        assert result.exit_code == 0, result.output
        metrics = json.loads(result.output)
        assert metrics["quant_top1"] == metrics["fp_top1"]
        assert metrics["top1_agreement"] == 1.0
        assert metrics["mean_logit_mse"] == 0.0

    def test_quantized_beats_or_matches_minmax_baseline(self, runner, tmp_path):
        qfull, qbase = tmp_path / "full.json", tmp_path / "base.json"
        assert run_quantize(runner, qfull, ["--candidates", "16",
                                            "--iterations", "2"]).exit_code == 0
        # the baseline is all flags off (a valid bottom of the monotone chain)
        result = run_quantize(runner, qbase, ["--no-scale-search",
                                              "--no-granularity-search",
                                              "--no-scheme-search"])
        assert result.exit_code == 0, result.output
        agreements = {}
        for name, path in (("full", qfull), ("base", qbase)):
            res = runner.invoke(main, ["evaluate", "--fixture", "tiny-mvit-ln",
                                       "--qconfig", str(path)])
            agreements[name] = json.loads(res.output)["top1_agreement"]
        assert agreements["full"] >= agreements["base"]

    def test_qconfig_for_wrong_model_is_coverage_error(self, runner, tmp_path):
        qpath = tmp_path / "bad.json"
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        from hyquant.quant import fit_minmax
        p = fit_minmax(Tensor([-1.0, 1.0]), 8, "symmetric", "per_layer")
        save_qconfig(str(qpath), {(999, "weight"): p}, 8, "partial")
        result = runner.invoke(main, ["evaluate", "--fixture", "tiny-mvit-ln",
                                      "--qconfig", str(qpath)])
        assert result.exit_code == 1
        assert "absent" in result.output

    @pytest.mark.parametrize("field, value, message", [
        ("scale", None, "missing field 'scale'"),
        ("zero_point_raw", None, "missing field 'zero_point_raw'"),
        ("scale", "wide", "field 'scale' has the wrong type"),
        ("zero_point", [[0]], "field 'zero_point' has the wrong type"),
        ("channel_axis", "0", "field 'channel_axis' has the wrong type"),
        ("bits", 6, "document's bits is 8"),
        ("zero_point", 2 ** 40, "out of bounds"),
        ("scale", [0.1, 0.2], "per_layer params need"),
        ("scale", 1e300, "finite as float32"),
        ("objective", "abc", "field 'objective' has the wrong type"),
        ("objective", [0.5], "field 'objective' has the wrong type"),
        ("scales", 0.1, "unknown field 'scales'"),
    ])
    def test_malformed_qconfig_entry_fails_cleanly(self, runner, tmp_path,
                                                   field, value, message):
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        from hyquant.quant import fit_minmax
        key = graph.quant_sites[0].key
        p = fit_minmax(Tensor([-1.0, 1.0]), 8, "symmetric", "per_layer")
        doc = qconfig_to_doc({key: p}, 8, "partial")
        if value is None:
            del doc["sites"][0][field]
        else:
            doc["sites"][0][field] = value
        qpath = tmp_path / "bad.json"
        qpath.write_text(json.dumps(doc))
        result = runner.invoke(main, ["evaluate", "--fixture", "tiny-mvit-ln",
                                      "--qconfig", str(qpath)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1
        assert str(qpath) in errors[0] and f"{key[0]}:{key[1]}" in errors[0]
        assert message in errors[0]

    def test_duplicate_qconfig_entry_fails_cleanly(self, runner, tmp_path):
        # a later entry for the same site must not silently replace the first
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        from hyquant.quant import fit_minmax
        p = fit_minmax(graph.layer(7).weights["w_q"], 8, "symmetric",
                       "per_layer")
        doc = qconfig_to_doc({(7, "w_q"): p}, 8, "partial")
        second = dict(doc["sites"][0], scale=doc["sites"][0]["scale"] * 50)
        doc["sites"].append(second)
        qpath = tmp_path / "dup.json"
        qpath.write_text(json.dumps(doc))
        result = runner.invoke(main, ["evaluate", "--fixture", "tiny-mvit-ln",
                                      "--qconfig", str(qpath)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1
        assert str(qpath) in errors[0] and "7:w_q" in errors[0]
        assert "second entry" in errors[0]

    def test_channel_axis_outside_the_site_tensor_fails_cleanly(
            self, runner, tmp_path):
        # w_q is a square (E, E) matrix: a channel count that fits axis 0
        # must not be applied along an axis the tensor lacks
        graph, _, _, _ = build_fixture("tiny-mvit-ln")
        from hyquant.quant import fit_minmax
        p = fit_minmax(graph.layer(7).weights["w_q"], 8, "symmetric",
                       "per_channel", 0)
        doc = qconfig_to_doc({(7, "w_q"): p}, 8, "partial")
        doc["sites"][0]["channel_axis"] = 3
        qpath = tmp_path / "bad_axis.json"
        qpath.write_text(json.dumps(doc))
        result = runner.invoke(main, ["evaluate", "--fixture", "tiny-mvit-ln",
                                      "--qconfig", str(qpath)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1
        assert "layer 7" in errors[0] and "channel_axis 3" in errors[0]

    @pytest.mark.parametrize("layer, field, value, message", [
        (None, None, None, "is not an object"),
        (None, "layers", None, "field 'layers'"),
        (None, "input_shape", None, "field 'input_shape'"),
        (0, "id", None, "field 'id'"),
        (1, "inputs", ["x"], "layer 1: field 'inputs'"),
        (0, "weights", "w", "layer 0: field 'weights'"),
        (1, "inputs", [], "layer 1: batch_norm needs exactly 1 input(s)"),
        (0, "weights", {"w": "blobs/l0\0w.hqt"}, "layer 0: field 'weights'"),
        (None, "bridge_blocks", ["b"], "annotation 0 is not an object"),
        (None, "bridge_blocks", [{"layer_ids": ["x"]}],
         "bridge annotation 0: field 'layer_ids'"),
        (None, "bridge_blocks", [{"layer_ids": "34"}],
         "bridge annotation 0: field 'layer_ids'"),
        (None, "bridge_blocks", [{"layer_ids": [3.9, 4.2]}],
         "bridge annotation 0: field 'layer_ids'"),
        (None, "bridge_blocks", [{"label": 5, "layer_ids": [3, 4]}],
         "bridge annotation 0: field 'label'"),
        (0, "attrs", {"strides": 2, "padding": 1, "groups": 1},
         "layer 0: unknown attribute 'strides'"),
        (1, "input", [0], "layer 1: unknown field 'input'"),
        (None, "bridge_block", [], "unknown field 'bridge_block'"),
        (None, "bridge_blocks", [{"layer_ids": [3, 4], "lable": "b"}],
         "bridge annotation 0: unknown field 'lable'"),
    ], ids=["not-object", "no-layers", "no-input-shape", "no-id", "bad-inputs",
            "bad-weights", "no-inputs", "nul-in-blob-path", "bridge-not-object",
            "bridge-bad-ids",
            "bridge-ids-string", "bridge-ids-floats", "bridge-label-number",
            "misspelled-attribute", "misspelled-layer-field",
            "misspelled-field", "misspelled-annotation-field"])
    def test_malformed_manifest_fails_cleanly(self, runner, tmp_path, layer,
                                              field, value, message):
        # field None wraps the whole document in a list; value None deletes
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        with open(paths["manifest"]) as f:
            doc = json.load(f)
        entry = doc if layer is None else doc["layers"][layer]
        if field is None:
            doc = [doc]
        elif value is None:
            del entry[field]
        else:
            entry[field] = value
        with open(paths["manifest"], "w") as f:
            json.dump(doc, f)
        result = runner.invoke(main, [
            "quantize", "--model", paths["manifest"], "--calib", paths["calib"],
            "--out", str(tmp_path / "q.json"), "--candidates", "1",
            "--iterations", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1
        assert message in errors[0] and paths["manifest"] in errors[0]

    @pytest.mark.parametrize("input_shape, layers, message", [
        ([], [LayerSpec(0, "softmax", inputs=[-1])], "field 'input_shape'"),
        ([4], [LayerSpec(0, "linear", inputs=[-1], weights={
            "w": Tensor(np.eye(3, 4))}),
               LayerSpec(1, "pool", {"op": "mean_tokens"}, [0])],
         "model output (8,) is not (N, classes) logits"),
    ], ids=["empty-input-shape", "one-dim-logits"])
    def test_model_without_class_logits_fails_cleanly(
            self, runner, tmp_path, input_shape, layers, message):
        # each printed a numpy AxisError traceback from pass 2's argmax
        manifest = str(tmp_path / "m.json")
        save_manifest(Graph(layers, tuple(input_shape)), manifest)
        save_tensor(str(tmp_path / "c.hqt"), Tensor(
            np.linspace(-1, 1, 8 * int(np.prod(input_shape))).reshape(
                8, *input_shape)))
        result = runner.invoke(main, [
            "quantize", "--model", manifest, "--calib", str(tmp_path / "c.hqt"),
            "--out", str(tmp_path / "q.json"), "--candidates", "1",
            "--iterations", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1 and message in errors[0], result.output

    @pytest.mark.parametrize("command", ["quantize", "evaluate", "report"])
    @pytest.mark.parametrize("layer_ids, message", [
        (3, "field 'layer_ids'"),
        ([3, 99], "unknown layer 99"),
        ([3, 5], "not contiguous"),
    ], ids=["not-a-list", "unknown-layer", "not-contiguous"])
    def test_malformed_bridge_annotation_fails_at_load(
            self, runner, tmp_path, command, layer_ids, message):
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        with open(paths["manifest"]) as f:
            doc = json.load(f)
        doc["bridge_blocks"] = [{"label": "b", "layer_ids": layer_ids}]
        with open(paths["manifest"], "w") as f:
            json.dump(doc, f)
        qpath = tmp_path / "q.json"
        save_qconfig(str(qpath), {}, 8, "partial")
        args = {
            "quantize": ["--calib", paths["calib"], "--out", str(qpath),
                         "--candidates", "1", "--iterations", "1"],
            "evaluate": ["--eval", paths["eval"], "--labels",
                         paths["eval_labels"], "--qconfig", str(qpath)],
            "report": ["--calib", paths["calib"], "--val", paths["eval"],
                       "--out", str(tmp_path / "r.csv")],
        }[command]
        result = runner.invoke(main, [command, "--model", paths["manifest"],
                                      *args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1
        assert paths["manifest"] in errors[0] and message in errors[0]

    @pytest.mark.parametrize("count", [1, 5])
    def test_labels_count_must_match_the_eval_batch(self, runner, tmp_path,
                                                    count):
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        labels = load_tensor(paths["eval_labels"]).data
        labels_path = tmp_path / "labels.hqt"
        save_tensor(str(labels_path), Tensor(np.resize(labels, count)))
        qpath = tmp_path / "q.json"
        save_qconfig(str(qpath), {}, 8, "partial")
        result = runner.invoke(main, [
            "evaluate", "--model", paths["manifest"], "--eval", paths["eval"],
            "--labels", str(labels_path), "--qconfig", str(qpath)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1
        assert str(labels_path) in errors[0] and f"{count} labels" in errors[0]

    @pytest.mark.parametrize("bad", [99, -1, 4])
    def test_labels_outside_the_classes_are_refused(self, runner, tmp_path,
                                                    bad):
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        labels = load_tensor(paths["eval_labels"]).data.copy()
        labels[-1] = bad
        labels_path = tmp_path / "labels.hqt"
        save_tensor(str(labels_path), Tensor(labels))
        qpath = tmp_path / "q.json"
        save_qconfig(str(qpath), {}, 8, "partial")
        result = runner.invoke(main, [
            "evaluate", "--model", paths["manifest"], "--eval", paths["eval"],
            "--labels", str(labels_path), "--qconfig", str(qpath)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1
        assert str(labels_path) in errors[0] and "4 classes" in errors[0]

    def test_labels_beyond_int64_fail_without_a_cast_warning(self, tmp_path):
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        labels = load_tensor(paths["eval_labels"]).data.copy()
        labels[0] = 1e30
        labels_path = tmp_path / "labels.hqt"
        save_tensor(str(labels_path), Tensor(labels))
        qpath = tmp_path / "q.json"
        save_qconfig(str(qpath), {}, 8, "partial")
        result = run_cli_process([
            "evaluate", "--model", paths["manifest"], "--eval", paths["eval"],
            "--labels", str(labels_path), "--qconfig", str(qpath)])
        assert result.returncode == 1
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr
        errors = error_lines(result.stderr)
        assert len(errors) == 1
        assert str(labels_path) in errors[0] and "int64" in errors[0]

    def test_scalar_calibration_blob_fails_cleanly(self, tmp_path):
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        scalar = tmp_path / "scalar.hqt"  # rank 0, which save_tensor never writes
        scalar.write_bytes(BLOB_MAGIC + struct.pack("<If", 0, 1.0))
        result = run_cli_process([
            "quantize", "--model", paths["manifest"], "--calib", str(scalar),
            "--out", str(tmp_path / "q.json")])
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        errors = error_lines(result.stderr)
        assert len(errors) == 1 and "sample axis" in errors[0]

    # outside input that no other test feeds in: two blobs cut short, a
    # depthwise kernel that is a grouped conv's, a norm without its shift,
    # and a token-to-grid reshape whose grid does not hold the tokens; then
    # weights, an axis and an input that only the forward finds wrong, each
    # refused by its own layer's slice of the graph plan, which names it
    @pytest.mark.parametrize("blob, layer, edit, message", [
        (("l0_w", BLOB_MAGIC + b"\x01\x00"), None, None, "truncated header"),
        (("l0_w", BLOB_MAGIC + struct.pack("<II", 2, 8)), None, None,
         "truncated dims"),
        (None, 0, {"kind": "depthwise_conv2d", "attrs": {"stride": 2}},
         "depthwise kernel must have one input channel per group"),
        (None, 6, {"weights": {"gamma": "blobs/l6_gamma.hqt"}},
         "layer_norm needs weights ('gamma', 'beta')"),
        (None, 14, {"kind": "reshape",
                    "attrs": {"op": "tokens_to_nchw", "h": 2, "w": 3}},
         "layer 14 (reshape): tokens_to_nchw: 2x3 != token count 16"),
        (("l0_b", np.zeros(3)), None, None,
         "layer 0 (conv2d): conv2d bias shape (3,) != (8,)"),
        (("l4_w", np.zeros((8, 5, 1, 1))), None, None,
         "layer 4 (conv2d): conv2d kernel expects 5 input channels per "
         "group, input has 8"),
        (("l6_gamma", np.ones(5)), None, None,
         "layer 6 (layer_norm): layer_norm: affine params must have shape "
         "(16,)"),
        (None, 11, {"kind": "softmax", "attrs": {"axis": 5}},
         "layer 11 (softmax): softmax axis 5 invalid for shape (32, 16, 32)"),
        (None, 8, {"inputs": [4, 7]},
         "layer 8 (add): add (32, 16, 4, 4) + (32, 16, 16): "),
    ], ids=["blob-header", "blob-dims", "depthwise-groups", "norm-weight",
            "tokens-grid", "conv-bias", "conv-in-channels", "norm-affine",
            "softmax-axis", "add-shapes"])
    def test_refused_outside_input_fails_cleanly(self, runner, tmp_path, blob,
                                                 layer, edit, message):
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        if blob is not None:
            name, content = blob
            path = tmp_path / "blobs" / f"{name}.hqt"
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                save_tensor(str(path), Tensor(content.astype(np.float32)))
        else:
            with open(paths["manifest"]) as f:
                doc = json.load(f)
            doc["layers"][layer].update(edit)
            with open(paths["manifest"], "w") as f:
                json.dump(doc, f)
        result = runner.invoke(main, [
            "quantize", "--model", paths["manifest"], "--calib", paths["calib"],
            "--out", str(tmp_path / "q.json"), "--candidates", "1",
            "--iterations", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1 and message in errors[0], result.output

    @pytest.mark.parametrize("link", ["blobs-dir", "blob-file"])
    def test_symlinked_blob_leaving_the_dir_is_refused_unread(
            self, runner, tmp_path, link):
        paths = export_fixture("tiny-mvit-ln", str(tmp_path / "export"))
        blobs = tmp_path / "export" / "blobs"
        outside = tmp_path / "outside"
        outside.mkdir()
        secret = b"SECR-outside"
        if link == "blobs-dir":
            for blob in blobs.iterdir():
                (outside / blob.name).write_bytes(secret)
                blob.unlink()
            blobs.rmdir()
            blobs.symlink_to(outside, target_is_directory=True)
        else:
            (outside / "l0_b.hqt").write_bytes(secret)
            (blobs / "l0_b.hqt").unlink()
            (blobs / "l0_b.hqt").symlink_to(outside / "l0_b.hqt")
        qpath = tmp_path / "q.json"
        save_qconfig(str(qpath), {}, 8, "partial")
        result = runner.invoke(main, [
            "evaluate", "--model", paths["manifest"], "--eval", paths["eval"],
            "--labels", paths["eval_labels"], "--qconfig", str(qpath)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "SECR" not in result.output  # the bad-magic error echoes 4 bytes
        errors = error_lines(result.output)
        assert len(errors) == 1 and paths["manifest"] in errors[0]
        assert ("not inside the manifest directory" if link == "blobs-dir"
                else "is a symbolic link") in errors[0]

    def test_model_output_must_be_logits(self, runner, tmp_path):
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        with open(paths["manifest"]) as f:
            doc = json.load(f)
        doc["output"] = 0  # the conv stem: (N, C, H, W), not (N, classes)
        with open(paths["manifest"], "w") as f:
            json.dump(doc, f)
        qpath = tmp_path / "q.json"
        save_qconfig(str(qpath), {}, 8, "partial")
        result = runner.invoke(main, [
            "evaluate", "--model", paths["manifest"], "--eval", paths["eval"],
            "--labels", paths["eval_labels"], "--qconfig", str(qpath)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        errors = error_lines(result.output)
        assert len(errors) == 1 and "(N, classes) logits" in errors[0]

    @pytest.mark.parametrize("command,text", [
        (command, text) for text in ('{"format": ', "[" * 100_000)
        for command in ("quantize", "evaluate")],
        ids=["quantize", "evaluate", "quantize-nested-too-deep",
             "evaluate-nested-too-deep"])
    def test_non_json_document_names_the_file(self, runner, tmp_path, command,
                                              text):
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        if command == "quantize":  # the manifest is not JSON
            args = ["quantize", "--model", str(bad), "--calib", paths["calib"],
                    "--out", str(tmp_path / "q.json")]
        else:  # the qconfig is not JSON
            args = ["evaluate", "--fixture", "tiny-mvit-ln", "--qconfig", str(bad)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1
        assert str(bad) in errors[0] and "not valid JSON" in errors[0]

    @pytest.mark.parametrize("layer, attr, value", [
        (7, "heads", "2"),
        (0, "stride", 0),
        (3, "padding", [1]),
        (6, "eps", "1e-5"),
        (1, "channel_axis", 1.5),
    ], ids=["heads-string", "stride-zero", "padding-short-pair", "eps-string",
            "channel-axis-float"])
    def test_bad_layer_attribute_fails_cleanly(self, runner, tmp_path, layer,
                                               attr, value):
        paths = export_fixture("tiny-mvit-ln", str(tmp_path))
        with open(paths["manifest"]) as f:
            doc = json.load(f)
        assert doc["layers"][layer]["id"] == layer
        doc["layers"][layer]["attrs"][attr] = value
        with open(paths["manifest"], "w") as f:
            json.dump(doc, f)
        result = runner.invoke(main, [
            "quantize", "--model", paths["manifest"], "--calib", paths["calib"],
            "--out", str(tmp_path / "q.json"), "--candidates", "1",
            "--iterations", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1
        assert paths["manifest"] in errors[0]
        assert f"layer {layer}: attribute '{attr}'" in errors[0]

    def test_metrics_file_written(self, runner, tmp_path):
        qpath, mpath = tmp_path / "q.json", tmp_path / "metrics.json"
        save_qconfig(str(qpath), {}, 8, "partial")
        result = runner.invoke(main, ["evaluate", "--fixture", "tiny-mvit-ln",
                                      "--qconfig", str(qpath),
                                      "--out", str(mpath)])
        assert result.exit_code == 0
        doc = json.loads(mpath.read_text())
        assert doc["format"] == "hyquant-metrics/1"


class TestReportCommand:
    def test_report_flags_match_detector(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(main, ["report", "--fixture", "overflow-bridge",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_report(out)
        graph, calib, _, _ = build_fixture("overflow-bridge")
        from hyquant.zoo import BRIDGE_KXK_ID
        site_rows = [r for r in rows
                     if r["layer"] == BRIDGE_KXK_ID and r["site"] == "input"]
        _, outs = forward_fp(graph, calib, watch={2})
        rep = detect_zero_point_overflow(outs[2], 8, axis=1)
        assert [r["flagged"] for r in site_rows] == \
            [c.flagged for c in rep.channels]
        assert "overflow flags" in result.output

    def test_tokens_to_nchw_without_h_fails_at_load(self, runner, tmp_path):
        manifest = tmp_path / "model.json"
        manifest.write_text(json.dumps({
            "format": "hyquant-manifest/1", "input_shape": [4, 3],
            "layers": [
                {"id": 0, "kind": "reshape", "inputs": [-1],
                 "attrs": {"op": "tokens_to_nchw"}},
                {"id": 1, "kind": "pool", "inputs": [0],
                 "attrs": {"op": "global_avg"}}]}))
        blob = str(tmp_path / "x.hqt")
        save_tensor(blob, Tensor(np.ones((2, 4, 3), dtype=np.float32)))
        result = runner.invoke(main, ["report", "--model", str(manifest),
                                      "--calib", blob, "--val", blob,
                                      "--out", str(tmp_path / "r.csv")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = error_lines(result.output)
        assert len(errors) == 1
        assert str(manifest) in errors[0] and "layer 0" in errors[0]
        assert "missing attribute 'h'" in errors[0]

    def test_plain_fixture_bridge_site_unflagged(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(main, ["report", "--fixture", "tiny-mvit-ln",
                                      "--out", str(out)])
        assert result.exit_code == 0
        from hyquant.zoo import BRIDGE_KXK_ID
        rows = [r for r in read_report(out) if r["layer"] == BRIDGE_KXK_ID]
        assert rows and not any(r["flagged"] for r in rows)

    def test_value_columns_are_channel_extremes(self):
        graph, calib, val, _ = build_fixture("overflow-bridge")
        graph = with_mode(graph, "full")
        rows = range_report(graph, calib, val, 8)
        for name, batch in (("calib", calib), ("val", val)):
            captured = {}
            forward_fp(graph, batch, capture=captured)
            checked = set()
            for r in rows:
                site = [s for s in graph.sites_by_layer[r["layer"]]
                        if s.name == r["site"]][0]
                ch = np.moveaxis(captured[site.key], site.channel_axis,
                                 0)[r["channel"]]
                assert r[f"{name}_min"] == float(np.min(ch))
                assert r[f"{name}_max"] == float(np.max(ch))
                checked.add(site.key)
            assert checked == {s.key for s in graph.quant_sites
                               if s.kind == "activation"}

    def test_csv_round_trips_exactly(self, tmp_path):
        rows = [{"layer": 3, "site": "input", "channel": 5,
                 "calib_min": -0.12345678912345, "calib_max": 1.5,
                 "val_min": -0.25, "val_max": 1.0625,
                 "zero_point_raw": -128.000001, "flagged": True}]
        path = tmp_path / "r.csv"
        write_report_csv(str(path), rows)
        assert read_report(path) == rows


# (fixture, mode, bits) -> sha256 of the report CSV written from
# range_report(graph in that mode, calibration batch, evaluation batch, bits)
_REPORT_PINS = {
    ("overflow-bridge", "partial", 6):
        "dc2d75ea045b937a7f34bd5395522e5e88a67bda1222338b85a5719d2c6c4cb2",
    ("overflow-bridge", "partial", 8):
        "8ade112acd1ae0c6dbbf3c376ac644124c1ecce58fd19c462deb72bd465c8b67",
    ("overflow-bridge", "full", 6):
        "016bd122f7b550bf231b2e3832b41db1d4e57e29b41e12b3446a7d0e82378776",
    ("overflow-bridge", "full", 8):
        "de74e739f2c061488b2d88144feca700253e383d89245a5857b9c9928b05ec8a",
    ("tiny-mvit-bn", "partial", 6):
        "352b5d84b3e89fcc8507f2e8371a31e555fb81c4aada2642f13fa5129ebab1f5",
    ("tiny-mvit-bn", "partial", 8):
        "d927b64b6c9b782cf4ed39d151e2644495b60abf880893812a191c8dfb8e4d29",
    ("tiny-mvit-bn", "full", 6):
        "287744d9af82bb92c745ac21bb6c08e7c867ad00caeeb733c59088f25e0f0e35",
    ("tiny-mvit-bn", "full", 8):
        "730ffa861cbce5149048cae6131e30fa9ab037500e7c4adc835b6eba20a1159c",
    ("tiny-mvit-gn", "partial", 6):
        "2528c28872ebcefd9c519120fa5e0b15e4872972cb59b83087211dfc5d0a10af",
    ("tiny-mvit-gn", "partial", 8):
        "8a9b6687f8690d22c3997fd7e7bbaafae9503249fd3da06444d499bc69d6e852",
    ("tiny-mvit-gn", "full", 6):
        "1a45c49f97d265ac8300d6282530bf2cbb9f6dd0dfb9da3fac6bb9ced6241094",
    ("tiny-mvit-gn", "full", 8):
        "732dd88b13042b50dce7fba8b25f7495907d219464f881087eb1d7bd45d99fc0",
    ("tiny-mvit-ln", "partial", 6):
        "01322cb46287b3bf841cb52cf3612287b58afe195ca240d08739712b68c2a685",
    ("tiny-mvit-ln", "partial", 8):
        "d7fb8d9fbf37a74bf9ea216c922facd690c2e88f0a7af1c2158382b3bdfd1a63",
    ("tiny-mvit-ln", "full", 6):
        "cec9d63fbb68dc6d4b4f2bb795499aad0970edf601995614dfb70396a332bc7f",
    ("tiny-mvit-ln", "full", 8):
        "6438ad1d2f86a326f0fa26174fe05dc2464f90b4ad634a79f29a582818a76c6b",
    ("wide-mvit-ln", "partial", 6):
        "61f744e866ffe9e7dfbba28ba4fea0c98c519f8502d13d66291bb7a3a009e735",
    ("wide-mvit-ln", "partial", 8):
        "1e1fc9ac94fd62a43e169a72749b3352852e35105def32cd5212f8adef5bd88c",
    ("wide-mvit-ln", "full", 6):
        "8df572fb4bb62c9967a43e470563f3ac9c564707ec80e6d3cbdb42bfc3e388e1",
    ("wide-mvit-ln", "full", 8):
        "c24ef963e5c640d655cea5ac2d2c80a42d178aee6dcea2abe627dc358c6104b0",
}


class TestReportPin:
    @pytest.mark.parametrize("name,mode,bits", sorted(_REPORT_PINS))
    def test_report_bytes_match_recorded(self, name, mode, bits, tmp_path):
        graph, calib, ev, _ = build_fixture(name)
        path = tmp_path / "report.csv"
        write_report_csv(str(path),
                         range_report(with_mode(graph, mode), calib, ev, bits))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            _REPORT_PINS[(name, mode, bits)]


class TestFixturesCommand:
    def test_list_names_all_fixtures(self, runner):
        result = runner.invoke(main, ["fixtures", "list"])
        assert result.exit_code == 0
        for name in ("tiny-mvit-ln", "overflow-bridge", "wide-mvit-ln"):
            assert name in result.output

    def test_export_then_quantize_matches_fixture_path(self, runner, tmp_path):
        exp = tmp_path / "exported"
        result = runner.invoke(main, ["fixtures", "export", "tiny-mvit-ln",
                                      "--out", str(exp)])
        assert result.exit_code == 0, result.output
        calib = load_tensor(exp / "calib.hqt")
        assert calib.shape == (32, 3, 16, 16)
        q_fixture = tmp_path / "q_fixture.json"
        q_export = tmp_path / "q_export.json"
        assert run_quantize(runner, q_fixture).exit_code == 0
        result = runner.invoke(main, [
            "quantize", "--model", str(exp / "model.json"),
            "--calib", str(exp / "calib.hqt"), "--out", str(q_export),
            "--candidates", "4", "--iterations", "1"])
        assert result.exit_code == 0, result.output
        assert q_fixture.read_bytes() == q_export.read_bytes()

    def test_export_unknown_fixture_fails_cleanly(self, runner, tmp_path):
        result = runner.invoke(main, ["fixtures", "export", "nope",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1


@pytest.mark.parametrize("command", ["quantize", "evaluate", "report"])
def test_negative_seed_is_usage_error(runner, tmp_path, command):
    qconfig = tmp_path / "q.json"
    save_qconfig(str(qconfig), {}, 8, "partial")
    out = tmp_path / "out"
    args = [command, "--fixture", "tiny-mvit-ln", "--seed", "-5", "--out", str(out)]
    if command == "evaluate":
        args += ["--qconfig", str(qconfig)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    lines = error_lines(result.output)
    assert len(lines) == 1 and "--seed" in lines[0], result.output
    assert not out.exists()



@pytest.mark.parametrize("command, source, flag", [
    ("quantize", "fixture", "--calib"),
    ("evaluate", "fixture", "--eval"),
    ("evaluate", "fixture", "--labels"),
    ("report", "fixture", "--calib"),
    ("report", "fixture", "--val"),
    ("quantize", "model", "--seed"),
    ("evaluate", "model", "--seed"),
    ("report", "model", "--seed"),
])
def test_ignored_source_flag_is_usage_error(runner, tmp_path, command, source,
                                            flag):
    """A blob given with --fixture (which brings its own data) or a --seed
    given with --model would go unread: each is refused, naming the flag."""
    paths = export_fixture("overflow-bridge", str(tmp_path))
    qconfig = tmp_path / "q.json"
    save_qconfig(str(qconfig), {}, 8, "partial")
    out = tmp_path / "out"
    blobs = {"quantize": {"--calib": paths["calib"]},
             "evaluate": {"--eval": paths["eval"],
                          "--labels": paths["eval_labels"]},
             "report": {"--calib": paths["calib"], "--val": paths["eval"]},
             }[command]
    if source == "fixture":
        args = ["--fixture", "overflow-bridge", flag, blobs[flag]]
    else:
        args = ["--model", paths["manifest"], "--seed", "3"]
        args += [v for item in blobs.items() for v in item]
    if command == "evaluate":
        args += ["--qconfig", str(qconfig)]
    result = runner.invoke(main, [command, *args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    lines = error_lines(result.output)
    assert len(lines) == 1 and flag in lines[0], result.output
    assert not out.exists()


class TestBlasThreads:
    def test_quantize_writes_the_same_bytes_under_one_and_two_blas_threads(
            self, tmp_path):
        """The search's objective must not depend on how many threads BLAS
        uses. On a one-core host OpenBLAS runs one thread either way, so
        this test cannot fail there."""
        written = []
        for threads in ("1", "2"):
            q, trace = tmp_path / f"q{threads}.json", tmp_path / f"t{threads}.csv"
            result = run_cli_process(
                ["quantize", "--fixture", "overflow-bridge", "--candidates",
                 "20", "--iterations", "2", "--out", str(q), "--trace",
                 str(trace)], OPENBLAS_NUM_THREADS=threads)
            assert result.returncode == 0, result.stderr
            written.append((q.read_bytes(), trace.read_bytes()))
        assert written[0] == written[1]


class TestDocuments:
    def test_qconfig_doc_round_trip(self, tmp_path):
        graph, calib, _, _ = build_fixture("tiny-mvit-ln")
        from hyquant.calib import CalibOptions, SearchSpace, calibrate
        qcfg, _ = calibrate(graph, calib, SearchSpace(candidates=3, iterations=1),
                            CalibOptions(), bits=8)
        path = tmp_path / "q.json"
        save_qconfig(str(path), qcfg, 8, "partial")
        back, bits, mode, _ = load_qconfig(str(path))
        assert qconfig_to_doc(back, bits, mode) == qconfig_to_doc(qcfg, 8, "partial")

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"format": "elsewhere/2", "sites": []}))
        from hyquant.quant import QuantError
        with pytest.raises(QuantError, match="format"):
            load_qconfig(str(path))

    def test_evaluate_model_empty_config_identity(self):
        graph, _, ev, labels = build_fixture("tiny-mvit-ln")
        m = evaluate_model(graph, {}, ev, labels)
        assert m["top1_agreement"] == 1.0 and m["mean_logit_mse"] == 0.0


class TestChunkedEvaluation:
    """evaluate_model forwards C.PASS_CHUNK samples at a time and gives the
    metrics of one whole-batch forward."""

    @staticmethod
    def minmax_case(name, mode, count):
        graph, calib, ev, labels = build_fixture(
            replace(FIXTURES[name], eval_count=count))
        graph = with_mode(graph, mode)
        off = C.CalibOptions(scale_search=False, granularity_search=False,
                             scheme_search=False)
        qcfg, _ = C.calibrate(graph, calib, options=off)
        return graph, qcfg, ev, labels

    # 1,300 samples run as 512 + 788: the remainder joins the last chunk
    @pytest.mark.parametrize("count, chunks", [(2048, [512] * 4),
                                               (1300, [512, 788])])
    @pytest.mark.parametrize("mode", ["partial", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_chunks_equal_one_chunk(self, name, mode, count, chunks,
                                    monkeypatch):
        graph, qcfg, ev, labels = self.minmax_case(name, mode, count)
        forwards = []
        for fn in ("forward_fp", "forward_quant"):
            real = getattr(cli_module, fn)
            monkeypatch.setattr(cli_module, fn, lambda g, x, *a, real=real:
                                forwards.append(x.shape[0]) or real(g, x, *a))
        chunked = evaluate_model(graph, qcfg, ev, labels)
        assert forwards == [n for n in chunks for _ in ("fp", "quant")]
        monkeypatch.setattr(C, "PASS_CHUNK", count)
        assert evaluate_model(graph, qcfg, ev, labels) == chunked
        assert forwards[2 * len(chunks):] == [count] * 2

    def test_scalar_batch_is_refused(self):
        graph, _, _, labels = build_fixture("tiny-mvit-ln")
        with pytest.raises(GraphError, match="scalar"):
            evaluate_model(graph, {}, Tensor(1.0), labels)

    # the count is checked before any forward: one label used to broadcast
    # to wrong metrics, and three raised a bare numpy ValueError
    @pytest.mark.parametrize("count", [1, 3])
    def test_label_count_must_match_the_batch(self, count):
        graph, _, ev, labels = build_fixture("tiny-mvit-ln")
        with pytest.raises(LabelError, match=f"^{count} labels for an "
                           r"evaluation batch of shape \(128, "):
            evaluate_model(graph, {}, ev, labels[:count])

    def test_empty_batch_is_refused(self):
        graph, _, ev, labels = build_fixture("tiny-mvit-ln")
        with pytest.raises(GraphError, match="empty"):
            evaluate_model(graph, {}, Tensor._wrap(ev.data[:0]), labels[:0])

    # 7.1 MiB traced with 512-sample chunks, each forward freeing a layer's
    # output after its last reader; 20.6 MiB when a forward kept every
    # output until it returned, and 82.1 MiB when both forwards ran the
    # 2,048 samples whole
    def test_peak_traced_memory(self):
        graph, qcfg, ev, labels = self.minmax_case("wide-mvit-ln", "partial",
                                                   2048)
        tracemalloc.start()
        try:
            evaluate_model(graph, qcfg, ev, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
