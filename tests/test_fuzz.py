"""Fuzz the documents `hyquant evaluate`, `report` and `quantize` read.

The inputs are an exported `tiny-mvit-ln` manifest (its layers, their
attributes and its bridge annotation), a saved qconfig (its site entries) and
the .hqt blobs. The JSON mutations come from the schema tables the readers
use: each field is dropped, given a value of another JSON type, or given an
out-of-range value of its own type. A blob is truncated or has a header byte
replaced. `report` reads no qconfig, so it gets the manifest and the
calibration and validation blob mutations; `quantize` gets the manifest
mutations, with a one-candidate, one-round search to keep each case short.
Whatever the input, the CLI exits 0, 1 or 2; a failure prints exactly one
`error:` line and no traceback, and no exception escapes. A mutated manifest
or qconfig that loads saves every name it holds, and saving what is loaded
back gives the same bytes.
"""

import copy
import json
import os
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from hyquant.bridge import _ANNOTATION_FIELDS
from hyquant.cli import (_ENTRY_FIELDS, _ERRORS, _QCONFIG_FIELDS, load_qconfig,
                         main, save_qconfig)
from hyquant.graph import (_LAYER_ATTRS, _LAYER_FIELDS, _MANIFEST_FIELDS,
                           forward_fp, load_manifest, save_manifest)
from hyquant.quant import fit_minmax
from hyquant.tensor import Tensor, load_tensor
from hyquant.zoo import export_fixture

# a few values of each JSON type; a retype draws from the other types
_VALUES = {
    "null": [None],
    "bool": [True, False],
    "int": [0, 3, -1],
    "float": [0.5, -2.5],
    "string": ["", "x"],
    "list": [[], [1, 2], ["x"], [[0]]],
    "object": [{}, {"x": 1}],
}

# out-of-range values of each type. Every integer is negative, zero or too
# large to allocate, so no mutation can make a forward pass big. An absent
# field reads as null, whose out-of-range value is -1.
_OUT_OF_RANGE = {
    "null": [-1],
    "int": [-1, 0, 2 ** 31, -(2 ** 40)],
    "float": [-1.0, 0.0, 1e-300, 1e300, float("nan")],
    "string": ["", "bogus", "../outside.hqt"],
    "list": [[], [-1], [2 ** 31], [0.5], [None]],
    "object": [{}, {"bogus": -1}, {"w": "../outside.hqt"}, {"w": "l0\0w.hqt"}],
}

_HEADER_BYTES = 8 + 4 * 4  # magic, rank and up to four dims


def _json_type(v) -> str:
    for name, types in (("null", type(None)), ("bool", bool), ("int", int),
                        ("float", float), ("string", str), ("list", list)):
        if isinstance(v, types):
            return name
    return "object"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Paths of an exported tiny-mvit-ln with a qconfig over every site, mixing
    granularities and schemes, plus the parsed manifest and qconfig."""
    out = tmp_path_factory.mktemp("fuzz")
    paths = export_fixture("tiny-mvit-ln", str(out))
    graph = load_manifest(paths["manifest"])
    values: dict = {}
    forward_fp(graph, load_tensor(paths["calib"]), capture=values)
    qcfg = {}
    for i, site in enumerate(graph.quant_sites):
        per_channel = site.allow_per_channel and i % 2 == 0
        qcfg[site.key] = fit_minmax(
            Tensor(values[site.key]), 8,
            "symmetric" if site.kind == "weight" else "asymmetric",
            "per_channel" if per_channel else "per_layer", site.channel_axis)
    paths["qconfig"] = str(out / "qconfig.json")
    save_qconfig(paths["qconfig"], qcfg, 8, graph.mode)
    with open(paths["manifest"]) as f:
        manifest = json.load(f)
    with open(paths["qconfig"]) as f:
        qconfig = json.load(f)
    return out, paths, manifest, qconfig


def run_evaluate(paths, manifest, qconfig, eval_path=None, labels_path=None):
    base = os.path.dirname(paths["manifest"])
    mpath, qpath = os.path.join(base, "fuzz_model.json"), os.path.join(
        base, "fuzz_qconfig.json")
    with open(mpath, "w") as f:
        json.dump(manifest, f)
    with open(qpath, "w") as f:
        json.dump(qconfig, f)
    return CliRunner().invoke(main, [
        "evaluate", "--model", mpath, "--eval", eval_path or paths["eval"],
        "--labels", labels_path or paths["eval_labels"], "--qconfig", qpath])


def run_report(paths, manifest, calib_path=None, val_path=None):
    base = os.path.dirname(paths["manifest"])
    mpath = os.path.join(base, "fuzz_model.json")
    with open(mpath, "w") as f:
        json.dump(manifest, f)
    return CliRunner().invoke(main, [
        "report", "--model", mpath, "--calib", calib_path or paths["calib"],
        "--val", val_path or paths["eval"],
        "--out", os.path.join(base, "fuzz_report.csv")])


def run_quantize(paths, manifest):
    base = os.path.dirname(paths["manifest"])
    mpath = os.path.join(base, "fuzz_model.json")
    with open(mpath, "w") as f:
        json.dump(manifest, f)
    return CliRunner().invoke(main, [
        "quantize", "--model", mpath, "--calib", paths["calib"],
        "--candidates", "1", "--iterations", "1",
        "--out", os.path.join(base, "fuzz_quantized.json")])


def assert_clean(result):
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    assert "Traceback" not in result.output
    if result.exit_code:
        errors = [line for line in result.output.splitlines()
                  if line.lower().startswith("error:")]
        assert len(errors) == 1, result.output


def test_unmutated_documents_evaluate(artifacts):
    _, paths, manifest, qconfig = artifacts
    result = run_evaluate(paths, manifest, qconfig)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["samples"] == 128


def test_unmutated_manifest_reports(artifacts):
    _, paths, manifest, _ = artifacts
    result = run_report(paths, manifest)
    assert result.exit_code == 0, result.output
    assert "activation sites" in result.output


def test_unmutated_manifest_quantizes(artifacts):
    _, paths, manifest, _ = artifacts
    result = run_quantize(paths, manifest)
    assert result.exit_code == 0, result.output
    assert result.output.startswith("wrote ")


@st.composite
def mutated_documents(draw, manifest, qconfig,
                      targets=("manifest", "layer", "attrs", "bridge", "qconfig",
                               "entry")):
    """(manifest, qconfig) with one field of one element, of one of targets,
    mutated."""
    manifest, qconfig = copy.deepcopy(manifest), copy.deepcopy(qconfig)
    layers, entries = manifest["layers"], qconfig["sites"]
    with_attrs = [layer for layer in layers if _LAYER_ATTRS.get(layer["kind"])]
    target = draw(st.sampled_from(list(targets)))
    if target == "manifest":
        element, schema = manifest, _MANIFEST_FIELDS
    elif target == "layer":
        element, schema = draw(st.sampled_from(layers)), _LAYER_FIELDS
    elif target == "attrs":
        layer = draw(st.sampled_from(with_attrs))
        element, schema = layer["attrs"], _LAYER_ATTRS[layer["kind"]]
    elif target == "bridge":
        element, schema = manifest["bridge_blocks"][0], _ANNOTATION_FIELDS
    elif target == "qconfig":
        element, schema = qconfig, _QCONFIG_FIELDS
    else:
        element, schema = draw(st.sampled_from(entries)), _ENTRY_FIELDS
    name = draw(st.sampled_from(sorted(schema)))
    how = draw(st.sampled_from(["drop", "retype", "out-of-range"]))
    kind = _json_type(element.get(name))
    if how == "drop":
        element.pop(name, None)
    elif how == "retype":
        others = [v for t in _VALUES if t != kind for v in _VALUES[t]]
        element[name] = copy.deepcopy(draw(st.sampled_from(others)))
    elif kind == "bool":
        element[name] = not element[name]
    else:
        element[name] = copy.deepcopy(draw(st.sampled_from(_OUT_OF_RANGE[kind])))
    return manifest, qconfig


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_mutated_json_documents_fail_cleanly(artifacts, data):
    _, paths, manifest, qconfig = artifacts
    manifest, qconfig = data.draw(mutated_documents(manifest, qconfig))
    assert_clean(run_evaluate(paths, manifest, qconfig))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_mutated_blobs_fail_cleanly(artifacts, data):
    out, paths, manifest, qconfig = artifacts
    which = data.draw(st.sampled_from(["eval", "eval_labels", "weight"]))
    manifest = copy.deepcopy(manifest)
    if which == "weight":
        layer = data.draw(st.sampled_from(
            [layer for layer in manifest["layers"] if layer["weights"]]))
        name = data.draw(st.sampled_from(sorted(layer["weights"])))
        source = os.path.join(out, layer["weights"][name])
        layer["weights"][name] = "blobs/fuzz.hqt"
        target = os.path.join(out, "blobs", "fuzz.hqt")
    else:
        source, target = paths[which], os.path.join(out, f"fuzz_{which}.hqt")
    with open(source, "rb") as f:
        raw = bytearray(f.read())
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        raw[data.draw(st.integers(0, min(len(raw), _HEADER_BYTES) - 1))] = \
            data.draw(st.integers(0, 255))
    with open(target, "wb") as f:
        f.write(raw)
    assert_clean(run_evaluate(
        paths, manifest, qconfig,
        eval_path=target if which == "eval" else None,
        labels_path=target if which == "eval_labels" else None))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_mutated_manifests_fail_cleanly_in_report(artifacts, data):
    _, paths, manifest, qconfig = artifacts
    manifest, _ = data.draw(mutated_documents(
        manifest, qconfig, targets=("manifest", "layer", "attrs", "bridge")))
    assert_clean(run_report(paths, manifest))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_mutated_data_blobs_fail_cleanly_in_report(artifacts, data):
    out, paths, manifest, _ = artifacts
    which = data.draw(st.sampled_from(["calib", "eval"]))
    with open(paths[which], "rb") as f:
        raw = bytearray(f.read())
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        raw[data.draw(st.integers(0, _HEADER_BYTES - 1))] = \
            data.draw(st.integers(0, 255))
    target = os.path.join(out, f"fuzz_{which}.hqt")
    with open(target, "wb") as f:
        f.write(raw)
    assert_clean(run_report(
        paths, manifest, calib_path=target if which == "calib" else None,
        val_path=target if which == "eval" else None))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data())
def test_mutated_manifests_fail_cleanly_in_quantize(artifacts, data):
    _, paths, manifest, qconfig = artifacts
    manifest, _ = data.draw(mutated_documents(
        manifest, qconfig, targets=("manifest", "layer", "attrs", "bridge")))
    assert_clean(run_quantize(paths, manifest))


def _names(doc) -> set:
    """(where, name) for every name of a loaded manifest or qconfig document:
    its own, each layer's (by id) and its attributes' and weights', each
    bridge annotation's (by index) and each site entry's (by layer and site)."""
    names = {((), name) for name in doc}
    for layer in doc.get("layers", []):
        names |= {(("layer", layer["id"]), name) for name in layer}
        for part in ("attrs", "weights"):
            names |= {(("layer", layer["id"], part), name)
                      for name in layer.get(part, {})}
    for i, annotation in enumerate(doc.get("bridge_blocks", [])):
        names |= {(("bridge", i), name) for name in annotation}
    for entry in doc.get("sites", []):
        names |= {(("site", entry["layer"], entry["site"]), name)
                  for name in entry}
    return names


def _save_manifest(graph, folder):
    save_manifest(graph, os.path.join(folder, "model.json"))
    return os.path.join(folder, "model.json")


def _save_qconfig(loaded, folder):
    qcfg, bits, mode, objectives = loaded
    save_qconfig(os.path.join(folder, "q.json"), qcfg, bits, mode, objectives)
    return os.path.join(folder, "q.json")


def _tree(folder) -> dict:
    """{path under folder: bytes} of every file below it."""
    return {str(p.relative_to(folder)): p.read_bytes()
            for p in Path(folder).rglob("*") if p.is_file()}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_a_loaded_document_saves_every_name_and_reloads_to_the_same_bytes(
        artifacts, data):
    out, _, manifest, qconfig = artifacts
    manifest, qconfig = data.draw(mutated_documents(manifest, qconfig))
    for doc, load, save in ((manifest, load_manifest, _save_manifest),
                            (qconfig, load_qconfig, _save_qconfig)):
        path = os.path.join(out, "fuzz_document.json")  # beside the blobs
        with open(path, "w") as f:
            json.dump(doc, f)
        try:
            loaded = load(path)
        except _ERRORS:
            continue  # refused with one error line (the tests above)
        with tempfile.TemporaryDirectory(dir=out) as first, \
                tempfile.TemporaryDirectory(dir=out) as second:
            saved = save(loaded, first)
            save(load(saved), second)
            assert _tree(first) == _tree(second)
            with open(saved) as f:
                assert _names(doc) <= _names(json.load(f))
