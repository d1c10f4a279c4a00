"""Self-tests of the benchmark harness.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hyquant as hq  # noqa: E402
from hyquant import calib, graph, quant, tensor  # noqa: E402

import program  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_clipped_children():
    #       0: [0, 100]
    #       |- 1: [10, 30]
    #       |- 2: [40, 70]
    #       |  `- 3: [45, 50]
    #       `- 4: [90, 120]  (overhangs the parent by 20)
    start = [0, 10, 40, 45, 90]
    end = [100, 30, 70, 50, 120]
    parent = [-1, 0, 0, 2, 0]
    selfs = spans.self_times(start, end, parent)
    assert selfs.tolist() == [100 - 20 - 30 - 10, 20, 30 - 5, 5, 30]
    assert spans.children_within_parents(start, end, parent, selfs)
    assert spans.roots(parent).tolist() == [0, 0, 0, 0, 0]


def test_children_exceeding_parent_are_detected():
    start, end, parent = [0, 5], [10, 20], [-1, 0]
    selfs = spans.self_times(start, end, parent)
    assert not spans.children_within_parents(start, end, parent, selfs)


# Names under which hyquant modules look up the functions the tracer wraps.
LOOKUPS = (
    (graph, "quantize_dequantize", quant.quantize_dequantize),
    (calib, "run_layer", graph.run_layer),
    (graph, "run_layer", graph.run_layer),
    (calib, "fit_minmax", quant.fit_minmax),
    (calib, "params_for_scale", quant.params_for_scale),
    (calib, "backward", tensor.backward),
    (graph.T, "matmul", tensor.matmul),
    (graph.T, "softmax", tensor.softmax),
    (hq, "quantize_dequantize", quant.quantize_dequantize),
)


def test_traced_run_rebinds_lookups_and_restores_originals():
    g, calib_x, _, _ = hq.build_fixture("tiny-mvit-ln")
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        for module, name, original in LOOKUPS:
            assert getattr(module, name) is not original, name
        hq.calibrate(g, calib_x, hq.SearchSpace(candidates=2, iterations=1))
    for module, name, original in LOOKUPS:
        assert getattr(module, name) is original, name

    summary = spans.summarize(tracer)
    assert summary["calib.calibrate"]["calls"] == 1
    assert summary["quant.quantize_dequantize"]["calls"] > 0
    assert summary["graph.run_layer.mhsa"]["calls"] > 0
    _, start, end, parent = tracer.arrays()
    selfs = spans.self_times(start, end, parent)
    assert spans.children_within_parents(start, end, parent, selfs)
    assert (selfs >= 0).all()


def test_originals_restored_when_the_traced_call_raises():
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Tracer()):
            raise RuntimeError("boom")
    for module, name, original in LOOKUPS:
        assert getattr(module, name) is original, name


def test_fingerprint_follows_the_roadmap_definition():
    p = quant.QuantParams(bits=8, scheme="symmetric", granularity="per_layer",
                          channel_axis=None, scale=np.float32(0.5),
                          zero_point=0, zero_point_raw=0.0)
    doc = {"format": "hyquant-qconfig/1", "bits": 8, "mode": "partial",
           "sites": [{"layer": 0, "site": "weight", "bits": 8,
                      "scheme": "symmetric", "granularity": "per_layer",
                      "channel_axis": None, "scale": 0.5, "zero_point": 0,
                      "zero_point_raw": 0.0}]}
    expected = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert program.fingerprint({(0, "weight"): p}, 8, "partial") == expected


def test_default_calibration_reproduces_the_roadmap_fingerprint():
    # The ROADMAP baseline: tiny-mvit-ln at its own seed, W8, default search
    # space and options (about 15-20 s on one core).
    g, calib_x, _, _ = hq.build_fixture("tiny-mvit-ln")
    qcfg, _ = hq.calibrate(g, calib_x)
    assert program.fingerprint(qcfg, 8, g.mode).startswith("1ec590191eec")


def test_inputs_follow_the_seed_and_keep_the_fixtures_calibration(tmp_path):
    wl = program.WORKLOADS["calib-overflow-full"]
    for d in ("a", "b", "c"):
        (tmp_path / d).mkdir()
    program.write_inputs(wl, 5, str(tmp_path / "a"))
    program.write_inputs(wl, 5, str(tmp_path / "b"))
    program.write_inputs(wl, 6, str(tmp_path / "c"))
    a, b, c = (program.setup(wl, str(tmp_path / d)) for d in ("a", "b", "c"))
    assert np.array_equal(a[2].data, b[2].data)
    assert np.array_equal(a[3], b[3])
    assert not np.array_equal(a[2].data, c[2].data)
    assert a[2].shape[0] == wl.eval_count
    _, own_calib, _, _ = hq.build_fixture(wl.spec)
    for inputs in (a, c):
        assert np.array_equal(inputs[1].data, own_calib.data)


def test_combos_rejected_counts_missing_fit_rows():
    d = calib.UnitDecision(label="u", output_id=0, params={},
                           granularity="per_layer", scheme="default",
                           objective=0.0)
    rows = [("u", "per_layer", "default", -1, 1.0),
            ("u", "per_layer", "symmetric", -1, 0.9),
            ("u", "per_layer", "symmetric", 0, 0.8),
            ("u", "per_layer", "asymmetric", -1, 0.9),
            ("u", "per_channel", "symmetric", -1, 0.7)]
    assert program.combos_rejected(rows, [d], hq.CalibOptions()) == {"u": 1}
    off = hq.CalibOptions(scale_search=False, granularity_search=False,
                          scheme_search=False)
    assert program.combos_rejected(rows[:1], [d], off) == {"u": 0}


def test_benchmark_json_lists_what_the_run_emits():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(program.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)
