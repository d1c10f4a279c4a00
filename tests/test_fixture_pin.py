"""Pin the bytes of every built fixture.

Each case hashes every weight tensor (by layer id and name, with its shape),
the calibration batch, the evaluation batch and the labels. Search pins,
qconfig fingerprints and the benchmark's references are all computed from
these bytes, so a change to the fixture builder must leave every hash as is.
"""

import hashlib
from dataclasses import replace

import pytest

from hyquant.zoo import FIXTURES, build_fixture

PINS = {
    "overflow-bridge":
        "a60e03efb1eca3e4f0895d28cfd4aa6f4ce76e23ccb4e4d6b7c33d980396f929",
    "tiny-mvit-bn":
        "6408a2cde2e5c31d9853b1b2e580b71dda0a95cdcd1d2140a710192bdc86eed7",
    "tiny-mvit-gn":
        "81e926abb85e744279099dc18a178f8edea98e7ccddf5f6f2d523f6513334408",
    "tiny-mvit-ln":
        "2d010c74d69e29990b6581a981c6f75e34fd657351555baa8acf144b58fadb32",
    "wide-mvit-ln":
        "77d0197fb2a68d7bde52ee4e56b2c6d6aa8d0173e04972615e48c2485b96442c",
    "tiny-mvit-ln/seed=99":
        "5b829b39460e6e5ffd9a27ae7f81720b29568786d3b3fafb9d3c4c86483fde27",
    "tiny-mvit-ln/depth=2":
        "5c1571791e53bafb29964f18d7156692ee24ba2f2a05846def43c24bd2753661",
    "wide-mvit-ln/calib=48,eval=80":
        "1ea47c527d0c29b83a36a1e1e0f8e0844c0d0b6d38e8f5b0331015ef9b2158a4",
}

SPECS = {
    **{name: FIXTURES[name] for name in FIXTURES},
    "tiny-mvit-ln/seed=99": replace(FIXTURES["tiny-mvit-ln"], seed=99),
    "tiny-mvit-ln/depth=2": replace(FIXTURES["tiny-mvit-ln"], depth=2),
    "wide-mvit-ln/calib=48,eval=80": replace(FIXTURES["wide-mvit-ln"],
                                             calib_count=48, eval_count=80),
}


def fixture_digest(spec) -> str:
    graph, calib, ev, labels = build_fixture(spec)
    h = hashlib.sha256()
    for layer in graph.layers:
        for name in sorted(layer.weights):
            w = layer.weights[name].data
            h.update(f"{layer.id}:{name}:{w.dtype}:{w.shape}".encode())
            h.update(w.tobytes())
    for part in (calib.data, ev.data, labels):
        h.update(f"{part.dtype}:{part.shape}".encode())
        h.update(part.tobytes())
    return h.hexdigest()


def test_every_pinned_case_is_built():
    assert set(PINS) == set(SPECS)


@pytest.mark.parametrize("case", sorted(PINS))
def test_fixture_bytes_are_pinned(case):
    assert fixture_digest(SPECS[case]) == PINS[case]
