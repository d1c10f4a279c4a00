#!/usr/bin/env python3
"""Bit-width sensitivity sweep: W8A8 vs W6A6, searched method vs min-max baseline.

The wider fixture should lose less agreement at 6 bits than the small one,
and the searched method should hold up where the naive baseline degrades.

Usage: python scripts/bitwidth_sweep.py [--fixtures ...]
"""

import argparse

from hyquant import CalibOptions, SearchSpace, build_fixture, calibrate
from hyquant.calib import CalibError
from hyquant.cli import evaluate_model
from hyquant.zoo import FIXTURES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", nargs="*", default=sorted(FIXTURES),
                        choices=sorted(FIXTURES))
    parser.add_argument("--candidates", type=int, default=32)
    parser.add_argument("--iterations", type=int, default=2)
    args = parser.parse_args()

    try:
        space = SearchSpace(candidates=args.candidates,
                            iterations=args.iterations)
    except CalibError as e:
        parser.error(str(e))
    methods = [
        ("searched", CalibOptions()),
        ("minmax", CalibOptions(scale_search=False, granularity_search=False,
                                scheme_search=False)),
    ]
    print(f"{'fixture':16s} {'method':9s} {'fp top1':>8s} "
          f"{'W8A8 agr':>9s} {'W6A6 agr':>9s} {'loss':>7s}")
    for name in args.fixtures:
        graph, calib, ev, labels = build_fixture(name)
        for label, options in methods:
            agr = {}
            fp = None
            for bits in (8, 6):
                qcfg, _ = calibrate(graph, calib, space, options, bits=bits)
                metrics = evaluate_model(graph, qcfg, ev, labels)
                agr[bits] = metrics["top1_agreement"]
                fp = metrics["fp_top1"]
            print(f"{name:16s} {label:9s} {fp:8.4f} {agr[8]:9.4f} "
                  f"{agr[6]:9.4f} {agr[8] - agr[6]:7.4f}")


if __name__ == "__main__":
    main()
