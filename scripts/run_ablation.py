#!/usr/bin/env python3
"""Ablation sweep over the option chain: none -> scale -> +granularity -> +scheme.

Prints the summed reconstruction objective and the FP-vs-quant top-1 agreement
for each step, per fixture.

Usage: python scripts/run_ablation.py [--fixtures tiny-mvit-ln ...] [--bits 8]
"""

import argparse
import time

from hyquant import CalibOptions, SearchSpace, build_fixture, calibrate
from hyquant.calib import CalibError
from hyquant.cli import evaluate_model
from hyquant.zoo import FIXTURES

CHAIN = [
    ("none", CalibOptions(scale_search=False, granularity_search=False,
                          scheme_search=False)),
    ("scale", CalibOptions(granularity_search=False, scheme_search=False)),
    ("+granularity", CalibOptions(scheme_search=False)),
    ("+scheme", CalibOptions()),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", nargs="*", default=sorted(FIXTURES),
                        choices=sorted(FIXTURES))
    parser.add_argument("--bits", type=int, default=8, choices=(6, 8))
    parser.add_argument("--candidates", type=int, default=32)
    parser.add_argument("--iterations", type=int, default=2)
    args = parser.parse_args()

    try:
        space = SearchSpace(candidates=args.candidates,
                            iterations=args.iterations)
    except CalibError as e:
        parser.error(str(e))
    for name in args.fixtures:
        graph, calib, ev, labels = build_fixture(name)
        print(f"\n{name} (W{args.bits}A{args.bits})")
        print(f"  {'options':14s} {'sum objective':>14s} {'agreement':>10s} "
              f"{'quant top1':>11s} {'seconds':>8s}")
        for label, options in CHAIN:
            start = time.monotonic()
            qcfg, decisions = calibrate(graph, calib, space, options,
                                        bits=args.bits)
            elapsed = time.monotonic() - start
            metrics = evaluate_model(graph, qcfg, ev, labels)
            total = sum(d.objective for d in decisions)
            print(f"  {label:14s} {total:14.6g} "
                  f"{metrics['top1_agreement']:10.4f} "
                  f"{metrics['quant_top1']:11.4f} {elapsed:8.2f}")


if __name__ == "__main__":
    main()
