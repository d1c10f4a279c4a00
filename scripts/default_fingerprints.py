#!/usr/bin/env python3
"""Default-space fingerprints: calibrate every fixture at W6 and W8 with the
default SearchSpace() and CalibOptions(), and print per run the qconfig
fingerprint, the unit evaluations, the sum of the units' objectives and the
wall time as a Markdown table.

The fingerprint is the first 12 hex digits of the sha256 of
json.dumps(qconfig_to_doc(qconfig, bits, mode), sort_keys=True). It hashes
only the qconfig, so the objective sum, printed as float.hex() (the
decisions' objectives added in unit order), pins the objective's arithmetic
bit for bit. With --check, each run is compared with the recorded
fingerprint, evaluation count (ROADMAP's table) and objective sum, and the
exit status is 1 on any mismatch.

Usage: python scripts/default_fingerprints.py [--check] [--fixtures ...]
           [--bits 6 8]
"""

import argparse
import hashlib
import json
import sys
import time

from hyquant import build_fixture, calibrate
from hyquant.cli import qconfig_to_doc
from hyquant.zoo import FIXTURES

# (fixture, bits) -> (fingerprint, unit evaluations, objective sum) at the
# default space
RECORDED = {
    ("overflow-bridge", 8): ("70c76d2bf135", 8340, "0x1.20fa77a586b1cp-5"),
    ("tiny-mvit-bn", 8): ("f22de2386a44", 11145, "0x1.001d67b40a13ap-6"),
    ("tiny-mvit-gn", 8): ("9c56079377a3", 10544, "0x1.7399c9d1dc92cp-8"),
    ("tiny-mvit-ln", 8): ("1ec590191eec", 9544, "0x1.f09b98ecbde7fp-8"),
    ("wide-mvit-ln", 8): ("9a7eb54101c8", 10544, "0x1.d58c8d22d2cf7p-7"),
    ("overflow-bridge", 6): ("ba3656c5fb52", 11942, "0x1.1fa4405c4439ep-1"),
    ("tiny-mvit-bn", 6): ("8230653825d9", 11345, "0x1.bf8d6dbc633bbp-3"),
    ("tiny-mvit-gn", 6): ("48a2fa8b08e1", 11347, "0x1.a575e7764ab2fp-4"),
    ("tiny-mvit-ln", 6): ("49f164adcd5a", 10245, "0x1.abb3fd3e21cd2p-4"),
    ("wide-mvit-ln", 6): ("4302966139e3", 12344, "0x1.b90e50a7b8358p-3"),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every run matches its record")
    parser.add_argument("--fixtures", nargs="*", default=sorted(FIXTURES),
                        choices=sorted(FIXTURES))
    parser.add_argument("--bits", nargs="*", type=int, default=[6, 8],
                        choices=[6, 8])
    args = parser.parse_args()

    print("| fixture | bits | fingerprint | evals | objective sum | wall s "
          "| recorded |")
    print("|---|---|---|---|---|---|---|")
    mismatches = 0
    for name in args.fixtures:
        graph, calib, _, _ = build_fixture(name)
        for bits in args.bits:
            start = time.perf_counter()
            qcfg, decisions = calibrate(graph, calib, bits=bits)
            wall = time.perf_counter() - start
            doc = json.dumps(qconfig_to_doc(qcfg, bits, graph.mode),
                             sort_keys=True)
            got = (hashlib.sha256(doc.encode()).hexdigest()[:12],
                   sum(d.evals for d in decisions),
                   sum(d.objective for d in decisions).hex())
            want = RECORDED[(name, bits)]
            status = "equal" if got == want else " / ".join(map(str, want))
            mismatches += got != want
            print(f"| {name} | {bits} | {got[0]} | {got[1]} | {got[2]} | "
                  f"{wall:.2f} | {status} |", flush=True)
    if args.check and mismatches:
        print(f"error: {mismatches} run(s) differ from the recorded "
              f"fingerprint, evaluation count or objective sum",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
