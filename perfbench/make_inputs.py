"""Write one workload's inputs for a seed into a directory.

Usage, from the repository root:

    python3 perfbench/make_inputs.py WORKLOAD SEED DIR

run.py calls this in a child process, so that drawing the inputs does not
count in the peak memory of the process it measures.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import program  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    program.write_inputs(program.WORKLOADS[name], int(seed), workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
