"""One set-up: import Python, numpy and atlaspack, then write a workload's inputs.

The benchmark runs this several times in child processes and reports the
median wall time as ``setup_s``. Usage:

    python3 perfbench/setup_probe.py WORKLOAD SEED DIR
"""

import sys
from pathlib import Path

import program

if __name__ == "__main__":
    program.use_checkout()
    import numpy  # noqa: F401  (part of what set-up pays for)
    import workloads

    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    directory.mkdir(parents=True)
    workloads.WRITERS[workload](directory, seed)
