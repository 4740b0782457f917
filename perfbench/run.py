"""Benchmark of the atlaspack CLI on seeded, generated inputs.

    python3 perfbench/run.py --workload scene-grid --seed 1 --seconds 20 --trace 0

Runs ``atlaspack.cli.main`` in-process, one op after another, checks every
output, and prints one line per metric followed by a JSON summary as the
last line. ``--trace 1`` gives the per-layer metrics instead and writes the
spans under ``.perfbench_out/``. See perfbench/README.md.
"""

import sys

import program

if __name__ == "__main__":
    program.use_checkout()
    import bench

    sys.exit(bench.main())
