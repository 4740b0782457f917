"""Locates the program under test: the atlaspack sources of this checkout."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout() -> None:
    """Put this checkout's ``src`` first on the import path, or exit 2.

    The benchmark measures the sources next to it and nothing else, so an
    atlaspack installed elsewhere must never stand in for missing sources.
    Also keeps numpy's BLAS to one thread: the benchmark measures one
    process on one thread, and it must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "atlaspack" / "__init__.py").is_file():
        print(f"error: no atlaspack sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
