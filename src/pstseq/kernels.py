"""The benchmark's hook into the kernels.

``prepare`` returns the pair (kernel module, system) and
``backend_name`` names the one backend; ``perfbench`` reads both.  The
program itself calls ``pstseq._pykernels`` directly on a
``TripleSystem``.  This module goes once the benchmark reads the
kernel module directly.

``backend_name`` still says "pure" where ``_pykernels`` runs its
compiled partition test: ``perfbench/compare.py`` refuses to compare
result files whose backend names differ, so a new name would cut every
comparison with earlier runs.
"""

from __future__ import annotations

from . import _pykernels
from .core import validate_system


def backend_name() -> str:
    return "pure"


def prepare(n: int, masks):
    """Return (module, system) for the system of order ``n`` whose blocks
    have the bitmasks ``masks``."""
    rows = [[p for p in range(n) if m >> p & 1] for m in masks]
    return _pykernels, validate_system(n, rows)
