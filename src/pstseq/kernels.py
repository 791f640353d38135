"""The benchmark's hook into the kernels.

``prepare`` returns the pair (kernel module, handle) and
``backend_name`` names the one backend; ``perfbench`` reads both.  The
program itself calls ``pstseq._pykernels`` directly on
``TripleSystem._kernel``.  This module goes once the benchmark reads
the kernel module directly.
"""

from __future__ import annotations

from . import _pykernels


def backend_name() -> str:
    return "pure"


def prepare(n: int, masks):
    """Return (module, handle) for a system of order ``n``."""
    return _pykernels, _pykernels.prepare(n, masks)
