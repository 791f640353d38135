"""The seam between the search code and its kernels.

A handle is the pair (kernel module, system object built by its
``prepare``); callers dispatch through the module.  The kernels live in
``pstseq._pykernels``.
"""

from __future__ import annotations

from . import _pykernels


def backend_name() -> str:
    return "pure"


def prepare(n: int, masks):
    """Return (module, handle) for a system of order ``n``."""
    return _pykernels, _pykernels.prepare(n, masks)
