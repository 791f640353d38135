"""Every name the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` swaps these attributes for timing wrappers by
name, so renaming or deleting one breaks the per-layer benchmark run
without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

from pstseq import _pykernels

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    tracing = _tracing()
    for name, (modname, attr) in tracing.SPANS.items():
        owner = _pykernels if modname is None else importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_counter_targets_resolve():
    for attr in _tracing().COUNTERS:
        assert callable(getattr(_pykernels, attr)), attr
