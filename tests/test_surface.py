"""No dead library surface: every error class is raised somewhere in the
package, and every positional pattern is reached by ``construct``.

An error class nothing raises, or a pattern no route of ``construct``
looks up, is code that no caller can reach.
"""

import ast
from pathlib import Path

import pstseq
from pstseq import (
    construct,
    errors,
    johnson_schonheim,
    max_disjoint_blocks,
    random_system,
    sequencer,
)

_PACKAGE = Path(pstseq.__file__).resolve().parent


def _raised_names():
    names = set()
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    # The two bases are raised through their subclasses.
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.PstseqError)
    }
    assert {"PstseqError", "InputError", "RepairFailed"} <= classes
    assert classes - {"PstseqError", "InputError"} - _raised_names() == set()


def test_every_pattern_is_reached(monkeypatch):
    reached = set()
    pattern_route = sequencer._pattern_route

    def recording(system, blocks, key):
        reached.add(key)
        return pattern_route(system, blocks, key)

    monkeypatch.setattr(sequencer, "_pattern_route", recording)
    for n in range(4, 14):
        for target in range(1, min(8, johnson_schonheim(n)) + 1):
            for seed in range(12):
                system = random_system(n, target, seed)
                if max_disjoint_blocks(system).nu <= 3:
                    construct(system)
    assert reached == set(sequencer._PATTERNS)
