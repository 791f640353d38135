"""Properties of seeded random draws with at most three disjoint blocks.

The paper proves every such system sequenceable, so ``construct`` must
return an admissible order for each; the checker here shares no code
with the package.  File formats must carry each draw unchanged.
"""

import json
import subprocess
import sys
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pstseq import construct, formats, johnson_schonheim, max_disjoint_blocks, random_system


@st.composite
def sparse_systems(draw):
    # sampled_from draws near-uniformly, where integers() favours the
    # ends of its range; both ends here are the easy routes
    n = draw(st.sampled_from(range(3, 23)))
    target = draw(st.sampled_from(range(1, johnson_schonheim(n) + 1)))
    system = random_system(n, target, draw(st.integers(0, 10**6)))
    assume(max_disjoint_blocks(system).nu <= 3)
    return system


def _splits_into_blocks(points, blocks):
    if not points:
        return True
    p = min(points)
    return any(
        p in blk and blk <= points and _splits_into_blocks(points - blk, blocks)
        for blk in blocks
    )


def _admissible(order, n, blocks):
    if sorted(order) != list(range(n)):
        return False
    return not any(
        _splits_into_blocks(frozenset(order[start : start + length]), blocks)
        for length in range(3, n, 3)
        for start in range(n - length + 1)
    )


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_construct_is_admissible(system):
    blocks = [frozenset(b.points) for b in system.blocks]
    assert _admissible(list(construct(system).entries), system.n, blocks)


@settings(max_examples=80, deadline=None)
@given(sparse_systems())
def test_text_and_json_round_trip(system):
    text = formats.system_to_psts(system, comment="random draw")
    assert formats.parse_system_text(text) == system
    obj = json.loads(json.dumps(formats.system_to_json_obj(system)))
    assert formats.parse_system_json(json.dumps(obj)) == system
    assert formats.parse_system_text(json.dumps(obj)) == system


_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x is None
'''


def test_failing_property_test_fails_alone(tmp_path):
    # Under the repo's warning filters, reporting a failed ``@given``
    # test must fail that test, not abort the whole session.
    (tmp_path / "test_failing.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
