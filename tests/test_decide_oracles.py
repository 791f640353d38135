"""Soundness of the decide search, checked by code it shares nothing with.

The search prunes a prefix when a segment ending at the new entry, or
the suffix of points still unplaced, splits into disjoint blocks.  The
oracles here work on plain point sets and permutations: brute force over
all permutations for small orders, and an exact-cover certificate for
the negative verdicts on Steiner triple systems.
"""

import copy
import itertools
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pstseq import (
    CyclicBase,
    Outcome,
    _pykernels,
    cyclic_system,
    decide,
    johnson_schonheim,
    random_system,
    validate_system,
)


def _disjoint_unions(blocks):
    """Every union of a nonempty family of pairwise disjoint blocks."""
    unions = {frozenset()}
    for blk in map(frozenset, blocks):
        unions |= {u | blk for u in unions if not u & blk}
    unions.discard(frozenset())
    return unions


def _admissible(perm, unions):
    n = len(perm)
    return not any(
        frozenset(perm[start : start + length]) in unions
        for length in range(3, n, 3)
        for start in range(n - length + 1)
    )


def _lex_first_admissible(n, blocks):
    unions = _disjoint_unions(blocks)
    for perm in itertools.permutations(range(n)):
        if _admissible(perm, unions):
            return perm
    return None


def _exact_cover(target, blocks):
    """Disjoint blocks whose union is exactly ``target``, or None."""
    if not target:
        return []
    p = min(target)
    for blk in blocks:
        if p in blk and blk <= target:
            rest = _exact_cover(target - blk, blocks)
            if rest is not None:
                return [blk, *rest]
    return None


def _reference_search(n, blocks, budget, exhaust=False):
    """(witness, nodes, exhausted) of a plain recursive walk, no memo.

    Candidates are tried in ascending order and each one counts a node
    before the budget is checked again; a candidate is cut when a
    segment ending at it (length a multiple of 3, below n) or the set of
    points still unplaced (size a nonzero multiple of 3) splits into
    disjoint blocks.  With ``exhaust`` the first witness is kept and the
    walk goes on through the rest of the tree.
    """
    sets = [frozenset(b) for b in blocks]
    perm = []
    found = []
    nodes = 0

    class Spent(Exception):
        pass

    def cut():
        pos = len(perm)
        for length in range(3, min(pos, n - 1) + 1, 3):
            if _exact_cover(frozenset(perm[pos - length :]), sets) is not None:
                return True
        rest = frozenset(range(n)) - frozenset(perm)
        return bool(rest) and len(rest) % 3 == 0 and _exact_cover(rest, sets) is not None

    def walk():
        nonlocal nodes
        if len(perm) == n:
            if not found:
                found.append(list(perm))
            return not exhaust
        for p in range(n):
            if p in perm:
                continue
            if budget is not None and nodes >= budget:
                raise Spent
            nodes += 1
            perm.append(p)
            if not cut() and walk():
                return True
            perm.pop()
        return False

    try:
        stopped = walk()
    except Spent:
        return (found[0] if found else None), nodes, False
    return (found[0] if found else None), nodes, not stopped


def _small_corpus():
    for n in range(3, 9):
        for nblocks in range(johnson_schonheim(n) + 1):
            for seed in range(12):
                yield random_system(n, nblocks, seed)


def test_witness_is_lexicographically_first_admissible():
    # Every corpus system has order at most 8, so at most two disjoint
    # blocks, and is sequenceable by the paper's theorem: the brute
    # force must find an ordering for each.
    seen = set()
    for system in _small_corpus():
        key = (system.n, system.block_masks)
        if key in seen:
            continue
        seen.add(key)
        blocks = [b.points for b in system.blocks]
        expected = _lex_first_admissible(system.n, blocks)
        assert expected is not None, blocks
        decision = decide(system, budget=None)
        assert decision.outcome is Outcome.SEQUENCEABLE, blocks
        assert decision.witness.entries == expected, blocks
    assert len(seen) == 220


_CYCLIC = {
    13: ((0, 1, 4), (0, 2, 7)),
    19: ((0, 1, 4), (0, 2, 9), (0, 5, 11)),
}


@pytest.mark.parametrize("n", sorted(_CYCLIC))
def test_cyclic_sts_relabelings_are_certified_negatives(n):
    base = cyclic_system(CyclicBase(n, _CYCLIC[n]))
    rng = random.Random(n)
    for _ in range(5):
        label = list(range(n))
        rng.shuffle(label)
        blocks = [tuple(label[p] for p in b.points) for b in base.blocks]
        system = validate_system(n, blocks)

        decision = decide(system, budget=10_000)
        assert decision.outcome is Outcome.NOT_SEQUENCEABLE
        assert decision.exhausted
        assert decision.nodes_explored == n

        # Deleting any vertex leaves points that split into disjoint
        # blocks, so whatever point comes first, the rest is a
        # partitionable proper segment: no admissible order exists.
        sets = [frozenset(b) for b in blocks]
        everything = frozenset(range(n))
        for vertex in range(n):
            cover = _exact_cover(everything - {vertex}, sets)
            assert cover is not None, vertex
            assert sum(len(b) for b in cover) == n - 1
            assert frozenset().union(*cover) == everything - {vertex}


@pytest.mark.parametrize("exhaust", [False, True])
@pytest.mark.parametrize("budget", [None, 0, 1, 7])
def test_search_matches_the_reference_walk(budget, exhaust):
    # An exhaustive walk with no budget visits about 10**5 nodes on a
    # sparse order-8 system, so that one case stops at order 7.
    seen = set()
    kinds = set()
    for system in _small_corpus():
        key = (system.n, system.block_masks)
        if key in seen or (budget is None and exhaust and system.n > 7):
            continue
        seen.add(key)
        blocks = [b.points for b in system.blocks]
        got = _pykernels.decide_search(system, budget, exhaust)
        assert got == _reference_search(system.n, blocks, budget, exhaust), blocks
        kinds.add((got[0] is not None, got[2]))
    # (witness found, exhausted): every corpus system is sequenceable,
    # and a budget of 7 stops some walks before their first witness and
    # some after it
    expected = {
        None: {(True, exhaust)},
        0: {(False, False)},
        1: {(False, False)},
        7: {(False, False), (True, False)},
    }
    assert kinds == expected[budget]


@pytest.mark.usefixtures("python_path")
@pytest.mark.parametrize("exhaust", [False, True])
@pytest.mark.parametrize("budget", [None, 0, 1, 7])
def test_search_matches_the_reference_walk_python(budget, exhaust):
    # The same walk with every partition test on ``_split``.
    test_search_matches_the_reference_walk(budget, exhaust)


def _memo_cases():
    """Systems, each with a budget, whose walks test many masks."""
    cases = [(system, None) for system in _small_corpus()]
    cases += [(cyclic_system(CyclicBase(n, bases)), 10_000) for n, bases in _CYCLIC.items()]
    cases.append((random_system(19, 57, 0), 200))
    return cases


@pytest.mark.usefixtures("python_path")
def test_memo_cleared_mid_search_changes_nothing(monkeypatch):
    # The Python walk reaches ``can_partition`` through the module, so
    # its tests can be counted; the compiled twin follows.
    cap = 2
    monkeypatch.setattr(_pykernels, "_MEMO_CAP", cap)
    tested = []
    partition = _pykernels.can_partition

    def recording(sys, mask):
        tested.append(mask)
        return partition(sys, mask)

    monkeypatch.setattr(_pykernels, "can_partition", recording)
    cleared = 0
    for system, budget in _memo_cases():
        blocks = [b.points for b in system.blocks]
        tested.clear()
        got = _pykernels.decide_search(system, budget, False)
        assert got == _reference_search(system.n, blocks, budget), blocks
        # at most ``cap`` masks are held, so this many distinct ones
        # means the memo was emptied at least three times
        cleared += len(set(tested)) > 3 * cap
    assert cleared > 100, cleared


def test_compiled_memo_cleared_mid_search_changes_nothing(native, monkeypatch):
    # The compiled walk keeps its own memo under the same cap; at 2 it is
    # emptied over and over, which must change nothing either.
    monkeypatch.setattr(_pykernels, "_MEMO_CAP", 2)
    for system, budget in _memo_cases():
        blocks = [b.points for b in system.blocks]
        got = _pykernels.decide_search(system, budget, False)
        assert got == _reference_search(system.n, blocks, budget), blocks
        assert type(system._native).__name__ == "PyCapsule"


# --------------------------------------------------------------------------
# the compiled walk against the Python walk and the reference

#: A cyclic STS(27): 117 blocks, no admissible order, 18,279 nodes.
_STS27 = CyclicBase(27, ((0, 1, 3), (0, 4, 11), (0, 5, 15), (0, 6, 14), (0, 9, 18)))


def _python_twin(system):
    """A copy of ``system`` whose kernels run the Python code."""
    twin = copy.copy(system)
    twin._native = False
    return twin


def _walk_systems():
    """JS-bound and half-bound random systems at orders 0-25, and the
    cyclic STS(13), (19) and (27)."""
    for n in range(26):
        bound = johnson_schonheim(n)
        for target in sorted({bound, bound // 2}):
            for seed in range(2):
                yield random_system(n, target, seed)
    for n, bases in _CYCLIC.items():
        yield cyclic_system(CyclicBase(n, bases))
    yield cyclic_system(_STS27)


def test_compiled_walk_matches_the_python_walk(native):
    # Every budget with ``exhaust`` both ways, node for node, and no
    # budget where a compiled walk of 10**5 nodes ends on its own.
    kinds = set()
    unbounded = 0
    for system in _walk_systems():
        twin = _python_twin(system)
        for exhaust in (False, True):
            for budget in (0, 1, 7, 200, 10_000):
                got = _pykernels.decide_search(system, budget, exhaust)
                assert got == _pykernels.decide_search(twin, budget, exhaust), (system, budget)
                kinds.add((got[0] is not None, got[2]))
            got = _pykernels.decide_search(system, 10**5, exhaust)
            if got[2] or (got[0] is not None and not exhaust):
                assert _pykernels.decide_search(system, None, exhaust) == got
                assert _pykernels.decide_search(twin, None, exhaust) == got
                unbounded += 1
        assert type(system._native).__name__ == "PyCapsule" and twin._native is False
    # (witness found, exhausted): every pair occurs
    assert kinds == {(False, False), (True, False), (False, True), (True, True)}
    assert unbounded > 100
    sts27 = cyclic_system(_STS27)
    assert _pykernels.decide_search(sts27, None, True) == (None, 18_279, True)


@pytest.mark.parametrize("exhaust", [False, True])
def test_compiled_walk_matches_the_reference_walk(native, exhaust):
    # Small budgets at orders 1-25, and the cyclic STS(13) and (19) to
    # the end of their walks: the reference takes seconds per walk of
    # 10**4 nodes.  At order 0 the reference reports its one leaf as a
    # stop where the walks report the end of the tree.
    for system in _walk_systems():
        if system.n in (0, 27):
            continue
        blocks = [b.points for b in system.blocks]
        for budget in (0, 1, 7, 200) if system.n < 13 or exhaust else (7, 200):
            got = _pykernels.decide_search(system, budget, exhaust)
            assert got == _reference_search(system.n, blocks, budget, exhaust), (blocks, budget)
    for n, bases in _CYCLIC.items():
        system = cyclic_system(CyclicBase(n, bases))
        blocks = [b.points for b in system.blocks]
        got = _pykernels.decide_search(system, 10_000, exhaust)
        assert got == _reference_search(n, blocks, 10_000, exhaust) == (None, n, True)


def test_walk_at_orders_64_and_65(native, monkeypatch):
    # At order 64 every point is a bit of the word; order 65 runs the
    # Python walk with the extension loaded.  The cyclic STS(13) on the
    # last 13 points cuts every walk that reaches them in order.
    tested = []
    split = _pykernels._split
    monkeypatch.setattr(_pykernels, "_split", lambda *args: tested.append(args) or split(*args))
    sts13 = cyclic_system(CyclicBase(13, _CYCLIC[13]))
    for n in (64, 65):
        top = validate_system(n, [[p + n - 13 for p in b.points] for b in sts13.blocks])
        for system in (random_system(n, n, 1), top):
            blocks = [b.points for b in system.blocks]
            twin = _python_twin(system)
            for exhaust in (False, True):
                tested.clear()
                got = _pykernels.decide_search(system, 200, exhaust)
                assert bool(tested) is (n == 65)
                assert got == _reference_search(n, blocks, 200, exhaust)
                assert sorted(got[0]) == list(range(n))
                for budget in (2_000, 20_000):
                    assert _pykernels.decide_search(system, budget, exhaust) == \
                        _pykernels.decide_search(twin, budget, exhaust)
            assert (type(system._native).__name__ == "PyCapsule") is (n == 64)
        # the STS(13) cuts the walk before its witness
        assert _pykernels.decide_search(top, None, False)[1] > n


def test_walk_checks_its_arguments(native):
    system = random_system(13, johnson_schonheim(13), 1)
    handle = native.prepare(13, system.block_masks)
    assert native.walk(handle, 7, False, 2) == _pykernels.decide_search(system, 7, False)
    with pytest.raises(ValueError):
        native.walk(object(), 7, False, 2)
    with pytest.raises(ValueError):
        native.walk(system.block_masks, 7, False, 2)
    for args in ((handle, 7, False), (handle, 7, False, 2, 0), ()):
        with pytest.raises(TypeError):
            native.walk(*args)
    for budget, cap in ((-1, 2), (7, -1), (-(1 << 70), 2)):
        with pytest.raises(ValueError):
            native.walk(handle, budget, False, cap)
    for budget, cap in ((7.0, 2), ("7", 2), (7, 2.0), (7, None), (7, "2")):
        with pytest.raises(TypeError):
            native.walk(handle, budget, False, cap)
    # A budget of 2**63 or more, like None, sets no limit.
    small = random_system(7, johnson_schonheim(7), 1)
    handle = native.prepare(7, small.block_masks)
    unbounded = native.walk(handle, None, True, 2)
    assert unbounded[2] and unbounded[1] > 5_000
    for budget in (1 << 63, 1 << 70):
        assert native.walk(handle, budget, True, 2) == unbounded
    empty = native.prepare(0, ())
    assert native.walk(empty, 0, False, 2) == ([], 0, True)


def test_unbounded_walk_stops_on_sigint(native):
    # The cyclic STS(57) takes minutes to walk and about 2 ms a node, so
    # the interrupt must land in the compiled walk.
    src = str(Path(_pykernels.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from pstseq import CyclicBase, _pykernels, cyclic_system\n"
        "bases = ((0, 1, 3), (0, 4, 9), (0, 6, 13), (0, 8, 26), (0, 10, 30),\n"
        "         (0, 11, 32), (0, 12, 34), (0, 14, 29), (0, 16, 33), (0, 19, 38))\n"
        "system = cyclic_system(CyclicBase(57, bases))\n"
        "assert _pykernels._handle(system)\n"
        "print('walking', flush=True)\n"
        "try:\n"
        "    _pykernels.decide_search(system, None, False)\n"
        "except KeyboardInterrupt:\n"
        "    print('interrupted', flush=True)\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    child = subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert child.stdout.readline() == "walking\n"
        time.sleep(0.5)
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=10)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, out) == (0, "interrupted\n"), err
