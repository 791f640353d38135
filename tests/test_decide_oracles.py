"""Soundness of the decide search, checked by code it shares nothing with.

The search prunes a prefix when a segment ending at the new entry, or
the suffix of points still unplaced, splits into disjoint blocks.  The
oracles here work on plain point sets and permutations: brute force over
all permutations for small orders, and an exact-cover certificate for
the negative verdicts on Steiner triple systems.
"""

import itertools
import random

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


def test_memo_cleared_mid_search_changes_nothing(monkeypatch):
    cap = 2
    monkeypatch.setattr(_pykernels, "_MEMO_CAP", cap)
    tested = []
    partition = _pykernels.can_partition

    def recording(sys, mask):
        tested.append(mask)
        return partition(sys, mask)

    monkeypatch.setattr(_pykernels, "can_partition", recording)
    cases = [(system, None) for system in _small_corpus()]
    cases += [(cyclic_system(CyclicBase(n, bases)), 10_000) for n, bases in _CYCLIC.items()]
    cases.append((random_system(19, 57, 0), 200))
    cleared = 0
    for system, budget in cases:
        blocks = [b.points for b in system.blocks]
        tested.clear()
        got = _pykernels.decide_search(system, budget, False)
        assert got == _reference_search(system.n, blocks, budget), blocks
        # at most ``cap`` masks are held, so this many distinct ones
        # means the memo was emptied at least three times
        cleared += len(set(tested)) > 3 * cap
    assert cleared > 100, cleared
