"""Shared fixtures: independent oracles and seeded corpora.

The oracles re-derive results by plain enumeration so the fast paths
are always checked against something that shares none of their code.
"""

from __future__ import annotations

import itertools
import random

import pytest

from pstseq import (
    Block,
    TripleSystem,
    friendship_chain,
    johnson_schonheim,
    max_disjoint_blocks,
    random_system,
    validate_system,
)
from pstseq import _pykernels

# --------------------------------------------------------------------------
# the two paths of the kernels and the generator


@pytest.fixture
def python_path(monkeypatch):
    """The Python code for every call under the fixture: the compiled
    extension counts as one that could not be built."""
    monkeypatch.setattr(_pykernels, "_native", False)


@pytest.fixture(scope="module")
def native():
    """The compiled extension; the test is skipped where it cannot be built."""
    module = _pykernels._extension()
    if not module:
        pytest.skip("the compiled extension cannot be built here")
    return module


# --------------------------------------------------------------------------
# oracles


def oracle_partitions(system: TripleSystem, point_set) -> list[frozenset[Block]]:
    """All partitions of the set into blocks, by combination enumeration."""
    target = frozenset(point_set)
    if len(target) % 3:
        return []
    inside = [b for b in system.blocks if set(b.points) <= target]
    r = len(target) // 3
    out = []
    for combo in itertools.combinations(inside, r):
        pts = [p for b in combo for p in b.points]
        if len(set(pts)) == len(pts) and frozenset(pts) == target:
            out.append(frozenset(combo))
    return out


def oracle_has_partition_subsets(system: TripleSystem, point_set) -> bool:
    """Partitionability by walking every subset of the block family."""
    target = frozenset(point_set)
    blocks = system.blocks
    for bits in range(1 << len(blocks)):
        pts = []
        for i in range(len(blocks)):
            if (bits >> i) & 1:
                pts.extend(blocks[i].points)
        if len(pts) == len(set(pts)) and frozenset(pts) == target:
            return True
    return False


def oracle_max_packing(system: TripleSystem) -> int:
    """Maximum disjoint family size by enumerating all block subsets."""
    blocks = system.blocks
    best = 0
    for bits in range(1 << len(blocks)):
        seen = set()
        ok = True
        count = 0
        for i in range(len(blocks)):
            if (bits >> i) & 1:
                if seen & set(blocks[i].points):
                    ok = False
                    break
                seen.update(blocks[i].points)
                count += 1
        if ok:
            best = max(best, count)
    return best


def padded(system: TripleSystem, new_order: int) -> TripleSystem:
    """Same blocks, extra isolated points up to the new order."""
    assert new_order >= system.n
    return validate_system(new_order, [b.points for b in system.blocks])


def hub_system(n: int, k: int, seed: int) -> TripleSystem:
    """k hub points meeting every block, plus k disjoint blocks through
    them, so the packing number is exactly k.  Each hub also gets a
    random matching of the other points as further blocks."""
    assert n >= 3 * k
    rng = random.Random(seed)
    pts = list(range(n))
    rng.shuffle(pts)
    hubs, others = pts[:k], pts[k:]
    blocks = [(h, others[2 * i], others[2 * i + 1]) for i, h in enumerate(hubs)]
    pairs = {frozenset(pair) for blk in blocks for pair in itertools.combinations(blk, 2)}
    for h in hubs:
        rng.shuffle(others)
        for a, b in zip(others[::2], others[1::2]):
            new = [frozenset(pair) for pair in ((h, a), (h, b), (a, b))]
            if not pairs.intersection(new):
                pairs.update(new)
                blocks.append((h, a, b))
    return validate_system(n, blocks)


# --------------------------------------------------------------------------
# corpora (all seeded, deterministic)


def _random_nu_filtered(n, seeds, targets, nu_max):
    out = []
    for seed in seeds:
        target = min(targets[seed % len(targets)], johnson_schonheim(n))
        t = random_system(n, target, seed * 31 + n)
        if max_disjoint_blocks(t).nu <= nu_max:
            out.append(t)
    return out


@pytest.fixture(scope="session")
def corpus_nu_le3() -> list[TripleSystem]:
    """500+ systems spanning orders 9..20 with at most 3 disjoint blocks."""
    systems: list[TripleSystem] = []
    targets = (3, 4, 5, 6, 7, 8, 5, 4)
    for n in range(9, 21):
        picked = _random_nu_filtered(n, range(60), targets, nu_max=3)
        systems.extend(picked[:36])
    for sizes in (
        [2], [3], [4], [5],
        [2, 2], [2, 3], [3, 2], [3, 3],
        [2, 2, 2], [2, 2, 3], [2, 3, 2], [3, 2, 2],
    ):
        chain = friendship_chain(sizes)
        if 9 <= chain.n <= 20:
            systems.append(chain)
        for pad in (1, 3, 5):
            if max(chain.n, 9) + pad <= 20:
                systems.append(padded(chain, max(chain.n, 9) + pad))
    # residual-style systems: a dense 12-point core under isolated padding
    for n in range(13, 21):
        added = 0
        for seed in range(40):
            core = random_system(12, 6 + seed % 5, 1000 + seed * 17 + n)
            if max_disjoint_blocks(core).nu == 3:
                systems.append(padded(core, n))
                added += 1
            if added >= 4:
                break
    return systems


@pytest.fixture(scope="session")
def corpus_order12_nu3() -> list[TripleSystem]:
    """At least 100 order-12 systems with exactly 3 disjoint blocks."""
    out = []
    for seed in range(400):
        t = random_system(12, 8 + seed % 5, seed)
        if max_disjoint_blocks(t).nu == 3:
            out.append(t)
        if len(out) >= 120:
            break
    return out


@pytest.fixture(scope="session")
def corpus_psts10() -> list[TripleSystem]:
    """200 order-10 systems of varied densities."""
    out = []
    for seed in range(200):
        target = min(5 + seed % 9, johnson_schonheim(10))
        out.append(random_system(10, target, seed))
    return out


@pytest.fixture(scope="session")
def two_partitions_instance() -> TripleSystem:
    """Two disjoint blocks and six cross blocks; exactly two of the three
    x-plus-pair 9-sets partition."""
    return validate_system(
        10,
        [
            [0, 1, 2], [3, 4, 5],
            [0, 3, 6], [1, 5, 6], [1, 4, 7], [2, 3, 7], [2, 5, 8], [0, 4, 9],
        ],
    )


@pytest.fixture(scope="session")
def rigid_cross_instance() -> TripleSystem:
    """Two disjoint blocks plus a fully labeled 9-edge cross structure;
    all three x,y-plus-point 9-sets partition uniquely."""
    return validate_system(
        11,
        [
            [0, 1, 2], [3, 4, 5],
            [6, 0, 3], [6, 1, 4], [6, 2, 5],
            [7, 1, 3], [7, 2, 4], [7, 0, 5],
            [8, 0, 4], [9, 1, 5], [10, 2, 3],
        ],
    )


@pytest.fixture(scope="session")
def replacement_instance() -> TripleSystem:
    """Three disjoint blocks plus cross blocks so a replacement 9-set
    still partitions, necessarily avoiding the first two blocks."""
    return validate_system(
        10,
        [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 9], [1, 4, 6], [2, 5, 7]],
    )
