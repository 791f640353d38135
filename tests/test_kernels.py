"""The kernel seam and the pure-Python kernels."""

import itertools
import random

import pstseq
from pstseq import _pykernels as pure, johnson_schonheim, kernels, random_system
from conftest import oracle_has_partition_subsets


def test_prepare_returns_pure_kernels():
    for n, masks in ((0, ()), (6, (0b111, 0b111000)), (65, ())):
        assert kernels.prepare(n, masks)[0] is pure
    assert pstseq.backend_name() == "pure"


def test_pure_supports_arbitrary_order():
    system = random_system(70, 8, 1)
    handle = pure.prepare(system.n, system.block_masks)
    witness, nodes, exhausted = pure.decide_search(handle, 10_000, False)
    assert sorted(witness) == list(range(70))
    assert nodes == 70 and not exhausted
    assert pure.inadmissible_scan(handle, witness, True) == []
    first = system.blocks[0].points
    perm = list(first) + [p for p in range(70) if p not in first]
    assert pure.inadmissible_scan(handle, perm, True) == [(0, 3, (0,))]


def test_pure_partition_matches_subset_oracle():
    for seed in range(5):
        system = random_system(9, 5, seed)
        handle = pure.prepare(system.n, system.block_masks)
        for size in (3, 6, 9):
            for combo in itertools.combinations(range(9), size):
                mask = sum(1 << p for p in combo)
                got = pure.find_partition(handle, mask) is not None
                assert got == oracle_has_partition_subsets(system, combo)


def _all_blocks_partition(n, masks, target):
    """Block ids partitioning ``target``, or None: branch on the least
    point, trying every block through it in canonical order."""
    through = [[bid for bid, m in enumerate(masks) if m >> p & 1] for p in range(n)]

    def search(rest):
        if not rest:
            return ()
        p = (rest & -rest).bit_length() - 1
        for bid in through[p]:
            m = masks[bid]
            if m & rest == m:
                tail = search(rest & ~m)
                if tail is not None:
                    return (bid,) + tail
        return None

    return search(target) if target.bit_count() % 3 == 0 else None


def test_partition_matches_all_blocks_search():
    # Random subsets, and unions of random disjoint blocks so that many
    # targets do split; sizes 3, 6, 9, ... up to the order.
    found = 0
    for n in range(9, 22):
        bound = johnson_schonheim(n)
        for target in (bound, bound // 2):
            for seed in range(3):
                system = random_system(n, target, seed)
                masks = system.block_masks
                handle = pure.prepare(n, masks)
                rng = random.Random(seed)
                for size in range(3, n + 1, 3):
                    for _ in range(10):
                        samples = [sum(1 << p for p in rng.sample(range(n), size))]
                        union = 0
                        for m in rng.sample(masks, len(masks)):
                            if not m & union and union.bit_count() < size:
                                union |= m
                        samples.append(union)
                        for mask in samples:
                            expected = _all_blocks_partition(n, masks, mask)
                            assert pure.find_partition(handle, mask) == expected
                            assert pure.can_partition(handle, mask) == (expected is not None)
                            found += expected is not None
    assert found > 1000
