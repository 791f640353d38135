"""The kernel seam and the pure-Python kernels."""

import itertools

import pstseq
from pstseq import _pykernels as pure, kernels, random_system
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
