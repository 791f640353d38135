"""Backend selection and compiled/pure twin agreement."""

import itertools
import random

import pytest

from pstseq import CyclicBase, cyclic_system, kernels, random_system
from pstseq.generators import johnson_schonheim
from conftest import oracle_has_partition_subsets

pure = kernels.pure_module()
compiled = kernels.compiled_module()

needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled extension not built"
)


def _handles(system):
    hp = pure.prepare(system.n, system.block_masks)
    hc = compiled.prepare(system.n, system.block_masks)
    return hp, hc


def test_prepare_prefers_compiled_when_available():
    mod, _ = kernels.prepare(6, (0b111, 0b111000))
    if compiled is not None:
        assert mod is compiled
    else:
        assert mod is pure


@needs_compiled
def test_compiled_rejects_orders_above_64():
    with pytest.raises(ValueError):
        compiled.prepare(65, ())
    mod, _ = kernels.prepare(65, ())
    assert mod is pure


def test_pure_supports_arbitrary_order():
    system = random_system(70, 8, 1)
    handle = pure.prepare(system.n, system.block_masks)
    witness, nodes, exhausted = pure.decide_search(handle, 10_000, False, ())
    assert sorted(witness) == list(range(70))
    assert nodes == 70 and not exhausted
    assert pure.inadmissible_scan(handle, witness, True) == []
    first = system.blocks[0].points
    perm = list(first) + [p for p in range(70) if p not in first]
    assert pure.inadmissible_scan(handle, perm, True) == [(0, 3, (0,))]


def test_prefix_replay_applies_suffix_lookahead():
    system = cyclic_system(CyclicBase(13, ((0, 1, 4), (0, 2, 7))))
    handle = pure.prepare(system.n, system.block_masks)
    for p in range(13):
        assert pure.decide_search(handle, 1000, False, (p,)) == (None, 1, True)


def test_pure_partition_matches_subset_oracle():
    for seed in range(5):
        system = random_system(9, 5, seed)
        handle = pure.prepare(system.n, system.block_masks)
        for size in (3, 6, 9):
            for combo in itertools.combinations(range(9), size):
                mask = sum(1 << p for p in combo)
                got = pure.find_partition(handle, mask) is not None
                assert got == oracle_has_partition_subsets(system, combo)


@needs_compiled
class TestTwinAgreement:
    def test_partitions(self):
        rng = random.Random(7)
        for seed in range(20):
            n = 6 + seed % 9
            system = random_system(n, min(8, johnson_schonheim(n)), seed)
            hp, hc = _handles(system)
            for _ in range(60):
                pts = rng.sample(range(n), rng.randrange(n + 1))
                mask = sum(1 << p for p in pts)
                assert pure.find_partition(hp, mask) == compiled.find_partition(hc, mask)

    def test_scans(self):
        rng = random.Random(11)
        for seed in range(20):
            n = 6 + seed % 9
            system = random_system(n, min(8, johnson_schonheim(n)), seed)
            hp, hc = _handles(system)
            for _ in range(15):
                perm = list(range(n))
                rng.shuffle(perm)
                assert pure.inadmissible_scan(hp, perm, False) == compiled.inadmissible_scan(hc, perm, False)

    def test_decide(self):
        for seed in range(15):
            n = 6 + seed % 7
            system = random_system(n, min(7, johnson_schonheim(n)), seed)
            hp, hc = _handles(system)
            assert pure.decide_search(hp, 30_000, False, ()) == compiled.decide_search(
                hc, 30_000, False, ()
            )
            if n <= 8:
                assert pure.decide_search(hp, None, True, ()) == compiled.decide_search(
                    hc, None, True, ()
                )
            assert pure.decide_search(hp, 5_000, False, (0,)) == compiled.decide_search(
                hc, 5_000, False, (0,)
            )

    def test_packing(self):
        for seed in range(20):
            n = 9 + seed % 6
            system = random_system(n, min(9, johnson_schonheim(n)), seed)
            hp, hc = _handles(system)
            assert pure.max_packing(hp, None) == compiled.max_packing(hc, None)
            assert pure.max_packing(hp, 5) == compiled.max_packing(hc, 5)
