"""The kernel seam and the pure-Python kernels."""

import itertools
import random

import pstseq
from pstseq import TripleSystem, _pykernels as pure, johnson_schonheim, kernels, random_system
from conftest import oracle_has_partition_subsets


def test_prepare_returns_pure_kernels():
    for n, masks in ((0, ()), (6, (0b111, 0b111000)), (65, ())):
        assert kernels.prepare(n, masks)[0] is pure
    assert pstseq.backend_name() == "pure"
    _, system = kernels.prepare(6, (0b111, 0b111000))
    assert type(system) is TripleSystem
    assert system.block_masks == (0b111, 0b111000)
    assert pure.find_partition(system, 0b111111) == (0, 1)


def test_pure_supports_arbitrary_order():
    system = random_system(70, 8, 1)
    witness, nodes, exhausted = pure.decide_search(system, 10_000, False)
    assert sorted(witness) == list(range(70))
    assert nodes == 70 and not exhausted
    assert pure.inadmissible_scan(system, witness, True) == []
    first = system.blocks[0].points
    perm = list(first) + [p for p in range(70) if p not in first]
    assert pure.inadmissible_scan(system, perm, True) == [(0, 3, (0,))]


def test_pure_partition_matches_subset_oracle():
    # Existence against the subset oracle, and the ids and their order
    # against the least-point-first reference search.
    for seed in range(5):
        system = random_system(9, 5, seed)
        partition = _all_blocks_partitioner(system.n, system.block_masks)
        for size in (3, 6, 9):
            for combo in itertools.combinations(range(9), size):
                mask = sum(1 << p for p in combo)
                got = pure.find_partition(system, mask)
                assert got == partition(mask)
                assert (got is not None) == oracle_has_partition_subsets(system, combo)


def _all_blocks_partitioner(n, masks):
    """A function giving the block ids that partition a target, or None:
    branch on the least point, trying every block through it in
    canonical order."""
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

    return lambda target: search(target) if target.bit_count() % 3 == 0 else None


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
                partition = _all_blocks_partitioner(n, masks)
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
                            expected = partition(mask)
                            assert pure.find_partition(system, mask) == expected
                            assert pure.can_partition(system, mask) == (expected is not None)
                            found += expected is not None
    assert found > 1000


def _unfiltered_scan(n, masks, entries):
    """Every proper segment of length 3, 6, ... in (length, start) order
    with the ids of its partition, testing each one."""
    partition = _all_blocks_partitioner(n, masks)
    out = []
    for length in range(3, n, 3):
        for start in range(n - length + 1):
            parts = partition(sum(1 << p for p in entries[start : start + length]))
            if parts is not None:
                out.append((start, length, parts))
    return out


def _scan_cases():
    # Random permutations, and permutations with a block or a union of
    # disjoint blocks placed as one segment, in random inner order.
    for n in range(26):
        bound = johnson_schonheim(n)
        for target in sorted({bound, bound // 2}):
            for seed in range(4):
                system = random_system(n, target, seed)
                rng = random.Random(seed * 100 + n)
                for _ in range(3):
                    yield system, rng.sample(range(n), n)
                union = []
                for blk in rng.sample(system.blocks, len(system.blocks)):
                    if not set(blk.points) & set(union):
                        union += blk.points
                        rest = [p for p in range(n) if p not in union]
                        rng.shuffle(rest)
                        at = rng.randrange(len(rest) + 1)
                        yield system, rest[:at] + rng.sample(union, len(union)) + rest[at:]


def test_scan_matches_unfiltered_scan():
    cases = hits = 0
    for system, entries in _scan_cases():
        expected = _unfiltered_scan(system.n, system.block_masks, entries)
        assert pure.inadmissible_scan(system, entries) == expected
        assert pure.inadmissible_scan(system, entries, True) == expected[:1]
        cases += 1
        hits += len(expected)
    assert cases > 1000 and hits > 1000


def test_benchmark_hooks(monkeypatch):
    # Tracing swaps these module attributes: the kernel names must
    # exist, the search must reach ``can_partition`` through the module,
    # and the scan must not, so that a count of ``can_partition`` calls
    # counts search tests only.  The scan calls ``find_partition`` once
    # per hit.
    mod, _ = kernels.prepare(0, ())
    for name in ("decide_search", "inadmissible_scan", "max_packing",
                 "can_partition", "find_partition"):
        assert callable(getattr(mod, name))
    calls = {"can_partition": 0, "find_partition": 0}
    for name in calls:
        def counted(*args, _fn=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, name, counted)
    system = random_system(13, johnson_schonheim(13), 1)
    witness, nodes, _ = mod.decide_search(system, 200, False)
    assert calls["can_partition"] > 0 and calls["find_partition"] == 0
    searched = calls["can_partition"]
    first = system.blocks[0].points
    perm = list(first) + [p for p in range(13) if p not in first]
    hits = mod.inadmissible_scan(system, perm, False)
    assert hits and calls["find_partition"] == len(hits)
    assert calls["can_partition"] == searched
