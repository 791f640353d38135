"""Maximum packings, bad sets, and induced-matching structure."""

import copy
import functools
import itertools
import operator

import pytest

from pstseq import (
    Block,
    CyclicBase,
    PartitionWitness,
    bad_sets,
    cyclic_system,
    friendship,
    induced_matching,
    is_good_set,
    johnson_schonheim,
    max_disjoint_blocks,
    random_system,
    validate_system,
)
from pstseq.errors import (
    InputError,
    OrderTooSmall,
    PartContainsWholeBlock,
    PointOutOfRange,
    WrongCardinality,
)
from pstseq import _pykernels, cli, formats
from conftest import hub_system, oracle_max_packing, oracle_partitions

STS13 = cyclic_system(CyclicBase(13, ((0, 1, 4), (0, 2, 7))))


def _reference_packing(n, masks, budget, bound):
    """Reference branch-and-bound with its counters held in a dict:
    first compatible block j, include then exclude, cut when the
    chosen blocks plus ``bound(j, used)`` cannot beat the best."""
    state = {"best": 0, "witness": (), "nodes": 0, "complete": True}
    chosen = []

    def rec(i, used):
        if not state["complete"]:
            return
        if budget is not None and state["nodes"] >= budget:
            state["complete"] = False
            return
        state["nodes"] += 1
        j = i
        while j < len(masks) and masks[j] & used:
            j += 1
        if j == len(masks):
            if len(chosen) > state["best"]:
                state["best"] = len(chosen)
                state["witness"] = tuple(chosen)
            return
        if len(chosen) + bound(j, used) <= state["best"]:
            return
        chosen.append(j)
        rec(j + 1, used | masks[j])
        chosen.pop()
        rec(j + 1, used)

    rec(0, 0)
    return state["best"], state["witness"], state["nodes"], state["complete"]


def _reach_bound(n, masks):
    """Unused points that blocks j, j+1, ... still cover, / 3."""
    reach = [functools.reduce(operator.or_, masks[j:], 0) for j in range(len(masks))]
    return lambda j, used: bin(reach[j] & ~used).count("1") // 3


def _hit_bound(n, masks):
    """Unused points of a greedy hitting set of blocks j, j+1, ...

    Built from the last block back: a block with no point in the set
    adds its point lying in the most blocks, the least such point on a
    tie.  Disjoint blocks meet the set in distinct points."""
    blocks = [[p for p in range(n) if m >> p & 1] for m in masks]
    degree = [sum(p in blk for blk in blocks) for p in range(n)]
    hits = [set() for _ in range(len(blocks) + 1)]
    for j in range(len(blocks) - 1, -1, -1):
        hits[j] = set(hits[j + 1])
        if not hits[j].intersection(blocks[j]):
            hits[j].add(min(blocks[j], key=lambda p: (-degree[p], p)))
    return lambda j, used: sum(not used >> p & 1 for p in hits[j])


def _reach_and_hit_bound(n, masks):
    reach, hit = _reach_bound(n, masks), _hit_bound(n, masks)
    return lambda j, used: min(reach(j, used), hit(j, used))


def _points_bound(n, masks):
    """All unused points / 3."""
    return lambda j, used: (n - bin(used).count("1")) // 3


def _packing_systems():
    # Built afresh on each call, STS13 as a copy, so that no system
    # carries a compiled index into a test under ``python_path``.
    systems = [copy.copy(STS13), friendship(4)]
    for n in range(22):
        bound = johnson_schonheim(n)
        for target in {bound, bound // 2}:
            systems += [random_system(n, target, seed) for seed in range(8)]
    return systems


def _hub_systems():
    """Packing number k forced by k hub points; the reach bound alone
    explores thousands of nodes on these."""
    return [hub_system(n, k, n) for k in (2, 3, 4) for n in range(13, 41)]


class TestMaxDisjointBlocks:
    def test_two_disjoint(self):
        system = validate_system(6, [[0, 1, 2], [3, 4, 5]])
        result = max_disjoint_blocks(system)
        assert result.nu == 2
        assert set(result.witness) == set(system.blocks)

    def test_friendship_is_one(self):
        assert max_disjoint_blocks(friendship(4)).nu == 1

    def test_sts13_is_four(self):
        result = max_disjoint_blocks(STS13)
        assert result.nu == 4
        assert result.exact
        seen = set()
        for blk in result.witness:
            assert not seen & set(blk.points)
            seen.update(blk.points)

    def test_agrees_with_subset_oracle(self):
        for seed in range(12):
            n = 9 + seed % 4
            system = random_system(n, 6 + seed % 4, seed)
            if len(system.blocks) > 12:
                continue
            assert max_disjoint_blocks(system).nu == oracle_max_packing(system)

    def test_matches_reference_branch_and_bound(self):
        budgeted = 0
        for system in _packing_systems() + _hub_systems():
            masks = [b.mask for b in system.blocks]
            for budget in (None, 1, 10, 100):
                result = max_disjoint_blocks(system, budget=budget)
                nu, ids, nodes, complete = _reference_packing(
                    system.n, masks, budget, _reach_and_hit_bound(system.n, masks)
                )
                assert result.nu == nu
                assert result.witness == tuple(system.blocks[i] for i in ids)
                assert result.nodes_explored == nodes
                assert result.exact == complete
                budgeted += not complete
        assert budgeted > 50

    def test_reach_bound_only_cuts_nodes(self):
        # Against the plain remaining-points / 3 bound: the same exact
        # answer and witness in no more nodes, and under a budget a
        # packing at least as large.
        saved = raised = 0
        for system in _packing_systems():
            masks = [b.mask for b in system.blocks]
            points = _points_bound(system.n, masks)
            result = max_disjoint_blocks(system)
            nu, ids, nodes, complete = _reference_packing(system.n, masks, None, points)
            assert (result.nu, result.exact) == (nu, complete) == (nu, True)
            assert result.witness == tuple(system.blocks[i] for i in ids)
            assert result.nodes_explored <= nodes
            saved += nodes - result.nodes_explored
            for budget in (1, 10, 100):
                got = max_disjoint_blocks(system, budget=budget).nu
                old = _reference_packing(system.n, masks, budget, points)[0]
                assert got >= old
                raised += got > old
        assert saved > 0 and raised > 0

    def test_hit_bound_only_cuts_nodes(self):
        # Against the reach bound alone: the same exact answer and
        # witness in no more nodes, and under a budget a packing at
        # least as large.
        saved = raised = 0
        for system in _packing_systems() + _hub_systems():
            masks = [b.mask for b in system.blocks]
            reach = _reach_bound(system.n, masks)
            result = max_disjoint_blocks(system)
            nu, ids, nodes, complete = _reference_packing(system.n, masks, None, reach)
            assert (result.nu, result.exact) == (nu, complete) == (nu, True)
            assert result.witness == tuple(system.blocks[i] for i in ids)
            assert result.nodes_explored <= nodes
            saved += nodes - result.nodes_explored
            for budget in (1, 10, 100):
                got = max_disjoint_blocks(system, budget=budget).nu
                old = _reference_packing(system.n, masks, budget, reach)[0]
                assert got >= old
                raised += got > old
        assert saved > 0 and raised > 0

    @pytest.mark.usefixtures("python_path")
    def test_matches_reference_branch_and_bound_python(self):
        self.test_matches_reference_branch_and_bound()

    @pytest.mark.usefixtures("python_path")
    def test_reach_bound_only_cuts_nodes_python(self):
        self.test_reach_bound_only_cuts_nodes()

    @pytest.mark.usefixtures("python_path")
    def test_hit_bound_only_cuts_nodes_python(self):
        self.test_hit_bound_only_cuts_nodes()

    def test_thousand_disjoint_blocks(self, tmp_path, capsys):
        # A search a thousand branches deep: one node per block taken,
        # one at the leaf, and one per exclude branch, each cut at once.
        system = validate_system(3000, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(1000)])
        result = max_disjoint_blocks(system)
        assert (result.nu, result.witness, result.exact) == (1000, system.blocks, True)
        assert result.nodes_explored == 2001
        path = tmp_path / "big.psts"
        path.write_text(formats.system_to_psts(system))
        assert cli.main(["pack", str(path)]) == 0
        assert capsys.readouterr().out.startswith("nu = 1000\n")

    def test_nu_bounded_by_order_third(self):
        for seed in range(10):
            system = random_system(11, 8, seed)
            assert max_disjoint_blocks(system).nu <= system.n // 3

    def test_budget_gives_lower_bound(self):
        result = max_disjoint_blocks(STS13, budget=3)
        assert not result.exact
        assert result.nu <= 4

    def test_negative_budget_rejected(self):
        with pytest.raises(InputError):
            max_disjoint_blocks(random_system(9, 6, 3), budget=-1)

    @pytest.mark.parametrize("budget", [2.5, True, "3"])
    def test_non_integer_budget_rejected(self, budget):
        with pytest.raises(InputError, match="integer"):
            max_disjoint_blocks(random_system(9, 6, 3), budget=budget)


def _native_pack_cases():
    for n in [*range(3, 40), 45, 57, 64]:
        bound = johnson_schonheim(n)
        for target in sorted({bound // 2, bound}):
            yield random_system(n, target, n)
        if n >= 13:
            yield hub_system(n, 4, n)


def test_native_pack_matches_python(native, python_path):
    # Python path: ``python_path`` makes ``max_packing`` search in Python.
    cut = 0
    for system in _native_pack_cases():
        budgets = (0, 1, 10, 100, 1000) + ((None,) if system.n <= 30 else ())
        handle = native.prepare(system.n, system.block_masks)
        for budget in budgets:
            got = native.pack(handle, budget)
            assert got == _pykernels.max_packing(system, budget)
            assert type(got[3]) is bool
            cut += not got[3]
    assert cut > 100


def test_native_pack_checks_its_arguments(native):
    # The masks are checked once, by ``prepare``; ``pack`` takes its index.
    masks = random_system(13, johnson_schonheim(13), 1).block_masks
    handle = native.prepare(13, masks)
    unbounded = native.pack(handle, None)
    assert unbounded[3]
    assert native.pack(handle, 1 << 63) == native.pack(handle, 1 << 70) == unbounded
    assert native.pack(native.prepare(0, ()), None) == (0, (), 1, True)
    with pytest.raises(TypeError):
        native.pack(handle)
    with pytest.raises(ValueError):
        native.pack(masks, None)
    with pytest.raises(TypeError):
        native.pack(handle, "10")
    with pytest.raises(TypeError):
        native.pack(handle, 2.5)
    with pytest.raises(ValueError):
        native.pack(handle, -1)
    with pytest.raises(ValueError):
        native.pack(handle, -(1 << 70))


class TestBadSets:
    def test_order9_with_full_partition(self):
        system = validate_system(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        report = bad_sets(system)
        assert report.m_size == 0
        assert report.bad_sets == ((),)

    def test_unique_bad_triple_at_order_12(self):
        system = validate_system(12, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        report = bad_sets(system)
        assert report.bad_sets == ((9, 10, 11),)
        parts = {b.points for b in report.realizations[0].parts}
        assert parts == {(0, 1, 2), (3, 4, 5), (6, 7, 8)}
        # brute force over all 220 3-subsets agrees
        for m in itertools.combinations(range(12), 3):
            good, _ = is_good_set(system, m)
            assert good == (m != (9, 10, 11))

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            bad_sets(validate_system(8, [[0, 1, 2]]))

    def test_psts10_has_at_most_four_bad_points(self, corpus_psts10):
        for system in corpus_psts10[:50]:
            report = bad_sets(system)
            assert len(report.bad_sets) <= 4

    def test_realizations_partition_complements(self):
        for seed in range(8):
            system = random_system(11, 8, seed)
            report = bad_sets(system)
            for pts, witness in zip(report.bad_sets, report.realizations):
                assert witness.point_set() == frozenset(range(11)) - set(pts)


class TestIsGoodSet:
    def test_bad_set_returns_realization(self):
        system = validate_system(12, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        good, witness = is_good_set(system, [9, 10, 11])
        assert not good
        assert {b.points for b in witness.parts} == {(0, 1, 2), (3, 4, 5), (6, 7, 8)}

    def test_breaking_a_block_makes_it_good(self):
        system = validate_system(12, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        good, witness = is_good_set(system, [0, 10, 11])
        assert good and witness is None

    def test_wrong_cardinality(self):
        system = validate_system(12, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        with pytest.raises(WrongCardinality):
            is_good_set(system, [9, 10])

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall, match="good sets need order >= 9, got 8"):
            is_good_set(validate_system(8, [[0, 1, 2]]), [])

    @pytest.mark.parametrize("point", [True, 9.0])
    def test_non_integer_point_rejected(self, point):
        system = validate_system(11, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        with pytest.raises(PointOutOfRange, match=f"point index {point!r} outside"):
            is_good_set(system, [point, 10])

    def test_repeated_point_rejected(self):
        system = validate_system(11, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        with pytest.raises(InputError, match="point 10 appears twice in M"):
            is_good_set(system, [9, 10, 10])
        with pytest.raises(InputError, match="point 9 appears twice in M"):
            is_good_set(system, [9, 9])

    def test_agrees_with_bad_sets_enumeration(self, corpus_psts10):
        for system in corpus_psts10[:25]:
            listed = set(bad_sets(system).bad_sets)
            for p in range(system.n):
                good, _ = is_good_set(system, [p])
                assert good == ((p,) not in listed)


class TestInducedMatching:
    def test_threaded_partition(self):
        # parts [1,5,8], [2,6,9], [4,7,b] against blocks {4,5,6} and {7,8,9}
        # with 0-based points and b=9 mapped to point 9
        witness = PartitionWitness(
            (Block((0, 4, 7)), Block((1, 5, 8)), Block((3, 6, 9)))
        )
        a1, a2 = Block((3, 4, 5)), Block((6, 7, 8))
        matching = induced_matching(witness, a1, a2)
        assert matching.edges == ((4, 7), (5, 8), (3, 6))
        assert matching.labels == (0, 1, 9)

    @pytest.mark.parametrize("parts,a1,a2,error,message", [
        ([(0, 4, 7), (1, 5, 8)], (3, 4, 5), (6, 7, 8),
         WrongCardinality, "expected a 3-part partition"),
        ([(0, 4, 7), (1, 5, 8), (3, 6, 9)], (3, 4, 5), (5, 6, 7),
         ValueError, "reference blocks are not disjoint"),
        ([(0, 4, 7), (1, 5, 8), (3, 6, 9)], (3, 4, 5), (2, 6, 7),
         ValueError, "must lie inside the partitioned set"),
        ([(0, 3, 4), (1, 5, 6), (2, 7, 8)], (3, 4, 5), (6, 7, 8),
         ValueError, "does not meet both blocks in single points"),
    ])
    def test_bad_arguments_rejected(self, parts, a1, a2, error, message):
        witness = PartitionWitness(tuple(Block(p) for p in parts))
        with pytest.raises(error, match=message):
            induced_matching(witness, Block(a1), Block(a2))

    def test_part_equal_to_reference_block(self):
        witness = PartitionWitness(
            (Block((0, 1, 2)), Block((3, 4, 5)), Block((6, 7, 8)))
        )
        with pytest.raises(PartContainsWholeBlock):
            induced_matching(witness, Block((0, 1, 2)), Block((3, 4, 5)))

    def test_matching_edges_are_disjoint(self, rigid_cross_instance):
        system = rigid_cross_instance
        a1, a2 = Block((0, 1, 2)), Block((3, 4, 5))
        base = set(range(6))
        matchings = []
        for d in (8, 9, 10):
            parts = oracle_partitions(system, base | {6, 7, d})
            assert len(parts) == 1
            matchings.append(induced_matching(PartitionWitness(tuple(sorted(parts[0]))), a1, a2))
        for m1, m2 in itertools.combinations(matchings, 2):
            assert not m1.edge_set() & m2.edge_set()


class TestDisjointPairNineSets:
    """Constraints on 9-sets built from two disjoint blocks plus loose points."""

    @staticmethod
    def _qualifying_quads(system, a1, a2):
        outside = [
            p for p in range(system.n) if p not in a1.points and p not in a2.points
        ]
        for quad in itertools.combinations(outside, 4):
            for x in quad:
                rest = [p for p in quad if p != x]
                if any(
                    system.is_block((x, rest[i], rest[j]))
                    for i in range(3)
                    for j in range(i + 1, 3)
                ):
                    continue
                yield x, rest

    def _disjoint_pairs(self, system):
        for b1, b2 in itertools.combinations(system.blocks, 2):
            if not b1.mask & b2.mask:
                yield b1, b2

    def test_at_most_two_of_three_nine_sets_partition(self, two_partitions_instance):
        systems = [two_partitions_instance] + [random_system(11, 8, s) for s in range(10)]
        exercised = 0
        for system in systems:
            for a1, a2 in self._disjoint_pairs(system):
                base = set(a1.points) | set(a2.points)
                for x, rest in self._qualifying_quads(system, a1, a2):
                    partitioned = []
                    for pair in itertools.combinations(rest, 2):
                        nine = base | {x} | set(pair)
                        parts = oracle_partitions(system, nine)
                        if parts:
                            partitioned.append(parts)
                    assert len(partitioned) <= 2
                    if len(partitioned) == 2:
                        exercised += 1
                        for pa in partitioned[0]:
                            for pb in partitioned[1]:
                                ma = induced_matching(
                                    PartitionWitness(tuple(sorted(pa))), a1, a2
                                )
                                mb = induced_matching(
                                    PartitionWitness(tuple(sorted(pb))), a1, a2
                                )
                                assert not ma.edge_set() & mb.edge_set()
        assert exercised >= 1

    def test_triple_partition_structure_is_rigid(self, rigid_cross_instance):
        # When all three 9-sets through a fixed x, y partition, each does so
        # uniquely, the x-edges and the y-edges each form perfect matchings,
        # and their union is a single 6-cycle.
        system = rigid_cross_instance
        a1, a2 = Block((0, 1, 2)), Block((3, 4, 5))
        base = set(range(6))
        x, y = 6, 7
        assert not any(
            x in blk and y in blk for blk in system.blocks
        )
        matchings = {}
        for d in (8, 9, 10):
            parts = oracle_partitions(system, base | {x, y, d})
            assert len(parts) == 1
            matching = induced_matching(PartitionWitness(tuple(sorted(parts[0]))), a1, a2)
            matchings[d] = matching
        for m1, m2 in itertools.combinations(matchings.values(), 2):
            assert not m1.edge_set() & m2.edge_set()
        x_edges = set()
        y_edges = set()
        for matching in matchings.values():
            for edge, label in zip(matching.edges, matching.labels):
                if label == x:
                    x_edges.add(edge)
                elif label == y:
                    y_edges.add(edge)
        assert len(x_edges) == 3 and len({u for u, _ in x_edges}) == 3
        assert len(y_edges) == 3 and len({v for _, v in y_edges}) == 3
        # union of the two matchings is 2-regular and connected: a 6-cycle
        adjacency = {}
        for u, v in x_edges | y_edges:
            adjacency.setdefault(u, set()).add(v + 100)
            adjacency.setdefault(v + 100, set()).add(u)
        assert all(len(nbrs) == 2 for nbrs in adjacency.values())
        start = next(iter(adjacency))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert len(seen) == 6

    def test_replacing_a_third_block_point(self, replacement_instance):
        # Replace one point of the third part: any partition of the new set
        # avoids the first two parts entirely.
        systems = [replacement_instance] + [random_system(12, 8, s) for s in range(10)]
        exercised = 0
        for system in systems:
            triples = [
                (b1, b2, b3)
                for b1, b2, b3 in itertools.combinations(system.blocks, 3)
                if not (b1.mask & b2.mask or b1.mask & b3.mask or b2.mask & b3.mask)
            ]
            for b1, b2, b3 in triples:
                nine = set(b1.points) | set(b2.points) | set(b3.points)
                for old in b3.points:
                    for new in set(range(system.n)) - nine:
                        replaced = (nine - {old}) | {new}
                        for parts in oracle_partitions(system, replaced):
                            exercised += 1
                            assert b1 not in parts
                            assert b2 not in parts
        assert exercised >= 1
