"""Decision search, constructive routes, templates, and the certificate."""

import hashlib

import pytest

from pstseq import (
    Block,
    CyclicBase,
    Outcome,
    construct,
    cyclic_system,
    decide,
    friendship,
    friendship_chain,
    interleave_large,
    is_admissible,
    johnson_schonheim,
    max_disjoint_blocks,
    pi_template_instantiate,
    random_system,
    validate_system,
    verify_sts13_certificate,
)
from pstseq.errors import (
    BudgetExhausted,
    InputError,
    NoAdmissibleLabeling,
    PstseqError,
    RepairFailed,
)
from pstseq import sequencer
from pstseq.sequencer import _interleave_order, _repair_three_segments
from conftest import hub_system, padded

STS13 = cyclic_system(CyclicBase(13, ((0, 1, 4), (0, 2, 7))))
FANO = cyclic_system(CyclicBase(7, ((0, 1, 3),)))


class TestDecide:
    def test_empty_block_set_identity(self):
        system = validate_system(5, [])
        decision = decide(system)
        assert decision.outcome is Outcome.SEQUENCEABLE
        assert decision.witness.entries == (0, 1, 2, 3, 4)

    def test_order_zero(self):
        decision = decide(validate_system(0, []))
        assert decision.outcome is Outcome.SEQUENCEABLE
        assert decision.witness.entries == ()
        assert decision.nodes_explored == 0
        assert decision.exhausted

    def test_two_disjoint_blocks_order6(self):
        system = validate_system(6, [[0, 1, 2], [3, 4, 5]])
        decision = decide(system)
        assert decision.outcome is Outcome.SEQUENCEABLE
        assert is_admissible(decision.witness, system)

    def test_fano_exhaustive(self):
        decision = decide(FANO, budget=10**6, exhaust=True)
        assert decision.outcome is Outcome.SEQUENCEABLE
        assert decision.exhausted
        assert decision.nodes_explored < 10**6
        assert is_admissible(decision.witness, FANO)

    def test_sts13_not_sequenceable_in_13_nodes(self):
        # Every first entry leaves 12 points that split into 4 blocks, so
        # the suffix look-ahead prunes all 13 children of the root.
        decision = decide(STS13, budget=100_000)
        assert decision.outcome is Outcome.NOT_SEQUENCEABLE
        assert decision.exhausted
        assert decision.nodes_explored == 13

    def test_budget_exhaustion_gives_unknown(self):
        # This order-19 system needs 397 nodes to reach its witness.
        system = random_system(19, johnson_schonheim(19), 0)
        decision = decide(system, budget=200)
        assert decision.outcome is Outcome.UNKNOWN
        assert not decision.exhausted
        assert decision.nodes_explored == 200
        decision = decide(system, budget=1000)
        assert decision.outcome is Outcome.SEQUENCEABLE
        assert decision.nodes_explored > 200

    def test_negative_budget_rejected(self):
        with pytest.raises(InputError):
            decide(random_system(9, 6, 3), budget=-1)

    @pytest.mark.parametrize("budget", [2.5, 3.0, True, False, "3"])
    def test_non_integer_budget_rejected(self, budget):
        with pytest.raises(InputError, match="integer"):
            decide(validate_system(6, [[0, 1, 2]]), budget=budget)

    @pytest.mark.parametrize("exhaust", ["yes", 1, None])
    def test_non_bool_exhaust_rejected(self, exhaust):
        with pytest.raises(InputError, match="exhaust must be a bool"):
            decide(validate_system(6, [[0, 1, 2]]), exhaust=exhaust)

    def test_three_disjoint_blocks_order9(self):
        system = validate_system(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        decision = decide(system)
        assert decision.outcome is Outcome.SEQUENCEABLE


class TestConstructSmall:
    def test_no_blocks_identity(self):
        system = validate_system(4, [])
        assert construct(system).entries == (0, 1, 2, 3)

    def test_search_route_honours_budget(self):
        # Packing number too large for any recipe: construct must search,
        # and within the budget it is given.
        system = random_system(19, 57, 1)
        with pytest.raises(BudgetExhausted, match=r"\(10 nodes\)"):
            construct(system, budget=10)
        with pytest.raises(InputError):
            construct(system, budget=-1)
        for budget in (10.5, True, "10"):
            with pytest.raises(InputError, match="integer"):
                construct(system, budget=budget)

    def test_single_block_order4_pattern(self):
        system = validate_system(4, [[0, 1, 2]])
        assert construct(system).entries == (0, 1, 3, 2)

    def test_single_block_order3(self):
        system = validate_system(3, [[0, 1, 2]])
        assert construct(system).entries == (0, 1, 2)

    def test_intersecting_blocks_with_extras(self):
        system = validate_system(7, [[0, 1, 2], [0, 3, 4]])
        seq = construct(system)
        assert is_admissible(seq, system)

    def test_friendship_family(self):
        for m in (1, 2, 3, 6):
            system = friendship(m)
            assert is_admissible(construct(system), system)

    def test_two_blocks_order6_exact_recipe(self):
        system = validate_system(6, [[0, 1, 2], [3, 4, 5]])
        assert construct(system).entries == (0, 1, 3, 4, 2, 5)

    def test_two_blocks_orders_7_and_8(self):
        for n, extra_blocks in (
            (7, [[0, 3, 6], [1, 4, 6]]),
            (8, [[0, 6, 7], [2, 5, 6]]),
        ):
            system = validate_system(n, [[0, 1, 2], [3, 4, 5]] + extra_blocks)
            assert max_disjoint_blocks(system).nu == 2
            assert is_admissible(construct(system), system)

    def test_three_blocks_order9_exact_recipe(self):
        system = validate_system(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        assert construct(system).entries == (0, 1, 3, 2, 4, 6, 5, 7, 8)

    def test_order9_with_forced_relabel(self):
        # make the {3,5,7}-labelled window a block so the swap fires
        system = validate_system(
            9, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [2, 4, 6]]
        )
        assert max_disjoint_blocks(system).nu == 3
        seq = construct(system)
        assert is_admissible(seq, system)
        assert seq.entries == (0, 2, 3, 1, 4, 6, 5, 7, 8)


class TestConstructCorpus:
    def test_orders_9_to_20(self, corpus_nu_le3):
        for system in corpus_nu_le3[::5]:
            seq = construct(system)
            assert is_admissible(seq, system)

    def test_agrees_with_decide_on_orders_9_to_12(self, corpus_nu_le3):
        small = [s for s in corpus_nu_le3 if s.n <= 12]
        assert small
        for system in small[::7]:
            decision = decide(system)
            assert decision.outcome is Outcome.SEQUENCEABLE
            assert is_admissible(decision.witness, system)
            assert is_admissible(construct(system), system)

    def test_orders_10_and_11_fit_their_patterns(self):
        # Every nu = 3 system of orders 10 and 11 gets the layout of the
        # paper's relabeling rule for its order: at order 10 the blocks
        # at positions {0, 6, 9}, {1, 2, 4} and {3, 5, 7} in some role
        # order and the extra point at 8; at order 11 the blocks at
        # {1, 2, 4}, {3, 5, 7} and {6, 8, 10}, the extra points at 0 and 9.
        layouts = {
            10: (((0, 6, 9), (1, 2, 4), (3, 5, 7)), (8,)),
            11: (((1, 2, 4), (3, 5, 7), (6, 8, 10)), (0, 9)),
        }
        checked = {10: 0, 11: 0}
        for n, (block_positions, extra_positions) in layouts.items():
            for target in range(1, johnson_schonheim(n) + 1):
                for seed in range(300):
                    system = random_system(n, target, seed)
                    result = max_disjoint_blocks(system)
                    if result.nu != 3:
                        continue
                    e = construct(system).entries
                    assert is_admissible(e, system)
                    placed = {frozenset(e[i] for i in pos) for pos in block_positions}
                    assert placed == {frozenset(blk.points) for blk in result.witness}
                    covered = {p for blk in result.witness for p in blk}
                    assert {e[i] for i in extra_positions} == set(range(n)) - covered
                    checked[n] += 1
        assert checked == {10: 1767, 11: 3403}

    def test_order9_is_the_paper_labeling(self):
        # The paper's order-9 recipe, computed here: the sorted witness
        # blocks labelled 1-9, with 2 and 3 swapped when {3, 5, 7} is a
        # block, laid out as 1 2 4 3 5 7 6 8 9.
        checked = 0
        for target in range(3, 13):
            for seed in range(50):
                system = random_system(9, target, seed)
                result = max_disjoint_blocks(system)
                if result.nu != 3:
                    continue
                label = [None] + [p for blk in sorted(b.points for b in result.witness)
                                  for p in blk]
                if system.is_block((label[3], label[5], label[7])):
                    label[2], label[3] = label[3], label[2]
                expected = tuple(label[i] for i in (1, 2, 4, 3, 5, 7, 6, 8, 9))
                assert construct(system).entries == expected
                checked += 1
        assert checked == 65


class TestPiTemplate:
    def test_bare_three_blocks_first_labeling(self):
        system = validate_system(12, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        labeling = pi_template_instantiate(system, system.blocks)
        assert labeling.sequence.entries == (0, 1, 3, 2, 4, 6, 5, 7, 9, 8, 10, 11)
        assert is_admissible(labeling.sequence, system)

    def test_dense_configuration(self):
        blocks = [
            [0, 1, 2], [3, 4, 5], [6, 7, 8],
            [3, 6, 10], [4, 8, 10], [0, 4, 7], [0, 5, 6], [1, 5, 8], [2, 3, 7],
        ]
        system = validate_system(12, blocks)
        assert max_disjoint_blocks(system).nu == 3
        labeling = pi_template_instantiate(
            system, (Block((0, 1, 2)), Block((3, 4, 5)), Block((6, 7, 8)))
        )
        assert is_admissible(labeling.sequence, system)

    def test_wrong_order_rejected(self):
        system = validate_system(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        with pytest.raises(ValueError):
            pi_template_instantiate(system, system.blocks)

    @pytest.mark.parametrize("blocks,message", [
        ([(0, 1, 2), (3, 4, 5)], "need exactly three disjoint blocks"),
        ([(0, 1, 2), (3, 4, 5), (9, 10, 11)], "is not a block of the system"),
        ([(0, 1, 2), (3, 4, 5), (0, 3, 6)], "not pairwise disjoint"),
    ])
    def test_bad_blocks_rejected(self, blocks, message):
        system = validate_system(12, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6]])
        with pytest.raises(ValueError, match=message):
            pi_template_instantiate(system, [Block(b) for b in blocks])

    def test_four_disjoint_blocks_path(self):
        # With a fourth disjoint block the guarantee lapses: failing with
        # NoAdmissibleLabeling is permitted, succeeding demands a verified
        # sequence.  Either way nothing silent.
        for blocks in (
            [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]],
            [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [0, 3, 6], [1, 4, 7]],
        ):
            system = validate_system(12, blocks)
            result = max_disjoint_blocks(system)
            assert result.nu == 4
            try:
                labeling = pi_template_instantiate(system, result.witness[:3])
            except NoAdmissibleLabeling:
                continue
            assert is_admissible(labeling.sequence, system)

    def test_corpus_instances(self, corpus_order12_nu3):
        for system in corpus_order12_nu3[::10]:
            witness = max_disjoint_blocks(system).witness
            labeling = pi_template_instantiate(system, witness)
            assert is_admissible(labeling.sequence, system)


class TestInterleave:
    def test_friendship8_at_its_own_order(self):
        system = friendship(8)
        seq = interleave_large(system, 1)
        assert is_admissible(seq, system)

    def test_chain_padded_to_order_55(self):
        system = padded(friendship_chain([2, 2, 2, 2]), 55)
        seq = interleave_large(system, 4)
        assert len(seq) == 55
        assert is_admissible(seq, system)

    def test_order_below_threshold_rejected(self):
        system = padded(friendship_chain([2, 2, 2, 2]), 30)
        with pytest.raises(ValueError):
            interleave_large(system, 4)

    def test_wrong_packing_number_rejected(self):
        system = friendship(8)
        with pytest.raises(ValueError):
            interleave_large(system, 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_packing_number_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="packing number >= 1"):
            interleave_large(validate_system(5, []), k)

    def test_repair_gives_up_on_a_longer_segment(self):
        # No block 3-segment to repair, but the first six entries split
        # into two blocks: the attempt fails instead of returning them.
        system = validate_system(9, [(0, 1, 2), (3, 4, 5)])
        entries = [0, 3, 1, 4, 2, 5, 6, 7, 8]
        assert _repair_three_segments(system, entries, {0, 3}) is None

    def test_construct_dispatches_to_interleave(self):
        system = padded(friendship_chain([2, 2, 2, 2]), 55)
        assert is_admissible(construct(system), system)

    # Below order 18k - 5 a gap between two packing blocks can hold fewer
    # than five outside points, and a 6-segment across it can split.  In
    # both systems below the unshuffled attempt places 2 x x x x 3 across
    # the gap between blocks (0, 1, 2) and (3, 4, 5), with (2, x, x) and
    # (3, x, x) blocks of the system: the repair fixes only 3-segments,
    # so attempt 0 fails and the first reseed succeeds.
    RESEED_CASES = [
        (
            validate_system(55, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11),
                                 (2, 20, 21), (3, 22, 23)]),
            4,
            [2, 20, 21, 22, 23, 3],
            (0, 37, 14, 23, 13, 1, 52, 39, 17, 21, 2, 29, 44, 41, 32, 3, 51, 33, 27,
             35, 4, 22, 15, 30, 50, 5, 54, 26, 34, 47, 6, 46, 31, 45, 24, 7, 38, 53,
             12, 49, 8, 18, 25, 36, 42, 9, 40, 43, 19, 28, 10, 16, 48, 20, 11),
        ),
        (
            validate_system(25, [(0, 1, 2), (3, 4, 5), (2, 14, 15), (3, 16, 17)]),
            2,
            [2, 14, 15, 16, 17, 3],
            (0, 17, 11, 23, 24, 1, 15, 6, 22, 7, 2, 21, 12, 16, 19, 3, 20, 18, 13, 9,
             4, 14, 8, 10, 5),
        ),
    ]

    @pytest.mark.parametrize("system, k, segment, expected", RESEED_CASES)
    def test_first_reseed_is_pinned(self, system, k, segment, expected):
        assert interleave_large(system, k).entries == expected
        if k >= 4:  # construct's interleaving route
            assert construct(system).entries == expected
        assert is_admissible(expected, system)

    @pytest.mark.parametrize("system, k, segment, expected", RESEED_CASES)
    def test_unshuffled_attempt_splits_a_six_segment(self, system, k, segment, expected,
                                                     monkeypatch):
        packing = max_disjoint_blocks(system)
        u_points = [p for blk in packing.witness for p in blk.points]
        outside = sorted(set(range(system.n)) - set(u_points))
        entries = _interleave_order(u_points, outside, 3 * k - 1)
        assert entries[10:16] == segment
        assert _repair_three_segments(system, entries, set(u_points)) is None
        monkeypatch.setattr(sequencer, "REPAIR_ATTEMPTS", 1)
        with pytest.raises(RepairFailed, match="in 1 seeded attempts"):
            interleave_large(system, k)


class TestSts13Certificate:
    def test_thirteen_entries(self):
        cert = verify_sts13_certificate()
        assert len(cert.entries) == 13
        for entry in cert.entries:
            covered = set()
            for blk in entry.blocks:
                assert not covered & set(blk.points)
                covered.update(blk.points)
            assert covered == set(range(13)) - {entry.vertex}

    def test_vertex_11_is_the_base_family(self):
        cert = verify_sts13_certificate()
        entry = cert.entries[11]
        assert entry.exponent == 0
        assert {b.points for b in entry.blocks} == {
            (0, 2, 7), (1, 3, 8), (5, 6, 9), (4, 10, 12),
        }

    def test_vertex_12_is_one_rotation(self):
        cert = verify_sts13_certificate()
        assert cert.entries[12].exponent == 1

    def test_every_family_is_vertex_11s_turned_by_its_exponent(self):
        # The families come from the partition search; this keeps the
        # ``exponent`` field and the CLI's "rotation N" line true.
        cert = verify_sts13_certificate()
        base = [b.points for b in cert.entries[11].blocks]
        for entry in cert.entries:
            turned = {tuple(sorted((x + entry.exponent) % 13 for x in q)) for q in base}
            assert {b.points for b in entry.blocks} == turned

    def test_monte_carlo_consistency(self):
        import random as _random

        rng = _random.Random(13)
        for _ in range(1500):
            perm = list(range(13))
            rng.shuffle(perm)
            assert not is_admissible(perm, STS13)


def _split_digests(cases):
    # Two golden digests over (system, route) cases: one over the nu = 3
    # systems of orders 10 and 11, whose outputs are the first admissible
    # labeling of their positional pattern, and one over every other
    # case.  Any change to a returned sequence or to the error raised
    # changes one of them.  Returns (other, order 10-11) as (count, hex).
    digests = {False: hashlib.sha256(), True: hashlib.sha256()}
    counts = {False: 0, True: 0}
    for system, route in cases:
        part = system.n in (10, 11) and max_disjoint_blocks(system).nu == 3
        try:
            got = route(system).entries
        except PstseqError as exc:
            got = type(exc).__name__
        digests[part].update(f"{system.n} {system.block_masks} {got}\n".encode())
        counts[part] += 1
    return tuple((counts[part], digests[part].hexdigest()) for part in (False, True))


def test_construct_outputs_are_pinned():
    # Construct over every route: random systems of orders 0-24 (nu <= 1,
    # nu = 2, three blocks at orders 9-24, search), hub systems with
    # nu = 3 at orders 13-40 and nu = 4 at orders 55-60 (interleave).
    systems = []
    for n in range(25):
        bound = johnson_schonheim(n)
        for target in sorted({bound, bound // 2, bound // 4}):
            systems += [random_system(n, target, seed) for seed in range(3)]
    systems += [hub_system(n, 3, n) for n in range(13, 41)]
    systems += [hub_system(n, 4, n) for n in range(55, 61)]
    other, orders_10_11 = _split_digests(
        [(system, lambda s: construct(s, budget=500)) for system in systems]
    )
    assert other == (
        225, "8fca00f1f304dcba195cbc16b636d497d7b96f7761fc0fec4a090c8194ffad77"
    )
    assert orders_10_11 == (
        10, "6458904115f9f515e2dedde7a744857b0dd504eb3ef45492314f97b6065e6750"
    )


def test_checked_routes_are_pinned():
    # The routes that check each candidate once: the nu <= 1 recipes
    # (random systems of orders 3-30 with up to four blocks, and the
    # friendship systems), the order-11 pattern search on every nu = 3
    # system at every target, and the interleaving construction on hub
    # systems with nu = 1-6 at orders 15nu-5 to 15nu+5.
    cases = []
    for n in range(3, 31):
        for target in range(1, min(4, johnson_schonheim(n)) + 1):
            for seed in range(10):
                system = random_system(n, target, seed)
                if max_disjoint_blocks(system).nu <= 1:
                    cases.append((system, construct))
    cases += [(friendship(m), construct) for m in range(1, 12)]
    for target in range(1, johnson_schonheim(11) + 1):
        for seed in range(60):
            system = random_system(11, target, seed)
            if max_disjoint_blocks(system).nu == 3:
                cases.append((system, construct))
    for k in range(1, 7):
        for n in range(15 * k - 5, 15 * k + 6):
            for seed in range(2):
                cases.append(
                    (hub_system(n, k, seed), lambda s, k=k: interleave_large(s, k))
                )
    other, orders_10_11 = _split_digests(cases)
    assert other == (
        625, "b0fc82c54e82311871750bef83503c216f17882f5f815264b8eaf6bd178582a1"
    )
    assert orders_10_11 == (
        657, "238e2eeb36e7383c4b7fbbd46d8f994df3394a910e0f8dff541d2c0a3c21167a"
    )
