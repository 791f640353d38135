"""System validation, partitioning, and admissibility semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstseq import (
    Block,
    CyclicBase,
    Sequence,
    cyclic_system,
    inadmissible_segments,
    is_admissible,
    partition_into_blocks,
    random_system,
    validate_system,
)
from pstseq.core import _is_int_token
from pstseq.errors import (
    PairInTwoBlocks,
    PointOutOfRange,
    RepeatedPointInBlock,
    SequenceNotPermutation,
)
from conftest import oracle_has_partition_subsets

STS13 = cyclic_system(CyclicBase(13, ((0, 1, 4), (0, 2, 7))))


class TestValidateSystem:
    def test_sts13_is_valid(self):
        raw = [b.points for b in STS13.blocks]
        system = validate_system(13, raw)
        assert system.n == 13
        assert len(system.blocks) == 26

    def test_single_block_order3_with_one_based_labels(self):
        system = validate_system(3, [[1, 2, 3]])
        assert len(system.blocks) == 1
        assert sorted(system.labels) == ["1", "2", "3"]

    def test_pair_in_two_blocks(self):
        with pytest.raises(PairInTwoBlocks) as err:
            validate_system(4, [[1, 2, 3], [1, 2, 4]])
        assert "1" in str(err.value) and "2" in str(err.value)

    def test_repeated_point(self):
        with pytest.raises(RepeatedPointInBlock):
            validate_system(5, [[1, 1, 2]])

    def test_too_many_labels(self):
        with pytest.raises(PointOutOfRange):
            validate_system(3, [["a", "b", "c"], ["a", "d", "e"]])

    def test_isolated_points_allowed(self):
        system = validate_system(7, [[0, 1, 2]])
        assert system.n == 7
        assert len(system.blocks) == 1

    def test_label_roundtrip(self):
        system = validate_system(5, [["x", "y", "z"], ["x", "u", "v"]])
        for i, lab in enumerate(system.labels):
            assert system.index_of(lab) == i

    @pytest.mark.parametrize("token", ["--3", "\u00b2", "+1", "-", ""])
    def test_non_integer_token_is_an_opaque_label(self, token):
        # int() refuses each of these, so they are labels, not indices.
        system = validate_system(4, [[token, "a", "b"]])
        assert system.labels[:3] == (token, "a", "b")

    def test_int_token_is_a_signed_decimal(self):
        for tok in ["7", "-7", "-0", "\u0663", "-\u0663\u0661"]:
            assert _is_int_token(tok)
            int(tok)
        for tok in ["--7", "\u00b2", "-", "", "+7", "1_0", "7a", "0x7"]:
            assert not _is_int_token(tok)
        # every decimal digit the helper accepts is one int() reads
        for code in range(0x110000):
            if chr(code).isdecimal():
                int(chr(code))

    def test_pair_index_maps_to_unique_block(self):
        for blk in STS13.blocks:
            a, b, c = blk.points
            assert STS13.block_of_pair(a, b) == blk
            assert STS13.block_of_pair(b, c) == blk


class TestPartitionIntoBlocks:
    def test_two_block_six_set(self):
        system = validate_system(6, [[0, 1, 2], [3, 4, 5]])
        witness = partition_into_blocks(range(6), system)
        assert {b.points for b in witness.parts} == {(0, 1, 2), (3, 4, 5)}

    def test_non_multiple_of_three_has_no_partition(self):
        system = validate_system(6, [[0, 1, 2], [3, 4, 5]])
        assert partition_into_blocks([0, 1, 2, 3], system) is None

    def test_sts13_all_but_11(self):
        witness = partition_into_blocks([p for p in range(13) if p != 11], STS13)
        assert {b.points for b in witness.parts} == {
            (0, 2, 7), (1, 3, 8), (5, 6, 9), (4, 10, 12),
        }

    def test_witness_union_is_exact(self):
        rest = [p for p in range(13) if p != 11]
        witness = partition_into_blocks(rest, STS13)
        assert witness.point_set() == frozenset(rest)

    def test_agrees_with_subset_oracle(self):
        import itertools
        for seed in range(6):
            system = random_system(9, 6, seed)
            if len(system.blocks) > 8:
                continue
            for size in (3, 6, 9):
                for combo in itertools.combinations(range(9), size):
                    got = partition_into_blocks(combo, system) is not None
                    assert got == oracle_has_partition_subsets(system, combo)


class TestInadmissibleSegments:
    def test_single_block_prefix(self):
        system = validate_system(4, [[1, 2, 3]])
        hits = inadmissible_segments([1, 2, 3, 0], system)
        assert len(hits) == 1
        seg, witness = hits[0]
        assert (seg.start, seg.length, seg.proper) == (0, 3, True)
        assert [b.points for b in witness.parts] == [(1, 2, 3)]

    def test_three_block_admissible_order(self):
        system = validate_system(9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        seq = system.sequence_from_labels("1 2 4 3 5 7 6 8 9".split())
        assert inadmissible_segments(seq, system) == []
        assert is_admissible(seq, system)

    def test_sts13_has_both_terminal_12_segments(self):
        hits = inadmissible_segments(range(13), STS13)
        spans = {(s.start, s.length) for s, _ in hits}
        assert (0, 12) in spans and (1, 12) in spans

    def test_full_sequence_is_not_a_proper_segment(self):
        system = validate_system(3, [[0, 1, 2]])
        assert is_admissible([0, 1, 2], system)

    def test_not_permutation_rejected(self):
        system = validate_system(4, [[0, 1, 2]])
        with pytest.raises(SequenceNotPermutation):
            is_admissible([0, 1, 2], system)
        with pytest.raises(SequenceNotPermutation):
            inadmissible_segments([0, 0, 1, 2], system)

    def test_identity_on_sts13_is_inadmissible(self):
        assert not is_admissible(range(13), STS13)


class TestSixSetStructure:
    def test_partitioned_six_sets(self):
        # Any 6-set splitting into two blocks does so uniquely, holds no
        # third block, and breaks under single-point replacement.
        for seed in range(8):
            system = random_system(11, 7, seed)
            pairs = {}
            blocks = system.blocks
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    if blocks[i].mask & blocks[j].mask:
                        continue
                    key = frozenset(blocks[i].points) | frozenset(blocks[j].points)
                    pairs.setdefault(key, []).append((blocks[i], blocks[j]))
            for six_set, partitions in pairs.items():
                assert len(partitions) == 1
                inside = [b for b in blocks if set(b.points) <= six_set]
                assert len(inside) == 2
                for out_pt in set(range(system.n)) - six_set:
                    for in_pt in six_set:
                        replaced = (six_set - {in_pt}) | {out_pt}
                        assert replaced not in pairs


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), order=st.integers(4, 13))
def test_reversal_invariance(seed, order):
    import random as _random

    from pstseq import johnson_schonheim

    system = random_system(order, min(5, johnson_schonheim(order)), seed)
    perm = list(range(order))
    _random.Random(seed).shuffle(perm)
    forward = inadmissible_segments(perm, system)
    backward = inadmissible_segments(list(reversed(perm)), system)
    assert {(order - s.start - s.length, s.length) for s, _ in forward} == {
        (s.start, s.length) for s, _ in backward
    }
    assert is_admissible(perm, system) == is_admissible(list(reversed(perm)), system)


def test_block_normalizes_order():
    assert Block((3, 1, 2)).points == (1, 2, 3)


def test_sequence_reversed_helper():
    assert Sequence((0, 1, 2)).reversed().entries == (2, 1, 0)
