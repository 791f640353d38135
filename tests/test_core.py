"""System validation, partitioning, and admissibility semantics."""

import copy
import enum
import functools
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstseq import (
    Block,
    CyclicBase,
    Sequence,
    TripleSystem,
    construct,
    cyclic_system,
    decide,
    formats,
    inadmissible_segments,
    is_admissible,
    johnson_schonheim,
    max_disjoint_blocks,
    partition_into_blocks,
    random_system,
    validate_system,
)
from pstseq import _pykernels
from pstseq.core import _index_labels, _is_int_token
from pstseq.errors import (
    InputError,
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

    def test_index_labels_are_kept_across_a_sweep_of_orders(self):
        # A second sweep over orders 3-64 finds every label tuple cached.
        def sweep():
            return [validate_system(n, []).labels for n in range(3, 65)]

        first = sweep()
        misses = _index_labels.cache_info().misses
        second = sweep()
        assert _index_labels.cache_info().misses == misses
        assert all(a is b for a, b in zip(first, second))

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
            assert STS13.block_of_pair(c, a) == blk
        assert not STS13.is_block((0, 1))


def _reference_labels(n, rows):
    """(labels, index rows) by the documented rule, from plain tokens."""
    def is_index(tok):
        if isinstance(tok, bool):
            return False
        if isinstance(tok, str):
            return _is_int_token(tok) and 0 <= int(tok) < n
        return isinstance(tok, int) and 0 <= tok < n

    if all(is_index(tok) for row in rows for tok in row):
        return tuple(map(str, range(n))), [[int(tok) for tok in row] for row in rows]
    index = {}
    for row in rows:
        for tok in row:
            index.setdefault(str(tok), len(index))
    labels = [None] * n
    for key, i in index.items():
        labels[i] = key
    taken = set(index)
    for i in range(n):
        if labels[i] is None:
            synth = str(i)
            while synth in taken:
                synth = "_" + synth
            labels[i] = synth
            taken.add(synth)
    return tuple(labels), [[index[str(tok)] for tok in row] for row in rows]


def _reference_fields(n, index_rows, labels):
    """Every field of a valid system, built from public Blocks and a pair scan."""
    blocks = tuple(sorted(Block(tuple(row)) for row in index_rows))
    pair_index = {}
    for blk in blocks:
        for pair in itertools.combinations(blk.points, 2):
            assert pair not in pair_index
            pair_index[pair] = blk
    masks = tuple(blk.mask for blk in blocks)
    lead = tuple(
        tuple((m, i) for i, (m, blk) in enumerate(zip(masks, blocks)) if blk.points[0] == p)
        for p in range(n)
    )
    return blocks, labels, pair_index, masks, lead


def _fields(system):
    return (
        system.blocks,
        system.labels,
        dict(system.pair_index),
        system.block_masks,
        system.lead,
    )


def _assert_built_like_reference(system, n, index_rows, labels):
    assert system.n == n
    assert _fields(system) == _reference_fields(n, index_rows, labels)
    for blk in system.blocks:
        assert type(blk) is Block and type(blk.points) is tuple
        assert blk == Block(blk.points) and hash(blk) == hash(Block(blk.points))
        assert all(type(p) is int for p in blk.points)


def _assert_validates_like_reference(n, rows):
    labels, index_rows = _reference_labels(n, rows)
    _assert_built_like_reference(validate_system(n, rows), n, index_rows, labels)


class _Point(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2
    SEVEN = 7


class _Token(str):
    pass


_TOKEN = st.one_of(
    st.integers(-1, 10),
    st.sampled_from(list(_Point)),
    st.booleans(),
    st.sampled_from(["7", "007", "\u0663", "-0", "-1", "+1", "1", "01", "2", "x"]),
    st.sampled_from(["3", "05", "-0", "y"]).map(_Token),
)


def _reference_error(n, rows):
    """(type, message) of the error the documented rules raise, or None.

    Rows are checked in order for a repeated point once the tokens are
    known to be indices or labels, then the sorted rows for a block
    listed twice, then the blocks in order for a pair already covered.
    """
    rows = [tuple(row) for row in rows]
    tokens = [tok for row in rows for tok in row]
    if all(
        not isinstance(tok, bool)
        and (_is_int_token(tok) and 0 <= int(tok) < n if isinstance(tok, str)
             else isinstance(tok, int) and 0 <= tok < n)
        for tok in tokens
    ):
        values = [tuple(int(t) for t in row) for row in rows]
    else:
        keys = {}
        for tok in tokens:
            keys.setdefault(str(tok), len(keys))
        if len(keys) > n:
            return PointOutOfRange, f"{len(keys)} distinct labels exceed the declared order {n}"
        values = [tuple(keys[str(t)] for t in row) for row in rows]
    for row, vals in zip(rows, values):
        if len(set(vals)) < 3:
            return RepeatedPointInBlock, f"block repeats a point: {row!r}"
    blocks = sorted(tuple(sorted(vals)) for vals in values)
    for prev, blk in zip(blocks, blocks[1:]):
        if prev == blk:
            return PairInTwoBlocks, f"block listed twice: {blk}"
    labels, _ = _reference_labels(n, rows)

    def names(blk):
        return tuple(labels[p] for p in blk)

    owner = {}
    for blk in blocks:
        for a, b in itertools.combinations(blk, 2):
            if (a, b) in owner:
                return PairInTwoBlocks, (
                    f"pair {{{labels[a]}, {labels[b]}}} lies in two blocks: "
                    f"{names(owner[a, b])} and {names(blk)}"
                )
        for pair in itertools.combinations(blk, 2):
            owner[pair] = blk
    return None


#: (order, rows, error, message) of malformed ``validate_system`` input.
_MALFORMED = [
    (5, [(1, 1, 2), (0, 3, 4), (0, 3, 4)], RepeatedPointInBlock,
     "block repeats a point: (1, 1, 2)"),
    (5, [(0, 3, 4), (0, 3, 4), (1, 1, 2)], RepeatedPointInBlock,
     "block repeats a point: (1, 1, 2)"),
    (5, [("a", "a", "b")], RepeatedPointInBlock, "block repeats a point: ('a', 'a', 'b')"),
    (5, [(0, 1)], RepeatedPointInBlock, "block must have exactly 3 points: (0, 1)"),
    (5, [(0, 3, 4), (4, 0, 3)], PairInTwoBlocks, "block listed twice: (0, 3, 4)"),
    (5, [(0, 1, 2), (0, 1, 3)], PairInTwoBlocks,
     "pair {0, 1} lies in two blocks: ('0', '1', '2') and ('0', '1', '3')"),
    (5, [(0, 1, 3), (1, 2, 3)], PairInTwoBlocks,
     "pair {1, 3} lies in two blocks: ('0', '1', '3') and ('1', '2', '3')"),
    (5, [(0, 2, 3), (1, 2, 3)], PairInTwoBlocks,
     "pair {2, 3} lies in two blocks: ('0', '2', '3') and ('1', '2', '3')"),
    (7, [(5, 6, 4), (0, 1, 2), (6, 5, 0)], PairInTwoBlocks,
     "pair {5, 6} lies in two blocks: ('0', '5', '6') and ('4', '5', '6')"),
    (6, [("x", "y", "z"), ("u", "z", "x")], PairInTwoBlocks,
     "pair {x, z} lies in two blocks: ('x', 'y', 'z') and ('x', 'z', 'u')"),
    (4, [(0, 1, 2), (3, 4, 5)], PointOutOfRange,
     "6 distinct labels exceed the declared order 4"),
    (-1, [], PointOutOfRange, "order must be nonnegative, got -1"),
    (6, [("1", "01", "2")], RepeatedPointInBlock, "block repeats a point: ('1', '01', '2')"),
    (6, [(3, 4, 5), ("1", "01", "2")], RepeatedPointInBlock,
     "block repeats a point: ('1', '01', '2')"),
    (4, [("1", "01", "2"), ("a", "b", "c")], PointOutOfRange,
     "6 distinct labels exceed the declared order 4"),
]
_MALFORMED_IDS = [
    "repeat-before-duplicate", "repeat-after-duplicate", "repeated-label", "two-points",
    "duplicate", "shared-ab", "shared-ac", "shared-bc", "shared-unsorted",
    "shared-labels", "too-many-labels", "negative-order",
    "index-repeat-alone", "index-repeat-among-indices", "index-repeat-among-labels",
]


class TestBuildPath:
    def test_random_systems(self):
        for n in range(31):
            bound = johnson_schonheim(n)
            for target in sorted({bound, bound // 2}):
                for seed in range(3):
                    system = random_system(n, target, seed)
                    rows = [list(b.points) for b in system.blocks]
                    _assert_validates_like_reference(n, rows)
                    _assert_built_like_reference(system, n, rows, tuple(map(str, range(n))))

    @pytest.mark.parametrize("text", [
        "order 9\n1 2 3\n4 5 6\n7 8 9\n",
        "order 9\nc a b\nz y x\nb y 0\n",
        "order 10\n1 2 3\n3 4 5\n9 8 1\n",
        "order 7\n0 1 2\n2 3 4\n",
        "order 12\n_3 3 x\n4 5 6\n",
        "order 6\n5 4 3\n-1 1 2\n",
    ])
    def test_labeled_psts(self, text):
        lines = text.splitlines()
        n = int(lines[0].split()[1])
        rows = [line.split() for line in lines[1:]]
        labels, index_rows = _reference_labels(n, rows)
        _assert_built_like_reference(formats.parse_system_text(text), n, index_rows, labels)

    def test_mixed_tokens(self):
        _assert_validates_like_reference(9, [(0, "1", 2), (3, 4, 5), ("8", 7, 6)])
        _assert_validates_like_reference(9, [(0, "1", 2), (3, 4, 9), ("a", 7, 6)])
        _assert_validates_like_reference(5, [(True, 2, 3)])
        # As indices these repeat point 1; next to a row of labels they
        # are three distinct labels.
        _assert_validates_like_reference(6, [("1", "01", "2"), ("a", "b", "c")])
        _assert_validates_like_reference(6, [("1", "01", "2"), (0, 1, 9)])

    @pytest.mark.parametrize("n,bases", [
        (13, ((0, 1, 4), (0, 2, 7))),
        (27, ((0, 1, 3), (0, 4, 11), (0, 5, 15), (0, 6, 14), (0, 9, 18))),
    ])
    def test_cyclic(self, n, bases):
        rows = sorted({
            tuple(sorted((x + j) % n for x in b)) for b in bases for j in range(n)
        })
        _assert_built_like_reference(cyclic_system(CyclicBase(n, bases)), n, rows,
                                     tuple(map(str, range(n))))

    def test_subsystems_of_the_extend_route(self, corpus_nu_le3):
        # The residual point sets of the paper's extension: the points of
        # three disjoint blocks plus the three least other points.
        calls = []
        for system in corpus_nu_le3:
            result = max_disjoint_blocks(system)
            if system.n >= 13 and result.nu == 3:
                wpts = sorted(p for blk in result.witness for p in blk.points)
                points = wpts + [p for p in range(system.n) if p not in wpts][:3]
                calls.append((system, points, system.subsystem(points)))
        assert len(calls) > 100
        for system, points, (sub, back) in calls:
            pts = sorted(set(points))
            assert back == {old: new for new, old in enumerate(pts)}
            rows = [
                [back[p] for p in blk.points]
                for blk in system.blocks
                if set(blk.points) <= set(pts)
            ]
            _assert_built_like_reference(sub, len(pts), rows,
                                         tuple(system.labels[p] for p in pts))

    def test_int_enum_tokens_give_plain_int_points(self):
        system = validate_system(5, [(_Point.ZERO, 1, _Point.TWO)])
        seq = construct(system)
        assert seq.entries == (0, 1, 3, 2, 4)
        points = [p for blk in system.blocks for p in blk.points]
        points += seq.entries
        points += decide(system).witness.entries
        assert len(points) == 13
        assert all(type(p) is int for p in points)

    @pytest.mark.parametrize("n,rows,error,message", _MALFORMED, ids=_MALFORMED_IDS)
    def test_malformed_input(self, n, rows, error, message):
        with pytest.raises(error) as err:
            validate_system(n, rows)
        assert type(err.value) is error
        assert str(err.value) == message

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 10), st.lists(st.tuples(_TOKEN, _TOKEN, _TOKEN), max_size=6))
    def test_mixed_rows_match_the_reference(self, n, rows):
        expected = _reference_error(n, rows)
        if expected is None:
            _assert_validates_like_reference(n, rows)
        else:
            error, message = expected
            with pytest.raises(error) as err:
                validate_system(n, rows)
            assert type(err.value) is error
            assert str(err.value) == message


@pytest.fixture(params=["compiled", "python"])
def index_path(request, monkeypatch):
    """Systems built by the compiled index, then by the Python loop; the
    first is skipped where the extension cannot be built."""
    if request.param == "compiled":
        request.getfixturevalue("native")
    else:
        monkeypatch.setattr(_pykernels, "_native", False)


def _index_builds():
    """Calls that build systems of every order 0-64: random systems, their
    rows as int, str and label tokens, and cyclic developments."""
    builds = []
    for n in range(65):
        bound = johnson_schonheim(n)
        for target in sorted({bound, bound // 2}):
            rows = [blk.points for blk in random_system(n, target, n).blocks]
            builds += [
                functools.partial(random_system, n, target, n),
                functools.partial(validate_system, n, rows),
                functools.partial(validate_system, n, [tuple(map(str, r)) for r in rows]),
                functools.partial(
                    validate_system, n, [tuple(f"p{x}" for x in r) for r in reversed(rows)]
                ),
            ]
        if n >= 7:
            builds.append(functools.partial(cyclic_system, CyclicBase(n, ((0, 1, 3),))))
    for n, bases in [
        (13, ((0, 1, 4), (0, 2, 7))),
        (19, ((0, 1, 4), (0, 2, 9), (0, 5, 11))),
        (27, ((0, 1, 3), (0, 4, 11), (0, 5, 15), (0, 6, 14), (0, 9, 18))),
    ]:
        builds.append(functools.partial(cyclic_system, CyclicBase(n, bases)))
    return builds


class TestCompiledIndex:
    def test_matches_the_python_loop(self, native, monkeypatch):
        builds = _index_builds()
        compiled = [build().block_masks for build in builds]
        monkeypatch.setattr(_pykernels, "_native", False)
        systems = [build() for build in builds]
        assert [system.block_masks for system in systems] == compiled
        for system in systems:
            assert native.index(system.n, system.blocks) == system.block_masks

    @pytest.mark.parametrize(
        "n,rows,error,message",
        [row for row in _MALFORMED if row[2] is PairInTwoBlocks],
        ids=[i for row, i in zip(_MALFORMED, _MALFORMED_IDS) if row[2] is PairInTwoBlocks],
    )
    def test_pair_in_two_blocks_message(self, index_path, n, rows, error, message):
        with pytest.raises(PairInTwoBlocks) as err:
            validate_system(n, rows)
        assert str(err.value) == message

    @pytest.mark.parametrize("n,blocks,message", [
        (3, [(0, 1, 5)], "block (0, 1, 5) has point 5 outside [0, 3)"),
        (3, [(-1, 0, 1)], "block (-1, 0, 1) has point -1 outside [0, 3)"),
        (3, [(0, 1, 2), (0, 1, 3)], "block (0, 1, 3) has point 3 outside [0, 3)"),
        (64, [(0, 1, 64)], "block (0, 1, 64) has point 64 outside [0, 64)"),
        (64, [(0, 1, 2**70)], f"block (0, 1, {2**70}) has point {2**70} outside [0, 64)"),
    ], ids=["above", "below", "before-the-pair-check", "shift-by-64", "beyond-a-word"])
    def test_constructor_rejects_a_point_out_of_range(self, index_path, n, blocks, message):
        with pytest.raises(PointOutOfRange) as err:
            TripleSystem(n, tuple(map(Block, blocks)), tuple(map(str, range(n))))
        assert str(err.value) == message

    def test_construction_never_loads_the_extension(self, monkeypatch):
        monkeypatch.setattr(_pykernels, "_native", None)
        system = validate_system(13, [blk.points for blk in STS13.blocks])
        system.subsystem(range(9))
        assert _pykernels._native is None

    def test_checks_its_arguments(self, native):
        blocks = STS13.blocks
        with pytest.raises(TypeError):
            native.index(13)
        with pytest.raises(TypeError):
            native.index("13", blocks)
        with pytest.raises(ValueError):
            native.index(65, blocks)
        with pytest.raises(ValueError):
            native.index(-1, blocks)
        with pytest.raises(TypeError):
            native.index(13, 7)
        with pytest.raises(AttributeError):
            native.index(13, [(0, 1, 2)])
        for points in ([0, 1, 2], (0, 1), (0, 1, 2.0), (0, 1, "2")):
            blk = Block((0, 1, 2))
            blk.__dict__["points"] = points
            with pytest.raises(TypeError):
                native.index(13, (blk,))
        assert native.index(13, list(blocks)) == STS13.block_masks
        assert native.index(13, iter(blocks)) == STS13.block_masks
        assert native.index(0, ()) == ()

    def test_survives_a_block_that_empties_the_list(self, native):
        # Reading ``points`` runs Python code, here code that empties the
        # list being indexed.  ``index`` walks a copy and gives the masks
        # of all 20 blocks; walking the list itself crashed the
        # interpreter, so the call runs in a child process.
        src = str(Path(_pykernels.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "from pstseq import Block, _pykernels\n"
            "class Clearing(Block):\n"
            "    @property\n"
            "    def points(self):\n"
            "        blocks.clear()\n"
            "        return self.__dict__['points']\n"
            "first = object.__new__(Clearing)\n"
            "first.__dict__['points'] = (0, 1, 2)\n"
            "blocks = [first] + [Block((3 * i, 3 * i + 1, 3 * i + 2)) for i in range(1, 20)]\n"
            "masks = _pykernels._extension().index(64, blocks)\n"
            "assert blocks == [] and masks == tuple(7 << 3 * i for i in range(20)), masks\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, (result.returncode, result.stderr)


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

    @pytest.mark.parametrize("point", [True, 1.0])
    def test_non_integer_point_rejected(self, point):
        system = validate_system(9, [(0, 1, 2)])
        with pytest.raises(PointOutOfRange, match=f"point index {point!r} outside"):
            partition_into_blocks([point, 0, 2], system)

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
        assert (seg.start, seg.length) == (0, 3)
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


class TestInputTypes:
    def test_non_integer_order_rejected(self):
        for n, rows in ((True, []), (False, []), (3.0, [[0, 1, 2]]), ("3", [[0, 1, 2]])):
            with pytest.raises(InputError, match="order must be an integer"):
                validate_system(n, rows)

    def test_subsystem_point_out_of_range(self):
        system = validate_system(6, [[0, 1, 2], [3, 4, 5]])
        for points in ([0, 1, 9], [0, 1, -1], [6], [0, 1.5], [0, True, 2], ["1", 2]):
            with pytest.raises(PointOutOfRange):
                system.subsystem(points)
        sub, back = system.subsystem([0, 1, 5])
        assert sub.labels == ("0", "1", "5") and back == {0: 0, 1: 1, 5: 2}

    def test_non_integer_sequence_entries_rejected(self):
        system = validate_system(6, [[0, 1, 2], [3, 4, 5]])
        for seq in ([0, 1, 2, 3, 4, 5.0], [0, True, 2, 3, 4, 5]):
            with pytest.raises(SequenceNotPermutation):
                is_admissible(seq, system)
            with pytest.raises(SequenceNotPermutation):
                inadmissible_segments(seq, system)
        assert is_admissible([0, 1, 3, 2, 4, 5], system)


class TestPairCheck:
    def test_pair_index_built_once(self):
        system = random_system(13, 26, 3)
        first = system.pair_index
        assert system.pair_index is first
        assert len(first) == 3 * len(system.blocks)

    def test_collision_message_names_both_blocks(self):
        rows = [blk.points for blk in random_system(19, 57, 0).blocks]
        assert len(rows) == 46
        with pytest.raises(PairInTwoBlocks) as exc:
            validate_system(19, rows + [(16, 17, 18)])
        assert str(exc.value) == (
            "pair {16, 17} lies in two blocks: ('8', '16', '17') and ('16', '17', '18')"
        )


class TestPickle:
    def test_round_trip_after_kernel_use(self):
        # The kernels cache a compiled index on the system; pickle and
        # copy rebuild the system from its order, blocks and labels.
        base = random_system(13, johnson_schonheim(13), 5)
        system = validate_system(14, [[f"x{p}" for p in blk] for blk in base.blocks])
        decision = decide(system, budget=500)
        assert system.labels[-1] == "13"
        for other in (pickle.loads(pickle.dumps(system)), copy.copy(system),
                      copy.deepcopy(system)):
            assert other == system and other is not system
            assert other.lead == system.lead and other.block_masks == system.block_masks
            assert other.labels == system.labels
            assert decide(other, budget=500) == decision
