"""Generator constructions and the block-count bound."""

import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pstseq
from pstseq import (
    CyclicBase,
    cyclic_system,
    friendship,
    friendship_chain,
    interleave_large,
    johnson_schonheim,
    max_disjoint_blocks,
    random_system,
    validate_system,
)
from pstseq.errors import DevelopmentCollision, SizeTooSmall
from pstseq.generators import _greedy, _native_greedy, _shuffle, _triple_table


class TestCyclic:
    def test_sts13(self):
        system = cyclic_system(CyclicBase(13, ((0, 1, 4), (0, 2, 7))))
        assert system.n == 13
        assert len(system.blocks) == 26
        covered = set()
        for blk in system.blocks:
            for pair in itertools.combinations(blk.points, 2):
                assert pair not in covered
                covered.add(pair)
        assert len(covered) == 78

    def test_fano(self):
        system = cyclic_system(CyclicBase(7, ((0, 1, 3),)))
        assert len(system.blocks) == 7
        pairs = {
            pair
            for blk in system.blocks
            for pair in itertools.combinations(blk.points, 2)
        }
        assert len(pairs) == 21

    def test_development_collision(self):
        with pytest.raises(DevelopmentCollision):
            cyclic_system(CyclicBase(6, ((0, 1, 2),)))

    def test_base_with_repeated_residue_rejected(self):
        with pytest.raises(ValueError):
            CyclicBase(5, ((0, 1, 6),))

    @pytest.mark.parametrize("base, size", [((0, 1), 2), ((0, 1, 2, 3), 4)])
    def test_base_of_wrong_size_rejected(self, base, size):
        message = f"base block {base} must have 3 residues, got {size}"
        with pytest.raises(ValueError, match=re.escape(message)):
            CyclicBase(13, (base,))


class TestFriendship:
    def test_single_triangle(self):
        system = friendship(1)
        assert system.n == 3
        assert len(system.blocks) == 1

    def test_three_triangles(self):
        system = friendship(3)
        assert system.n == 7
        assert len(system.blocks) == 3
        assert max_disjoint_blocks(system).nu == 1

    def test_five_triangles_share_hub(self):
        system = friendship(5)
        assert system.n == 11
        hub = system.index_of("h1")
        assert all(hub in blk for blk in system.blocks)
        for b1, b2 in itertools.combinations(system.blocks, 2):
            assert len(set(b1.points) & set(b2.points)) == 1

    def test_rejects_zero(self):
        with pytest.raises(SizeTooSmall):
            friendship(0)


class TestFriendshipChain:
    def test_single_component_is_friendship(self):
        assert friendship_chain([2]) == friendship(2)

    @pytest.mark.parametrize(
        "sizes,order,nu",
        [([2], 5, 1), ([2, 2], 9, 2), ([2, 2, 2], 13, 3), ([2, 2, 2, 2], 17, 4)],
    )
    def test_packing_number_certified(self, sizes, order, nu):
        system = friendship_chain(sizes)
        assert system.n == order
        result = max_disjoint_blocks(system)
        assert result.nu == nu
        assert result.exact

    def test_mixed_sizes(self):
        system = friendship_chain([3, 2, 4])
        assert max_disjoint_blocks(system).nu == 3

    def test_small_component_rejected_in_chain(self):
        for sizes in ([2, 1], [], [0]):
            with pytest.raises(SizeTooSmall):
                friendship_chain(sizes)

    def test_shared_vertices_have_degree_two_blocks(self):
        system = friendship_chain([2, 2, 2])
        for lab in ("s1", "s2"):
            shared = system.index_of(lab)
            containing = [b for b in system.blocks if shared in b]
            assert len(containing) == 2


class TestJohnsonSchonheim:
    @pytest.mark.parametrize("n,value", [(10, 13), (13, 26), (11, 17), (0, 0), (3, 1)])
    def test_values(self, n, value):
        assert johnson_schonheim(n) == value

    @given(st.integers(0, 400))
    def test_every_generated_system_respects_the_bound(self, seed):
        n = 6 + seed % 9
        target = min(seed % 12, johnson_schonheim(n))
        system = random_system(n, target, seed)
        assert len(system.blocks) <= johnson_schonheim(system.n)

    @given(st.integers(0, 600))
    def test_monotone_except_at_deficient_orders(self, n):
        step = johnson_schonheim(n + 1) - johnson_schonheim(n)
        if (n + 1) % 6 != 5:
            assert step >= 0


def _pair_set_greedy(n, target, seed):
    """Reference greedy: shuffled triples, used pairs kept in a set."""
    rng = random.Random(seed)
    triples = list(itertools.combinations(range(n), 3))
    rng.shuffle(triples)
    used = set()
    chosen = []
    for t in triples:
        if len(chosen) >= target:
            break
        pairs = set(itertools.combinations(t, 2))
        if used & pairs:
            continue
        used |= pairs
        chosen.append(t)
    return sorted(chosen)


#: Seeds whose ``abs`` takes one, two, three and four 32-bit words, and 0.
_KEY_SEEDS = (0, 1, -1, 2**31, 2**32 - 1, 2**32, -(2**40), 2**64 + 3, 2**100)


class TestRandomSystem:
    def test_shuffle_matches_stdlib(self):
        # The draw width changes only where the length crosses a power
        # of two: every length up to 64, the lengths around each power
        # of two up to 2048, C(19, 3) = 969 triples and 1100.
        lengths = list(range(65)) + [2**k + d for k in range(7, 12) for d in (-1, 0, 1)]
        for seed in range(50):
            for length in lengths + [969, 1100]:
                expected = list(range(length))
                random.Random(seed).shuffle(expected)
                got = list(range(length))
                _shuffle(got, random.Random(seed).getrandbits)
                assert got == expected, (seed, length)

    def test_seed_names_the_same_system(self):
        # SHA-256 of the systems the seeds named before the shuffle was
        # inlined; a seed must keep naming the same system.
        digest = hashlib.sha256()
        count = 0
        for n in range(31):
            bound = johnson_schonheim(n)
            for target in sorted({bound, bound // 2}):
                for seed in range(20):
                    system = random_system(n, target, seed)
                    digest.update(repr((n, tuple(b.points for b in system.blocks))).encode())
                    digest.update(b"\n")
                    count += 1
        assert count == 1180
        assert digest.hexdigest() == (
            "807d43135f27eed18e4962e2edda88206d3f75448b2a0b6751520a2e71cef0a9"
        )

    def test_matches_pair_set_reference(self):
        saturated = 0
        for n in range(26):
            bound = johnson_schonheim(n)
            for target in sorted({bound, bound // 2}):
                for seed in range(50):
                    expected = _pair_set_greedy(n, target, seed)
                    assert random_system(n, target, seed) == validate_system(n, expected)
                    saturated += len(expected) < target
        assert saturated > 500

    @pytest.mark.usefixtures("python_path")
    def test_seed_names_the_same_system_python(self):
        self.test_seed_names_the_same_system()

    @pytest.mark.usefixtures("python_path")
    def test_matches_pair_set_reference_python(self):
        self.test_matches_pair_set_reference()

    @pytest.mark.parametrize("seed", _KEY_SEEDS)
    def test_native_greedy_seeds_like_the_stdlib(self, native, seed):
        # The extension seeds its own MT19937 from the words of
        # ``abs(seed)``.  Orders 16 and up take more than the 624
        # outputs of one state, so the shuffle crosses a regeneration.
        for n in [3, 4, 5, 6, 7, 16, 19, 31, 64]:
            bound = johnson_schonheim(n)
            for target in sorted({1, bound}):
                expected = tuple(_greedy(n, target, seed))
                assert _native_greedy(native, n, target, seed) == expected, (n, target)

    def test_native_greedy_matches_python(self, native):
        for n in range(3, 65):
            bound = johnson_schonheim(n)
            for target in sorted({1, max(1, bound // 2), bound}):
                for seed in range(2):
                    expected = tuple(_greedy(n, target, seed))
                    assert _native_greedy(native, n, target, seed) == expected

    def test_native_greedy_checks_its_arguments(self, native):
        key = (7).to_bytes(4, "little")
        assert native.greedy(13, 26, key) == tuple(_greedy(13, 26, 7))
        assert native.greedy(13, 26, key + bytes(4)) != native.greedy(13, 26, key)
        with pytest.raises(TypeError):
            native.greedy(13, 26)
        with pytest.raises(TypeError):
            native.greedy("13", 26, key)
        with pytest.raises(TypeError):
            native.greedy(13, 26.0, key)
        with pytest.raises(TypeError):
            native.greedy(13, 26, bytearray(key))
        with pytest.raises(TypeError):
            native.greedy(13, 26, 7)
        with pytest.raises(ValueError):
            native.greedy(65, 26, key)
        with pytest.raises(ValueError):
            native.greedy(-1, 26, key)
        with pytest.raises(ValueError):
            native.greedy(13, -1, key)
        for short in (b"", key[:3], key + b"\0"):
            with pytest.raises(ValueError):
                native.greedy(13, 26, short)

    def test_empty_target(self):
        system = random_system(9, 0, 5)
        assert system.blocks == ()

    def test_deterministic_per_seed(self):
        a = random_system(12, 4, 7)
        b = random_system(12, 4, 7)
        assert a == b
        c = random_system(12, 4, 8)
        assert a != c

    def test_target_above_bound_rejected(self):
        with pytest.raises(ValueError):
            random_system(10, 14, 0)

    def test_saturation_returns_fewer_blocks(self):
        # order 7 saturates at 7 blocks; ask for the bound from a seed
        # whose greedy run cannot reach it
        system = random_system(7, johnson_schonheim(7), 1)
        assert len(system.blocks) <= johnson_schonheim(7)
        assert len(system.blocks) >= 1


class TestTripleTable:
    def test_rows_in_lexicographic_order_with_pair_ids(self):
        n = 9
        rows = _triple_table(n)
        assert [t for t, *_ in rows] == list(itertools.combinations(range(n), 3))
        for (a, b, c), ab, ac, bc in rows:
            assert (ab, ac, bc) == (a * n + b, a * n + c, b * n + c)

    @pytest.mark.usefixtures("python_path")
    def test_holds_one_order(self):
        # The table serves the Python path alone.
        for n in (7, 13, 19):
            random_system(n, johnson_schonheim(n), 0)
            assert _triple_table.cache_info().currsize <= 1

    def test_interleaved_orders_draw_the_same_systems(self):
        alone = {
            n: [random_system(n, johnson_schonheim(n), s) for s in range(5)]
            for n in (13, 19)
        }
        for s in range(5):
            for n in (13, 19, 13):
                assert random_system(n, johnson_schonheim(n), s) == alone[n][s]

    def test_not_built_at_import(self):
        src = str(Path(pstseq.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import pstseq.cli\n"
            "from pstseq.generators import _triple_table\n"
            "assert _triple_table.cache_info().currsize == 0\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("n,target", [
    (13, 2.5), (13, True), (13, "3"), (13.0, 3), (True, 0), (13, None),
])
def test_random_system_non_integer_arguments_rejected(n, target):
    with pytest.raises(ValueError, match="must be integers"):
        random_system(n, target, 0)


@pytest.mark.parametrize("seed", [None, True, "7"])
def test_random_system_non_integer_seed_rejected(seed):
    # ``random.Random(None)`` seeds from the clock, so such a call would
    # name a different system each time.
    with pytest.raises(ValueError, match="seed must be an integer"):
        random_system(13, 10, seed)


@pytest.mark.parametrize("call,message", [
    (lambda: johnson_schonheim(-1), "order must be nonnegative"),
    (lambda: random_system(9, -1, 0), "target block count must be nonnegative"),
])
def test_negative_size_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call,value", [
    (johnson_schonheim, 9.5),
    (johnson_schonheim, True),
    (johnson_schonheim, "9"),
    (friendship, "3"),
    (lambda v: friendship_chain([2, v]), "2"),
    (lambda v: CyclicBase(v, ((0, 1, 3),)), "7"),
    (lambda v: CyclicBase(7, ((0, v, 3),)), 1.0),
    (lambda v: CyclicBase(7, ((0, v, 3),)), True),
    (lambda v: interleave_large(friendship_chain([2, 2]), v), "2"),
], ids=[
    "bound-float", "bound-bool", "bound-str", "friendship", "chain", "cyclic",
    "residue-float", "residue-bool", "interleave",
])
def test_non_integer_size_rejected(call, value):
    with pytest.raises(ValueError, match="must be an integer, got " + re.escape(repr(value))):
        call(value)
