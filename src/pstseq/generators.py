"""Constructions of named systems, random corpora, and the block bound."""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Sequence as Seq

from .core import TripleSystem, _is_plain_int, _sorted_block, validate_system
from .errors import DevelopmentCollision, PairInTwoBlocks, SizeTooSmall


@dataclass(frozen=True)
class CyclicBase:
    """Base blocks over Z_modulus, developed by the rotation x -> x+1."""

    modulus: int
    base_blocks: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.modulus < 3:
            raise ValueError(f"modulus must be at least 3, got {self.modulus}")
        normalized = []
        for b in self.base_blocks:
            if len(b) != 3:
                raise ValueError(f"base block {b} must have 3 residues, got {len(b)}")
            res = tuple(sorted(x % self.modulus for x in b))
            if len(set(res)) != 3:
                raise ValueError(f"base block {b} has repeated residues mod {self.modulus}")
            normalized.append(res)
        object.__setattr__(self, "base_blocks", tuple(normalized))


def cyclic_system(base: CyclicBase) -> TripleSystem:
    """Develop base blocks through all rotations of Z_n.

    Blocks whose orbit is short collapse by deduplication; two distinct
    developed blocks sharing a pair raise DevelopmentCollision.
    """
    n = base.modulus
    seen = set()
    for b in base.base_blocks:
        for j in range(n):
            seen.add(tuple(sorted((x + j) % n for x in b)))
    try:
        return validate_system(n, sorted(seen))
    except PairInTwoBlocks as exc:
        raise DevelopmentCollision(str(exc)) from None


def _chain_labels(sizes: Seq[int]) -> tuple[int, list[tuple[str, str, str]]]:
    k = len(sizes)
    labels: list[str] = []
    blocks: list[tuple[str, str, str]] = []
    shared_with_prev = None
    for i, m in enumerate(sizes, start=1):
        hub = f"h{i}"
        labels.append(hub)
        for j in range(1, m + 1):
            if j == 1 and shared_with_prev is not None:
                first = shared_with_prev
            else:
                first = f"g{i}t{j}a"
                labels.append(first)
            if j == m and i < k:
                second = f"s{i}"
                shared_with_prev_next = second
            else:
                second = f"g{i}t{j}b"
                shared_with_prev_next = None
            labels.append(second)
            blocks.append((hub, first, second))
            if j == m:
                shared_with_prev = shared_with_prev_next
    return len(labels), blocks


def friendship(m: int) -> TripleSystem:
    """m triangles amalgamated at a common hub; order 2m+1.

    Every two blocks meet at the hub, so no two blocks are disjoint.
    """
    if m < 1:
        raise SizeTooSmall(f"need at least one triangle, got {m}")
    n, blocks = _chain_labels([m])
    return validate_system(n, blocks)


def friendship_chain(sizes: Seq[int]) -> TripleSystem:
    """Chain of friendship graphs amalgamated at degree-2 vertices.

    Component i shares one outer vertex with component i+1, taken from
    different triangles on each side, which needs at least two triangles
    per component once there is more than one.  The result has exactly
    ``len(sizes)`` pairwise disjoint blocks (every block contains its
    hub, so one per component is the ceiling).
    """
    sizes = list(sizes)
    if not sizes:
        raise SizeTooSmall("need at least one component")
    if len(sizes) >= 2 and any(s < 2 for s in sizes):
        raise SizeTooSmall(f"chained components need at least 2 triangles each: {sizes}")
    if any(s < 1 for s in sizes):
        raise SizeTooSmall(f"component sizes must be positive: {sizes}")
    n, blocks = _chain_labels(sizes)
    return validate_system(n, blocks)


def johnson_schonheim(n: int) -> int:
    """Maximum possible number of blocks in a system of order n."""
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    bound = (n * ((n - 1) // 2)) // 3
    if n % 6 == 5:
        bound -= 1
    return bound


def _shuffle(x: list, getrandbits) -> None:
    """Shuffle ``x`` in place exactly as ``random.Random.shuffle`` does.

    The stdlib shuffle with ``_randbelow_with_getrandbits`` inlined: the
    same ``getrandbits(k)`` calls in the same order, with the same
    rejection of draws above ``i``, so it gives the same permutation.
    ``k`` is the bit length of ``i + 1``; it only changes when ``i + 1``
    drops below a power of two, that is when ``i`` drops below ``low``.
    """
    k = len(x).bit_length()
    low = (1 << k >> 1) - 1
    for i in range(len(x) - 1, 0, -1):
        if i < low:
            k -= 1
            low >>= 1
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


@functools.lru_cache(maxsize=1)
def _triple_table(n: int) -> tuple[tuple[tuple[int, int, int], int, int, int], ...]:
    """Every triple of ``range(n)`` in lexicographic order, with the ids
    ``a*n+b``, ``a*n+c`` and ``b*n+c`` of its three pairs.

    Cached for one order at a time: the table for order 60 holds 34,220
    rows, about 8 MB.
    """
    return tuple(
        ((a, b, c), a * n + b, a * n + c, b * n + c)
        for a, b, c in itertools.combinations(range(n), 3)
    )


def random_system(n: int, target_blocks: int, seed: int) -> TripleSystem:
    """Seeded greedy system: shuffle all triples, insert pair-disjoint ones.

    Deterministic per seed.  Stops at the target or at saturation, so the
    result may hold fewer blocks than requested; the caller reads the
    achieved count off the system.  The triples come from
    ``_triple_table``, built once per order with the ids of their pairs,
    and used pairs are marked in a ``bytearray`` indexed by those ids.
    The chosen triples are sorted, distinct, in range and pair-disjoint
    by construction, so the system is built directly, without
    ``validate_system``.  The shuffle and the scan order are part of the
    contract, so a seed names the same system across versions; the tests
    pin it against an independent pair-set reference and by a digest.
    The shuffle is ``random.Random(seed).shuffle`` with its draw helper
    inlined (``_shuffle``); a test checks it against the stdlib one.
    """
    if not (_is_plain_int(n) and _is_plain_int(target_blocks)):
        raise ValueError(
            f"order and target block count must be integers, got {n!r} and {target_blocks!r}"
        )
    bound = johnson_schonheim(n)
    if target_blocks < 0:
        raise ValueError(f"target block count must be nonnegative, got {target_blocks}")
    if target_blocks > bound:
        raise ValueError(
            f"target {target_blocks} exceeds the order-{n} block bound {bound}"
        )
    chosen = []
    if target_blocks:
        table = list(_triple_table(n))
        _shuffle(table, random.Random(seed).getrandbits)
        used = bytearray(n * n)
        wanted = target_blocks
        for t, ab, ac, bc in table:
            if used[ab] or used[ac] or used[bc]:
                continue
            used[ab] = used[ac] = used[bc] = 1
            chosen.append(t)
            wanted -= 1
            if not wanted:
                break
        chosen.sort()
    return TripleSystem(n, tuple(map(_sorted_block, chosen)), tuple(map(str, range(n))))
