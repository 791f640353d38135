"""Constructions of named systems, random corpora, and the block bound."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence as Seq

from .core import TripleSystem, validate_system
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


def random_system(n: int, target_blocks: int, seed: int) -> TripleSystem:
    """Seeded greedy system: shuffle all triples, insert pair-disjoint ones.

    Deterministic per seed.  Stops at the target or at saturation, so the
    result may hold fewer blocks than requested; the caller reads the
    achieved count off the system.  Used pairs are kept as one adjacency
    bitmask per point.  The shuffle and the scan order are part of the
    contract, so a seed names the same system across versions; the tests
    pin it against an independent pair-set reference.
    """
    bound = johnson_schonheim(n)
    if target_blocks < 0:
        raise ValueError(f"target block count must be nonnegative, got {target_blocks}")
    if target_blocks > bound:
        raise ValueError(
            f"target {target_blocks} exceeds the order-{n} block bound {bound}"
        )
    rng = random.Random(seed)
    triples = list(itertools.combinations(range(n), 3))
    rng.shuffle(triples)
    adj = [0] * n
    chosen = []
    for t in triples:
        if len(chosen) >= target_blocks:
            break
        a, b, c = t
        if adj[a] >> b & 1 or adj[a] >> c & 1 or adj[b] >> c & 1:
            continue
        adj[a] |= 1 << b | 1 << c
        adj[b] |= 1 << a | 1 << c
        adj[c] |= 1 << a | 1 << b
        chosen.append(t)
    return validate_system(n, sorted(chosen))
