"""Seeded inputs for the benchmark workloads.

Everything is built from the workload seed with the benchmark's own
code, so the program under test receives only generated files and
triples.  Nothing here imports ``pstseq``.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from oracles import packing_number

STS13_BASES = ((0, 1, 4), (0, 2, 7))
STS19_BASES = ((0, 1, 4), (0, 2, 9), (0, 5, 11))


def cyclic(n, bases):
    """Develop base blocks through all rotations of Z_n."""
    return sorted({tuple(sorted((x + j) % n for x in b)) for b in bases for j in range(n)})


def relabel(n, blocks, rng):
    """The same system under a seeded permutation of its points."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted(perm[p] for p in b)) for b in blocks)


def write_psts(path: Path, n, blocks):
    lines = [f"order {n}"] + [" ".join(map(str, b)) for b in blocks]
    path.write_text("\n".join(lines) + "\n")


def _add_if_free(blocks, used, triple):
    """Add ``triple`` unless one of its pairs is already in a block."""
    pairs = list(itertools.combinations(sorted(triple), 2))
    if any(p in used for p in pairs):
        return False
    used.update(pairs)
    blocks.append(tuple(sorted(triple)))
    return True


def planted_system(rng, n, k, extra):
    """``k`` disjoint blocks plus up to ``extra`` random pair-disjoint blocks."""
    points = rng.sample(range(n), 3 * k)
    blocks, used = [], set()
    for i in range(k):
        _add_if_free(blocks, used, points[3 * i : 3 * i + 3])
    for _ in range(4 * extra):
        if len(blocks) >= k + extra:
            break
        _add_if_free(blocks, used, rng.sample(range(n), 3))
    return sorted(blocks)


def transversal_system(rng, n, k, extra):
    """A system with packing number exactly ``k``.

    ``k`` hub points meet every block, so no ``k + 1`` blocks are
    disjoint; ``k`` disjoint blocks, one per hub, are planted first.
    Up to ``extra`` further blocks through a random hub follow.
    """
    points = list(range(n))
    rng.shuffle(points)
    hubs, rest = points[:k], points[k:]
    blocks, used = [], set()
    for i, h in enumerate(hubs):
        _add_if_free(blocks, used, (h, rest[2 * i], rest[2 * i + 1]))
    for _ in range(4 * extra):
        if len(blocks) >= k + extra:
            break
        a, b = rng.sample(rest, 2)
        _add_if_free(blocks, used, (rng.choice(hubs), a, b))
    return sorted(blocks)


def system_with_packing(rng, n, nu, extra):
    """Seeded system of order ``n`` whose packing number is ``nu``.

    Where ``n < 3 (nu + 1)`` no ``nu + 1`` blocks fit disjointly, so
    planting ``nu`` disjoint blocks among unrestricted random ones fixes
    the packing number; otherwise a hub transversal does.  Order 12 with
    ``nu = 3`` tries planting first and keeps the draw only when the
    packing oracle confirms it.
    """
    if nu == 0:
        return []
    if n < 3 * (nu + 1):
        return planted_system(rng, n, nu, extra)
    if n == 12 and nu == 3:
        for _ in range(100):
            blocks = planted_system(rng, n, nu, extra)
            if packing_number(blocks) == nu:
                return blocks
    return transversal_system(rng, n, nu, extra)


def construct_route(n, nu):
    """The construction route the program's documented dispatch takes."""
    if nu <= 1:
        return "nu_le1"
    if nu == 2:
        return "nu2"
    if nu == 3:
        return {9: "order9", 10: "order10", 11: "order11", 12: "template12"}.get(n, "extend")
    if n >= 15 * nu - 5:
        return "interleave"
    return "search"
