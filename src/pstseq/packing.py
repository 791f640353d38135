"""Disjoint-block structure: maximum packings, bad sets, induced matchings."""

from __future__ import annotations

from typing import Iterable, Optional

from . import _pykernels
from .core import (
    Block,
    PartitionWitness,
    TripleSystem,
    _checked_budget,
    _Record,
    _mask_of,
    partition_into_blocks,
)
from .errors import InputError, OrderTooSmall, PartContainsWholeBlock, WrongCardinality


class PackingResult(_Record):
    """Maximum number of pairwise vertex-disjoint blocks plus a witness.

    ``exact`` is False only when a node budget stopped the search early,
    in which case ``nu`` is a lower bound.
    """

    _fields = ("nu", "witness", "nodes_explored", "exact")

    def __init__(self, nu: int, witness: tuple[Block, ...], nodes_explored: int, exact: bool):
        d = self.__dict__
        d["nu"] = nu
        d["witness"] = witness
        d["nodes_explored"] = nodes_explored
        d["exact"] = exact


class BadSetReport(_Record):
    """All sets M with |M| = n-9 whose complement splits into three blocks."""

    _fields = ("m_size", "bad_sets", "realizations")

    def __init__(
        self,
        m_size: int,
        bad_sets: tuple[tuple[int, ...], ...],
        realizations: tuple[PartitionWitness, ...],
    ):
        d = self.__dict__
        d["m_size"] = m_size
        d["bad_sets"] = bad_sets
        d["realizations"] = realizations


class InducedMatching(_Record):
    """How a 9-set partition threads two disjoint blocks.

    Edge i joins the partition part i's point in the first block to its
    point in the second; the label is the part's third point.
    """

    _fields = ("edges", "labels")

    def __init__(self, edges: tuple[tuple[int, int], ...], labels: tuple[int, ...]):
        d = self.__dict__
        d["edges"] = edges
        d["labels"] = labels

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)


def max_disjoint_blocks(system: TripleSystem, budget: Optional[int] = None) -> PackingResult:
    """Exact maximum packing by branch-and-bound over canonical block order.

    Branches on the first block compatible with the partial packing
    (include, then exclude).  Two bounds on the blocks from the branch
    block on cut a node: the unused points they still reach, divided by
    3, and the unused points of a greedy hitting set of them, since
    disjoint blocks meet a hitting set in distinct points.  Neither cut
    loses a strictly better packing, so ``nu`` and the witness are those
    of the plain search and only ``nodes_explored`` falls.  With a
    budget the search may stop early and the result is flagged inexact.
    A budget other than None or a non-negative int raises ``InputError``.
    """
    nu, ids, nodes, complete = _pykernels.max_packing(system, _checked_budget(budget))
    return PackingResult(
        nu=nu,
        witness=tuple(system.blocks[i] for i in ids),
        nodes_explored=nodes,
        exact=complete,
    )


def _disjoint_triples(system: TripleSystem):
    masks = system.block_masks
    nb = len(masks)
    for i in range(nb):
        mi = masks[i]
        for j in range(i + 1, nb):
            mj = masks[j]
            if mi & mj:
                continue
            mij = mi | mj
            for k in range(j + 1, nb):
                if masks[k] & mij:
                    continue
                yield i, j, k


def bad_sets(system: TripleSystem) -> BadSetReport:
    """Enumerate all bad sets of the system.

    A set M is bad when the complement of M partitions into three
    disjoint blocks, which forces |M| = n-9.  Iterates over disjoint
    block triples (far fewer than the M-subsets) and collects the
    complements; the first triple in canonical order realizes each set.
    """
    if system.n < 9:
        raise OrderTooSmall(f"bad sets need order >= 9, got {system.n}")
    m_size = system.n - 9
    full = system.full_mask()
    found: dict[tuple[int, ...], PartitionWitness] = {}
    for i, j, k in _disjoint_triples(system):
        cover = system.block_masks[i] | system.block_masks[j] | system.block_masks[k]
        m_mask = full & ~cover
        key = tuple(p for p in range(system.n) if (m_mask >> p) & 1)
        if key not in found:
            found[key] = PartitionWitness(
                (system.blocks[i], system.blocks[j], system.blocks[k])
            )
    keys = tuple(sorted(found))
    return BadSetReport(
        m_size=m_size,
        bad_sets=keys,
        realizations=tuple(found[k] for k in keys),
    )


def is_good_set(
    system: TripleSystem, points: Iterable[int]
) -> tuple[bool, Optional[PartitionWitness]]:
    """Whether no three disjoint blocks realize the complement of M.

    Returns (True, None) for a good set, else (False, realization).
    An order below 9 raises OrderTooSmall, a point named twice in M
    raises InputError.
    """
    if system.n < 9:
        raise OrderTooSmall(f"good sets need order >= 9, got {system.n}")
    pts = list(points)
    m_mask = _mask_of(pts, system)
    if m_mask.bit_count() < len(pts):
        twice = next(p for i, p in enumerate(pts) if p in pts[:i])
        raise InputError(f"point {system.labels[twice]} appears twice in M")
    if m_mask.bit_count() != system.n - 9:
        raise WrongCardinality(
            f"expected |M| = {system.n - 9}, got {m_mask.bit_count()}"
        )
    rest = [p for p in range(system.n) if not (m_mask >> p) & 1]
    witness = partition_into_blocks(rest, system)
    if witness is None:
        return True, None
    return False, witness


def induced_matching(
    nine_set_partition: PartitionWitness, a1: Block, a2: Block
) -> InducedMatching:
    """The perfect matching a 9-set partition induces between two blocks.

    Each part must meet ``a1`` and ``a2`` in a single point; a part equal
    to either block means no matching is induced and raises
    PartContainsWholeBlock.
    """
    parts = nine_set_partition.parts
    if len(parts) != 3:
        raise WrongCardinality(f"expected a 3-part partition, got {len(parts)} parts")
    if a1.mask & a2.mask:
        raise ValueError(f"reference blocks are not disjoint: {a1.points}, {a2.points}")
    union = nine_set_partition.mask()
    if a1.mask & union != a1.mask or a2.mask & union != a2.mask:
        raise ValueError("reference blocks must lie inside the partitioned set")
    edges = []
    labels = []
    for part in parts:
        if part == a1 or part == a2:
            raise PartContainsWholeBlock(
                f"partition part {part.points} equals a reference block"
            )
        in1 = [p for p in part if p in a1]
        in2 = [p for p in part if p in a2]
        rest = [p for p in part if p not in a1 and p not in a2]
        if len(in1) != 1 or len(in2) != 1 or len(rest) != 1:
            raise ValueError(
                f"part {part.points} does not meet both blocks in single points"
            )
        edges.append((in1[0], in2[0]))
        labels.append(rest[0])
    return InducedMatching(edges=tuple(edges), labels=tuple(labels))
