"""Deciding and constructing sequenceability.

``decide`` is an exact depth-first search with a node budget.
``construct`` dispatches on the disjoint-block number: systems with at
most three pairwise disjoint blocks always get a sequence built from
the paper's constructions (each output checked admissible before it
is returned); larger packings fall back to the interleaving
construction when the order allows, and to plain search otherwise.

The paper's constructions lay the disjoint blocks and a few extra
points into fixed positional patterns.  One search, ``_first_admissible``
over the ``_PATTERNS`` table, serves a system with a single block, two
disjoint blocks, and three at every order from 9 up, where order 12's
pattern with the other points appended is the paper's extension.
"""

from __future__ import annotations

import itertools
import random
from enum import Enum
from typing import Iterable, Optional

from . import _pykernels
from .core import (
    Block,
    Sequence,
    TripleSystem,
    _checked_budget,
    _is_plain_int,
    _Record,
    is_admissible,
    partition_into_blocks,
)
from .errors import (
    BudgetExhausted,
    CertificateFailure,
    InputError,
    NoAdmissibleLabeling,
    NotSequenceableSystem,
    RepairFailed,
)
from .generators import CyclicBase, cyclic_system
from .packing import PackingResult, max_disjoint_blocks

#: Default node budget for exhaustive decision searches.
DEFAULT_BUDGET = 10**8

#: Number of seeded orderings the interleaving repair loop will try.
REPAIR_ATTEMPTS = 100


class Outcome(str, Enum):
    SEQUENCEABLE = "sequenceable"
    NOT_SEQUENCEABLE = "not-sequenceable"
    UNKNOWN = "unknown"


class Decision(_Record):
    """Three-valued search verdict.

    A sequenceable decision carries a verified witness; a negative one
    is only issued when the search tree was exhausted.
    """

    outcome: Outcome
    witness: Optional[Sequence]
    nodes_explored: int
    exhausted: bool
    budget_spent: int


class Labeling(_Record):
    """Role assignment of three disjoint blocks plus point labels."""

    block_roles: tuple[Block, Block, Block]
    assignment: dict[str, int]
    sequence: Sequence


class CertificateEntry(_Record):
    vertex: int
    exponent: int
    blocks: tuple[Block, Block, Block, Block]


class Sts13Certificate(_Record):
    """Per-vertex families of four disjoint blocks avoiding that vertex.

    Existence of such a family for every vertex means every permutation
    of the 13 points has partitionable 12-segments at both ends, so the
    system has no admissible sequence.  ``system`` is left out of ``==``,
    ``hash`` and ``repr``.
    """

    entries: tuple[CertificateEntry, ...]

    def __init__(self, entries: tuple[CertificateEntry, ...], system: TripleSystem):
        super().__init__(entries)
        self.__dict__["system"] = system


def _verified(system: TripleSystem, entries: Iterable[int], context: str) -> Sequence:
    seq = Sequence(tuple(entries))
    if not is_admissible(seq, system):
        raise RuntimeError(
            f"internal error: {context} produced an inadmissible sequence "
            f"{seq.entries} for order {system.n}"
        )
    return seq


def decide(
    system: TripleSystem,
    budget: Optional[int] = DEFAULT_BUDGET,
    exhaust: bool = False,
) -> Decision:
    """Exact sequenceability search over permutation prefixes.

    Prefixes grow by unused points in canonical order.  A new entry is
    pruned when a proper segment ending at it partitions into blocks, or
    when the points not yet placed (the suffix after it, fixed as a set)
    do: the paper's "12-segments at both ends" argument for the cyclic
    STS(13), applied at every node.  The suffix test only cuts subtrees
    without an admissible leaf, so the first witness is the
    lexicographically first admissible permutation.  A full admissible
    prefix gives Sequenceable, an exhausted tree gives NotSequenceable,
    a spent budget gives Unknown.  ``exhaust`` keeps
    walking after the first witness so the full tree gets counted.
    A budget other than None or a non-negative int, or an ``exhaust``
    other than a bool, raises ``InputError``.
    """
    _checked_budget(budget)
    if not isinstance(exhaust, bool):
        raise InputError(f"exhaust must be a bool, got {exhaust!r}")
    witness, nodes, exhausted = _pykernels.decide_search(system, budget, exhaust)
    if witness is not None:
        seq = _verified(system, witness, "decide")
        return Decision(Outcome.SEQUENCEABLE, seq, nodes, exhausted, nodes)
    if exhausted:
        return Decision(Outcome.NOT_SEQUENCEABLE, None, nodes, True, nodes)
    return Decision(Outcome.UNKNOWN, None, nodes, False, nodes)


# ---------------------------------------------------------------------------
# constructions by disjoint-block number


def _construct_nu_le1(system: TripleSystem) -> Sequence:
    # Any two blocks meet, so only 3-segments can ever be inadmissible.
    blocks = system.blocks
    if not blocks or system.n == 3:
        # No block, or order 3, whose one block is all its points.
        entries = system.points()
    elif len(blocks) == 1:
        return _pattern_route(system, blocks, (1, 4))
    else:
        # Some other block meets b1 in exactly one point; anchor on it.
        b1, b2 = blocks[0], blocks[1]
        shared = next(p for p in b2 if p in b1)
        two, three = sorted(p for p in b1 if p != shared)
        a_pt, b_pt = sorted(p for p in b2 if p != shared)
        # b2 is the shared point plus a_pt and b_pt.
        covered = system.block_masks[0] | system.block_masks[1]
        pool = [p for p in system.points() if not covered >> p & 1]
        if pool:
            entries = [shared, pool[0], two, three, a_pt, b_pt, *pool[1:]]
        else:
            entries = [shared, two, a_pt, b_pt, three]
    return _verified(system, entries, "the nu <= 1 construction")


#: Positional patterns of the paper's constructions, keyed by (packing
#: number, order); the key (1, 4) serves a system with one block at
#: every order from 4 up, the order-9 key of packing number 2 every
#: order from 9 up, and the order-12 key of packing number 3 every
#: order from 12 up.  Entry k names the label placed at position k:
#: labels 0-2 are the first block in role order, 3-5 the second, then
#: the third block's labels (packing number 3) and the extra points.
_PATTERNS = {
    (1, 4): (0, 1, 3, 2),
    (2, 6): (0, 1, 3, 4, 2, 5),
    (2, 7): (0, 1, 3, 6, 4, 2, 5),
    (2, 8): (0, 1, 3, 2, 6, 4, 5, 7),
    (2, 9): (0, 1, 3, 2, 4, 6, 5, 7, 8),
    (3, 9): (6, 7, 3, 8, 4, 0, 5, 1, 2),
    (3, 10): (0, 3, 4, 6, 5, 7, 2, 8, 9, 1),
    (3, 11): (10, 0, 1, 3, 2, 4, 6, 5, 7, 9, 8),
    (3, 12): (0, 1, 3, 2, 4, 6, 5, 7, 9, 8, 10, 11),
}


def _first_admissible(system, blocks, pattern) -> Optional[list[int]]:
    """First labeling of ``pattern`` whose sequence is admissible.

    The points outside ``blocks`` are taken in canonical order: the
    first ``len(pattern) - 3 * len(blocks)`` are the pattern's extra
    labels and the rest are appended after it.  Runs through the role
    orders of ``blocks``, then the labels within each block and of the
    extra points (the last group fastest), places them by ``pattern``
    and appends the rest.  Returns the entries, or None when no
    labeling is admissible.
    """
    covered = 0
    for blk in blocks:
        covered |= blk.mask
    outside = [p for p in system.points() if not covered >> p & 1]
    k = len(pattern) - 3 * len(blocks)
    extras, tail = outside[:k], outside[k:]
    for roles in itertools.permutations(blocks):
        groups = [itertools.permutations(blk.points) for blk in roles]
        for labels in itertools.product(*groups, itertools.permutations(extras)):
            flat = [p for group in labels for p in group]
            entries = [flat[i] for i in pattern] + tail
            if not _pykernels.inadmissible_scan(system, entries, True):
                return entries
    return None


def _pattern_route(system, blocks, key) -> Sequence:
    entries = _first_admissible(system, blocks, _PATTERNS[key])
    if entries is None:
        raise RuntimeError(
            f"internal error: no labeling of the {key} pattern is admissible "
            f"for order {system.n}"
        )
    return Sequence(tuple(entries))


def pi_template_instantiate(system: TripleSystem, disjoint_blocks) -> Labeling:
    """Search all labelings of the fixed 12-point positional pattern.

    Runs through role assignments of the three disjoint blocks, the
    within-block labels, and the three leftover points in a fixed order
    (3! * 6^3 * 3! candidates), returning the first labeling whose
    induced sequence is admissible.  On an order-12 system with exactly
    three disjoint blocks a hit is guaranteed; NoAdmissibleLabeling
    therefore signals a packing number of four or more, or a genuine
    counterexample, and must be surfaced loudly.
    """
    if system.n != 12:
        raise ValueError(f"the positional template needs order 12, got {system.n}")
    d = tuple(disjoint_blocks)
    if len(d) != 3:
        raise ValueError(f"need exactly three disjoint blocks, got {len(d)}")
    cover = 0
    for blk in d:
        if not system.is_block(blk.points):
            raise ValueError(f"{blk.points} is not a block of the system")
        if cover & blk.mask:
            raise ValueError("the given blocks are not pairwise disjoint")
        cover |= blk.mask
    pattern = _PATTERNS[3, 12]
    entries = _first_admissible(system, d, pattern)
    if entries is None:
        raise NoAdmissibleLabeling(
            "no labeling of the 12-point pattern is admissible; either the system "
            "has four disjoint blocks or this instance is a reportable defect"
        )
    labels = [entries[pattern.index(i)] for i in range(12)]
    return Labeling(
        block_roles=tuple(next(b for b in d if labels[i] in b) for i in (0, 3, 6)),
        assignment=dict(zip("123456789abc", labels)),
        sequence=Sequence(tuple(entries)),
    )


def interleave_large(system: TripleSystem, k: int) -> Sequence:
    """Thread a maximum packing through the other points, then repair.

    Packing points are spread out with runs of outside points between
    consecutive ones (five per gap when the order allows, else as even
    as possible).  With five outside points in every gap, that is for
    n >= 18k - 5, segments longer than three cannot collect enough
    packing points to partition.  Block 3-segments are repaired by
    swapping an adjacent outside point.  Below 18k - 5 a 6-segment can
    span a short gap and split into two blocks, which the repair does
    not fix; that attempt fails and the next reseeds the order of the
    outside points, until the scan finds no segment or the attempt
    budget runs out.
    """
    if not _is_plain_int(k):
        raise ValueError(f"packing number must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"interleaving needs packing number >= 1, got {k}")
    result = max_disjoint_blocks(system)
    if result.nu != k:
        raise ValueError(f"system has packing number {result.nu}, not {k}")
    if system.n < 15 * k - 5:
        raise ValueError(
            f"interleaving needs order >= {15 * k - 5} for packing number {k}, "
            f"got {system.n}"
        )
    return _interleave(system, result)


def _interleave(system: TripleSystem, result: PackingResult) -> Sequence:
    # The body of ``interleave_large`` for a maximum packing already
    # computed and checked against the order.
    k = result.nu
    u_points = [p for blk in result.witness for p in blk.points]
    u_set = set(u_points)
    outside = sorted(p for p in system.points() if p not in u_set)
    gaps = 3 * k - 1

    for attempt in range(REPAIR_ATTEMPTS):
        vs = list(outside)
        if attempt:
            random.Random(attempt).shuffle(vs)
        entries = _interleave_order(u_points, vs, gaps)
        repaired = _repair_three_segments(system, entries, u_set)
        if repaired is not None:
            return Sequence(tuple(repaired))
    raise RepairFailed(
        f"no admissible interleaving found in {REPAIR_ATTEMPTS} seeded attempts"
    )


def _interleave_order(u_points, vs, gaps):
    if len(vs) >= 5 * gaps:
        sizes = [5] * gaps
    else:
        q, r = divmod(len(vs), gaps)
        sizes = [q + 1] * r + [q] * (gaps - r)
    entries = [u_points[0]]
    vi = 0
    for g in range(gaps):
        entries.extend(vs[vi : vi + sizes[g]])
        vi += sizes[g]
        entries.append(u_points[g + 1])
    entries.extend(vs[vi:])
    return entries


def _repair_three_segments(system, entries, u_set):
    # One scan a step: no splitting segment returns the entries, a block
    # 3-segment is repaired, a longer segment fails the attempt.
    n = len(entries)
    seen = {tuple(entries)}
    for _ in range(20 * n):
        hits = _pykernels.inadmissible_scan(system, entries, True)
        if not hits:
            return entries
        pos, length, _ = hits[0]
        if length > 3:
            return None
        window = entries[pos : pos + 3]
        in_u = [i for i, e in enumerate(window) if e in u_set]
        if len(in_u) != 1:
            raise RuntimeError(
                "internal error: a block segment without exactly one packing point"
            )
        if in_u[0] == 0:
            swaps = [(pos + 2, pos + 3), (pos - 1, pos + 1)]
        elif in_u[0] == 1:
            swaps = [(pos - 1, pos), (pos + 2, pos + 3)]
        else:
            swaps = [(pos - 1, pos), (pos + 1, pos + 3)]
        done = False
        for i, j in swaps:
            if 0 <= i < n and 0 <= j < n and entries[i] not in u_set and entries[j] not in u_set:
                entries[i], entries[j] = entries[j], entries[i]
                state = tuple(entries)
                if state in seen:
                    entries[i], entries[j] = entries[j], entries[i]
                    continue
                seen.add(state)
                done = True
                break
        if not done:
            return None
    return None


def construct(system: TripleSystem, budget: Optional[int] = DEFAULT_BUDGET) -> Sequence:
    """Build an admissible sequence, choosing the proof-backed route.

    Dispatches on the exact disjoint-block number: for at most one
    disjoint block, direct recipes or, with a single block, the
    positional-pattern search; the pattern search for two and for
    three; the interleaving construction for large sparse systems; and
    exhaustive search as a last resort, within ``budget`` nodes.  Every
    returned sequence has passed the admissibility checker.
    """
    _checked_budget(budget)
    result = max_disjoint_blocks(system)
    nu = result.nu
    if nu <= 1:
        return _construct_nu_le1(system)
    if nu == 2:
        # From order 9 on, the pattern takes three outside points.
        return _pattern_route(system, result.witness, (2, min(system.n, 9)))
    if nu == 3:
        n = system.n
        if n == 9:
            # Roles reversed, the first two labelings are the paper's
            # and its 2<->3 swap.
            return _pattern_route(system, result.witness[::-1], (3, 9))
        # From order 12 on, the paper's extension searched on the whole
        # system: the 12-point pattern with the other points appended.
        return _pattern_route(system, result.witness, (3, min(n, 12)))
    if system.n >= 15 * nu - 5:
        return _interleave(system, result)
    decision = decide(system, budget=budget)
    if decision.outcome is Outcome.SEQUENCEABLE:
        return decision.witness
    if decision.outcome is Outcome.NOT_SEQUENCEABLE:
        raise NotSequenceableSystem(
            f"search exhausted after {decision.nodes_explored} nodes: "
            "no admissible sequence exists"
        )
    raise BudgetExhausted(
        f"search budget spent ({decision.nodes_explored} nodes) without a verdict"
    )


_STS13_BASES = ((0, 1, 4), (0, 2, 7))


def verify_sts13_certificate() -> Sts13Certificate:
    """Certify that the cyclic order-13 system is not sequenceable.

    Develops the system from its two base blocks, then for every vertex
    asks ``partition_into_blocks`` for four disjoint blocks of the
    system covering the other 12 points.  Once every vertex has such a
    family, any permutation has partitionable 12-segments after
    dropping its first or last entry, so no admissible sequence exists.
    Each family is vertex 11's turned by the entry's ``exponent``.
    """
    system = cyclic_system(CyclicBase(13, _STS13_BASES))
    # The blocks are pair-disjoint, so 26 of them cover 26 * 3 = 78 =
    # C(13, 2) pairs: every pair once, a Steiner triple system.
    if len(system.blocks) != 26:
        raise CertificateFailure(f"expected 26 blocks, built {len(system.blocks)}")
    entries = []
    for vertex in range(13):
        witness = partition_into_blocks([p for p in range(13) if p != vertex], system)
        if witness is None:
            raise CertificateFailure(f"no four disjoint blocks avoid vertex {vertex}")
        entries.append(CertificateEntry(vertex, (vertex - 11) % 13, witness.parts))
    return Sts13Certificate(entries=tuple(entries), system=system)
