"""Partial Steiner triple systems and admissibility of sequences.

A system is a set of ``n`` points together with 3-element blocks, no two
blocks sharing a pair of points.  Points not covered by any block are
allowed and count toward the order.  A sequence of all points is
*admissible* when no proper segment of it is a disjoint union of blocks;
a system admitting an admissible sequence is *sequenceable*.

Everything here is pure and the system object is immutable after
validation, so instances are safe to share across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from . import _pykernels
from .errors import (
    InputError,
    PairInTwoBlocks,
    PointOutOfRange,
    RepeatedPointInBlock,
    SequenceNotPermutation,
)


@dataclass(frozen=True, order=True)
class Block:
    """A block: three distinct points, stored in ascending order."""

    points: tuple[int, int, int]

    def __post_init__(self):
        if len(self.points) != 3 or len(set(self.points)) != 3:
            raise RepeatedPointInBlock(f"not a triple of distinct points: {self.points}")
        if tuple(sorted(self.points)) != self.points:
            object.__setattr__(self, "points", tuple(sorted(self.points)))

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point):
        return point in self.points

    @property
    def mask(self) -> int:
        a, b, c = self.points
        return (1 << a) | (1 << b) | (1 << c)


def _sorted_block(points: tuple[int, int, int]) -> Block:
    """A Block from three distinct points already in ascending order.

    Skips the checks of ``Block.__post_init__``: the caller has made
    them on the plain tuple.
    """
    blk = object.__new__(Block)
    object.__setattr__(blk, "points", points)
    return blk


@dataclass(frozen=True)
class Sequence:
    """A candidate witness: a permutation of all points of a system."""

    entries: tuple[int, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def reversed(self) -> "Sequence":
        return Sequence(tuple(reversed(self.entries)))


@dataclass(frozen=True)
class Segment:
    """Positions ``start .. start+length-1`` of a sequence."""

    start: int
    length: int


@dataclass(frozen=True)
class PartitionWitness:
    """Pairwise disjoint blocks whose union is the witnessed point set."""

    parts: tuple[Block, ...]

    def point_set(self) -> frozenset[int]:
        return frozenset(p for blk in self.parts for p in blk)

    def mask(self) -> int:
        m = 0
        for blk in self.parts:
            m |= blk.mask
        return m


def _checked_witness(parts: tuple[Block, ...], expected_mask: int) -> PartitionWitness:
    m = 0
    for blk in parts:
        if m & blk.mask:
            raise AssertionError(f"witness parts overlap: {parts}")
        m |= blk.mask
    if m != expected_mask:
        raise AssertionError("witness union differs from the witnessed set")
    return PartitionWitness(parts)


class TripleSystem:
    """Validated point set plus edge-disjoint block family.

    ``labels`` maps dense indices 0..n-1 back to the input tokens;
    ``pair_index`` maps each covered unordered pair to its unique block;
    ``block_masks`` holds each block's points as a bitmask.  Both are
    built in one pass over the blocks, which raises PairInTwoBlocks,
    naming both blocks, at the first pair covered twice.
    """

    __slots__ = ("n", "blocks", "labels", "pair_index", "block_masks", "_kernel", "_label_to_index")

    def __init__(self, n: int, blocks: tuple[Block, ...], labels: tuple[str, ...]):
        self.n = n
        self.blocks = blocks
        self.labels = labels
        pair_index: dict[tuple[int, int], Block] = {}
        masks = []
        for blk in blocks:
            a, b, c = blk.points
            ab, ac, bc = (a, b), (a, c), (b, c)
            if ab in pair_index or ac in pair_index or bc in pair_index:
                pair = ab if ab in pair_index else ac if ac in pair_index else bc
                raise PairInTwoBlocks(
                    f"pair {self._pair_repr(pair)} lies in two blocks: "
                    f"{self.block_labels(pair_index[pair])} and {self.block_labels(blk)}"
                )
            pair_index[ab] = pair_index[ac] = pair_index[bc] = blk
            masks.append(1 << a | 1 << b | 1 << c)
        self.pair_index: Mapping[tuple[int, int], Block] = pair_index
        self.block_masks = tuple(masks)
        self._kernel = _pykernels.prepare(n, self.block_masks)
        self._label_to_index = {lab: i for i, lab in enumerate(labels)}

    def _pair_repr(self, pair):
        return "{" + ", ".join(self.labels[p] for p in pair) + "}"

    # -- label helpers -------------------------------------------------

    def index_of(self, label) -> int:
        key = str(label)
        try:
            return self._label_to_index[key]
        except KeyError:
            raise PointOutOfRange(f"unknown point label: {label!r}") from None

    def block_labels(self, blk: Block) -> tuple[str, str, str]:
        return tuple(self.labels[p] for p in blk.points)

    def sequence_labels(self, seq: "Sequence | Iterable[int]") -> list[str]:
        return [self.labels[p] for p in _entries_of(seq)]

    def sequence_from_labels(self, tokens: Iterable) -> Sequence:
        return Sequence(tuple(self.index_of(t) for t in tokens))

    # -- structure helpers ---------------------------------------------

    def points(self) -> range:
        return range(self.n)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def block_of_pair(self, a: int, b: int) -> Optional[Block]:
        if a > b:
            a, b = b, a
        return self.pair_index.get((a, b))

    def is_block(self, points: Iterable[int]) -> bool:
        pts = tuple(sorted(points))
        if len(pts) != 3:
            return False
        blk = self.block_of_pair(pts[0], pts[1])
        return blk is not None and blk.points == pts

    def subsystem(self, points: Iterable[int]) -> tuple["TripleSystem", dict[int, int]]:
        """Induced system on ``points``; also returns old->new index map."""
        pts = sorted(set(points))
        back = {old: new for new, old in enumerate(pts)}
        # ``back`` is increasing, so each mapped block stays in ascending
        # order and needs no re-check.
        rows = []
        for blk in self.blocks:
            a, b, c = blk.points
            if a in back and b in back and c in back:
                rows.append((back[a], back[b], back[c]))
        rows.sort()
        sub = TripleSystem(
            len(pts),
            tuple(map(_sorted_block, rows)),
            tuple(self.labels[p] for p in pts),
        )
        return sub, back

    def __eq__(self, other):
        return (
            isinstance(other, TripleSystem)
            and self.n == other.n
            and self.blocks == other.blocks
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.n, self.blocks, self.labels))

    def __repr__(self):
        return f"TripleSystem(n={self.n}, blocks={len(self.blocks)})"


def _is_int_token(tok: str) -> bool:
    """True when ``int(tok)`` reads ``tok``: an optional ``-``, then decimal digits."""
    return tok.isdecimal() or (tok[:1] == "-" and tok[1:].isdecimal())


def _all_index_tokens(raw_blocks, n: int):
    """Interpret tokens as dense indices when every one is an int in [0, n)."""
    out = []
    for triple in raw_blocks:
        row = []
        for v in triple:
            if type(v) is not int:
                if isinstance(v, str) and _is_int_token(v):
                    v = int(v)
                elif isinstance(v, bool) or not isinstance(v, int):
                    return None
            if not 0 <= v < n:
                return None
            row.append(v)
        out.append(row)
    return out


def validate_system(n: int, raw_blocks: Iterable) -> TripleSystem:
    """Build a TripleSystem from raw triples of labels or indices.

    When every token is an integer in [0, n) the tokens are taken as
    point indices and labels become their decimal strings; otherwise
    tokens are opaque labels, indexed by first appearance, and points
    never named get synthetic labels.  Raises RepeatedPointInBlock,
    PairInTwoBlocks or PointOutOfRange on malformed input.

    The checks run on plain ``(a, b, c)`` tuples: every row is sorted
    and checked for a repeated point, then the rows are sorted and
    checked for a block listed twice, and only then are the Blocks
    built, without repeating those checks.
    """
    if n < 0:
        raise PointOutOfRange(f"order must be nonnegative, got {n}")
    triples = [tuple(t) for t in raw_blocks]
    for t in triples:
        if len(t) != 3:
            raise RepeatedPointInBlock(f"block must have exactly 3 points: {t!r}")

    indexed = _all_index_tokens(triples, n)
    if indexed is not None:
        labels = tuple(str(i) for i in range(n))
        index_triples = indexed
    else:
        label_map: dict[str, int] = {}
        index_triples = []
        for t in triples:
            row = []
            for tok in t:
                key = str(tok)
                if key not in label_map:
                    label_map[key] = len(label_map)
                row.append(label_map[key])
            index_triples.append(row)
        if len(label_map) > n:
            raise PointOutOfRange(
                f"{len(label_map)} distinct labels exceed the declared order {n}"
            )
        labels_list = [None] * n
        for key, idx in label_map.items():
            labels_list[idx] = key
        used = set(label_map)
        for i in range(n):
            if labels_list[i] is None:
                synth = str(i)
                while synth in used:
                    synth = "_" + synth
                labels_list[i] = synth
                used.add(synth)
        labels = tuple(labels_list)

    rows = []
    for t, row in zip(triples, index_triples):
        a, b, c = sorted(row)
        if a == b or b == c:
            raise RepeatedPointInBlock(f"block repeats a point: {t!r}")
        rows.append((a, b, c))
    rows.sort()
    for prev, row in zip(rows, rows[1:]):
        if prev == row:
            raise PairInTwoBlocks(f"block listed twice: {row}")
    return TripleSystem(n, tuple(map(_sorted_block, rows)), labels)


def _entries_of(seq) -> tuple[int, ...]:
    if isinstance(seq, Sequence):
        return seq.entries
    return tuple(seq)


def _checked_permutation(seq, system: TripleSystem) -> tuple[int, ...]:
    entries = _entries_of(seq)
    if len(entries) != system.n or set(entries) != set(range(system.n)):
        raise SequenceNotPermutation(
            f"sequence of length {len(entries)} is not a permutation of "
            f"{system.n} points"
        )
    return entries


def _checked_budget(budget: Optional[int]) -> Optional[int]:
    if budget is None:
        return None
    if type(budget) is bool or not isinstance(budget, int):
        raise InputError(f"node budget must be an integer or None, got {budget!r}")
    if budget < 0:
        raise InputError(f"node budget must be non-negative, got {budget}")
    return budget


def _mask_of(points: Iterable[int], system: TripleSystem) -> int:
    m = 0
    for p in points:
        if not 0 <= p < system.n:
            raise PointOutOfRange(f"point index {p} outside [0, {system.n})")
        m |= 1 << p
    return m


def partition_into_blocks(
    point_set: Iterable[int], system: TripleSystem
) -> Optional[PartitionWitness]:
    """Partition the set into vertex-disjoint blocks, if possible.

    Deterministic: backtracks on the least-index uncovered point, trying
    its containing blocks in canonical order.  Absence is a value, not
    an error.
    """
    mask = _mask_of(point_set, system)
    ids = _pykernels.find_partition(system._kernel, mask)
    if ids is None:
        return None
    return _checked_witness(tuple(system.blocks[i] for i in ids), mask)


def inadmissible_segments(
    seq, system: TripleSystem
) -> list[tuple[Segment, PartitionWitness]]:
    """Every proper segment that is a disjoint union of blocks.

    Only lengths that are positive multiples of 3 and below n can
    qualify, so only those are scanned.  Empty result means the
    sequence is admissible.
    """
    entries = _checked_permutation(seq, system)
    hits = _pykernels.inadmissible_scan(system._kernel, list(entries), False)
    out = []
    for start, length, ids in hits:
        seg_mask = 0
        for p in entries[start : start + length]:
            seg_mask |= 1 << p
        witness = _checked_witness(tuple(system.blocks[i] for i in ids), seg_mask)
        out.append((Segment(start, length), witness))
    return out


def is_admissible(seq, system: TripleSystem) -> bool:
    """True when no proper segment partitions into disjoint blocks."""
    entries = _checked_permutation(seq, system)
    return not _pykernels.inadmissible_scan(system._kernel, list(entries), True)
