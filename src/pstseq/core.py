"""Partial Steiner triple systems and admissibility of sequences.

A system is a set of ``n`` points together with 3-element blocks, no two
blocks sharing a pair of points.  Points not covered by any block are
allowed and count toward the order.  A sequence of all points is
*admissible* when no proper segment of it is a disjoint union of blocks;
a system admitting an admissible sequence is *sequenceable*.

Everything here is pure and the system object is immutable after
validation, apart from the compiled partition index the kernels cache
on it at first use (``TripleSystem._native``); that index never changes
an answer and never travels: pickle and ``copy`` rebuild a system from
its order, blocks and labels.  So instances are safe to share across
threads or processes.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Optional

from . import _pykernels
from .errors import (
    InputError,
    PairInTwoBlocks,
    PointOutOfRange,
    RepeatedPointInBlock,
    SequenceNotPermutation,
)


class _Record:
    """Immutable record: ``==``, ``hash`` and ``repr`` over its fields.

    A subclass declares its fields as class annotations, in ``repr``
    order, and ``__init_subclass__`` collects their names into
    ``_fields`` without evaluating them.  ``__init__`` binds its
    arguments to the fields by position or by name and writes them into
    the instance ``__dict__`` in field order; a subclass that checks its
    input stores through ``super().__init__``.  Equality holds only
    between instances of one class, and the hash is that of the tuple of
    field values, as for a frozen dataclass.  Assignment and deletion
    raise AttributeError; pickle and ``copy`` restore the ``__dict__``
    without calling ``__setattr__`` or ``__init__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args), **kwargs)
            # A field given by position and by name makes the count too
            # high; a missing field or an unknown name changes the keys.
            if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
                raise TypeError(
                    f"{self.__class__.__qualname__}() takes the fields {fields}, "
                    f"got {len(args)} by position and {tuple(kwargs)} by name"
                )
            args = [values[f] for f in fields]
        self.__dict__.update(zip(fields, args))

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        inner = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@functools.total_ordering
class Block(_Record):
    """A block: three distinct points, stored in ascending order.

    Blocks order by their point tuples.
    """

    points: tuple[int, int, int]

    def __init__(self, points: tuple[int, int, int]):
        if len(points) != 3 or len(set(points)) != 3:
            raise RepeatedPointInBlock(f"not a triple of distinct points: {points}")
        super().__init__(tuple(sorted(points)))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.points < other.points
        return NotImplemented

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

    Skips the checks of ``Block.__init__``: the caller has made them on
    the plain tuple.
    """
    blk = object.__new__(Block)
    blk.__dict__["points"] = points
    return blk


class Sequence(_Record):
    """A candidate witness: a permutation of all points of a system."""

    entries: tuple[int, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def reversed(self) -> "Sequence":
        return Sequence(tuple(reversed(self.entries)))


class Segment(_Record):
    """Positions ``start .. start+length-1`` of a sequence."""

    start: int
    length: int


class PartitionWitness(_Record):
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


def _pair_map(blocks) -> dict[tuple[int, int], Block]:
    """Each pair of each block mapped to the block, for pair-disjoint blocks."""
    pairs = {}
    for blk in blocks:
        a, b, c = blk.points
        pairs[a, b] = pairs[a, c] = pairs[b, c] = blk
    return pairs


class TripleSystem:
    """Validated point set plus edge-disjoint block family.

    ``labels`` maps dense indices 0..n-1 back to the input tokens;
    ``block_masks`` holds each block's points as a bitmask;
    ``lead[p]`` lists the ``(mask, id)`` pairs of the blocks whose least
    point is ``p``, in canonical order: the only blocks that can cover
    ``p`` inside a point set whose least point is ``p``; ``triples``
    holds each block's points in ascending order; ``pair_index`` maps
    each covered unordered pair to its unique block.  The kernels of
    ``_pykernels`` take the system itself and read ``n``,
    ``block_masks``, ``lead`` and ``triples``.  The constructor checks
    the pairs with one adjacency bitmask per point and raises
    PairInTwoBlocks, naming both blocks, at the first pair covered
    twice; the same loop builds ``block_masks``, ``lead`` and ``triples``.
    ``pair_index`` is built on first use: only the pair lookups
    ``block_of_pair`` and ``is_block`` read it.  So is the label-to-index
    map, which only ``index_of`` reads, and so is ``_native``, the
    compiled partition index of ``_pykernels`` (False where there is
    none).  Pickling and copying rebuild the system from ``(n, blocks,
    labels)``, so none of these travels.
    """

    __slots__ = ("n", "blocks", "labels", "block_masks", "lead", "triples",
                 "_pair_index", "_label_to_index", "_native")

    def __init__(self, n: int, blocks: tuple[Block, ...], labels: tuple[str, ...]):
        self.n = n
        self.blocks = blocks
        self.labels = labels
        adj = [0] * n
        masks = []
        lead = [[] for _ in range(n)]
        triples = []
        for i, blk in enumerate(blocks):
            pts = blk.points
            a, b, c = pts
            if adj[a] >> b & 1 or adj[a] >> c & 1 or adj[b] >> c & 1:
                self._raise_pair_in_two_blocks(i)
            m = 1 << a | 1 << b | 1 << c
            adj[a] |= m
            adj[b] |= m
            adj[c] |= m
            masks.append(m)
            lead[a].append((m, i))
            triples.append(pts)
        self.block_masks = tuple(masks)
        self.lead = tuple(map(tuple, lead))
        self.triples = tuple(triples)
        self._pair_index = None
        self._label_to_index = None
        self._native = None

    def __reduce__(self):
        return TripleSystem, (self.n, self.blocks, self.labels)

    @property
    def pair_index(self) -> Mapping[tuple[int, int], Block]:
        if self._pair_index is None:
            self._pair_index = _pair_map(self.blocks)
        return self._pair_index

    def _raise_pair_in_two_blocks(self, i: int):
        # The blocks before ``i`` are pair-disjoint, so their pair map
        # names the one block that ``blocks[i]`` collides with.
        earlier = _pair_map(self.blocks[:i])
        blk = self.blocks[i]
        a, b, c = blk.points
        pair = next(p for p in ((a, b), (a, c), (b, c)) if p in earlier)
        raise PairInTwoBlocks(
            f"pair {self._pair_repr(pair)} lies in two blocks: "
            f"{self.block_labels(earlier[pair])} and {self.block_labels(blk)}"
        )

    def _pair_repr(self, pair):
        return "{" + ", ".join(self.labels[p] for p in pair) + "}"

    # -- label helpers -------------------------------------------------

    def index_of(self, label) -> int:
        if self._label_to_index is None:
            self._label_to_index = {lab: i for i, lab in enumerate(self.labels)}
        try:
            return self._label_to_index[str(label)]
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
        pts = set(points)
        for p in pts:
            if not (_is_plain_int(p) and 0 <= p < self.n):
                raise PointOutOfRange(f"point index {p!r} outside [0, {self.n})")
        pts = sorted(pts)
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


def _is_plain_int(v) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_token(tok: str) -> bool:
    """True when ``int(tok)`` reads ``tok``: an optional ``-``, then decimal digits."""
    return tok.isdecimal() or (tok[:1] == "-" and tok[1:].isdecimal())


def _index_token(v):
    """``v`` as a point index by the integer-token rule, else None.

    An ``int`` other than a ``bool`` becomes a plain ``int`` (an
    ``IntEnum`` member gives its value); a ``str`` that ``int`` reads as
    a signed decimal is converted.  The range is not checked here.
    """
    if isinstance(v, int):
        return None if isinstance(v, bool) else int(v)
    if isinstance(v, str) and _is_int_token(v):
        return int(v)
    return None


def _index_rows(triples, n: int):
    """Sorted index rows when every token is an index in [0, n), else None.

    One pass: each row is converted, sorted with at most three compares
    and range-checked.  A row of three ``int`` or three unsigned decimal
    ``str`` tokens (as read from a file) is converted inline; any other
    row goes through ``_index_token``.  The first row with a repeated
    point raises RepeatedPointInBlock, but only once every token has
    proved an index: next to a row of labels the same tokens are
    distinct labels.
    """
    rows = []
    repeated = None
    for t in triples:
        a, b, c = t
        if type(a) is not int or type(b) is not int or type(c) is not int:
            if (
                type(a) is str and type(b) is str and type(c) is str
                and a.isdecimal() and b.isdecimal() and c.isdecimal()
            ):
                a, b, c = int(a), int(b), int(c)
            else:
                a, b, c = map(_index_token, t)
                if a is None or b is None or c is None:
                    return None
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        if a < 0 or c >= n:
            return None
        if (a == b or b == c) and repeated is None:
            repeated = t
        rows.append((a, b, c))
    if repeated is not None:
        raise RepeatedPointInBlock(f"block repeats a point: {repeated!r}")
    return rows


def validate_system(n: int, raw_blocks: Iterable) -> TripleSystem:
    """Build a TripleSystem from raw triples of labels or indices.

    When every token is an integer in [0, n) the tokens are taken as
    point indices and labels become their decimal strings; otherwise
    tokens are opaque labels, indexed by first appearance, and points
    never named get synthetic labels.  Raises RepeatedPointInBlock,
    PairInTwoBlocks or PointOutOfRange on malformed input.

    Index tokens are read in one pass (``_index_rows``); the first token
    that is not an index sends the rows to the label path.  Either path
    gives sorted rows with no repeated point; then the rows are sorted
    and checked for a block listed twice, and only then are the Blocks
    built, without repeating those checks.
    """
    if not _is_plain_int(n):
        raise InputError(f"order must be an integer, got {n!r}")
    if n < 0:
        raise PointOutOfRange(f"order must be nonnegative, got {n}")
    triples = [tuple(t) for t in raw_blocks]
    for t in triples:
        if len(t) != 3:
            raise RepeatedPointInBlock(f"block must have exactly 3 points: {t!r}")

    rows = _index_rows(triples, n)
    if rows is not None:
        labels = tuple(map(str, range(n)))
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
    if (
        len(entries) != system.n
        or set(entries) != set(range(system.n))
        or not all(map(_is_plain_int, entries))
    ):
        raise SequenceNotPermutation(
            f"sequence of length {len(entries)} is not a permutation of "
            f"{system.n} points"
        )
    return entries


def _checked_budget(budget: Optional[int]) -> Optional[int]:
    if budget is None:
        return None
    if not _is_plain_int(budget):
        raise InputError(f"node budget must be an integer or None, got {budget!r}")
    if budget < 0:
        raise InputError(f"node budget must be non-negative, got {budget}")
    return budget


def _mask_of(points: Iterable[int], system: TripleSystem) -> int:
    m = 0
    for p in points:
        if not (_is_plain_int(p) and 0 <= p < system.n):
            raise PointOutOfRange(f"point index {p!r} outside [0, {system.n})")
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
    ids = _pykernels.find_partition(system, mask)
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
    hits = _pykernels.inadmissible_scan(system, list(entries), False)
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
    return not _pykernels.inadmissible_scan(system, list(entries), True)
