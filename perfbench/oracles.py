"""Independent correctness oracles for the benchmark.

Nothing here imports ``pstseq``: every verdict the program gives is
re-derived from the raw triples with plain set arithmetic and different
search orders, so a defect in the program's kernels cannot hide itself.

A system is ``(n, blocks)``: points ``0..n-1`` and a list of 3-point
tuples.  A sequence is admissible when no proper segment of it is a
disjoint union of blocks.
"""

from __future__ import annotations


class Violation(Exception):
    """A program output that the oracles refute or cannot back."""


def _family(blocks):
    return [frozenset(b) for b in blocks]


def exact_cover(points, blocks):
    """Blocks that partition ``points`` exactly, or None.

    Branches on the point with the fewest usable blocks (the program
    branches on the least-index point, so the two searches differ).
    """
    target = frozenset(points)
    if len(target) % 3:
        return None
    inside = [b for b in _family(blocks) if b <= target]
    return _cover(set(target), inside)


def _cover(left, blocks):
    if not left:
        return []
    through = {p: [] for p in left}
    for b in blocks:
        for p in b:
            through[p].append(b)
    p = min(left, key=lambda q: len(through[q]))
    for b in through[p]:
        sub = _cover(left - b, [c for c in blocks if not c & b])
        if sub is not None:
            return [tuple(sorted(b))] + sub
    return None


def bad_segment(n, blocks, seq):
    """First proper segment of ``seq`` that splits into blocks.

    Returns ``(start, length, cover)`` or None when ``seq`` is
    admissible.  Raises Violation when ``seq`` is not a permutation of
    the ``n`` points.
    """
    seq = list(seq)
    if sorted(seq) != list(range(n)):
        raise Violation(f"witness is not a permutation of {n} points: {seq}")
    fam = _family(blocks)
    for length in range(3, n, 3):
        for start in range(n - length + 1):
            cover = exact_cover(seq[start : start + length], fam)
            if cover is not None:
                return start, length, cover
    return None


def check_witness(n, blocks, seq, context):
    """Raise Violation unless ``seq`` is an admissible ordering."""
    hit = bad_segment(n, blocks, seq)
    if hit is not None:
        start, length, cover = hit
        raise Violation(
            f"{context}: witness segment at {start} of length {length} "
            f"splits into blocks {cover}"
        )


def packing_number(blocks):
    """Largest number of pairwise disjoint blocks.

    Branches on a point of least positive degree: either no chosen
    block covers it, or one of its blocks does.  Bounded by the blocks
    left and by the points they cover.
    """
    best = 0

    def rec(fam, count):
        nonlocal best
        if count > best:
            best = count
        if not fam:
            return
        covered = frozenset().union(*fam)
        if count + min(len(fam), len(covered) // 3) <= best:
            return
        degree = {}
        for b in fam:
            for p in b:
                degree[p] = degree.get(p, 0) + 1
        p = min(degree, key=lambda q: (degree[q], q))
        for b in [b for b in fam if p in b]:
            rec([c for c in fam if not c & b], count + 1)
        rec([c for c in fam if p not in c], count)

    rec(_family(blocks), 0)
    return best


def vertex_deletion_certificate(n, blocks):
    """For every point, blocks partitioning the other ``n - 1`` points.

    Such a family for every point proves the system is not
    sequenceable: whatever entry a sequence starts with, the remaining
    proper segment splits into blocks.  Returns a list indexed by point,
    or None when some point has no family.
    """
    out = []
    for v in range(n):
        cover = exact_cover([p for p in range(n) if p != v], blocks)
        if cover is None:
            return None
        out.append(cover)
    return out


def check_certificate(n, blocks, cert):
    """Raise Violation unless ``cert`` is a valid vertex-deletion certificate."""
    known = {frozenset(b) for b in blocks}
    if cert is None or len(cert) != n:
        raise Violation("no vertex-deletion certificate")
    for v, family in enumerate(cert):
        seen = set()
        for b in family:
            if frozenset(b) not in known:
                raise Violation(f"certificate for point {v}: {b} is not a block")
            if seen & set(b):
                raise Violation(f"certificate for point {v}: blocks overlap")
            seen |= set(b)
        if seen != set(range(n)) - {v}:
            raise Violation(f"certificate for point {v} does not cover the other points")


def exhaustive_search(n, blocks, cap):
    """Independent depth-first search for an admissible ordering.

    Prunes a prefix as soon as a segment ending at its last entry splits
    into blocks.  Returns ``(witness or None, complete)``; ``complete`` is
    False when ``cap`` prefixes were tried without finishing the tree.
    """
    fam = _family(blocks)
    seq = []
    tried = 0

    def rec():
        nonlocal tried
        if len(seq) == n:
            return True
        for p in range(n):
            if p in seq:
                continue
            if tried >= cap:
                return False
            tried += 1
            seq.append(p)
            k = len(seq)
            ok = all(
                exact_cover(seq[k - length :], fam) is None
                for length in range(3, min(k, n - 1) + 1, 3)
            )
            if ok and rec():
                return True
            seq.pop()
        return False

    found = rec()
    return (list(seq) if found else None), found or tried < cap


def check_negative(n, blocks, cert=None, cap=200_000):
    """Raise Violation unless a not-sequenceable verdict is backed.

    The vertex-deletion certificate is tried first; orders where it
    cannot exist fall back to the independent exhaustive search.
    """
    if cert is None and n % 3 == 1:
        cert = vertex_deletion_certificate(n, blocks)
    if cert is not None:
        check_certificate(n, blocks, cert)
        return
    witness, complete = exhaustive_search(n, blocks, cap)
    if witness is not None:
        raise Violation(f"verdict not-sequenceable, but {witness} is admissible")
    if not complete:
        raise Violation("not-sequenceable verdict has no certificate the oracles can check")
