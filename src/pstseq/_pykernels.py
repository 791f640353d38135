"""Pure-Python search kernels.

The hot inner loops: exact partition of a point set into
vertex-disjoint blocks, the segment scan behind admissibility checking,
the depth-first sequence search, and the disjoint-block
branch-and-bound.

Point sets travel as integer bitmasks, blocks as a tuple of masks in
canonical order.  Python integers are unbounded, so there is no
limit on the order of the system.
"""

from __future__ import annotations


class PySystem:
    __slots__ = ("n", "masks", "point_blocks")

    def __init__(self, n, masks, point_blocks):
        self.n = n
        self.masks = masks
        self.point_blocks = point_blocks


def prepare(n, masks):
    """Build a search handle from block bitmasks in canonical order."""
    point_blocks = [[] for _ in range(n)]
    for bid, m in enumerate(masks):
        mm = m
        while mm:
            p = (mm & -mm).bit_length() - 1
            point_blocks[p].append(bid)
            mm &= mm - 1
    return PySystem(n, tuple(masks), tuple(tuple(b) for b in point_blocks))


def _search_partition(sys, target, parts):
    # Branch on the least-index uncovered point, blocks in canonical order.
    if target == 0:
        return True
    p = (target & -target).bit_length() - 1
    for bid in sys.point_blocks[p]:
        m = sys.masks[bid]
        if m & target == m:
            parts.append(bid)
            if _search_partition(sys, target & ~m, parts):
                return True
            parts.pop()
    return False


def find_partition(sys, mask):
    """Partition ``mask`` into disjoint blocks; block ids or None."""
    if mask.bit_count() % 3:
        return None
    parts = []
    if _search_partition(sys, mask, parts):
        return tuple(parts)
    return None


def can_partition(sys, mask):
    if mask.bit_count() % 3:
        return False
    return _search_partition(sys, mask, [])


def inadmissible_scan(sys, entries, stop_first=False):
    """All proper segments whose point set splits into disjoint blocks.

    Scans lengths 3, 6, ... below n, each over all starts; returns
    (start, length, parts) triples in (length, start) order.
    """
    n = sys.n
    pm = [0] * (n + 1)
    for i, e in enumerate(entries):
        pm[i + 1] = pm[i] | (1 << e)
    out = []
    for length in range(3, n, 3):
        for start in range(n - length + 1):
            parts = find_partition(sys, pm[start + length] ^ pm[start])
            if parts is not None:
                out.append((start, length, parts))
                if stop_first:
                    return out
    return out


#: Entries ``decide_search``'s partition memo may hold before it is cleared.
_MEMO_CAP = 1 << 16


def decide_search(sys, budget=None, exhaust=False, prefix=()):
    """Depth-first search for an admissible permutation.

    Extends prefixes by unused points in ascending order.  Two kinds of
    proper segment are tested at each new position, and any one that
    partitions into blocks prunes the branch: the segments ending at the
    new entry whose length is a multiple of 3, and the suffix after it.
    The suffix is already fixed as a point set (the unplaced points), so
    when its length is a nonzero multiple of 3 and it partitions, every
    completion is inadmissible.  Only subtrees without an admissible leaf
    are cut, so the walk order and the first witness are those of the
    search without the suffix test.  Returns (witness or None, nodes,
    exhausted).  With ``exhaust`` the walk continues past the first
    witness until the tree (or budget) is done.

    Many segments repeat as point sets across nodes, so each call keeps
    a memo of tested masks (mask -> partitions); a miss calls
    ``can_partition``.  The memo belongs to the call and is cleared when
    it holds ``_MEMO_CAP`` entries, which bounds its memory under any
    budget.  A mask's answer never changes within one system, so the
    memo alters neither the walk order, the node count nor the witness.
    """
    n = sys.n
    full = (1 << n) - 1
    entries = [0] * n
    pm = [0] * (n + 1)
    cand = [0] * (n + 1)
    used = 0
    nodes = 0
    witness = None
    base = len(prefix)
    memo = {}
    cap = _MEMO_CAP

    def partitions(mask):
        hit = memo.get(mask)
        if hit is None:
            if len(memo) >= cap:
                memo.clear()
            hit = memo[mask] = can_partition(sys, mask)
        return hit

    def segments_ok(pos):
        top = pm[pos + 1]
        length = 3
        while length <= pos + 1 and length < n:
            if partitions(top ^ pm[pos + 1 - length]):
                return False
            length += 3
        rest = n - 1 - pos
        return not (rest and rest % 3 == 0 and partitions(full ^ top))

    for i, p in enumerate(prefix):
        if budget is not None and nodes >= budget:
            return witness, nodes, False
        nodes += 1
        pm[i + 1] = pm[i] | (1 << p)
        if not segments_ok(i):
            return None, nodes, True
        entries[i] = p
        used |= 1 << p

    if n == 0:
        return [], nodes, True
    if base == n:
        return entries.copy(), nodes, True

    pos = base
    cand[pos] = 0
    while True:
        p = cand[pos]
        while p < n and (used >> p) & 1:
            p += 1
        if p >= n:
            if pos == base:
                return witness, nodes, True
            pos -= 1
            q = entries[pos]
            used &= ~(1 << q)
            cand[pos] = q + 1
            continue
        if budget is not None and nodes >= budget:
            return witness, nodes, False
        nodes += 1
        pm[pos + 1] = pm[pos] | (1 << p)
        if not segments_ok(pos):
            cand[pos] = p + 1
            continue
        entries[pos] = p
        used |= 1 << p
        pos += 1
        if pos == n:
            if witness is None:
                witness = entries.copy()
            if not exhaust:
                return witness, nodes, False
            pos -= 1
            q = entries[pos]
            used &= ~(1 << q)
            cand[pos] = q + 1
        else:
            cand[pos] = 0


def max_packing(sys, budget=None):
    """Exact maximum family of pairwise disjoint blocks.

    Branch on the first block compatible with the partial packing
    (include, then exclude); bound by remaining-points / 3.  Returns
    (size, witness ids, nodes, complete).  Branch order, bound and node
    count are part of the contract: the tests pin all four values per
    system against an independent reference copy.
    """
    n = sys.n
    masks = sys.masks
    nblocks = len(masks)
    best = 0
    witness = ()
    nodes = 0
    complete = True
    chosen = []

    def rec(i, used):
        nonlocal best, witness, nodes, complete
        if not complete:
            return
        if budget is not None and nodes >= budget:
            complete = False
            return
        nodes += 1
        j = i
        while j < nblocks and masks[j] & used:
            j += 1
        if j == nblocks:
            if len(chosen) > best:
                best = len(chosen)
                witness = tuple(chosen)
            return
        if len(chosen) + (n - used.bit_count()) // 3 <= best:
            return
        chosen.append(j)
        rec(j + 1, used | masks[j])
        chosen.pop()
        rec(j + 1, used)

    rec(0, 0)
    return best, witness, nodes, complete
