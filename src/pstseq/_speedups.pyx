# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled search kernels.

Bit-for-bit twins of the pure-Python routines in ``_pykernels``; point
sets live in 64-bit masks, so preparation rejects systems with more
than 64 points and the dispatcher falls back to the pure backend.
"""

from libc.stdlib cimport calloc, free

ctypedef unsigned long long u64

cdef extern from *:
    int __builtin_ctzll(unsigned long long) nogil
    int __builtin_popcountll(unsigned long long) nogil

DEF MAX_POINTS = 64
DEF MAX_PARTS = 22


cdef class KernelSystem:
    cdef int n
    cdef int nblocks
    cdef u64* masks
    cdef int* pb_start      # per point, offset into pb_ids; length n+1
    cdef int* pb_ids        # block ids grouped by point, ascending

    def __cinit__(self, int n, block_masks):
        if n > MAX_POINTS:
            raise ValueError("compiled kernels support at most 64 points")
        cdef int nb = len(block_masks)
        self.n = n
        self.nblocks = nb
        self.masks = <u64*> calloc(nb if nb else 1, sizeof(u64))
        self.pb_start = <int*> calloc(n + 2, sizeof(int))
        self.pb_ids = <int*> calloc(3 * nb if nb else 1, sizeof(int))
        if not self.masks or not self.pb_start or not self.pb_ids:
            raise MemoryError()
        cdef int i, p
        cdef u64 m
        for i in range(nb):
            m = <u64> block_masks[i]
            self.masks[i] = m
            while m:
                p = __builtin_ctzll(m)
                self.pb_start[p + 1] += 1
                m &= m - 1
        for p in range(n):
            self.pb_start[p + 1] += self.pb_start[p]
        cdef int* fill = <int*> calloc(n + 1 if n else 1, sizeof(int))
        if not fill:
            raise MemoryError()
        for i in range(nb):
            m = self.masks[i]
            while m:
                p = __builtin_ctzll(m)
                self.pb_ids[self.pb_start[p] + fill[p]] = i
                fill[p] += 1
                m &= m - 1
        free(fill)

    def __dealloc__(self):
        if self.masks:
            free(self.masks)
        if self.pb_start:
            free(self.pb_start)
        if self.pb_ids:
            free(self.pb_ids)


def prepare(int n, block_masks):
    return KernelSystem(n, block_masks)


cdef int _rec_partition(KernelSystem s, u64 remaining, int* out, int depth) nogil:
    # Least uncovered point first; its blocks in canonical order.
    if remaining == 0:
        return depth
    cdef int p = __builtin_ctzll(remaining)
    cdef int k, bid, got
    cdef u64 m
    for k in range(s.pb_start[p], s.pb_start[p + 1]):
        bid = s.pb_ids[k]
        m = s.masks[bid]
        if (m & remaining) == m:
            out[depth] = bid
            got = _rec_partition(s, remaining & ~m, out, depth + 1)
            if got >= 0:
                return got
    return -1


cdef bint _can_partition(KernelSystem s, u64 mask) nogil:
    cdef int out[MAX_PARTS]
    if __builtin_popcountll(mask) % 3:
        return False
    return _rec_partition(s, mask, out, 0) >= 0


def find_partition(KernelSystem s, mask):
    cdef u64 m = <u64> mask
    cdef int out[MAX_PARTS]
    if __builtin_popcountll(m) % 3:
        return None
    cdef int got = _rec_partition(s, m, out, 0)
    if got < 0:
        return None
    return tuple(out[i] for i in range(got))


def can_partition(KernelSystem s, mask):
    return bool(_can_partition(s, <u64> mask))


def inadmissible_scan(KernelSystem s, entries, bint stop_first=False):
    cdef int n = s.n
    cdef u64 pm[MAX_POINTS + 1]
    cdef int out[MAX_PARTS]
    cdef int i, start, length, got
    pm[0] = 0
    for i in range(n):
        pm[i + 1] = pm[i] | ((<u64> 1) << <int> entries[i])
    result = []
    length = 3
    while length < n:
        for start in range(n - length + 1):
            if __builtin_popcountll(pm[start + length] ^ pm[start]) % 3 == 0:
                got = _rec_partition(s, pm[start + length] ^ pm[start], out, 0)
                if got >= 0:
                    result.append(
                        (start, length, tuple(out[i] for i in range(got)))
                    )
                    if stop_first:
                        return result
        length += 3
    return result


cdef bint _segments_ok(KernelSystem s, u64* pm, int pos, u64 full) nogil:
    # Segments ending at pos, then the suffix after pos, which is already
    # fixed as a point set; same tests and order as the pure twin.
    cdef int n = s.n
    cdef int length = 3
    cdef int rest = n - 1 - pos
    while length <= pos + 1 and length < n:
        if _can_partition(s, pm[pos + 1] ^ pm[pos + 1 - length]):
            return False
        length += 3
    if rest and rest % 3 == 0 and _can_partition(s, full ^ pm[pos + 1]):
        return False
    return True


def decide_search(KernelSystem s, budget=None, bint exhaust=False, prefix=()):
    cdef int n = s.n
    cdef u64 full = ~(<u64> 0) if n == MAX_POINTS else ((<u64> 1) << n) - 1
    cdef long long limit = -1 if budget is None else <long long> budget
    cdef long long nodes = 0
    cdef int entries[MAX_POINTS]
    cdef int cand[MAX_POINTS + 1]
    cdef u64 pm[MAX_POINTS + 1]
    cdef u64 used = 0
    cdef int base = len(prefix)
    cdef int pos, p, q
    witness = None

    pm[0] = 0
    for pos in range(base):
        p = <int> prefix[pos]
        if limit >= 0 and nodes >= limit:
            return None, nodes, False
        nodes += 1
        pm[pos + 1] = pm[pos] | ((<u64> 1) << p)
        if not _segments_ok(s, pm, pos, full):
            return None, nodes, True
        entries[pos] = p
        used |= (<u64> 1) << p

    if n == 0:
        return [], nodes, True
    if base == n:
        return [entries[i] for i in range(n)], nodes, True

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
            used &= ~((<u64> 1) << q)
            cand[pos] = q + 1
            continue
        if limit >= 0 and nodes >= limit:
            return witness, nodes, False
        nodes += 1
        pm[pos + 1] = pm[pos] | ((<u64> 1) << p)
        if not _segments_ok(s, pm, pos, full):
            cand[pos] = p + 1
            continue
        entries[pos] = p
        used |= (<u64> 1) << p
        pos += 1
        if pos == n:
            if witness is None:
                witness = [entries[i] for i in range(n)]
            if not exhaust:
                return witness, nodes, False
            pos -= 1
            q = entries[pos]
            used &= ~((<u64> 1) << q)
            cand[pos] = q + 1
        else:
            cand[pos] = 0


cdef struct PackState:
    long long nodes
    long long limit
    int best
    bint complete


cdef void _rec_packing(
    KernelSystem s, int i, u64 used, int count,
    int* chosen, int* best_witness, PackState* st
) nogil:
    if not st.complete:
        return
    if st.limit >= 0 and st.nodes >= st.limit:
        st.complete = False
        return
    st.nodes += 1
    cdef int j = i
    cdef int k
    while j < s.nblocks and (s.masks[j] & used):
        j += 1
    if j == s.nblocks:
        if count > st.best:
            st.best = count
            for k in range(count):
                best_witness[k] = chosen[k]
        return
    if count + (s.n - __builtin_popcountll(used)) / 3 <= st.best:
        return
    chosen[count] = j
    _rec_packing(s, j + 1, used | s.masks[j], count + 1, chosen, best_witness, st)
    _rec_packing(s, j + 1, used, count, chosen, best_witness, st)


def max_packing(KernelSystem s, budget=None):
    cdef PackState st
    st.nodes = 0
    st.limit = -1 if budget is None else <long long> budget
    st.best = 0
    st.complete = True
    cdef int chosen[MAX_PARTS]
    cdef int best_witness[MAX_PARTS]
    _rec_packing(s, 0, 0, 0, chosen, best_witness, &st)
    witness = tuple(best_witness[i] for i in range(st.best))
    return st.best, witness, st.nodes, st.complete
