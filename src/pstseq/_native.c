/* The compiled kernels, for systems of order at most 64, whose point
 * sets fit one 64-bit word.
 *
 * ``index(n, blocks)`` is the pair check of ``core.TripleSystem`` and
 * gives the system's ``block_masks``.  ``prepare(n, block_masks)``
 * builds from them the one index, held by a capsule, that the other
 * kernels read.  ``split(index, mask)`` says whether ``mask`` partitions
 * into disjoint blocks, by the least-point recursion of
 * ``_pykernels._split``: branch on the least point p of the target and
 * try the blocks led by p in block order.  ``find(index, mask)`` gives
 * the block ids of the partition in the order
 * ``_pykernels.find_partition`` gives them, or None.
 * ``scan(index, entries, stop_first)`` is the segment scan of
 * ``_pykernels.inadmissible_scan``, with the same filter and order, and
 * gives each segment that splits with its mask but not its parts.
 * ``pack(index, budget)`` is ``_pykernels.max_packing``.
 *
 * ``greedy(n, target, key)`` is the shuffle and pair-disjoint scan of
 * ``generators.random_system``, drawing from its own MT19937 seeded as
 * ``random.Random`` seeds one.
 *
 * ``_pykernels`` builds this file on first use; where the build fails,
 * the Python code that each function mirrors runs instead.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CAPSULE_NAME "pstseq._native.index"
#define MAX_ORDER 64
#define MAX_PARTS (MAX_ORDER / 3)

typedef struct {
    uint64_t mask;
    long id;
} Lead;

typedef struct {
    /* The order and the block count; masks[i] is block i's mask, and
     * start[p] .. start[p + 1] index the blocks led by p in ``lead``, in
     * block order.  Points n .. 63 lead no block, so a mask holding them
     * never partitions. */
    int n;
    Py_ssize_t nb;
    uint64_t *masks;
    int start[MAX_ORDER + 1];
    Lead lead[];
} Index;

static void
index_free(PyObject *capsule)
{
    free(PyCapsule_GetPointer(capsule, CAPSULE_NAME));
}

/* Whether ``target`` splits; with ``parts`` given, the ids of the blocks
 * found are stored on the way back, last block first. */
static int
split_mask(const Index *ix, uint64_t target, long *parts, int *count)
{
    if (target == 0) {
        return 1;
    }
    int p = __builtin_ctzll(target);
    for (int k = ix->start[p]; k < ix->start[p + 1]; k++) {
        uint64_t m = ix->lead[k].mask;
        if ((m & target) == m && split_mask(ix, target ^ m, parts, count)) {
            if (parts != NULL) {
                parts[(*count)++] = ix->lead[k].id;
            }
            return 1;
        }
    }
    return 0;
}

/* ``prepare(n, block_masks)``: the index of a system of order n whose
 * blocks have the masks in the tuple ``block_masks``.  Each mask must be
 * an int of 3 points in range(n): then every step of the recursion
 * removes a point, and ``scan`` reads the positions of a block's points.
 * An int is read without calling back into Python code. */
static PyObject *
native_prepare(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "prepare(n, block_masks) takes 2 arguments");
        return NULL;
    }
    Py_ssize_t n = PyLong_AsSsize_t(args[0]);
    if (n == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (n < 0 || n > MAX_ORDER) {
        PyErr_SetString(PyExc_ValueError, "order must lie in [0, 64]");
        return NULL;
    }
    PyObject *masks = args[1];
    if (!PyTuple_Check(masks)) {
        PyErr_SetString(PyExc_TypeError, "block_masks must be a tuple");
        return NULL;
    }
    Py_ssize_t nb = PyTuple_GET_SIZE(masks);
    if (nb > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "too many blocks");
        return NULL;
    }
    Index *ix = malloc(sizeof(Index) + nb * (sizeof(Lead) + sizeof(uint64_t)));
    if (ix == NULL) {
        return PyErr_NoMemory();
    }
    ix->n = (int)n;
    ix->nb = nb;
    ix->masks = (uint64_t *)(ix->lead + nb);
    /* next[p] counts the blocks led by p, then is the slot of the next
     * one: a stable counting sort by least point. */
    int next[MAX_ORDER] = {0};
    for (Py_ssize_t i = 0; i < nb; i++) {
        PyObject *item = PyTuple_GET_ITEM(masks, i);
        if (!PyLong_Check(item)) {
            PyErr_SetString(PyExc_TypeError, "block masks must be integers");
            goto fail;
        }
        uint64_t m = PyLong_AsUnsignedLongLong(item);
        if (m == (uint64_t)-1 && PyErr_Occurred()) {
            goto fail;
        }
        if (__builtin_popcountll(m) != 3 || 63 - __builtin_clzll(m) >= n) {
            PyErr_SetString(PyExc_ValueError, "each block mask must hold 3 points of range(n)");
            goto fail;
        }
        ix->masks[i] = m;
        next[__builtin_ctzll(m)]++;
    }
    int k = 0;
    for (int p = 0; p < MAX_ORDER; p++) {
        ix->start[p] = k;
        k += next[p];
        next[p] = ix->start[p];
    }
    ix->start[MAX_ORDER] = k;
    for (Py_ssize_t i = 0; i < nb; i++) {
        Lead *b = &ix->lead[next[__builtin_ctzll(ix->masks[i])]++];
        b->mask = ix->masks[i];
        b->id = (long)i;
    }
    PyObject *capsule = PyCapsule_New(ix, CAPSULE_NAME, index_free);
    if (capsule != NULL) {
        return capsule;
    }

fail:
    free(ix);
    return NULL;
}

/* Reads the (index, mask) arguments; the mask must fit 64 bits. */
static const Index *
parse_args(PyObject *const *args, Py_ssize_t nargs, const char *name, uint64_t *mask)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "%s(index, mask) takes 2 arguments", name);
        return NULL;
    }
    const Index *ix = PyCapsule_GetPointer(args[0], CAPSULE_NAME);
    if (ix == NULL) {
        return NULL;
    }
    *mask = PyLong_AsUnsignedLongLong(args[1]);
    if (*mask == (uint64_t)-1 && PyErr_Occurred()) {
        return NULL;
    }
    return ix;
}

static PyObject *
native_split(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t mask;
    const Index *ix = parse_args(args, nargs, "split", &mask);
    if (ix == NULL) {
        return NULL;
    }
    return PyBool_FromLong(__builtin_popcountll(mask) % 3 == 0
                           && split_mask(ix, mask, NULL, NULL));
}

static PyObject *
native_find(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t mask;
    const Index *ix = parse_args(args, nargs, "find", &mask);
    if (ix == NULL) {
        return NULL;
    }
    long parts[MAX_PARTS];
    int count = 0;
    if (__builtin_popcountll(mask) % 3 || !split_mask(ix, mask, parts, &count)) {
        Py_RETURN_NONE;
    }
    PyObject *out = PyTuple_New(count);
    if (out == NULL) {
        return NULL;
    }
    for (int i = 0; i < count; i++) {
        PyObject *bid = PyLong_FromLong(parts[count - 1 - i]);
        if (bid == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, bid);
    }
    return out;
}

/* ``scan(index, entries, stop_first)``: ``_pykernels.inadmissible_scan``
 * without the parts.  ``entries`` must be a permutation of range(n).
 * Each block's span runs from the lowest to the highest position of its
 * points.
 * Segment [s, e] is tested only when some block spanning from s ends at
 * or before e and some block spanning to e starts at or after s.
 * Returns the (start, length, mask) of each segment that splits, in
 * (length, start) order, stopping at the first with ``stop_first``. */
static PyObject *
native_scan(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "scan(index, entries, stop_first) takes 3 arguments");
        return NULL;
    }
    const Index *ix = PyCapsule_GetPointer(args[0], CAPSULE_NAME);
    if (ix == NULL) {
        return NULL;
    }
    int stop_first = PyObject_IsTrue(args[2]);
    if (stop_first < 0) {
        return NULL;
    }
    PyObject *seq = PySequence_Fast(args[1], "entries must be a sequence");
    if (seq == NULL) {
        return NULL;
    }
    int n = ix->n;
    PyObject **items = PySequence_Fast_ITEMS(seq);
    /* pm[i] holds the points of the first i entries; pos[p] is the
     * position of point p. */
    uint64_t pm[MAX_ORDER + 1] = {0};
    int pos[MAX_ORDER];
    PyObject *out = NULL;
    if (PySequence_Fast_GET_SIZE(seq) != n) {
        PyErr_SetString(PyExc_ValueError, "entries must be a permutation of range(n)");
        goto done;
    }
    for (int i = 0; i < n; i++) {
        /* An int is read without calling back into Python code, which
         * could resize a list while ``items`` points into it. */
        if (!PyLong_Check(items[i])) {
            PyErr_SetString(PyExc_TypeError, "entries must be integers");
            goto done;
        }
        int overflow;
        long v = PyLong_AsLongAndOverflow(items[i], &overflow);
        if (v == -1 && PyErr_Occurred()) {
            goto done;
        }
        if (overflow || v < 0 || v >= n || pm[i] >> v & 1) {
            PyErr_SetString(PyExc_ValueError, "entries must be a permutation of range(n)");
            goto done;
        }
        pos[v] = i;
        pm[i + 1] = pm[i] | (uint64_t)1 << v;
    }
    int first_end[MAX_ORDER], last_start[MAX_ORDER];
    for (int i = 0; i < n; i++) {
        first_end[i] = n;
        last_start[i] = -1;
    }
    for (Py_ssize_t k = 0; k < ix->nb; k++) {
        uint64_t m = ix->masks[k];
        int lo = n, hi = -1;
        for (; m; m &= m - 1) {
            int x = pos[__builtin_ctzll(m)];
            lo = x < lo ? x : lo;
            hi = x > hi ? x : hi;
        }
        if (hi < first_end[lo]) {
            first_end[lo] = hi;
        }
        if (lo > last_start[hi]) {
            last_start[hi] = lo;
        }
    }
    out = PyList_New(0);
    for (int length = 3; out != NULL && length < n; length += 3) {
        for (int s = 0, e = length - 1; e < n; s++, e++) {
            if (first_end[s] > e || last_start[e] < s) {
                continue;
            }
            uint64_t mask = pm[e + 1] ^ pm[s];
            if (!split_mask(ix, mask, NULL, NULL)) {
                continue;
            }
            PyObject *hit = Py_BuildValue("(iiK)", s, length, (unsigned long long)mask);
            if (hit == NULL || PyList_Append(out, hit) < 0) {
                Py_XDECREF(hit);
                Py_CLEAR(out);
                break;
            }
            Py_DECREF(hit);
            if (stop_first) {
                goto done;
            }
        }
    }

done:
    Py_DECREF(seq);
    return out;
}

/* MT19937, the generator of ``random.Random`` (Matsumoto and Nishimura,
 * "Mersenne Twister", ACM TOMACS 8(1), 1998). */
#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t state[MT_N];
    int next;
} Twister;

/* Seeds ``mt`` by the reference ``init_by_array`` over the ``len``
 * little-endian 32-bit words at ``key``, as ``random.Random(seed)``
 * does with the words of ``abs(seed)``. */
static void
mt_seed(Twister *mt, const unsigned char *key, Py_ssize_t len)
{
    uint32_t *s = mt->state;
    s[0] = 19650218U;
    for (int i = 1; i < MT_N; i++) {
        s[i] = 1812433253U * (s[i - 1] ^ s[i - 1] >> 30) + (uint32_t)i;
    }
    int i = 1;
    Py_ssize_t j = 0;
    for (Py_ssize_t k = len > MT_N ? len : MT_N; k > 0; k--) {
        const unsigned char *b = key + 4 * j;
        uint32_t word = (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16
                        | (uint32_t)b[3] << 24;
        s[i] = (s[i] ^ (s[i - 1] ^ s[i - 1] >> 30) * 1664525U) + word + (uint32_t)j;
        if (++i >= MT_N) {
            s[0] = s[MT_N - 1];
            i = 1;
        }
        if (++j >= len) {
            j = 0;
        }
    }
    for (int k = MT_N - 1; k > 0; k--) {
        s[i] = (s[i] ^ (s[i - 1] ^ s[i - 1] >> 30) * 1566083941U) - (uint32_t)i;
        if (++i >= MT_N) {
            s[0] = s[MT_N - 1];
            i = 1;
        }
    }
    s[0] = 0x80000000U;
    mt->next = MT_N;
}

/* The generator's next 32-bit output: ``getrandbits(32)``. */
static uint32_t
mt_next(Twister *mt)
{
    uint32_t *s = mt->state;
    if (mt->next >= MT_N) {
        for (int k = 0; k < MT_N; k++) {
            uint32_t y = (s[k] & 0x80000000U) | (s[(k + 1) % MT_N] & 0x7fffffffU);
            s[k] = s[(k + MT_M) % MT_N] ^ y >> 1 ^ (y & 1 ? 0x9908b0dfU : 0);
        }
        mt->next = 0;
    }
    uint32_t y = s[mt->next++];
    y ^= y >> 11;
    y ^= y << 7 & 0x9d2c5680U;
    y ^= y << 15 & 0xefc60000U;
    return y ^ y >> 18;
}

static PyObject *
triple(int a, int b, int c)
{
    PyObject *t = PyTuple_New(3);
    if (t == NULL) {
        return NULL;
    }
    int points[3] = {a, b, c};
    for (int i = 0; i < 3; i++) {
        PyObject *p = PyLong_FromLong(points[i]);
        if (p == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, p);
    }
    return t;
}

/* ``greedy(n, target, key)``: the triples of ``range(n)`` in
 * lexicographic order, shuffled by ``generators._shuffle``'s rejection
 * loop on the outputs of MT19937 seeded with the 32-bit words of
 * ``key``, then taken pair-disjoint in shuffled order up to ``target``.
 * For a draw width ``k <= 32``, ``getrandbits(k)`` is the next output
 * shifted right by ``32 - k``.  Returns the chosen triples in
 * lexicographic order. */
static PyObject *
native_greedy(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "greedy(n, target, key) takes 3 arguments");
        return NULL;
    }
    long n = PyLong_AsLong(args[0]);
    if (n == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (n < 0 || n > MAX_ORDER) {
        PyErr_SetString(PyExc_ValueError, "order must lie in [0, 64]");
        return NULL;
    }
    long target = PyLong_AsLong(args[1]);
    if (target == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (target < 0) {
        PyErr_SetString(PyExc_ValueError, "target must be nonnegative");
        return NULL;
    }
    if (!PyBytes_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError, "key must be bytes");
        return NULL;
    }
    Py_ssize_t nkey = PyBytes_GET_SIZE(args[2]);
    if (nkey == 0 || nkey % 4) {
        PyErr_SetString(PyExc_ValueError, "key must hold one or more 32-bit words");
        return NULL;
    }
    Twister mt;
    mt_seed(&mt, (const unsigned char *)PyBytes_AS_STRING(args[2]), nkey / 4);

    uint32_t count = n * (n - 1) * (n - 2) / 6;
    /* code[i] packs triple i as a | b << 8 | c << 16; perm is shuffled;
     * pick[i] marks the chosen triples. */
    uint32_t *code = malloc(count * (2 * sizeof(uint32_t) + 1) + 1);
    if (code == NULL) {
        return PyErr_NoMemory();
    }
    uint32_t *perm = code + count;
    unsigned char *pick = (unsigned char *)(perm + count);
    uint32_t i = 0;
    for (uint32_t a = 0; a < (uint32_t)n; a++) {
        for (uint32_t b = a + 1; b < (uint32_t)n; b++) {
            for (uint32_t c = b + 1; c < (uint32_t)n; c++, i++) {
                code[i] = a | b << 8 | c << 16;
                perm[i] = i;
                pick[i] = 0;
            }
        }
    }

    /* k is the bit length of i + 1; it drops when i drops below low. */
    int k = 0;
    while (k < 32 && count >> k) {
        k++;
    }
    uint32_t low = (((uint32_t)1 << k) >> 1) - 1;
    for (i = count - 1; count > 1 && i > 0; i--) {
        if (i < low) {
            k--;
            low >>= 1;
        }
        uint32_t j;
        do {
            j = mt_next(&mt) >> (32 - k);
        } while (j > i);
        uint32_t swap = perm[i];
        perm[i] = perm[j];
        perm[j] = swap;
    }

    unsigned char used[MAX_ORDER * MAX_ORDER] = {0};
    Py_ssize_t chosen = 0;
    for (i = 0; i < count && chosen < target; i++) {
        uint32_t c = code[perm[i]];
        int ab = (c & 0xff) * MAX_ORDER + (c >> 8 & 0xff);
        int ac = (c & 0xff) * MAX_ORDER + (c >> 16);
        int bc = (c >> 8 & 0xff) * MAX_ORDER + (c >> 16);
        if (used[ab] || used[ac] || used[bc]) {
            continue;
        }
        used[ab] = used[ac] = used[bc] = 1;
        pick[perm[i]] = 1;
        chosen++;
    }

    PyObject *out = PyTuple_New(chosen);
    Py_ssize_t t = 0;
    for (i = 0; out != NULL && t < chosen; i++) {
        if (pick[i]) {
            uint32_t c = code[i];
            PyObject *tri = triple(c & 0xff, c >> 8 & 0xff, c >> 16);
            if (tri == NULL) {
                Py_CLEAR(out);
                break;
            }
            PyTuple_SET_ITEM(out, t++, tri);
        }
    }
    free(code);
    return out;
}

/* The attribute name ``points``, interned when the module loads. */
static PyObject *points_name;

/* Reads ``blk.points`` into p: 0 when all three are ints in [0, n), 1
 * when one lies outside, -1 with an exception set. */
static int
read_points(PyObject *blk, long n, int p[3])
{
    PyObject *pts = PyObject_GetAttr(blk, points_name);
    if (pts == NULL) {
        return -1;
    }
    int status = 0;
    if (!PyTuple_Check(pts) || PyTuple_GET_SIZE(pts) != 3) {
        PyErr_SetString(PyExc_TypeError, "block points must be a tuple of 3 integers");
        status = -1;
    }
    for (int k = 0; status >= 0 && k < 3; k++) {
        int overflow;
        long v = PyLong_AsLongAndOverflow(PyTuple_GET_ITEM(pts, k), &overflow);
        if (v == -1 && PyErr_Occurred()) {
            status = -1;
        }
        else if (overflow || v < 0 || v >= n) {
            status = 1;
        }
        else {
            p[k] = (int)v;
        }
    }
    Py_DECREF(pts);
    return status;
}

/* ``index(n, blocks)``: the pair check of ``core.TripleSystem``, over
 * each block's ``points`` in order.  Returns the tuple of the blocks'
 * masks, or the position of the first block that holds a point outside
 * [0, n) or a pair an earlier block covers.  It walks a tuple copy of
 * ``blocks``, which reading ``points`` cannot change.  Points are
 * range-checked before any shift, so no shift reaches 64. */
static PyObject *
native_index(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "index(n, blocks) takes 2 arguments");
        return NULL;
    }
    long n = PyLong_AsLong(args[0]);
    if (n == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (n < 0 || n > MAX_ORDER) {
        PyErr_SetString(PyExc_ValueError, "order must lie in [0, 64]");
        return NULL;
    }
    PyObject *blocks = PySequence_Tuple(args[1]);
    if (blocks == NULL) {
        return NULL;
    }
    Py_ssize_t nb = PyTuple_GET_SIZE(blocks);
    PyObject *masks = PyTuple_New(nb), *result = NULL;
    uint64_t adj[MAX_ORDER] = {0};
    for (Py_ssize_t i = 0; masks != NULL && i < nb; i++) {
        int p[3] = {0, 0, 0};
        int status = read_points(PyTuple_GET_ITEM(blocks, i), n, p);
        if (status < 0) {
            goto done;
        }
        int a = p[0], b = p[1], c = p[2];
        if (status || adj[a] >> b & 1 || adj[a] >> c & 1 || adj[b] >> c & 1) {
            result = PyLong_FromSsize_t(i);
            goto done;
        }
        uint64_t m = (uint64_t)1 << a | (uint64_t)1 << b | (uint64_t)1 << c;
        adj[a] |= m;
        adj[b] |= m;
        adj[c] |= m;
        PyObject *mask = PyLong_FromUnsignedLongLong(m);
        if (mask == NULL) {
            goto done;
        }
        PyTuple_SET_ITEM(masks, i, mask);
    }
    result = masks;
    masks = NULL;

done:
    Py_XDECREF(masks);
    Py_DECREF(blocks);
    return result;
}

typedef struct {
    uint64_t used;
    Py_ssize_t next;
    int depth;
} Task;

/* ``pack(index, budget)``: ``_pykernels.max_packing`` on the indexed
 * blocks, with the same bounds, visit order and node count; a budget of
 * None or of 2**63 or more sets no limit.  Returns (size, witness ids,
 * nodes, complete). */
static PyObject *
native_pack(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "pack(index, budget) takes 2 arguments");
        return NULL;
    }
    const Index *ix = PyCapsule_GetPointer(args[0], CAPSULE_NAME);
    if (ix == NULL) {
        return NULL;
    }
    long long budget = -1;
    if (args[1] != Py_None) {
        int overflow;
        long long b = PyLong_AsLongLongAndOverflow(args[1], &overflow);
        if (b == -1 && PyErr_Occurred()) {
            return NULL;
        }
        if (overflow < 0 || (overflow == 0 && b < 0)) {
            PyErr_SetString(PyExc_ValueError, "budget must be nonnegative");
            return NULL;
        }
        if (overflow == 0) {
            budget = b;
        }
    }
    Py_ssize_t nb = ix->nb;
    const uint64_t *masks = ix->masks;
    /* reach and hit: the blocks from j on reach reach[j] and all meet
     * hit[j]; then the stack of branches still to take. */
    uint64_t *reach = malloc((2 * nb + 2) * sizeof(uint64_t) + (nb + 1) * sizeof(Task));
    if (reach == NULL) {
        return PyErr_NoMemory();
    }
    uint64_t *hit = reach + nb + 1;
    Task *stack = (Task *)(hit + nb + 1);
    int deg[MAX_ORDER] = {0};
    for (Py_ssize_t j = 0; j < nb; j++) {
        for (uint64_t rest = masks[j]; rest; rest &= rest - 1) {
            deg[__builtin_ctzll(rest)]++;
        }
    }
    uint64_t r = 0, h = 0;
    for (Py_ssize_t j = nb - 1; j >= 0; j--) {
        uint64_t m = masks[j];
        r |= m;
        if (!(m & h)) {
            /* The point of highest degree, the least on a tie. */
            int a = __builtin_ctzll(m);
            int b = __builtin_ctzll(m & (m - 1));
            int c = 63 - __builtin_clzll(m);
            if (deg[a] >= deg[b] && deg[a] >= deg[c]) {
                h |= (uint64_t)1 << a;
            }
            else if (deg[b] >= deg[c]) {
                h |= (uint64_t)1 << b;
            }
            else {
                h |= (uint64_t)1 << c;
            }
        }
        reach[j] = r;
        hit[j] = h;
    }

    /* Each branch point pushes the exclude branch and goes on with the
     * include branch, so branches are taken in the recursive order.  The
     * ``next`` fields on the stack rise strictly, so it holds at most nb
     * entries, and the chosen blocks are disjoint, so at most 21. */
    Py_ssize_t chosen[MAX_PARTS], witness[MAX_PARTS];
    int best = 0, complete = 1;
    long long nodes = 0;
    int sp = 0;
    stack[sp++] = (Task){0, 0, 0};
    while (sp > 0 && complete) {
        Task task = stack[--sp];
        uint64_t used = task.used;
        Py_ssize_t j = task.next;
        int depth = task.depth;
        for (;;) {
            if (budget >= 0 && nodes >= budget) {
                complete = 0;
                break;
            }
            nodes++;
            while (j < nb && masks[j] & used) {
                j++;
            }
            if (j == nb) {
                if (depth > best) {
                    best = depth;
                    memcpy(witness, chosen, depth * sizeof(Py_ssize_t));
                }
                break;
            }
            int room = best - depth;
            if (__builtin_popcountll(hit[j] & ~used) <= room
                || __builtin_popcountll(reach[j] & ~used) / 3 <= room) {
                break;
            }
            stack[sp++] = (Task){used, j + 1, depth};
            chosen[depth++] = j;
            used |= masks[j];
            j++;
        }
    }
    free(reach);

    PyObject *ids = PyTuple_New(best);
    for (int i = 0; ids != NULL && i < best; i++) {
        PyObject *bid = PyLong_FromSsize_t(witness[i]);
        if (bid == NULL) {
            Py_CLEAR(ids);
            break;
        }
        PyTuple_SET_ITEM(ids, i, bid);
    }
    return Py_BuildValue("(iNLN)", best, ids, nodes, PyBool_FromLong(complete));
}

static PyMethodDef native_methods[] = {
    {"prepare", (PyCFunction)(void (*)(void))native_prepare, METH_FASTCALL,
     "prepare(n, block_masks): the index of a system of order n <= 64."},
    {"split", (PyCFunction)(void (*)(void))native_split, METH_FASTCALL,
     "split(index, mask): whether mask partitions into disjoint blocks."},
    {"find", (PyCFunction)(void (*)(void))native_find, METH_FASTCALL,
     "find(index, mask): the block ids of a partition of mask, or None."},
    {"scan", (PyCFunction)(void (*)(void))native_scan, METH_FASTCALL,
     "scan(index, entries, stop_first): the (start, length, mask) of each proper segment that splits."},
    {"greedy", (PyCFunction)(void (*)(void))native_greedy, METH_FASTCALL,
     "greedy(n, target, key): random_system's triples from MT19937 seeded with key."},
    {"index", (PyCFunction)(void (*)(void))native_index, METH_FASTCALL,
     "index(n, blocks): TripleSystem's block_masks, or the position of the first bad block."},
    {"pack", (PyCFunction)(void (*)(void))native_pack, METH_FASTCALL,
     "pack(index, budget): max_packing's (size, witness ids, nodes, complete)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT, "_native",
    "The compiled kernels for orders up to 64.", -1, native_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    if (points_name == NULL && (points_name = PyUnicode_InternFromString("points")) == NULL) {
        return NULL;
    }
    return PyModule_Create(&native_module);
}
