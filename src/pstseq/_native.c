/* Exact partition of a point set into disjoint blocks, for systems of
 * order at most 64, whose point sets fit one 64-bit word.
 *
 * The same least-point recursion as ``_pykernels._split``: branch on the
 * least point p of the target and try the blocks led by p in canonical
 * order.  ``prepare(n, lead)`` flattens a system's ``lead`` into an
 * index held by a capsule; ``split(index, mask)`` says whether ``mask``
 * partitions, and ``find(index, mask)`` gives the block ids of the
 * partition in the order ``_pykernels.find_partition`` gives them, or
 * None.  ``_pykernels`` builds this file on first use and falls back to
 * its own recursion when the build fails.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>

#define CAPSULE_NAME "pstseq._native.index"
#define MAX_ORDER 64
#define MAX_PARTS (MAX_ORDER / 3)

typedef struct {
    uint64_t mask;
    long id;
} Lead;

typedef struct {
    /* start[p] .. start[p + 1] index the blocks led by p; points n .. 64
     * lead no block, so a mask holding them never partitions. */
    int start[MAX_ORDER + 2];
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

static PyObject *
native_prepare(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "prepare(n, lead) takes 2 arguments");
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
    PyObject *lead = args[1];
    if (!PyTuple_Check(lead) || PyTuple_GET_SIZE(lead) != n) {
        PyErr_SetString(PyExc_TypeError, "lead must be a tuple of n tuples");
        return NULL;
    }
    Py_ssize_t total = 0;
    for (Py_ssize_t p = 0; p < n; p++) {
        PyObject *row = PyTuple_GET_ITEM(lead, p);
        if (!PyTuple_Check(row)) {
            PyErr_SetString(PyExc_TypeError, "lead must be a tuple of n tuples");
            return NULL;
        }
        total += PyTuple_GET_SIZE(row);
    }
    if (total > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "too many blocks");
        return NULL;
    }
    Index *ix = malloc(sizeof(Index) + total * sizeof(Lead));
    if (ix == NULL) {
        return PyErr_NoMemory();
    }
    int k = 0;
    for (Py_ssize_t p = 0; p < n; p++) {
        PyObject *row = PyTuple_GET_ITEM(lead, p);
        ix->start[p] = k;
        for (Py_ssize_t j = 0; j < PyTuple_GET_SIZE(row); j++, k++) {
            PyObject *pair = PyTuple_GET_ITEM(row, j);
            if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
                PyErr_SetString(PyExc_TypeError, "lead pairs must be (mask, id) tuples");
                goto fail;
            }
            Lead *b = &ix->lead[k];
            b->mask = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(pair, 0));
            b->id = PyLong_AsLong(PyTuple_GET_ITEM(pair, 1));
            if (PyErr_Occurred()) {
                goto fail;
            }
            /* Each block led by p covers p, so every step of the
             * recursion removes a point and it ends. */
            if (b->mask == 0 || __builtin_ctzll(b->mask) != p) {
                PyErr_SetString(PyExc_ValueError, "the blocks in lead[p] must have least point p");
                goto fail;
            }
        }
    }
    for (Py_ssize_t p = n; p < MAX_ORDER + 2; p++) {
        ix->start[p] = k;
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

static PyMethodDef native_methods[] = {
    {"prepare", (PyCFunction)(void (*)(void))native_prepare, METH_FASTCALL,
     "prepare(n, lead): the partition index of a system of order n <= 64."},
    {"split", (PyCFunction)(void (*)(void))native_split, METH_FASTCALL,
     "split(index, mask): whether mask partitions into disjoint blocks."},
    {"find", (PyCFunction)(void (*)(void))native_find, METH_FASTCALL,
     "find(index, mask): the block ids of a partition of mask, or None."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT, "_native",
    "Exact partition into disjoint blocks for orders up to 64.", -1, native_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&native_module);
}
