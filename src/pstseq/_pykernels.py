"""Search kernels.

The hot inner loops: exact partition of a point set into
vertex-disjoint blocks, the segment scan behind admissibility checking,
the depth-first sequence search, and the disjoint-block
branch-and-bound.

Every kernel takes a ``core.TripleSystem`` and reads its ``n`` and
``block_masks``, which the system builds while it checks its pairs, and
in Python its ``lead`` or ``blocks``; its docstring describes them.

Point sets travel as integer bitmasks.  Python integers are unbounded,
so there is no limit on the order of the system.

The partition test, the segment scan and the packing search have a
second implementation in ``_native.c``, a C extension working on one
64-bit word, for systems of order at most 64: it runs the same
least-point recursion for ``can_partition`` and ``find_partition``,
the whole filtered scan of ``inadmissible_scan`` (only the parts of a
segment that splits come from ``find_partition``), and the same
branch-and-bound for ``max_packing``, all on one index built from
``block_masks`` (``_handle``).  ``generators.random_system``
takes its shuffle and scan from the same extension, which seeds its
own copy of the stdlib's generator, and ``core.TripleSystem`` its pair
check once the extension is loaded.  It is compiled with the
system C compiler on the first call in a process that needs it, never
at import or when a system is built, and cached in this package's
``__pycache__`` (see ``_load_native``).  Larger orders, and hosts where
the build fails, run the Python code here and in those modules, which
gives the same answers, parts and counts in the same order.
"""

from __future__ import annotations

import os


def _split(sys, target, parts=None):
    # Whether ``target`` splits into disjoint blocks.  Branches on the
    # least-index uncovered point p, blocks in canonical order: a block
    # holding a point below p cannot lie inside target, so only the
    # blocks led by p are tried.  With ``parts`` given, the ids of the
    # blocks found are appended on the way back, last block first.
    if target == 0:
        return True
    for m, bid in sys.lead[(target & -target).bit_length() - 1]:
        if m & target == m and _split(sys, target ^ m, parts):
            if parts is not None:
                parts.append(bid)
            return True
    return False


#: The largest order the compiled kernels serve: a point set of such a
#: system fits one 64-bit word.
_NATIVE_MAX_ORDER = 64

#: The source of the compiled kernels.  Its builds are cached in
#: the ``__pycache__`` directory next to it.
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native.c")

#: The compiled extension once loaded, False once it could not be; None
#: until the first call that asks for it.
_native = None


def _load_native():
    """Load the build of ``_SOURCE``, building it first if none is
    cached, and record the module, or False on any failure, in
    ``_native``.

    A build is named by the SHA-256 of the source and the interpreter's
    ``EXT_SUFFIX``, which the import system lists first among its
    extension suffixes, so an edited source or another interpreter gets
    its own; ``sysconfig`` is imported only to build.  It is tried once
    per process: a missing compiler or header, a directory that cannot
    be written, a timeout or an import error leaves the Python code
    in charge, silently.
    """
    global _native
    _native = False
    try:
        import hashlib
        import importlib.machinery
        import importlib.util

        with open(_SOURCE, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()[:16]
        cache = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        path = os.path.join(cache, f"_native.{digest}{suffix}")
        if not os.path.exists(path):
            _compile(cache, path, suffix)
        spec = importlib.util.spec_from_file_location("pstseq._native", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:
        return False
    _native = module
    return module


def _extension():
    """The compiled extension, loaded on the first call of a process;
    False where it could not be built."""
    return _native if _native is not None else _load_native()


def _compile(cache, path, suffix):
    """Compile ``_SOURCE`` to ``path`` with the interpreter's own
    ``LDSHARED`` and ``CCSHARED`` flags, through a temporary file that
    ``os.replace`` moves into place, so that a concurrent process never
    loads a partial file."""
    import contextlib
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    config = sysconfig.get_config_vars()
    cmd = shlex.split(config["LDSHARED"] + " " + config["CCSHARED"]) + [
        "-O2", "-I", sysconfig.get_paths()["include"], _SOURCE, "-o"]
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=suffix, dir=cache)
    os.close(fd)
    try:
        subprocess.run(cmd + [tmp], check=True, timeout=120, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Builds of earlier sources are never loaded again.
    for name in os.listdir(cache):
        stale = os.path.join(cache, name)
        if stale != path and name.startswith("_native.") and name.endswith(suffix):
            with contextlib.suppress(OSError):
                os.unlink(stale)


def _handle(sys):
    """The system's compiled index, or False when there is none.

    Made from ``block_masks`` on first use and kept in ``sys._native``:
    False for orders above ``_NATIVE_MAX_ORDER``, which never trigger a
    build, or when the extension could not be built.
    """
    handle = sys._native
    if handle is None:
        native = sys.n <= _NATIVE_MAX_ORDER and _extension()
        handle = sys._native = native.prepare(sys.n, sys.block_masks) if native else False
    return handle


def find_partition(sys, mask):
    """Partition ``mask`` into disjoint blocks; block ids or None."""
    handle = sys._native
    if handle is None:
        handle = _handle(sys)
    if handle:
        return _native.find(handle, mask)
    if mask.bit_count() % 3:
        return None
    parts = []
    if _split(sys, mask, parts):
        return tuple(reversed(parts))
    return None


def can_partition(sys, mask):
    """Whether ``mask`` splits into disjoint blocks, by the same
    least-point branching as ``find_partition`` but with no parts kept."""
    handle = sys._native
    if handle is None:
        handle = _handle(sys)
    if handle:
        return _native.split(handle, mask)
    return mask.bit_count() % 3 == 0 and _split(sys, mask)


def inadmissible_scan(sys, entries, stop_first=False):
    """All proper segments whose point set splits into disjoint blocks.

    Scans lengths 3, 6, ... below n, each over all starts; returns
    (start, length, parts) triples in (length, start) order, only the
    first with ``stop_first``.  ``entries`` is a permutation of
    ``range(n)``.

    A segment that splits has the entry at each of its ends in a block
    inside it.  So, with each block spanning the positions from its
    lowest to its highest entry, segment [s, e] is tested only when some
    block spanning from s ends at or before e (``first_end[s] <= e``)
    and some block spanning to e starts at or after s
    (``last_start[e] >= s``).  The filter skips only segments that
    cannot split, so the hits and their order are those of the full
    scan.  Systems with a compiled index (``_handle``) run the whole
    scan in one call of ``scan`` in the extension; others run the loop
    here, testing with ``_split``.  Either way a segment is tested with
    no parts kept, and only one that splits goes to ``find_partition``
    for its parts; the scan never calls ``can_partition``.
    """
    handle = _handle(sys)
    if handle:
        return [(start, length, find_partition(sys, mask))
                for start, length, mask in _native.scan(handle, entries, stop_first)]
    n = sys.n
    pos = [0] * n
    pm = [0] * (n + 1)
    for i, e in enumerate(entries):
        pos[e] = i
        pm[i + 1] = pm[i] | (1 << e)
    first_end = [n] * n
    last_start = [-1] * n
    for blk in sys.blocks:
        a, b, c = blk.points
        x = pos[a]
        y = pos[b]
        z = pos[c]
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
            if x > y:
                x = y
        if z < first_end[x]:
            first_end[x] = z
        if x > last_start[z]:
            last_start[z] = x
    out = []
    for length in range(3, n, 3):
        for start in range(n - length + 1):
            end = start + length - 1
            if first_end[start] <= end and last_start[end] >= start:
                mask = pm[end + 1] ^ pm[start]
                if _split(sys, mask):
                    out.append((start, length, find_partition(sys, mask)))
                    if stop_first:
                        return out
    return out


#: Entries ``decide_search``'s partition memo may hold before it is cleared.
_MEMO_CAP = 1 << 16


def decide_search(sys, budget=None, exhaust=False):
    """Depth-first search for an admissible permutation.

    The walk keeps its place in two stacks of bitmasks.  ``pm[i]`` holds
    the points of the first ``i`` entries and ``untried[i]`` the points
    not yet tried at position ``i``; the top of each stack is the
    position being filled.  The next candidate is the least bit of
    ``untried``, so unused points are tried in ascending order.  A
    position with nothing left to try pops both stacks, and a candidate
    that survives the cut tests pushes its prefix and the points still
    unplaced.  The witness is read off the differences of consecutive
    ``pm`` entries.

    Each candidate counts one node, after the budget check.  Two kinds
    of proper segment are tested, and any one that partitions into
    blocks cuts the candidate: first the segments ending at the new
    entry whose length is a multiple of 3, shortest first, then the
    suffix after it.  The suffix is already fixed as a point set (the
    unplaced points), so when its length is a nonzero multiple of 3 and
    it partitions, every completion is inadmissible.  Only subtrees
    without an admissible leaf are cut, so the walk order and the first
    witness are those of the search without the suffix test.  Returns
    (witness or None, nodes, exhausted).  With ``exhaust`` the walk
    continues past the first witness until the tree (or budget) is done.

    Many segments repeat as point sets across nodes, so each call keeps
    a memo of tested masks (mask -> partitions); a miss calls
    ``can_partition``.  The memo belongs to the call and is cleared when
    it holds ``_MEMO_CAP`` entries, which bounds its memory under any
    budget.  A mask's answer never changes within one system, so the
    memo alters neither the walk order, the node count nor the witness.
    """
    n = sys.n
    if n == 0:
        return [], 0, True
    full = (1 << n) - 1
    pm = [0]
    untried = [full]
    nodes = 0
    witness = None
    memo = {}
    cap = _MEMO_CAP

    def partitions(mask):
        hit = memo.get(mask)
        if hit is None:
            if len(memo) >= cap:
                memo.clear()
            hit = memo[mask] = can_partition(sys, mask)
        return hit

    while untried:
        left = untried[-1]
        if not left:
            untried.pop()
            pm.pop()
            continue
        if budget is not None and nodes >= budget:
            return witness, nodes, False
        nodes += 1
        bit = left & -left
        untried[-1] = left ^ bit
        pos = len(pm) - 1
        top = pm[pos] | bit
        rest = n - 1 - pos
        # segments top ^ pm[k] of length 3, 6, ...; at a leaf k = 0 is
        # the whole permutation, not a proper segment
        low = 0 if rest else 1
        k = pos - 2
        while k >= low and not partitions(top ^ pm[k]):
            k -= 3
        if k >= low or (rest and rest % 3 == 0 and partitions(full ^ top)):
            continue
        if rest:
            pm.append(top)
            untried.append(full ^ top)
            continue
        if witness is None:
            witness = [(b ^ a).bit_length() - 1 for a, b in zip(pm, pm[1:] + [top])]
        if not exhaust:
            return witness, nodes, False
    return witness, nodes, True


def max_packing(sys, budget=None):
    """Exact maximum family of pairwise disjoint blocks.

    Branch on the first block compatible with the partial packing
    (include, then exclude).  Below a node that branches at block ``j``
    only blocks ``j, j+1, ...`` are ever added, and two bounds cap how
    many more fit: the unused points those blocks reach, divided by 3,
    and the unused points of ``hit[j]``, a set meeting every one of
    those blocks (disjoint blocks meet it in distinct points).
    ``hit`` is built backwards over the blocks: a block that misses
    ``hit[j+1]`` adds its point of highest degree, the least such point
    on a tie.  A node is cut when either bound cannot lift the packing
    above the best found so far.  A cut subtree could never strictly
    improve the best, so the unbudgeted size and witness are those of
    the plain remaining-points / 3 bound; only the node count falls,
    and under a budget the size can only grow.  Returns (size, witness
    ids, nodes, complete).  Branch order, bounds and node count are
    part of the contract: the tests pin all four values per system
    against an independent reference copy of these bounds.

    Systems with a compiled index (``_handle``) run ``pack`` in the
    extension, which gives the same four values; others run the search
    here.
    """
    handle = _handle(sys)
    if handle:
        return _native.pack(handle, budget)
    masks = sys.block_masks
    blocks = sys.blocks
    nblocks = len(masks)
    deg = [0] * sys.n
    for blk in blocks:
        a, b, c = blk.points
        deg[a] += 1
        deg[b] += 1
        deg[c] += 1
    reach = [0] * (nblocks + 1)
    hit = [0] * (nblocks + 1)
    r = h = 0
    for j in range(nblocks - 1, -1, -1):
        m = masks[j]
        r |= m
        if not m & h:
            a, b, c = blocks[j].points
            da, db, dc = deg[a], deg[b], deg[c]
            if da >= db and da >= dc:
                h |= 1 << a
            elif db >= dc:
                h |= 1 << b
            else:
                h |= 1 << c
        reach[j] = r
        hit[j] = h
    best = 0
    witness = ()
    nodes = 0
    chosen = []
    # Each branch point pushes its exclude branch (the next block, the
    # points used, the packing size) and goes on with the include
    # branch, so branches are taken in the order of the include-first
    # recursion without nesting a call per branch.
    stack = [(0, 0, 0)]
    while stack:
        j, used, depth = stack.pop()
        del chosen[depth:]
        while True:
            if budget is not None and nodes >= budget:
                return best, witness, nodes, False
            nodes += 1
            while j < nblocks and masks[j] & used:
                j += 1
            if j == nblocks:
                if depth > best:
                    best = depth
                    witness = tuple(chosen)
                break
            free = ~used
            room = best - depth
            if (hit[j] & free).bit_count() <= room or (reach[j] & free).bit_count() // 3 <= room:
                break
            stack.append((j + 1, used, depth))
            chosen.append(j)
            depth += 1
            used |= masks[j]
            j += 1
    return best, witness, nodes, True
