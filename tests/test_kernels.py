"""The kernel seam, the kernels, and the compiled extension.

The partition and scan tests run twice: as they stand, on the compiled
test where it can be built, and once more with the ``python_path``
fixture, on the Python recursion.
"""

import copy
import hashlib
import itertools
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstseq
from pstseq import (
    TripleSystem,
    _pykernels as pure,
    cli,
    construct,
    decide,
    johnson_schonheim,
    kernels,
    random_system,
)
from conftest import oracle_has_partition_subsets


def test_prepare_returns_pure_kernels():
    for n, masks in ((0, ()), (6, (0b111, 0b111000)), (65, ())):
        assert kernels.prepare(n, masks)[0] is pure
    assert pstseq.backend_name() == "pure"
    _, system = kernels.prepare(6, (0b111, 0b111000))
    assert type(system) is TripleSystem
    assert system.block_masks == (0b111, 0b111000)
    assert pure.find_partition(system, 0b111111) == (0, 1)


def test_pure_supports_arbitrary_order():
    system = random_system(70, 8, 1)
    witness, nodes, exhausted = pure.decide_search(system, 10_000, False)
    assert sorted(witness) == list(range(70))
    assert nodes == 70 and not exhausted
    assert pure.inadmissible_scan(system, witness, True) == []
    first = system.blocks[0].points
    perm = list(first) + [p for p in range(70) if p not in first]
    assert pure.inadmissible_scan(system, perm, True) == [(0, 3, (0,))]


def test_pure_partition_matches_subset_oracle():
    # Existence against the subset oracle, and the ids and their order
    # against the least-point-first reference search.
    for seed in range(5):
        system = random_system(9, 5, seed)
        partition = _all_blocks_partitioner(system.n, system.block_masks)
        for size in (3, 6, 9):
            for combo in itertools.combinations(range(9), size):
                mask = sum(1 << p for p in combo)
                got = pure.find_partition(system, mask)
                assert got == partition(mask)
                assert (got is not None) == oracle_has_partition_subsets(system, combo)


def _all_blocks_partitioner(n, masks):
    """A function giving the block ids that partition a target, or None:
    branch on the least point, trying every block through it in
    canonical order."""
    through = [[bid for bid, m in enumerate(masks) if m >> p & 1] for p in range(n)]

    def search(rest):
        if not rest:
            return ()
        p = (rest & -rest).bit_length() - 1
        for bid in through[p]:
            m = masks[bid]
            if m & rest == m:
                tail = search(rest & ~m)
                if tail is not None:
                    return (bid,) + tail
        return None

    return lambda target: search(target) if target.bit_count() % 3 == 0 else None


def test_partition_matches_all_blocks_search():
    # Random subsets, and unions of random disjoint blocks so that many
    # targets do split; sizes 3, 6, 9, ... up to the order.
    found = 0
    for n in range(9, 22):
        bound = johnson_schonheim(n)
        for target in (bound, bound // 2):
            for seed in range(3):
                system = random_system(n, target, seed)
                masks = system.block_masks
                partition = _all_blocks_partitioner(n, masks)
                rng = random.Random(seed)
                for size in range(3, n + 1, 3):
                    for _ in range(10):
                        samples = [sum(1 << p for p in rng.sample(range(n), size))]
                        union = 0
                        for m in rng.sample(masks, len(masks)):
                            if not m & union and union.bit_count() < size:
                                union |= m
                        samples.append(union)
                        for mask in samples:
                            expected = partition(mask)
                            assert pure.find_partition(system, mask) == expected
                            assert pure.can_partition(system, mask) == (expected is not None)
                            found += expected is not None
    assert found > 1000


def _unfiltered_scan(n, masks, entries):
    """Every proper segment of length 3, 6, ... in (length, start) order
    with the ids of its partition, testing each one."""
    partition = _all_blocks_partitioner(n, masks)
    out = []
    for length in range(3, n, 3):
        for start in range(n - length + 1):
            parts = partition(sum(1 << p for p in entries[start : start + length]))
            if parts is not None:
                out.append((start, length, parts))
    return out


def _scan_cases():
    # Random permutations, and permutations with a block or a union of
    # disjoint blocks placed as one segment, in random inner order.
    for n in range(26):
        bound = johnson_schonheim(n)
        for target in sorted({bound, bound // 2}):
            for seed in range(4):
                system = random_system(n, target, seed)
                rng = random.Random(seed * 100 + n)
                for _ in range(3):
                    yield system, rng.sample(range(n), n)
                union = []
                for blk in rng.sample(system.blocks, len(system.blocks)):
                    if not set(blk.points) & set(union):
                        union += blk.points
                        rest = [p for p in range(n) if p not in union]
                        rng.shuffle(rest)
                        at = rng.randrange(len(rest) + 1)
                        yield system, rest[:at] + rng.sample(union, len(union)) + rest[at:]


def test_scan_matches_unfiltered_scan():
    cases = hits = 0
    for system, entries in _scan_cases():
        expected = _unfiltered_scan(system.n, system.block_masks, entries)
        assert pure.inadmissible_scan(system, entries) == expected
        assert pure.inadmissible_scan(system, entries, True) == expected[:1]
        cases += 1
        hits += len(expected)
    assert cases > 1000 and hits > 1000


def test_benchmark_hooks(monkeypatch):
    # Tracing swaps these module attributes: the kernel names must
    # exist, the Python search must reach ``can_partition`` through the
    # module, and the scan must not, so that a count of
    # ``can_partition`` calls counts search tests only.  The scan calls
    # ``find_partition`` once per hit.  The compiled walk makes its
    # tests in C, so the search runs here on the Python path.
    mod, _ = kernels.prepare(0, ())
    for name in ("decide_search", "inadmissible_scan", "max_packing",
                 "can_partition", "find_partition"):
        assert callable(getattr(mod, name))
    calls = {"can_partition": 0, "find_partition": 0}
    for name in calls:
        def counted(*args, _fn=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, name, counted)
    system = random_system(13, johnson_schonheim(13), 1)
    with monkeypatch.context() as python_path:
        python_path.setattr(pure, "_native", False)
        mod.decide_search(system, 200, False)
    assert calls["can_partition"] > 0 and calls["find_partition"] == 0
    searched = calls["can_partition"]
    first = system.blocks[0].points
    perm = list(first) + [p for p in range(13) if p not in first]
    hits = mod.inadmissible_scan(system, perm, False)
    assert hits and calls["find_partition"] == len(hits)
    assert calls["can_partition"] == searched


@pytest.mark.usefixtures("python_path")
def test_pure_partition_matches_subset_oracle_python():
    test_pure_partition_matches_subset_oracle()


@pytest.mark.usefixtures("python_path")
def test_partition_matches_all_blocks_search_python():
    test_partition_matches_all_blocks_search()


@pytest.mark.usefixtures("python_path")
def test_scan_matches_unfiltered_scan_python():
    test_scan_matches_unfiltered_scan()


def _python_twin(system):
    """A copy of ``system`` that runs the Python recursion."""
    twin = copy.copy(system)
    twin._native = False
    return twin


@st.composite
def _systems_and_masks(draw):
    # Orders and block counts near-uniform (``sampled_from``; ``integers``
    # favours the ends of its range).  Random subsets, and unions of
    # disjoint blocks, which split.  On sets of many more than 30 points
    # the Python recursion can take seconds, so the subsets of a
    # multiple of 3 points and the unions stop at 30.
    n = draw(st.sampled_from(range(65)))
    target = draw(st.sampled_from(range(johnson_schonheim(n) + 1)))
    system = random_system(n, target, draw(st.integers(0, 10**6)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    masks = [0]
    for _ in range(20):
        masks.append(rng.getrandbits(n) if n else 0)
        size = rng.randrange(0, min(n, 30) + 1, 3)
        masks.append(sum(1 << p for p in rng.sample(range(n), size)))
        union, cap = 0, rng.randrange(3, 31, 3)
        for m in rng.sample(system.block_masks, len(system.block_masks)):
            if not m & union and union.bit_count() < cap:
                union |= m
        masks.append(union)
    return system, masks


@settings(max_examples=120, deadline=None)
@given(_systems_and_masks())
def test_native_matches_python_recursion(native, case):
    system, masks = case
    handle = native.prepare(system.n, system.block_masks)
    twin = _python_twin(system)
    for mask in masks:
        parts = pure.find_partition(twin, mask)
        splits = mask.bit_count() % 3 == 0 and pure._split(twin, mask)
        assert native.split(handle, mask) == splits
        assert native.find(handle, mask) == parts
        assert pure.find_partition(system, mask) == parts
        assert pure.can_partition(system, mask) == (parts is not None)


def test_native_keeps_block_order_within_a_least_point(native):
    # A system built directly may list its blocks out of canonical order.
    # ``_split`` tries the blocks led by a point in block order, so the
    # compiled index must group them by least point without reordering
    # them: here the reversed order gives other parts than the
    # canonical one for many sets.
    changed = 0
    for n in (19, 25):
        base = random_system(n, johnson_schonheim(n), 0)
        system = TripleSystem(n, base.blocks[::-1], base.labels)
        handle = native.prepare(n, system.block_masks)
        twin = _python_twin(system)
        full = system.full_mask()
        singles = itertools.combinations(range(n), 1)
        fours = itertools.islice(itertools.combinations(range(n), 4), 300)
        for drop in itertools.chain(singles, fours):
            mask = full ^ sum(1 << p for p in drop)
            parts = []
            expected = tuple(reversed(parts)) if pure._split(twin, mask, parts) else None
            assert native.find(handle, mask) == expected
            canonical = pure.find_partition(base, mask)
            if expected is not None:
                changed += {system.blocks[i] for i in expected} != {base.blocks[i] for i in canonical}
    assert changed > 200


def _planted(system, rng, whole):
    """A permutation of the system's points with a union of disjoint
    blocks, the first one through the last point when a block holds it,
    placed as one segment: block by block in random inner order when
    ``whole`` is false, so that every run of whole blocks splits, else
    as one shuffled run."""
    n = system.n
    blocks = sorted(rng.sample(system.blocks, len(system.blocks)), key=lambda b: n - 1 not in b)
    runs = []
    used = set()
    for blk in blocks:
        if not used & set(blk.points) and len(used) < 30:
            used.update(blk.points)
            runs.append(rng.sample(blk.points, 3))
    union = [p for run in runs for p in run]
    if whole:
        rng.shuffle(union)
    rest = [p for p in range(n) if p not in used]
    rng.shuffle(rest)
    at = rng.randrange(len(rest) + 1)
    return rest[:at] + union + rest[at:]


def test_native_scan_matches_python(native):
    # Orders 0-64.  Above order 25 the systems hold n blocks: at half
    # the bound one unfiltered scan of order 64 takes half a minute.
    last = 0
    for n in range(65):
        system = random_system(n, johnson_schonheim(n) if n <= 25 else n, n)
        twin = _python_twin(system)
        handle = native.prepare(n, system.block_masks)
        rng = random.Random(n)
        for entries in (rng.sample(range(n), n), _planted(system, rng, False),
                        _planted(system, rng, True)):
            expected = _unfiltered_scan(n, system.block_masks, entries)
            hits = [(s, k, sum(1 << p for p in entries[s : s + k])) for s, k, _ in expected]
            for seq in (entries, tuple(entries)):
                for stop_first in (False, True):
                    cut = 1 if stop_first else len(expected)
                    assert native.scan(handle, seq, stop_first) == hits[:cut]
                    assert pure.inadmissible_scan(system, seq, stop_first) == expected[:cut]
                    assert pure.inadmissible_scan(twin, seq, stop_first) == expected[:cut]
            if n == 64:
                last += sum(63 in entries[s : s + k] for s, k, _ in expected)
        assert type(system._native).__name__ == "PyCapsule" and twin._native is False
    assert last > 0


def test_native_serves_orders_up_to_64(native, monkeypatch):
    for n, expect in ((0, True), (64, True), (65, False), (70, False)):
        system = random_system(n, min(20, johnson_schonheim(n)), 1)
        assert system._native is None
        pure.can_partition(system, 0)
        assert (type(system._native).__name__ == "PyCapsule") is expect
        if not expect:
            assert system._native is False
    # An order-65 scan runs the Python loop with the extension loaded.
    tested = []
    split = pure._split
    monkeypatch.setattr(pure, "_split", lambda *args: tested.append(args) or split(*args))
    system = random_system(65, 65, 1)
    entries = _planted(system, random.Random(65), False)
    expected = _unfiltered_scan(65, system.block_masks, entries)
    assert expected and pure.inadmissible_scan(system, entries) == expected
    assert tested and system._native is False


def test_cached_index_runs_python_when_the_extension_is_off(native, monkeypatch):
    # A system keeps the index it cached while the extension was loaded;
    # once the extension counts as unbuilt, every kernel runs the Python
    # code and gives what the compiled one gave.
    system = random_system(19, johnson_schonheim(19), 3)
    entries = _planted(system, random.Random(19), False)
    full = system.full_mask()
    masks = [full ^ 1 << p for p in range(19)] + [sum(1 << p for p in entries[:9])]

    def run():
        return ([pure.find_partition(system, m) for m in masks],
                [pure.can_partition(system, m) for m in masks],
                pure.inadmissible_scan(system, entries),
                pure.max_packing(system, 10_000),
                pure.decide_search(system, 500, True))

    expected = run()
    assert type(system._native).__name__ == "PyCapsule"
    assert any(expected[1]) and expected[2]
    monkeypatch.setattr(pure, "_native", False)
    tested = []
    split = pure._split
    monkeypatch.setattr(pure, "_split", lambda *args: tested.append(args) or split(*args))
    assert run() == expected
    assert tested and type(system._native).__name__ == "PyCapsule"


def test_native_checks_its_arguments(native):
    system = random_system(13, johnson_schonheim(13), 1)
    handle = native.prepare(13, system.block_masks)
    with pytest.raises(ValueError):
        native.split(object(), 7)
    with pytest.raises(TypeError):
        native.split(handle, "7")
    with pytest.raises(OverflowError):
        native.find(handle, 1 << 64)
    with pytest.raises(OverflowError):
        native.split(handle, -1)
    with pytest.raises(TypeError):
        native.split(handle)
    masks = system.block_masks
    with pytest.raises(TypeError):
        native.prepare(13)
    with pytest.raises(TypeError):
        native.prepare("13", masks)
    for n in (-1, 65):
        with pytest.raises(ValueError):
            native.prepare(n, ())
    with pytest.raises(TypeError):
        native.prepare(13, list(masks))
    class Seven:
        # Not an int, though ``operator.index`` reads it as one.
        def __index__(self):
            return 0b111

    for bad in ("7", 7.0, Seven()):
        with pytest.raises(TypeError):
            native.prepare(13, masks + (bad,))
    for bad in (-0b111, 1 << 64 | 0b11):
        with pytest.raises(OverflowError):
            native.prepare(13, masks + (bad,))
    # Empty, not three points, or a point outside range(n).
    for bad in (0, 0b11, 0b1111, 1 << 13 | 0b11, 1 << 63 | 0b11):
        with pytest.raises(ValueError):
            native.prepare(13, masks + (bad,))
    assert native.find(native.prepare(64, (1 << 63 | 0b11,)), 1 << 63 | 0b11) == (0,)
    perm = list(range(13))
    for entries in (perm[1:], perm + [0], perm[:12] + [0], perm[:12] + [-1],
                    perm[:12] + [13], perm[:12] + [64], perm[:12] + [1 << 70]):
        with pytest.raises(ValueError):
            native.scan(handle, entries, False)
    class Clears:
        # Empties the list being scanned, if it is ever read as an index.
        def __index__(self):
            shrinking.clear()
            return 12

    shrinking = perm[:12] + [Clears()]
    for entries in (perm[:12] + ["12"], perm[:12] + [12.0], shrinking, 13):
        with pytest.raises(TypeError):
            native.scan(handle, entries, False)
    with pytest.raises(ValueError):
        native.scan(object(), perm, False)
    with pytest.raises(TypeError):
        native.scan(handle, perm)
    with pytest.raises(TypeError):
        native.scan(handle, perm, False, 1)


def _outputs(capsys):
    """``decide``, ``construct`` and ``hunt`` outputs on freshly built systems."""
    out = []
    for n, target in ((13, 26), (15, 35), (19, 57), (70, 30)):
        for seed in range(4):
            out.append(decide(random_system(n, target, seed), budget=200))
    for n in (9, 12, 16, 20, 64, 70):
        for seed in range(3):
            out.append(construct(random_system(n, 4, seed)))
    for order in (13, 15):
        code = cli.main(["hunt", "--order", str(order), "--seeds", "0..19", "--budget", "200"])
        out.append((code, capsys.readouterr().out))
    return out


@pytest.mark.parametrize("breakage", ["compiler", "cache"])
def test_failed_build_falls_back_once(monkeypatch, tmp_path, capsys, breakage):
    # The build is tried on the first kernel call, once per process, and
    # a failed one leaves every output as it was.
    expected = _outputs(capsys)
    source = tmp_path / "_native.c"
    shutil.copy(pure._SOURCE, source)
    if breakage == "compiler":
        monkeypatch.setitem(sysconfig.get_config_vars(), "LDSHARED", "no-such-compiler-for-pstseq")
    else:
        (tmp_path / "__pycache__").write_text("a file where the cache directory goes\n")
    monkeypatch.setattr(pure, "_SOURCE", str(source))
    monkeypatch.setattr(pure, "_native", None)
    builds = []
    compile_ = pure._compile
    monkeypatch.setattr(pure, "_compile", lambda *args: builds.append(args) or compile_(*args))
    assert _outputs(capsys) == expected
    assert pure._native is False and len(builds) == 1
    if breakage == "compiler":
        assert list((tmp_path / "__pycache__").iterdir()) == []


def test_build_is_cached_by_source_digest(native, monkeypatch, tmp_path):
    # A fresh build lands in the ``__pycache__`` next to the source under
    # a name keyed by the source's digest, with no temporary file left,
    # and the build of an earlier source is removed; other files stay.
    source = tmp_path / "_native.c"
    shutil.copy(pure._SOURCE, source)
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / f"_native.0123456789abcdef{suffix}").write_bytes(b"an earlier build")
    (cache / "other.pyc").write_bytes(b"not a build")
    monkeypatch.setattr(pure, "_SOURCE", str(source))
    monkeypatch.setattr(pure, "_native", None)
    built = pure._load_native()
    assert built and pure._native is built
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    assert sorted(p.name for p in cache.iterdir()) == [f"_native.{digest}{suffix}", "other.pyc"]
    system = random_system(13, johnson_schonheim(13), 2)
    handle = built.prepare(13, system.block_masks)
    twin = _python_twin(system)
    full = (1 << 13) - 1
    for p in range(13):
        assert built.find(handle, full ^ 1 << p) == pure.find_partition(twin, full ^ 1 << p)


def _compile(tmp_path, *flags):
    """Compile ``_native.c`` into ``tmp_path`` with the interpreter's
    ``LDSHARED`` and ``CCSHARED`` flags and ``flags``; skips where there
    is no compiler or no ``Python.h``.  Returns (path, completed run)."""
    config = sysconfig.get_config_vars()
    include = sysconfig.get_paths()["include"]
    cmd = shlex.split(f"{config.get('LDSHARED') or ''} {config.get('CCSHARED') or ''}")
    if not cmd or shutil.which(cmd[0]) is None:
        pytest.skip("no C compiler here")
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no Python.h here")
    path = tmp_path / f"_native{sysconfig.get_config_var('EXT_SUFFIX')}"
    cmd += [*flags, "-I", include, pure._SOURCE, "-o", str(path)]
    return path, subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                stdin=subprocess.DEVNULL)


def test_source_compiles_without_warnings(tmp_path):
    # The build discards the compiler's messages, so a warning in the
    # source would never show there; here every warning is an error.
    _, result = _compile(tmp_path, "-O2", "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror")
    assert result.returncode == 0, result.stderr


def test_kernels_run_clean_under_ubsan(tmp_path):
    # A build that aborts on undefined behaviour runs the walk, the scan
    # and the packing search at orders 63 and 64, where a shift by the
    # order would be undefined.  It is loaded in a child process.
    path, result = _compile(tmp_path, "-O1", "-fsanitize=undefined",
                            "-fno-sanitize-recover=undefined")
    if result.returncode:
        pytest.skip("the compiler does not build with -fsanitize=undefined here")
    src = os.path.dirname(os.path.dirname(pure.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import importlib.util, random, sys\n"
        "from pstseq import CyclicBase, _pykernels, cyclic_system, random_system, validate_system\n"
        "_pykernels._native = False\n"
        "spec = importlib.util.spec_from_file_location('pstseq._native', sys.argv[1])\n"
        "native = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(native)\n"
        "sts13 = cyclic_system(CyclicBase(13, ((0, 1, 4), (0, 2, 7))))\n"
        "for n in (63, 64):\n"
        "    top = validate_system(n, [[p + n - 13 for p in b.points] for b in sts13.blocks])\n"
        "    for system in (random_system(n, n, 1), top):\n"
        "        handle = native.prepare(n, system.block_masks)\n"
        "        walks = [native.walk(handle, budget, exhaust, cap)\n"
        "                 for budget in (None, 2_000) for exhaust in (False, True)\n"
        "                 for cap in (2, 1 << 16) if budget or not exhaust]\n"
        "        assert walks == [_pykernels.decide_search(system, budget, exhaust)\n"
        "                         for budget in (None, 2_000) for exhaust in (False, True)\n"
        "                         for cap in (2, 1 << 16) if budget or not exhaust]\n"
        "        entries = random.Random(n).sample(range(n), n)\n"
        "        native.scan(handle, entries, False)\n"
        "        native.scan(handle, walks[0][0], False)\n"
        "        native.pack(handle, 10_000)\n"
        "print('clean')\n"
    )
    result = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (0, "clean\n"), result.stderr
