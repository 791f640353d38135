"""Tests of the benchmark's own oracles and of its failure exit.

Run with: python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import STS13_BASES, STS19_BASES, cyclic, transversal_system  # noqa: E402
from oracles import (  # noqa: E402
    Violation,
    bad_segment,
    check_certificate,
    check_negative,
    check_witness,
    packing_number,
    vertex_deletion_certificate,
)
from run import end_to_end  # noqa: E402
from workloads import (  # noqa: E402
    STS13_VERTEX11,
    Pass,
    ReferenceLoop,
    _check_sts13_report,
    _check_verdict,
)

TWO_BLOCKS = (6, [(0, 1, 2), (3, 4, 5)])
FANO = (7, cyclic(7, [(0, 1, 3)]))


def test_admissible_witness_passes():
    n, blocks = TWO_BLOCKS
    check_witness(n, blocks, [0, 1, 3, 4, 2, 5], "two blocks")


def test_tampered_witness_is_refused():
    n, blocks = TWO_BLOCKS
    assert bad_segment(n, blocks, [0, 1, 2, 3, 4, 5])[:2] == (0, 3)
    with pytest.raises(Violation):
        check_witness(n, blocks, [0, 1, 2, 3, 4, 5], "tampered")
    with pytest.raises(Violation):
        check_witness(n, blocks, [0, 1, 3, 4, 2, 2], "not a permutation")


def test_packing_oracle():
    assert packing_number(FANO[1]) == 1
    assert packing_number(cyclic(13, STS13_BASES)) == 4
    assert packing_number(TWO_BLOCKS[1]) == 2
    rng = random.Random(3)
    for k in range(1, 7):
        assert packing_number(transversal_system(rng, 15 * k, k, 8)) == k


@pytest.mark.parametrize("n,bases", [(13, STS13_BASES), (19, STS19_BASES)])
def test_cyclic_systems_carry_certificates(n, bases):
    blocks = cyclic(n, bases)
    cert = vertex_deletion_certificate(n, blocks)
    check_certificate(n, blocks, cert)
    check_negative(n, blocks)
    broken = [list(f) for f in cert]
    broken[5] = broken[5][1:]
    with pytest.raises(Violation):
        check_certificate(n, blocks, broken)


def test_uncertified_negative_is_refused():
    n, blocks = TWO_BLOCKS
    with pytest.raises(Violation, match="admissible"):
        check_negative(n, blocks)
    # Order 15 admits no vertex-deletion certificate, and a capped
    # independent search that cannot finish backs nothing.
    with pytest.raises(Violation, match="no certificate"):
        check_negative(15, cyclic(15, [(0, 1, 4)]), cap=10)


def test_decide_report_checks():
    n, blocks = TWO_BLOCKS
    good = {"outcome": "sequenceable", "details": {"witness": ["0", "1", "3", "4", "2", "5"]}}
    assert _check_verdict(good, 0, n, blocks, None, 100, "good") is True
    bad = {"outcome": "sequenceable", "details": {"witness": ["0", "1", "2", "3", "4", "5"]}}
    with pytest.raises(Violation):
        _check_verdict(bad, 0, n, blocks, None, 100, "tampered")
    negative = {"outcome": "not-sequenceable", "details": {}}
    with pytest.raises(Violation):
        _check_verdict(negative, 1, n, blocks, None, 100, "uncertified")
    early = {"outcome": "unknown", "details": {"nodes_explored": 5, "exhausted": False}}
    with pytest.raises(Violation):
        _check_verdict(early, 2, n, blocks, None, 100, "early unknown")


def test_sts13_report_checks():
    blocks = cyclic(13, STS13_BASES)
    cert = vertex_deletion_certificate(13, blocks)
    assert {tuple(b) for b in cert[11]} == STS13_VERTEX11
    entries = [{"vertex": v, "blocks": [list(b) for b in cert[v]]} for v in range(13)]
    report = {"outcome": "verified", "details": {"entries": entries}}
    _check_sts13_report(report, 0)
    with pytest.raises(Violation):
        _check_sts13_report(report, 1)
    entries[11]["blocks"] = entries[10]["blocks"]
    with pytest.raises(Violation):
        _check_sts13_report(report, 0)


def test_latencies_are_in_reference_units():
    passes = [Pass(0.0, array("d", [a, b] + [1.0] * 8))
              for a, b in ((2.0, 4.0), (4.0, 8.0), (3.0, 6.0))]
    reference = [0.5, 0.5, 2.0]
    for statistic, wall in ((statistics.median, 17.0), (min, 14.0)):
        wl = SimpleNamespace(statistic=statistic)
        metrics, times, instances = end_to_end(wl, passes, reference, 1, 10, 0.1, 2048)
        assert instances == 10
        assert times["wall_s"] == (wall, "s")
        assert metrics["wall_ref"] == (wall / 0.5, "ref")
        assert metrics["instance_p50_ref"] == (2.0, "ref")
        assert metrics["definite_rate"] == (0.1, "ratio")
        assert metrics["peak_rss_mb"] == (2.0, "MB")


def test_reference_loop_samples_only_when_due_and_not_paused():
    ref = ReferenceLoop()
    ref.interval = 60.0
    ref.paused = True
    ref.tick()
    assert len(ref.samples) == 0
    ref.paused = False
    ref.tick()
    ref.tick()
    assert len(ref.samples) == 1 and ref.samples[0] > 0


_WRONG_CONSTRUCT = '''
_benchmark_original_construct = construct


def construct(system):
    _benchmark_original_construct(system)
    return Sequence(tuple(range(system.n)))
'''

_WRONG_DECIDE = '''
def decide(system, budget=DEFAULT_BUDGET, parallel=1, exhaust=False):
    return Decision(Outcome.NOT_SEQUENCEABLE, None, 1, True, 1)
'''


def _broken_checkout(tmp_path, patch):
    root = tmp_path / "checkout"
    shutil.copytree(HERE.parent / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    with open(root / "src" / "pstseq" / "sequencer.py", "a") as fh:
        fh.write(patch)
    return root


@pytest.mark.parametrize("workload,patch", [
    ("construct-corpus", _WRONG_CONSTRUCT),
    ("hunt", _WRONG_DECIDE),
])
def test_run_exits_nonzero_on_wrong_answer(tmp_path, workload, patch):
    root = _broken_checkout(tmp_path, patch)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1
    assert "VIOLATION" in proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
