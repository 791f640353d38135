"""The benchmark workloads.

Each workload builds its inputs from the seed in ``prepare`` (timed as
set-up), runs one closed-loop pass over them in ``run_pass`` (one call
at a time, each instance timed), and checks a pass's outputs against
the independent oracles in ``check``, which returns how many operations
ended in a verified definite answer and raises ``Violation`` on any
wrong or unbacked answer.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import time
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from inputs import (
    STS13_BASES,
    STS19_BASES,
    construct_route,
    cyclic,
    relabel,
    system_with_packing,
    write_psts,
)
from oracles import (
    Violation,
    check_certificate,
    check_negative,
    check_witness,
    packing_number,
    vertex_deletion_certificate,
)

#: The vertex-11 family the order-13 certificate must report.
STS13_VERTEX11 = {(0, 2, 7), (1, 3, 8), (5, 6, 9), (4, 10, 12)}


class ReferenceLoop:
    """Times a fixed pure-Python loop between instances, every ``interval`` s.

    A shared host's speed drifts by half again over minutes, which moves
    every timing of a run alike.  The latency metrics are reported in
    units of this loop's time, taken at the same moments, so that drift
    cancels while a change to the program still shows.  ``tick`` is
    called between instances, outside their timing; paused, it does
    nothing, so traced passes carry no samples.
    """

    interval = 0.02

    def __init__(self):
        self.samples = array("d")
        self.paused = False
        self._last = 0.0
        self._table = {i: i * 7919 % 10007 for i in range(20000)}

    def work(self):
        """Dict lookups, set inserts and small tuples, as in pstseq's own
        pure-Python code, over a table of about 2 MB.

        About 1 ms alone and 2-3 ms between instances, whose work evicts
        the table from the caches, so it feels a busy memory system too.
        """
        table, seen, total = self._table, set(), 0
        for i in range(0, 20000, 5):
            v = table[i * 7919 % 20000]
            if v not in seen:
                seen.add(v)
            total += len((v, i, total & 7))
        return total

    def tick(self):
        if self.paused or time.perf_counter() - self._last < self.interval:
            return
        t0 = time.perf_counter()
        self.work()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)


@dataclass
class Pass:
    wall: float
    # Compact, so the samples a run keeps barely move its peak memory.
    latencies: array = field(default_factory=lambda: array("d"))
    outputs: list = field(default_factory=list)
    errors: int = 0


def _reports(outputs):
    """``(exit code, JSON report or None)`` per CLI call, minus timing.

    The timing field is the only part of a report that may differ
    between runs, so the rest must repeat exactly from pass to pass.
    """
    out = []
    for code, text in outputs:
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            report = None
        else:
            report.pop("timing", None)
        out.append((code, report))
    return out


def _check_verdict(report, code, n, blocks, cert, budget, context):
    """Check one decide report; True when it is a definite answer."""
    outcome = report.get("outcome")
    details = report.get("details", {})
    if outcome == "sequenceable" and code == 0:
        check_witness(n, blocks, [int(x) for x in details["witness"]], context)
        return True
    if outcome == "not-sequenceable" and code == 1:
        try:
            check_negative(n, blocks, cert)
        except Violation as exc:
            raise Violation(f"{context}: {exc}") from None
        return True
    if outcome == "unknown" and code == 2:
        if details.get("exhausted") or details.get("nodes_explored", 0) < budget:
            raise Violation(f"{context}: unknown before the budget of {budget} ran out")
        return False
    raise Violation(f"{context}: outcome {outcome!r} with exit code {code}")


def _check_sts13_report(report, code):
    if code != 0 or report.get("outcome") != "verified":
        raise Violation(f"verify-sts13: outcome {report.get('outcome')!r}, exit code {code}")
    entries = report["details"]["entries"]
    families = {e["vertex"]: [tuple(b) for b in e["blocks"]] for e in entries}
    if sorted(families) != list(range(13)):
        raise Violation("verify-sts13: entries do not cover the 13 vertices once each")
    check_certificate(13, cyclic(13, STS13_BASES), [families[v] for v in range(13)])
    if {tuple(sorted(b)) for b in families[11]} != STS13_VERTEX11:
        raise Violation(f"verify-sts13: vertex-11 family is {families[11]}")


class Workload:
    name = ""
    #: How a run condenses an instance's latencies over its passes, and
    #: the reference loop's samples alike.  Instances of a few
    #: milliseconds or more always overlap some slow spell of the host,
    #: so their median is the steady figure.
    statistic = staticmethod(statistics.median)

    def __init__(self, seed, workdir: Path, env):
        self.seed = seed
        self.workdir = workdir
        self.env = env

    def prepare(self):
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def normalize(self, outputs):
        """A pass's outputs in the form ``check`` reads and passes compare."""
        return outputs

    def check(self, outputs) -> int:
        raise NotImplementedError

    def routes(self):
        """Construction route per instance id, where the workload constructs."""
        return {}


class DecideHard(Workload):
    """Budgeted ``decide`` on relabeled cyclic STS(13) and STS(19)."""

    name = "decide-hard"
    budget = 1000
    # With verify-sts13 a pass has 100 instances: the median lands near
    # the middle of the STS(13) latencies and the 90th percentile near
    # the middle of STS(19)'s, where the seed's relabelings move them least.
    copies = ((13, STS13_BASES, 80), (19, STS19_BASES, 19))

    def prepare(self):
        rng = random.Random(self.seed)
        self.instances = []
        for n, bases, copies in self.copies:
            base = cyclic(n, bases)
            for i in range(copies):
                blocks = relabel(n, base, rng)
                path = self.workdir / f"sts{n}-{i}.psts"
                write_psts(path, n, blocks)
                cert = vertex_deletion_certificate(n, blocks)
                argv = ["decide", str(path), "--json", "--budget", str(self.budget)]
                self.instances.append((argv, n, blocks, cert))
        self.instances.append((["verify-sts13", "--json"], 13, None, None))

    def run_pass(self):
        p = Pass(0.0)
        started = time.perf_counter()
        for i, (argv, *_rest) in enumerate(self.instances):
            self.env.tracer.instance = i
            self.env.reference.tick()
            out = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(out):
                code = self.env.cli.main(argv)
            p.latencies.append(time.perf_counter() - t0)
            p.outputs.append((code, out.getvalue()))
        p.wall = time.perf_counter() - started
        return p

    def normalize(self, outputs):
        return _reports(outputs)

    def check(self, outputs):
        definite = 0
        for (argv, n, blocks, cert), (code, report) in zip(self.instances, outputs):
            if report is None:
                raise Violation(f"{' '.join(argv)}: no JSON report (exit code {code})")
            if argv[0] == "verify-sts13":
                _check_sts13_report(report, code)
                definite += 1
            else:
                definite += _check_verdict(report, code, n, blocks, cert, self.budget, argv[1])
        return definite


class _StampedOut(io.StringIO):
    """Captures stdout and notes when each line (one hunt record) ends."""

    def __init__(self, on_line):
        super().__init__()
        self.on_line = on_line

    def write(self, s):
        written = super().write(s)
        if s.endswith("\n"):
            self.on_line()
        return written


class Hunt(Workload):
    """In-process ``hunt`` at the Johnson-Schonheim block count."""

    name = "hunt"
    budget = 200
    # Seeds per order.  Orders 13 and 15 mix verdicts (about 42 % and
    # 28 % UNKNOWN today), so both kinds of latency are seen; order 19 is
    # nearly all UNKNOWN and stays busy under look-ahead.  With about a
    # third UNKNOWN in all, the median lies inside the SEQUENCEABLE
    # latencies and the 90th percentile inside the order-13 and order-15
    # UNKNOWN ones, away from the gap between them, where a seed's share
    # of UNKNOWN verdicts would move them most.
    plan = ((13, 300), (15, 500), (19, 60))

    def prepare(self):
        lo = self.seed * 1000
        self.runs = [
            (order, range(lo, lo + count),
             ["hunt", "--order", str(order), "--seeds", f"{lo}..{lo + count - 1}",
              "--budget", str(self.budget)])
            for order, count in self.plan
        ]

    def run_pass(self):
        p = Pass(0.0)
        tracer = self.env.tracer
        started = time.perf_counter()
        for _order, _seeds, argv in self.runs:
            last = [time.perf_counter()]

            def stamp():
                p.latencies.append(time.perf_counter() - last[0])
                tracer.instance += 1
                self.env.reference.tick()
                last[0] = time.perf_counter()

            out = _StampedOut(stamp)
            with redirect_stdout(out):
                code = self.env.cli.main(argv)
            records = [json.loads(line) for line in out.getvalue().splitlines()]
            p.outputs.append((code, records))
        p.wall = time.perf_counter() - started
        return p

    def check(self, outputs):
        env = self.env
        definite = 0
        for (order, seeds, _argv), (code, records) in zip(self.runs, outputs):
            if [r["seed"] for r in records] != list(seeds):
                raise Violation(f"hunt order {order}: records do not match the seed range")
            worst = 0
            for rec in records:
                context = f"hunt order {order} seed {rec['seed']}"
                system = env.generators.random_system(
                    order, env.generators.johnson_schonheim(order), rec["seed"]
                )
                blocks = [b.points for b in system.blocks]
                if rec["blocks"] != len(blocks) or rec["nu"] != packing_number(blocks):
                    raise Violation(f"{context}: block count or packing number is wrong")
                if rec["outcome"] == "sequenceable":
                    # Records carry no witness: re-run the same search untimed.
                    decision = env.sequencer.decide(system, budget=self.budget)
                    witness = decision.witness
                    if witness is None or decision.nodes_explored != rec["nodes_explored"]:
                        raise Violation(f"{context}: untimed re-run disagrees with the record")
                    check_witness(order, blocks, witness.entries, context)
                    definite += 1
                elif rec["outcome"] == "not-sequenceable":
                    raw = rec["system"]["blocks"]
                    if sorted(tuple(sorted(int(x) for x in b)) for b in raw) != sorted(blocks):
                        raise Violation(f"{context}: the record's system is not the seeded one")
                    try:
                        check_negative(order, blocks)
                    except Violation as exc:
                        raise Violation(f"{context}: {exc}") from None
                    definite += 1
                    worst = 1
                elif rec["outcome"] == "unknown":
                    if rec["nodes_explored"] < self.budget:
                        raise Violation(f"{context}: unknown before the budget ran out")
                    worst = worst or 2
                else:
                    raise Violation(f"{context}: outcome {rec['outcome']!r}")
            if code != worst:
                raise Violation(f"hunt order {order}: exit code {code}, expected {worst}")
        return definite


#: (count, orders, packing numbers, extra-block range) per stratum.
#: Orders, packing numbers and extra-block counts step through their
#: ranges so every seed draws the same mix and only the blocks are
#: random; ``None`` orders sit at the interleaving threshold
#: ``15 nu - 5`` and up to five points above it.
CORPUS_PLAN = (
    (80, (3, 30), (1, 1, 1, 0), (0, 10)),
    (80, (6, 30), (2,), (0, 10)),
    (40, (9, 9), (3,), (0, 6)),
    (40, (10, 10), (3,), (0, 6)),
    (40, (11, 11), (3,), (0, 6)),
    (60, (12, 12), (3,), (0, 6)),
    (140, (13, 40), (3,), (0, 30)),
    (12, None, (4, 5, 6), (8, 8)),
)


def corpus(rng, plan):
    """Seeded ``(n, blocks, nu, route)`` instances, one stratum per route.

    Every instance's packing number comes from the oracle, and none may
    route to the exhaustive search.
    """
    out = []
    for count, orders, nus, extras in plan:
        for i in range(count):
            nu = nus[i % len(nus)]
            step = i // len(nus)
            if orders is None:
                n = 15 * nu - 5 + step % 6
            else:
                n = orders[0] + step % (orders[1] - orders[0] + 1)
            extra = extras[0] + step * 7 % (extras[1] - extras[0] + 1)
            blocks = system_with_packing(rng, n, nu, extra)
            nu = packing_number(blocks)
            route = construct_route(n, nu)
            if route == "search":
                raise RuntimeError(f"corpus instance of order {n} routes to search")
            out.append((n, blocks, nu, route))
    return out


class ConstructCorpus(Workload):
    """Library ``validate_system`` then ``construct`` over every route."""

    name = "construct-corpus"
    # Constructions take 0.05-1 ms, so each instance and the reference
    # loop meet an undisturbed moment in every run: their fastest
    # samples are steadier than their medians, which weigh how much the
    # host disturbs this allocation-heavy code against the loop.
    statistic = staticmethod(min)

    def prepare(self):
        self.instances = corpus(random.Random(self.seed), CORPUS_PLAN)

    def routes(self):
        return {i: inst[3] for i, inst in enumerate(self.instances)}

    def run_pass(self):
        validate = self.env.core.validate_system
        construct = self.env.sequencer.construct
        p = Pass(0.0)
        started = time.perf_counter()
        for i, (n, blocks, _nu, _route) in enumerate(self.instances):
            self.env.tracer.instance = i
            self.env.reference.tick()
            t0 = time.perf_counter()
            try:
                entries = construct(validate(n, blocks)).entries
            except Exception as exc:  # any failure is counted and checked below
                entries = f"{type(exc).__name__}: {exc}"
                p.errors += 1
            p.latencies.append(time.perf_counter() - t0)
            p.outputs.append(entries)
        p.wall = time.perf_counter() - started
        return p

    def check(self, outputs):
        definite = 0
        for i, ((n, blocks, nu, route), entries) in enumerate(zip(self.instances, outputs)):
            context = f"construct instance {i} (order {n}, route {route})"
            if isinstance(entries, str):
                if nu <= 3:
                    raise Violation(f"{context}: failed with {entries}")
                continue
            check_witness(n, blocks, entries, context)
            definite += 1
        return definite


WORKLOADS = {w.name: w for w in (DecideHard, Hunt, ConstructCorpus)}


def child_env(root: Path):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
