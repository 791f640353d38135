#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for pstseq.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nowhere else.  Workloads: decide-hard, hunt and
construct-corpus (see perfbench/README.md).

A run sets up its seeded inputs several times (``setup_s`` is the
median), then, after one untimed warm-up pass, repeats closed-loop passes
over them, one call at a time, until ``--seconds`` have passed and at
least five passes ran.  Every workload has at least 100 instances a
pass.  Between instances, outside their timing, a fixed reference loop
is timed; the latency metrics are in units of its time (``ref``), so
that the host's drifting speed cancels.  Every pass is checked against
the independent oracles in ``oracles.py``; a wrong or unbacked answer
makes the run exit 1.  With ``--trace 1`` traced and
untraced passes alternate and the per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file
with run metadata, every metric and (traced runs) the spans of one pass
is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from oracles import Violation
from tracing import Tracer, summarize
from workloads import WORKLOADS, ReferenceLoop, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPS = 7
MIN_PASSES = 5
MIN_TRACED_PASSES = 2
HARD_STOP_S = 150
IMPORT_REPS = 7

ROUTES = ("nu_le1", "nu2", "order9", "order10", "order11", "template12", "extend", "interleave")


def _child_seconds(env, code):
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


def _cold_import_seconds(env):
    """Time to import pstseq.cli, measured inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import pstseq.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pstseq").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def run_passes(wl, env, seconds, trace):
    """Closed-loop passes until the time, pass and sample floors are met.

    Returns the untraced and traced passes, the spans of the first traced
    pass, the first pass's normalized outputs, and whether every later
    pass repeated them exactly.  Other outputs are dropped once compared.
    """
    untraced, traced, spans = [], [], None
    reference, repeated = None, True

    def compare(p):
        nonlocal reference, repeated
        outputs, p.outputs = wl.normalize(p.outputs), None
        if reference is None:
            reference = outputs
        elif outputs != reference:
            repeated = False

    wl.run_pass()  # warm-up: first-call costs are not paid per instance
    env.reference.samples = env.reference.samples[:0]
    start = time.perf_counter()
    while True:
        untraced.append(wl.run_pass())
        compare(untraced[-1])
        if trace:
            env.tracer.reset()
            env.tracer.install(env.kernel_module)
            env.reference.paused = True
            try:
                p = wl.run_pass()
            finally:
                env.tracer.uninstall()
                env.reference.paused = False
            p.layers = layer_metrics(env.tracer, wl.routes())
            spans = spans or env.tracer.spans
            compare(p)
            traced.append(p)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            break
        if trace:
            if elapsed >= seconds and len(traced) >= MIN_TRACED_PASSES:
                break
        elif elapsed >= seconds and len(untraced) >= MIN_PASSES:
            break
    return untraced, traced, spans, reference, repeated


def layer_metrics(tracer, routes):
    """Per-layer metrics of one traced pass (see README.md for the map)."""
    s = summarize(tracer.spans)
    c = tracer.counts

    def calls(name):
        return s.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return s.get(name, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    if tracer.counters_installed:
        tests = c.get("kernels.can_partition.calls", 0)
        m["kernels.can_partition.calls"] = (tests, "count")
        m["kernels.can_partition.hit_ratio"] = (
            ratio(c.get("kernels.can_partition.found", 0), tests), "ratio")
        m["kernels.find_partition.calls"] = (c.get("kernels.find_partition.calls", 0), "count")
    m["kernels.decide_search.s"] = (secs("kernels.decide_search"), "s")
    m["kernels.decide_search.nodes_per_s"] = (
        ratio(c.get("kernels.decide_search.nodes", 0), secs("kernels.decide_search")), "1/s")
    m["sequencer.decide.calls"] = (calls("sequencer.decide"), "count")
    m["sequencer.decide.nodes"] = (c.get("sequencer.decide.nodes", 0), "count")
    m["sequencer.decide.unknown"] = (c.get("sequencer.decide.unknown", 0), "count")
    m["sequencer.decide.s"] = (secs("sequencer.decide"), "s")
    m["kernels.inadmissible_scan.calls"] = (calls("kernels.inadmissible_scan"), "count")
    m["kernels.inadmissible_scan.s"] = (secs("kernels.inadmissible_scan"), "s")
    template = {i for i, sp in enumerate(tracer.spans) if sp[0] == "sequencer.pi_template_instantiate"}
    labelings = sum(1 for sp in tracer.spans
                    if sp[0] == "kernels.inadmissible_scan" and sp[3] in template)
    m["sequencer.pi_template_instantiate.labelings_per_call"] = (
        ratio(labelings, len(template)), "count")
    m["sequencer.construct.self_s"] = (s.get("sequencer.construct", (0, 0.0, 0.0))[2], "s")
    per_route = dict.fromkeys(ROUTES, 0.0)
    for name, start, end, _parent, instance in tracer.spans:
        if name == "sequencer.construct" and instance in routes:
            per_route[routes[instance]] += end - start
    for route in ROUTES:
        m[f"sequencer.construct.{route}.s"] = (per_route[route], "s")
    m["core.TripleSystem.subsystem.calls"] = (calls("core.TripleSystem.subsystem"), "count")
    m["core.TripleSystem.subsystem.s"] = (secs("core.TripleSystem.subsystem"), "s")
    m["packing.max_disjoint_blocks.calls"] = (calls("packing.max_disjoint_blocks"), "count")
    m["packing.max_disjoint_blocks.nodes"] = (c.get("packing.max_disjoint_blocks.nodes", 0), "count")
    m["packing.max_disjoint_blocks.s"] = (secs("packing.max_disjoint_blocks"), "s")
    m["kernels.max_packing.s"] = (secs("kernels.max_packing"), "s")
    m["core.validate_system.s"] = (secs("core.validate_system"), "s")
    m["core.is_admissible.calls"] = (calls("core.is_admissible"), "count")
    m["core.is_admissible.s"] = (secs("core.is_admissible"), "s")
    m["formats.load_system.s"] = (secs("formats.load_system"), "s")
    m["generators.random_system.s"] = (secs("generators.random_system"), "s")
    m["cli.build_parser.s"] = (secs("cli.build_parser"), "s")
    m["cli.main.self_s"] = (s.get("cli.main", (0, 0.0, 0.0))[2], "s")
    return m


def end_to_end(wl, untraced, reference, definite, ops, setup_s, peak_rss_kb):
    """End-to-end metrics, and the same latencies in milliseconds.

    Each instance's latencies over the untraced passes are condensed by
    the workload's statistic (every instance does the same work in every
    pass), and so are the reference loop's samples.  ``wall_ref`` and the
    percentiles are those latencies over the reference loop's time.
    """
    lat = [wl.statistic(x) for x in zip(*(p.latencies for p in untraced))]
    ref = wl.statistic(reference)
    metrics = {
        "wall_ref": (sum(lat) / ref, "ref"),
        "instance_p50_ref": (statistics.median(lat) / ref, "ref"),
        "instance_p90_ref": (statistics.quantiles(lat, n=10)[8] / ref, "ref"),
        "definite_rate": (definite / ops, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    ms = {
        "wall_s": (sum(lat), "s"),
        "instance_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "instance_ms_p90": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "reference_ms": (ref * 1e3, "ms"),
    }
    return metrics, ms, len(lat)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pstseq" / "__init__.py").is_file():
        print(f"error: no pstseq package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    import pstseq
    import pstseq.cli
    from pstseq import core, generators, kernels, sequencer

    if Path(pstseq.__file__).resolve().parent != (src / "pstseq").resolve():
        print(f"error: imported pstseq from {pstseq.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = OUT / "work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = SimpleNamespace(
        root=ROOT, cli=pstseq.cli, core=core, sequencer=sequencer, generators=generators,
        tracer=Tracer(), reference=ReferenceLoop(), kernel_module=kernels.prepare(0, ())[0],
        child_env=child_env(ROOT),
    )
    wl = WORKLOADS[args.workload](args.seed, workdir, env)

    setups = []
    for _ in range(SETUP_REPS):
        t_import = _cold_import_seconds(env.child_env)
        t0 = time.perf_counter()
        wl.prepare()
        setups.append(t_import + time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    untraced, traced, spans, reference, repeated = run_passes(
        wl, env, args.seconds, args.trace)
    # Read before the checks, whose oracles are not the program's memory.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = sum(len(p.latencies) for p in untraced + traced)
    failed = sum(p.errors for p in untraced + traced)

    correct, problem = True, None
    try:
        definite = wl.check(reference)
        if not repeated:
            raise Violation("outputs differ between passes over the same inputs")
        if args.workload == "construct-corpus":
            for p in traced:
                if p.layers["sequencer.decide.calls"][0]:
                    raise Violation("a construction fell through to the exhaustive search")
    except (Violation, KeyError, TypeError, ValueError) as exc:
        # A report missing a field or holding a malformed one is wrong too.
        correct, problem, definite = False, f"{type(exc).__name__}: {exc}", 0
        print(f"VIOLATION: {problem}", file=sys.stderr)

    ops = len(untraced[0].latencies)
    e2e, times, samples = end_to_end(wl, untraced, env.reference.samples, definite, ops,
                                     setup_s, peak_rss_kb)
    layers = {}
    if traced:
        for name in traced[0].layers:
            unit = traced[0].layers[name][1]
            layers[name] = (statistics.median(p.layers[name][0] for p in traced), unit)
        layers["cli.import_s"] = (statistics.median(
            _child_seconds(env.child_env, "import pstseq.cli")
            - _child_seconds(env.child_env, "pass")
            for _ in range(IMPORT_REPS)), "s")
        layers["trace.overhead_s"] = (
            statistics.median(p.wall for p in traced)
            - statistics.median(p.wall for p in untraced), "s")

    metrics = layers if args.trace else e2e
    fail_rate = (ops - definite) / ops
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:17s} {name:52s} {value:14.6f} {unit}")
    print(f"{args.workload:17s} {'fail_rate':52s} {fail_rate:14.6f} ratio "
          f"({ops - definite} of {ops} operations per pass without a verified definite answer)")
    for name, (value, unit) in times.items():
        print(f"{args.workload:17s} {name:52s} {value:14.6f} {unit} (host time)")
    print(f"{args.workload:17s} {'instances':52s} {samples:14d} "
          f"over {len(untraced)} untraced passes, each condensed by "
          f"{wl.statistic.__name__}; {len(env.reference.samples)} reference samples; "
          f"backend {pstseq.backend_name()}")

    OUT.mkdir(exist_ok=True)
    result = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_revision": git_revision(),
            "source_sha256": source_digest(),
            "backend": pstseq.backend_name(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "correct": correct,
        "violation": problem,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": fail_rate,
        "instances": samples,
        "untraced_passes": len(untraced),
        "reference_samples": len(env.reference.samples),
        "statistic": wl.statistic.__name__,
        "pass_wall_s": {"untraced": [p.wall for p in untraced], "traced": [p.wall for p in traced]},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "host_times": {k: {"value": v, "unit": u} for k, (v, u) in times.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "spans": spans or [],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
