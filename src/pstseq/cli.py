"""Command-line front end.

Subcommands: validate, check-seq, decide, construct, gen
{cyclic|friendship|chain|random}, pack, bad-sets, good-set, bound,
verify-sts13, hunt.  Text output by default, machine-readable reports
under --json (hunt always streams newline-delimited JSON).

Exit codes: 0 sequenceable/verified/ok, 1 not sequenceable,
2 unknown or budget exhausted, 3 input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import __version__, formats, generators, packing, sequencer
from .core import TripleSystem, _is_int_token, inadmissible_segments
from .errors import (
    BudgetExhausted,
    CertificateFailure,
    InputError,
    NotSequenceableSystem,
    PstseqError,
)
from .sequencer import Outcome

EXIT_OK = 0
EXIT_NOT_SEQUENCEABLE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3

_OUTCOME_EXIT = {
    Outcome.SEQUENCEABLE: EXIT_OK,
    Outcome.NOT_SEQUENCEABLE: EXIT_NOT_SEQUENCEABLE,
    Outcome.UNKNOWN: EXIT_UNKNOWN,
}


class _Parser(argparse.ArgumentParser):
    """Options must be spelled in full; usage errors exit with EXIT_INPUT."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras and self._subparsers is None:
            # A leaf subcommand reports its own leftovers, so the message
            # names it and the usage shown is its own.
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


class _Report:
    """Accumulates one run's machine-readable report."""

    def __init__(self, command: str, json_mode: bool):
        self.data = {
            "tool": "pstseq",
            "version": __version__,
            "command": command,
            "params": {},
            "outcome": None,
            "details": {},
        }
        self.json_mode = json_mode
        self.started = time.perf_counter()

    def load(self, path) -> TripleSystem:
        """Read a system file once and record it as the report's input."""
        system, sha256 = formats.load_system(path)
        self.data["input"] = {
            "path": str(path),
            "sha256": sha256,
            "order": system.n,
            "blocks": len(system.blocks),
        }
        return system

    def emit(self, exit_code: int, text_lines) -> int:
        self.data["timing"] = {"elapsed_s": round(time.perf_counter() - self.started, 6)}
        self.data["exit_code"] = exit_code
        if self.json_mode:
            print(json.dumps(self.data, sort_keys=True))
        else:
            for line in text_lines:
                print(line)
        return exit_code


def _blocks_json(system: TripleSystem, blocks) -> list[list[str]]:
    return [list(system.block_labels(b)) for b in blocks]


def _blocks_text(system: TripleSystem, blocks) -> str:
    return " | ".join(" ".join(system.block_labels(b)) for b in blocks)


def cmd_validate(args, report: _Report) -> int:
    system = report.load(args.file)
    report.data["outcome"] = "valid"
    return report.emit(EXIT_OK, [f"valid: order {system.n}, {len(system.blocks)} blocks"])


def cmd_check_seq(args, report: _Report) -> int:
    system = report.load(args.system)
    seq = formats.load_sequence(args.sequence, system)
    hits = inadmissible_segments(seq, system)
    if not hits:
        report.data["outcome"] = "admissible"
        return report.emit(EXIT_OK, ["admissible"])
    report.data["outcome"] = "inadmissible"
    report.data["details"]["segments"] = [
        {"start": seg.start, "length": seg.length, "blocks": _blocks_json(system, w.parts)}
        for seg, w in hits
    ]
    lines = [f"inadmissible: {len(hits)} segment(s) partition into blocks"]
    lines += [
        f"  start {seg.start} length {seg.length}: {_blocks_text(system, w.parts)}"
        for seg, w in hits
    ]
    return report.emit(EXIT_NOT_SEQUENCEABLE, lines)


def cmd_decide(args, report: _Report) -> int:
    system = report.load(args.file)
    report.data["params"] = {"budget": args.budget}
    decision = sequencer.decide(system, budget=args.budget)
    report.data["outcome"] = decision.outcome.value
    report.data["details"] = {
        "nodes_explored": decision.nodes_explored,
        "exhausted": decision.exhausted,
    }
    lines = [f"{decision.outcome.value} (nodes {decision.nodes_explored})"]
    if decision.witness is not None:
        labels = system.sequence_labels(decision.witness)
        report.data["details"]["witness"] = labels
        lines.append(" ".join(labels))
    return report.emit(_OUTCOME_EXIT[decision.outcome], lines)


def cmd_construct(args, report: _Report) -> int:
    system = report.load(args.file)
    report.data["params"] = {"budget": args.budget}
    try:
        seq = sequencer.construct(system, budget=args.budget)
    except NotSequenceableSystem as exc:
        report.data["outcome"] = Outcome.NOT_SEQUENCEABLE.value
        report.data["details"]["reason"] = str(exc)
        return report.emit(EXIT_NOT_SEQUENCEABLE, [f"not sequenceable: {exc}"])
    except BudgetExhausted as exc:
        report.data["outcome"] = Outcome.UNKNOWN.value
        report.data["details"]["reason"] = str(exc)
        return report.emit(EXIT_UNKNOWN, [f"unknown: {exc}"])
    labels = system.sequence_labels(seq)
    report.data["outcome"] = Outcome.SEQUENCEABLE.value
    report.data["details"]["witness"] = labels
    return report.emit(EXIT_OK, [" ".join(labels)])


def _emit_system(args, report: _Report, system: TripleSystem, comment: str) -> int:
    if args.json:
        obj = formats.system_to_json_obj(system)
        report.data["outcome"] = "generated"
        report.data["details"]["system"] = obj
        text = json.dumps(obj, sort_keys=True) + "\n"
    else:
        text = formats.system_to_psts(system, comment=comment)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from None
        return report.emit(EXIT_OK, [f"wrote {args.output}"])
    if args.json:
        return report.emit(EXIT_OK, [])
    sys.stdout.write(text)
    return EXIT_OK


def _int_list(raw: str, what: str) -> tuple[int, ...]:
    tokens = raw.split(",")
    if not all(map(_is_int_token, tokens)):
        raise InputError(f"{what} must be comma-separated integers: {raw!r}")
    return tuple(map(int, tokens))


def cmd_gen(args, report: _Report) -> int:
    if args.kind == "cyclic":
        bases = tuple(_int_list(raw, "base block") for raw in args.base)
        system = generators.cyclic_system(generators.CyclicBase(args.n, bases))
        comment = f"gen cyclic --n {args.n} " + " ".join(f"--base {b}" for b in args.base)
    elif args.kind == "friendship":
        system = generators.friendship(args.m)
        comment = f"gen friendship --m {args.m}"
    elif args.kind == "chain":
        sizes = _int_list(args.sizes, "--sizes")
        system = generators.friendship_chain(sizes)
        comment = f"gen chain --sizes {args.sizes}"
    else:
        system = generators.random_system(args.n, args.blocks, args.seed)
        comment = f"gen random --n {args.n} --blocks {args.blocks} --seed {args.seed}"
        report.data["details"]["achieved_blocks"] = len(system.blocks)
    report.data["params"] = {"kind": args.kind}
    return _emit_system(args, report, system, comment)


def cmd_pack(args, report: _Report) -> int:
    system = report.load(args.file)
    report.data["params"] = {"budget": args.budget}
    result = packing.max_disjoint_blocks(system, budget=args.budget)
    report.data["outcome"] = "exact" if result.exact else "lower-bound"
    report.data["details"] = {
        "nu": result.nu,
        "witness": _blocks_json(system, result.witness),
        "nodes_explored": result.nodes_explored,
        "exact": result.exact,
    }
    lines = [
        f"nu = {result.nu}{'' if result.exact else ' (lower bound, budget hit)'}",
        _blocks_text(system, result.witness),
    ]
    return report.emit(EXIT_OK if result.exact else EXIT_UNKNOWN, lines)


def cmd_bad_sets(args, report: _Report) -> int:
    system = report.load(args.file)
    result = packing.bad_sets(system)
    report.data["outcome"] = "ok"
    report.data["details"] = {
        "m_size": result.m_size,
        "bad_sets": [
            {
                "points": [system.labels[p] for p in pts],
                "realization": _blocks_json(system, witness.parts),
            }
            for pts, witness in zip(result.bad_sets, result.realizations)
        ],
    }
    lines = [f"{len(result.bad_sets)} bad set(s) of size {result.m_size}"]
    for pts, witness in zip(result.bad_sets, result.realizations):
        shown = " ".join(system.labels[p] for p in pts) or "(empty)"
        lines.append(f"  {{{shown}}}: {_blocks_text(system, witness.parts)}")
    return report.emit(EXIT_OK, lines)


def cmd_good_set(args, report: _Report) -> int:
    system = report.load(args.file)
    tokens = args.points.split(",") if args.points else []
    if not all(tokens):
        raise InputError(f"--points must be comma-separated labels, none empty: {args.points!r}")
    pts = [system.index_of(tok) for tok in tokens]
    good, witness = packing.is_good_set(system, pts)
    report.data["outcome"] = "good" if good else "bad"
    if good:
        return report.emit(EXIT_OK, ["good set"])
    report.data["details"]["realization"] = _blocks_json(system, witness.parts)
    return report.emit(EXIT_OK, [f"bad set, realized by {_blocks_text(system, witness.parts)}"])


def cmd_bound(args, report: _Report) -> int:
    value = generators.johnson_schonheim(args.n)
    report.data["outcome"] = "ok"
    report.data["details"] = {"order": args.n, "max_blocks": value}
    return report.emit(EXIT_OK, [str(value)])


def cmd_verify_sts13(args, report: _Report) -> int:
    try:
        cert = sequencer.verify_sts13_certificate()
    except CertificateFailure as exc:
        report.data["outcome"] = "certificate-failure"
        report.data["details"]["reason"] = str(exc)
        return report.emit(EXIT_NOT_SEQUENCEABLE, [f"CERTIFICATE FAILURE: {exc}"])
    report.data["outcome"] = "verified"
    report.data["details"] = {
        "entries": [
            {
                "vertex": e.vertex,
                "exponent": e.exponent,
                "blocks": [list(b.points) for b in e.blocks],
            }
            for e in cert.entries
        ]
    }
    lines = [
        "verified: 13 entries; every vertex is avoided by four disjoint blocks,",
        "so every permutation has partitionable 12-segments at both ends",
        "and the system is not sequenceable.",
    ]
    lines += [
        f"  vertex {e.vertex}: rotation {e.exponent}: {_blocks_text(cert.system, e.blocks)}"
        for e in cert.entries
    ]
    return report.emit(EXIT_OK, lines)


def _parse_seed_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        hi = lo
    if not (_is_int_token(lo) and _is_int_token(hi)):
        raise InputError(f"seed range must look like A..B, got {text!r}")
    if int(hi) < int(lo):
        raise InputError(f"seed range {text!r} is empty")
    return range(int(lo), int(hi) + 1)


def cmd_hunt(args, report: _Report) -> int:
    seeds = _parse_seed_range(args.seeds)
    blocks = args.blocks if args.blocks is not None else generators.johnson_schonheim(args.order)
    worst = EXIT_OK
    for seed in seeds:
        system = generators.random_system(args.order, blocks, seed)
        decision = sequencer.decide(system, budget=args.budget)
        nu = packing.max_disjoint_blocks(system).nu
        record = {
            "seed": seed,
            "order": args.order,
            "blocks": len(system.blocks),
            "nu": nu,
            "outcome": decision.outcome.value,
            "nodes_explored": decision.nodes_explored,
        }
        if decision.outcome is Outcome.NOT_SEQUENCEABLE:
            record["system"] = formats.system_to_json_obj(system)
            worst = EXIT_NOT_SEQUENCEABLE
        elif decision.outcome is Outcome.UNKNOWN and worst == EXIT_OK:
            worst = EXIT_UNKNOWN
        print(json.dumps(record, sort_keys=True), flush=True)
    return worst


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by ``main``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget", type=int, default=sequencer.DEFAULT_BUDGET, help="search node budget"
    )
    file = argparse.ArgumentParser(add_help=False)
    file.add_argument("file")
    budgeted = [common, budget, file]

    parser = _Parser(prog="pstseq", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pstseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", parents=[common, file], help="validate a system file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check-seq", parents=[common], help="check a sequence against a system")
    p.add_argument("system")
    p.add_argument("sequence")
    p.set_defaults(func=cmd_check_seq)

    p = sub.add_parser("decide", parents=budgeted, help="decide sequenceability exactly")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("construct", parents=budgeted, help="construct an admissible sequence")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("gen", help="generate a system")
    p.set_defaults(func=cmd_gen)
    gsub = p.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    g = gsub.add_parser("cyclic", parents=[common])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--base", action="append", required=True, help="comma-separated residues")
    g = gsub.add_parser("friendship", parents=[common])
    g.add_argument("--m", type=int, required=True)
    g = gsub.add_parser("chain", parents=[common])
    g.add_argument("--sizes", required=True, help="comma-separated triangle counts")
    g = gsub.add_parser("random", parents=[common])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--blocks", type=int, required=True)
    g.add_argument("--seed", type=int, default=0, help="seed for random generation")
    # Added last so that every usage line ends with it.
    for g in gsub.choices.values():
        g.add_argument("--output", "-o")

    p = sub.add_parser("pack", parents=budgeted, help="maximum disjoint blocks")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("bad-sets", parents=[common, file], help="enumerate bad sets")
    p.set_defaults(func=cmd_bad_sets)

    p = sub.add_parser("good-set", parents=[common, file], help="test one candidate set")
    p.add_argument("--points", required=True, help="comma-separated labels")
    p.set_defaults(func=cmd_good_set)

    p = sub.add_parser("bound", parents=[common], help="maximum block count for an order")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify-sts13", parents=[common], help="order-13 certificate")
    p.set_defaults(func=cmd_verify_sts13)

    # hunt always streams NDJSON, so it takes no --json.
    p = sub.add_parser("hunt", parents=[budget], help="decide over a seeded corpus (NDJSON)")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seeds", required=True, help="inclusive range A..B")
    p.add_argument("--blocks", type=int, default=None)
    p.set_defaults(func=cmd_hunt)

    return parser


def _attach_negative_values(argv):
    # argparse reads a value that starts with "-" and is not a plain
    # number as an option, so "--base -1,1,3" becomes "--base=-1,1,3".
    out = []
    for tok in argv:
        if out and out[-1] == "--base" and tok.startswith("-") and all(
            map(_is_int_token, tok.split(","))
        ):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_negative_values(sys.argv[1:] if argv is None else argv)
        )
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    report = _Report(args.command, getattr(args, "json", False))
    try:
        return args.func(args, report)
    except (PstseqError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
