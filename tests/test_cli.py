"""Command-line behavior: subcommands, exit codes, reports."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pstseq
from pstseq import cli, formats, sequencer


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def nine_psts(tmp_path):
    path = tmp_path / "nine.psts"
    path.write_text("order 9\n1 2 3\n4 5 6\n7 8 9\n")
    return str(path)


@pytest.fixture()
def sts13_psts(tmp_path, capsys):
    path = tmp_path / "sts13.psts"
    code = cli.main(
        ["gen", "cyclic", "--n", "13", "--base", "0,1,4", "--base", "0,2,7",
         "--output", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    return str(path)


class TestValidateAndGen:
    def test_validate(self, capsys, nine_psts):
        code, out, _ = run(capsys, "validate", nine_psts)
        assert code == 0
        assert "order 9" in out and "3 blocks" in out

    def test_gen_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "chain", "--sizes", "2,2")
        assert code == 0
        system = formats.parse_system_text(out)
        assert system.n == 9 and len(system.blocks) == 4

    @pytest.mark.parametrize("argv,message", [
        (["chain", "--sizes", "2,x"], "--sizes must be comma-separated integers: '2,x'"),
        (["cyclic", "--n", "7", "--base", "0,1,y"],
         "base block must be comma-separated integers: '0,1,y'"),
        # int() reads these, but no other integer input takes them
        (["chain", "--sizes", "2_0,2"], "--sizes must be comma-separated integers: '2_0,2'"),
        (["cyclic", "--n", "13", "--base", " 0,+1,4"],
         "base block must be comma-separated integers: ' 0,+1,4'"),
    ])
    def test_gen_bad_integer_list_is_input_error(self, capsys, argv, message):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["--base", "-6,-5,-3"],
        ["--base=-6,-5,-3"],
    ])
    def test_gen_cyclic_negative_base(self, capsys, argv):
        # -6,-5,-3 is 1,2,4 mod 7, spelled as a separate value or after "=".
        code, out, err = run(capsys, "gen", "cyclic", "--n", "7", *argv)
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "# gen cyclic --n 7 --base -6,-5,-3"
        _, expected, _ = run(capsys, "gen", "cyclic", "--n", "7", "--base", "1,2,4")
        assert out.splitlines()[1:] == expected.splitlines()[1:]

    @pytest.mark.parametrize("base, size", [("0,1", 2), ("0,1,2,3", 4)])
    def test_gen_cyclic_base_of_wrong_size(self, capsys, base, size):
        code, out, err = run(capsys, "gen", "cyclic", "--n", "13", "--base", base)
        assert code == 3 and out == ""
        assert err == f"error: base block ({base.replace(',', ', ')}) must have 3 residues, got {size}\n"

    def test_validate_file_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "bom.psts"
        path.write_bytes(b"\xef\xbb\xbforder 3\n0 1 2\n")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 0 and err == ""

    def test_gen_random_deterministic(self, capsys):
        code, out1, _ = run(capsys, "gen", "random", "--n", "12", "--blocks", "4", "--seed", "7")
        code, out2, _ = run(capsys, "gen", "random", "--n", "12", "--blocks", "4", "--seed", "7")
        assert out1 == out2

    def test_gen_friendship(self, capsys):
        code, out, err = run(capsys, "gen", "friendship", "--m", "3")
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "# gen friendship --m 3"
        assert formats.parse_system_text(out) == pstseq.friendship(3)

    def test_gen_random_json_to_stdout(self, capsys):
        code, out, err = run(capsys, "gen", "random", "--n", "7", "--blocks", "3", "--seed", "2",
                             "--json")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["outcome"] == "generated"
        assert report["details"] == {
            "achieved_blocks": 3,
            "system": formats.system_to_json_obj(pstseq.random_system(7, 3, 2)),
        }

    def test_gen_random_bound_error(self, capsys):
        code, _, err = run(capsys, "gen", "random", "--n", "10", "--blocks", "14", "--seed", "0")
        assert code == 3
        assert "bound" in err

    def test_bad_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.psts"
        path.write_text("order 4\n1 2 3\n1 2 4\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3
        assert "two blocks" in err

    @pytest.mark.parametrize("where", ["no-such-dir/x.psts", "."])
    def test_gen_unwritable_output_is_input_error(self, capsys, tmp_path, where):
        target = str(tmp_path / where)
        code, out, err = run(capsys, "gen", "random", "--n", "9", "--blocks", "5", "-o", target)
        assert code == 3 and out == ""
        assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "check-seq"])
    def test_non_utf8_file_is_input_error_naming_it(self, capsys, tmp_path, nine_psts, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"order 3\n\xff 1 2\n")
        argv = [nine_psts, str(path)] if command == "check-seq" else [str(path)]
        code, out, err = run(capsys, command, *argv)
        assert code == 3 and out == ""
        assert err == f"error: {path}: not UTF-8 text (byte 0xff at offset 8)\n"

    @pytest.mark.parametrize("command", ["validate", "check-seq"])
    def test_report_digest_is_of_the_file(self, capsys, tmp_path, nine_psts, command):
        seq = tmp_path / "seq.txt"
        seq.write_text("1 2 4 3 5 7 6 8 9\n")
        argv = [nine_psts, str(seq)] if command == "check-seq" else [nine_psts]
        code, out, _ = run(capsys, command, *argv, "--json")
        digest = hashlib.sha256(Path(nine_psts).read_bytes()).hexdigest()
        assert code == 0 and json.loads(out)["input"]["sha256"] == digest

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_piped_system_is_hashed_as_read(self):
        # A pipe can be read only once: the digest must come from the
        # bytes that were parsed, not from a second read.
        content = b"# piped\norder 9\n1 2 3\n4 5 6\n7 8 9\n"
        src = str(Path(pstseq.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", "import sys, pstseq.cli; sys.exit(pstseq.cli.main())",
             "validate", "/dev/stdin", "--json"],
            input=content, env=env, capture_output=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["input"]["sha256"] == hashlib.sha256(content).hexdigest()
        assert report["input"]["order"] == 9 and report["input"]["blocks"] == 3

    def test_json_report_is_stable(self, capsys, nine_psts):
        code, out1, _ = run(capsys, "pack", nine_psts, "--json")
        code, out2, _ = run(capsys, "pack", nine_psts, "--json")
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timing"), r2.pop("timing")
        assert r1 == r2


@pytest.mark.parametrize("text", [
    '{"order": 3, "blocks": 5}',
    '{"order": 3, "blocks": [5]}',
    '{"order": true, "blocks": []}',
    '{"order": 3, "blocks": [[null, 1, 2]]}',
    "order \u00b2\n0 1 2\n",
])
def test_malformed_system_file_is_input_error(capsys, tmp_path, text):
    path = tmp_path / "bad.psts"
    path.write_text(text)
    code, out, err = run(capsys, "decide", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


class TestDecideConstruct:
    def test_construct_nine(self, capsys, nine_psts):
        code, out, _ = run(capsys, "construct", nine_psts)
        assert code == 0
        assert out.strip() in ("1 2 4 3 5 7 6 8 9", "1 3 4 2 5 7 6 8 9")

    def test_decide_nine(self, capsys, nine_psts):
        code, out, _ = run(capsys, "decide", nine_psts, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["outcome"] == "sequenceable"
        assert report["exit_code"] == 0

    def test_decide_sts13_not_sequenceable(self, capsys, sts13_psts):
        code, out, _ = run(capsys, "decide", sts13_psts, "--budget", "50000")
        assert code == 1
        assert out.strip() == "not-sequenceable (nodes 13)"

    def test_check_seq(self, capsys, nine_psts, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("1 2 4 3 5 7 6 8 9\n")
        code, out, _ = run(capsys, "check-seq", nine_psts, str(good))
        assert code == 0 and "admissible" in out
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3 4 5 6 7 8 9\n")
        code, out, _ = run(capsys, "check-seq", nine_psts, str(bad), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["outcome"] == "inadmissible"
        assert report["details"]["segments"][0]["length"] == 3

    def test_construct_matches_exit_code_contract(self, capsys, sts13_psts):
        # packing 4 at order 13 is below the interleaving threshold, so
        # construct falls back to the search, which now finishes
        code, out, _ = run(capsys, "construct", sts13_psts, "--json")
        report = json.loads(out)
        assert report["exit_code"] == code == 1
        assert report["outcome"] == "not-sequenceable"

    def test_construct_sts19_not_sequenceable(self, capsys, tmp_path):
        path = str(tmp_path / "sts19.psts")
        code, _, _ = run(
            capsys, "gen", "cyclic", "--n", "19", "--base", "0,1,4",
            "--base", "0,2,9", "--base", "0,5,11", "--output", path,
        )
        assert code == 0
        code, out, _ = run(capsys, "construct", path)
        assert code == 1
        assert "after 19 nodes" in out

    def test_construct_budget(self, capsys, tmp_path):
        path = str(tmp_path / "r19.psts")
        code, _, _ = run(
            capsys, "gen", "random", "--n", "19", "--blocks", "57", "--seed", "1",
            "--output", path,
        )
        assert code == 0
        code, out, _ = run(capsys, "construct", path, "--budget", "10", "--json")
        report = json.loads(out)
        assert report["exit_code"] == code == 2
        assert report["outcome"] == "unknown"
        assert report["params"] == {"budget": 10}

    @pytest.mark.parametrize("command", ["decide", "construct", "pack"])
    def test_negative_budget_is_input_error(self, capsys, nine_psts, command):
        code, _, err = run(capsys, command, nine_psts, "--budget", "-1")
        assert code == 3 and "non-negative" in err


class TestPackingCommands:
    def test_pack(self, capsys, sts13_psts):
        code, out, _ = run(capsys, "pack", sts13_psts, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["details"]["nu"] == 4
        assert report["details"]["exact"] is True

    def test_pack_budget(self, capsys, sts13_psts):
        code, out, _ = run(capsys, "pack", sts13_psts, "--budget", "3")
        assert code == 2
        assert "lower bound" in out

    def test_bad_sets(self, capsys, nine_psts):
        code, out, _ = run(capsys, "bad-sets", nine_psts, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["details"]["m_size"] == 0
        assert len(report["details"]["bad_sets"]) == 1

    def test_good_set(self, capsys, tmp_path):
        path = tmp_path / "twelve.psts"
        path.write_text("order 12\n0 1 2\n3 4 5\n6 7 8\n")
        code, out, _ = run(capsys, "good-set", str(path), "--points", "9,10,11")
        assert code == 0 and "bad set" in out
        code, out, _ = run(capsys, "good-set", str(path), "--points", "0,10,11")
        assert code == 0 and "good set" in out

    def test_good_set_order_too_small(self, capsys, tmp_path):
        path = tmp_path / "eight.psts"
        path.write_text("order 8\n0 1 2\n")
        code, out, err = run(capsys, "good-set", str(path), "--points", "0")
        assert code == 3 and out == ""
        assert err == "error: good sets need order >= 9, got 8\n"

    def test_good_set_empty_label(self, capsys, tmp_path):
        path = tmp_path / "twelve.psts"
        path.write_text("order 12\n0 1 2\n3 4 5\n6 7 8\n")
        for points in ("9,,10,11", "9,10,11,", ","):
            code, out, err = run(capsys, "good-set", str(path), "--points", points)
            assert code == 3 and out == ""
            assert err == (
                f"error: --points must be comma-separated labels, none empty: {points!r}\n"
            )

    def test_good_set_repeated_point(self, capsys, tmp_path):
        path = tmp_path / "eleven.psts"
        path.write_text("order 11\n0 1 2\n3 4 5\n6 7 8\n")
        code, out, err = run(capsys, "good-set", str(path), "--points", "9,9")
        assert code == 3 and out == ""
        assert err == "error: point 9 appears twice in M\n"

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "10")
        assert code == 0 and out.strip() == "13"


class TestCertificateAndHunt:
    def test_verify_sts13(self, capsys):
        code, out, _ = run(capsys, "verify-sts13", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["outcome"] == "verified"
        assert len(report["details"]["entries"]) == 13
        assert report["details"]["entries"][11]["blocks"] == [
            [0, 2, 7], [1, 3, 8], [5, 6, 9], [4, 10, 12],
        ]

    @pytest.mark.parametrize("name, value, reason", [
        ("_STS13_BASES", ((0, 1, 4),), "expected 26 blocks, built 13"),
        ("_STS13_QUAD", ((0, 1, 2),) + sequencer._STS13_QUAD[1:],
         "(2, 3, 4) is not a block of the system"),
        ("_STS13_QUAD", ((0, 1, 4), (0, 2, 7)) + sequencer._STS13_QUAD[2:],
         "blocks for vertex 0 overlap"),
        ("_STS13_QUAD", sequencer._STS13_QUAD[:3],
         "blocks for vertex 0 do not cover exactly the other 12 points"),
    ], ids=["bases", "non-block", "overlap", "cover"])
    def test_verify_sts13_reports_certificate_failure(self, capsys, monkeypatch, name, value,
                                                      reason):
        monkeypatch.setattr(sequencer, name, value)
        code, out, _ = run(capsys, "verify-sts13", "--json")
        report = json.loads(out)
        assert code == 1
        assert report["outcome"] == "certificate-failure"
        assert report["details"]["reason"] == reason
        code, out, _ = run(capsys, "verify-sts13")
        assert code == 1 and out == f"CERTIFICATE FAILURE: {reason}\n"

    def test_hunt_streams_ndjson(self, capsys):
        code, out, _ = run(
            capsys, "hunt", "--order", "9", "--seeds", "0..3", "--blocks", "4",
            "--budget", "50000",
        )
        lines = [json.loads(line) for line in out.splitlines()]
        assert [r["seed"] for r in lines] == [0, 1, 2, 3]
        assert all(r["outcome"] == "sequenceable" for r in lines)
        assert code == 0

    def test_hunt_records_are_pinned(self, capsys):
        # A golden digest of three hunt streams: any change to a verdict,
        # node count or packing number in a record changes it.
        digest = hashlib.sha256()
        codes = []
        for order, seeds in (("13", "0..99"), ("15", "0..99"), ("19", "0..29")):
            code, out, _ = run(
                capsys, "hunt", "--order", order, "--seeds", seeds, "--budget", "200"
            )
            codes.append(code)
            digest.update(out.encode())
        assert codes == [2, 0, 1]
        assert digest.hexdigest() == (
            "313bbfc0a0349a85019471e491159f9f05e099330970489452bc46b7fb65b791"
        )

    def test_hunt_single_seed(self, capsys):
        argv = ("hunt", "--order", "9", "--blocks", "4", "--seeds")
        code, out, _ = run(capsys, *argv, "5")
        assert code == 0
        assert [json.loads(line)["seed"] for line in out.splitlines()] == [5]
        assert run(capsys, *argv, "5..5") == (code, out, "")

    def test_hunt_rejects_empty_seed_range(self, capsys):
        code, out, err = run(capsys, "hunt", "--order", "9", "--seeds", "5..3")
        assert code == 3 and out == ""
        assert "'5..3' is empty" in err

    @pytest.mark.parametrize("seeds", ["--1..2", "\u00b2..3", "1..--2", "5.."])
    def test_hunt_rejects_malformed_seed_range(self, capsys, seeds):
        code, out, err = run(capsys, "hunt", "--order", "9", f"--seeds={seeds}")
        assert code == 3 and out == ""
        assert err == f"error: seed range must look like A..B, got {seeds!r}\n"

    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["no-such-command"]) == 3
        capsys.readouterr()
        assert cli.main([]) == 3
        capsys.readouterr()


class TestOptionScope:
    """Each option is accepted only by the subcommands that read it."""

    @pytest.mark.parametrize("argv", [
        ["validate", "{f}", "--budget", "5"],
        ["validate", "{f}", "--parallel", "3"],
        ["validate", "{f}", "--seed", "9"],
        ["pack", "{f}", "--parallel", "2"],
        ["construct", "{f}", "--seed", "1"],
        ["gen", "cyclic", "--n", "7", "--base", "0,1,3", "--seed", "1"],
        ["decide", "{f}", "--parallel", "2"],
        ["hunt", "--order", "9", "--seeds", "0..1", "--parallel", "2"],
        ["hunt", "--order", "9", "--seeds", "0..1", "--json"],
    ])
    def test_unread_option_is_usage_error(self, capsys, nine_psts, argv):
        code, _, err = run(capsys, *(a.format(f=nine_psts) for a in argv))
        assert code == 3 and "usage" in err

    @pytest.mark.parametrize("argv,message", [
        (["validate", "{f}", "--budget", "5"],
         "pstseq validate: error: unrecognized arguments: --budget 5"),
        (["decide", "{f}", "--budget", "many"],
         "pstseq decide: error: argument --budget: invalid int value: 'many'"),
    ])
    def test_usage_error_says_what_was_wrong(self, capsys, nine_psts, argv, message):
        code, out, err = run(capsys, *(a.format(f=nine_psts) for a in argv))
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: pstseq {argv[0]} ")
        assert lines[-1] == message

    @pytest.mark.parametrize("argv", [
        ["hunt", "--order", "9", "--seed", "0..1"],
        ["decide", "{f}", "--bud", "5"],
    ])
    def test_abbreviated_option_is_usage_error(self, capsys, nine_psts, argv):
        code, out, err = run(capsys, *(a.format(f=nine_psts) for a in argv))
        assert code == 3 and out == ""
        assert f"pstseq {argv[0]}: error:" in err

    def test_benchmark_argv_forms(self, capsys, nine_psts):
        code, out, _ = run(capsys, "decide", nine_psts, "--json", "--budget", "1000")
        assert code == 0 and json.loads(out)["params"] == {"budget": 1000}
        code, out, _ = run(
            capsys, "hunt", "--order", "9", "--seeds", "0..1", "--budget", "1000",
        )
        assert code == 0 and len(out.splitlines()) == 2
        code, out, _ = run(capsys, "verify-sts13", "--json")
        assert code == 0 and json.loads(out)["outcome"] == "verified"


class TestRepeatedMain:
    """The parser is built once per process; no call may leak into the next."""

    def test_parser_is_reused(self):
        assert cli.build_parser() is cli.build_parser()

    def test_json_flag_does_not_carry_over(self, capsys, nine_psts):
        code, out, _ = run(capsys, "decide", nine_psts, "--json")
        report = json.loads(out)
        assert code == 0 and report["outcome"] == "sequenceable"
        code, out, _ = run(capsys, "decide", nine_psts)
        assert code == 0
        nodes = report["details"]["nodes_explored"]
        assert out.splitlines()[0] == f"sequenceable (nodes {nodes})"

    def test_appended_bases_do_not_accumulate(self, capsys):
        argv = ("gen", "cyclic", "--n", "7", "--base", "0,1,3")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(formats.parse_system_text(out2).blocks) == 7

    def test_usage_error_then_valid_call(self, capsys, nine_psts):
        code, _, err = run(capsys, "decide", nine_psts, "--budget", "many")
        assert code == 3 and "usage" in err
        code, out, _ = run(capsys, "validate", nine_psts)
        assert code == 0 and "order 9" in out


def _modules_after_cli_import():
    """Names in ``sys.modules`` once a fresh interpreter imports the CLI."""
    src = str(Path(pstseq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, pstseq.cli\nprint(*sys.modules, sep='\\n')\n"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    modules = set(result.stdout.split())
    assert "pstseq.cli" in modules
    return modules


def test_import_cli_skips_concurrent_futures():
    # Every command pays the CLI's import time; none of them needs a
    # process pool, so importing the CLI must not load one.
    assert not _modules_after_cli_import() & {"concurrent.futures", "multiprocessing"}


def test_import_cli_skips_dataclasses():
    # The records are plain classes: importing ``dataclasses`` (and the
    # ``inspect`` it loads) and building dataclasses would add about a
    # third to the CLI's import time.
    assert not _modules_after_cli_import() & {"dataclasses", "inspect"}


def _parser_tree(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _parser_tree(child)


def test_readme_options_exist():
    # Every option the README's "Command line" section names must be
    # accepted somewhere, so a paragraph about a deleted option fails.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    accepted = {
        opt for parser in _parser_tree(cli.build_parser()) for opt in parser._option_string_actions
    }
    assert documented >= {"--json", "--budget"}
    assert documented <= accepted, sorted(documented - accepted)


def test_import_cli_skips_native_build():
    # The compiled partition test is built and loaded on the first
    # kernel call, never at import, so a command that searches nothing
    # pays neither for it nor for the modules that build it.
    assert not _modules_after_cli_import() & {"pstseq._native", "sysconfig", "subprocess"}
