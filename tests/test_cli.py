import hashlib
import json
import re

import pytest

from fibk3.cli import main

ACCEPTANCE_COMMANDS = [
    ["fib", "1", "20"],
    ["fib", "1", "0"],
    ["member", "1", "1"],
    ["entry", "1", "61"],
    ["trace", "1", "6"],
    ["gram", "3", "1"],
    ["abpow", "1", "4"],
    ["isometry", "1", "1", "--", "1", "0", "1", "-1"],
    ["discact", "3", "1", "4", "+1"],
    ["cyclotomic", "10"],
    ["resultant", "1,-3,1", "1,1,1,1,1"],
    ["salem", "3"],
    ["pell", "5", "+1", "10"],
    ["candidates", "61", "1"],
    ["example100", "15"],
]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item)
    else:
        yield value


class TestBasicCommands:
    def test_fib(self, capsys):
        code, out, _ = run(["fib", "1", "20"], capsys)
        assert code == 0
        assert out.strip() == "6765"

    def test_fib_zero(self, capsys):
        code, out, _ = run(["fib", "1", "0"], capsys)
        assert code == 0 and out.strip() == "0"

    def test_fib_json(self, capsys):
        code, out, _ = run(["fib", "1", "20", "--json"], capsys)
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["payload"]["value"] == "6765"

    def test_candidates_json_generator(self, capsys):
        code, out, _ = run(["candidates", "3", "1", "--json"], capsys)
        doc = json.loads(out)
        assert code == 0
        gen = doc["payload"]["generator"]
        assert (gen["l"], gen["k"], gen["tau"]) == ("1", "4", "47")

    def test_quiet_suppresses_output(self, capsys):
        code, out, err = run(["fib", "1", "20", "--quiet"], capsys)
        assert code == 0 and out == ""


class TestErrorPaths:
    def test_input_error_exit_code(self, capsys):
        code, _, err = run(["fib", "0", "5"], capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run(["selftest", "--suite", "no-such-suite"], capsys)
        assert code == 1

    def test_malformed_polynomial(self, capsys):
        code, _, err = run(["resultant", "1,x,1", "1,1"], capsys)
        assert code == 1

    def test_limit_guard(self, capsys):
        code, _, err = run(["fib", "1", "99999999999"], capsys)
        assert code == 1
        assert "limit" in err

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["--json", "--limit-n", "-1", "fib", "1", "3"], "-1"),
            (["fib", "1", "3", "--json", "--limit-n=-5"], "-5"),
            (["--json", "--limit-n", "ten", "fib", "1", "3"], "ten"),
        ],
        ids=["before", "after", "not-an-integer"],
    )
    def test_limit_must_be_a_nonnegative_integer(self, argv, bad, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "input_error"
        message = f"argument --limit-n: the limit must be an integer >= 0, got '{bad}'"
        assert doc["payload"] == {"message": message}
        assert message in err and "_parse_limit" not in err

    def test_zero_limit_is_accepted(self, capsys):
        assert run(["--limit-n", "0", "fib", "1", "0"], capsys)[:2] == (0, "0\n")
        code, _, err = run(["--limit-n", "0", "fib", "1", "1"], capsys)
        assert code == 1 and "n=1 exceeds the runtime limit 0" in err

    def test_usage_error_is_exit_one(self, capsys):
        code, _, err = run(["fib", "1"], capsys)
        assert code == 1

    def test_bad_epsilon(self, capsys):
        code, _, err = run(["discact", "3", "1", "4", "2"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "argv, bad",
        [(["discact", "3", "1", "4", "2"], "2"), (["pell", "5", "0", "10"], "0")],
        ids=["discact", "pell"],
    )
    def test_bad_epsilon_message(self, argv, bad, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert f"epsilon must be +1 or -1, got '{bad}'" in err
        assert "_parse_eps" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--json", "pell", "5", "0", "10"],
            ["pell", "5", "0", "10", "--json"],
            ["--json", "pell", "5", "+1"],
            ["pell", "--json", "5"],
        ],
    )
    def test_usage_error_honours_json(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc == {
            "command": "pell",
            "status": "input_error",
            "payload": {"message": doc["payload"]["message"]},
            "errata_flags": [],
        }
        assert doc["payload"]["message"] in err and "usage:" in err

    def test_usage_error_without_command_honours_json(self, capsys):
        code, out, _ = run(["--json", "no-such-command"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["command"] is None and doc["status"] == "input_error"

    def test_usage_error_quiet(self, capsys):
        code, out, err = run(["--json", "--quiet", "pell", "5", "0", "10"], capsys)
        assert code == 1 and out == "" and "epsilon" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["discact", "3", "1", "0", "+1"], "n must be >= 1"),
            (["discact", "3", "1", "-2", "+1"], "n must be >= 1"),
            (["discact", "1", "1", "1", "+1"], "m must be >= 2"),
        ],
    )
    def test_discact_refusals(self, argv, message, capsys):
        code, out, err = run(["--json"] + argv, capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "input_error"
        assert doc["payload"]["message"] == message
        assert message in err


class TestDigitLimit:
    # integers past the interpreter's int->str digit limit are refused by the
    # renderer; the refusal is one JSON document, not a traceback
    @pytest.mark.parametrize(
        "argv", [["fib", "1", "30000"], ["candidates", "100003", "1"]], ids=lambda a: a[0]
    )
    def test_refusal_is_one_document(self, argv, capsys):
        code, out, err = run(["--json"] + argv, capsys)
        assert code == 1
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc["command"] == argv[0] and doc["status"] != "ok"
        assert "Traceback" not in err


class TestJsonContract:
    @pytest.mark.parametrize("argv", ACCEPTANCE_COMMANDS, ids=lambda a: a[0] + "-" + a[-1])
    def test_round_trip_and_string_numbers(self, argv, capsys):
        code, out, _ = run(["--json"] + argv, capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"command", "status", "payload", "errata_flags"}
        assert doc["status"] == "ok"
        # canonical re-serialization is idempotent
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == out.strip()
        # every numeric value rides as a decimal string
        for leaf in leaves(doc["payload"]):
            assert leaf is None or isinstance(leaf, (str, bool))

    @pytest.mark.parametrize("argv", ACCEPTANCE_COMMANDS, ids=lambda a: a[0] + "-" + a[-1])
    def test_human_output_encodes_same_data(self, argv, capsys):
        code_j, out_j, _ = run(["--json"] + argv, capsys)
        doc = json.loads(out_j)
        code_h, out_h, _ = run(argv, capsys)
        assert code_h == code_j == 0
        for leaf in leaves(doc["payload"]):
            if leaf is None:
                continue
            if isinstance(leaf, bool):
                assert ("true" if leaf else "false") in out_h
            else:
                assert str(leaf) in out_h
        for flag in doc["errata_flags"]:
            assert flag in out_h


# sha256 of stdout on the regression set. A refactor must leave every one of
# these bytes unchanged. The candidates and example100 digests were re-pinned
# when filter witnesses became typed fields and the l in {1, 2} candidates
# kept only their trace-root filter; discact and salem date from before that.
REGRESSION_DIGESTS = {
    "--json candidates 3 1": "a12af7afa7880ca254ce9fe80bd76fc06dbdc2db7c792d9bacfc896d741d0058",
    "--json candidates 3 2": "f12cd8ade5958b1f918c53f25bf0455d694899b6a6a871a5e261ebefb5ee7f30",
    "--json candidates 13 1": "7ac234b1604f220bd91f89803f2d9598bac32399cb271bdc9bf264dd99030884",
    "--json candidates 13 2": "e17020ff734ee9902c413b6c46895f316f151185e3b25b594fe2b68c89b9a4ce",
    "--json candidates 15 1": "77d54177cc7e9660da334ce2a84d021ecec759a260a8c56c0ab342f515628799",
    "--json candidates 15 2": "c38997de3216a1a59e3d22fb5a2f6ea3b02e51936979f4b095d81b05b70b00d7",
    "--json candidates 61 1": "92443f541bfd4ca105baf60272bd72ba58cf1650fb4746e2bb28452f85f72763",
    "--json candidates 61 2": "6c878155c0e36a02cfd728fb849d6f444d2afb97842b2d5479869a95c7157dc9",
    "--json example100 15": "f202481caf024be9c2d56b95590172a42ef5d6a97d3dc686a307a45ce6101ade",
    "--json discact 3 1 4 +1": "84ba029a7ba2fa9708e253ddf9da971656bd7e5a1a20634742983affd4ff3a52",
    "--json salem 322": "82789d69456367f13253eb989f6361611ba07f8b055241f80e1bf1b68d40f42f",
    "candidates 61 1": "88a798220ce501152c6a1557fdac9d6132417a685f249fe9e6e438cf03efb3fd",
    "discact 3 1 4 +1": "1ab062cc815d87d7f0c3fd8aa64120bde56741d4365a662cb7fa26f4aa034279",
    "salem 322": "4aee8be099f15c603f86c7484c567d89804883561f64b12233ed0bf9d87cfc0e",
}


class TestRegressionSet:
    @pytest.mark.parametrize(
        "command", list(REGRESSION_DIGESTS), ids=lambda c: c.replace(" ", "_")
    )
    def test_stdout_digest(self, command, capsys):
        code, out, _ = run(command.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REGRESSION_DIGESTS[command]


class TestErrataSurfacing:
    def test_suspect_resultant_flagged_in_json(self, capsys):
        code, out, _ = run(["--json", "resultant", "1,-322,1", "1,1,1,1,1"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["payload"]["resultant"] == str(104005**2)
        assert any("published-resultant-322-phi5" in f for f in doc["errata_flags"])

    def test_suspect_resultant_flagged_in_human_output(self, capsys):
        code, out, _ = run(["resultant", "1,-322,1", "1,1,1,1,1"], capsys)
        assert code == 0
        assert "errata: published-resultant-322-phi5" in out

    def test_reports_identical_across_processes(self):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "fibk3.cli", "candidates", "61", "1", "--json"]
        first = subprocess.run(cmd, capture_output=True, text=True, check=True)
        second = subprocess.run(cmd, capture_output=True, text=True, check=True)
        assert first.stdout == second.stdout and first.stdout


class TestModuleEntryPoint:
    def test_python_m_fibk3_matches_main(self, capsys):
        import subprocess
        import sys

        argv = ["--json", "candidates", "3", "1"]
        code, out, _ = run(argv, capsys)
        proc = subprocess.run(
            [sys.executable, "-m", "fibk3", *argv], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (code, out)
        proc = subprocess.run(
            [sys.executable, "-m", "fibk3", "fib", "1"], capture_output=True, text=True
        )
        assert proc.returncode == 1 and "required" in proc.stderr


class TestInternalErrorPath:
    def test_method_disagreement_exits_two(self, capsys, monkeypatch):
        import fibk3.salem as salem_module

        monkeypatch.setattr(salem_module, "_resultant_subresultant", lambda p, q: 999)
        code, out, err = run(["--json", "resultant", "1,-3,1", "1,1,1,1,1"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "internal_error"
        assert "disagree" in doc["payload"]["message"]


class TestSelftestCommand:
    def test_named_suite_passes(self, capsys):
        code, out, _ = run(["selftest", "--suite", "report-determinism"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_json_payload_shape(self, capsys):
        code, out, _ = run(["selftest", "--suite", "cassini", "--json"], capsys)
        doc = json.loads(out)
        assert doc["payload"]["all_passed"] is True
        suite = doc["payload"]["suites"][0]
        assert suite["name"] == "cassini"
        assert suite["failures"] == "0"

    def test_seconds_per_suite(self, capsys):
        code, out, _ = run(["selftest", "--suite", "cassini", "--json"], capsys)
        seconds = json.loads(out)["payload"]["suites"][0]["seconds"]
        assert 0 <= float(seconds) < 60
        code, out, _ = run(["selftest", "--suite", "cassini"], capsys)
        assert re.fullmatch(r"cassini: PASS \(2400 checks, \d+\.\d\d s\)", out.splitlines()[0])

    def test_summary_line_totals(self, capsys):
        code, out, _ = run(["selftest", "--suite", "pell"], capsys)
        assert code == 0
        assert re.fullmatch(r"all passed \(64 checks, \d+\.\d\d s\)", out.splitlines()[-1])

    def test_summary_line_on_failure(self, capsys, monkeypatch):
        from fibk3 import selftest

        failed = selftest.SuiteResult("cassini", 2400, 3, "a=1, n=2", 0.004)
        monkeypatch.setitem(selftest._SUITES, "cassini", lambda: failed)
        code, out, _ = run(["selftest", "--suite", "cassini"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "cassini: FAIL (3/2400 failed; first: a=1, n=2)"
        assert re.fullmatch(r"FAILURES PRESENT \(3/2400 checks failed, 0\.00 s\)", lines[-1])


class TestClosedStdout:
    """A reader that closes the pipe early ends the command quietly."""

    @pytest.mark.parametrize(
        "argv",
        [["selftest", "--suite", "pell"], ["candidates", "9699690", "1", "--json"]],
        ids=["selftest", "candidates"],
    )
    def test_broken_pipe_exits_one_without_traceback(self, argv):
        import os
        import subprocess
        import sys

        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fibk3", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestFactorizationRefusal:
    def test_entry_beyond_factorize_refused(self, capsys):
        m = str(1_000_003 * 1_000_033)
        code, out, err = run(["--json", "--limit-n", m, "entry", "1", m], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "input_error"
        assert "resists trial division" in doc["payload"]["message"]
