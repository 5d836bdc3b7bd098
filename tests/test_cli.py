import hashlib
import json
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

from fibk3 import cli
from fibk3.cli import main
from fibk3.fibgen import gen_fib

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

    def test_discact_minus_one_json(self, capsys):
        # epsilon "-1", and the rationals of (g + I) * Q^-1 as "n/d" strings
        code, out, _ = run(["--json", "discact", "3", "1", "2", "-1"], capsys)
        assert code == 0
        assert json.loads(out)["payload"] == {
            "epsilon": "-1",
            "holds": False,
            "matrix": [["3/5", "-1/5"], ["4/5", "-3/5"]],
        }

    def test_resultant_after_separator(self, capsys):
        # argparse reads a list starting with "-" as an option unless -- precedes it
        code, out, _ = run(["--json", "resultant", "-1,0,1", "1,1"], capsys)
        assert code == 1 and json.loads(out)["status"] == "input_error"
        code, out, _ = run(["--json", "resultant", "--", "-1,0,1", "1,1"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["payload"] == {
            "p": {"coeffs": ["-1", "0", "1"]},
            "q": {"coeffs": ["1", "1"]},
            "resultant": "0",
        }

    def test_quiet_suppresses_output(self, capsys):
        code, out, err = run(["fib", "1", "20", "--quiet"], capsys)
        assert code == 0 and out == ""

    # membership costs O(log n), so --limit-n does not guard member's n
    def test_member_past_the_limit(self, capsys):
        code, out, _ = run(["--json", "member", "1", "20000000"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["payload"] == {"status": "not_member", "matches": []}

    def test_member_of_a_large_value(self, capsys):
        code, out, _ = run(["--json", "member", "1", str(gen_fib(1, 1000))], capsys)
        assert code == 0
        matches = json.loads(out)["payload"]["matches"]
        assert [(m["k"], m["parity"]) for m in matches] == [("1000", "even")]

    def test_member_under_a_small_limit(self, capsys):
        code, out, _ = run(["--limit-n", "5", "member", "1", "6765"], capsys)
        assert code == 0
        assert "matches[0].k: 20\n" in out

    # entry_point's ladders run mod m, so entry's m is guarded by its bit
    # length (at most 1024), not by --limit-n
    def test_entry_past_the_limit(self, capsys):
        code, out, _ = run(["--json", "entry", "1", "20000000"], capsys)
        assert code == 0
        assert json.loads(out)["payload"] == {"value": "15000000"}

    def test_entry_of_a_large_prime(self, capsys):
        code, out, _ = run(["entry", "1", "1000000000000000009"], capsys)
        assert (code, out) == (0, "500000000000000004\n")

    def test_entry_bit_length_guard(self, capsys):
        code, out, _ = run(["entry", "1", str(2**1023)], capsys)
        assert (code, out) == (0, f"{3 * 2**1021}\n")
        code, out, _ = run(["--json", "--limit-n", str(2**2000), "entry", "1", str(2**1024)], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "input_error"
        assert doc["payload"]["message"] == "bit length of m=1025 exceeds the runtime limit 1024"


class TestHelp:
    def test_subcommand_help_shows_its_description(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["resultant", "-h"])
        assert exit_info.value.code == 0
        # argparse wraps the description to the terminal width
        assert "put -- before a list" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_every_row_shows_its_help_text(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([name, "-h"])
        assert exit_info.value.code == 0
        help_text = cli._COMMANDS[name][0]
        assert " ".join(help_text.split()) in " ".join(capsys.readouterr().out.split())


def _readme_commands():
    """(arguments, comment) of each fibk3 line in the README's command-line
    usage block, except the bare `fibk3 selftest`, whose pass the session
    fixture already runs."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command-line usage", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[0] == "fibk3" and argv[1:] != ["selftest"]:
            commands.append((argv[1:], comment.strip()))
    return commands


README_COMMANDS = _readme_commands()


class TestReadmeExamples:
    def test_block_is_found(self):
        assert len(README_COMMANDS) == 16

    @pytest.mark.parametrize(
        "argv, comment", README_COMMANDS, ids=[" ".join(a) for a, _ in README_COMMANDS]
    )
    def test_example_runs(self, argv, comment, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        if comment.isdigit():
            assert out == comment + "\n"


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

    def test_cyclotomic_index_is_guarded(self, capsys, monkeypatch):
        # l is refused before Phi_l is built: unguarded, l = 30000 takes seconds
        def never(l):
            raise AssertionError(f"cyclotomic({l}) built past the limit")

        monkeypatch.setattr("fibk3.salem.cyclotomic", never)
        code, out, err = run(["--json", "--limit-n", "10", "cyclotomic", "30000"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "input_error"
        assert doc["payload"] == {"message": "l=30000 exceeds the runtime limit 10"}
        assert "AssertionError" not in err

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
            (["--json", "fib", "1", "2", "--json=x"], "ignored explicit argument 'x'"),
            (["--json=1", "fib", "1", "2"], "ignored explicit argument '1'"),
            (["--js", "fib", "x", "2"], "invalid int value: 'x'"),
            (["fib", "--json", "", "2"], "invalid int value: ''"),
            (["--json", "fib", "1", "2", "--=x"], "ambiguous option: --=x"),
        ],
        ids=["json-twice", "json-with-value", "abbreviated", "empty-argument", "ambiguous"],
    )
    def test_malformed_flag_keeps_json(self, argv, message, capsys):
        # a flag in any form, --json=x included, is read as given
        code, out, err = run(argv, capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "input_error" and message in doc["payload"]["message"]
        assert message in err

    def test_malformed_quiet_keeps_quiet(self, capsys):
        code, out, err = run(["fib", "1", "2", "--quiet=3", "--json"], capsys)
        assert code == 1 and out == "" and "ignored explicit argument '3'" in err

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


# one request past each guard of a _COMMANDS row, with its refusal
GUARD_REFUSALS = [
    (["--limit-n", "10", "fib", "1", "11"], "n=11 exceeds the runtime limit 10"),
    (["--limit-n", "10", "trace", "1", "-11"], "n=-11 exceeds the runtime limit 10"),
    (["--limit-n", "10", "abpow", "1", "11"], "n=11 exceeds the runtime limit 10"),
    (["--limit-n", "10", "discact", "3", "1", "11", "+1"], "n=11 exceeds the runtime limit 10"),
    (["discact", "3", "1", "0", "+1"], "n must be >= 1"),
    (["discact", "1", "1", "1", "+1"], "m must be >= 2"),
    (["--limit-n", "10", "cyclotomic", "30000"], "l=30000 exceeds the runtime limit 10"),
    (["--limit-n", "10", "pell", "5", "+1", "11"], "bound=11 exceeds the runtime limit 10"),
    (["--limit-n", "10", "candidates", "11", "1"], "m=11 exceeds the runtime limit 10"),
    (["entry", "1", str(2**1024)], "bit length of m=1025 exceeds the runtime limit 1024"),
]


def _command_of(argv):
    return next(token for token in argv if token in cli._COMMANDS)


class TestGuards:
    def test_every_guard_has_a_refusal(self):
        counts = Counter(_command_of(argv) for argv, _ in GUARD_REFUSALS)
        assert counts == {name: len(row[3]) for name, row in cli._COMMANDS.items() if row[3]}

    @pytest.mark.parametrize(
        "argv, message",
        GUARD_REFUSALS,
        ids=[f"{_command_of(argv)}: {message}" for argv, message in GUARD_REFUSALS],
    )
    def test_refused_before_the_library_call(self, argv, message, capsys, monkeypatch):
        name = _command_of(argv)
        help_text, arguments, _, guards, render = cli._COMMANDS[name]

        def never(*values):
            raise AssertionError(f"{name}{values} called past its guard")

        monkeypatch.setitem(cli._COMMANDS, name, (help_text, arguments, never, guards, render))
        code, out, err = run(["--json"] + argv, capsys)
        assert code == 1
        assert json.loads(out) == {
            "command": name,
            "status": "input_error",
            "payload": {"message": message},
            "errata_flags": [],
        }
        assert err == f"error: {message}\n"


class TestDigitLimit:
    # integers past the interpreter's int->str digit limit are refused by the
    # writer; the refusal is one JSON document, not a traceback
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

    # --quiet writes nothing out, so nothing is refused for its size
    @pytest.mark.parametrize(
        "argv", [["fib", "1", "30000"], ["candidates", "100003", "1"]], ids=lambda a: a[0]
    )
    def test_quiet_is_not_refused(self, argv, capsys):
        code, out, err = run(["--quiet"] + argv, capsys)
        assert (code, out, err) == (0, "", "")


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
# The example100 digests were re-pinned again when the scenario's reasons
# became FilterChecks with integer witnesses instead of prose.
# Every other subcommand, the resultant errata path and one guard refusal
# were pinned before the command table replaced the parser blocks; the
# gram, abpow, isometry, cyclotomic, resultant, salem and pell digests were
# re-pinned when each payload became its library value.
REGRESSION_DIGESTS = {
    "--json candidates 3 1": "a12af7afa7880ca254ce9fe80bd76fc06dbdc2db7c792d9bacfc896d741d0058",
    "--json candidates 3 2": "f12cd8ade5958b1f918c53f25bf0455d694899b6a6a871a5e261ebefb5ee7f30",
    "--json candidates 13 1": "7ac234b1604f220bd91f89803f2d9598bac32399cb271bdc9bf264dd99030884",
    "--json candidates 13 2": "e17020ff734ee9902c413b6c46895f316f151185e3b25b594fe2b68c89b9a4ce",
    "--json candidates 15 1": "77d54177cc7e9660da334ce2a84d021ecec759a260a8c56c0ab342f515628799",
    "--json candidates 15 2": "c38997de3216a1a59e3d22fb5a2f6ea3b02e51936979f4b095d81b05b70b00d7",
    "--json candidates 61 1": "92443f541bfd4ca105baf60272bd72ba58cf1650fb4746e2bb28452f85f72763",
    "--json candidates 61 2": "6c878155c0e36a02cfd728fb849d6f444d2afb97842b2d5479869a95c7157dc9",
    "--json example100 15": "4a0baece3f0935bf01f7138b886ab1a27e5414ea6fdbb57acd024cbdc760a628",
    "--json discact 3 1 4 +1": "84ba029a7ba2fa9708e253ddf9da971656bd7e5a1a20634742983affd4ff3a52",
    "--json salem 322": "c2da4151bf0c9a7366d06b5b4ff71085005044764fe55c71212018604f3d8ca2",
    "candidates 61 1": "88a798220ce501152c6a1557fdac9d6132417a685f249fe9e6e438cf03efb3fd",
    "discact 3 1 4 +1": "1ab062cc815d87d7f0c3fd8aa64120bde56741d4365a662cb7fa26f4aa034279",
    "salem 322": "ae706642d6e171615ac1d840f55f9815d3814b46814f15faf04cf846cbee507e",
    "--json fib 1 20": "467a983bb4dfafc46041bcad2e26c9cdc8dcfb2602ad7591985d91014012ccd4",
    "fib 1 20": "a82da06df2e8b6f6db88f38375189ce0a5ad63030970f671fc82f5dbfd6f30da",
    "--json member 1 1": "1025f571bc6bb99fac3731f02dcb44b56b206ec13e0520ecc201ca394fe90839",
    "member 1 1": "dc27bf04ffbd43433f74435dd4845815239d4b6a782dd6980a87d10db2d1da7a",
    "--json entry 1 61": "1b07c45dc5673a33c98d3c8baa2c093fbdd0ffdd2547f2213ac70b6678e46b18",
    "entry 1 61": "238903180cc104ec2c5d8b3f20c5bc61b389ec0a967df8cc208cdc7cd454174f",
    "--json trace 1 6": "816bb070a56aeb124f086c099c78359c5de08a698acb9974cec2bff6140667b3",
    "trace 1 6": "13e7a9decbce922176ed35763497a2dd518381561eea8919e344688f95c7cfdd",
    "--json gram 3 1": "b060163972b9a3dcfd750eeb8e53eb06be8893db476839287086b3f8279574b0",
    "gram 3 1": "80a2c4cc5db19073d2282b51ba890365debf910557caf68ce4df7f5da216c339",
    "--json abpow 1 4": "5c78e1e6361f65e1e325d45dbcfad94b227d8bff4e49bd8388361ec11584f336",
    "abpow 1 4": "15a73acedf77a0e8f60309d02d4754a02e08644c39748219d1166d86ec9f4afa",
    "--json isometry 1 1 -- 1 0 1 -1": "66dc559722c9eb80805c630540a7e02309a1fd3d436b2edeab8052fad6601a45",
    "isometry 1 1 -- 1 0 1 -1": "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
    "--json cyclotomic 10": "95553d5b3434a44f30a6dd579fe62bb548ed1934a8f7f4bcc44bd0f0a6abbdea",
    "cyclotomic 10": "cd5eb8701ed847768911882ca14ecc362495883af43b8929d511d7f527682e66",
    "--json resultant 1,-3,1 1,1,1,1,1": "784c269e6edcaab22e90c8577592dc6db466f5b470f149d069bed1fa735064bd",
    "resultant 1,-3,1 1,1,1,1,1": "79910be856d784f9c1cd417764f929b3b4c297320509b8cdc5f67e77365c8405",
    "--json resultant 1,-322,1 1,1,1,1,1": "02765beebfa02ae65fcae5c1959e4a9e811ee1bb1dd2cc17bce24995d06eea85",
    "resultant 1,-322,1 1,1,1,1,1": "097a1b99e4f8d9c6953a25d828e5ac9d89b70e4b28e795206165e918e49020c4",
    "--json pell 5 +1 10": "71089cfa4889486cea5906101714f298faf6285134071d2ec77363da9f0e981e",
    "pell 5 +1 10": "47d2241334ec4c83c3b4ac6c2fd6db78ad4972eb57b292773f7834236f352042",
    "example100 15": "5a0be4b4295d70c7b3087b5d4da03d91fa048efd4dfd4e59767cbcf66655f7e0",
    "--json discact 1 1 3 +1": "3593a7ff89e44e5a3a09829f074dfdd977ecb75ffaf7b6ee50dfa35b351e88ba",
    "--json cyclotomic 2310": "03ea80ed23290f5eeaf42b37974b60a0a06bfb73dc868cef3663b8efe7fb5944",
    "cyclotomic 2310": "8c37e2fb685b21e010b7c0e484f6355bec1d9676462493dd88c6bb97847789ed",
}
# commands on the regression set that a guard refuses (exit code 1)
REGRESSION_REFUSALS = {"--json discact 1 1 3 +1"}


class TestRegressionSet:
    def test_every_row_but_selftest_is_pinned_in_both_modes(self):
        pinned = [command.split() for command in REGRESSION_DIGESTS]
        for name in cli._COMMANDS.keys() - {"selftest"}:
            assert any(argv[0] == name for argv in pinned), name
            assert any(argv[:2] == ["--json", name] for argv in pinned), name

    @pytest.mark.parametrize(
        "command", list(REGRESSION_DIGESTS), ids=lambda c: c.replace(" ", "_")
    )
    def test_stdout_digest(self, command, capsys):
        code, out, _ = run(command.split(), capsys)
        assert code == (1 if command in REGRESSION_REFUSALS else 0)
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

    def test_disagreement_past_the_digit_limit_exits_two(self, capsys, monkeypatch):
        # the resultant of x^2 + (10^3000 - 1)*x + 1 and Phi_5 has about
        # 12,000 digits; the message gives bit lengths and degrees, so it is
        # built without the int->str digit limit and the exit stays 2
        import fibk3.salem as salem_module

        subresultant = salem_module._resultant_subresultant
        monkeypatch.setattr(
            salem_module, "_resultant_subresultant", lambda p, q: subresultant(p, q) + 1
        )
        wide = "1," + "9" * 3000 + ",1"
        code, out, _ = run(["--json", "resultant", wide, "1,1,1,1,1"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "internal_error"
        message = doc["payload"]["message"]
        assert message.startswith("resultant algorithms disagree: ")
        assert message.endswith(" bits for polynomials of degrees 2 and 4")


class TestOneDigitPath:
    """_jsonify's memoized int-to-text function is the only code that turns
    a payload integer into digits."""

    def test_salem_layout_writes_the_trace_through_the_writer(self):
        from fibk3 import salem

        quad = salem.salem_data(10**400 + 7)
        calls = []

        def spy(v):
            calls.append(v)
            return f"<{v.bit_length()} bits>"

        layout = cli._LAYOUTS[salem.SalemQuadratic](quad, spy)
        assert calls == [quad.tau]
        assert layout["polynomial"] == "x^2 - " + spy(quad.tau) + "*x + 1"

    def test_each_distinct_int_is_converted_once(self, monkeypatch):
        import builtins

        from fibk3 import engine, lattice

        report = engine.analyze(18980, 1)
        action = lattice.disc_action(lattice.ab_power(1, 3), lattice.fibonacci_lattice(3, 1), 1)
        fractions = [x for row in action.matrix for x in row if x.denominator != 1]
        assert fractions
        seen = []

        def counting_str(v):
            seen.append(v)
            return builtins.str(v)

        monkeypatch.setattr(cli, "str", counting_str, raising=False)
        cli._jsonify(report)
        assert all(type(v) is int for v in seen)
        assert len(seen) == len(set(seen))
        # the survivor's 3,248-digit trace is converted once, not twice
        assert max(seen).bit_length() > 10_000
        seen.clear()
        cli._jsonify(action)
        assert all(type(v) is int for v in seen)
        assert len(seen) == len(set(seen))
        assert {x.numerator for x in fractions} | {x.denominator for x in fractions} <= set(seen)

    def test_survivor_polynomials_are_written_from_tau(self, capsys, monkeypatch):
        # one parser for the 897 requests: building it is most of a request
        parser = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: parser)

        def salem_blocks(value):
            if isinstance(value, dict):
                if "polynomial" in value:
                    yield value
                for item in value.values():
                    yield from salem_blocks(item)
            elif isinstance(value, list):
                for item in value:
                    yield from salem_blocks(item)

        blocks = 0
        for m in range(2, 301):
            for a in range(1, 4):
                code, out, _ = run(["--json", "candidates", str(m), str(a)], capsys)
                assert code == 0
                for block in salem_blocks(json.loads(out)["payload"]):
                    assert block["polynomial"] == "x^2 - " + block["tau"] + "*x + 1"
                    blocks += 1
        assert blocks > 0


class TestSelftestCommand:
    def test_named_suite_passes(self, capsys):
        code, out, _ = run(["selftest", "--suite", "report-determinism"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_json_payload_shape(self, capsys):
        code, out, _ = run(["selftest", "--suite", "cassini", "--json"], capsys)
        doc = json.loads(out)
        assert all(suite["failures"] == "0" for suite in doc["payload"]["value"])
        suite = doc["payload"]["value"][0]
        assert suite["name"] == "cassini"
        assert suite["failures"] == "0"

    def test_seconds_per_suite(self, capsys):
        code, out, _ = run(["selftest", "--suite", "cassini", "--json"], capsys)
        seconds = json.loads(out)["payload"]["value"][0]["seconds"]
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
