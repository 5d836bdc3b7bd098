import hashlib
import json

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


# sha256 of stdout on the regression set, taken before the alias and wrapper
# layer was removed; a refactor must leave every one of these bytes unchanged
REGRESSION_DIGESTS = {
    "--json candidates 3 1": "6a31644833209226e325dc991b0476b171929ae3dc08ecd435675ca138cab1bb",
    "--json candidates 3 2": "fe93cc821b62d440e7986aff2c8b5852ad1f0532137217cced1f1c0707f2d1bc",
    "--json candidates 13 1": "71a71a58f0f2e961cec4dbe2fa39509eb2c7377a8c8461ec85f254261ce8f433",
    "--json candidates 13 2": "7956254a65a9fafeb31ff8ffa386910487b4a3279242b1c9106901fac1678920",
    "--json candidates 15 1": "072675b0486296f5bd22b22d904a454f4b6b5fd03690171796daa32948958a82",
    "--json candidates 15 2": "4021cddb122bcc53436bbdfe3f6eda79f8165d67948e16e599c5c6f8307af5a1",
    "--json candidates 61 1": "954baadf260dc7748aee1de913e259815d97c1396479e2454624fcdeaf0ecd07",
    "--json candidates 61 2": "51e8434c23293843d346045f093f953d2572d8b406167e2697cca2b22048477e",
    "--json example100 15": "b61f44d394c6f01deaaf5895c32eb84ebedf0f9a6f7a5b91a3c935586b50e0cb",
    "--json discact 3 1 4 +1": "84ba029a7ba2fa9708e253ddf9da971656bd7e5a1a20634742983affd4ff3a52",
    "--json salem 322": "82789d69456367f13253eb989f6361611ba07f8b055241f80e1bf1b68d40f42f",
    "candidates 61 1": "29c89abbb9536a25de8726b4c2f6e8d7de307a323ca54631202aa144c1f73cd0",
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

    def test_alias_suite(self, capsys):
        code, out, _ = run(["selftest", "--suite", "lemma51"], capsys)
        assert code == 0
        assert "closed-form-resultants: PASS" in out

    def test_json_payload_shape(self, capsys):
        code, out, _ = run(["selftest", "--suite", "cassini", "--json"], capsys)
        doc = json.loads(out)
        assert doc["payload"]["all_passed"] is True
        suite = doc["payload"]["suites"][0]
        assert suite["name"] == "cassini"
        assert suite["failures"] == "0"
