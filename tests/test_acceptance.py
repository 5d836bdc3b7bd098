"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The range invariants are implemented once, as the `fibk3 selftest`
suites: criteria 2, 3, 5, 6, 7 and 11 assert that their suites pass with
their pinned check counts, and `test_selftest_suite` does the same for all
25 suites, so a suite whose range shrinks fails here. The suites run once
per test session, on one worker, in the `selftest_pass` fixture of
conftest.py, which the ladder-memo test in test_fibgen.py reads too (the
split runs are compared with one-worker runs in test_selftest.py). The
published values, criterion 4's divisibility equivalence with its exact
failure set, and the engine regressions' survivor sets are asserted
directly; criterion 9 takes report determinism from the report-determinism
suite. Everything is exact integer arithmetic, so the only tolerances are the
two floating-point fields of the Salem data (bounded relatively at 1e-12
elsewhere in the suite).
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import fibk3
from fibk3 import engine, salem, selftest
from fibk3._primes import factorize
from fibk3.fibgen import divides_in_sequence, entry_point, gen_fib
from fibk3.salem import IntPolynomial, cyclotomic
from fibk3.salem import _resultant_subresultant, _resultant_sylvester

# Check count of every suite; a changed count means a suite no longer covers
# the same range.
SUITE_CHECKS = {
    "addition-formula": 160800,
    "cassini": 2400,
    "trace": 2408,
    "shifted-trace": 2400,
    "membership": 400004,
    "coprimality": 1600,
    "divisibility-shift": 3224,
    "divisibility-iff": 112500,
    "entry-point": 199000,
    "fast-path": 6408,
    "ab-power": 1150,
    "integrality": 11760,
    "disc-oracle": 3480,
    "word": 500,
    "resultant-agree": 500,
    "resultant-multiplicative": 200,
    "closed-form-resultants": 120,
    "common-factor": 5000,
    "palindromic": 400,
    "pell": 64,
    "cyclotomic": 257,
    "engine-consistency": 232,
    "realization": 39600,
    "closure-soundness": 391,
    "report-determinism": 8,
}


def test_benchmark_pins_match_suite_checks():
    # perfbench/checks.py pins the suite counts the benchmark accepts; a suite
    # widened here fails this test before it fails a benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    for name, count in checks.SELFTEST_CHECKS.items():
        assert SUITE_CHECKS[name] == count, name


def _assert_suites_pass(selftest_pass, *names: str) -> None:
    for name in names:
        result = selftest_pass.results[name]
        assert result.name == name, result
        assert (result.checks, result.failures) == (SUITE_CHECKS[name], 0), result


def _report(number: int, label: str) -> None:
    print(f"PASS criterion {number}: {label}")


def test_criterion_01_exact_values_and_factorizations():
    assert gen_fib(1, 20) == 6765
    assert factorize(6765) == {3: 1, 5: 1, 11: 1, 41: 1}
    assert gen_fib(1, 50) == 12586269025
    assert factorize(12586269025) == {5: 2, 11: 1, 101: 1, 151: 1, 3001: 1}
    assert gen_fib(1, 100) == 354224848179261915075
    assert factorize(354224848179261915075) == {
        3: 1,
        5: 2,
        11: 1,
        41: 1,
        101: 1,
        151: 1,
        401: 1,
        3001: 1,
        570601: 1,
    }
    _report(1, "f_20, f_50, f_100 values and factorizations")


def test_criterion_02_membership_matches_enumeration(selftest_pass):
    _assert_suites_pass(selftest_pass, "membership")
    _report(2, "membership criterion == enumeration for a in {1,2,3,5}, n <= 1e5")


def test_criterion_03_entry_points_and_structure(selftest_pass):
    assert entry_point(1, 3) == 4
    assert entry_point(1, 13) == 7
    assert entry_point(1, 61) == 15
    assert entry_point(1, 15) == 20
    _assert_suites_pass(selftest_pass, "entry-point")
    _report(3, "entry points and m | a_n <=> e(m) | n for m <= 200, n <= 500")


def test_criterion_04_divisibility_suite(selftest_pass):
    # NOTE: the published equivalence a_k | a_q <=> k | q is evaluated
    # verbatim at every (a, k, q) in the stated range, and it fails there
    # exactly at the 75 pairs of README erratum 3: a = 1, k = 2, q odd, where
    # a_2 = 1 divides every a_q while 2 divides only even q. That set is
    # derived, not recorded: a_2 = a and the sequence is strictly increasing
    # from index 2 on, so a_k = 1 with k >= 2 happens only at (a, k) = (1, 2).
    # The test holds the statement to that failure set: a counterexample
    # anywhere else fails it, and so does one of the 75 disappearing. The gcd
    # form gcd(a_k, a_q) = a_gcd(k, q) holds everywhere; it is verified in
    # tests/test_fibgen.py and the divisibility-iff self-test suite.
    _assert_suites_pass(selftest_pass, "coprimality", "divisibility-shift")
    failures = {}
    for a in range(1, 6):
        seq = [0, 1]
        while len(seq) <= 151:
            seq.append(a * seq[-1] + seq[-2])
        for k in range(1, 151):
            for q in range(1, 151):
                divides = seq[q] % seq[k] == 0
                assert divides_in_sequence(a, k, q) == divides, (a, k, q)
                published = divides == (q % k == 0)
                if not published:
                    failures[(a, k, q)] = seq[k]
    assert all(a_k == 1 for a_k in failures.values()), failures
    assert set(failures) == {(1, 2, q) for q in range(1, 151, 2)}, sorted(failures)
    _report(
        4,
        "coprime neighbors, divisor shift, and a_k | a_q <=> k | q verbatim, "
        "failing exactly at the 75 pairs a = 1, k = 2, q odd (erratum 3)",
    )


def test_criterion_05_identity_suite(selftest_pass):
    _assert_suites_pass(
        selftest_pass, "addition-formula", "cassini", "trace", "shifted-trace", "fast-path"
    )
    _report(5, "addition, Cassini, trace, and shifted-trace identities, a <= 8")


def test_criterion_06_lattice_suite(selftest_pass):
    _assert_suites_pass(selftest_pass, "ab-power", "disc-oracle", "integrality")
    _report(6, "powers, orthogonality, discriminant oracle, integrality both ways")


def test_criterion_07_resultant_suite(selftest_pass):
    s = IntPolynomial([1, -3, 1])
    assert salem.resultant(s, cyclotomic(5)) == 121
    assert salem.resultant(s, cyclotomic(10)) == 25
    assert salem.resultant(s, cyclotomic(25)) == 101**2 * 151**2
    assert salem.resultant(s, cyclotomic(50)) == 5**2 * 3001**2
    _assert_suites_pass(selftest_pass, "resultant-agree", "closed-form-resultants")
    _report(7, "two-method agreement, published resultants, closed forms n <= 30")


def test_criterion_08_erratum_detection():
    s = IntPolynomial([1, -322, 1])
    phi5 = cyclotomic(5)
    by_sylvester = _resultant_sylvester(s, phi5)
    by_subresultant = _resultant_subresultant(s, phi5)
    f6 = gen_fib(1, 6)
    closed = 5**2 * (5 * f6**4 + 5 * f6**2 + 1) ** 2
    assert by_sylvester == by_subresultant == closed == 104005**2
    assert closed != 59**2 * 1741**2
    flags = engine.errata_for_resultant(s, phi5)
    assert flags and "59^2*1741^2" in flags[0]
    assert any("published-resultant-322-phi5" in f for f in engine.analyze(61, 1).errata_flags)
    _report(8, "res(x^2-322x+1, Phi_5) recomputed consistently and flagged")


def test_criterion_09_engine_regression(selftest_pass):
    rep3 = engine.analyze(3, 1)
    assert rep3.survivors == ((1, 4),)
    assert (rep3.generator.l, rep3.generator.k) == (1, 4)
    rep13 = engine.analyze(13, 1)
    assert rep13.survivors == ((2, 7),)
    rep61 = engine.analyze(61, 1)
    assert set(rep61.survivors) == {(2, 15), (10, 3)}
    assert rep61.errata_flags
    scenario = engine.target_exponent_scenario(15)
    assert scenario.published_style_survivors == ((1, 100),)
    assert scenario.closure_rule.survivors == ((1, 20),)
    assert scenario.errata_flags
    _assert_suites_pass(selftest_pass, "report-determinism")
    _report(9, "m=3, m=13, m=61 survivor sets; m=15 scenario; deterministic reports")


def test_criterion_10_filter_unit_checks():
    passing = [l for l in (1, 2, 5, 10, 25, 50) if salem.cyclotomic_trace_filter(3, l)]
    assert passing == [10, 50]
    assert salem.admissible_trace_root(3, 1) is None
    assert salem.admissible_trace_root(3, -1) is None
    assert {l: salem.char_poly_multiplicity(l) for l in (1, 2, 5, 10, 25, 50)} == {
        1: 20,
        2: 20,
        5: 5,
        10: 5,
        25: 1,
        50: 1,
    }
    _report(10, "trace filter at tau=3, admissible roots, multiplicities")


def test_criterion_11_pell_suite(selftest_pass):
    _assert_suites_pass(selftest_pass, "pell")
    _report(11, "membership witnesses solve alpha^2 - D beta^2 = 4 eps with beta = 1")


@pytest.mark.parametrize("name", list(SUITE_CHECKS))
def test_selftest_suite(name, selftest_pass):
    assert tuple(SUITE_CHECKS) == selftest.available_suites() == tuple(selftest_pass.results)
    _assert_suites_pass(selftest_pass, name)


def test_public_names_resolve():
    for info in pkgutil.iter_modules(fibk3.__path__):
        module = importlib.import_module(f"fibk3.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
    # the package re-exports only names its modules still list as public
    tree = ast.parse(Path(fibk3.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"fibk3.{node.module}")
            public = getattr(module, "__all__", dir(module))
            for alias in node.names:
                assert alias.name in public, (node.module, alias.name)
