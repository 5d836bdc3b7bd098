"""The selftest recorder: forced failures report the counterexample text.

Each suite records a failure as a format string and its arguments, built into
text only at the first failure. These tests break one library call, or the
sequence a suite reads, with monkeypatch and compare `first_counterexample`
with the f-string each suite used to build, written out here as the
reference. A forked worker inherits the monkeypatches, so on a host with
more than one usable CPU these tests run the split suites on the split path.
The recorder counts the cases a suite hands it, never a stated total, and
nine suites' check counts are held to the library calls they made in the
session's one-worker pass.

The split tests fix the worker count by monkeypatching `selftest._usable_cpus`
and check that a split run reports what a one-worker (serial) run reports,
that the lowest failing or raising case wins whichever worker ran it, and
that no child outlives `run_suite`.
"""

import hashlib
import os
import threading

import pytest

from fibk3 import engine, fibgen, salem, selftest
from fibk3.errors import InvariantViolation


def test_membership_spurious_text(monkeypatch):
    real = fibgen.classify_membership

    def fake(a, n):
        return fibgen.MembershipResult("member", ()) if (a, n) == (2, 6) else real(a, n)

    monkeypatch.setattr(selftest, "classify_membership", fake)
    result = selftest.run_suite("membership")
    a, n = 2, 6
    assert (result.checks, result.failures) == (400004, 1)
    assert result.first_counterexample == f"a={a}, n={n} spurious"


def test_membership_mismatch_text(monkeypatch):
    real = fibgen.classify_membership

    def fake(a, n):
        return fibgen.MembershipResult("not_member", ()) if (a, n) == (3, 10) else real(a, n)

    monkeypatch.setattr(selftest, "classify_membership", fake)
    result = selftest.run_suite("membership")
    a, n, got, exp = 3, 10, [], [(3, "odd")]
    assert result.failures == 1
    assert result.first_counterexample == f"a={a}, n={n}: {got} != {exp}"


def test_membership_first_failure_in_enumeration_order(monkeypatch):
    # a member mismatch at a smaller n is reported before a spurious member
    # at a larger n
    real = fibgen.classify_membership

    def fake(a, n):
        if (a, n) == (3, 10):
            return fibgen.MembershipResult("not_member", ())
        if (a, n) == (3, 20):
            return fibgen.MembershipResult("member", ())
        return real(a, n)

    monkeypatch.setattr(selftest, "classify_membership", fake)
    result = selftest.run_suite("membership")
    a, n, got, exp = 3, 10, [], [(3, "odd")]
    assert (result.checks, result.failures) == (400004, 2)
    assert result.first_counterexample == f"a={a}, n={n}: {got} != {exp}"


def _addition_formula_reference(monkeypatch, deltas):
    """Make `_sequence` add deltas[a, i] to a_i of the walk for a; return the
    failing (a, n, k) of addition-formula in its enumeration order (a, then
    n, then k), found with two products per check, apart from the suite's
    walk, which takes each check's second product from the row before."""
    real = selftest._sequence

    def fake(a, upto):
        f = real(a, upto)
        for (b, i), delta in deltas.items():
            if b == a:
                f[i] += delta
        return f

    monkeypatch.setattr(selftest, "_sequence", fake)
    bad = []
    for a in range(1, 9):
        f = fake(a, 401)
        for n in range(1, 201):
            fn, fn1 = f[n], f[n + 1]
            bad += [(a, n, k) for k in range(1, n + 1) if f[n + k] != f[k] * fn1 + f[k - 1] * fn]
    return bad


def test_addition_formula_text(monkeypatch):
    # a_1 off by one at a = 8 also fails (200, 1), the first check of the
    # last row
    bad = _addition_formula_reference(monkeypatch, {(3, 150): 1, (8, 1): 1})
    assert (8, 200, 1) in bad
    result = selftest.run_suite("addition-formula")
    a, n, k = bad[0]
    assert (a, n, k) == (3, 75, 75)
    assert (result.checks, result.failures) == (160800, len(bad))
    assert result.first_counterexample == f"a={a}, n={n}, k={k}"


@pytest.mark.parametrize("workers", [1, 3])
def test_addition_formula_first_failure_in_row_order(monkeypatch, workers):
    # the suite walks the rows n in order, so its failures come in row order
    # (n, k) as it finds them. With a_11 off by one at a = 1, the first
    # failure in row order is (6, 5); a walk along the diagonals n - k = d
    # would meet (10, 10) first. A row that reads the wrong product of the
    # row before, or stops one step short or long, changes the failure count
    bad = _addition_formula_reference(monkeypatch, {(1, 11): 1, (3, 150): 1, (8, 2): -1})
    forks = _workers(monkeypatch, workers)
    result = selftest.run_suite("addition-formula")
    a, n, k = bad[0]
    assert (a, n, k) == (1, 6, 5) and len(bad) == 1269
    assert (result.checks, result.failures) == (160800, len(bad))
    assert result.first_counterexample == f"a={a}, n={n}, k={k}"
    assert len(forks) == workers - 1
    _assert_no_children()


def test_entry_point_text(monkeypatch):
    real = fibgen.entry_point

    def fake(a, m):
        return 2 * real(a, m) if (a, m) == (2, 10) else real(a, m)

    monkeypatch.setattr(selftest, "entry_point", fake)
    result = selftest.run_suite("entry-point")
    # m | a_n at the multiples of the true e = 6, which the false e = 12
    # misses at every odd multiple
    a, m, n, e = 2, 10, 6, 12
    assert (result.checks, result.failures) == (199000, 500 // 6 - 500 // 12)
    assert result.first_counterexample == f"a={a}, m={m}, n={n}, e={e}"


def test_divisibility_iff_text(monkeypatch):
    real = fibgen.divides_in_sequence

    def fake(a, k, q):
        return not real(a, k, q) if (a, k, q) == (4, 6, 12) else real(a, k, q)

    monkeypatch.setattr(selftest, "divides_in_sequence", fake)
    result = selftest.run_suite("divisibility-iff")
    a, k, q = 4, 6, 12
    assert (result.checks, result.failures) == (112500, 1)
    assert result.first_counterexample == f"a={a}, k={k}, q={q}"


def test_realization_text(monkeypatch):
    real = engine.verify_realization

    def fake(m, a, n):
        if (m, a, n) == (7, 2, 5):
            return engine.RealizationResult(True, -1)
        return real(m, a, n)

    monkeypatch.setattr(engine, "verify_realization", fake)
    result = selftest.run_suite("realization")
    a, m, n, e = 2, 7, 5, fibgen.entry_point(2, 7)
    assert (result.checks, result.failures) == (39600, 1)
    assert result.first_counterexample == f"a={a}, m={m}, n={n}, e={e}"


def test_repr_conversion_kept(monkeypatch):
    # resultant-agree formats its polynomials with !r
    seen = []

    def fake(p, q):
        seen.append((p, q))
        raise InvariantViolation("forced")

    monkeypatch.setattr(salem, "resultant", fake)
    result = selftest.run_suite("resultant-agree")
    (p, q), exc = seen[0], "forced"
    assert (result.checks, result.failures) == (500, 500)
    assert result.first_counterexample == f"{p!r}, {q!r}: {exc}"
    assert result.first_counterexample.startswith("IntPolynomial(")


def test_check_records_as_many():
    # one outcome at a time through check, or all at once through many: the
    # same counts and the same first text, !r conversion included
    outcomes = [(True, 1, "x"), (False, 2, salem.IntPolynomial([1, -3, 1])), (False, 3, "z")]
    describe = "n={}, p={!r}"
    one, batch = selftest._Recorder(), selftest._Recorder()
    for ok, *args in outcomes:
        one.check(ok, describe, *args)
    batch.many(outcomes, [tuple(args) for ok, *args in outcomes if not ok], describe)
    assert (one.checks, one.failures, one.first) == (batch.checks, batch.failures, batch.first)
    assert (one.checks, one.failures) == (3, 2)
    assert one.first == "n=2, p=IntPolynomial(coeffs=(1, -3, 1))"


def test_many_takes_no_count():
    # many counts what a suite walked, never a total stated beside the walk
    with pytest.raises(TypeError):
        selftest._Recorder().many(5, [], "")


# for each suite, the library function it calls once per check, as
# conftest.COUNTED_CALLS names it
CALLED_PER_CHECK = {
    "membership": "selftest.classify_membership",
    "divisibility-iff": "selftest.divides_in_sequence",
    "realization": "engine.verify_realization",
    "fast-path": "selftest.gen_fib",
    "trace": "selftest.salem_trace_of_power",
    "shifted-trace": "selftest.shifted_trace",
    "integrality": "lattice.disc_action",
    "disc-oracle": "lattice.disc_action_bruteforce",
    "word": "lattice.word_decompose",
}


@pytest.mark.parametrize("name", CALLED_PER_CHECK)
def test_reported_checks_are_calls_made(name, selftest_pass):
    # a suite that reports a range it did not walk in full fails here, even
    # with its pinned check count
    assert selftest_pass.calls[name][CALLED_PER_CHECK[name]] == selftest_pass.results[name].checks


def _replace(record, **changes):
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def _with_root(report, root):
    """report with the first candidate's first witness root set to root."""
    candidate = report.candidates[0]
    check = _replace(candidate.reasons[0], witness={**candidate.reasons[0].witness, "root": root})
    candidate = _replace(candidate, reasons=(check,) + candidate.reasons[1:])
    return _replace(report, candidates=(candidate,) + report.candidates[1:])


def test_report_determinism_sees_one_witness(monkeypatch):
    # the second analyze(61, 1) differs from the first in one witness only
    real, calls = engine.analyze, []

    def fake(m, a):
        report = real(m, a)
        if (m, a) == (61, 1):
            calls.append(m)
            if len(calls) == 2:
                report = _with_root(report, report.candidates[0].reasons[0].witness["root"] + 1)
        return report

    monkeypatch.setattr(engine, "analyze", fake)
    result = selftest.run_suite("report-determinism")
    assert (result.checks, result.failures) == (8, 1)
    assert result.first_counterexample == "analyze(61,1)"


# the suites whose cases run across the usable CPUs, each with its case count
SPLIT_SUITES = {
    "addition-formula": 8,
    "trace": 8,
    "shifted-trace": 8,
    "membership": 4,
    "divisibility-iff": 750,
    "entry-point": 398,
    "fast-path": 8,
    "integrality": 147,
    "disc-oracle": 87,
    "word": 500,
    "resultant-agree": 500,
    "resultant-multiplicative": 200,
    "closed-form-resultants": 4,
    "common-factor": 200,
    "engine-consistency": 297,
    "realization": 198,
}


def _workers(monkeypatch, count):
    """Make `_split` see `count` usable CPUs; return the list of fork pids."""
    monkeypatch.setattr(selftest, "_usable_cpus", lambda: count)
    real, forks = selftest.os.fork, []

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(selftest.os, "fork", fork)
    return forks


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_suites_are_the_ones_split(monkeypatch):
    # the spy runs no case; the unsplit suites run in full
    sizes = []
    monkeypatch.setattr(selftest, "_split", lambda rec, cases, body: sizes.append(len(cases)))
    split = {}
    for name in selftest.available_suites():
        sizes.clear()
        selftest.run_suite(name)
        if sizes:
            split[name] = sizes.pop()
    assert split == SPLIT_SUITES


@pytest.mark.parametrize("name", SPLIT_SUITES)
def test_split_run_equals_serial_run(name, selftest_pass, monkeypatch, capfd):
    # the session's pass ran every suite on one worker: the serial reference
    forks = _workers(monkeypatch, 3)
    split = selftest.run_suite(name)
    assert len(forks) == 2
    serial = selftest_pass.results[name]
    fields = ("name", "checks", "failures", "first_counterexample")
    assert [getattr(split, f) for f in fields] == [getattr(serial, f) for f in fields]
    assert capfd.readouterr() == ("", "")
    _assert_no_children()


def _fake_membership(monkeypatch, raising, spurious):
    """classify_membership raises InvariantViolation(raising[a]) for a in
    raising, and calls the non-member n = 4 a member for a in spurious."""
    real = fibgen.classify_membership

    def fake(a, n):
        if a in raising:
            raise InvariantViolation(raising[a])
        if a in spurious and n == 4:
            return fibgen.MembershipResult("member", ())
        return real(a, n)

    monkeypatch.setattr(selftest, "classify_membership", fake)


# membership's cases are a = 1, 2, 3, 5, and case i runs on worker i mod w,
# worker 0 the caller: with two workers the caller holds a = 1, 3, with three
# it holds a = 1, 5 and the children a = 2 and a = 3
@pytest.mark.parametrize(
    "workers, earlier, later",
    [(1, 2, 3), (2, 2, 3), (2, 3, 5), (3, 2, 5), (3, 1, 3)],
    ids=["one-worker", "two-child-first", "two-caller-first", "three-child-first",
         "three-caller-first"],
)
def test_failures_report_the_lowest_failing_case(workers, earlier, later, monkeypatch, capfd):
    forks = _workers(monkeypatch, workers)
    _fake_membership(monkeypatch, {}, (earlier, later))
    result = selftest.run_suite("membership")
    assert len(forks) == workers - 1
    assert (result.checks, result.failures) == (400004, 2)
    assert result.first_counterexample == f"a={earlier}, n=4 spurious"
    assert capfd.readouterr() == ("", "")
    _assert_no_children()


# on two workers; a failure below or above the raising case does not stop
# the raise
@pytest.mark.parametrize(
    "raising, spurious, message",
    [({2: "in the child"}, (), "in the child"),
     ({2: "child, case 1", 3: "caller, case 2"}, (), "child, case 1"),
     ({3: "caller, case 2", 5: "child, case 3"}, (), "caller, case 2"),
     ({3: "caller, case 2"}, (2,), "caller, case 2"),
     ({1: "caller, case 0"}, (2,), "caller, case 0")],
    ids=["child", "child-first", "caller-first", "child-fails-first", "caller-raises-first"],
)
def test_lowest_raising_case_propagates(raising, spurious, message, monkeypatch, capfd):
    forks = _workers(monkeypatch, 2)
    _fake_membership(monkeypatch, raising, spurious)
    with pytest.raises(InvariantViolation) as info:
        selftest.run_suite("membership")
    assert str(info.value) == message
    assert len(forks) == 1
    assert capfd.readouterr() == ("", "")
    _assert_no_children()


def test_child_without_a_result(monkeypatch):
    real = fibgen.classify_membership

    def fake(a, n):
        if a == 2:
            os._exit(3)
        return real(a, n)

    _workers(monkeypatch, 2)
    monkeypatch.setattr(selftest, "classify_membership", fake)
    with pytest.raises(ChildProcessError, match="ended without a result"):
        selftest.run_suite("membership")
    _assert_no_children()


def test_interrupt_kills_and_reaps_the_children(monkeypatch):
    # the caller's first case is interrupted while the child is still working
    real = fibgen.classify_membership

    def fake(a, n):
        if a == 1:
            raise KeyboardInterrupt
        return real(a, n)

    forks = _workers(monkeypatch, 2)
    monkeypatch.setattr(selftest, "classify_membership", fake)
    with pytest.raises(KeyboardInterrupt):
        selftest.run_suite("membership")
    assert len(forks) == 1
    _assert_no_children()


def _wrong_at(real, args):
    """real, except that its value at `args` is off by one (or negated, for a
    bool)."""

    def fake(*got):
        value = real(*got)
        if got != args:
            return value
        return not value if isinstance(value, bool) else value + 1

    return fake


def _spurious_member_at(args):
    real = fibgen.classify_membership

    def fake(*got):
        return fibgen.MembershipResult("member", ()) if got == args else real(*got)

    return fake


# suite, the name the suite calls, the spy (built from the real function),
# and the one counterexample the spy must cause
MUTANTS = [
    ("fast-path", "gen_fib", lambda: _wrong_at(fibgen.gen_fib, (3, -77)), "a=3, n=-77"),
    ("fast-path", "gen_fib_iter", lambda: _wrong_at(fibgen.gen_fib_iter, (5, -400)),
     "a=5, n=-400"),
    ("trace", "salem_trace_of_power", lambda: _wrong_at(fibgen.salem_trace_of_power, (4, 0)),
     "a=4, n=0"),
    ("shifted-trace", "shifted_trace", lambda: _wrong_at(fibgen.shifted_trace, (6, 300)),
     "a=6, n=300"),
    ("divisibility-iff", "divides_in_sequence",
     lambda: _wrong_at(fibgen.divides_in_sequence, (1, 2, 7)), "a=1, k=2, q=7"),
    ("membership", "classify_membership", lambda: _spurious_member_at((5, 1000)),
     "a=5, n=1000 spurious"),
]


@pytest.mark.parametrize(
    "suite, target, spy, first", MUTANTS, ids=[f"{s}-{t}" for s, t, _, _ in MUTANTS]
)
def test_mutant_fails_once_on_any_worker_count(suite, target, spy, first, monkeypatch, capfd):
    # the spy is set in the caller before the fork, so the workers inherit it
    monkeypatch.setattr(selftest, target, spy())
    results = []
    for count in (3, 1):
        forks = _workers(monkeypatch, count)
        results.append(selftest.run_suite(suite))
        assert len(forks) == count - 1
    for result in results:
        assert (result.failures, result.first_counterexample) == (1, first)
    assert results[0].checks == results[1].checks
    assert capfd.readouterr() == ("", "")
    _assert_no_children()


@pytest.mark.parametrize(
    "l, index, delta, first",
    [
        # Phi_6 = x^2 - x + 1 made x^2 + x + 1 = Phi_3, which divides x^3 - 1
        (6, 1, 2, "Phi_6 divides x^3-1"),
        # Phi_12 = x^4 - x^2 + 1 made x^4 - x^2 + 2, which does not divide x^12 - 1
        (12, 0, 1, "x^12-1 division at l=12"),
    ],
)
def test_wrong_cyclotomic_fails_the_division_checks(l, index, delta, first, monkeypatch):
    real, real_rem, divisions = salem.cyclotomic, salem._pseudo_rem, []

    def wrong(k):
        coeffs = list(real(k).coeffs)
        if k == l:
            coeffs[index] += delta
        return salem.IntPolynomial(coeffs)

    def spy(r, q):
        divisions.append(q)
        return real_rem(r, q)

    monkeypatch.setattr(salem, "cyclotomic", wrong)
    monkeypatch.setattr(salem, "_pseudo_rem", spy)
    result = selftest.run_suite("cyclotomic")
    assert (result.checks, result.failures, result.first_counterexample) == (257, 1, first)
    # all 207 division checks (by x^l - 1 and by x^d - 1 for d | l, d < l)
    # went through _pseudo_rem
    assert len(divisions) == 207


# sha256 of repr of each drawn case list: a change to how a generator draws
# from its seed changes the suite's cases, and fails here
DRAWN_CASE_DIGESTS = {
    "_word_cases": "c7636c00717d0e58ab98a8d267b22cea0bffe7729165183f413aeb10fbd1aab9",
    "_resultant_agree_cases": "a2f35ae02f4017f50fc022c724872cfebdf342a64bb526f1d707f5ffc3027470",
    "_resultant_multiplicative_cases":
        "d97e951b51256161f6f9c3fef6782b1efc89aabc83eb5e8e3dd81a70c6d7388f",
    "_common_factor_cases": "17b889cb139c15cb970ed0f15d544d70aeadbc9f9f96aa59703a58e217f6cd44",
}


@pytest.mark.parametrize("generator", DRAWN_CASE_DIGESTS)
def test_drawn_cases_are_pinned(generator):
    cases = getattr(selftest, generator)()
    assert hashlib.sha256(repr(cases).encode()).hexdigest() == DRAWN_CASE_DIGESTS[generator]


@pytest.mark.parametrize("fallback", ["second-thread", "no-fork"])
def test_serial_fallbacks_run_every_case_here(fallback, monkeypatch):
    forks = _workers(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if fallback == "second-thread":
        thread.start()
    else:
        monkeypatch.delattr(selftest.os, "fork")
    try:
        result = selftest.run_suite("trace")
    finally:
        stop.set()
        if fallback == "second-thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == [] and result.passed and result.checks == 2408
