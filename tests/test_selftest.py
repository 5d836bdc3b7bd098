"""The selftest recorder: forced failures report the counterexample text.

Each suite records a failure as a format string and its arguments, built into
text only at the first failure. These tests break one library call, or the
sequence a suite reads, with monkeypatch and compare `first_counterexample`
with the f-string each suite used to build, written out here as the
reference. A forked worker inherits the monkeypatches, so on a host with
more than one usable CPU these tests run the split suites on the split path.

The split tests fix the worker count by monkeypatching `selftest._usable_cpus`
and check that a split run reports what a one-worker (serial) run reports,
that the lowest failing or raising case wins whichever worker ran it, and
that no child outlives `run_suite`.
"""

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


def test_addition_formula_text(monkeypatch):
    real = selftest._sequence

    def fake(a, upto):
        f = real(a, upto)
        if a == 3:
            f[150] += 1
        return f

    monkeypatch.setattr(selftest, "_sequence", fake)
    result = selftest.run_suite("addition-formula")
    f = fake(3, 401)
    bad = [
        (n, k)
        for n in range(1, 201)
        for k in range(1, n + 1)
        if f[n + k] != f[k] * f[n + 1] + f[k - 1] * f[n]
    ]
    a, (n, k) = 3, bad[0]
    assert (n, k) == (75, 75)
    assert (result.checks, result.failures) == (160800, len(bad))
    assert result.first_counterexample == f"a={a}, n={n}, k={k}"


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
    batch.many(len(outcomes), [tuple(args) for ok, *args in outcomes if not ok], describe)
    assert (one.checks, one.failures, one.first) == (batch.checks, batch.failures, batch.first)
    assert (one.checks, one.failures) == (3, 2)
    assert one.first == "n=2, p=IntPolynomial(coeffs=(1, -3, 1))"


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
    "divisibility-iff": 5,
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
def test_split_run_equals_serial_run(name, monkeypatch, capfd):
    forks = _workers(monkeypatch, 3)
    split = selftest.run_suite(name)
    assert len(forks) == 2
    _workers(monkeypatch, 1)
    serial = selftest.run_suite(name)
    fields = ("name", "checks", "failures", "first_counterexample")
    assert [getattr(split, f) for f in fields] == [getattr(serial, f) for f in fields]
    assert capfd.readouterr() == ("", "")
    _assert_no_children()


def test_failures_on_two_workers_report_the_earlier_case(monkeypatch, capfd):
    # cases (1, 2, 3, 5) on two workers: a = 2 runs in the child, a = 3 here
    real = fibgen.classify_membership

    def fake(a, n):
        if (a, n) == (2, 6):
            return fibgen.MembershipResult("member", ())
        if (a, n) == (3, 10):
            return fibgen.MembershipResult("not_member", ())
        return real(a, n)

    forks = _workers(monkeypatch, 2)
    monkeypatch.setattr(selftest, "classify_membership", fake)
    result = selftest.run_suite("membership")
    assert len(forks) == 1
    a, n = 2, 6
    assert (result.checks, result.failures) == (400004, 2)
    assert result.first_counterexample == f"a={a}, n={n} spurious"
    assert capfd.readouterr() == ("", "")
    _assert_no_children()


def _raise_at(monkeypatch, messages):
    """classify_membership raises InvariantViolation(messages[a]) for a in messages."""
    real = fibgen.classify_membership

    def fake(a, n):
        if a in messages:
            raise InvariantViolation(messages[a])
        return real(a, n)

    monkeypatch.setattr(selftest, "classify_membership", fake)


@pytest.mark.parametrize(
    "raising, message",
    [({2: "in the child"}, "in the child"),
     ({2: "child, case 1", 3: "caller, case 2"}, "child, case 1"),
     ({3: "caller, case 2", 5: "child, case 3"}, "caller, case 2")],
    ids=["child", "child-first", "caller-first"],
)
def test_lowest_raising_case_propagates(raising, message, monkeypatch, capfd):
    forks = _workers(monkeypatch, 2)
    _raise_at(monkeypatch, raising)
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
