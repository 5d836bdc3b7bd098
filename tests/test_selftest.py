"""The selftest recorder: forced failures report the counterexample text.

Each suite records a failure as a format string and its arguments, built into
text only at the first failure. These tests break one library call, or the
sequence a suite reads, with monkeypatch and compare `first_counterexample`
with the f-string each suite used to build, written out here as the
reference.
"""

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
