import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibk3 import _primes, engine, fibgen, lattice, salem
from fibk3.errors import FactorizationError, InvariantViolation
from fibk3.fibgen import gen_fib, is_perfect_square, salem_trace_of_power
from fibk3.lattice import ab_power, disc_action, fibonacci_lattice
from fibk3.salem import (
    ENGINE_CYCLOTOMIC_INDICES,
    IntPolynomial,
    admissible_trace_root,
    cyclotomic,
    epsilon_for_index,
    resultant,
)


def reason(candidate, name):
    return next(r for r in candidate.reasons if r.name == name)


def factorize_calls(monkeypatch):
    """The argument of every factorize call made from here on, in order."""
    real, seen = _primes.factorize, []

    def counting(n):
        seen.append(n)
        return real(n)

    for module in (engine, fibgen, salem, _primes):
        monkeypatch.setattr(module, "factorize", counting)
    return seen


class TestDirectGenerator:
    def test_m3_symplectic(self):
        rep = engine.analyze(3, 1)
        assert rep.entry_point == 4
        assert rep.generator_criterion_applies
        assert (rep.generator.l, rep.generator.k) == (1, 4)
        assert rep.generator.epsilon_class == "symplectic"
        assert rep.generator.tau == 47
        assert rep.survivors == ((1, 4),)
        assert rep.resolution == "determined"
        detail = rep.survivor_details[0]
        assert (detail.l, detail.multiplicity, detail.salem.tau) == (1, 20, 47)

    def test_m13_anti_symplectic(self):
        rep = engine.analyze(13, 1)
        assert (rep.generator.l, rep.generator.k) == (2, 7)
        assert rep.generator.epsilon_class == "anti_symplectic"
        detail = rep.survivor_details[0]
        assert (detail.l, detail.multiplicity) == (2, 20)

    def test_m61_criterion_fails(self):
        rep = engine.analyze(61, 1)
        assert rep.entry_point == 15
        assert not rep.generator_criterion_applies
        assert rep.generator is None

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            engine.analyze(1, 1)

    def test_generator_is_the_first_candidate(self):
        # the theorem of the engine docstring
        for a in range(1, 13):
            for m in range(2, 700):
                rep = engine.analyze(m, a)
                e, first = rep.entry_point, rep.candidates[0]
                assert (first.l, first.k) == (1 if e % 2 == 0 else 2, e), (m, a)
                assert reason(first, "trace-root-admissible").passed, (m, a)
                if e % 5 != 0:
                    assert rep.candidates == (first,) and rep.generator == first, (m, a)

    def test_trace_roots_are_admissible_from_index_two(self):
        # the theorem's bounds: V_k >= 4 for k >= 2 except V_2 = 3 at a = 1,
        # and no V_k of odd k is an excluded anti-symplectic root
        for a in range(1, 201):
            before, v = 2, a  # V_0, V_1
            for k in range(2, 300):
                before, v = v, a * v + before
                assert v >= 4 or (a, k) == (1, 2), (a, k)
                if k % 2:
                    assert v not in salem._EXCLUDED_ANTI_ROOTS, (a, k)


class TestCandidateFiltering:
    def test_m61_survivor_set(self):
        rep = engine.analyze(61, 1)
        assert set(rep.survivors) == {(2, 15), (10, 3)}
        assert rep.resolution == "inconclusive"
        assert any("published-resultant-322-phi5" in f for f in rep.errata_flags)

    def test_m61_candidate_reasons(self):
        rep = engine.analyze(61, 1)
        by_pair = {(c.l, c.k): c for c in rep.candidates}
        anti = by_pair[(2, 15)]
        assert anti.tau == 1860498
        root_check = reason(anti, "trace-root-admissible")
        assert root_check.passed and root_check.witness == {"root": 1364}
        order10 = by_pair[(10, 3)]
        assert order10.tau == 18
        res_check = reason(order10, "resultant-divisibility")
        assert res_check.passed
        assert res_check.witness == {"resultant": 93025, "failing_prime": None}

    def test_m15_resultant_exclusion(self):
        rep = engine.analyze(15, 1)
        assert rep.entry_point == 20
        assert rep.survivors == ((1, 20),)
        by_pair = {(c.l, c.k): c for c in rep.candidates}
        excluded = by_pair[(5, 4)]
        assert excluded.verdict == "excluded"
        failing = [r for r in excluded.reasons if not r.passed]
        assert failing and failing[0].name == "resultant-divisibility"
        assert failing[0].witness["failing_prime"] == 3
        assert any("published-generator-m15" in f for f in rep.errata_flags)

    def test_m_is_factorized_once(self, monkeypatch):
        # the entry point and the discriminant primes share one factorization
        seen = factorize_calls(monkeypatch)
        rep = engine.analyze(61, 1)
        assert seen.count(61) == 1
        assert (rep.entry_point, rep.discriminant_primes) == (15, (5, 61))

    def test_survivors_factorize_nothing(self, monkeypatch):
        # a survivor's multiplicity is read from salem's index table; only m,
        # the entry point's bound for it and a^2 + 4 are factorized
        engine.analyze(101, 1)
        seen = factorize_calls(monkeypatch)
        rep = engine.analyze(101, 1)
        assert seen == [101, 100, 5]
        assert [d.multiplicity for d in rep.survivor_details] == [20, 5, 1]

    def test_every_exclusion_has_a_failing_reason(self):
        # every witness field is re-derived from tau and the report
        for a, m in itertools.product(range(1, 4), range(2, 40)):
            rep = engine.analyze(m, a)
            assert rep.discriminant_primes == engine.disc_prime_divisors(m, a)
            for cand in rep.candidates:
                if cand.verdict == "excluded":
                    assert any(not r.passed for r in cand.reasons)
                else:
                    assert all(r.passed for r in cand.reasons)
                eps = epsilon_for_index(cand.l)
                for r in cand.reasons:
                    w = r.witness
                    if r.name == "resultant-divisibility":
                        value = resultant(IntPolynomial([1, -cand.tau, 1]), cyclotomic(cand.l))
                        first = next((p for p in rep.discriminant_primes if value % p), None)
                        assert w == {"resultant": value, "failing_prime": first}
                    elif r.name == "cyclotomic-trace-squares":
                        assert w["root"] == is_perfect_square(cand.tau + 2 * eps)
                        assert w["root5"] == is_perfect_square(5 * (cand.tau - 2 * eps))
                    else:
                        assert r.name == "trace-root-admissible" and set(w) == {"root"}
                    if w.get("root") is not None:
                        assert w["root"] ** 2 == cand.tau + 2 * eps
                    want = w["failing_prime"] is None if "resultant" in w else None not in w.values()
                    assert r.passed == want

    def test_survivor_salem_data_attached(self):
        rep = engine.analyze(61, 1)
        taus = {d.salem.tau for d in rep.survivor_details}
        assert taus == {18, 1860498}

    def test_trace_squares_is_the_gross_mcmullen_condition(self):
        # F = (x^2 - tau*x + 1) * Phi_l^(20/phi(l)) must have |F(1)|, |F(-1)|
        # and -F(1)*F(-1) all squares (Gross-McMullen, J. Algebra 2002)
        def square(n):
            return n >= 0 and math.isqrt(n) ** 2 == n

        def at(p, x):
            # p(x) for x = +-1, from the (alternating) coefficient sum
            return sum(c * x**i for i, c in enumerate(p.coeffs))

        seen = 0
        for a in (1, 2, 3, 4, 11, 29):
            for m in range(2, 800):
                for cand in engine.analyze(m, a).candidates:
                    if cand.l < 5:
                        continue
                    quad, phi = IntPolynomial([1, -cand.tau, 1]), cyclotomic(cand.l)
                    power = 20 // phi.degree
                    at_one = at(quad, 1) * at(phi, 1) ** power
                    at_minus_one = at(quad, -1) * at(phi, -1) ** power
                    condition = (
                        square(abs(at_one))
                        and square(abs(at_minus_one))
                        and square(-at_one * at_minus_one)
                    )
                    check = reason(cand, "cyclotomic-trace-squares")
                    assert check.passed == condition, (m, a, cand.l)
                    seen += 1
        assert seen == 1730

    def test_trace_squares_depends_on_a_alone(self):
        # 5*(a^2 + 4) = s^2 forces s = 5t and a^2 - 5t^2 = -4, so a is an
        # odd-index Lucas number
        lucas = {1, 4, 11, 29, 76, 199, 521, 1364, 3571, 9349, 24476, 64079}
        squares = {a for a in range(1, 10**5) if math.isqrt(5 * a * a + 20) ** 2 == 5 * a * a + 20}
        assert squares == lucas
        for a in range(1, 30):
            for l in (5, 10, 25, 50):
                for k in range(2 if epsilon_for_index(l) == 1 else 1, 20, 2):
                    cand = engine._build_candidate(a, l, k, ())
                    assert reason(cand, "cyclotomic-trace-squares").passed == (a in lucas)


class TestClosedForms:
    """The verdict path's closed forms against the definitions they replace."""

    def test_ladder_roots_are_the_square_roots(self):
        with_root5 = 0
        for a in range(1, 13):  # a = 1, 4 and 11 make 5*(a^2 + 4) a square
            for l in ENGINE_CYCLOTOMIC_INDICES:
                eps = epsilon_for_index(l)
                for k in range(1 if eps == -1 else 2, 40, 2):  # eps = (-1)^k
                    c = engine._build_candidate(a, l, k, ())
                    tau = salem_trace_of_power(a, k)
                    assert c.tau == tau
                    w = c.reasons[0].witness
                    if l in (1, 2):
                        assert w == {"root": admissible_trace_root(tau, eps)}
                        continue
                    assert w["root"] == is_perfect_square(tau + 2 * eps)
                    assert w["root5"] == is_perfect_square(5 * (tau - 2 * eps))
                    with_root5 += w["root5"] is not None
        assert with_root5 > 0

    def test_resultant_matches_generic(self):
        for a in range(1, 8):
            for k in range(1, 40):
                tau = salem_trace_of_power(a, k)
                for l in (5, 10, 25, 50):
                    generic = resultant(IntPolynomial([1, -tau, 1]), cyclotomic(l))
                    assert engine._trace_resultant(tau, l) == generic, (a, k, l)
        for tau in range(3, 400):
            for l in (1, 2):
                generic = resultant(IntPolynomial([1, -tau, 1]), cyclotomic(l))
                assert engine._trace_resultant(tau, l) == generic, (tau, l)

    def test_erratum_one_line(self):
        # Psi_5(322) = 322^2 + 322 - 1 = 104005
        assert engine._trace_resultant(322, 5) == 104005**2

    def test_corrupted_psi_table_raises(self, monkeypatch):
        monkeypatch.setitem(salem._INDEX, 10, (-1, 5, (-1, 1, 2)))
        with pytest.raises(InvariantViolation, match="Phi_10"):
            engine._trace_resultant(18, 10)
        with pytest.raises(InvariantViolation):
            engine.analyze(61, 1)

    def test_corrupted_ladder_raises(self, monkeypatch):
        ladder = engine._fib_pair

        def off_by_one(a, n):
            ak, ak1 = ladder(a, n)
            return ak, ak1 + 1

        monkeypatch.setattr(engine, "_fib_pair", off_by_one)
        with pytest.raises(InvariantViolation, match="V_4 squared"):
            engine.analyze(3, 1)

    def test_corrupted_ladder_leaves_the_memo_clean(self, monkeypatch):
        # the corruption lives in the caller's copy, never in fibgen's memo
        ladder = engine._fib_pair
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_fib_pair", lambda a, n: (ladder(a, n)[0], ladder(a, n)[1] + 1))
            with pytest.raises(InvariantViolation, match="V_4 squared"):
                engine.analyze(3, 1)
        assert fibgen._fib_pair(1, 4) == (3, 5)
        assert engine.analyze(3, 1).survivors == ((1, 4),)


class TestBigTraces:
    def test_trace_past_the_digit_limit(self):
        # tau has about 41,800 digits: analyze formats no integer, so it
        # returns under the interpreter's default int->str limit
        rep = engine.analyze(100003, 1)
        assert rep.survivors == ((1, 100004),)
        root = reason(rep.generator, "trace-root-admissible").witness["root"]
        assert root == gen_fib(1, 100003) + gen_fib(1, 100005)


class TestRealization:
    def test_examples(self):
        assert engine.verify_realization(3, 1, 4) == engine.RealizationResult(True, 1)
        assert engine.verify_realization(15, 1, 20) == engine.RealizationResult(True, 1)
        assert engine.verify_realization(3, 1, 5) == engine.RealizationResult(False, None)

    @staticmethod
    def reference(m, a, n):
        """The lattice-object form verify_realization had before it ran the
        integer kernel directly."""
        eps = 1 if n % 2 == 0 else -1
        holds = disc_action(ab_power(a, n), fibonacci_lattice(m, a), eps).holds
        return engine.RealizationResult(holds, eps if holds else None)

    def test_pinned_to_lattice_objects(self):
        for a in range(1, 5):
            for m in range(2, 41):
                for n in range(1, 61):
                    assert engine.verify_realization(m, a, n) == self.reference(m, a, n)

    @given(st.integers(2, 10**6), st.integers(1, 30), st.integers(1, 3000))
    def test_pinned_to_lattice_objects_random(self, m, a, n):
        assert engine.verify_realization(m, a, n) == self.reference(m, a, n)

    @staticmethod
    def memo_bound_n(a):
        """The largest n with (2n - 1) * a.bit_length() <= _MEMO_BITS."""
        n = (fibgen._MEMO_BITS // a.bit_length() + 1) // 2
        assert (2 * n - 1) * a.bit_length() <= fibgen._MEMO_BITS < (2 * n + 1) * a.bit_length()
        return n

    def test_pinned_across_the_memo_bound(self):
        realized = set()
        for a in (1, 2, 3, 2**64 + 1):
            top = self.memo_bound_n(a)
            for n in range(top - 2, top + 3):
                for m in (2, 3, 10**6 + 3, 2**61 - 1):
                    got = engine.verify_realization(m, a, n)
                    assert got == self.reference(m, a, n), (m, a, n)
                    realized.add(got.realized)
        assert realized == {True, False}

    def test_pinned_past_the_memo_bound(self):
        """Far past the memo bound the ladder's entries run to thousands of
        bits, and verify_realization reduces them mod |det Q| = m^2*(a^2 + 4)
        before the integrality test; the lattice objects test the full
        entries. A reduction by a proper divisor of |det Q|, such as m,
        changes the answer here."""
        realized = {True: 0, False: 0}
        for a, first in ((1, 3000), (3, 3000), (2**64 + 1, 90)):
            for n in range(first, first + 13):
                assert (2 * n - 1) * a.bit_length() > fibgen._MEMO_BITS
                for m in (2, 3, 15, 10**6 + 3):
                    got = engine.verify_realization(m, a, n)
                    assert got == self.reference(m, a, n), (m, a, n)
                    realized[got.realized] += 1
        assert realized == {True: 34, False: 122}

    @pytest.mark.parametrize("a", [1, 2**64 + 1])
    @pytest.mark.parametrize("beyond", [False, True], ids=["memoized", "beyond-bound"])
    def test_guard_fires_on_a_corrupted_ladder(self, monkeypatch, a, beyond):
        n = self.memo_bound_n(a) + beyond
        ladder = engine._fib_pair

        def off_by_one(a, k):
            odd, even = ladder(a, k)
            return odd + 1, even

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_fib_pair", off_by_one)
            # the ladder is fibk3's own value: a failed guard is an internal
            # fault, never a refusal of the caller's input
            with pytest.raises(InvariantViolation) as info:
                engine.verify_realization(3, a, n)
            assert str(info.value) == "g is not an isometry of the given lattice"
        assert engine.verify_realization(3, a, n) == self.reference(3, a, n)

    def test_det_decides_the_guard_on_q0(self):
        """g = [[p, q], [q, a*q + p]] has g^T * Q0 * g = det(g) * Q0 for
        Q0 = [[2, a], [a, -2]], so the isometry guard on Q0 is det(g) == 1,
        the check verify_realization runs on (A*B)^n."""
        rng = random.Random(23)
        draw = rng.randint
        cases = [(draw(1, 50), draw(-99, 99), draw(-99, 99)) for _ in range(2000)]
        # (A*B)^n for odd k = 2n - 1, and its ladder pair off by one
        for a in (1, 2, 3, 2**64 + 1):
            for k in range(1, 40, 2):
                odd, even = fibgen._fib_pair(a, k)
                cases += [(a, odd + dp, even + dq) for dp in (-1, 0, 1) for dq in (-1, 0, 1)]
        isometries = 0
        for a, p, q in cases:
            s = a * q + p
            det = p * s - q * q
            g, q0 = ((p, q), (q, s)), ((2, a), (a, -2))
            product = lattice._mat_mul(lattice._mat_mul(g, q0), g)  # g^T = g
            assert product == ((2 * det, a * det), (a * det, -2 * det)), (a, p, q)
            assert lattice._isometry_guard(p, q, q, s, 2, a, -2) == (det == 1), (a, p, q)
            isometries += det == 1
        assert 80 <= isometries < len(cases)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1, 1, 4), "realization requires m >= 2"),
            ((-3, 1, 4), "realization requires m >= 2"),
            ((3, 1, 0), "n must be >= 1"),
            ((3, 1, -4), "n must be >= 1"),
            ((3, 0, 4), "sequence parameter a must be an integer >= 1, got 0"),
            ((3, -2, 4), "sequence parameter a must be an integer >= 1, got -2"),
            ((3.0, 1, 4), "m must be an integer"),
            ((5.5, 1, 4), "m must be an integer"),
            ((5, 1, 2.0), "n must be an integer"),
            ((5, 1.5, 2), "sequence parameter a must be an integer >= 1, got 1.5"),
        ],
    )
    def test_errors(self, args, message):
        with pytest.raises(ValueError) as info:
            engine.verify_realization(*args)
        assert str(info.value) == message


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "fn, args, name",
        [
            (engine.analyze, (7.5, 1), "m"),
            (engine.analyze, (10.0, 1), "m"),
            (engine.disc_prime_divisors, (10.0, 1), "m"),
            (engine.disc_prime_divisors, (7.5, 1), "m"),
            (engine.target_exponent_scenario, (15.0,), "m"),
            (engine.target_exponent_scenario, (15, 100.0), "n_target"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_non_integers_refused(self, fn, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            fn(*args)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (engine.analyze, (5, "x")),
            (engine.analyze, (5, None)),
            (engine.analyze, (5, 0.5)),
            (engine.verify_realization, (5, "x", 3)),
            (engine.verify_realization, (5, None, 3)),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_non_integer_a_is_typed_before_compared(self, fn, args):
        # a non-integer a fails the integer rule instead of `a < 1`'s TypeError
        with pytest.raises(ValueError, match="^sequence parameter a must be an integer >= 1, got "):
            fn(*args)

    def test_index_types_accepted(self):
        class Ten:
            def __index__(self):
                return 10

        assert engine.analyze(Ten(), 1) == engine.analyze(10, 1)
        assert engine.analyze(Ten(), 1).discriminant_primes == (2, 5)
        assert engine.verify_realization(Ten(), 1, Ten()) == engine.verify_realization(10, 1, 10)


class Two:
    def __index__(self):
        return 2


class TestSequenceParameterRule:
    """Every entry point takes a by fibgen._check_a: operator.index, no bool,
    then a >= 1, with one message."""

    ENTRY_POINTS = [
        (fibgen.gen_fib, lambda a: (a, 5)),
        (fibgen.classify_membership, lambda a: (a, 5)),
        (fibgen.divides_in_sequence, lambda a: (a, 2, 4)),
        (fibgen.entry_point, lambda a: (a, 7)),
        (lattice.fibonacci_lattice, lambda a: (3, a)),
        (lattice.generator_a, lambda a: (a,)),
        (lattice.generator_b, lambda a: (a,)),
        (lattice.ab_power, lambda a: (a, 3)),
        (lattice.ab_power, lambda a: (a, -3)),
        (lattice.evaluate_word, lambda a: (1, "AB", a)),
        (engine.analyze, lambda a: (5, a)),
        (engine.verify_realization, lambda a: (5, a, 3)),
        (engine.disc_prime_divisors, lambda a: (10, a)),
    ]

    @pytest.mark.parametrize("fn, args", ENTRY_POINTS, ids=lambda v: getattr(v, "__name__", None))
    @pytest.mark.parametrize("bad", [True, False, 0, -1, 1.0, "2", None])
    def test_refused_with_one_message(self, fn, args, bad):
        message = f"sequence parameter a must be an integer >= 1, got {bad!r}"
        with pytest.raises(ValueError) as info:
            fn(*args(bad))
        assert str(info.value) == message

    @pytest.mark.parametrize("fn, args", ENTRY_POINTS, ids=lambda v: getattr(v, "__name__", None))
    def test_index_types_accepted(self, fn, args):
        assert fn(*args(Two())) == fn(*args(2))


class TestTargetExponentScenario:
    def test_m15(self):
        rep = engine.target_exponent_scenario(15)
        assert rep.published_style_survivors == ((1, 100),)
        assert rep.closure_rule.survivors == ((1, 20),)
        assert any("published-exclusion-k20" in f for f in rep.errata_flags)
        assert any("scenario-vs-closure" in f for f in rep.errata_flags)

    def test_m401(self):
        rep = engine.target_exponent_scenario(401)
        assert set(rep.published_style_survivors) <= {(5, 4), (1, 4), (1, 100)}
        assert rep.published_style_survivors == ((1, 100),)

    def test_m3(self):
        rep = engine.target_exponent_scenario(3)
        assert (1, 4) in rep.published_style_survivors

    def test_m_is_factorized_once(self, monkeypatch):
        # the scenario reads the discriminant primes from its closure report
        seen = factorize_calls(monkeypatch)
        rep = engine.target_exponent_scenario(15)
        assert seen.count(15) == 1
        assert rep.closure_rule.discriminant_primes == (3, 5)

    def test_rejects_violated_preconditions(self):
        with pytest.raises(ValueError, match="does not divide f_100"):
            engine.target_exponent_scenario(7)
        with pytest.raises(ValueError, match="divides f_50"):
            engine.target_exponent_scenario(11)
        with pytest.raises(ValueError, match="^the published scenario is specific to target"):
            engine.target_exponent_scenario(15, 50)
        with pytest.raises(ValueError, match="^scenario requires m >= 2$"):
            engine.target_exponent_scenario(1)

    def test_skeleton_respects_order_constraint(self):
        rep = engine.target_exponent_scenario(15)
        for cand in rep.published_style_candidates:
            assert 100 % (cand.l * cand.k) == 0

    # the 26 m < 5000 with m | f_100 and m not dividing f_50
    HYPOTHESIS_MODULI = [
        m for m in range(2, 5000) if gen_fib(1, 100) % m == 0 and gen_fib(1, 50) % m != 0
    ]

    def test_hypothesis_moduli(self):
        assert len(self.HYPOTHESIS_MODULI) == 26
        assert self.HYPOTHESIS_MODULI[:3] == [3, 15, 33] and self.HYPOTHESIS_MODULI[-1] == 4983

    @pytest.mark.parametrize("m", HYPOTHESIS_MODULI)
    def test_reasons_are_structured_witnesses(self, m):
        rep = engine.target_exponent_scenario(m)
        primes = engine.disc_prime_divisors(m, 1)
        for c in rep.published_style_candidates:
            for r in c.reasons:
                assert type(r) is engine.FilterCheck
                assert all(type(v) is int or v is None for v in r.witness.values()), r
            names = [r.name for r in c.reasons]
            if "divisibility" in names:
                check = reason(c, "divisibility")
                residue = gen_fib(1, c.required_index) % m
                assert check.witness == {"required_index": c.required_index, "residue": residue}
                assert check.passed == (residue == 0)
                # resultant-divisibility runs exactly when m | f_r
                assert ("resultant-divisibility" in names) == check.passed
            if "resultant-divisibility" in names:
                check = reason(c, "resultant-divisibility")
                value = salem._trace_resultant(salem_trace_of_power(1, c.k), c.l)
                failing = next((p for p in primes if value % p != 0), None)
                assert check.witness == {"resultant": value, "failing_prime": failing}
                assert check.passed == (failing is None)
            assert (c.verdict == "excluded") == any(not r.passed for r in c.reasons)
            assert c.survives == all(r.passed for r in c.reasons)

    @pytest.mark.parametrize("m", [15, 401])
    def test_excluding_checks(self, m):
        rep = engine.target_exponent_scenario(m)
        by_pair = {(c.l, c.k): c for c in rep.published_style_candidates}
        assert by_pair[(1, 5)].reasons == (
            engine.FilterCheck("parity", False, {"k": 5, "epsilon": 1}),
        )
        assert by_pair[(2, 2)].reasons == (
            engine.FilterCheck("parity", False, {"k": 2, "epsilon": -1}),
        )
        assert by_pair[(10, 1)].reasons == (
            engine.FilterCheck("forces-f50", False, {"required_index": 5}),
        )
        for (l, k), label in engine._LITERAL_EXCLUSIONS.items():
            assert by_pair[(l, k)].reasons == (
                engine.FilterCheck(label, False, {"required_index": engine._required_index(l, k)}),
            )

    def test_survivors_subset_of_published_triple(self):
        for m in (3, 15, 41, 401, 570601):
            rep = engine.target_exponent_scenario(m)
            assert set(rep.published_style_survivors) <= {(5, 4), (1, 4), (1, 100)}


class TestReports:
    def test_disc_primes(self):
        assert engine.disc_prime_divisors(61, 1) == (5, 61)
        assert engine.disc_prime_divisors(15, 1) == (3, 5)
        assert engine.disc_prime_divisors(6, 2) == (2, 3)

    @pytest.mark.parametrize("m", [0, -10])
    def test_disc_primes_refuses_m_below_one(self, m):
        # fibonacci_lattice's rule for the same lattice
        for fn in (engine.disc_prime_divisors, lattice.fibonacci_lattice):
            with pytest.raises(ValueError, match="^m must be >= 1$"):
                fn(m, 1)

    @pytest.mark.parametrize("a", [0, True, -3])
    def test_disc_primes_check_a_before_factorizing_m(self, a):
        # m is past factorize's trial bound; the a rule refuses first, with
        # a plain ValueError, not its FactorizationError subclass
        with pytest.raises(ValueError) as refused:
            engine.disc_prime_divisors(1_000_003 * 1_000_033, a)
        assert type(refused.value) is ValueError
        assert str(refused.value) == f"sequence parameter a must be an integer >= 1, got {a!r}"

    def test_factorization_failure_is_explicit(self):
        # product of two primes above the trial-division bound
        hard = 1_000_003 * 1_000_033
        with pytest.raises(FactorizationError):
            engine.disc_prime_divisors(hard, 1)

    def test_strong_pseudoprime_to_bases_2_to_37_is_refused(self):
        # psi_12 of OEIS A014233 passes Miller-Rabin for every prime base up
        # to 37 and is below the deterministic limit psi_13, so base 41 decides
        psi_12 = 399_165_290_221 * 798_330_580_441
        assert not _primes.is_probable_prime(psi_12)
        for fn in (_primes.factorize, salem.euler_phi):
            with pytest.raises(FactorizationError):
                fn(psi_12)
        with pytest.raises(FactorizationError):
            engine.disc_prime_divisors(psi_12, 1)

    def test_square_of_a_prime_beyond_trial_division(self):
        assert _primes.factorize((10**6 + 3) ** 2) == {1_000_003: 2}

    def test_cofactor_beyond_the_deterministic_limit_is_refused(self):
        # 2^89 - 1 is prime, but above psi_13 the fixed bases prove nothing
        with pytest.raises(FactorizationError, match="deterministic primality range"):
            _primes.factorize(2**89 - 1)

    def test_cofactor_past_the_digit_limit_is_refused_by_bit_length(self, monkeypatch):
        # 2^20000 + 1 has 6,021 digits and no prime factor below 10; the
        # message gives bit lengths, so it is built without the int->str
        # digit limit and the refusal stays a FactorizationError
        monkeypatch.setattr(_primes, "TRIAL_BOUND", 10)
        with pytest.raises(FactorizationError) as refused:
            _primes.factorize(2**20000 + 1)
        assert str(refused.value) == (
            "a cofactor of 20001 bits exceeds the deterministic primality range (82 bits)"
        )

    def test_resultant_errata_matcher(self):
        def flags(p, q):
            return engine.resultant_report(p, q).errata_flags

        found = flags(IntPolynomial([1, -322, 1]), cyclotomic(5))
        assert found and "10551192961" in found[0] and "10817040025" in found[0]
        assert flags(cyclotomic(5), IntPolynomial([1, -322, 1]))
        assert not flags(IntPolynomial([1, -3, 1]), cyclotomic(5))
