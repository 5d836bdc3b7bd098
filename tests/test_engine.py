import itertools

import pytest

from fibk3 import engine
from fibk3.errors import FactorizationError
from fibk3.fibgen import gen_fib, is_perfect_square
from fibk3.salem import IntPolynomial, cyclotomic, epsilon_for_index, resultant


def reason(candidate, name):
    return next(r for r in candidate.reasons if r.name == name)


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


class TestTargetExponentScenario:
    def test_m15(self):
        rep = engine.target_exponent_scenario(15)
        assert rep.published_survivors == ((1, 100),)
        assert rep.closure_report.survivors == ((1, 20),)
        assert any("published-exclusion-k20" in f for f in rep.errata_flags)
        assert any("scenario-vs-closure" in f for f in rep.errata_flags)

    def test_m401(self):
        rep = engine.target_exponent_scenario(401)
        assert set(rep.published_survivors) <= {(5, 4), (1, 4), (1, 100)}
        assert rep.published_survivors == ((1, 100),)

    def test_m3(self):
        rep = engine.target_exponent_scenario(3)
        assert (1, 4) in rep.published_survivors

    def test_rejects_violated_preconditions(self):
        with pytest.raises(ValueError, match="does not divide f_100"):
            engine.target_exponent_scenario(7)
        with pytest.raises(ValueError, match="divides f_50"):
            engine.target_exponent_scenario(11)

    def test_skeleton_respects_order_constraint(self):
        rep = engine.target_exponent_scenario(15)
        for cand in rep.published_candidates:
            assert 100 % (cand.l * cand.k) == 0

    def test_survivors_subset_of_published_triple(self):
        for m in (3, 15, 41, 401, 570601):
            rep = engine.target_exponent_scenario(m)
            assert set(rep.published_survivors) <= {(5, 4), (1, 4), (1, 100)}


class TestReports:
    def test_disc_primes(self):
        assert engine.disc_prime_divisors(61, 1) == (5, 61)
        assert engine.disc_prime_divisors(15, 1) == (3, 5)
        assert engine.disc_prime_divisors(6, 2) == (2, 3)

    def test_factorization_failure_is_explicit(self):
        # product of two primes above the trial-division bound
        hard = 1_000_003 * 1_000_033
        with pytest.raises(FactorizationError):
            engine.disc_prime_divisors(hard, 1)

    def test_resultant_errata_matcher(self):
        flags = engine.errata_for_resultant(IntPolynomial([1, -322, 1]), cyclotomic(5))
        assert flags and "10551192961" in flags[0] and "10817040025" in flags[0]
        assert engine.errata_for_resultant(cyclotomic(5), IntPolynomial([1, -322, 1]))
        assert not engine.errata_for_resultant(IntPolynomial([1, -3, 1]), cyclotomic(5))
