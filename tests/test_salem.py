import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibk3 import salem
from fibk3.errors import InvariantViolation
from fibk3.fibgen import gen_fib, salem_trace_of_power
from fibk3.salem import (
    IntPolynomial,
    SalemQuadratic,
    admissible_trace_root,
    char_poly_multiplicity,
    closed_form_resultant,
    cyclotomic,
    cyclotomic_trace_filter,
    epsilon_for_index,
    euler_phi,
    is_palindromic,
    pell_solutions,
    resultant,
    salem_data,
)
from fibk3.salem import _pseudo_rem, _resultant_subresultant, _resultant_sylvester

coeff = st.integers(-50, 50)

# (l, p) up to 30030: every squarefree composite of the primes up to 13 and
# 29999 = 131*229, with p None; every power p^k of the primes listed, among
# them 173^2 and the largest prime below 30030
LARGE_INDICES = (
    [
        (math.prod(c), None)
        for r in range(2, 7)
        for c in itertools.combinations((2, 3, 5, 7, 11, 13), r)
    ]
    + [(29999, None)]
    + [
        (p**k, p)
        for p in (2, 3, 5, 7, 11, 13, 17, 173, 30029)
        for k in range(1, 15)
        if p**k <= 30030
    ]
)


def poly(draw_coeffs, lead):
    return IntPolynomial(draw_coeffs + [lead])


nonzero = st.integers(-50, 50).filter(lambda c: c != 0)
polys = st.builds(poly, st.lists(coeff, min_size=1, max_size=8), nonzero)
monic = st.builds(lambda cs: IntPolynomial(cs + [1]), st.lists(st.integers(-10, 10), min_size=1, max_size=4))


class TestIntPolynomial:
    def test_strips_trailing_zeros(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([0, 0]).is_zero

    def test_degree_and_lead(self):
        p = IntPolynomial([1, -3, 1])
        assert p.degree == 2
        assert p.leading_coefficient == 1

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntPolynomial([1.5])

    def test_assignment_and_deletion_raise(self):
        p = IntPolynomial([1, -3, 1])
        with pytest.raises(AttributeError):
            p.coeffs = (1,)
        with pytest.raises(AttributeError):
            del p.coeffs
        assert p.coeffs == (1, -3, 1) and p.degree == 2

    @given(monic, monic, st.lists(st.integers(-10, 10), max_size=4))
    def test_division_round_trip(self, p, q, r):
        # p*q + r with deg r < deg q leaves the remainder r modulo a monic q
        r = r[: q.degree]
        dividend = list((p * q).coeffs)
        for i, c in enumerate(r):
            dividend[i] += c
        assert _pseudo_rem(dividend, list(q.coeffs)) == list(IntPolynomial(r).coeffs)

    def test_zero_polynomial(self):
        zero, p = IntPolynomial([]), IntPolynomial([1, -3, 1])
        with pytest.raises(ValueError, match="^zero polynomial has no leading coefficient$"):
            zero.leading_coefficient
        assert (p * zero).is_zero and (zero * p).is_zero


class TestCyclotomic:
    def test_first(self):
        assert cyclotomic(1).coeffs == (-1, 1)

    def test_fifth(self):
        assert cyclotomic(5).coeffs == (1, 1, 1, 1, 1)

    def test_fiftieth(self):
        expected = [0] * 21
        for i, c in zip(range(0, 21, 5), (1, -1, 1, -1, 1)):
            expected[i] = c
        assert cyclotomic(50).coeffs == tuple(expected)

    @pytest.mark.parametrize("l", list(range(1, 51)))
    def test_divides_x_l_minus_one(self, l):
        assert _pseudo_rem([-1] + [0] * (l - 1) + [1], list(cyclotomic(l).coeffs)) == []
        assert cyclotomic(l).degree == euler_phi(l)

    def test_product_over_divisors(self):
        for l in range(1, 301):
            product = IntPolynomial([1])
            for d in range(1, l + 1):
                if l % d == 0:
                    product = product * cyclotomic(d)
            assert product.coeffs == IntPolynomial([-1] + [0] * (l - 1) + [1]).coeffs, l

    @pytest.mark.parametrize("l, p", LARGE_INDICES)
    def test_degree_palindrome_and_value_at_one(self, l, p):
        # Phi_l(1) is p for l = p^k and 1 for every other l > 1
        phi = cyclotomic(l)
        assert phi.degree == euler_phi(l)
        assert is_palindromic(phi)
        assert sum(phi.coeffs) == (p or 1)

    # 2 does not divide 15, so x^7 - 1 does not divide x^15 - 1; without 5,
    # (x^15 - 1)/(x^5 - 1) has degree 10 against the factorization's phi of 2
    @pytest.mark.parametrize(
        "factors, message",
        [({2: 1}, "inexact cyclotomic division at l=15, d=7"), ({3: 1}, "degree mismatch")],
        ids=["non-divisor", "dropped-prime"],
    )
    def test_corrupted_factorize_raises(self, monkeypatch, factors, message):
        # the cache is cleared on both sides, so that a wrong Phi_15 left by
        # a broken check cannot leak into later tests
        salem._cyclotomic.cache_clear()
        monkeypatch.setattr(salem, "factorize", lambda n: factors)
        try:
            with pytest.raises(InvariantViolation, match=message):
                cyclotomic(15)
        finally:
            salem._cyclotomic.cache_clear()

    def test_cache_info_counts_a_repeat(self):
        # perfbench's traced pass reads cyclotomic.cache_info for its hit ratio
        cyclotomic(77)
        before = cyclotomic.cache_info()
        cyclotomic(77)
        assert cyclotomic.cache_info().hits == before.hits + 1

    def test_cache_holds_small_indices_only(self):
        # Phi_30030 (degree 5760) is built on each request, not cached
        cyclotomic(5)
        before = cyclotomic.cache_info()
        assert cyclotomic(30030) == cyclotomic(30030)
        after = cyclotomic.cache_info()
        assert (after.currsize, after.hits, after.misses) == (
            before.currsize, before.hits, before.misses
        )
        assert after.maxsize == 128
        cyclotomic(5)
        assert cyclotomic.cache_info().hits == after.hits + 1

    def test_first_coefficient_outside_unit_range(self):
        # index 105 is the smallest with a coefficient of magnitude 2
        assert min(cyclotomic(105).coeffs) == -2
        for l in range(1, 105):
            assert set(cyclotomic(l).coeffs) <= {-1, 0, 1}

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            cyclotomic(0)
        with pytest.raises(ValueError, match="^euler_phi requires n >= 1$"):
            euler_phi(0)


class TestResultant:
    def test_linear_pair(self):
        assert resultant(IntPolynomial([-1, 1]), IntPolynomial([1, 1])) == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            resultant(IntPolynomial([]), IntPolynomial([1, 1]))

    def test_constant_cases(self):
        assert resultant(IntPolynomial([3]), IntPolynomial([1, 1, 1])) == 9
        assert resultant(IntPolynomial([1, 1, 1]), IntPolynomial([3])) == 9

    def test_common_root_gives_zero(self):
        p = IntPolynomial([-1, 1]) * IntPolynomial([2, 1])
        q = IntPolynomial([-1, 1]) * IntPolynomial([5, 1])
        assert resultant(p, q) == 0

    @settings(max_examples=200)
    @given(polys, polys)
    def test_methods_agree(self, p, q):
        assert _resultant_sylvester(p, q) == _resultant_subresultant(p, q)

    @settings(max_examples=100)
    @given(monic, monic, monic)
    def test_multiplicative_in_second_argument(self, p, q1, q2):
        assert resultant(p, q1 * q2) == resultant(p, q1) * resultant(p, q2)

    @settings(max_examples=100)
    @given(monic, monic)
    def test_swap_symmetry_up_to_sign(self, p, q):
        sign = -1 if (p.degree % 2 == 1 and q.degree % 2 == 1) else 1
        assert resultant(p, q) == sign * resultant(q, p)


# (p, q, res(p, q)) in ascending coefficients: content > 1 and non-monic
# leads, a shared factor, degree gaps, degree 0/1 operands and both orders
# of an odd-by-odd pair; tests/test_sympy_oracle.py checks them against sympy
PINNED_RESULTANTS = [
    ([2, 4, 0, 6], [3, -3, 9], 3888),
    ([-3, -1, 2], [5, 5, 1, 1], 0),
    ([2, 0, 0, 0, 0, 0, 1], [0, 1, 3], 2918),
    ([1, 0, 0, 0, 0, 0, 0, 1], [-2, 0, 0, 0, 0, 1], -129),
    ([10, 0, 0, -15, 0, 0, 5], [6, 0, 0, 4, 0, 2], 9450000000),
    ([4], [-2, 0, 0, 1], 64),
    ([3, -6], [4, 10], -54),
    ([-3, 2], [1, 0, 1], 13),
    ([2, 0, 0, 1], [-5, 1], -127),
    ([-5, 1], [2, 0, 0, 1], 127),
]


def draw_poly(rng, degree, span=20, sparsity=0.0, min_lead=1):
    """Random degree-exact polynomial: |lead| >= min_lead, and each lower
    coefficient zeroed with probability sparsity."""
    lead = rng.choice([c for c in range(-span, span + 1) if abs(c) >= min_lead])
    body = [0 if rng.random() < sparsity else rng.randint(-span, span) for _ in range(degree)]
    return IntPolynomial(body + [lead])


class TestSubresultantOnLists:
    """The coefficient-list subresultant PRS against Sylvester elimination."""

    @staticmethod
    def agree(p, q):
        value = _resultant_sylvester(p, q)
        assert _resultant_subresultant(p, q) == value, (p, q)
        return value

    @pytest.mark.parametrize("pc, qc, value", PINNED_RESULTANTS)
    def test_pinned(self, pc, qc, value):
        assert self.agree(IntPolynomial(pc), IntPolynomial(qc)) == value

    def test_non_monic_with_content(self):
        rng = random.Random(1201)
        nonzero = 0
        for _ in range(300):
            c, d = rng.randint(2, 9), rng.randint(1, 9)
            p = draw_poly(rng, rng.randint(1, 7), min_lead=2) * IntPolynomial([c])
            q = draw_poly(rng, rng.randint(1, 7), min_lead=2) * IntPolynomial([d])
            nonzero += self.agree(p, q) != 0
        assert nonzero > 250

    def test_shared_factor_gives_zero(self):
        rng = random.Random(1202)
        for _ in range(200):
            f = draw_poly(rng, rng.randint(1, 3), span=5)
            p = f * draw_poly(rng, rng.randint(0, 4), span=9)
            q = f * draw_poly(rng, rng.randint(0, 4), span=9)
            assert self.agree(p, q) == 0
            assert self.agree(q, p) == 0

    def test_degree_gaps(self, monkeypatch):
        # sparse operands make remainder sequences skip degrees; the spy
        # records delta = deg a - deg b at every pseudo-division after the
        # first, where a gap makes the sequence abnormal
        deltas = []
        pseudo_rem = salem._pseudo_rem

        def spy(r, q):
            deltas[-1].append(len(r) - len(q))
            return pseudo_rem(r, q)

        monkeypatch.setattr(salem, "_pseudo_rem", spy)
        rng = random.Random(1203)
        for _ in range(300):
            deltas.append([])
            p = draw_poly(rng, rng.randint(2, 9), span=6, sparsity=0.7)
            q = draw_poly(rng, rng.randint(1, 9), span=6, sparsity=0.7)
            self.agree(p, q)
        assert sum(d >= 2 for steps in deltas for d in steps[1:]) > 50

    def test_low_degrees_and_swapped_sign(self):
        rng = random.Random(1204)
        for _ in range(300):
            p = draw_poly(rng, rng.randint(0, 1), min_lead=1)
            q = draw_poly(rng, rng.randint(0, 6), min_lead=1)
            sign = -1 if p.degree % 2 == 1 and q.degree % 2 == 1 else 1
            assert self.agree(q, p) == sign * self.agree(p, q), (p, q)
        for dp, dq in ((1, 3), (3, 5), (5, 1), (3, 3)):
            p, q = draw_poly(rng, dp), draw_poly(rng, dq)
            assert self.agree(p, q) == -self.agree(q, p), (p, q)

    def test_inexact_division_raises(self, monkeypatch):
        # a corrupted remainder is no multiple of the next subresultant
        # divisor, lc(q) * 3^2 = 27 here
        pseudo_rem = salem._pseudo_rem
        monkeypatch.setattr(salem, "_pseudo_rem", lambda r, q: [c + 1 for c in pseudo_rem(r, q)])
        with pytest.raises(InvariantViolation, match="^inexact scalar division"):
            _resultant_subresultant(IntPolynomial([1, 2, 3, 4, 5, 1]), IntPolynomial([7, 0, 2, 3]))


def fraction_determinant(matrix):
    """Gaussian elimination over the rationals, the reference for Bareiss."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n, det = len(rows), Fraction(1)
    for k in range(n):
        i = next((i for i in range(k, n) if rows[i][k]), None)
        if i is None:
            return 0
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            det = -det
        det *= rows[k][k]
        for row in rows[k + 1:]:
            ratio = row[k] / rows[k][k]
            for j in range(k, n):
                row[j] -= ratio * rows[k][j]
    assert det.denominator == 1
    return det.numerator


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def _zero_column(matrix, c):
    for row in matrix:
        row[c % len(matrix)] = 0
    return matrix


def _zero_corner(matrix):
    matrix[0][0] = 0
    return matrix


# half the entries zero, so pivots are often zero and force a row swap
_sparse_entry = st.one_of(st.just(0), st.integers(-9, 9))
_sparse = st.integers(1, 8).flatmap(lambda n: _square(n, _sparse_entry))
# Sylvester matrices of degrees summing to at most 8: banded, with leads of
# +-1 (pivot == prev) and sparse bodies (rows of factor 0)
_band_poly = st.builds(
    lambda body, lead: IntPolynomial(body + [lead]),
    st.lists(st.one_of(st.just(0), st.integers(-6, 6)), min_size=1, max_size=4),
    st.sampled_from([1, -1, 2, -3, 5]),
)
_banded = st.builds(salem._sylvester_matrix, _band_poly, _band_poly)
square_matrices = st.one_of(
    _sparse,
    _banded,
    st.builds(_zero_column, _sparse, st.integers(0, 7)),
    st.builds(_zero_corner, _sparse),
    st.builds(_zero_corner, _banded),
)


class TestBareissDeterminant:
    @settings(max_examples=300, derandomize=True)
    @given(square_matrices)
    # banded, lead 2 > prev = 1: the rows of factor 0 below must be scaled
    @example([[2, 1, 3, 0], [0, 2, 1, 3], [1, 0, 5, 0], [0, 1, 0, 5]])
    # zero pivot at step 0, swapped with row 1
    @example([[0, 2, 1], [3, 1, 0], [1, 0, 4]])
    # all-zero column: determinant 0
    @example([[1, 0, 2], [3, 0, 4], [5, 0, 6]])
    # pivot == prev == 1 at steps 0 and 1
    @example([[1, 2, 3, 1], [0, 1, 4, 2], [5, 0, 1, 3], [0, 7, 2, 1]])
    # a Sylvester matrix of degrees 3 and 5 with non-monic leads
    @example(salem._sylvester_matrix(IntPolynomial([1, 0, 0, 3]), IntPolynomial([2, 0, -1, 0, 0, 2])))
    def test_matches_fraction_elimination(self, matrix):
        before = [row[:] for row in matrix]
        assert salem._bareiss_determinant(matrix) == fraction_determinant(matrix)
        assert matrix == before


def fibonacci_closed_form(l, n):
    """res(x^2 - tau(n)*x + 1, Phi_l) for the a = 1 sequence, from Fibonacci values.

    tau(n) = 5*f_n^2 + (-1)^n * 2. With f = f_n for l in {5, 10} and
    f = f_{5n} for l in {25, 50}:

        l = 5, 25:  n even -> 25*(5f^4 + 5f^2 + 1)^2
                    n odd  -> (25f^4 - 15f^2 + 1)^2
        l = 10, 50: n even -> (25f^4 + 15f^2 + 1)^2
                    n odd  -> 25*(5f^4 - 5f^2 + 1)^2
    """
    f = gen_fib(1, n if l in (5, 10) else 5 * n)
    f2 = f * f
    f4 = f2 * f2
    even = n % 2 == 0
    if l in (5, 25):
        if even:
            return 25 * (5 * f4 + 5 * f2 + 1) ** 2
        return (25 * f4 - 15 * f2 + 1) ** 2
    if even:
        return (25 * f4 + 15 * f2 + 1) ** 2
    return 25 * (5 * f4 - 5 * f2 + 1) ** 2


class TestClosedFormResultant:
    def test_published_values(self):
        assert closed_form_resultant(10, 1) == 25
        assert closed_form_resultant(5, 3) == 116281
        assert closed_form_resultant(5, 6) == 10817040025

    def test_rejects_other_indices(self):
        for l in (2, 3):
            with pytest.raises(ValueError, match=rf"^closed form available for l in \(5, 10, 25, 50\), got {l}$"):
                closed_form_resultant(l, 3)
        with pytest.raises(ValueError, match="^closed form requires n >= 1$"):
            closed_form_resultant(5, 0)

    def test_matches_the_fibonacci_formulas(self):
        # the Psi_l form, for every a, agrees with the a = 1 Fibonacci formulas
        for l in (5, 10, 25, 50):
            for n in range(1, 201):
                assert closed_form_resultant(l, n) == fibonacci_closed_form(l, n), (l, n)


class TestSalemData:
    def test_golden_trace(self):
        quad = salem_data(3)
        assert quad.polynomial.coeffs == (1, -3, 1)
        assert abs(quad.lambda_ - 2.618033988749895) < 1e-12
        assert abs(quad.entropy - 0.9624236501192069) < 1e-12

    def test_other_traces(self):
        assert salem_data(47).polynomial.coeffs == (1, -47, 1)
        assert salem_data(322).polynomial.coeffs == (1, -322, 1)

    def test_rejects_non_salem(self):
        with pytest.raises(ValueError):
            salem_data(2)
        with pytest.raises(ValueError):
            SalemQuadratic(-5)

    @pytest.mark.parametrize("tau", [3, 10, 10**6, 10**7 + 1, 10**12, 10**18])
    def test_defining_relation_precision(self, tau):
        lam = Fraction(salem_data(tau).lambda_)
        error = abs(lam + 1 / lam - tau)
        assert error <= Fraction(tau) * Fraction(1, 10**12)

    def test_beyond_double_range_degrades_documentedly(self):
        import math

        quad = salem_data(10**400)
        assert quad.lambda_ == math.inf
        assert abs(quad.entropy - 400 * math.log(10)) < 1e-9

    def test_palindromic(self):
        assert is_palindromic(IntPolynomial([1, -3, 1]))
        assert not is_palindromic(IntPolynomial([-1, 1]))
        assert is_palindromic(cyclotomic(10))

    @given(st.integers(1, 8), st.integers(1, 60))
    def test_traces_give_salem_quadratics(self, a, n):
        quad = salem_data(salem_trace_of_power(a, n))
        assert quad.tau > 2
        assert is_palindromic(quad.polynomial)


class TestTraceFilters:
    def test_admissible_roots(self):
        assert admissible_trace_root(47, 1) == 7
        assert admissible_trace_root(3, -1) is None
        assert admissible_trace_root(23, -1) is None
        assert admissible_trace_root(23, 1) == 5
        assert admissible_trace_root(843, -1) == 29

    def test_anti_symplectic_exclusions(self):
        # roots 5, 7, 13, 17 are inadmissible exactly for epsilon = -1
        for alpha in (5, 7, 13, 17):
            tau = alpha * alpha + 2
            assert admissible_trace_root(tau, -1) is None
            assert admissible_trace_root(alpha * alpha - 2, 1) == alpha

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            admissible_trace_root(47, 0)

    def test_filter_examples(self):
        assert cyclotomic_trace_filter(3, 50) is True
        assert cyclotomic_trace_filter(3, 5) is False
        assert cyclotomic_trace_filter(322, 5) is True

    def test_filter_rejects_bad_index(self):
        with pytest.raises(ValueError):
            cyclotomic_trace_filter(3, 7)


class TestPell:
    def test_examples(self):
        plus = pell_solutions(5, 1, 10)
        assert (3, 1) in plus and (7, 3) in plus
        minus = pell_solutions(5, -1, 10)
        assert (1, 1) in minus
        forty_five = pell_solutions(45, 1, 10)
        assert (2, 0) in forty_five and (7, 1) in forty_five

    def test_rejects_square_d(self):
        with pytest.raises(ValueError):
            pell_solutions(49, 1, 10)

    @pytest.mark.parametrize("d", [0, -5])
    def test_rejects_nonpositive_d(self, d):
        with pytest.raises(ValueError, match="^d must be positive$"):
            pell_solutions(d, 1, 5)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            pell_solutions(5, 1, 0)

    @given(st.integers(2, 500), st.sampled_from([1, -1]))
    def test_solutions_satisfy_equation(self, d, eps):
        from fibk3.fibgen import is_perfect_square

        if is_perfect_square(d) is not None:
            return
        for alpha, beta in pell_solutions(d, eps, 30):
            assert alpha * alpha - d * beta * beta == 4 * eps


class TestIndexTable:
    def test_keys(self):
        assert tuple(salem._INDEX) == (1, 2, 5, 10, 25, 50)
        assert salem.ENGINE_CYCLOTOMIC_INDICES == tuple(salem._INDEX)

    def test_psi_gives_phi(self):
        # z^(phi/2) * Psi(eps*(z + 1/z)) = sum c_j * eps^j * (z^2 + 1)^j * z^(phi/2 - j)
        for l, (eps, _, psi) in salem._INDEX.items():
            if l < 5:
                assert psi is None
                continue
            half = euler_phi(l) // 2
            coeffs = [0] * (2 * half + 1)
            for j, c in enumerate(psi):
                term = IntPolynomial([c * eps**j])
                for _ in range(j):
                    term = term * IntPolynomial([1, 0, 1])
                for i, t in enumerate(term.coeffs):
                    coeffs[half - j + i] += t
            assert IntPolynomial(coeffs) == cyclotomic(l), l


class TestCharPolyMultiplicity:
    def test_fills_rank_22(self):
        for l in (1, 2, 5, 10, 25, 50):
            assert 2 + char_poly_multiplicity(l) * euler_phi(l) == 22

    def test_rejects_other(self):
        # one refusal, shared with epsilon_for_index
        message = "^cyclotomic index must be one of \\(1, 2, 5, 10, 25, 50\\), got 3$"
        for fn in (char_poly_multiplicity, epsilon_for_index):
            with pytest.raises(ValueError, match=message):
                fn(3)


class TestIntegerArguments:
    """Indices, traces, bounds and epsilon go through operator.index."""

    @pytest.mark.parametrize(
        "fn, args, name",
        [
            (cyclotomic, (5.0,), "l"),
            (cyclotomic, ("5",), "l"),
            (epsilon_for_index, (5.0,), "l"),
            (char_poly_multiplicity, (5.0,), "l"),
            (euler_phi, (10.0,), "n"),
            (closed_form_resultant, (5.0, 2), "l"),
            (admissible_trace_root, (7.0, 1), "tau"),
            (admissible_trace_root, (7, 1.0), "epsilon"),
            (cyclotomic_trace_filter, (7.0, 5), "tau"),
            (cyclotomic_trace_filter, (7, 5.0), "l"),
            (pell_solutions, (5.0, 1, 3), "d"),
            (pell_solutions, (5, 1.0, 3), "epsilon"),
            (pell_solutions, (5, 1, 3.0), "beta_bound"),
            (closed_form_resultant, (5, "2"), "n"),
            (closed_form_resultant, (5, 2.0), "n"),
            (salem_data, (7.0,), "tau"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_non_integers_refused(self, fn, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            fn(*args)

    def test_cached_value_not_reached_by_a_float(self):
        cyclotomic(5)
        with pytest.raises(ValueError, match="^l must be an integer$"):
            cyclotomic(5.0)

    def test_index_types_accepted(self):
        class Five:
            def __index__(self):
                return 5

        assert cyclotomic(Five()) == cyclotomic(5)
        assert char_poly_multiplicity(Five()) == 5
        assert euler_phi(Five()) == 4
        assert pell_solutions(Five(), 1, Five()) == pell_solutions(5, 1, 5)
        assert salem_data(Five()) == salem_data(5)
        assert closed_form_resultant(Five(), 2) == closed_form_resultant(5, 2)
