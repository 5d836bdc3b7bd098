"""Differential tests against sympy, an independent implementation.

sympy is not a dependency of fibk3: these tests skip when it is absent.
"""

import random

import pytest

from fibk3._primes import _MR_DETERMINISTIC_LIMIT, factorize, is_probable_prime
from fibk3.fibgen import gen_fib, salem_trace_of_power
from fibk3.salem import IntPolynomial, cyclotomic, resultant
from test_salem import PINNED_RESULTANTS

sympy = pytest.importorskip("sympy")
sylvester = pytest.importorskip("sympy.polys.subresultants_qq_zz").sylvester

x = sympy.Symbol("x")


def to_sympy(p):
    return sympy.Poly(list(reversed(p.coeffs)), x)


@pytest.mark.parametrize("l", [*range(1, 61), 105, 210, 1155, 2310])
def test_cyclotomic(l):
    expected = sympy.Poly(sympy.cyclotomic_poly(l, x), x).all_coeffs()
    assert list(reversed(cyclotomic(l).coeffs)) == expected


def test_resultant_on_random_polynomials():
    rng = random.Random(20)

    def draw(leads):
        body = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        return IntPolynomial(body + [rng.choice(leads)])

    for _ in range(150):
        p, q = draw((-3, -1, 1, 2)), draw((-2, 1, 1, 5))
        value = resultant(p, q)
        assert value == sylvester(to_sympy(p).as_expr(), to_sympy(q).as_expr(), x).det(), (p, q)
        # sympy.resultant returns res(q, p) when deg p < deg q, which is
        # (-1)^(deg p * deg q) * res(p, q)
        swapped = p.degree < q.degree and p.degree * q.degree % 2 == 1
        assert value == (-1 if swapped else 1) * sympy.resultant(to_sympy(p), to_sympy(q)), (p, q)


@pytest.mark.parametrize("pc, qc, value", PINNED_RESULTANTS)
def test_pinned_resultants(pc, qc, value):
    p, q = IntPolynomial(pc), IntPolynomial(qc)
    swapped = p.degree < q.degree and p.degree * q.degree % 2 == 1
    assert value == (-1 if swapped else 1) * sympy.resultant(to_sympy(p), to_sympy(q))


def test_fibonacci_and_lucas():
    for n in range(0, 400):
        assert gen_fib(1, n) == sympy.fibonacci(n)
        assert salem_trace_of_power(1, n) == sympy.lucas(2 * n)


def test_factorize():
    rng = random.Random(21)
    values = list(range(1, 3001)) + [rng.randrange(10**6, 10**12) for _ in range(40)]
    values += [2**61 - 1, 2**40 * 3**5, 999983**2, 10**12 + 39, 1_000_003 * 97]
    for n in values:
        assert factorize(n) == sympy.factorint(n), n


# psi_11 and psi_12 of OEIS A014233: the least strong pseudoprimes to the
# first 11 and 12 prime bases
PSI_11 = 3_825_123_056_546_413_051
PSI_12 = 318_665_857_834_031_151_167_461


def test_is_probable_prime():
    rng = random.Random(22)
    # n = 1 mod 4 puts r >= 2, so the squaring loop runs
    drawn = [4 * rng.randrange(10**12 // 4, _MR_DETERMINISTIC_LIMIT // 4) + 1 for _ in range(300)]
    primes = [sympy.nextprime(n) for n in drawn[:60]]
    values = [PSI_11, PSI_12, PSI_12 + 2, 2**61 - 1, 10**12 + 39] + drawn + primes
    for n in values:
        assert is_probable_prime(n) == sympy.isprime(n), n
