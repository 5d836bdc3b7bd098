"""Generalized Fibonacci sequences and their arithmetic.

For a fixed integer a >= 1 the sequence is

    a_0 = 0,  a_1 = 1,  a_{n+2} = a * a_{n+1} + a_n,

the Lucas sequence U_n(a, -1). a = 1 gives the ordinary Fibonacci numbers,
a = 2 the Pell numbers. Everything here is exact integer arithmetic; the
module exposes the sequence itself, trace identities for powers of the
standard isometry product, the perfect-square membership criterion, entry
points (rank of apparition), and divisibility structure.

Indices extend to all of Z via a_{-n} = (-1)^{n+1} * a_n, which is the unique
extension satisfying the recurrence backwards.

Every index, modulus and tested value must be an integer: anything
operator.index accepts is converted, and anything else raises
ValueError("<name> must be an integer"). The parameter a must be an int >= 1.
"""

from __future__ import annotations

import math
from operator import index

from .errors import InvariantViolation
from ._primes import factorize
from ._record import Record

__all__ = [
    "MembershipMatch",
    "MembershipResult",
    "gen_fib",
    "gen_fib_iter",
    "salem_trace_of_power",
    "shifted_trace",
    "is_perfect_square",
    "classify_membership",
    "entry_point",
    "divides_in_sequence",
]


def _check_a(a: int) -> None:
    if type(a) is int and a >= 1:
        return
    if not isinstance(a, int) or isinstance(a, bool) or a < 1:
        raise ValueError(f"sequence parameter a must be an integer >= 1, got {a!r}")


def _integer(value, name: str) -> int:
    """value as an int (operator.index), or ValueError naming the argument.

    Callers skip the call for an exact int: `if type(n) is not int: ...`.
    """
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


def _fib_pair(a: int, n: int) -> tuple[int, int]:
    """Return (a_n, a_{n+1}) for n >= 0 by doubling over the bits of n.

    Uses a_{2k} = a_k * (2*a_{k+1} - a*a_k) and a_{2k+1} = a_{k+1}^2 + a_k^2,
    both consequences of the index-addition identity. The bits are read most
    significant first, so (p, q) = (a_k, a_{k+1}) for k the prefix read so far;
    the leading bit is the prefix k = 1, (a_1, a_2) = (1, a).
    """
    if n == 0:
        return (0, 1)
    p, q = 1, a
    for bit in bin(n)[3:]:
        u = p * (2 * q - a * p)
        v = q * q + p * p
        if bit == "1":
            p, q = v, a * v + u
        else:
            p, q = u, v
    return (p, q)


def gen_fib(a: int, n: int) -> int:
    """n-th generalized Fibonacci number, any integer n, O(log n) doubling."""
    _check_a(a)
    if type(n) is not int:
        n = _integer(n, "n")
    if n >= 0:
        return _fib_pair(a, n)[0]
    m = -n
    value = _fib_pair(a, m)[0]
    return value if m % 2 == 1 else -value


def gen_fib_iter(a: int, n: int) -> int:
    """Naive iterative evaluation, kept as the independent slow path."""
    _check_a(a)
    if type(n) is not int:
        n = _integer(n, "n")
    m = abs(n)
    x, y = 0, 1
    for _ in range(m):
        x, y = y, a * y + x
    if n >= 0:
        return x
    return x if m % 2 == 1 else -x


def salem_trace_of_power(a: int, n: int) -> int:
    """Trace of the n-th power of the standard isometry product (n >= 0).

    Equals (a^2 + 4) * a_n^2 + (-1)^n * 2, and also a_{2n-1} + a_{2n+1}.
    The value is a Salem trace (> 2) for every n >= 1.
    """
    _check_a(a)
    if type(n) is not int:
        n = _integer(n, "n")
    if n < 0:
        raise ValueError("trace is defined here for n >= 0")
    f = gen_fib(a, n)
    return (a * a + 4) * f * f + (2 if n % 2 == 0 else -2)


def shifted_trace(a: int, n: int) -> int:
    """a_{2n-2} + a_{2n} via the closed form with exact division by a (n >= 1)."""
    _check_a(a)
    if type(n) is not int:
        n = _integer(n, "n")
    if n < 1:
        raise ValueError("shifted trace requires n >= 1")
    fn1, fn = _fib_pair(a, n - 1)
    numerator = (a * a + 4) * (fn * fn - fn1 * fn1) + (4 if n % 2 == 0 else -4)
    quotient, remainder = divmod(numerator, a)
    if remainder != 0:
        raise InvariantViolation(
            f"shifted trace numerator {numerator} not divisible by a={a}"
        )
    return quotient


def is_perfect_square(n: int) -> int | None:
    """Exact square test: the nonnegative root when n is a perfect square, else None."""
    if type(n) is not int:
        n = _integer(n, "n")
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


class MembershipMatch(Record):
    k: int
    parity: str  # "even" or "odd"
    square_witness: int


class MembershipResult(Record):
    status: str  # "member" or "not_member"
    matches: tuple[MembershipMatch, ...]

    @property
    def is_member(self) -> bool:
        return self.status == "member"


_NOT_MEMBER = MembershipResult("not_member", ())


def classify_membership(a: int, n: int) -> MembershipResult:
    """Decide whether n occurs in the sequence, via the square criterion.

    n >= 0 is the k-th member with k even (resp. odd) exactly when
    (a^2+4)*n^2 + 4 (resp. - 4) is a perfect square. Every matching index is
    recovered by forward iteration; for a = 1, n = 1 both parities fire
    (indices 1 and 2) and both matches are reported.
    """
    _check_a(a)
    if type(n) is not int:
        n = _integer(n, "n")
    if n < 0:
        raise ValueError("membership is defined for n >= 0")
    dn2 = (a * a + 4) * n * n
    r = math.isqrt(dn2 + 4)
    root_even = r if r * r == dn2 + 4 else None
    # at n = 0, dn2 - 4 = -4 is not a square: r = -1 fails the test below
    r = math.isqrt(dn2 - 4) if n else -1
    root_odd = r if r * r == dn2 - 4 else None
    if root_even is None and root_odd is None:
        return _NOT_MEMBER

    matches: list[MembershipMatch] = []
    k, value, nxt = 0, 0, 1
    while value <= n:
        if value == n:
            if k % 2 == 0:
                if root_even is None:
                    raise InvariantViolation(
                        f"index {k} found for n={n} but the even-branch square is absent"
                    )
                matches.append(MembershipMatch(k, "even", root_even))
            else:
                if root_odd is None:
                    raise InvariantViolation(
                        f"index {k} found for n={n} but the odd-branch square is absent"
                    )
                matches.append(MembershipMatch(k, "odd", root_odd))
        k, value, nxt = k + 1, nxt, a * nxt + value
    if root_even is not None and not any(m.parity == "even" for m in matches):
        raise InvariantViolation(f"even-branch square fired for n={n} with no index")
    if root_odd is not None and not any(m.parity == "odd" for m in matches):
        raise InvariantViolation(f"odd-branch square fired for n={n} with no index")
    return MembershipResult("member", tuple(matches))


def _fib_mod(a: int, n: int, m: int) -> int:
    """a_n mod m for n >= 0 and m >= 2: the _fib_pair ladder reduced mod m."""
    if n == 0:
        return 0
    p, q = 1, a % m
    for bit in bin(n)[3:]:
        u = p * (2 * q - a * p) % m
        v = (q * q + p * p) % m
        if bit == "1":
            p, q = v, (a * v + u) % m
        else:
            p, q = u, v
    return p


def _prime_entry_bound(a: int, p: int) -> int:
    """A multiple of e(p) for the prime p: e(2) itself (2 for even a, 3 for
    odd), p for an odd p | D = a^2 + 4, and p - (D/p) otherwise, the Legendre
    symbol by Euler's criterion."""
    if p == 2:
        return 2 if a % 2 == 0 else 3
    d = (a * a + 4) % p
    if d == 0:
        return p
    return p - 1 if pow(d, (p - 1) // 2, p) == 1 else p + 1


def entry_point(a: int, m: int) -> int:
    """Smallest e >= 1 with m | a_e (rank of apparition), from the factors of m.

    Since a_k | a_q exactly when k | q, m | a_n exactly when e(p^k) | n for
    each prime power p^k of m, so e(m) is the lcm of those. e(p) divides
    _prime_entry_bound(a, p); it is found by dividing that bound by each of
    its primes q while p | a_{n/q}, and e(p^k) = e(p) * p^j for the least j
    with p^k | a_n (Wall 1960; Renault 1996). Every test is an a_n mod p^k
    ladder, so the cost is polylog in m plus factorize(m) and the
    factorizations of the bounds. The postcondition m | a_e and m not
    dividing a_{e/q}, for every prime q | e, is checked on every call.
    """
    _check_a(a)
    if type(m) is not int:
        m = _integer(m, "m")
    if m < 2:
        raise ValueError("entry point requires m >= 2")
    e = 1
    primes: set[int] = set()
    for p, k in factorize(m).items():
        n = _prime_entry_bound(a, p)
        bound_primes = factorize(n)
        for q in bound_primes:
            while n % q == 0 and _fib_mod(a, n // q, p) == 0:
                n //= q
        if k > 1:
            pk = p**k
            while _fib_mod(a, n, pk) != 0:
                n *= p
        e = math.lcm(e, n)
        primes.update(bound_primes)
        primes.add(p)
    # every prime of e is a prime of m or of a bound
    holds = _fib_mod(a, e, m) == 0
    for q in primes:
        if holds and e % q == 0:
            holds = _fib_mod(a, e // q, m) != 0
    if not holds:
        raise InvariantViolation(f"entry point {e} of m={m}, a={a} fails its definition")
    return e


def divides_in_sequence(a: int, k: int, q: int) -> bool:
    """Whether a_k divides a_q (k, q >= 1), by exact division.

    For a_k > 1 this is equivalent to k | q. The published equivalence is
    stated without that restriction, but it fails at the one degenerate
    index with a_k = 1 beyond k = 1: for a = 1, a_2 = 1 divides every a_q
    while 2 divides only even q. Callers wanting the index criterion should
    use q % k == 0 directly.
    """
    _check_a(a)
    if type(k) is not int:
        k = _integer(k, "k")
    if type(q) is not int:
        q = _integer(q, "q")
    if k < 1 or q < 1:
        raise ValueError("indices must be >= 1")
    return _fib_pair(a, q)[0] % _fib_pair(a, k)[0] == 0
