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
ValueError("<name> must be an integer"). The parameter a follows the same
conversion, refuses a bool, and must be >= 1 (_check_a). The kernels a
selftest pass calls most (gen_fib, classify_membership, divides_in_sequence,
and in lattice and engine ab_power, disc_action, disc_action_bruteforce and
verify_realization) accept an exact int in line, as in
`if type(a) is not int or a < 1: a = _check_a(a)`, and call _check_a,
_integer or _check_sign only for anything else, so those stay the only code
that converts or refuses an argument.
"""

from __future__ import annotations

import functools
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


def _check_a(a: int) -> int:
    """a as an int: operator.index, a bool refused, then a >= 1; one message."""
    if type(a) is int and a >= 1:
        return a
    try:
        value = index(a)
    except TypeError:
        value = 0
    if isinstance(a, bool) or value < 1:
        raise ValueError(f"sequence parameter a must be an integer >= 1, got {a!r}")
    return value


def _integer(value, name: str) -> int:
    """value as an int (operator.index), or ValueError naming the argument.

    An exact int is returned as it is, without the index call.
    """
    if type(value) is int:
        return value
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


def _check_sign(value, name: str) -> int:
    """value as +1 or -1 under the integer rule, or ValueError naming it."""
    value = _integer(value, name)
    if value not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1")
    return value


_MEMO_BITS = 4096


def _fib_pair(a: int, n: int) -> tuple[int, int]:
    """Return (a_n, a_{n+1}) for n >= 0, the pair _fib_ladder computes.

    Small pairs are memoized: the selftest suites and the realization checks
    ask for the same few thousand (a, n) many times over. The bound is on
    bits, not on n alone: for n >= 1, a_{n+1} < (a+1)^n <= 2^(n *
    a.bit_length()), so a memoized pair holds two integers of at most
    _MEMO_BITS = 4096 bits each, and the 512 entries of a full cache hold
    at most about 0.7 MB (0.69 MB measured with tracemalloc for a near
    2^64, n = 64). Every other pair runs the ladder. A memoized value is
    always one the ladder returned.
    """
    if n * a.bit_length() <= _MEMO_BITS:
        return _fib_memo(a, n)
    return _fib_ladder(a, n)


def _fib_ladder(a: int, n: int, m: int = 0) -> tuple[int, int]:
    """Return (a_n, a_{n+1}) for n >= 0 by doubling over the bits of n; with
    a modulus m >= 2, both entries reduced mod m.

    Uses a_{2k} = a_k * (2*a_{k+1} - a*a_k) and a_{2k+1} = a_{k+1}^2 + a_k^2,
    both consequences of the index-addition identity. The bits are read most
    significant first, so (p, q) = (a_k, a_{k+1}) for k the prefix read so far;
    the leading bit is the prefix k = 1, (a_1, a_2) = (1, a). Mod m the
    recurrence only sees a mod m, so a is reduced first and every step after.
    """
    if n == 0:
        return (0, 1)
    if m:
        a %= m
    p, q = 1, a
    for bit in bin(n)[3:]:
        u = p * (2 * q - a * p)
        v = q * q + p * p
        if bit == "1":
            p, q = v, a * v + u
        else:
            p, q = u, v
        if m:
            p, q = p % m, q % m
    return (p, q)


_fib_memo = functools.lru_cache(maxsize=512)(_fib_ladder)


def gen_fib(a: int, n: int) -> int:
    """n-th generalized Fibonacci number, any integer n, O(log n) doubling."""
    if type(a) is not int or a < 1:
        a = _check_a(a)
    if type(n) is not int:
        n = _integer(n, "n")
    if n >= 0:
        return _fib_pair(a, n)[0]
    m = -n
    value = _fib_pair(a, m)[0]
    return value if m % 2 == 1 else -value


def gen_fib_iter(a: int, n: int) -> int:
    """Naive iterative evaluation, kept as the independent slow path."""
    a = _check_a(a)
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
    a = _check_a(a)
    n = _integer(n, "n")
    if n < 0:
        raise ValueError("trace is defined here for n >= 0")
    f = gen_fib(a, n)
    return (a * a + 4) * f * f + (2 if n % 2 == 0 else -2)


def shifted_trace(a: int, n: int) -> int:
    """a_{2n-2} + a_{2n} (n >= 1), from the ladder pair (p, q) = (a_{n-1}, a_n).

    a_{2n-2} = p*(2q - a*p), a_{2n-1} = p^2 + q^2 and a_{2n} = a*a_{2n-1} +
    a_{2n-2}, so the sum is a*(q^2 - p^2) + 4*p*q.
    """
    a = _check_a(a)
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("shifted trace requires n >= 1")
    p, q = _fib_pair(a, n - 1)
    return a * (q * q - p * p) + 4 * p * q


def is_perfect_square(n: int) -> int | None:
    """Exact square test: the nonnegative root when n is a perfect square, else None."""
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


_NOT_MEMBER = MembershipResult("not_member", ())


def classify_membership(a: int, n: int) -> MembershipResult:
    """Decide whether n occurs in the sequence, via the square criterion.

    n >= 0 is the k-th member with k even (resp. odd) exactly when
    (a^2+4)*n^2 + 4 (resp. - 4) is a perfect square. Every matching index is
    recovered by forward iteration; for a = 1, n = 1 both parities fire
    (indices 1 and 2) and both matches are reported.
    """
    if type(a) is not int or a < 1:
        a = _check_a(a)
    if type(n) is not int:
        n = _integer(n, "n")
    if n < 0:
        raise ValueError("membership is defined for n >= 0")
    dn2 = (a * a + 4) * n * n
    r = math.isqrt(dn2)
    if r >= 3:
        # r^2 <= dn2 < (r+1)^2 with r >= 3 gives (r-1)^2 < dn2 - 4 and
        # dn2 + 4 < (r+2)^2: dn2 - 4 can only be r^2, dn2 + 4 only (r+1)^2,
        # and at most one gap fits, since 2r - 3 is odd
        gap = dn2 - r * r
        if gap == 4:
            root_even, root_odd = None, r
        elif gap == 2 * r - 3:
            root_even, root_odd = r + 1, None
        else:
            return _NOT_MEMBER
    else:
        # n = 0 (root_even = 2), or n = 1 with a <= 2 (a = 1: root_even = 3,
        # a = 2: root_odd = 2), so one root is always found here
        root_even = is_perfect_square(dn2 + 4)
        root_odd = is_perfect_square(dn2 - 4)

    roots = {"even": root_even, "odd": root_odd}
    matches: list[MembershipMatch] = []
    k, value, nxt = 0, 0, 1
    while value <= n:
        if value == n:
            parity = "odd" if k % 2 else "even"
            matches.append(MembershipMatch(k, parity, roots[parity]))
        k, value, nxt = k + 1, nxt, a * nxt + value
    # the walk must find an index of exactly the parities whose square fired
    found = sorted({match.parity for match in matches})
    fired = sorted(parity for parity, root in roots.items() if root is not None)
    if found != fired:
        raise InvariantViolation(
            f"n={n} has indices of parity {found} but squares of parity {fired}"
        )
    return MembershipResult("member", tuple(matches))


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


def entry_point(a: int, m: int, *, factors: dict[int, int] | None = None) -> int:
    """Smallest e >= 1 with m | a_e (rank of apparition), from the factors of m.

    Since a_k | a_q exactly when k | q, the n with m | a_n are the multiples
    of e. e(p) divides _prime_entry_bound(a, p) and e(p^k) divides e(p) *
    p^(k-1) (Wall 1960; Renault 1996), so N = lcm over the prime powers p^k
    of m of _prime_entry_bound(a, p) * p^(k-1) is a multiple of e. N is
    divided by each of its primes q while m | a_{N/q}, which leaves e. Every
    loop only divides, so every call ends, and every test is an a_n mod m
    ladder: the cost is polylog in m plus factorize(m) and the
    factorizations of the bounds. The postcondition m | a_e and m not
    dividing a_{e/q}, for every prime q | e, is checked on every call.

    factors, when given, stands for factorize(m), so that a caller holding
    it does not factorize m again. One with extra primes still gives the
    true e; one whose N is no multiple of e fails the postcondition.
    """
    a = _check_a(a)
    m = _integer(m, "m")
    if m < 2:
        raise ValueError("entry point requires m >= 2")
    if factors is None:
        factors = factorize(m)
    e = 1
    primes = set(factors)
    for p, k in factors.items():
        bound = _prime_entry_bound(a, p)
        primes.update(factorize(bound))
        e = math.lcm(e, bound * p ** (k - 1))
    for q in primes:
        while e % q == 0 and _fib_ladder(a, e // q, m)[0] == 0:
            e //= q
    # every prime of e is a prime of m or of a bound
    holds = _fib_ladder(a, e, m)[0] == 0
    for q in primes:
        if holds and e % q == 0:
            holds = _fib_ladder(a, e // q, m)[0] != 0
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
    if type(a) is not int or a < 1:
        a = _check_a(a)
    if type(k) is not int:
        k = _integer(k, "k")
    if type(q) is not int:
        q = _integer(q, "q")
    if k < 1 or q < 1:
        raise ValueError("indices must be >= 1")
    return _fib_pair(a, q)[0] % _fib_pair(a, k)[0] == 0
