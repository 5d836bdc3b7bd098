"""Integer factorization support: trial division plus a Miller-Rabin check.

fibgen.entry_point factorizes m and each prime's bound, salem.euler_phi and
salem.cyclotomic their argument, and the engine the discriminant
m^2 (a^2 + 4) through m and a^2 + 4. The strategy is deliberately simple
(trial division to 10^6, then a primality test on the cofactor) and fails
loudly instead of silently returning partial factors.

Miller-Rabin with the first k primes as bases is deterministic below psi_k
(OEIS A014233). The primes 2..37 reach only psi_12 =
318_665_857_834_031_151_167_461 = 399_165_290_221 * 798_330_580_441, a
strong pseudoprime to all twelve; adding 41 reaches psi_13 =
3_317_044_064_679_887_385_961_981, the limit factorize enforces.
"""

from __future__ import annotations

import math

from .errors import FactorizationError

TRIAL_BOUND = 10**6

# Deterministic Miller-Rabin witness set for n < psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below ~3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Factor n >= 1 into {prime: exponent}.

    Trial divides up to TRIAL_BOUND, then requires the cofactor to be prime
    (or a prime square). Raises FactorizationError when the cofactor is a
    composite this strategy cannot split, or when n is too large for the
    Miller-Rabin witness set to be deterministic.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    rem = n
    for p in range(2, TRIAL_BOUND + 1):
        if p * p > rem:
            break
        while rem % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rem //= p
    if rem > 1:
        if rem <= TRIAL_BOUND * TRIAL_BOUND:
            # no divisor up to 10^6, so the cofactor below 10^12 is prime
            factors[rem] = factors.get(rem, 0) + 1
        elif rem >= _MR_DETERMINISTIC_LIMIT:
            # bits, not digits: past the int->str digit limit, formatting
            # rem would raise the interpreter's ValueError
            raise FactorizationError(
                f"a cofactor of {rem.bit_length()} bits exceeds the deterministic "
                f"primality range ({_MR_DETERMINISTIC_LIMIT.bit_length()} bits)"
            )
        elif is_probable_prime(rem):
            factors[rem] = factors.get(rem, 0) + 1
        else:
            root = math.isqrt(rem)
            if root * root == rem and is_probable_prime(root):
                factors[root] = factors.get(root, 0) + 2
            else:
                raise FactorizationError(
                    f"composite cofactor {rem} resists trial division to {TRIAL_BOUND}"
                )
    return factors
