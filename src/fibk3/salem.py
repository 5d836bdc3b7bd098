"""Integer polynomials, cyclotomic polynomials, resultants, and Salem data.

The resultant of P and Q is normalized as the product of root differences
prod (u - v) over roots u of P and v of Q, which for monic inputs equals the
Sylvester determinant with the rows of P on top. Every resultant is computed
by two independent exact algorithms (fraction-free Sylvester elimination and
a subresultant remainder sequence); a disagreement raises InvariantViolation
rather than returning either value. One resultant also has a closed form,
res(x^2 - tau*x + 1, Phi_l) for the six cyclotomic indices that can accompany
a degree-2 Salem factor. The decision engine uses it for every candidate;
every call checks it against the norm of Phi_l reduced mod x^2 - tau*x + 1,
and the generic resultant is its oracle in the selftest suites.

Floating point appears in exactly one place: the Salem number lambda and its
logarithm (the entropy) attached to a Salem trace tau > 2. Everything else is
arbitrary-precision integer arithmetic.

Integer arguments (indices, traces, bounds, epsilon) follow the rule of
fibgen: anything operator.index accepts is converted, and anything else
raises ValueError("<name> must be an integer").
"""

from __future__ import annotations

import functools
import math

from .errors import InvariantViolation
from .fibgen import _check_sign, _integer, is_perfect_square, salem_trace_of_power
from ._primes import factorize
from ._record import Record

__all__ = [
    "IntPolynomial",
    "SalemQuadratic",
    "ENGINE_CYCLOTOMIC_INDICES",
    "epsilon_for_index",
    "cyclotomic",
    "resultant",
    "closed_form_resultant",
    "salem_data",
    "is_palindromic",
    "admissible_trace_root",
    "cyclotomic_trace_filter",
    "pell_solutions",
    "char_poly_multiplicity",
    "euler_phi",
]

# Cyclotomic indices that can accompany a degree-2 Salem factor on rank-22
# cohomology, with the sign of the induced action on the 2-form.
ENGINE_CYCLOTOMIC_INDICES = (1, 2, 5, 10, 25, 50)
_EPSILON_BY_INDEX = {1: 1, 2: -1, 5: 1, 10: -1, 25: 1, 50: -1}

# Allowed square roots alpha of tau + 2*eps for an order-infinity automorphism
# acting on the 2-form by eps: alpha >= 4, and for eps = -1 additionally
# alpha not in {5, 7, 13, 17}.
_EXCLUDED_ANTI_ROOTS = frozenset({5, 7, 13, 17})


def epsilon_for_index(l: int) -> int:
    """Sign of the 2-form action for cyclotomic index l in the allowed six."""
    if type(l) is not int:
        l = _integer(l, "l")
    try:
        return _EPSILON_BY_INDEX[l]
    except KeyError:
        raise ValueError(
            f"cyclotomic index must be one of {ENGINE_CYCLOTOMIC_INDICES}, got {l}"
        ) from None


class IntPolynomial(Record):
    """Immutable integer polynomial, coefficients stored ascending.

    coeffs may be any iterable of ints; trailing zeros are stripped and the
    coefficients are stored as a tuple, so equal polynomials compare equal.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        cs = list(self.coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"integer coefficients required, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return IntPolynomial(out)

    def scale(self, c: int) -> "IntPolynomial":
        return IntPolynomial([c * x for x in self.coeffs])

    def divmod_exact(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division when the divisor's leading coefficient is a unit."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor.leading_coefficient
        if lead not in (1, -1):
            raise ValueError("division implemented for unit leading coefficients only")
        rem = list(self.coeffs)
        dd = divisor.degree
        q = [0] * max(len(rem) - dd, 0)
        while len(rem) > dd and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            shift = len(rem) - 1 - dd
            factor = rem[-1] * lead  # lead is +-1 so this is exact
            q[shift] = factor
            for i, c in enumerate(divisor.coeffs):
                rem[shift + i] -= factor * c
        return IntPolynomial(q), IntPolynomial(rem)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exp in range(self.degree, -1, -1):
            c = self.coeffs[exp]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if exp == 0:
                body = f"{mag}"
            elif exp == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{exp}" if mag == 1 else f"{mag}*x^{exp}"
            parts.append((sign, body))
        head_sign, head = parts[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def is_palindromic(p: IntPolynomial) -> bool:
    """True when the coefficient list reads the same in both directions."""
    return p.coeffs == tuple(reversed(p.coeffs))


def _divisors(n: int) -> list[int]:
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def euler_phi(n: int) -> int:
    if type(n) is not int:
        n = _integer(n, "n")
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def cyclotomic(l: int) -> IntPolynomial:
    """l-th cyclotomic polynomial by exact division of x^l - 1.

    Divides out every lower cyclotomic factor indexed by a proper divisor and
    checks that all intermediate remainders vanish; the result has degree
    euler_phi(l). l is converted before the cache is consulted, since 5.0
    would otherwise hit the entry for 5.
    """
    if type(l) is not int:
        l = _integer(l, "l")
    if l < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return _cyclotomic(l)


@functools.lru_cache(maxsize=None)
def _cyclotomic(l: int) -> IntPolynomial:
    poly = IntPolynomial([-1] + [0] * (l - 1) + [1])
    for d in _divisors(l):
        if d == l:
            continue
        poly, rem = poly.divmod_exact(_cyclotomic(d))
        if not rem.is_zero:
            raise InvariantViolation(f"inexact cyclotomic division at l={l}, d={d}")
    if poly.degree != euler_phi(l):
        raise InvariantViolation(f"cyclotomic degree mismatch at l={l}")
    return poly


# the cache's statistics stay readable under the public name; perfbench's
# traced pass reads them for salem.cyclotomic.hit_ratio
cyclotomic.cache_info = _cyclotomic.cache_info


# ---------------------------------------------------------------------------
# Resultants: two independent exact algorithms that must agree.
# ---------------------------------------------------------------------------


def _sylvester_matrix(p: IntPolynomial, q: IntPolynomial) -> list[list[int]]:
    dp, dq = p.degree, q.degree
    size = dp + dq
    pc = list(reversed(p.coeffs))  # descending
    qc = list(reversed(q.coeffs))
    rows = []
    for i in range(dq):
        rows.append([0] * i + pc + [0] * (size - dp - 1 - i))
    for i in range(dp):
        rows.append([0] * i + qc + [0] * (size - dq - 1 - i))
    return rows


def _bareiss_determinant(matrix: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact for integer matrices."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _resultant_sylvester(p: IntPolynomial, q: IntPolynomial) -> int:
    return _bareiss_determinant(_sylvester_matrix(p, q))


def _exact_div(cs: list[int], c: int) -> list[int]:
    """The coefficient list cs divided by the scalar c, which must divide it."""
    if c == 1:
        return cs
    out = []
    for coeff in cs:
        q, r = divmod(coeff, c)
        if r != 0:
            raise InvariantViolation("inexact scalar division in remainder sequence")
        out.append(q)
    return out


def _pseudo_rem(r: list[int], q: list[int]) -> list[int]:
    """Pseudo-remainder of lc(q)^(deg r - deg q + 1) * r modulo q.

    Both are ascending coefficient lists without trailing zeros, q nonempty;
    r is reduced in place and returned.
    """
    d = q[-1]
    dq = len(q) - 1
    e = len(r) - dq
    while len(r) > dq:
        # r = d*r - lc(r) * x^shift * q, whose top coefficient cancels
        lead = r.pop()
        shift = len(r) - dq
        if d != 1:
            for i in range(len(r)):
                r[i] *= d
        for i in range(dq):
            r[shift + i] -= lead * q[i]
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    if e > 0:
        f = d**e
        for i in range(len(r)):
            r[i] *= f
    return r


def _resultant_subresultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Resultant via the subresultant polynomial remainder sequence.

    Runs on ascending coefficient lists; a list of length n has degree n - 1.
    """
    a, b = list(p.coeffs), list(q.coeffs)
    s = 1
    if len(a) < len(b):
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            s = -1
        a, b = b, a
    if len(b) == 1:
        return s * b[0] ** (len(a) - 1)
    ca, cb = math.gcd(*a), math.gcd(*b)
    t = s * ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a = _exact_div(a, ca)
    b = _exact_div(b, cb)
    sign = 1
    g = 1
    h = 1
    while True:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -sign
        r = _pseudo_rem(a, b)
        a = b
        b = _exact_div(r, g * h**delta)
        g = a[-1]
        if delta > 0:
            numerator = g**delta
            qh, rh = divmod(numerator, h ** (delta - 1)) if delta > 1 else (numerator, 0)
            if rh != 0:
                raise InvariantViolation("inexact h update in remainder sequence")
            h = qh
        if not b:
            return 0
        if len(b) == 1:
            break
    da = len(a) - 1
    numerator = b[0] ** da
    if da > 1:
        qh, rh = divmod(numerator, h ** (da - 1))
        if rh != 0:
            raise InvariantViolation("inexact final division in remainder sequence")
        h = qh
    else:
        h = numerator if da == 1 else h
    return t * sign * h


def resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Exact resultant (root-difference product for monic inputs).

    Computed by fraction-free Sylvester elimination and independently by the
    subresultant remainder sequence; the two values must agree.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    if p.degree == 0:
        return p.leading_coefficient ** q.degree
    if q.degree == 0:
        return q.leading_coefficient ** p.degree
    by_sylvester = _resultant_sylvester(p, q)
    by_subresultant = _resultant_subresultant(p, q)
    if by_sylvester != by_subresultant:
        raise InvariantViolation(
            "resultant algorithms disagree: "
            f"sylvester={by_sylvester}, subresultant={by_subresultant} "
            f"for {p!r}, {q!r}"
        )
    return by_sylvester


# ---------------------------------------------------------------------------
# The closed form of res(x^2 - tau*x + 1, Phi_l), checked by a remainder norm.
# ---------------------------------------------------------------------------

# Psi_l, the minimal polynomial of 2cos(2*pi/l), ascending, for odd l; then
# Phi_l(z) = z^(phi(l)/2) * Psi_l(z + 1/z) and Psi_2l(x) = Psi_l(-x)
# (Watkins-Zeitlin, Amer. Math. Monthly 1993)
_PSI = {5: (-1, 1, 1), 25: (-1, 5, 25, -5, -50, 1, 35, 0, -10, 0, 1)}


def _trace_resultant(tau: int, l: int) -> int:
    """res(x^2 - tau*x + 1, Phi_l) for l in ENGINE_CYCLOTOMIC_INDICES.

    2 - tau for l = 1, 2 + tau for l = 2, Psi_l(tau)^2 otherwise. Checked
    against the norm U^2 + U*W*tau + W^2 of U*x + W = Phi_l mod x^2 - tau*x + 1,
    which is the product of Phi_l over the two roots.
    """
    if l == 1:
        value = 2 - tau
    elif l == 2:
        value = 2 + tau
    else:
        x = tau if l % 2 else -tau
        psi = 0
        for c in reversed(_PSI[l if l % 2 else l // 2]):
            psi = psi * x + c
        value = psi * psi
    u = w = 0
    for c in reversed(cyclotomic(l).coeffs):
        u, w = u * tau + w, c - u
    if u * u + u * w * tau + w * w != value:
        raise InvariantViolation(
            f"closed-form resultant against Phi_{l} disagrees with the remainder norm"
        )
    return value


def closed_form_resultant(l: int, n: int) -> int:
    """res(x^2 - tau*x + 1, Phi_l) for l in {5,10,25,50} and the a = 1 trace.

    tau = salem_trace_of_power(1, n), the trace of (A*B)^n; the value is
    Psi_l(tau)^2 from _trace_resultant, checked against the remainder norm.
    """
    if type(l) is not int:
        l = _integer(l, "l")
    if l not in (5, 10, 25, 50):
        raise ValueError(f"closed form available for l in (5, 10, 25, 50), got {l}")
    if type(n) is not int:
        n = _integer(n, "n")
    if n < 1:
        raise ValueError("closed form requires n >= 1")
    return _trace_resultant(salem_trace_of_power(1, n), l)


# ---------------------------------------------------------------------------
# Salem quadratics.
# ---------------------------------------------------------------------------


class SalemQuadratic(Record):
    """Salem trace tau > 2 with its quadratic x^2 - tau*x + 1.

    lambda_ and entropy are the package's only floating-point outputs. For
    tau <= 10^7 they come from an exact-double sqrt path; beyond that the
    expansion lambda = tau - 1/tau (error O(tau^-3)) is used. Relative error
    stays below 1e-15 up to tau ~ 1.7e308; past the double range lambda_
    degrades to inf while entropy remains finite via integer log.
    """

    tau: int

    def __post_init__(self) -> None:
        if not isinstance(self.tau, int) or isinstance(self.tau, bool) or self.tau <= 2:
            raise ValueError(f"a Salem trace must be an integer > 2, got {self.tau!r}")

    @property
    def polynomial(self) -> IntPolynomial:
        return IntPolynomial([1, -self.tau, 1])

    @property
    def lambda_(self) -> float:
        if self.tau <= 10**7:
            return (self.tau + math.sqrt(self.tau * self.tau - 4)) / 2.0
        try:
            t = float(self.tau)
        except OverflowError:
            return math.inf
        return t - 1.0 / t

    @property
    def entropy(self) -> float:
        if self.tau <= 10**7:
            return math.log(self.lambda_)
        # log((tau + sqrt(tau^2-4))/2) = log(tau) - 1/tau^2 + O(tau^-4);
        # the correction is below double precision for tau > 10^7
        return math.log(self.tau)


def salem_data(tau: int) -> SalemQuadratic:
    """Salem quadratic, Salem number approximation, and entropy for tau > 2."""
    return SalemQuadratic(tau)


def admissible_trace_root(tau: int, epsilon: int) -> int | None:
    """Root alpha of tau + 2*epsilon when it is a square in the allowed set.

    An order-infinity automorphism of a rank-2 Picard lattice acting on the
    2-form by epsilon forces tau = alpha^2 - 2*epsilon with alpha >= 4, and
    alpha not in {5, 7, 13, 17} when epsilon = -1. Returns None when no such
    alpha exists.
    """
    if type(tau) is not int:
        tau = _integer(tau, "tau")
    epsilon = _check_sign(epsilon, "epsilon")
    return _admissible_root(is_perfect_square(tau + 2 * epsilon), epsilon)


def _admissible_root(root: int | None, epsilon: int) -> int | None:
    """root when it is an allowed square root of tau + 2*epsilon, else None."""
    if root is None or root < 4:
        return None
    if epsilon == -1 and root in _EXCLUDED_ANTI_ROOTS:
        return None
    return root


def cyclotomic_trace_filter(tau: int, l: int) -> bool:
    """Necessary condition on a Salem trace for 2-form action of order l.

    With epsilon determined by l: for l in {1, 2} the root of tau + 2*epsilon
    must exist and be admissible (see admissible_trace_root); for the other
    four indices both tau + 2*epsilon and 5*(tau - 2*epsilon) must be perfect
    squares.
    """
    if type(tau) is not int:
        tau = _integer(tau, "tau")
    eps = epsilon_for_index(l)
    if l in (1, 2):
        return admissible_trace_root(tau, eps) is not None
    return (
        is_perfect_square(tau + 2 * eps) is not None
        and is_perfect_square(5 * (tau - 2 * eps)) is not None
    )


def pell_solutions(
    d: int, epsilon: int, beta_bound: int
) -> list[tuple[int, int]]:
    """Nonnegative solutions of alpha^2 - d*beta^2 = 4*epsilon with beta <= bound.

    Bounded brute force with an exact square test per beta; the bound makes
    the search's incompleteness explicit. d must be positive and nonsquare
    (square d degenerates to a difference-of-squares factorization).
    """
    epsilon = _check_sign(epsilon, "epsilon")
    if type(d) is not int:
        d = _integer(d, "d")
    if type(beta_bound) is not int:
        beta_bound = _integer(beta_bound, "beta_bound")
    if d <= 0:
        raise ValueError("d must be positive")
    if is_perfect_square(d) is not None:
        raise ValueError(f"d={d} is a perfect square; the equation degenerates")
    if beta_bound < 1:
        raise ValueError("beta bound must be >= 1")
    solutions = []
    for beta in range(beta_bound + 1):
        target = d * beta * beta + 4 * epsilon
        if target < 0:
            continue
        alpha = is_perfect_square(target)
        if alpha is not None:
            solutions.append((alpha, beta))
    return solutions


def char_poly_multiplicity(l: int) -> int:
    """Cyclotomic multiplicity filling rank-22 cohomology next to a quadratic.

    The complement of a degree-2 factor has dimension 20, so the multiplicity
    is 20 / phi(l): indices 1 and 2 give 20, 5 and 10 give 5, 25 and 50 give 1.
    """
    if type(l) is not int:
        l = _integer(l, "l")
    epsilon_for_index(l)  # validates l
    phi = euler_phi(l)
    mult, rem = divmod(20, phi)
    if rem != 0:
        raise InvariantViolation(f"phi({l}) does not divide 20")
    return mult


