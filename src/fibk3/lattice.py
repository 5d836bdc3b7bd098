"""Rank-2 even lattices, their isometries, and discriminant-group actions.

The central family is the indefinite even lattice with Gram matrix

    m * [[2, a], [a, -2]],   m >= 1, a >= 1,

of discriminant -m^2 (a^2 + 4) and signature (1, 1). Its isometry group is
generated (up to sign) by the involutions

    A = [[1, 0], [a, -1]],   B = [[1, a], [0, -1]],

and the powers of A*B have generalized Fibonacci entries:

    (A*B)^n = [[a_{2n-1}, a_{2n}], [a_{2n}, a_{2n+1}]].

Whether an isometry g acts on the discriminant group as +id or -id reduces to
an exact integrality test: (g - eps*I) * Q^-1 must be an integer matrix, i.e.
every entry of (g - eps*I) * adj(Q) must be divisible by det(Q). The test is
decided in integers by one kernel, _disc_kernel, which is_isometry,
disc_action and engine.verify_realization share; rationals are
fractions.Fraction; there are no floats. The m and a of fibonacci_lattice,
the power n and epsilon must be integers (anything operator.index accepts);
anything else raises ValueError("<name> must be an integer").
"""

from __future__ import annotations

from functools import cached_property
from operator import index

from .errors import InvariantViolation
from .fibgen import _check_a, _fib_pair, _integer, gen_fib
from ._record import Record

__all__ = [
    "EvenLattice2",
    "Isometry2",
    "DiscriminantAction",
    "WordDecomposition",
    "fibonacci_lattice",
    "generator_a",
    "generator_b",
    "ab_power",
    "is_isometry",
    "disc_action",
    "in_positive_cone",
    "is_plus_isometry",
    "word_decompose",
    "evaluate_word",
    "enumerate_discriminant_cosets",
    "disc_action_bruteforce",
]

Mat2 = tuple[tuple[int, int], tuple[int, int]]

_IDENTITY: Mat2 = ((1, 0), (0, 1))
_MINUS_IDENTITY: Mat2 = ((-1, 0), (0, -1))


def _mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _mat_det(x: Mat2) -> int:
    return x[0][0] * x[1][1] - x[0][1] * x[1][0]


def _as_mat(rows) -> Mat2:
    try:
        (p, q), (r, s) = rows
    except (TypeError, ValueError):
        raise ValueError("a 2x2 matrix is required") from None
    try:
        return ((index(p), index(q)), (index(r), index(s)))
    except TypeError:
        raise ValueError("matrix entries must be integers") from None


class EvenLattice2(Record):
    """Even lattice of rank 2, identified with its Gram matrix.

    m and a record provenance when the lattice was built from the standard
    family; they are None for ad-hoc Gram matrices.
    """

    gram: Mat2
    m: int | None = None
    a: int | None = None

    def __post_init__(self) -> None:
        g = _as_mat(self.gram)
        object.__setattr__(self, "gram", g)
        if g[0][1] != g[1][0]:
            raise ValueError("Gram matrix must be symmetric")
        if g[0][0] % 2 != 0 or g[1][1] % 2 != 0:
            raise ValueError("even lattice needs even diagonal entries")
        if (self.m is None) != (self.a is None):
            raise ValueError("provenance requires both m and a")
        if self.m is not None:
            expected = (
                (2 * self.m, self.a * self.m),
                (self.a * self.m, -2 * self.m),
            )
            if g != expected:
                raise ValueError("Gram matrix does not match the (m, a) provenance")

    @property
    def disc(self) -> int:
        return _mat_det(self.gram)

    def require_nondegenerate(self) -> None:
        if self.disc == 0:
            raise ValueError("operation requires a non-degenerate lattice")

    def gram_inverse(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        """Exact inverse as adjugate over determinant."""
        from fractions import Fraction  # imported on use, to keep start-up cheap

        self.require_nondegenerate()
        d = self.disc
        g = self.gram
        return (
            (Fraction(g[1][1], d), Fraction(-g[0][1], d)),
            (Fraction(-g[1][0], d), Fraction(g[0][0], d)),
        )

    @cached_property
    def discriminant_cosets(self) -> tuple[int, list[tuple[int, int]]]:
        """enumerate_discriminant_cosets(self), computed once per lattice.

        The result lives in the instance, so it is freed with the lattice.
        """
        return enumerate_discriminant_cosets(self)

    def inner(self, u: tuple[int, int], v: tuple[int, int]) -> int:
        g = self.gram
        return (
            u[0] * (g[0][0] * v[0] + g[0][1] * v[1])
            + u[1] * (g[1][0] * v[0] + g[1][1] * v[1])
        )

    def square(self, v: tuple[int, int]) -> int:
        return self.inner(v, v)


def fibonacci_lattice(m: int, a: int) -> EvenLattice2:
    """The even lattice with Gram matrix m*[[2, a], [a, -2]]."""
    if type(m) is not int:
        m = _integer(m, "m")
    if type(a) is not int:
        a = _integer(a, "a")
    if m < 1:
        raise ValueError("m must be >= 1")
    if a < 1:
        raise ValueError("a must be >= 1")
    return EvenLattice2(((2 * m, a * m), (a * m, -2 * m)), m=m, a=a)


class Isometry2(Record):
    """2x2 integer matrix, acting on lattice coordinates."""

    matrix: Mat2

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _as_mat(self.matrix))

    @property
    def det(self) -> int:
        return _mat_det(self.matrix)

    @property
    def trace(self) -> int:
        return self.matrix[0][0] + self.matrix[1][1]

    def __matmul__(self, other: "Isometry2") -> "Isometry2":
        return Isometry2(_mat_mul(self.matrix, other.matrix))

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        m = self.matrix
        return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def generator_a(a: int) -> Isometry2:
    return Isometry2(((1, 0), (a, -1)))


def generator_b(a: int) -> Isometry2:
    return Isometry2(((1, a), (0, -1)))


def ab_power(a: int, n: int) -> Isometry2:
    """(A*B)^n in closed form via generalized Fibonacci entries (any n)."""
    if type(n) is not int:
        n = _integer(n, "n")
    if a < 1:
        raise ValueError("a must be >= 1")
    if n >= 1:
        _check_a(a)
        odd, even = _fib_pair(a, 2 * n - 1)
    else:
        odd, even = gen_fib(a, 2 * n - 1), gen_fib(a, 2 * n)
    return Isometry2(((odd, even), (even, a * even + odd)))


def _disc_kernel(
    p: int, q: int, r: int, s: int, e: int, f: int, h: int, epsilon: int
) -> tuple[int, int, int, int, bool]:
    """The eps*id test for g = [[p, q], [r, s]] on Q = [[e, f], [f, h]], in ints.

    Q must be non-degenerate. Raises ValueError unless g^T * Q * g = Q (Q is
    symmetric, so g^T * Q * g is too and three entries decide it). Returns
    the entries n00, n01, n10, n11 of N = (g - epsilon*I) * adj(Q) and
    whether det(Q) divides all four.
    """
    if not (
        e * p * p + 2 * f * p * r + h * r * r == e
        and e * p * q + f * (p * s + q * r) + h * r * s == f
        and e * q * q + 2 * f * q * s + h * s * s == h
    ):
        raise ValueError("g is not an isometry of the given lattice")
    d = e * h - f * f
    p -= epsilon
    s -= epsilon
    n00, n01 = p * h - q * f, q * e - p * f
    n10, n11 = r * h - s * f, s * e - r * f
    holds = n00 % d == 0 and n01 % d == 0 and n10 % d == 0 and n11 % d == 0
    return n00, n01, n10, n11, holds


def is_isometry(g: Isometry2, lat: EvenLattice2) -> bool:
    """Whether g^T * Q * g = Q exactly (the isometry test of _disc_kernel)."""
    lat.require_nondegenerate()
    (p, q), (r, s) = g.matrix
    (e, f), (_, h) = lat.gram
    try:
        _disc_kernel(p, q, r, s, e, f, h, 1)
    except ValueError:
        return False
    return True


class DiscriminantAction(Record):
    """Result of the eps*id test on the discriminant group.

    numerators is the integer matrix N = (g - epsilon*I) * adj(Q) and disc is
    det(Q); holds is whether disc divides every entry of N. matrix is
    (g - epsilon*I) * Q^-1 = N / disc in exact rationals, built on access.
    """

    epsilon: int
    holds: bool
    numerators: Mat2
    disc: int

    @property
    def matrix(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        from fractions import Fraction  # imported on use, to keep start-up cheap

        return tuple(tuple(Fraction(x, self.disc) for x in row) for row in self.numerators)


def disc_action(g: Isometry2, lat: EvenLattice2, epsilon: int) -> DiscriminantAction:
    """Whether g acts on the discriminant group as epsilon * id.

    Decided by integrality of (g - epsilon*I) * Q^-1 = N / det(Q) with
    N = (g - epsilon*I) * adj(Q), an integer matrix: it holds exactly when
    det(Q) divides every entry of N. For g = (A*B)^n on the standard lattice
    the (0, 0) entry of N / det(Q) is
    ((a^2+4)*a_n^2 + (-1)^n*2 - 2*epsilon) / (m*(a^2+4)).
    """
    if type(epsilon) is not int:
        epsilon = _integer(epsilon, "epsilon")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    lat.require_nondegenerate()
    (p, q), (r, s) = g.matrix
    (e, f), (_, h) = lat.gram
    n00, n01, n10, n11, holds = _disc_kernel(p, q, r, s, e, f, h, epsilon)
    return DiscriminantAction(epsilon, holds, ((n00, n01), (n10, n11)), lat.disc)


def _positive_anchor(lat: EvenLattice2) -> tuple[int, int]:
    """Deterministic integer vector of positive square, fixing the cone choice.

    For the standard family this is (1, 0), whose square is 2m > 0; the cone
    containing it is then exactly {v : v^2 > 0, x > 0}.
    """
    if lat.square((1, 0)) > 0:
        return (1, 0)
    for radius in range(1, 64):
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                if max(abs(x), abs(y)) == radius and lat.square((x, y)) > 0:
                    return (x, y)
    raise InvariantViolation("no positive vector found in an indefinite lattice")


def in_positive_cone(v: tuple[int, int], lat: EvenLattice2) -> bool:
    """Membership of v in the designated positive-cone component.

    Requires signature (1, 1), i.e. negative discriminant. A vector of
    positive square lies in the same component as the anchor exactly when
    their inner product is positive.
    """
    lat.require_nondegenerate()
    if lat.disc > 0:
        raise ValueError("positive cone needs signature (1, 1)")
    if lat.square(v) <= 0:
        return False
    return lat.inner(v, _positive_anchor(lat)) > 0


def is_plus_isometry(g: Isometry2, lat: EvenLattice2) -> bool:
    """Whether g preserves the positive cone (tested on one interior vector)."""
    if not is_isometry(g, lat):
        raise ValueError("g is not an isometry of the given lattice")
    if lat.disc > 0:
        raise ValueError("positive cone needs signature (1, 1)")
    anchor = _positive_anchor(lat)
    return in_positive_cone(g.apply(anchor), lat)


class WordDecomposition(Record):
    sign: int
    word: str  # alternating letters over {A, B}


def evaluate_word(sign: int, word: str, a: int) -> Isometry2:
    """Product of the word's letters times the global sign."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    letters = {"A": generator_a(a), "B": generator_b(a)}
    acc = Isometry2(_IDENTITY)
    for ch in word:
        acc = acc @ letters[ch]
    m = acc.matrix
    if sign == -1:
        m = ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))
    return Isometry2(m)


def _l1(m: Mat2) -> int:
    return abs(m[0][0]) + abs(m[0][1]) + abs(m[1][0]) + abs(m[1][1])


def word_decompose(g: Isometry2, m: int, a: int) -> WordDecomposition | None:
    """Express g as +-(alternating word in A, B), or None when impossible.

    Greedy reduction: strip a leading or trailing A or B, always choosing an
    option that strictly decreases the entrywise L1 norm (the letters are
    involutions, so stripping is multiplication). The norm decrease rules out
    cycles; stalling before reaching +-identity reports not-in-group. The
    reconstruction is re-multiplied and verified before returning.
    """
    lat = fibonacci_lattice(m, a)
    if not is_isometry(g, lat):
        raise ValueError("g is not an isometry of the given lattice")
    mat_a = generator_a(a).matrix
    mat_b = generator_b(a).matrix
    cur = g.matrix
    prefix: list[str] = []
    suffix: list[str] = []
    while cur not in (_IDENTITY, _MINUS_IDENTITY):
        options = (
            ("suffix", "A", _mat_mul(cur, mat_a)),
            ("suffix", "B", _mat_mul(cur, mat_b)),
            ("prefix", "A", _mat_mul(mat_a, cur)),
            ("prefix", "B", _mat_mul(mat_b, cur)),
        )
        best = None
        norm = _l1(cur)
        for side, letter, candidate in options:
            cnorm = _l1(candidate)
            if cnorm < norm and (best is None or cnorm < best[0]):
                best = (cnorm, side, letter, candidate)
        if best is None:
            return None
        _, side, letter, cur = best
        if side == "suffix":
            suffix.append(letter)
        else:
            prefix.append(letter)
    sign = 1 if cur == _IDENTITY else -1
    # cancel adjacent equal letters (the generators are involutions)
    reduced: list[str] = []
    for ch in prefix + list(reversed(suffix)):
        if reduced and reduced[-1] == ch:
            reduced.pop()
        else:
            reduced.append(ch)
    word = "".join(reduced)
    if evaluate_word(sign, word, a).matrix != g.matrix:
        raise InvariantViolation("word reconstruction failed to reproduce the input")
    return WordDecomposition(sign, word)


# ---------------------------------------------------------------------------
# Brute-force discriminant-group oracle (used by self-tests, not production).
# ---------------------------------------------------------------------------


def enumerate_discriminant_cosets(lat: EvenLattice2) -> tuple[int, list[tuple[int, int]]]:
    """All cosets of the discriminant group as integer pairs modulo |disc|.

    The dual lattice in basis coordinates is (1/det) * adj(Q) * Z^2, so the
    coset group is generated inside (Z/d)^2 by the adjugate columns g1, g2,
    d=|disc|. It is the disjoint union of the translates <g1> + j*g2 for
    0 <= j < t, where t is the least j >= 1 with j*g2 in <g1>.
    Returns (d, sorted cosets); the count must equal d.
    """
    lat.require_nondegenerate()
    d = abs(lat.disc)
    (e, f), (_, h) = lat.gram
    u1, v1, u2, v2 = h % d, -f % d, -f % d, e % d
    cyclic = [(0, 0)]
    x, y = u1, v1
    while x or y:
        cyclic.append((x, y))
        x, y = (x + u1) % d, (y + v1) % d
    subgroup = set(cyclic)
    group = list(cyclic)
    x, y = u2, v2
    while (x, y) not in subgroup:
        group.extend(((x + c1) % d, (y + c2) % d) for c1, c2 in cyclic)
        x, y = (x + u2) % d, (y + v2) % d
    if len(group) != d:
        raise InvariantViolation(
            f"discriminant group has order {len(group)}, expected {d}"
        )
    return d, sorted(group)


def disc_action_bruteforce(g: Isometry2, lat: EvenLattice2, epsilon: int) -> bool:
    """Check g == epsilon*id on every discriminant coset by direct enumeration.

    The cosets are enumerated once per lattice (EvenLattice2.discriminant_cosets)
    and every one of them is tested on each call.
    """
    if type(epsilon) is not int:
        epsilon = _integer(epsilon, "epsilon")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    d, cosets = lat.discriminant_cosets
    m = g.matrix
    b00 = (m[0][0] - epsilon) % d
    b01 = m[0][1] % d
    b10 = m[1][0] % d
    b11 = (m[1][1] - epsilon) % d
    return all(
        (b00 * x1 + b01 * x2) % d == 0 and (b10 * x1 + b11 * x2) % d == 0
        for x1, x2 in cosets
    )
