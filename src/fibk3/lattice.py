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
decided in integers by two kernels, which disc_action runs in turn: the
isometry guard _isometry_guard (is_isometry runs it alone) and the
integrality test _eps_integrality. engine.verify_realization runs the
latter alone on (A*B)^n once det (A*B)^n = 1, which for a matrix of that
shape is the guard on [[2, a], [a, -2]]. A lattice is its Gram matrix:
EvenLattice2 has no other field, and no rational inverse: Q^-1 appears only
as adj(Q) over det(Q). The one rational value is DiscriminantAction.matrix,
in fractions.Fraction; there are no floats.
The m of fibonacci_lattice, the power n, epsilon and a word's sign must be
integers (anything operator.index accepts); anything else raises
ValueError("<name> must be an integer"). epsilon and sign must then be +1
or -1 (fibgen._check_sign). The sequence parameter a follows fibgen's one
rule for it (fibgen._check_a).
"""

from __future__ import annotations

from math import gcd
from operator import index

from .errors import InvariantViolation
from .fibgen import _check_a, _check_sign, _fib_pair, _integer, gen_fib
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

_DEGENERATE = "operation requires a non-degenerate lattice"
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
    """Even lattice of rank 2, identified with its Gram matrix: gram is its
    one field, so equality, hash and repr are those of the matrix."""

    gram: Mat2

    def __post_init__(self) -> None:
        g = _as_mat(self.gram)
        object.__setattr__(self, "gram", g)
        if g[0][1] != g[1][0]:
            raise ValueError("Gram matrix must be symmetric")
        if g[0][0] % 2 != 0 or g[1][1] % 2 != 0:
            raise ValueError("even lattice needs even diagonal entries")

    @property
    def disc(self) -> int:
        return _mat_det(self.gram)

    def require_nondegenerate(self) -> None:
        if self.disc == 0:
            raise ValueError(_DEGENERATE)

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
    m = _integer(m, "m")
    if m < 1:
        raise ValueError("m must be >= 1")
    a = _check_a(a)
    return EvenLattice2(((2 * m, a * m), (a * m, -2 * m)))


class Isometry2(Record):
    """2x2 integer matrix, acting on lattice coordinates."""

    matrix: Mat2

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _as_mat(self.matrix))

    @property
    def det(self) -> int:
        return _mat_det(self.matrix)

    def __matmul__(self, other: "Isometry2") -> "Isometry2":
        return Isometry2(_mat_mul(self.matrix, other.matrix))

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        m = self.matrix
        return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def generator_a(a: int) -> Isometry2:
    return Isometry2(((1, 0), (_check_a(a), -1)))


def generator_b(a: int) -> Isometry2:
    return Isometry2(((1, _check_a(a)), (0, -1)))


def ab_power(a: int, n: int) -> Isometry2:
    """(A*B)^n in closed form via generalized Fibonacci entries (any n)."""
    if type(n) is not int:
        n = _integer(n, "n")
    if type(a) is not int or a < 1:
        a = _check_a(a)
    if n >= 1:
        odd, even = _fib_pair(a, 2 * n - 1)
    else:
        odd, even = gen_fib(a, 2 * n - 1), gen_fib(a, 2 * n)
    return Isometry2(((odd, even), (even, a * even + odd)))


_NOT_ISOMETRY = "g is not an isometry of the given lattice"


def _isometry_guard(p: int, q: int, r: int, s: int, e: int, f: int, h: int) -> bool:
    """Whether g = [[p, q], [r, s]] has g^T * Q * g = Q.

    Q = [[e, f], [f, h]] is symmetric, so g^T * Q * g is too and three
    entries decide it; they are taken through the first column
    (ep_fr, fp_hr) of Q * g. A caller that refuses a non-isometry raises
    _NOT_ISOMETRY: as ValueError for a g it was given (disc_action and its
    oracle disc_action_bruteforce, is_plus_isometry, word_decompose), as
    InvariantViolation for one fibk3 computed (engine.verify_realization, by
    the det check that stands in for this guard).
    """
    ep_fr = e * p + f * r
    fp_hr = f * p + h * r
    return (
        p * ep_fr + r * fp_hr == e
        and q * ep_fr + s * fp_hr == f
        and q * (e * q + f * s) + s * (f * q + h * s) == h
    )


def _eps_integrality(
    p: int, q: int, r: int, s: int, e: int, f: int, h: int, d: int, epsilon: int
) -> tuple[int, int, int, int, bool]:
    """The entries n00, n01, n10, n11 of N = (g - epsilon*I) * adj(Q) for
    g = [[p, q], [r, s]] and Q = [[e, f], [f, h]] of determinant d != 0, and
    whether d divides all four. g is taken to be an isometry of Q."""
    p -= epsilon
    s -= epsilon
    n00, n01 = p * h - q * f, q * e - p * f
    n10, n11 = r * h - s * f, s * e - r * f
    holds = n00 % d == 0 and n01 % d == 0 and n10 % d == 0 and n11 % d == 0
    return n00, n01, n10, n11, holds


def is_isometry(g: Isometry2, lat: EvenLattice2) -> bool:
    """Whether g^T * Q * g = Q exactly (_isometry_guard, which disc_action
    also runs)."""
    lat.require_nondegenerate()
    (p, q), (r, s) = g.matrix
    (e, f), (_, h) = lat.gram
    return _isometry_guard(p, q, r, s, e, f, h)


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
    if type(epsilon) is not int or epsilon not in (1, -1):
        epsilon = _check_sign(epsilon, "epsilon")
    (e, f), (_, h) = lat.gram
    d = e * h - f * f
    if d == 0:
        raise ValueError(_DEGENERATE)
    (p, q), (r, s) = g.matrix
    if not _isometry_guard(p, q, r, s, e, f, h):
        raise ValueError(_NOT_ISOMETRY)
    n00, n01, n10, n11, holds = _eps_integrality(p, q, r, s, e, f, h, d, epsilon)
    return DiscriminantAction(epsilon, holds, ((n00, n01), (n10, n11)), d)


def _positive_anchor(lat: EvenLattice2) -> tuple[int, int]:
    """Integer vector of positive square on Q = [[e, f], [f, h]] with det < 0,
    whose component is the designated positive cone.

    (1, 0) for e > 0, of square e: on the standard family e = 2m and the cone
    is {v : v^2 > 0, x > 0}. Else (0, 1) for h > 0, of square h. Else e <= 0
    and h <= 0: (f, -e) has square e*det > 0 for e < 0, and for e = 0, where
    f != 0, (f*(1 - h), 1) has square 2f^2*(1 - h) + h >= 2 - h > 0.
    """
    (e, f), (_, h) = lat.gram
    if e > 0:
        return (1, 0)
    if h > 0:
        return (0, 1)
    return (f, -e) if e else (f * (1 - h), 1)


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
    """Whether g preserves the positive cone, tested on the anchor: g is an
    isometry, so g * anchor keeps the anchor's positive square."""
    if not is_isometry(g, lat):
        raise ValueError(_NOT_ISOMETRY)
    if lat.disc > 0:
        raise ValueError("positive cone needs signature (1, 1)")
    anchor = _positive_anchor(lat)
    return lat.inner(g.apply(anchor), anchor) > 0


class WordDecomposition(Record):
    sign: int
    word: str  # alternating letters over {A, B}


def evaluate_word(sign: int, word: str, a: int) -> Isometry2:
    """Product of the word's letters times the global sign."""
    sign = _check_sign(sign, "sign")
    letters = {"A": generator_a(a).matrix, "B": generator_b(a).matrix}
    m = _IDENTITY
    for ch in word:
        if ch not in ("A", "B"):
            raise ValueError(f"word letters must be A or B, got {ch!r}")
        m = _mat_mul(m, letters[ch])
    if sign == -1:
        m = ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))
    return Isometry2(m)


def _l1(m: Mat2) -> int:
    return abs(m[0][0]) + abs(m[0][1]) + abs(m[1][0]) + abs(m[1][1])


def word_decompose(g: Isometry2, m: int, a: int) -> WordDecomposition:
    """Express the isometry g of L(m, a) as +-(alternating word in A, B).

    Every isometry has this form: O(L(m, a)) = +-<A, B>. The isometries of
    m * [[2, a], [a, -2]] are those of the form x^2 + a*x*y - y^2 of
    discriminant D = a^2 + 4. Its proper automorphs are the
    [[(t - a*u)/2, u], [u, (t + a*u)/2]] with t^2 - D*u^2 = 4, matching the
    units (t + u*sqrt(D))/2 of norm 1. (a, 1) is the least positive solution
    of t^2 - D*u^2 = +-4 (u = 1 is least, and t = a < sqrt(a^2 + 8)), so
    every unit is +-eps^k for eps = (a + sqrt(D))/2, of norm -1; those of
    norm 1 are +-(eps^2)^k. eps^2 has (t, u) = (a^2 + 2, a), which is A*B,
    so the proper automorphs are +-(A*B)^k; A has det -1, so the improper
    ones are those times A.

    One-sided descent: strip from the right whichever of A and B lowers the
    entrywise L1 norm (the letters are involutions, so stripping is
    multiplication), and stop at +-identity. Every element of +-<A, B> is
    +-w for one alternating word w, and the entries of w are, up to sign,
    generalized Fibonacci numbers a_j whose indices grow with the length of
    w, so extending w by a letter raises its norm. Hence the last letter of
    w is the one letter whose removal lowers the norm, and the descent
    reaches +-identity in len(w) steps. The letter just stripped is never
    chosen again, as it would restore the larger matrix, so the stripped
    letters alternate. A step with no such letter, or a reconstruction that
    does not re-multiply to g, raises InvariantViolation.
    """
    lat = fibonacci_lattice(m, a)
    if not is_isometry(g, lat):
        raise ValueError(_NOT_ISOMETRY)
    letters = (("A", generator_a(a).matrix), ("B", generator_b(a).matrix))
    cur = g.matrix
    stripped: list[str] = []
    while cur not in (_IDENTITY, _MINUS_IDENTITY):
        norm = _l1(cur)
        for letter, mat in letters:
            candidate = _mat_mul(cur, mat)
            if _l1(candidate) < norm:
                break
        else:
            raise InvariantViolation(f"no letter shortens the isometry {cur} of L({m}, {a})")
        cur = candidate
        stripped.append(letter)
    sign = 1 if cur == _IDENTITY else -1
    word = "".join(reversed(stripped))
    if evaluate_word(sign, word, a).matrix != g.matrix:
        raise InvariantViolation("word reconstruction failed to reproduce the input")
    return WordDecomposition(sign, word)


# ---------------------------------------------------------------------------
# Brute-force discriminant-group oracle (used by self-tests, not production).
# ---------------------------------------------------------------------------


def _hermite_basis(lat: EvenLattice2) -> tuple[int, int, int, int]:
    """(d, pivot, shift, step) describing the discriminant group of lat.

    The dual lattice in basis coordinates is (1/det) * adj(Q) * Z^2, so the
    coset group is the image in (Z/d)^2, d = |disc|, of the lattice spanned
    by the adjugate rows (h, -f), (-f, e) and by (d, 0), (0, d). Euclid on
    the first column brings it to Hermite normal form: one row (pivot,
    shift) and the rows (0, step * Z), with pivot and step dividing d. The
    group is then {(i*pivot, y) : 0 <= i < d/pivot, y = i*shift mod step,
    0 <= y < d}, of order d/pivot * d/step, which must equal d.
    """
    lat.require_nondegenerate()
    d = abs(lat.disc)
    (e, f), (_, h) = lat.gram
    pivot, shift, step = d, 0, d
    for x, y in ((h % d, -f % d), (-f % d, e % d)):
        while x:
            q = pivot // x
            pivot, shift, x, y = x, y, pivot - q * x, shift - q * y
        step = gcd(step, y)
    order = (d // pivot) * (d // step)
    if order != d:
        raise InvariantViolation(f"discriminant group has order {order}, expected {d}")
    return d, pivot, shift, step


def enumerate_discriminant_cosets(lat: EvenLattice2) -> tuple[int, list[tuple[int, int]]]:
    """(d, all cosets of the discriminant group as pairs modulo d = |disc|),
    listed in sorted order from _hermite_basis: the reference list for the
    in-place walk of disc_action_bruteforce."""
    d, pivot, shift, step = _hermite_basis(lat)
    return d, [
        (i * pivot, y) for i in range(d // pivot) for y in range(i * shift % step, d, step)
    ]


def disc_action_bruteforce(g: Isometry2, lat: EvenLattice2, epsilon: int) -> bool:
    """Check g == epsilon*id on every discriminant coset by direct enumeration.

    A g that is not an isometry of lat gets disc_action's ValueError. The
    cosets are walked in place from _hermite_basis, in O(1) memory and in
    sorted order, and every one is tested, up to the first that g moves.
    Within one Hermite row the cosets are (x1, y0 + j*step), so the image
    (u, v) of (g - epsilon*I) moves by (b01*step, b11*step) mod d from one
    coset to the next: it is carried as residues in [0, d), one add and one
    conditional subtract each per coset.
    """
    if type(epsilon) is not int or epsilon not in (1, -1):
        epsilon = _check_sign(epsilon, "epsilon")
    d, pivot, shift, step = _hermite_basis(lat)
    (p, q), (r, s) = g.matrix
    (e, f), (_, h) = lat.gram
    if not _isometry_guard(p, q, r, s, e, f, h):
        raise ValueError(_NOT_ISOMETRY)
    b00, b01 = (p - epsilon) % d, q % d
    b10, b11 = r % d, (s - epsilon) % d
    du, dv = b01 * step % d, b11 * step % d
    row = range(d // step)
    for i in range(d // pivot):
        x1, y0 = i * pivot, i * shift % step
        u, v = (b00 * x1 + b01 * y0) % d, (b10 * x1 + b11 * y0) % d
        for _ in row:
            if u or v:
                return False
            u += du
            if u >= d:
                u -= d
            v += dv
            if v >= d:
                v -= d
    return True
