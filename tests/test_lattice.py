import math
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fibk3.lattice as lattice_module
from fibk3.errors import InvariantViolation
from fibk3.fibgen import gen_fib
from fibk3.lattice import (
    EvenLattice2,
    Isometry2,
    ab_power,
    disc_action,
    disc_action_bruteforce,
    enumerate_discriminant_cosets,
    evaluate_word,
    fibonacci_lattice,
    generator_a,
    generator_b,
    in_positive_cone,
    is_isometry,
    is_plus_isometry,
    word_decompose,
)


class TestLatticeConstruction:
    def test_doubled_gram(self):
        assert fibonacci_lattice(2, 1).gram == ((4, 2), (2, -4))

    def test_unit_gram(self):
        assert fibonacci_lattice(1, 2).gram == ((2, 2), (2, -2))

    def test_discriminant(self):
        assert fibonacci_lattice(3, 1).disc == -45
        assert fibonacci_lattice(5, 2).disc == -25 * 8

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            fibonacci_lattice(0, 1)
        with pytest.raises(ValueError):
            fibonacci_lattice(1, 0)

    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError):
            EvenLattice2(((1, 0), (0, 2)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            EvenLattice2(((2, 1), (0, -2)))

    @pytest.mark.parametrize("bad", [((2.5, 1), (1, 2)), ((2, "1"), ("1", 2)), ((2.0, 1), (1, 2))])
    def test_rejects_non_integer_gram(self, bad):
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            EvenLattice2(bad)

    @pytest.mark.parametrize("bad", [((2, 1),), ((2, 1, 0), (1, 2, 0)), (2, 1, 1, 2), None])
    def test_rejects_non_square_shape(self, bad):
        with pytest.raises(ValueError, match="a 2x2 matrix is required"):
            EvenLattice2(bad)


class TestIsometries:
    def test_float_entries_are_refused_not_truncated(self):
        # int() would truncate this to the identity, an isometry of every lattice
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            Isometry2(((1.7, 0.2), (0.4, 1.3)))
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            Isometry2((("3", 0), (0, 1)))

    def test_integer_like_entries_become_ints(self):
        g = Isometry2([[True, 0], [0, 1]])
        assert g.matrix == ((1, 0), (0, 1))
        assert all(type(x) is int for row in g.matrix for x in row)

    def test_generator_is_isometry(self):
        assert is_isometry(generator_a(1), fibonacci_lattice(1, 1))

    def test_identity_is_isometry(self):
        for m, a in ((1, 1), (3, 1), (7, 4)):
            assert is_isometry(Isometry2(((1, 0), (0, 1))), fibonacci_lattice(m, a))

    def test_shear_is_not(self):
        assert not is_isometry(Isometry2(((1, 1), (0, 1))), fibonacci_lattice(1, 1))

    def test_ab_power_values(self):
        assert ab_power(1, 1).matrix == ((1, 1), (1, 2))
        assert ab_power(1, 0).matrix == ((1, 0), (0, 1))
        assert ab_power(1, 2).matrix == ((2, 3), (3, 5))

    @given(st.integers(1, 5), st.integers(-20, 40), st.sampled_from([1, 2, 3, 7]))
    def test_ab_power_is_isometry_for_every_m(self, a, n, m):
        assert is_isometry(ab_power(a, n), fibonacci_lattice(m, a))

    @given(st.integers(1, 4), st.integers(-15, 15), st.integers(-15, 15))
    def test_negative_powers_invert(self, a, i, j):
        prod = ab_power(a, i) @ ab_power(a, j)
        assert prod.matrix == ab_power(a, i + j).matrix


class TestDiscriminantAction:
    def test_positive_case_even(self):
        assert disc_action(ab_power(1, 4), fibonacci_lattice(3, 1), 1).holds

    def test_positive_case_odd(self):
        assert disc_action(ab_power(1, 7), fibonacci_lattice(13, 1), -1).holds

    def test_failing_case(self):
        assert not disc_action(ab_power(1, 3), fibonacci_lattice(2, 1), 1).holds

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            disc_action(Isometry2(((1, 1), (0, 1))), fibonacci_lattice(2, 1), 1)

    def test_disc_action_matrix_values(self):
        assert all(
            entry.denominator == 1
            for row in disc_action(ab_power(1, 4), fibonacci_lattice(3, 1), 1).matrix
            for entry in row
        )
        assert any(
            entry.denominator != 1
            for row in disc_action(ab_power(1, 2), fibonacci_lattice(5, 1), 1).matrix
            for entry in row
        )

    @given(
        st.integers(1, 12),
        st.integers(2, 20),
        st.integers(1, 3),
        st.sampled_from([1, -1]),
    )
    def test_integrality_closed_form_corner(self, n, m, a, eps):
        matrix = disc_action(ab_power(a, n), fibonacci_lattice(m, a), eps).matrix
        d = a * a + 4
        fn = gen_fib(a, n)
        expected = Fraction(d * fn * fn + (2 if n % 2 == 0 else -2) - 2 * eps, m * d)
        assert matrix[0][0] == expected

    def test_coset_count_equals_discriminant(self):
        for m, a in ((2, 1), (3, 1), (5, 2), (4, 3)):
            d, cosets = enumerate_discriminant_cosets(fibonacci_lattice(m, a))
            assert len(cosets) == d == m * m * (a * a + 4)


def rational_disc_action(g, lat, eps):
    """(g - eps*I) * Q^-1 in Fraction arithmetic, with Q^-1 = adj(Q) / det(Q)
    built here, so that the reference shares no code with the library."""
    (e, f), (h, k) = lat.gram
    d = e * k - f * h
    qinv = ((Fraction(k, d), Fraction(-f, d)), (Fraction(-h, d), Fraction(e, d)))
    m = g.matrix
    shifted = ((m[0][0] - eps, m[0][1]), (m[1][0], m[1][1] - eps))
    matrix = tuple(
        tuple(sum(shifted[i][k] * qinv[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )
    return matrix, all(entry.denominator == 1 for row in matrix for entry in row)


# non-family Gram matrices, each with isometries beyond +-identity
AD_HOC_ISOMETRIES = [
    (((2, 1), (1, 2)), ((0, 1), (1, 0))),
    (((4, 1), (1, 4)), ((0, -1), (-1, 0))),
    (((2, 0), (0, -6)), ((1, 0), (0, -1))),
    (((0, 3), (3, 0)), ((0, 1), (1, 0))),
    (((2, 3), (3, 4)), ((1, 3), (0, -1))),
    (((6, 0), (0, 10)), ((-1, 0), (0, 1))),
]


class TestIntegerDiscAction:
    """disc_action decides in integers; the Fraction product with
    adj(Q) / det(Q) is the reference it must reproduce exactly."""

    @staticmethod
    def assert_matches_rationals(g, lat, eps):
        action = disc_action(g, lat, eps)
        matrix, holds = rational_disc_action(g, lat, eps)
        assert action.matrix == matrix and action.holds == holds
        assert all(type(entry) is Fraction for row in action.matrix for entry in row)
        # the integer fields are the matrix scaled by det(Q)
        assert action.disc == lat.disc and action.epsilon == eps
        assert action.numerators == tuple(tuple(x * lat.disc for x in row) for row in matrix)
        assert action == disc_action(g, lat, eps)

    def test_standard_family(self):
        for a in range(1, 5):
            for n in range(-3, 41):
                g = ab_power(a, n)
                for m in range(1, 13):
                    lat = fibonacci_lattice(m, a)
                    for eps in (1, -1):
                        self.assert_matches_rationals(g, lat, eps)

    @pytest.mark.parametrize("gram, iso", AD_HOC_ISOMETRIES)
    def test_ad_hoc_lattices(self, gram, iso):
        lat = EvenLattice2(gram)
        for matrix in (iso, ((1, 0), (0, 1)), ((-1, 0), (0, -1))):
            g = Isometry2(matrix)
            assert is_isometry(g, lat)
            for eps in (1, -1):
                self.assert_matches_rationals(g, lat, eps)

    def test_degenerate_lattice_is_refused(self):
        with pytest.raises(ValueError):
            disc_action(Isometry2(((1, 0), (0, 1))), EvenLattice2(((2, 2), (2, 2))), 1)


even_grams = st.tuples(st.integers(-8, 8), st.integers(-12, 12), st.integers(-8, 8)).map(
    lambda t: ((2 * t[0], t[1]), (t[1], 2 * t[2]))
)
small_matrices = st.tuples(*[st.integers(-7, 7)] * 4).map(lambda t: ((t[0], t[1]), (t[2], t[3])))


def listed_disc_action(g, lat, eps):
    """g == eps*id tested on every coset of enumerate_discriminant_cosets."""
    d, cosets = enumerate_discriminant_cosets(lat)
    (p, q), (r, s) = g.matrix
    return all(
        ((p - eps) * x1 + q * x2) % d == 0 and (r * x1 + (s - eps) * x2) % d == 0
        for x1, x2 in cosets
    )


class TestOracleWalk:
    """disc_action_bruteforce walks the Hermite basis in place: it equals the
    test over the listed cosets and disc_action, and keeps no coset list."""

    @staticmethod
    def assert_agrees(g, lat, eps):
        want = disc_action(g, lat, eps).holds
        assert listed_disc_action(g, lat, eps) == want
        assert disc_action_bruteforce(g, lat, eps) == want

    def test_family_grid(self):
        for a in range(1, 5):
            for m in range(1, 13):
                lat = fibonacci_lattice(m, a)
                for n in range(-3, 25):
                    for eps in (1, -1):
                        self.assert_agrees(ab_power(a, n), lat, eps)

    @pytest.mark.parametrize("gram, iso", AD_HOC_ISOMETRIES)
    def test_ad_hoc_lattices(self, gram, iso):
        lat = EvenLattice2(gram)
        for matrix in (iso, ((1, 0), (0, 1)), ((-1, 0), (0, -1))):
            for eps in (1, -1):
                self.assert_agrees(Isometry2(matrix), lat, eps)

    @settings(max_examples=300)
    @given(even_grams, small_matrices, st.sampled_from([1, -1]))
    @example(((-14, -9), (-9, -6)), ((1, 0), (0, 1)), -1)  # one Hermite row: pivot = d = 3
    def test_refuses_exactly_when_disc_action_does(self, gram, matrix, eps):
        lat = EvenLattice2(gram)
        for g in map(Isometry2, (matrix, ((1, 0), (0, 1)), ((-1, 0), (0, -1)))):
            try:
                disc_action(g, lat, eps)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    disc_action_bruteforce(g, lat, eps)
            else:
                self.assert_agrees(g, lat, eps)

    @pytest.mark.parametrize(
        "gram, matrix, eps, basis, holds",
        [
            # b01 = -2 and b01*step = -16 = 0 mod d, so every coset is visited
            (((-8, -8), (-8, -6)), ((-1, -2), (0, 1)), -1, (16, 2, 8), True),
            (((-8, -8), (-8, -6)), ((-1, -2), (0, 1)), 1, (16, 2, 8), False),
            # step = d/2 on L(2, 1) with (A*B)^3: b01*step = 80 = 0 mod d
            (((4, 2), (2, -4)), ((5, 8), (8, 13)), -1, (20, 2, 10), True),
            (((4, 2), (2, -4)), ((5, 8), (8, 13)), 1, (20, 2, 10), False),
            (((-8, -10), (-10, -8)), ((0, -1), (-1, 0)), 1, (36, 2, 18), False),
            # step = d on L(1, 1) with (A*B)^-6: one coset a row
            (((2, 1), (1, -2)), ((233, -144), (-144, 89)), 1, (5, 1, 5), True),
            # one Hermite row (pivot = d), and b11*step = 2 = d - 1 for eps = -1
            (((-2, -3), (-3, -6)), ((-2, -3), (1, 1)), 1, (3, 3, 1), True),
            (((-2, -3), (-3, -6)), ((-2, -3), (1, 1)), -1, (3, 3, 1), False),
        ],
    )
    def test_additive_walk_edges(self, gram, matrix, eps, basis, holds):
        """Within a Hermite row the image (u, v) moves by (b01*step,
        b11*step) mod d per coset. The wrap u -= d (and v -= d) is an
        equivalent mutant: the walk stops at the first nonzero image, so
        each step starts from u = v = 0 and lands on b01*step mod d < d.
        It is kept so that u and v are the exact image coordinates."""
        lat, g = EvenLattice2(gram), Isometry2(matrix)
        d, pivot, _, step = lattice_module._hermite_basis(lat)
        assert (d, pivot, step) == basis
        assert disc_action_bruteforce(g, lat, eps) is holds
        self.assert_agrees(g, lat, eps)

    def test_refuses_a_non_isometry(self):
        g, lat = Isometry2(((21, 0), (0, 1))), fibonacci_lattice(2, 1)
        assert not is_isometry(g, lat)
        for fn in (disc_action, disc_action_bruteforce):
            with pytest.raises(ValueError, match="^g is not an isometry of the given lattice$"):
                fn(g, lat, 1)

    def test_walk_holds_no_coset_list(self):
        # the identity with eps = 1 fixes every coset, so all 11,700 are
        # tested; a list of them as tuples would take about 1.4 MB
        lat, g = fibonacci_lattice(30, 3), Isometry2(((1, 0), (0, 1)))
        assert abs(lat.disc) == 11_700
        tracemalloc.start()
        try:
            assert disc_action_bruteforce(g, lat, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    def test_answers_without_the_listing(self, monkeypatch):
        def refuse(lat):
            raise AssertionError("the oracle listed the cosets")

        monkeypatch.setattr(lattice_module, "enumerate_discriminant_cosets", refuse)
        lat = fibonacci_lattice(6, 2)
        assert disc_action_bruteforce(ab_power(2, 1), lat, 1) is False
        assert disc_action_bruteforce(Isometry2(((1, 0), (0, 1))), lat, 1) is True

    def test_order_check_catches_a_wrong_step(self, monkeypatch):
        # a mutant whose gcd doubles step leaves fewer than d cosets
        monkeypatch.setattr(lattice_module, "gcd", lambda x, y: 2 * math.gcd(x, y))
        lat = fibonacci_lattice(3, 1)
        order = r"^discriminant group has order \d+, expected 45$"
        with pytest.raises(InvariantViolation, match=order):
            enumerate_discriminant_cosets(lat)
        with pytest.raises(InvariantViolation, match=order):
            disc_action_bruteforce(ab_power(1, 2), lat, 1)


class TestPositiveCone:
    def test_examples(self):
        lat = fibonacci_lattice(3, 1)
        assert in_positive_cone((1, 0), lat)
        assert not in_positive_cone((0, 1), lat)
        assert not in_positive_cone((-1, 0), lat)

    def test_reduces_to_sign_of_x_on_standard_family(self):
        for m, a in ((1, 1), (3, 1), (2, 3)):
            lat = fibonacci_lattice(m, a)
            for x in range(-6, 7):
                for y in range(-6, 7):
                    expected = lat.square((x, y)) > 0 and x > 0
                    assert in_positive_cone((x, y), lat) == expected

    def test_rejects_definite_lattice(self):
        lat = EvenLattice2(((2, 0), (0, 2)))
        with pytest.raises(ValueError):
            in_positive_cone((1, 0), lat)
        with pytest.raises(ValueError, match="^positive cone needs signature"):
            is_plus_isometry(Isometry2(((1, 0), (0, 1))), lat)

    def test_plus_isometries(self):
        assert is_plus_isometry(generator_a(1), fibonacci_lattice(4, 1))
        assert not is_plus_isometry(
            Isometry2(((-1, 0), (0, -1))), fibonacci_lattice(4, 1)
        )
        assert is_plus_isometry(ab_power(1, 5), fibonacci_lattice(2, 1))

    def test_plus_isometry_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            is_plus_isometry(Isometry2(((2, 0), (0, 1))), fibonacci_lattice(2, 1))

    def test_plus_isometry_searches_the_anchor_once(self, monkeypatch):
        calls = []
        search = lattice_module._positive_anchor

        def counted(lat):
            calls.append(lat)
            return search(lat)

        monkeypatch.setattr(lattice_module, "_positive_anchor", counted)
        assert is_plus_isometry(ab_power(1, 3), fibonacci_lattice(5, 1))
        assert len(calls) == 1

    # The closed forms for e < 0 and for e = 0 (h <= 0 in both), on lattices
    # where every vector of positive square has a coordinate above 63 in
    # absolute value.
    @pytest.mark.parametrize(
        "gram, anchor, inside",
        [(((-200, 1), (1, 0)), (1, 200), (1, 150)), (((0, 1), (1, -200)), (201, 1), (101, 1))],
        ids=["negative-e", "zero-e"],
    )
    def test_anchor_beyond_the_scan(self, gram, anchor, inside):
        lat = EvenLattice2(gram)
        assert lattice_module._positive_anchor(lat) == anchor
        assert lat.square(anchor) > 0
        assert in_positive_cone(inside, lat)
        assert not in_positive_cone((-inside[0], -inside[1]), lat)

    @settings(max_examples=300)
    @given(even_grams)
    @example(((-4, 3), (3, -2)))  # e < 0 and h < 0
    @example(((0, 5), (5, -6)))  # e = 0 and h < 0
    @example(((-6, 1), (1, 4)))  # e < 0 and h > 0
    def test_anchor_has_positive_square(self, gram):
        lat = EvenLattice2(gram)
        assume(lat.disc < 0)
        anchor = lattice_module._positive_anchor(lat)
        assert lat.square(anchor) > 0
        assert anchor == (1, 0) or gram[0][0] <= 0

    def test_anchor_on_a_lattice_with_negative_e(self):
        # h > 0 designates the component of (0, 1), not that of (-1, -1)
        lat = EvenLattice2(((-2, 1), (1, 2)))
        assert lattice_module._positive_anchor(lat) == (0, 1)
        assert in_positive_cone((0, 1), lat) and in_positive_cone((1, 1), lat)
        assert not in_positive_cone((0, -1), lat) and not in_positive_cone((-1, -1), lat)


word_strategy = st.builds(
    lambda first, length: "".join("AB"[(first + i) % 2] for i in range(length)),
    st.integers(0, 1),
    st.integers(0, 20),
)


class TestWordDecomposition:
    def test_examples(self):
        got = word_decompose(ab_power(1, 2), 1, 1)
        assert (got.sign, got.word) == (1, "ABAB")
        got = word_decompose(Isometry2(((1, 0), (0, 1))), 3, 1)
        assert (got.sign, got.word) == (1, "")
        got = word_decompose(generator_a(1), 1, 1)
        assert (got.sign, got.word) == (1, "A")

    def test_minus_identity(self):
        got = word_decompose(Isometry2(((-1, 0), (0, -1))), 2, 1)
        assert (got.sign, got.word) == (-1, "")

    def test_negated_generator(self):
        minus_a = Isometry2(((-1, 0), (-1, 1)))
        got = word_decompose(minus_a, 1, 1)
        assert (got.sign, got.word) == (-1, "A")

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            word_decompose(Isometry2(((1, 1), (0, 1))), 1, 1)

    def test_stalled_descent_is_an_internal_fault(self, monkeypatch):
        # every isometry is +-w, so a step where no letter lowers the norm
        # means the descent itself is wrong: a fault, never a None result
        monkeypatch.setattr(lattice_module, "_l1", lambda m: 0)
        with pytest.raises(InvariantViolation, match="^no letter shortens"):
            word_decompose(ab_power(1, 2), 1, 1)

    @settings(max_examples=200)
    @given(st.integers(1, 4), st.sampled_from([1, -1]), word_strategy)
    def test_round_trip(self, a, sign, word):
        g = evaluate_word(sign, word, a)
        got = word_decompose(g, 1, a)
        assert (got.sign, got.word) == (sign, word)

    def test_ab_powers_decompose(self):
        for n in range(1, 8):
            got = word_decompose(ab_power(2, n), 3, 2)
            assert (got.sign, got.word) == (1, "AB" * n)

    @pytest.mark.parametrize("a", range(1, 7))
    def test_every_short_word(self, a):
        table = word_table(a)
        assert len(table) == 2 * 29  # 29 words, two signs, no matrix twice
        for matrix, expected in table.items():
            got = word_decompose(Isometry2(matrix), 3, a)
            assert (got.sign, got.word) == expected

    @pytest.mark.parametrize("a, count", [(1, 22), (2, 10), (3, 6), (4, 6)])
    def test_small_isometries_match_the_table(self, a, count):
        lat = fibonacci_lattice(3, a)
        (e, f), (_, h) = lat.gram
        cols = [(x, y) for x in range(-8, 9) for y in range(-8, 9)]
        on_square = lambda c, n: e * c[0] ** 2 + 2 * f * c[0] * c[1] + h * c[1] ** 2 == n
        isometries = [
            ((p, q), (r, s))
            for p, r in cols
            if on_square((p, r), e)
            for q, s in cols
            if on_square((q, s), h) and all(isometry_equations(((p, q), (r, s)), lat.gram))
        ]
        assert len(isometries) == count
        table = word_table(a)
        for g in isometries:
            got = word_decompose(Isometry2(g), 3, a)
            assert (got.sign, got.word) == table[g]


# Reference definitions the per-call fast forms must reproduce: each is the
# form the primitive had before its per-call cost was cut.


def _mat_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def reference_is_isometry(g, lat):
    lat.require_nondegenerate()
    m = g.matrix
    mt = ((m[0][0], m[1][0]), (m[0][1], m[1][1]))
    return _mat_mul(mt, _mat_mul(lat.gram, m)) == lat.gram


def word_table(a):
    """(sign, word) for every +-w, w a reduced alternating word of length
    <= 14 in A and B, keyed by its matrix (multiplied with _mat_mul above)."""
    letters = {"A": ((1, 0), (a, -1)), "B": ((1, a), (0, -1))}
    words = [""] + [
        ((first + other) * length)[:length]
        for length in range(1, 15)
        for first, other in ("AB", "BA")
    ]
    table = {}
    for word in words:
        m = ((1, 0), (0, 1))
        for ch in word:
            m = _mat_mul(m, letters[ch])
        for sign in (1, -1):
            table[tuple(tuple(sign * x for x in row) for row in m)] = (sign, word)
    return table


def reference_ab_power(a, n):
    odd, even = gen_fib(a, 2 * n - 1), gen_fib(a, 2 * n)
    return ((odd, even), (even, a * even + odd))


def reference_evaluate_word(sign, word, a):
    """The word folded letter by letter with Isometry2.__matmul__."""
    letters = {"A": generator_a(a), "B": generator_b(a)}
    acc = Isometry2(((1, 0), (0, 1)))
    for ch in word:
        acc = acc @ letters[ch]
    m = acc.matrix
    return acc if sign == 1 else Isometry2(tuple(tuple(-x for x in row) for row in m))


def isometry_equations(g, gram):
    """Which of the entries (0, 0), (0, 1), (1, 1) of g^T * Q * g equal Q's."""
    (p, q), (r, s) = g
    product = _mat_mul(((p, r), (q, s)), _mat_mul(gram, g))
    return tuple(product[i][j] == gram[i][j] for i, j in ((0, 0), (0, 1), (1, 1)))


def reference_disc_kernel(g, gram, eps):
    """disc_action's numerators and holds from the literal products g^T * Q * g
    and (g - eps*I) * adj(Q)."""
    if not all(isometry_equations(g, gram)):
        raise ValueError("g is not an isometry of the given lattice")
    (p, q), (r, s) = g
    (e, f), (_, h) = gram
    d = e * h - f * f
    (n00, n01), (n10, n11) = _mat_mul(((p - eps, q), (r, s - eps)), ((h, -f), (-f, e)))
    return n00, n01, n10, n11, all(x % d == 0 for x in (n00, n01, n10, n11))


def run_disc_kernel(g, gram, eps):
    action = disc_action(Isometry2(g), EvenLattice2(gram), eps)
    (n00, n01), (n10, n11) = action.numerators
    return n00, n01, n10, n11, action.holds


def reference_cosets(lat):
    """Breadth-first closure of {0} under the two adjugate columns mod |disc|."""
    d = abs(lat.disc)
    g = lat.gram
    gens = [(g[1][1] % d, -g[1][0] % d), (-g[0][1] % d, g[0][0] % d)]
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x1, x2 = frontier.pop()
        for g1, g2 in gens:
            nxt = ((x1 + g1) % d, (x2 + g2) % d)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return d, sorted(seen)


class TestPinnedToReference:
    def test_cosets_on_family_lattices(self):
        for a in range(1, 5):
            for m in range(1, 13):
                lat = fibonacci_lattice(m, a)
                assert enumerate_discriminant_cosets(lat) == reference_cosets(lat)

    @pytest.mark.parametrize("gram, iso", AD_HOC_ISOMETRIES)
    def test_cosets_on_ad_hoc_lattices(self, gram, iso):
        lat = EvenLattice2(gram)
        assert enumerate_discriminant_cosets(lat) == reference_cosets(lat)

    @settings(max_examples=300)
    @given(even_grams)
    @example(((0, 1), (1, 0)))  # |disc| = 1, indefinite
    @example(((2, -1), (-1, 0)))  # |disc| = 1, indefinite
    @example(((2, 1), (1, 2)))  # definite
    @example(((-4, 1), (1, -2)))  # negative definite
    @example(((16, 12), (12, -16)))  # extreme corner of even_grams
    def test_cosets_on_random_lattices(self, gram):
        # definite and indefinite, including the unimodular ones
        lat = EvenLattice2(gram)
        assume(lat.disc != 0)
        got = enumerate_discriminant_cosets(lat)
        assert got == reference_cosets(lat)
        assert len(got[1]) == got[0] == abs(lat.disc)

    @settings(max_examples=300)
    @given(even_grams, small_matrices)
    def test_is_isometry_random(self, gram, matrix):
        lat, g = EvenLattice2(gram), Isometry2(matrix)
        if lat.disc == 0:
            with pytest.raises(ValueError):
                is_isometry(g, lat)
        else:
            assert is_isometry(g, lat) == reference_is_isometry(g, lat)

    @given(even_grams, st.integers(-6, 6), st.integers(-6, 6))
    def test_is_isometry_signs_and_ad_hoc(self, gram, x, y):
        # +-identity are isometries of every lattice; a shear by (x, y)
        # usually is not, and the ad-hoc isometries are on their own Gram
        lat = EvenLattice2(gram)
        if lat.disc == 0:
            return
        for matrix in (((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((1, x), (y, 1))):
            g = Isometry2(matrix)
            assert is_isometry(g, lat) == reference_is_isometry(g, lat)
        for ad_hoc_gram, iso in AD_HOC_ISOMETRIES:
            g, own = Isometry2(iso), EvenLattice2(ad_hoc_gram)
            assert is_isometry(g, own) and reference_is_isometry(g, own)
            assert is_isometry(g, lat) == reference_is_isometry(g, lat)

    def test_is_isometry_needs_each_equality(self):
        # on Q = 2*I, each matrix breaks exactly one of the three entries
        lat = EvenLattice2(((2, 0), (0, 2)))
        for matrix in (((2, 0), (0, 1)), ((1, 1), (0, 0)), ((1, 0), (0, 2))):
            g = Isometry2(matrix)
            assert not is_isometry(g, lat) and not reference_is_isometry(g, lat)
            with pytest.raises(ValueError, match="not an isometry"):
                disc_action(g, lat, 1)

    def test_ab_power(self):
        for a in range(1, 6):
            for n in range(-5, 61):
                assert ab_power(a, n).matrix == reference_ab_power(a, n)

    def test_ab_power_validates_parameter(self):
        for bad, n in ((0, 3), (-1, -2), (1.5, 3), (True, 3), (True, -3)):
            with pytest.raises(ValueError):
                ab_power(bad, n)

    @pytest.mark.parametrize("bad, n", [(None, 3), ("x", 3), (None, 0), ("x", -2)])
    def test_ab_power_types_a_before_comparing(self, bad, n):
        # a non-integer a fails the integer rule instead of `a < 1`'s TypeError
        with pytest.raises(ValueError, match="^sequence parameter a must be an integer >= 1, got "):
            ab_power(bad, n)

    @settings(max_examples=300)
    @given(even_grams, small_matrices, st.sampled_from([1, -1]))
    def test_disc_kernel_random(self, gram, matrix, eps):
        assume(gram[0][0] * gram[1][1] != gram[0][1] ** 2)
        for g in (matrix, ((1, 0), (0, 1)), ((-1, 0), (0, -1))):
            try:
                want = reference_disc_kernel(g, gram, eps)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    run_disc_kernel(g, gram, eps)
            else:
                assert run_disc_kernel(g, gram, eps) == want

    @pytest.mark.parametrize("gram, iso", AD_HOC_ISOMETRIES)
    def test_disc_kernel_ad_hoc(self, gram, iso):
        for eps in (1, -1):
            assert run_disc_kernel(iso, gram, eps) == reference_disc_kernel(iso, gram, eps)

    @settings(max_examples=100)
    @given(
        st.integers(1, 6), st.integers(1, 50), st.integers(1, 450), st.sampled_from([1, -1])
    )
    @example(1, 7, 450, 1)  # entries of about 2^620
    @example(6, 50, 240, -1)  # entries of about 2^1250
    def test_disc_kernel_big_entries(self, a, m, n, eps):
        # (A*B)^n on L(m, a) has entries up to about 2^600 at the realization
        # suite's sizes; each of the three altered matrices breaks exactly one
        # equation: the first column moved along Q*(second column)'s normal
        # keeps (0, 1) and (1, 1), the second moved along Q*(first column)'s
        # normal keeps (0, 0) and (0, 1), and a negated second column keeps
        # both norms but flips the (0, 1) entry f = a*m != 0
        gram = fibonacci_lattice(m, a).gram
        (p, q), (r, s) = g = ab_power(a, n).matrix
        assert run_disc_kernel(g, gram, eps) == reference_disc_kernel(g, gram, eps)
        (e, f), (_, h) = gram
        w0, w1 = e * q + f * s, f * q + h * s  # Q * second column
        v0, v1 = e * p + f * r, f * p + h * r  # Q * first column
        broken = {
            (False, True, True): ((p - w1, q), (r + w0, s)),
            (True, True, False): ((p, q - v1), (r, s + v0)),
            (True, False, True): ((p, -q), (r, -s)),
        }
        for equations, bad in broken.items():
            assert isometry_equations(bad, gram) == equations
            with pytest.raises(ValueError, match="^g is not an isometry of the given lattice$"):
                run_disc_kernel(bad, gram, eps)

    @settings(max_examples=300)
    @given(
        st.sampled_from([1, -1]),
        st.text(alphabet="AB", max_size=30),
        st.integers(1, 6),
    )
    def test_evaluate_word(self, sign, word, a):
        got = evaluate_word(sign, word, a)
        assert type(got) is Isometry2
        assert got == reference_evaluate_word(sign, word, a)


A_RULE = "sequence parameter a must be an integer >= 1, got"


class TestIntegerArguments:
    """m, a, the power n and epsilon go through operator.index."""

    @pytest.mark.parametrize(
        "fn, args, name",
        [
            (ab_power, (1, 2.0), "n"),
            (ab_power, (1, -2.5), "n"),
            (fibonacci_lattice, (2.5, 1), "m"),
            (fibonacci_lattice, (3, 1.0), "a"),
            (disc_action, (ab_power(1, 4), fibonacci_lattice(3, 1), 1.0), "epsilon"),
            (disc_action_bruteforce, (ab_power(1, 4), fibonacci_lattice(3, 1), -1.0), "epsilon"),
            (evaluate_word, (1.0, "AB", 1), "sign"),
            (evaluate_word, ("1", "AB", 1), "sign"),
            (generator_a, (1.0,), "a"),
            (generator_b, ("1",), "a"),
            (evaluate_word, (1, "AB", 1.5), "a"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_non_integers_refused(self, fn, args, name):
        # a is refused by fibgen's one rule for the sequence parameter
        if name == "a":
            pattern = f"^{A_RULE} "
        else:
            pattern = f"^{name} must be an integer$"
        with pytest.raises(ValueError, match=pattern):
            fn(*args)

    @pytest.mark.parametrize(
        "fn, args, message",
        [
            (disc_action, (ab_power(1, 4), fibonacci_lattice(3, 1), 0), "epsilon must be +1 or -1"),
            (disc_action_bruteforce, (ab_power(1, 4), fibonacci_lattice(3, 1), 2), "epsilon must be +1 or -1"),
            (evaluate_word, (0, "AB", 1), "sign must be +1 or -1"),
            (evaluate_word, (-2, "AB", 1), "sign must be +1 or -1"),
            (evaluate_word, (1, "AC", 1), "word letters must be A or B, got 'C'"),
            (evaluate_word, (-1, "ab", 1), "word letters must be A or B, got 'a'"),
            (evaluate_word, (1, ["A", ("B",)], 1), "word letters must be A or B, got ('B',)"),
            # a follows fibgen's one rule for it, even for the empty word
            (generator_a, (0,), f"{A_RULE} 0"),
            (generator_b, (-1,), f"{A_RULE} -1"),
            (evaluate_word, (1, "AB", 0), f"{A_RULE} 0"),
            (evaluate_word, (1, "", 0), f"{A_RULE} 0"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_out_of_range_refused(self, fn, args, message):
        # epsilon, a word's sign and its letters follow one rule: anything
        # outside +-1 or {A, B} is a ValueError, never a KeyError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn(*args)

    def test_index_types_accepted(self):
        class Four:
            def __index__(self):
                return 4

        assert ab_power(1, Four()) == ab_power(1, 4)
        assert fibonacci_lattice(Four(), 1) == fibonacci_lattice(4, 1)
        assert fibonacci_lattice(4, 1).gram == ((8, 4), (4, -8))
        assert generator_a(Four()) == generator_a(4) and generator_b(Four()) == generator_b(4)
        assert evaluate_word(1, "AB", Four()) == evaluate_word(1, "AB", 4)

    def test_non_isometry_message(self):
        # is_isometry and disc_action share one test and its message
        g, lat = Isometry2(((1, 1), (0, 1))), fibonacci_lattice(2, 1)
        assert not is_isometry(g, lat)
        with pytest.raises(ValueError, match="^g is not an isometry of the given lattice$"):
            disc_action(g, lat, 1)
