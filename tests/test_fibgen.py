import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibk3 import fibgen
from fibk3.errors import FactorizationError, InvariantViolation
from fibk3.fibgen import (
    _fib_ladder,
    _fib_pair,
    classify_membership,
    divides_in_sequence,
    entry_point,
    gen_fib,
    gen_fib_iter,
    is_perfect_square,
    salem_trace_of_power,
    shifted_trace,
)


def naive_fib(a, n):
    """Independent oracle: run the recurrence forwards or backwards."""
    x, y = 0, 1
    if n >= 0:
        for _ in range(n):
            x, y = y, a * y + x
        return x
    for _ in range(-n):
        x, y = y - a * x, x
    return x


class TestGenFib:
    def test_known_values(self):
        assert gen_fib(1, 20) == 6765
        assert gen_fib(1, 0) == 0
        assert gen_fib(2, 5) == 29
        assert gen_fib(1, -3) == 2

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            gen_fib(0, 3)
        with pytest.raises(ValueError):
            gen_fib(-1, 3)

    @given(st.integers(1, 8), st.integers(-120, 120))
    def test_doubling_matches_naive(self, a, n):
        assert gen_fib(a, n) == naive_fib(a, n)
        assert gen_fib_iter(a, n) == naive_fib(a, n)

    @given(st.integers(1, 50), st.integers(-3000, 3000))
    def test_doubling_matches_iteration_far_out(self, a, n):
        # reaches past the fast-path suite's a <= 8, |n| <= 400
        assert gen_fib(a, n) == gen_fib_iter(a, n)

    @given(st.integers(1, 6), st.integers(-60, 60))
    def test_recurrence_everywhere(self, a, n):
        assert gen_fib(a, n + 2) == a * gen_fib(a, n + 1) + gen_fib(a, n)


class TestTraces:
    def test_known_values(self):
        assert salem_trace_of_power(1, 6) == 322
        assert salem_trace_of_power(1, 1) == 3
        assert salem_trace_of_power(1, 0) == 2
        assert salem_trace_of_power(1, 4) == 47

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            salem_trace_of_power(1, -1)

    def test_shifted_known_values(self):
        assert shifted_trace(1, 4) == 29
        assert shifted_trace(1, 1) == 1
        assert shifted_trace(2, 2) == 14

    def test_shifted_requires_positive_index(self):
        with pytest.raises(ValueError):
            shifted_trace(1, 0)


class TestPerfectSquare:
    def test_known_values(self):
        assert is_perfect_square(49) == 7
        assert is_perfect_square(0) == 0
        assert is_perfect_square(20801**2 * 25) == 104005
        assert is_perfect_square(-4) is None
        assert is_perfect_square(2) is None

    @given(st.integers(0, 10**30))
    def test_squares_round_trip(self, k):
        assert is_perfect_square(k * k) == k

    @given(st.integers(2, 10**15))
    def test_strictly_between_squares(self, k):
        assert is_perfect_square(k * k + 1) is None or k == 0


class TestMembership:
    def test_member_with_even_index(self):
        res = classify_membership(1, 3)
        assert res.is_member
        assert [(m.k, m.parity, m.square_witness) for m in res.matches] == [(4, "even", 7)]

    def test_non_member(self):
        first = classify_membership(1, 4)
        assert first.status == "not_member" and first.matches == ()
        # every non-member gets the same result object
        assert classify_membership(3, 4) is first
        assert classify_membership(2, 10**6) is first

    def test_zero(self):
        for a in range(1, 9):
            res = classify_membership(a, 0)
            assert [(m.k, m.parity, m.square_witness) for m in res.matches] == [(0, "even", 2)]

    def test_double_match_at_one(self):
        res = classify_membership(1, 1)
        assert [(m.k, m.parity, m.square_witness) for m in res.matches] == [
            (1, "odd", 1),
            (2, "even", 3),
        ]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            classify_membership(1, -1)

    def test_index_without_its_square_raises(self, monkeypatch):
        # index 0 is found for n = 0, but no square fires
        monkeypatch.setattr(fibgen, "is_perfect_square", lambda n: None)
        message = r"n=0 has indices of parity \['even'\] but squares of parity \[\]"
        with pytest.raises(InvariantViolation, match=message):
            classify_membership(1, 0)

    def test_square_without_an_index_raises(self, monkeypatch):
        # both squares fire for n = 0, but only the even index 0 exists
        monkeypatch.setattr(fibgen, "is_perfect_square", lambda n: 7)
        with pytest.raises(InvariantViolation, match=r"squares of parity \['even', 'odd'\]"):
            classify_membership(1, 0)


def entry_point_loop(a, m):
    """The definition: walk (a_n, a_{n+1}) mod m until a_n = 0."""
    x, y, n = 0, 1, 0
    while True:
        x, y, n = y, (a * y + x) % m, n + 1
        if x == 0:
            return n


class TestEntryPoint:
    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            entry_point(1, 1)

    @pytest.mark.parametrize("a", range(1, 7))
    def test_matches_loop(self, a):
        for m in range(2, 3000):
            assert entry_point(a, m) == entry_point_loop(a, m), m

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prime_powers(self, p):
        for a in range(1, 7):
            pk = p
            while pk <= 10**5:
                assert entry_point(a, pk) == entry_point_loop(a, pk), (a, pk)
                pk *= p

    @pytest.mark.parametrize(
        "a, p",
        [(1, 5), (3, 13), (4, 5), (5, 29), (7, 53)],  # odd p | a^2 + 4: e(p) = p
    )
    def test_primes_dividing_the_discriminant(self, a, p):
        assert (a * a + 4) % p == 0
        for m in (p, p * p, p**3, 2 * p, 3 * p * p):
            assert entry_point(a, m) == entry_point_loop(a, m), m
        assert entry_point(a, p) == p

    @pytest.mark.parametrize("a, p", [(3, 3), (6, 3), (6, 2), (5, 5), (10, 5), (4, 2)])
    def test_primes_dividing_a(self, a, p):
        # a_2 = a, so e(p) = 2
        assert entry_point(a, p) == 2
        for m in (p * p, p**3, p**4, 7 * p):
            assert entry_point(a, m) == entry_point_loop(a, m), m

    @pytest.mark.parametrize(
        "a, m", [(1, 100003), (2, 100003), (1, 1000003), (2, 1000003), (1, 9999991)]
    )
    def test_large_primes(self, a, m):
        assert entry_point(a, m) == entry_point_loop(a, m)

    @pytest.mark.parametrize("a", [2**64 - 1, 2**64, 2**64 + 1])
    def test_parameter_past_a_machine_word(self, a):
        for p in (2, 3, 5, 7, 13):
            pk = p
            while pk <= 10**4:
                assert entry_point(a, pk) == entry_point_loop(a, pk), pk
                pk *= p

    def test_given_factorization(self):
        assert entry_point(1, 60, factors={2: 2, 3: 1, 5: 1}) == entry_point(1, 60) == 60
        # an extra prime only makes the starting multiple N larger
        assert entry_point(1, 60, factors={2: 2, 3: 1, 5: 1, 7: 1}) == 60
        # one whose N = 12 is no multiple of e = 60 fails the postcondition
        with pytest.raises(InvariantViolation, match="entry point 12 of m=60"):
            entry_point(1, 60, factors={2: 2, 3: 1})

    def test_fib_mod_is_the_ladder_mod_m(self):
        # both entries reduced for every n >= 0, also n = 0, 1 and a >= m
        for a in (1, 2, 3, 4, 5, 2**64 + 1):
            for m in (2, 3, 8, 97, 1000, 10**9 + 7):
                for n in range(300):
                    want = tuple(x % m for x in _fib_pair(a, n))
                    assert _fib_ladder(a, n, m) == want, (a, m, n)

    def test_wrong_bound_breaks_the_postcondition(self, monkeypatch):
        # e(7) = 8 for a = 1; a bound of 7 is no multiple of it
        monkeypatch.setattr(fibgen, "_prime_entry_bound", lambda a, p: p)
        with pytest.raises(InvariantViolation, match="entry point 7 of m=7"):
            entry_point(1, 7)

    @pytest.mark.parametrize("m", [4, 49])
    def test_bound_of_p_raises_instead_of_looping(self, monkeypatch, m):
        # e(4) = 6 and e(49) = 56 for a = 1; N = m is no multiple of either
        monkeypatch.setattr(fibgen, "_prime_entry_bound", lambda a, p: p)
        with pytest.raises(InvariantViolation, match=f"entry point {m} of m={m},"):
            entry_point(1, m)

    @pytest.mark.parametrize("m, n", [(9, 6), (49, 42)])
    def test_legendre_symbol_of_one_raises_instead_of_looping(self, monkeypatch, m, n):
        # D = 5 is a non-residue mod 3 and mod 7, so e(9) = 12 and e(49) = 56
        # for a = 1; the symbol forced to +1 gives the bounds 2 and 6
        bound = fibgen._prime_entry_bound

        def plus_one(a, p):
            return p - 1 if p > 2 and bound(a, p) == p + 1 else bound(a, p)

        monkeypatch.setattr(fibgen, "_prime_entry_bound", plus_one)
        with pytest.raises(InvariantViolation, match=f"entry point {n} of m={m},"):
            entry_point(1, m)

    def test_wrong_ladder_breaks_the_postcondition(self, monkeypatch):
        ladder = fibgen._fib_ladder
        monkeypatch.setattr(fibgen, "_fib_ladder", lambda a, n, m=0: ladder(a, n + 1, m))
        with pytest.raises(InvariantViolation, match="fails its definition"):
            entry_point(1, 7)

    def test_modulus_beyond_factorize_refused(self):
        # two primes above the trial-division bound: no loop, a refusal
        with pytest.raises(FactorizationError):
            entry_point(1, 1_000_003 * 1_000_033)


class TestDivisibility:
    def test_known_values(self):
        assert divides_in_sequence(1, 4, 20) is True
        assert divides_in_sequence(1, 4, 6) is False
        assert divides_in_sequence(2, 1, 7) is True

    def test_degenerate_index_counterexample(self):
        # a_2 = 1 for a = 1: divisibility holds at odd q although 2 does not
        assert divides_in_sequence(1, 2, 3) is True
        assert 3 % 2 != 0

    @given(st.integers(1, 5), st.integers(1, 80), st.integers(1, 80))
    def test_strong_divisibility_gcd_form(self, a, k, q):
        assert math.gcd(gen_fib(a, k), gen_fib(a, q)) == gen_fib(a, math.gcd(k, q))

    @given(st.integers(1, 8), st.integers(1, 80))
    def test_neighbors_coprime(self, a, k):
        assert math.gcd(gen_fib(a, k), gen_fib(a, k + 1)) == 1

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 70), st.integers(1, 70))
    def test_divisor_shifts_down(self, a, k, q):
        if q > k and gen_fib(a, q) % gen_fib(a, k) == 0:
            assert gen_fib(a, q - k) % gen_fib(a, k) == 0

    @given(st.integers(1, 6), st.integers(1, 50), st.integers(1, 50))
    def test_addition_formula(self, a, n, k):
        assert gen_fib(a, n + k) == gen_fib(a, k) * gen_fib(a, n + 1) + gen_fib(
            a, k - 1
        ) * gen_fib(a, n)

    @given(st.integers(1, 6), st.integers(1, 100))
    def test_cassini(self, a, n):
        lhs = gen_fib(a, n + 1) * gen_fib(a, n - 1) - gen_fib(a, n) ** 2
        assert lhs == (1 if n % 2 == 0 else -1)


# Reference definitions the doubling-based primitives must reproduce: each is
# the form the primitive had before it read adjacent terms from one ladder.


def reference_shifted_trace(a, n):
    fn, fn1 = gen_fib(a, n), gen_fib(a, n - 1)
    numerator = (a * a + 4) * (fn * fn - fn1 * fn1) + (4 if n % 2 == 0 else -4)
    assert numerator % a == 0
    return numerator // a


def reference_divides(a, k, q):
    return gen_fib(a, q) % gen_fib(a, k) == 0


def reference_membership_roots(a, n):
    d = a * a + 4
    return is_perfect_square(d * n * n + 4), is_perfect_square(d * n * n - 4)


def matrix_fib_pair(a, n):
    """(a_n, a_{n+1}) for n >= 0, by repeated squaring of [[a, 1], [1, 0]],
    whose n-th power is [[a_{n+1}, a_n], [a_n, a_{n-1}]]."""

    def mul(x, y):
        (p, q), (r, s) = x
        (t, u), (v, w) = y
        return ((p * t + q * v, p * u + q * w), (r * t + s * v, r * u + s * w))

    power, base = ((1, 0), (0, 1)), ((a, 1), (1, 0))
    while n:
        if n & 1:
            power = mul(power, base)
        base = mul(base, base)
        n >>= 1
    return power[0][1], power[0][0]


class TestPinnedToReference:
    def test_shifted_trace(self):
        for a in range(1, 9):
            for n in range(1, 121):
                assert shifted_trace(a, n) == reference_shifted_trace(a, n)

    def test_divides_in_sequence(self):
        for a in range(1, 6):
            for k in range(1, 41):
                for q in range(1, 41):
                    assert divides_in_sequence(a, k, q) == reference_divides(a, k, q)

    def test_divides_validates_parameter(self):
        for bad in (0, -2, 1.5, True):
            with pytest.raises(ValueError):
                divides_in_sequence(bad, 2, 4)

    @pytest.mark.parametrize("k, q", [(0, 3), (3, 0), (-1, 2)])
    def test_divides_refuses_indices_below_one(self, k, q):
        with pytest.raises(ValueError, match="^indices must be >= 1$"):
            divides_in_sequence(1, k, q)

    def test_membership_roots(self):
        for a in (1, 2, 3, 5):
            for n in range(0, 3000):
                even, odd = reference_membership_roots(a, n)
                res = classify_membership(a, n)
                assert res.is_member == (even is not None or odd is not None)
                for match in res.matches:
                    assert match.square_witness == (even if match.parity == "even" else odd)

    def test_one_for_larger_parameters(self):
        # a_1 = 1 always; a_2 = a is 1 only for a = 1
        for a in range(2, 9):
            res = classify_membership(a, 1)
            assert [(m.k, m.parity, m.square_witness) for m in res.matches] == [
                (1, "odd", a)
            ]

    @pytest.mark.parametrize("a", range(1, 10))
    def test_fib_pair_far_out(self, a):
        for n in (10**4, 10**5):
            assert _fib_pair(a, n) == matrix_fib_pair(a, n), n

    def test_membership_roots_at_the_isqrt_boundary(self):
        # isqrt(D*n^2) < 3 at n = 0, and at n = 1 for a <= 2; and n near 10^30
        cases = [(a, n) for a in range(1, 51) for n in range(4)]
        for a in (1, 2, 3, 7):
            k = 1
            while gen_fib(a, k) < 10**30:
                k += 1
            for v in (gen_fib(a, k - 1), gen_fib(a, k), 10**30):
                cases += [(a, v - 1), (a, v), (a, v + 1)]
        for a, n in cases:
            even, odd = reference_membership_roots(a, n)
            res = classify_membership(a, n)
            roots = {m.parity: m.square_witness for m in res.matches}
            assert res.is_member == (even is not None or odd is not None), (a, n)
            assert (roots.get("even"), roots.get("odd")) == (even, odd), (a, n)


class TestLadderMemo:
    """_fib_pair memoizes the pairs with n * a.bit_length() <= _MEMO_BITS."""

    def test_ladder_and_memo_agree_with_the_walk(self):
        # the ladder starts at (a_1, a_2) = (1, a); n = 0 is its own case
        fibgen._fib_memo.cache_clear()
        for a in range(1, 10):
            x, y = 0, 1
            for n in range(2001):
                assert _fib_ladder(a, n) == (x, y), (a, n)
                # a miss, then a hit when memoized
                assert _fib_pair(a, n) == _fib_pair(a, n) == (x, y), (a, n)
                # the far-out oracle, against the recurrence
                assert matrix_fib_pair(a, n) == (x, y), (a, n)
                x, y = y, a * y + x

    def test_bound_is_in_bits_not_in_n(self):
        big = 10**21  # 70 bits: 58 * 70 <= 4096 < 59 * 70
        assert big.bit_length() == 70
        fibgen._fib_memo.cache_clear()
        for a, n, memoized in ((big, 58, True), (big, 59, False), (1, 4096, True), (1, 4097, False)):
            before = fibgen._fib_memo.cache_info().currsize
            assert _fib_pair(a, n) == matrix_fib_pair(a, n), (a, n)
            assert fibgen._fib_memo.cache_info().currsize - before == memoized, (a, n)

    def test_memo_stays_bounded_over_a_selftest_pass(self, selftest_pass):
        # the session's one selftest pass ran with a spy on _fib_memo
        # (conftest.py); the acceptance suite asserts on the same pass
        seen, info = selftest_pass.memo_calls, selftest_pass.memo_info
        assert all(r.passed for r in selftest_pass.results.values())
        assert seen
        assert all(n * a.bit_length() <= fibgen._MEMO_BITS for a, n, _ in seen)
        assert max(bits for _, _, bits in seen) <= fibgen._MEMO_BITS
        assert info.maxsize == 512 and info.currsize <= info.maxsize


class TestIntegerArguments:
    """m, every index and the membership value go through operator.index."""

    @pytest.mark.parametrize(
        "fn, args, name",
        [
            (gen_fib, (1, 2.5), "n"),
            (gen_fib, (1, "3"), "n"),
            (gen_fib_iter, (1, 2.0), "n"),
            (salem_trace_of_power, (1, 2.0), "n"),
            (shifted_trace, (1, 2.0), "n"),
            (classify_membership, (1, 2.0), "n"),
            (is_perfect_square, (4.0,), "n"),
            (entry_point, (1, 10.5), "m"),
            (entry_point, (1, 10.0), "m"),
            (divides_in_sequence, (1, 2.0, 4), "k"),
            (divides_in_sequence, (1, 2, 4.0), "q"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_non_integers_refused(self, fn, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            fn(*args)

    def test_index_types_accepted(self):
        class Seven:
            def __index__(self):
                return 7

        assert gen_fib(1, Seven()) == gen_fib_iter(1, Seven()) == 13
        assert salem_trace_of_power(1, Seven()) == salem_trace_of_power(1, 7)
        assert shifted_trace(2, Seven()) == shifted_trace(2, 7)
        assert classify_membership(1, Seven()) == classify_membership(1, 7)
        assert is_perfect_square(Seven()) is None and is_perfect_square(True) == 1
        assert entry_point(1, Seven()) == entry_point(1, 7) == 8
        assert divides_in_sequence(1, Seven(), 14) and not divides_in_sequence(1, 3, Seven())
