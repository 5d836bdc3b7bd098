"""Named self-test suites: every module invariant as an executable check.

Each suite enumerates its stated parameter ranges deterministically (random
inputs use a fixed seed) and reports the number of checks, the number of
failures, and the first counterexample. The command-line front end exposes
them through `selftest [--suite NAME]`.

The high-volume suites (membership, divisibility-iff, entry-point,
addition-formula, realization) decide their checks in tight loops and hand
the recorder a count and the failing cases only, in enumeration order; the
others record one check at a time.

The sixteen suites that take about 15 ms or more run their cases across the
usable CPUs (`_split`), case i on worker i mod w, and add each case's counts
in case order, so a suite's result is the one a serial run gives. Their
cases: a for addition-formula, trace, shifted-trace, membership,
divisibility-iff and fast-path; (a, m) for entry-point, integrality,
disc-oracle, engine-consistency and realization; l for
closed-form-resultants; and one drawn input for word, resultant-agree,
resultant-multiplicative and common-factor, whose inputs are drawn first,
in the caller, from the suite's fixed seed.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import sys
import time
from collections.abc import Callable, Sequence

from . import engine, lattice, salem
from ._record import Record
from .fibgen import (
    classify_membership,
    divides_in_sequence,
    entry_point,
    gen_fib,
    gen_fib_iter,
    is_perfect_square,
    salem_trace_of_power,
    shifted_trace,
)

__all__ = ["SuiteResult", "available_suites", "run_suite", "run_suites"]


class SuiteResult(Record):
    name: str
    checks: int
    failures: int
    first_counterexample: str | None
    seconds: float  # wall time of the suite's run

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Recorder:
    def __init__(self) -> None:
        self.checks = 0
        self.failures = 0
        self.first: str | None = None
        self.start = time.perf_counter()

    def check(self, ok: bool, describe: str, *args) -> None:
        """Count one check; on the first failure record describe.format(*args)."""
        self.many(1, [] if ok else [args], describe)

    def many(self, count: int, failing: list[tuple], describe: str) -> None:
        """Count `count` checks, of which the argument tuples in `failing`
        failed; record describe.format(*failing[0]) if none failed before."""
        self.checks += count
        if failing:
            self.failures += len(failing)
            if self.first is None:
                self.first = describe.format(*failing[0])

    def add(self, checks: int, failures: int, first: str | None) -> None:
        """Count another recorder's checks, failures and first text."""
        self.checks += checks
        self.failures += failures
        if self.first is None:
            self.first = first

    def result(self, name: str) -> SuiteResult:
        seconds = time.perf_counter() - self.start
        return SuiteResult(name, self.checks, self.failures, self.first, seconds)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(cases: Sequence, indices: range, body: Callable) -> tuple[list, Exception | None]:
    """(checks, failures, first) of each case at `indices`, in order, up to
    the first case that raises, and that case's exception (None if none)."""
    done = []
    for i in indices:
        sub = _Recorder()
        try:
            body(sub, cases[i])
        except Exception as exc:  # noqa: BLE001 - the caller raises it in case order
            return done, exc
        done.append((sub.checks, sub.failures, sub.first))
    return done, None


def _child(pipe: int, cases: Sequence, indices: range, body: Callable) -> None:
    """Run a forked worker's share and write it to `pipe`; never returns."""
    status = 1
    try:
        done, exc = _share(cases, indices, body)
        if exc is not None:
            import pickle

            exc = pickle.dumps(exc)
        view = memoryview(marshal.dumps((done, exc)))
        while view:
            view = view[os.write(pipe, view):]
        status = 0
    finally:
        os._exit(status)


def _split(rec: _Recorder, cases: Sequence, body: Callable[[_Recorder, object], None]) -> None:
    """Record body(sub, case) for every case on rec, as a serial run would.

    Case i runs on worker i mod w, where w = min(len(cases), usable CPUs):
    worker 0 is this process and the others are forked children, each
    sending one (checks, failures, first) per case through a pipe. The
    summaries are added to rec in case order; a case that raises ends its
    worker's share, and the exception of the lowest raising case is raised
    here. Every case runs here, on rec, when there is one worker, when
    os.fork is missing, or when a second thread runs (a forked child copies
    only the forking thread, whatever locks the others hold).
    """
    w = min(len(cases), _usable_cpus())
    threading = sys.modules.get("threading")
    threads = 1 if threading is None else threading.active_count()
    if w < 2 or not hasattr(os, "fork") or threads > 1:
        for case in cases:
            body(rec, case)
        return
    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        for j in range(1, w):
            r, wr = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(wr, cases, range(j, len(cases), w), body)
            except OSError:
                os.close(r)
                raise
            finally:
                os.close(wr)
            children[pid] = r
        shares = [_share(cases, range(0, len(cases), w), body)]
        for pid, r in list(children.items()):
            chunks = []
            while chunk := os.read(r, 1 << 16):
                chunks.append(chunk)
            os.waitpid(pid, 0)
            del children[pid]
            os.close(r)
            try:
                done, exc = marshal.loads(b"".join(chunks))
            except (EOFError, ValueError):
                raise ChildProcessError(f"selftest worker {pid} ended without a result") from None
            if exc is not None:
                import pickle

                exc = pickle.loads(exc)
            shares.append((done, exc))
        outcomes: list = [None] * len(cases)
        for j, (done, exc) in enumerate(shares):
            indices = range(j, len(cases), w)
            for i, summary in zip(indices, done):
                outcomes[i] = summary
            if exc is not None:
                outcomes[indices[len(done)]] = exc
        # a worker's cases after its raising case stay None, past the raise
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
            rec.add(*outcome)
    finally:
        if children:
            import signal
        for pid, r in children.items():
            os.close(r)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


# suite name -> zero-argument runner, in definition order
_SUITES: dict[str, Callable[[], SuiteResult]] = {}


def _suite(name: str, cases: Callable[[], Sequence] | None = None):
    """Register fn(rec), which records its checks on rec, as the suite `name`;
    with `cases`, register fn(rec, case), run by `_split` over cases()."""

    def register(fn: Callable[..., None]) -> Callable[..., None]:
        def run() -> SuiteResult:
            rec = _Recorder()
            if cases is None:
                fn(rec)
            else:
                _split(rec, cases(), fn)
            return rec.result(name)

        _SUITES[name] = run
        return fn

    return register


def _sequence(a: int, upto: int) -> list[int]:
    vals = [0, 1]
    while len(vals) <= upto:
        vals.append(a * vals[-1] + vals[-2])
    return vals


@_suite("addition-formula", cases=lambda: range(1, 9))
def _suite_addition_formula(rec: _Recorder, a: int) -> None:
    f = _sequence(a, 401)
    for n in range(1, 201):
        fn, fn1 = f[n], f[n + 1]
        failing = [
            (a, n, k)
            for k in range(1, n + 1)
            if f[n + k] != f[k] * fn1 + f[k - 1] * fn
        ]
        rec.many(n, failing, "a={}, n={}, k={}")


@_suite("cassini")
def _suite_cassini(rec: _Recorder) -> None:
    for a in range(1, 9):
        f = _sequence(a, 301)
        for n in range(1, 301):
            ok = f[n + 1] * f[n - 1] - f[n] * f[n] == (1 if n % 2 == 0 else -1)
            rec.check(ok, "a={}, n={}", a, n)


@_suite("trace", cases=lambda: range(1, 9))
def _suite_trace(rec: _Recorder, a: int) -> None:
    for n in range(0, 301):
        direct = gen_fib(a, 2 * n - 1) + gen_fib(a, 2 * n + 1)
        ok = salem_trace_of_power(a, n) == direct
        rec.check(ok, "a={}, n={}", a, n)


@_suite("shifted-trace", cases=lambda: range(1, 9))
def _suite_shifted_trace(rec: _Recorder, a: int) -> None:
    for n in range(1, 301):
        direct = gen_fib(a, 2 * n - 2) + gen_fib(a, 2 * n)
        ok = shifted_trace(a, n) == direct
        rec.check(ok, "a={}, n={}", a, n)


@_suite("membership", cases=lambda: (1, 2, 3, 5))
def _suite_membership(rec: _Recorder, a: int) -> None:
    bound = 10**5
    expected: dict[int, list[int]] = {}
    k, x, y = 0, 0, 1
    while x <= bound:
        expected.setdefault(x, []).append(k)
        k, x, y = k + 1, y, a * y + x
    # each member after the non-members below it, in increasing n; the
    # sentinel bound + 1 closes the last gap
    failing = []
    start = 0
    for n, want in [*expected.items(), (bound + 1, None)]:
        failing += [
            (a, x, " spurious")
            for x in range(start, n)
            if classify_membership(a, x).is_member
        ]
        if want is not None:
            res = classify_membership(a, n)
            got = [(m.k, m.parity) for m in res.matches]
            exp = [(k, "even" if k % 2 == 0 else "odd") for k in want]
            if not (res.is_member and got == exp):
                failing.append((a, n, f": {got} != {exp}"))
        start = n + 1
    rec.many(bound + 1, failing, "a={}, n={}{}")


@_suite("coprimality")
def _suite_coprimality(rec: _Recorder) -> None:
    for a in range(1, 9):
        f = _sequence(a, 201)
        for k in range(1, 201):
            rec.check(math.gcd(f[k], f[k + 1]) == 1, "a={}, k={}", a, k)


@_suite("divisibility-shift")
def _suite_divisibility_shift(rec: _Recorder) -> None:
    for a in range(1, 6):
        f = _sequence(a, 151)
        for k in range(1, 151):
            for q in range(k + 1, 151):
                if f[q] % f[k] == 0:
                    rec.check(f[q - k] % f[k] == 0, "a={}, k={}, q={}", a, k, q)


@_suite("divisibility-iff", cases=lambda: range(1, 6))
def _suite_divisibility_iff(rec: _Recorder, a: int) -> None:
    # corrected statement: the index equivalence holds whenever a_k > 1;
    # the lone degenerate divisor a_2 = 1 (a = 1) divides everything
    f = _sequence(a, 151)
    for k in range(1, 151):
        degenerate = f[k] == 1
        failing = [
            (a, k, q)
            for q in range(1, 151)
            if divides_in_sequence(a, k, q) != (degenerate or q % k == 0)
        ]
        rec.many(150, failing, "a={}, k={}, q={}")


@_suite("entry-point", cases=lambda: [(a, m) for a in (1, 2) for m in range(2, 201)])
def _suite_entry_point(rec: _Recorder, case: tuple[int, int]) -> None:
    a, m = case
    e = entry_point(a, m)
    failing = []
    x, y = 0, 1
    for n in range(1, 501):
        x, y = y, (a * y + x) % m
        if (x == 0) != (n % e == 0):
            failing.append((a, m, n, e))
    rec.many(500, failing, "a={}, m={}, n={}, e={}")


@_suite("fast-path", cases=lambda: range(1, 9))
def _suite_fast_path(rec: _Recorder, a: int) -> None:
    for n in range(-400, 401):
        ok = gen_fib(a, n) == gen_fib_iter(a, n)
        rec.check(ok, "a={}, n={}", a, n)


@_suite("ab-power")
def _suite_ab_power(rec: _Recorder) -> None:
    for a in range(1, 6):
        ga = lattice.generator_a(a)
        gb = lattice.generator_b(a)
        rec.check(ga.det == -1 and gb.det == -1, "a={} generator dets", a)
        step = ga @ gb
        acc = lattice.Isometry2(((1, 0), (0, 1)))
        for n in range(0, 61):
            closed = lattice.ab_power(a, n)
            rec.check(
                closed.matrix == acc.matrix and closed.det == 1,
                "a={}, n={} power mismatch", a, n,
            )
            acc = acc @ step
        for m in (1, 2, 3, 7):
            lat = lattice.fibonacci_lattice(m, a)
            rec.check(
                lattice.is_isometry(ga, lat) and lattice.is_isometry(gb, lat),
                "a={}, m={} generators", a, m,
            )
            for n in range(0, 41):
                rec.check(
                    lattice.is_isometry(lattice.ab_power(a, n), lat),
                    "a={}, m={}, n={}", a, m, n,
                )


@_suite("integrality", cases=lambda: [(a, m) for a in range(1, 4) for m in range(2, 51)])
def _suite_integrality(rec: _Recorder, case: tuple[int, int]) -> None:
    a, m = case
    lat = lattice.fibonacci_lattice(m, a)
    for n in range(1, 41):
        g = lattice.ab_power(a, n)
        divides = gen_fib(a, n) % m == 0
        for eps in (1, -1):
            holds = lattice.disc_action(g, lat, eps).holds
            parity_match = (eps == 1) == (n % 2 == 0)
            ok = holds == (divides and parity_match)
            rec.check(ok, "a={}, m={}, n={}, eps={}", a, m, n, eps)


@_suite("disc-oracle", cases=lambda: [(a, m) for a in range(1, 4) for m in range(2, 31)])
def _suite_disc_oracle(rec: _Recorder, case: tuple[int, int]) -> None:
    a, m = case
    lat = lattice.fibonacci_lattice(m, a)
    for n in range(1, 21):
        g = lattice.ab_power(a, n)
        for eps in (1, -1):
            fast = lattice.disc_action(g, lat, eps).holds
            slow = lattice.disc_action_bruteforce(g, lat, eps)
            rec.check(fast == slow, "a={}, m={}, n={}, eps={}", a, m, n, eps)


def _word_cases() -> list[tuple]:
    rng = random.Random(20240211)
    cases = []
    for _ in range(500):
        a = rng.randint(1, 4)
        length = rng.randint(0, 20)
        first = rng.choice("AB")
        word = "".join(
            "AB"[("AB".index(first) + i) % 2] for i in range(length)
        )
        sign = rng.choice((1, -1))
        cases.append((a, sign, word, rng.randint(1, 5)))
    return cases


@_suite("word", cases=_word_cases)
def _suite_word(rec: _Recorder, case: tuple) -> None:
    a, sign, word, m = case
    g = lattice.evaluate_word(sign, word, a)
    got = lattice.word_decompose(g, m, a)
    ok = (got.sign, got.word) == (sign, word)
    rec.check(ok, "a={}, {}*{!r} -> {}", a, sign, word, got)


def _rand_poly(rng: random.Random, degree: int, span: int) -> salem.IntPolynomial:
    lead = rng.choice([c for c in range(-span, span + 1) if c != 0])
    return salem.IntPolynomial(
        [rng.randint(-span, span) for _ in range(degree)] + [lead]
    )


def _resultant_agree_cases() -> list[tuple]:
    rng = random.Random(987654321)
    return [
        (_rand_poly(rng, rng.randint(1, 8), 50), _rand_poly(rng, rng.randint(1, 8), 50))
        for _ in range(500)
    ]


@_suite("resultant-agree", cases=_resultant_agree_cases)
def _suite_resultant_agree(rec: _Recorder, case: tuple) -> None:
    p, q = case
    try:
        salem.resultant(p, q)  # raises InvariantViolation on disagreement
        rec.check(True, "")
    except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
        rec.check(False, "{!r}, {!r}: {}", p, q, exc)


def _resultant_multiplicative_cases() -> list[tuple]:
    rng = random.Random(55555)
    return [
        tuple(
            salem.IntPolynomial([rng.randint(-10, 10) for _ in range(rng.randint(1, 4))] + [1])
            for _ in range(3)
        )
        for _ in range(200)
    ]


@_suite("resultant-multiplicative", cases=_resultant_multiplicative_cases)
def _suite_resultant_multiplicative(rec: _Recorder, case: tuple) -> None:
    p, q1, q2 = case
    ok = salem.resultant(p, q1 * q2) == salem.resultant(p, q1) * salem.resultant(p, q2)
    rec.check(ok, "{!r}, {!r}, {!r}", p, q1, q2)


@_suite("closed-form-resultants", cases=lambda: (5, 10, 25, 50))
def _suite_closed_form_resultants(rec: _Recorder, l: int) -> None:
    phi = salem.cyclotomic(l)
    for n in range(1, 31):
        tau = salem_trace_of_power(1, n)
        generic = salem.resultant(salem.IntPolynomial([1, -tau, 1]), phi)
        ok = salem.closed_form_resultant(l, n) == generic
        rec.check(ok, "l={}, n={}", l, n)


def _poly_gcd_degree_mod_p(p_coeffs, q_coeffs, p: int) -> int:
    def norm(cs):
        out = [c % p for c in cs]
        while out and out[-1] == 0:
            out.pop()
        return out

    A, B = norm(p_coeffs), norm(q_coeffs)
    while B:
        inv = pow(B[-1], -1, p)
        while len(A) >= len(B):
            shift = len(A) - len(B)
            factor = A[-1] * inv % p
            for i, c in enumerate(B):
                A[shift + i] = (A[shift + i] - factor * c) % p
            while A and A[-1] == 0:
                A.pop()
            if not A:
                break
        A, B = B, A
    return len(A) - 1


def _common_factor_cases() -> list[tuple]:
    rng = random.Random(424242)
    primes = [p for p in range(2, 98) if all(p % d for d in range(2, p))]
    return [
        (
            primes,
            salem.IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(1, 5))] + [1]),
            salem.IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(1, 5))] + [1]),
        )
        for _ in range(200)
    ]


@_suite("common-factor", cases=_common_factor_cases)
def _suite_common_factor(rec: _Recorder, case: tuple) -> None:
    primes, p_poly, q_poly = case
    res = salem.resultant(p_poly, q_poly)
    for p in primes:
        shares = _poly_gcd_degree_mod_p(p_poly.coeffs, q_poly.coeffs, p) >= 1
        ok = (res % p == 0) == shares
        rec.check(ok, "p={}, {!r}, {!r}", p, p_poly, q_poly)


@_suite("palindromic")
def _suite_palindromic(rec: _Recorder) -> None:
    for a in range(1, 9):
        for n in range(1, 51):
            tau = salem_trace_of_power(a, n)
            quad = salem.salem_data(tau)
            ok = tau > 2 and salem.is_palindromic(quad.polynomial)
            rec.check(ok, "a={}, n={}", a, n)


@_suite("pell")
def _suite_pell(rec: _Recorder) -> None:
    for d in (5, 8, 13, 45, 320):
        for eps in (1, -1):
            for alpha, beta in salem.pell_solutions(d, eps, 50):
                rec.check(
                    alpha * alpha - d * beta * beta == 4 * eps,
                    "d={}, eps={}, ({},{})", d, eps, alpha, beta,
                )
    for a in range(1, 4):
        for k in range(1, 13):
            fk = gen_fib(a, k)
            d = (a * a + 4) * fk * fk
            eps = 1 if k % 2 == 0 else -1
            alpha = is_perfect_square(d + 4 * eps)
            sols = salem.pell_solutions(d, eps, 2)
            rec.check(alpha is not None and (alpha, 1) in sols, "a={}, k={}, alpha={}", a, k, alpha)


@_suite("cyclotomic")
def _suite_cyclotomic(rec: _Recorder) -> None:
    for l in range(1, 51):
        phi = salem.cyclotomic(l)
        rec.check(phi.degree == salem.euler_phi(l), "degree at l={}", l)
        x_l = salem.IntPolynomial([-1] + [0] * (l - 1) + [1])
        _, rem = x_l.divmod_exact(phi)
        rec.check(rem.is_zero, "x^{}-1 division at l={}", l, l)
        for d in range(1, l):
            if l % d == 0:
                x_d = salem.IntPolynomial([-1] + [0] * (d - 1) + [1])
                _, rem = x_d.divmod_exact(phi)
                rec.check(not rem.is_zero, "Phi_{} divides x^{}-1", l, d)


def _entry_candidate_sound(rep: engine.AnalysisReport, c: engine.CandidatePair) -> bool:
    """Why analyze decides an l in {1, 2} candidate by its trace root alone:
    k = e, m | a_e, (A*B)^e acts integrally with the parity-matched sign,
    res(x^2 - tau*x + 1, Phi_l) = -+(a^2 + 4)*a_e^2, every discriminant prime
    divides it, and the root witness, if any, is a_{e-1} + a_{e+1}."""
    m, a, e = rep.m, rep.a, rep.entry_point
    eps = salem.epsilon_for_index(c.l)
    d_ae2 = (a * a + 4) * gen_fib(a, e) ** 2
    res = salem.resultant(salem.IntPolynomial([1, -c.tau, 1]), salem.cyclotomic(c.l))
    root = c.reasons[0].witness["root"]
    return (
        c.k == e
        and gen_fib(a, e) % m == 0
        and lattice.disc_action(lattice.ab_power(a, e), lattice.fibonacci_lattice(m, a), eps).holds
        and res == (-d_ae2 if c.l == 1 else d_ae2)
        and all(res % p == 0 for p in rep.discriminant_primes)
        and root in (None, gen_fib(a, e - 1) + gen_fib(a, e + 1))
    )


@_suite("engine-consistency", cases=lambda: [(a, m) for a in range(1, 4) for m in range(2, 101)])
def _suite_engine_consistency(rec: _Recorder, case: tuple[int, int]) -> None:
    a, m = case
    e = entry_point(a, m)
    if e % 5 == 0:
        return
    rep = engine.analyze(m, a)
    ok = (
        rep.generator is not None
        and rep.survivors == ((rep.generator.l, rep.generator.k),)
        and rep.generator.k == e
        and rep.generator.l == (1 if e % 2 == 0 else 2)
        and _entry_candidate_sound(rep, rep.generator)
    )
    rec.check(ok, "a={}, m={}, e={}", a, m, e)


@_suite("realization", cases=lambda: [(a, m) for a in (1, 2) for m in range(2, 101)])
def _suite_realization(rec: _Recorder, case: tuple[int, int]) -> None:
    a, m = case
    e = entry_point(a, m)
    failing = []
    for n in range(1, 201):
        got = engine.verify_realization(m, a, n)
        ok = got.realized == (n % e == 0)
        if got.realized:
            ok = ok and got.epsilon == (1 if n % 2 == 0 else -1)
        if not ok:
            failing.append((a, m, n, e))
    rec.many(200, failing, "a={}, m={}, n={}, e={}")


@_suite("closure-soundness")
def _suite_closure_soundness(rec: _Recorder) -> None:
    for a in (1, 2):
        for m in range(2, 61):
            rep = engine.analyze(m, a)
            e = rep.entry_point
            even_min = e if e % 2 == 0 else 2 * e
            for c in rep.candidates:
                if c.l % 2 == 1:
                    ok, what = c.k * c.l == even_min, "even-min"
                else:
                    ok, what = c.k * (c.l // 2) == e and e % 2 == 1, "odd-min"
                if c.l in (1, 2):
                    ok = ok and _entry_candidate_sound(rep, c)
                rec.check(ok, "m={}, a={}, ({},{}) {}", m, a, c.l, c.k, what)
                if c.survives:
                    rec.check(
                        salem.cyclotomic_trace_filter(c.tau, c.l),
                        "m={}, a={}, survivor ({},{})", m, a, c.l, c.k,
                    )
            # removing the resultant filter can only widen the survivor set
            wide = {
                (c.l, c.k)
                for c in rep.candidates
                if all(r.passed for r in c.reasons if r.name != "resultant-divisibility")
            }
            rec.check(set(rep.survivors) <= wide, "m={}, a={} monotonicity", m, a)


@_suite("report-determinism")
def _suite_report_determinism(rec: _Recorder) -> None:
    # repr lists every field in order, so it tells apart any two reports
    # whose written-out payloads differ
    for m, a in ((3, 1), (13, 1), (61, 1), (15, 1), (12, 2)):
        first = repr(engine.analyze(m, a))
        rec.check(first == repr(engine.analyze(m, a)), "analyze({},{})", m, a)
    for m in (3, 15, 401):
        first = repr(engine.target_exponent_scenario(m))
        rec.check(first == repr(engine.target_exponent_scenario(m)), "scenario({})", m)


def available_suites() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(name: str) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(available_suites())}"
        )
    return _SUITES[name]()


def run_suites(name: str | None = None) -> list[SuiteResult]:
    if name is not None:
        return [run_suite(name)]
    return [fn() for fn in _SUITES.values()]
