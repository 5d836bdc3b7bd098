"""Decision procedure for automorphism-generator candidates.

Given lattice parameters (m, a), m >= 2, the entry point e = min{n : m | a_n}
controls everything:

* every realized isometry exponent is a multiple of e (realized means the
  power of A*B extends over the discriminant group with the parity-matched
  sign, decided in integers by the lattice kernel that lattice.disc_action
  also uses);
* when 5 does not divide e the generator is determined directly: it acts as
  (A*B)^e, symplectically for even e and anti-symplectically for odd e;
* otherwise candidates (l, k) are enumerated by the closure rule below and
  each is run through necessary-condition filters whose witnesses are
  integers, never text. Survivors are candidates, never certified
  generators: the sufficiency direction needs transcendental input that is
  out of scope here.

Closure rule. A generator with 2-form action of order l has its symplectic
power at exponent k*l (l odd) and its anti-symplectic power at exponent
k*l/2 (l even). Matching those against the minimal realized even and odd
exponents forces: e even -> candidates (l, e/l) for l in {1, 5, 25} dividing
e; e odd -> candidates (l, 2e/l) for l in {2, 10, 50} with l/2 dividing e.

The candidate with l in {1, 2} has k = e, so only its trace root is decided
here. Since tau - 2*eps = (a^2 + 4)*a_e^2 and m | a_e by the definition of
e, its resultant against Phi_l is -+(a^2 + 4)*a_e^2, which every discriminant
prime divides, and (A*B)^e acts integrally on the discriminant group. The
selftest suites engine-consistency and closure-soundness check both facts.

Every verdict is computed in closed form and checked by a second exact
computation on every request; a disagreement raises InvariantViolation:

* e comes from the factors of m (fibgen.entry_point), checked against its
  definition: m | a_e, and m does not divide a_{e/q} for any prime q | e;
* tau and the trace root come from one ladder (a_k, a_{k+1}): every
  candidate has eps = (-1)^k, so tau = (a^2 + 4)*a_k^2 + 2*eps and the root
  of tau + 2*eps is V_k = 2*a_{k+1} - a*a_k, checked by squaring (the Lucas
  identity V_k^2 - (a^2 + 4)*a_k^2 = 4*(-1)^k); no square root is taken;
* the resultant against Phi_l is 2 -+ tau for l in {1, 2} and Psi_l(tau)^2
  otherwise, checked against the norm of Phi_l reduced mod x^2 - tau*x + 1.

salem.resultant, with its two agreeing algorithms, stays the library API and
the oracle of the selftest suites.

Reports carry errata flags whenever this machinery disagrees with worked
values published for specific (m, a); those discrepancies are recomputed and
surfaced, never silently adopted or discarded.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .fibgen import (
    _check_a,
    _fib_pair,
    _integer,
    entry_point,
    gen_fib,
    is_perfect_square,
    salem_trace_of_power,
)
from .lattice import _disc_kernel
from ._primes import prime_divisors
from ._record import Record
from .salem import (
    ENGINE_CYCLOTOMIC_INDICES,
    IntPolynomial,
    SalemQuadratic,
    _admissible_root,
    char_poly_multiplicity,
    closed_form_resultant,
    cyclotomic,
    epsilon_for_index,
    resultant,
    salem_data,
)

__all__ = [
    "FilterCheck",
    "CandidatePair",
    "SurvivorDetail",
    "AnalysisReport",
    "RealizationResult",
    "ScenarioCandidate",
    "TargetExponentReport",
    "analyze",
    "verify_realization",
    "target_exponent_scenario",
    "disc_prime_divisors",
    "errata_for_resultant",
]


class FilterCheck(Record):
    """A filter outcome with the integers that witness it (None: no such value).

    trace-root-admissible: root, the admissible root of tau + 2*eps.
    cyclotomic-trace-squares: root and root5, the square roots of tau + 2*eps
    and 5*(tau - 2*eps): V_k, and a_k*sqrt(5*(a^2 + 4)) when that is an
    integer.
    resultant-divisibility: resultant, res(x^2 - tau*x + 1, Phi_l), and
    failing_prime, the first discriminant prime not dividing it.
    """

    name: str
    passed: bool
    witness: dict[str, int | None]

    _unhashed = ("witness",)


class CandidatePair(Record):
    """A generator hypothesis: 2-form order l, isometry exponent k."""

    l: int
    k: int
    tau: int
    epsilon_class: str  # symplectic / anti_symplectic / order_l
    verdict: str  # survives / excluded
    reasons: tuple[FilterCheck, ...]

    @property
    def survives(self) -> bool:
        return self.verdict == "survives"


class SurvivorDetail(Record):
    """Characteristic polynomial (x^2 - tau*x + 1)*Phi_l(x)^multiplicity."""

    l: int
    k: int
    multiplicity: int
    salem: SalemQuadratic


class AnalysisReport(Record):
    m: int
    a: int
    entry_point: int
    discriminant_primes: tuple[int, ...]
    generator_criterion_applies: bool  # true exactly when 5 does not divide e
    generator: CandidatePair | None
    candidates: tuple[CandidatePair, ...]
    survivor_details: tuple[SurvivorDetail, ...]
    resolution: str  # determined / inconclusive
    errata_flags: tuple[str, ...]

    @property
    def survivors(self) -> tuple[tuple[int, int], ...]:
        return tuple((c.l, c.k) for c in self.candidates if c.survives)

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "a": self.a,
            "entry_point": self.entry_point,
            "discriminant_primes": list(self.discriminant_primes),
            "generator_criterion_applies": self.generator_criterion_applies,
            "generator": _candidate_dict(self.generator) if self.generator else None,
            "candidates": [_candidate_dict(c) for c in self.candidates],
            "survivors": [list(s) for s in self.survivors],
            "survivor_details": [
                {
                    "l": d.l,
                    "k": d.k,
                    "multiplicity": d.multiplicity,
                    "salem": {
                        "tau": d.salem.tau,
                        "polynomial": str(d.salem.polynomial),
                        "lambda": d.salem.lambda_,
                        "entropy": d.salem.entropy,
                    },
                }
                for d in self.survivor_details
            ],
            "resolution": self.resolution,
            "errata_flags": list(self.errata_flags),
        }


def _candidate_dict(c: CandidatePair) -> dict:
    return {
        "l": c.l,
        "k": c.k,
        "tau": c.tau,
        "epsilon_class": c.epsilon_class,
        "verdict": c.verdict,
        "reasons": [
            {"name": r.name, "passed": r.passed, "witness": dict(r.witness)}
            for r in c.reasons
        ],
    }


class RealizationResult(Record):
    realized: bool
    epsilon: int | None


# the only three results; a record is immutable, so each is built once
_REALIZED = {1: RealizationResult(True, 1), -1: RealizationResult(True, -1)}
_NOT_REALIZED = RealizationResult(False, None)


# ---------------------------------------------------------------------------
# Errata registry: published worked values this machinery recomputes
# differently. Flags are emitted alongside results, never merged into them.
# ---------------------------------------------------------------------------

_RES_322_PHI5_PUBLISHED = 59**2 * 1741**2


def _flag_resultant_322() -> str:
    recomputed = closed_form_resultant(5, 6)
    generic = resultant(IntPolynomial([1, -322, 1]), cyclotomic(5))
    if generic != recomputed:
        raise InvariantViolation(
            f"closed form {recomputed} and generic resultant {generic} disagree"
        )
    return (
        "published-resultant-322-phi5: the published value "
        f"59^2*1741^2 = {_RES_322_PHI5_PUBLISHED} for res(x^2 - 322*x + 1, Phi_5) "
        f"differs from the recomputed {recomputed} = 104005^2 = 5^2*11^2*31^2*61^2; "
        "both independent resultant algorithms and the Fibonacci closed form agree "
        "on the recomputed value, which 61 does divide"
    )


def _flag_generator_m61() -> str:
    return (
        "published-generator-m61: the published analysis of (m, a) = (61, 1) "
        "concludes the anti-symplectic (l, k) = (2, 15) generator alone; the "
        "closure rule also leaves (l, k) = (10, 3) surviving every implemented "
        "filter, and the exclusion argument it relies on uses the flagged "
        "resultant constant"
    )


def _flag_generator_m15() -> str:
    return (
        "published-generator-m15: the published target-exponent analysis of m = 15 "
        "selects exponent 100, but 15 | f_20 = 6765 realizes the symplectic "
        "exponent 20, which cannot be a power of exponent 100; the closure rule "
        "yields (l, k) = (1, 20)"
    )


_CONTEXT_FLAGS: dict[tuple[int, int], tuple] = {
    (61, 1): (_flag_resultant_322, _flag_generator_m61),
    (15, 1): (_flag_generator_m15,),
}


def errata_for_resultant(p: IntPolynomial, q: IntPolynomial) -> tuple[str, ...]:
    """Flags applicable to a directly requested resultant computation."""
    suspect = {IntPolynomial([1, -322, 1]).coeffs, cyclotomic(5).coeffs}
    if {p.coeffs, q.coeffs} == suspect:
        return (_flag_resultant_322(),)
    return ()


# ---------------------------------------------------------------------------
# Filters.
# ---------------------------------------------------------------------------


def disc_prime_divisors(m: int, a: int) -> tuple[int, ...]:
    """Sorted primes dividing the lattice discriminant m^2 (a^2 + 4)."""
    if type(m) is not int:
        m = _integer(m, "m")
    if type(a) is not int:
        a = _integer(a, "a")
    return tuple(sorted(set(prime_divisors(m)) | set(prime_divisors(a * a + 4))))


def _epsilon_class(l: int) -> str:
    if l == 1:
        return "symplectic"
    if l == 2:
        return "anti_symplectic"
    return "order_l"


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


def _resultant_failure(
    tau: int, l: int, primes: tuple[int, ...]
) -> tuple[int, int | None]:
    """res(x^2 - tau*x + 1, Phi_l) and the first of primes not dividing it, or None."""
    value = _trace_resultant(tau, l)
    return value, next((p for p in primes if value % p != 0), None)


def _check_resultant(tau: int, l: int, primes: tuple[int, ...]) -> FilterCheck:
    value, failing = _resultant_failure(tau, l, primes)
    witness = {"resultant": value, "failing_prime": failing}
    return FilterCheck("resultant-divisibility", failing is None, witness)


def _build_candidate(a: int, l: int, k: int, primes: tuple[int, ...]) -> CandidatePair:
    eps = epsilon_for_index(l)
    d = a * a + 4
    ak, ak1 = _fib_pair(a, k)
    tau = d * ak * ak + (2 if k % 2 == 0 else -2)
    # V_k = a_{k-1} + a_{k+1}, and V_k^2 - d*a_k^2 = 4*(-1)^k: with eps =
    # (-1)^k, as the closure rule gives, V_k is the root of tau + 2*eps
    root = 2 * ak1 - a * ak
    if root * root != tau + 2 * eps:
        raise InvariantViolation(
            f"V_{k} squared is not tau + 2*eps for (l, k) = ({l}, {k}), a = {a}"
        )
    if l in (1, 2):
        # k = e: the trace root is the only open condition (module docstring)
        admissible = _admissible_root(root, eps)
        witness = {"root": admissible}
        checks = (FilterCheck("trace-root-admissible", admissible is not None, witness),)
    else:
        # 5*(tau - 2*eps) = 5*d*a_k^2 is a square exactly when 5*d is one
        unit = is_perfect_square(5 * d)
        root5 = None if unit is None else ak * unit
        squares = FilterCheck(
            "cyclotomic-trace-squares", root5 is not None, {"root": root, "root5": root5}
        )
        checks = (squares, _check_resultant(tau, l, primes))
    verdict = "survives" if all(c.passed for c in checks) else "excluded"
    return CandidatePair(l, k, tau, _epsilon_class(l), verdict, checks)


# ---------------------------------------------------------------------------
# Main analysis.
# ---------------------------------------------------------------------------


def analyze(m: int, a: int) -> AnalysisReport:
    """Full generator analysis for the lattice with parameters (m, a), m >= 2.

    Computes the entry point e, the directly determined generator when 5 does
    not divide e, and the filtered closure-rule candidate list either way.
    Candidate order is deterministic and every witness is an integer, so
    identical inputs serialize identically and no trace is formatted here.
    """
    if type(m) is not int:
        m = _integer(m, "m")
    if m < 2:
        raise ValueError("analysis requires m >= 2")
    if a < 1:
        raise ValueError("a must be >= 1")
    e = entry_point(a, m)
    primes = disc_prime_divisors(m, a)

    if e % 2 == 0:
        pairs = [(l, e // l) for l in (1, 5, 25) if e % l == 0]
    else:
        pairs = [(l, 2 * e // l) for l in (2, 10, 50) if e % (l // 2) == 0]
    pairs.sort()
    candidates = tuple(_build_candidate(a, l, k, primes) for l, k in pairs)

    applies = e % 5 != 0
    generator = None
    if applies:
        want_l = 1 if e % 2 == 0 else 2
        for c in candidates:
            if c.l == want_l and c.k == e:
                generator = c
                break
        if generator is None or not generator.survives:
            raise InvariantViolation(
                f"expected determined generator (l={want_l}, k={e}) to survive"
            )

    survivors = [c for c in candidates if c.survives]
    details = tuple(
        SurvivorDetail(c.l, c.k, char_poly_multiplicity(c.l), salem_data(c.tau))
        for c in survivors
    )
    resolution = "determined" if len(survivors) == 1 else "inconclusive"
    flags = tuple(build() for build in _CONTEXT_FLAGS.get((m, a), ()))
    return AnalysisReport(
        m=m,
        a=a,
        entry_point=e,
        discriminant_primes=primes,
        generator_criterion_applies=applies,
        generator=generator,
        candidates=candidates,
        survivor_details=details,
        resolution=resolution,
        errata_flags=flags,
    )


def verify_realization(m: int, a: int, n: int) -> RealizationResult:
    """Whether (A*B)^n extends across the discriminant group for L(m, a).

    Realized with epsilon = +1 for even n and epsilon = -1 for odd n. The
    answer is disc_action(ab_power(a, n), fibonacci_lattice(m, a), eps).holds,
    decided without building those objects: (a_{2n-1}, a_{2n}) come from one
    ladder, and (A*B)^n with the Gram entries (2m, am, -2m) goes to
    lattice._disc_kernel, the isometry guard and integrality test that
    disc_action also runs.
    """
    if type(m) is not int:
        m = _integer(m, "m")
    if type(n) is not int:
        n = _integer(n, "n")
    if m < 2:
        raise ValueError("realization requires m >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    if a < 1:
        raise ValueError("a must be >= 1")
    _check_a(a)
    eps = 1 if n % 2 == 0 else -1
    odd, even = _fib_pair(a, 2 * n - 1)
    holds = _disc_kernel(odd, even, even, a * even + odd, 2 * m, a * m, -2 * m, eps)[4]
    return _REALIZED[eps] if holds else _NOT_REALIZED


# ---------------------------------------------------------------------------
# Target-exponent scenario (the published 100-exponent enumeration).
# ---------------------------------------------------------------------------


class ScenarioCandidate(Record):
    l: int
    k: int
    required_index: int  # exponent whose divisibility by m the pair needs
    verdict: str
    reasons: tuple[str, ...]

    @property
    def survives(self) -> bool:
        return self.verdict == "survives"


class TargetExponentReport(Record):
    m: int
    n_target: int
    published_candidates: tuple[ScenarioCandidate, ...]
    published_survivors: tuple[tuple[int, int], ...]
    closure_report: AnalysisReport
    errata_flags: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n_target": self.n_target,
            "published_style_candidates": [
                {
                    "l": c.l,
                    "k": c.k,
                    "required_index": c.required_index,
                    "verdict": c.verdict,
                    "reasons": list(c.reasons),
                }
                for c in self.published_candidates
            ],
            "published_style_survivors": [list(s) for s in self.published_survivors],
            "closure_rule": self.closure_report.as_dict(),
            "errata_flags": list(self.errata_flags),
        }


# pairs the published enumeration discards on grounds no implemented
# criterion reproduces; each is re-checked concretely and flagged when the
# concrete filters would have kept it
_LITERAL_EXCLUSIONS = {
    (1, 20): "published-exclusion-k20: discarded citing non-divisibility of f_50",
    (25, 4): "published-exclusion-l25k4: discarded by a resultant argument assuming m | f_20",
    (5, 20): "published-exclusion-l5k20: discarded by a resultant argument assuming m | f_20",
}


def _required_index(l: int, k: int) -> int:
    # exponent of the first symplectic (odd l) or anti-symplectic (even l)
    # power of the hypothesized generator
    return k if l in (1, 2) else (k * l if l % 2 == 1 else k * (l // 2))


def _scenario_concrete(
    m: int, l: int, k: int, primes: tuple[int, ...]
) -> tuple[bool, list[str]]:
    """The concrete divisibility and resultant filters: (passed, reasons)."""
    r = _required_index(l, k)
    if gen_fib(1, r) % m != 0:
        return False, [f"divisibility: m does not divide f_{r}"]
    value, failing = _resultant_failure(salem_trace_of_power(1, k), l, primes)
    if failing is None:
        outcome = f"all of {list(primes)} divide res = {value}"
    else:
        outcome = f"prime {failing} does not divide res = {value}"
    return failing is None, [f"divisibility: m | f_{r}", f"resultant-divisibility: {outcome}"]


def target_exponent_scenario(m: int, n_target: int = 100) -> TargetExponentReport:
    """Reproduce the published enumeration for generators under exponent 100.

    Hypothesis: m | f_100 and m does not divide f_50 (checked). Candidates
    (l, k) run over k*l | 100 with the parity constraint (even k for odd l,
    odd k for even l). The published pipeline then discards pairs whose
    required exponent divides 50 (sound under the hypothesis), applies three
    literal published exclusions that no implemented criterion reproduces
    (flagged when they matter for this m), and finally checks concrete
    divisibility and resultant conditions. The closure-rule analysis is
    reported alongside for comparison.
    """
    if type(m) is not int:
        m = _integer(m, "m")
    if type(n_target) is not int:
        n_target = _integer(n_target, "n_target")
    if n_target != 100:
        raise ValueError("the published scenario is specific to target exponent 100")
    if m < 2:
        raise ValueError("scenario requires m >= 2")
    if gen_fib(1, 100) % m != 0:
        raise ValueError(f"precondition failed: {m} does not divide f_100")
    if gen_fib(1, 50) % m == 0:
        raise ValueError(f"precondition failed: {m} divides f_50")

    primes = disc_prime_divisors(m, 1)
    flags: list[str] = []
    candidates: list[ScenarioCandidate] = []

    divisors_100 = [d for d in range(1, 101) if 100 % d == 0]
    for l in ENGINE_CYCLOTOMIC_INDICES:
        for k in divisors_100:
            if 100 % (k * l) != 0:
                continue
            r = _required_index(l, k)
            reasons: list[str] = []
            verdict = "survives"

            needs_even = l in (1, 5, 25)
            if needs_even != (k % 2 == 0):
                verdict = "excluded"
                reasons.append(
                    f"parity: order {l} requires {'even' if needs_even else 'odd'} k"
                )
            elif 50 % r == 0:
                verdict = "excluded"
                reasons.append(
                    f"forces-f50: m | f_{r} would force m | f_50, "
                    "contradicting the hypothesis"
                )
            elif (l, k) in _LITERAL_EXCLUSIONS:
                verdict = "excluded"
                reasons.append(_LITERAL_EXCLUSIONS[(l, k)])
                if _scenario_concrete(m, l, k, primes)[0]:
                    flags.append(
                        f"{_LITERAL_EXCLUSIONS[(l, k)].split(':')[0]}: the concrete "
                        f"filters would keep (l, k) = ({l}, {k}) for m = {m}; the "
                        "published exclusion is not reproduced"
                    )
            else:
                passed, concrete = _scenario_concrete(m, l, k, primes)
                reasons.extend(concrete)
                if not passed:
                    verdict = "excluded"
            candidates.append(ScenarioCandidate(l, k, r, verdict, tuple(reasons)))

    candidates.sort(key=lambda c: (c.l, c.k))
    published_survivors = tuple((c.l, c.k) for c in candidates if c.survives)
    closure = analyze(m, 1)
    if set(published_survivors) != set(closure.survivors):
        flags.append(
            "scenario-vs-closure: published-style survivors "
            f"{sorted(published_survivors)} differ from closure-rule survivors "
            f"{sorted(closure.survivors)}"
        )
    return TargetExponentReport(
        m=m,
        n_target=100,
        published_candidates=tuple(candidates),
        published_survivors=published_survivors,
        closure_report=closure,
        errata_flags=tuple(flags),
    )
