"""Output checks that share no code with fibk3.

Everything here is recomputed from first principles with small modular
arithmetic, so a defect in the package under test cannot also hide in the
checker. A check returns a list of misses; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math

# Large prime for checking decimal-string integers modulo P instead of
# re-deriving their digits.
_P = (1 << 61) - 1
# Decimal digits converted to int at a time: below the interpreter's default
# int<->str limit (4300), which the benchmark leaves in place.
_CHUNK = 4000


def decimal_mod(digits: str, p: int = _P) -> int:
    """The value of a string of decimal digits modulo p, of any length.

    Horner's rule over chunks of _CHUNK digits, so the whole number is never
    built and int() never meets the digit limit.
    """
    if not (isinstance(digits, str) and digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal digit string: {str(digits)[:40]!r}")
    head = len(digits) % _CHUNK or _CHUNK
    r = int(digits[:head]) % p
    shift = pow(10, _CHUNK, p)
    for i in range(head, len(digits), _CHUNK):
        r = (r * shift + int(digits[i : i + _CHUNK])) % p
    return r


def fib_mod(a: int, n: int, m: int) -> int:
    """a_n mod m for a_0 = 0, a_1 = 1, a_{k+2} = a*a_{k+1} + a_k, n >= 0.

    Uses [[a, 1], [1, 0]]^n = [[a_{n+1}, a_n], [a_n, a_{n-1}]]; both powers are
    symmetric, so three entries carry the whole matrix.
    """
    r00, r01, r11 = 1 % m, 0, 1 % m
    b00, b01, b11 = a % m, 1 % m, 0
    while n:
        if n & 1:
            r00, r01, r11 = (
                (r00 * b00 + r01 * b01) % m,
                (r00 * b01 + r01 * b11) % m,
                (r01 * b01 + r11 * b11) % m,
            )
        b00, b01, b11 = (
            (b00 * b00 + b01 * b01) % m,
            (b00 * b01 + b01 * b11) % m,
            (b01 * b01 + b11 * b11) % m,
        )
        n >>= 1
    return r01


def factor(n: int) -> dict[int, int]:
    """Trial-division factorization of n >= 1 (inputs here stay below ~10^7)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def entry_point(a: int, m: int) -> int:
    """Least e >= 1 with m | a_e, from the factorization of m.

    For a prime p not dividing 2D (D = a^2 + 4), p | a_{p - (D/p)}; for an odd
    p | D, p | a_p; and 2 | a_6 always. Each such index is a multiple of the
    entry point of p, which is then reached by dividing out primes while
    divisibility holds, lifted to p^k by multiplying by p, and combined by lcm.
    """
    d = a * a + 4
    e = 1
    for p, k in factor(m).items():
        if p == 2:
            n = 6
        elif d % p == 0:
            n = p
        else:
            n = p - (1 if pow(d, (p - 1) // 2, p) == 1 else -1)
        if fib_mod(a, n, p) != 0:
            raise ArithmeticError(f"no multiple of the entry point of {p} at {n}")
        for q in factor(n):
            while n % q == 0 and fib_mod(a, n // q, p) == 0:
                n //= q
        pk = p**k
        for _ in range(k):
            if fib_mod(a, n, pk) == 0:
                break
            n *= p
        else:
            raise ArithmeticError(f"entry point of {pk} not reached")
        e = e * n // math.gcd(e, n)
    return e


def closure_pairs(e: int) -> list[tuple[int, int]]:
    """Closure-rule hypotheses (l, k) for entry point e, sorted."""
    if e % 2 == 0:
        return sorted((l, e // l) for l in (1, 5, 25) if e % l == 0)
    return sorted((l, 2 * e // l) for l in (2, 10, 50) if e % (l // 2) == 0)


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# (m, a) pairs whose reports carry errata flags for published worked values.
ERRATA_CASES = frozenset({(61, 1), (15, 1)})


def check_verdict(m: int, a: int, out: str, rc: int) -> tuple[str, list[str]]:
    """Check one `candidates m a --json` run; returns (status, misses).

    The status is the document's status field, or "unparsed" when the output
    is not a single JSON document. Misses of a refused request cover only its
    envelope, since it carries no verdict.
    """
    text = out.rstrip("\n")
    try:
        doc = json.loads(text)
    except ValueError:
        return "unparsed", ["output is not one JSON document"]
    misses = []
    if not isinstance(doc, dict) or set(doc) != {"command", "status", "payload", "errata_flags"}:
        return "unparsed", ["document keys differ from the JSON contract"]
    if canonical(doc) != text:
        misses.append("canonical re-serialization is not byte-identical")
    status = doc["status"]
    if doc["command"] != "candidates":
        misses.append(f"command is {doc['command']!r}")
    if (rc == 0) != (status == "ok"):
        misses.append(f"exit code {rc} does not match status {status!r}")
    if status != "ok":
        return status, misses
    try:
        misses += _check_report(m, a, doc["payload"], doc["errata_flags"])
    except (KeyError, TypeError, ValueError) as exc:
        misses.append(f"malformed payload: {exc!r}")
    return status, misses


def _check_report(m: int, a: int, p: dict, flags: list) -> list[str]:
    misses = []
    if (int(p["m"]), int(p["a"])) != (m, a):
        misses.append(f"payload echoes (m, a) = ({p['m']}, {p['a']})")
    e = int(p["entry_point"])
    if e < 1 or fib_mod(a, e, m) != 0:
        misses.append(f"m does not divide a_e at e = {e}")
    elif any(fib_mod(a, e // q, m) == 0 for q in factor(e)):
        misses.append(f"e = {e} is not minimal")
    pairs = [(int(c["l"]), int(c["k"])) for c in p["candidates"]]
    if pairs != closure_pairs(e):
        misses.append(f"candidate pairs {pairs} differ from closure rule {closure_pairs(e)}")
    for c in p["candidates"]:
        l, k = int(c["l"]), int(c["k"])
        want = ((a * a + 4) * fib_mod(a, k, _P) ** 2 + (2 if k % 2 == 0 else -2)) % _P
        if decimal_mod(c["tau"]) != want:
            misses.append(f"tau of (l, k) = ({l}, {k}) is not (a^2+4)*a_k^2 + 2*(-1)^k")
    survivors = [tuple(int(x) for x in s) for s in p["survivors"]]
    want_survivors = [
        (int(c["l"]), int(c["k"])) for c in p["candidates"] if c["verdict"] == "survives"
    ]
    if survivors != want_survivors:
        misses.append("survivors differ from the candidates marked survives")
    if p["generator_criterion_applies"] != (e % 5 != 0):
        misses.append("generator_criterion_applies disagrees with 5 | e")
    if e % 5 != 0:
        want = (1 if e % 2 == 0 else 2, e)
        gen = p["generator"]
        if survivors != [want] or p["resolution"] != "determined":
            misses.append(f"5 does not divide e, but survivors are {survivors}")
        if gen is None or (int(gen["l"]), int(gen["k"])) != want:
            misses.append(f"generator is not (l, k) = {want}")
    elif p["generator"] is not None:
        misses.append("5 divides e, but a generator is reported")
    want_res = "determined" if len(survivors) == 1 else "inconclusive"
    if p["resolution"] != want_res:
        misses.append(f"resolution {p['resolution']!r} with {len(survivors)} survivors")
    if bool(flags) != ((m, a) in ERRATA_CASES):
        misses.append(f"errata flags {'missing' if not flags else 'unexpected'}")
    return misses


# Check count of every `fibk3 selftest` suite at the commit the benchmark was
# defined on; a changed count means the suite no longer tests the same ranges.
SELFTEST_CHECKS = {
    "addition-formula": 160800,
    "cassini": 2400,
    "trace": 2408,
    "shifted-trace": 2400,
    "membership": 400004,
    "coprimality": 1600,
    "divisibility-shift": 3224,
    "divisibility-iff": 112500,
    "entry-point": 199000,
    "fast-path": 6408,
    "ab-power": 1150,
    "integrality": 11760,
    "disc-oracle": 3480,
    "word": 500,
    "resultant-agree": 500,
    "resultant-multiplicative": 200,
    "closed-form-resultants": 120,
    "common-factor": 5000,
    "palindromic": 400,
    "pell": 64,
    "cyclotomic": 257,
    "engine-consistency": 232,
    "realization": 39600,
    "closure-soundness": 391,
    "report-determinism": 8,
}


def check_suite(name: str, checks: int, failures: int) -> list[str]:
    misses = []
    if failures:
        misses.append(f"{failures} of {checks} checks failed")
    if checks != SELFTEST_CHECKS[name]:
        misses.append(f"{checks} checks, expected {SELFTEST_CHECKS[name]}")
    return misses
