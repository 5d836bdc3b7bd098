"""Workload definitions: which operations a run sends, derived from the seed.

A verdict workload sends `fibk3 candidates m a --json` requests. Each pass
starts with fixed regression points, then draws `pass_size` requests whose m
is log-uniform on [10^lo, 10^hi) and whose a is uniform on `a_choices`. The
draws are stratified by entry point, the quantity that sets an op's cost: a
pool of POOL_FACTOR * pass_size draws, stratified in a and log m, is sorted by
(a, parity of e, e) and one draw is taken at random from each of pass_size
equal slices. a and the parity of e are in the key because, with e, they
decide which candidates an op builds. That keeps the distribution of (m, a)
but makes each pass hold the same mix of cheap and expensive requests, so
runs with different seeds are comparable.

Every op of a workload must succeed, so the pool keeps only requests that
fibk3 can answer under the interpreter's int->str digit limit (4300 digits).
Today a request is refused when the largest trace it prints, tau of index e,
has more digits than that (ROADMAP item 2). That trace is
alpha^(2e) + alpha^(-2e) with alpha = (a + sqrt(a^2 + 4)) / 2, so its digit
count follows from (a, e) alone: `fits_digit_limit` drops draws within
DIGIT_MARGIN digits of the limit before the pool is sliced. It never calls
fibk3, so a fibk3 that lifts the limit is sent the same requests.

The selftest workload runs every suite once per pass, in a fixed order.

Each workload also names `setup_op`, the op a fresh interpreter completes for
setup_s: a fixed request that returns ok at the commit the benchmark was
defined on, so that set-up time measures a whole op and not a refusal.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from typing import Iterator

import checks

POOL_FACTOR = 8
# a request is kept when its largest trace has at least this many digits fewer
# than the limit; the refusals measured start within 5 digits of the limit
DIGIT_MARGIN = 50


def fits_digit_limit(a: int, e: int) -> bool:
    """Whether the largest trace a request with entry point e prints, with
    2e * log10(alpha) digits, stays DIGIT_MARGIN digits below the limit."""
    digits = 2 * e * math.log10((a + math.sqrt(a * a + 4)) / 2)
    return digits < sys.int_info.default_max_str_digits - DIGIT_MARGIN


@dataclass(frozen=True)
class VerdictWorkload:
    name: str
    lo: float
    hi: float
    a_choices: tuple[int, ...]
    anchors: tuple[tuple[int, int], ...]
    pass_size: int
    setup_op: tuple[int, int]
    why: str

    def passes(self, seed: int) -> Iterator[list[tuple[int, int]]]:
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield list(self.anchors) + self._draw(rng)

    def _draw(self, rng: random.Random) -> list[tuple[int, int]]:
        # the pool itself is stratified: as many draws for each a, and log m
        # spread evenly over its range, before draws beyond the digit limit go
        per_a = POOL_FACTOR * self.pass_size // len(self.a_choices)
        pool = []
        for a in self.a_choices:
            for i in range(per_a):
                m = int(10 ** (self.lo + (self.hi - self.lo) * (i + rng.random()) / per_a))
                e = checks.entry_point(a, m)
                if fits_digit_limit(a, e):
                    pool.append((a, e % 2, e, m))
        pool.sort()
        n = self.pass_size
        picks = [pool[rng.randrange(i * len(pool) // n, (i + 1) * len(pool) // n)] for i in range(n)]
        rng.shuffle(picks)
        return [(m, a) for a, _, _, m in picks]


@dataclass(frozen=True)
class SelftestWorkload:
    name: str
    setup_op: str
    why: str

    def passes(self, seed: int) -> Iterator[list[str]]:
        # the suites fix their own inputs, so the seed changes nothing here
        while True:
            yield list(checks.SELFTEST_CHECKS)


_REGRESSION_M = (3, 13, 15, 61, 9699690)

WORKLOADS = {
    w.name: w
    for w in (
        VerdictWorkload(
            name="verdict-grid",
            lo=0.30103,  # log10(2)
            hi=4.0,
            a_choices=(1, 2, 3),
            anchors=tuple((m, a) for m in _REGRESSION_M for a in (1, 2)),
            pass_size=1000,
            setup_op=(3, 1),
            why="many cheap verdicts with m < 10^4, so per-call CLI overhead dominates",
        ),
        VerdictWorkload(
            name="verdict-bigint",
            lo=4.0,
            hi=6.0,
            a_choices=(1, 2),
            anchors=(),
            pass_size=400,
            # entry point 7770: a tau of ~3250 digits
            setup_op=(18980, 1),
            why="m in [10^4, 10^6) with traces up to ~4250 digits: big-int isqrt, resultants and the O(e) entry loop",
        ),
        SelftestWorkload(
            name="selftest",
            setup_op="addition-formula",
            why="all 25 selftest suites: the small-integer oracles, disc_action_bruteforce and 40k realization checks",
        ),
    )
}
