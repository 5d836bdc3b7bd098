"""Fixtures shared across the test files."""

from types import SimpleNamespace

import pytest


@pytest.fixture(scope="session")
def selftest_pass():
    """One pass of every selftest suite, run once per test session.

    `results` maps each suite name to its SuiteResult, in run order. While
    the pass runs, a spy stands in for `fibgen._fib_memo` and records
    (a, n, bits of the larger term) for every memoized ladder call in
    `memo_calls`; `memo_info` is the memo's cache_info() after the pass.
    The pass runs on one worker (`selftest._usable_cpus` patched to 1), so
    that every case runs in this process: the spy sees no call made in a
    forked worker.
    """
    from fibk3 import fibgen, selftest

    memo, seen = fibgen._fib_memo, []

    def spy(a, n):
        pair = memo(a, n)
        seen.append((a, n, max(pair[0].bit_length(), pair[1].bit_length())))
        return pair

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fibgen, "_fib_memo", spy)
        patch.setattr(selftest, "_usable_cpus", lambda: 1)
        results = {r.name: r for r in selftest.run_suites()}
    return SimpleNamespace(
        results=results,
        memo_calls=seen,
        memo_info=memo.cache_info(),
    )
