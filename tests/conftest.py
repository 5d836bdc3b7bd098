"""Fixtures shared across the test files."""

import importlib
from collections import Counter
from types import SimpleNamespace

import pytest

# the library functions whose calls the selftest pass counts, suite by suite,
# each as "module.name", the module a suite calls it through
COUNTED_CALLS = (
    "selftest.classify_membership",
    "selftest.divides_in_sequence",
    "engine.verify_realization",
    "selftest.gen_fib",
    "selftest.salem_trace_of_power",
    "selftest.shifted_trace",
    "lattice.disc_action",
    "lattice.disc_action_bruteforce",
    "lattice.word_decompose",
)


@pytest.fixture(scope="session")
def selftest_pass():
    """One pass of every selftest suite, run once per test session.

    `results` maps each suite name to its SuiteResult, in run order. While
    the pass runs, a spy stands in for `fibgen._fib_memo` and records
    (a, n, bits of the larger term) for every memoized ladder call in
    `memo_calls`; `memo_info` is the memo's cache_info() after the pass.
    `calls` maps each suite name to a Counter of the calls it made to each
    function of COUNTED_CALLS, keyed as there. The pass runs on one worker
    (`selftest._usable_cpus` patched to 1), so that every case runs in this
    process: the spies see no call made in a forked worker.
    """
    from fibk3 import fibgen, selftest

    memo, seen = fibgen._fib_memo, []

    def spy(a, n):
        pair = memo(a, n)
        seen.append((a, n, max(pair[0].bit_length(), pair[1].bit_length())))
        return pair

    tally, calls = Counter(), {}

    def counting(label, real):
        def count(*args, **kwargs):
            tally[label] += 1
            return real(*args, **kwargs)

        return count

    def per_suite(name, run):
        def counted():
            tally.clear()
            result = run()
            calls[name] = tally.copy()
            return result

        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fibgen, "_fib_memo", spy)
        patch.setattr(selftest, "_usable_cpus", lambda: 1)
        for label in COUNTED_CALLS:
            module, name = label.split(".")
            module = importlib.import_module(f"fibk3.{module}")
            patch.setattr(module, name, counting(label, getattr(module, name)))
        for name, run in list(selftest._SUITES.items()):
            patch.setitem(selftest._SUITES, name, per_suite(name, run))
        results = {r.name: r for r in selftest.run_suites()}
    return SimpleNamespace(
        results=results,
        calls=calls,
        memo_calls=seen,
        memo_info=memo.cache_info(),
    )
