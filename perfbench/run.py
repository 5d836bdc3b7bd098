"""fibk3 benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload verdict-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. It imports fibk3 from ./src, sends one request
at a time in this process and checks every output with perfbench/checks.py,
outside the timed region. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones from a traced
run (see README.md). The line before it, `extra {...}`, holds figures that are
recorded in BASELINE.json but are not metrics. Exits 2 without a result when
./src/fibk3 is missing.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, SelftestWorkload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
# op_tail_ms: p99, or the highest percentile with TAIL_BEYOND samples beyond
# it when a run has fewer than 100 * TAIL_BEYOND ops. A higher percentile of a
# few thousand ops is set by a handful of host hiccups and spread by ~0.1
# between seeds.
TAIL_PCT = 99.0
TAIL_BEYOND = 10
# A failed op is valued at its own latency plus this, and ranks above every
# completed op: its caller waited and got no verdict.
FAILED_OP_PENALTY_S = 60.0
# host-speed scaling: see HostSpeed
REFERENCE_S = 0.008
SAMPLE_EVERY_S = 0.5
SCALE_WINDOW = 5
# the traced run repeats untraced and traced passes by turns, up to
# TRACE_MAX_ROUNDS traced ones while their op time is below TRACE_MIN_S, so
# that host drift across one short pass does not set the overhead ratio
TRACE_MIN_S = 10.0
TRACE_MAX_ROUNDS = 5

END_TO_END = ("setup_s", "goodput_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
_FAIL_COUNTED = ("engine.analyze", "_primes.factorize", "salem.resultant", "engine.verify_realization")
_COUNTS = {
    "fibgen.entry_point.steps": "count",
    "fibgen.is_perfect_square.max_bits": "bits",
    "salem.resultant.agreed": "count",
    "salem.cyclotomic.hit_ratio": "ratio",
    "lattice.enumerate_discriminant_cosets.cosets": "count",
    "lattice.enumerate_discriminant_cosets.useful_ratio": "ratio",
    "engine.analyze.tau_bits_max": "bits",
    "engine.analyze.candidates": "count",
    "engine.analyze.survivors": "count",
    "cli.main.out_bytes": "bytes",
    "cli.main.status.ok": "count",
    "cli.main.status.input_error": "count",
    "cli.main.status.internal_error": "count",
}
_TRACE_META = {"trace.overhead_ratio": "ratio", "trace.wall_s": "s", "bench.harness.self_s": "s"}


def _metric(name: str) -> str:
    # metric names must start with a letter or digit: _primes -> primes
    return name.lstrip("_")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.TRACED:
        units[f"{_metric(name)}.calls"] = "count"
        units[f"{_metric(name)}.total_s"] = "s"
        units[f"{_metric(name)}.self_s"] = "s"
    units.update({f"{_metric(name)}.fail": "count" for name in _FAIL_COUNTED})
    units.update(_COUNTS)
    units.update({f"selftest.{suite}.s": "s" for suite in checks.SELFTEST_CHECKS})
    units.update(_TRACE_META)
    return units


@dataclass(frozen=True)
class Outcome:
    """One op as the caller saw it."""

    latency: float
    units: int  # verdicts, or checks in selftest
    failed_units: int
    status: str
    reason: str | None  # None for an op that returned a checked result
    out_bytes: int
    misses: list[str]

    @property
    def ok(self) -> bool:
        return self.reason is None


class VerdictRunner:
    def __init__(self):
        import fibk3.cli

        self.cli = fibk3.cli

    def run(self, op) -> Outcome:
        m, a = op
        argv = ["candidates", str(m), str(a), "--json"]
        out, err = io.StringIO(), io.StringIO()
        rc = None
        reason = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed op, not the end of the run
                reason = f"exception:{type(exc).__name__}"
            latency = time.perf_counter() - start
        text = out.getvalue()
        if reason is not None:
            return Outcome(latency, 1, 1, "exception", reason, len(text), [])
        status, misses = checks.check_verdict(m, a, text, rc)
        if misses:
            reason = "check"
        elif status == "input_error":
            message = json.loads(text)["payload"].get("message", "")
            reason = "input_error:digit_limit" if "4300" in message else "input_error:other"
        elif status != "ok":
            reason = status
        return Outcome(latency, 1, 0 if reason is None else 1, status, reason, len(text), misses)

    @staticmethod
    def setup_code(op) -> str:
        # exits with the CLI's code: nonzero unless the request returned ok
        m, a = op
        return (
            "import contextlib, io, sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import fibk3.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    rc = fibk3.cli.main(['candidates', '{m}', '{a}', '--json'])\n"
            "sys.exit(rc)\n"
        )

    @staticmethod
    def setup_units(op) -> int:
        return 1


class SuiteRunner:
    def __init__(self, tracer=None):
        import fibk3.selftest

        self.selftest = fibk3.selftest
        self.tracer = tracer

    def run(self, name) -> Outcome:
        expected = checks.SELFTEST_CHECKS[name]
        # the suite's span sits inside the op's latency, as a traced
        # cli.main does in VerdictRunner.run
        start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.enter(f"selftest.{name}")
        try:
            result = self.selftest.run_suite(name)
        except Exception as exc:  # a suite that raises fails all its checks
            if self.tracer is not None:
                self.tracer.exit(failed=True)
            latency = time.perf_counter() - start
            reason = f"exception:{type(exc).__name__}"
            return Outcome(latency, expected, expected, "exception", reason, 0, [])
        if self.tracer is not None:
            self.tracer.exit()
        latency = time.perf_counter() - start
        misses = checks.check_suite(name, result.checks, result.failures)
        if not misses:
            return Outcome(latency, result.checks, 0, "ok", None, 0, [])
        failed = result.failures if result.checks == expected else result.checks
        return Outcome(latency, result.checks, failed, "ok", "check", 0, [f"{name}: {x}" for x in misses])

    @staticmethod
    def setup_code(name) -> str:
        # exits nonzero unless the suite passes with its expected check count
        return (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import fibk3.selftest\n"
            f"result = fibk3.selftest.run_suite({name!r})\n"
            f"sys.exit(0 if result.failures == 0 and result.checks == {checks.SELFTEST_CHECKS[name]} else 1)\n"
        )

    @staticmethod
    def setup_units(name) -> int:
        return checks.SELFTEST_CHECKS[name]


def _runner_class(workload):
    return SuiteRunner if isinstance(workload, SelftestWorkload) else VerdictRunner


@dataclass
class Measured:
    outcomes: list[Outcome]
    busy: float  # summed op latency
    driver: float  # the benchmark's own time between and around the ops


def measure(runner, ops_iter, seconds: float, min_passes: int = 0, between=None) -> Measured:
    """Closed loop: send the next op only after the previous one returned.

    Stops once the summed op time reaches `seconds`, after the current op or,
    with min_passes, after the current pass and no fewer than min_passes
    passes. `between(busy)` runs after each op, outside the timed region.
    The driver time is timed directly: each runner.run call minus its op's
    latency (output capture, checks), plus each `between` call.
    """
    got = Measured([], 0.0, 0.0)
    clock = time.perf_counter
    for done, ops in enumerate(ops_iter, 1):
        for op in ops:
            t0 = clock()
            outcome = runner.run(op)
            got.outcomes.append(outcome)
            got.busy += outcome.latency
            if between is not None:
                between(got.busy)
            got.driver += clock() - t0 - outcome.latency
            if got.busy >= seconds and not min_passes:
                return got
        if got.busy >= seconds and done >= min_passes:
            return got
    return got


def latency_quantiles(latencies: list[float], ok: list[bool]) -> tuple[float, float, float]:
    """Median and tail latency, and the tail's percentile.

    A failed op ranks above every completed op and is valued at its own
    latency plus FAILED_OP_PENALTY_S. The tail is the nearest-rank TAIL_PCT
    percentile, or a higher one when needed to leave at least TAIL_BEYOND
    samples above it; the slowest sample when there are too few.
    """
    ranked = sorted((not good, t if good else t + FAILED_OP_PENALTY_S) for t, good in zip(latencies, ok))
    n = len(ranked)
    index = min(math.ceil(TAIL_PCT * n / 100) - 1, n - TAIL_BEYOND - 1) if n > TAIL_BEYOND else n - 1
    values = [t for _, t in ranked]
    mid = len(values) // 2
    p50 = values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2
    return p50, values[index], 100.0 * (index + 1) / len(values)


def reference_loop() -> int:
    """Fixed pure-Python work whose time tracks the host's current speed.

    Integer arithmetic plus small-object allocation: on the host the benchmark
    was defined on, this mix tracked fibk3's speed better than either alone.
    """
    x = 0
    for i in range(40000):
        x = (x * 31 + i) % 1000003
    out = []
    for i in range(6000):
        d = {"k": i, "v": str(i)}
        out.append((d["k"], len(d["v"])))
    return x + len(out)


class HostSpeed:
    """Times of reference_loop sampled along a run, keyed by measured op time.

    The host is shared: the same work can take 1.5 times as long for minutes
    at a time. Reported times are scaled to the speed at which reference_loop
    takes REFERENCE_S, by the median of the SCALE_WINDOW samples nearest in
    measured op time.
    """

    def __init__(self):
        self.at: list[float] = []
        self.loop_s: list[float] = []

    def sample(self, busy: float) -> None:
        start = time.perf_counter()
        reference_loop()
        self.at.append(busy)
        self.loop_s.append(time.perf_counter() - start)

    def scale(self, busy: float) -> float:
        i = bisect.bisect_left(self.at, busy)
        lo = max(0, min(i - SCALE_WINDOW // 2, len(self.at) - SCALE_WINDOW))
        return REFERENCE_S / statistics.median(self.loop_s[lo : lo + SCALE_WINDOW])

    def scaled(self, latencies: list[float]) -> list[float]:
        out, busy = [], 0.0
        for t in latencies:
            out.append(t * self.scale(busy + t / 2))
            busy += t
        return out


def sampler(speed: HostSpeed):
    """A `between` hook that samples the host speed every SAMPLE_EVERY_S."""
    due = 0.0

    def between(busy):
        nonlocal due
        if busy >= due:
            speed.sample(busy)
            due = busy + SAMPLE_EVERY_S

    return between


def measure_setup(runner_class, op) -> tuple[float, bool]:
    """Wall time for a fresh interpreter to import fibk3 and complete `op`,
    and whether the op returned ok (the child's exit code is 0)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-I", "-c", runner_class.setup_code(op)],
        cwd=ROOT, capture_output=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"  set-up run failed (exit {proc.returncode}): {proc.stderr.decode()[-300:]}")
    return elapsed, proc.returncode == 0


def _summary(outcomes: list[Outcome]) -> tuple[int, int, list[str]]:
    attempted = sum(o.units for o in outcomes)
    failed = sum(o.failed_units for o in outcomes)
    misses = [m for o in outcomes for m in o.misses]
    return attempted, failed, misses


def _report_failures(outcomes: list[Outcome]) -> None:
    reasons: dict[str, int] = {}
    for o in outcomes:
        if not o.ok:
            reasons[o.reason] = reasons.get(o.reason, 0) + 1
    for reason, n in sorted(reasons.items()):
        print(f"  failed ops: {n} x {reason}")


def run_untraced(workload, seed: int, seconds: float) -> dict:
    runner_class = _runner_class(workload)
    speed = HostSpeed()
    sample = sampler(speed)
    # set-up runs are spread over the run, so that one slow spell of the host
    # does not set their median
    setups: list[tuple[float, float, bool]] = []  # (measured op time so far, set-up seconds, ok)
    marks = [seconds * i / SETUP_REPEATS for i in range(SETUP_REPEATS)]

    def between(busy):
        sample(busy)
        while marks and busy >= marks[0]:
            marks.pop(0)
            setups.append((busy, *measure_setup(runner_class, workload.setup_op)))

    between(0.0)
    whole = isinstance(workload, SelftestWorkload)
    # selftest runs whole passes, at least two, so that its pass latencies
    # have more than one sample whatever the host's speed
    got = measure(runner_class(), workload.passes(seed), seconds, 2 if whole else 0, between)
    outcomes, busy = got.outcomes, got.busy
    sample(float("inf"))

    attempted, failed, misses = _summary(outcomes)
    raw = [o.latency for o in outcomes]
    ok = [o.ok for o in outcomes]
    latencies = speed.scaled(raw)
    scaled_busy = sum(latencies)
    if whole:
        # the latency a selftest user waits for is a whole `fibk3 selftest`
        # pass; single suites differ by four orders of magnitude
        n = len(checks.SELFTEST_CHECKS)
        raw = [sum(raw[i : i + n]) for i in range(0, len(raw), n)]
        latencies = [sum(latencies[i : i + n]) for i in range(0, len(latencies), n)]
        ok = [all(ok[i : i + n]) for i in range(0, len(ok), n)]
    p50, tail, tail_pct = latency_quantiles(latencies, ok)
    values = {
        "setup_s": (statistics.median(t * speed.scale(at) for at, t, _ in setups), "s"),
        "goodput_per_s": ((attempted - failed) / scaled_busy, "1/s"),
        "op_p50_ms": (1000 * p50, "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    unit = "checks" if whole else "verdicts"
    print(f"workload {workload.name} seed {seed}: {len(outcomes)} ops, {attempted} {unit}, {busy:.3f} s measured")
    for name in END_TO_END:
        value, u = values[name]
        print(f"  {name} = {value:.6g} {u}")
    op = "passes" if whole else "ops"
    print(f"  op_tail_ms is p{tail_pct:.2f} of {len(latencies)} {op}; fail_ratio = {failed / attempted:.6g}")
    print(
        f"  host speed: reference loop median {1000 * statistics.median(speed.loop_s):.3f} ms"
        f" over {len(speed.loop_s)} samples (times above are scaled to {1000 * REFERENCE_S:g} ms)"
    )
    raw_p50, _, _ = latency_quantiles(raw, ok)
    print(
        f"  unscaled: goodput {(attempted - failed) / busy:.6g} 1/s, op_p50 {1000 * raw_p50:.6g} ms,"
        f" setup {statistics.median(t for _, t, _ in setups):.6g} s"
    )
    completed = [t for t, good in zip(latencies, ok) if good]
    done_p50, done_tail, done_pct = latency_quantiles(completed, [True] * len(completed)) if completed else (None,) * 3
    if completed:
        print(f"  completed {op} only: p50 {1000 * done_p50:.6g} ms, tail {1000 * done_tail:.6g} ms (p{done_pct:.2f} of {len(completed)})")
    _report_failures(outcomes)
    setup_failed = sum(not good for _, _, good in setups)
    print(f"  set-up runs: {len(setups)} of {workload.setup_op!r}, {setup_failed} failed")
    print(f"  output checks: {len(misses)} misses" + (f", first: {misses[0]}" if misses else ""))
    extra = {
        "fail_ratio": failed / attempted,
        "op_tail_pct": tail_pct,
        "samples": len(latencies),
        "completed_op_p50_ms": done_p50 and 1000 * done_p50,
        "completed_op_tail_ms": done_tail and 1000 * done_tail,
        "completed_op_tail_pct": done_pct,
        "completed_samples": len(completed),
        "setup_runs": len(setups),
        "setup_failed": setup_failed,
    }
    print("extra " + json.dumps(extra))
    # set-up ops count as attempted, and as failed when they did not return ok
    units = runner_class.setup_units(workload.setup_op)
    return {
        "correct": not misses,
        "attempted": attempted + units * len(setups),
        "failed": failed + units * setup_failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]} for name in END_TO_END},
    }


def _one_pass(runner, ops) -> tuple[Measured, float]:
    """One pass of ops: what measure() saw and the wall time of the call.

    Times are not scaled to the host speed here: while the tracer holds its
    spans, garbage collection slows reference_loop more than the ops, which
    would bias the overhead ratio. Alternating the passes handles the drift.
    """
    start = time.perf_counter()
    got = measure(runner, [ops], 0.0, 1)
    return got, time.perf_counter() - start


def _traced_pass(runner_class, ops):
    """One traced pass: the tracer, what measure() saw, its wall time, and
    the cyclotomic cache's hits and misses during the pass."""
    import fibk3.salem

    tracer = tracing.Tracer()
    # a suite is a root span of its own; a verdict's root is the traced cli.main
    runner = SuiteRunner(tracer) if runner_class is SuiteRunner else VerdictRunner()
    before = fibk3.salem.cyclotomic.cache_info()
    restore = tracing.install(tracer)
    try:
        got, wall = _one_pass(runner, ops)
    finally:
        restore()
    after = fibk3.salem.cyclotomic.cache_info()
    return tracer, got, wall, (after.hits - before.hits, after.misses - before.misses)


def run_traced(workload, seed: int) -> dict:
    """Run the first pass untraced and traced by turns, untraced first and last.

    The per-layer figures come from the first traced pass, so they do not
    depend on how many rounds ran; the overhead ratio is the median over the
    rounds of each traced pass against the mean of the untraced passes on
    either side of it.
    """
    runner_class = _runner_class(workload)
    ops = next(workload.passes(seed))
    untraced = _one_pass(runner_class(), ops)[0].busy
    ratios, traced_total, first = [], 0.0, None
    while not ratios or (traced_total < TRACE_MIN_S and len(ratios) < TRACE_MAX_ROUNDS):
        traced = _traced_pass(runner_class, ops)
        traced_busy = traced[1].busy
        untraced_next = _one_pass(runner_class(), ops)[0].busy
        ratios.append(traced_busy / ((untraced + untraced_next) / 2))
        untraced = untraced_next
        traced_total += traced_busy
        first = first or traced
    tracer, got, wall, (hits, misses_c) = first
    outcomes = got.outcomes
    attempted, failed, misses = _summary(outcomes)

    values: dict[str, float] = {}
    for name in tracing.TRACED:
        calls, total_s, self_s, fails = tracer.stats.get(name, (0, 0.0, 0.0, 0))
        values[f"{_metric(name)}.calls"] = calls
        values[f"{_metric(name)}.total_s"] = total_s
        values[f"{_metric(name)}.self_s"] = self_s
        if name in _FAIL_COUNTED:
            values[f"{_metric(name)}.fail"] = fails
    counts = tracer.counts
    for name in _COUNTS:
        values[name] = counts.get(name, 0)
    values["salem.cyclotomic.hit_ratio"] = hits / (hits + misses_c) if hits + misses_c else 0.0
    cosets_calls = tracer.stats.get("lattice.enumerate_discriminant_cosets", (0,))[0]
    values["lattice.enumerate_discriminant_cosets.useful_ratio"] = (
        counts.get("lattice.enumerate_discriminant_cosets.distinct", 0) / cosets_calls if cosets_calls else 0.0
    )
    values["cli.main.out_bytes"] = sum(o.out_bytes for o in outcomes)
    verdicts = not isinstance(workload, SelftestWorkload)
    for status in ("ok", "input_error", "internal_error"):
        values[f"cli.main.status.{status}"] = sum(o.status == status for o in outcomes) if verdicts else 0
    for suite in checks.SELFTEST_CHECKS:
        values[f"selftest.{suite}.s"] = tracer.stats.get(f"selftest.{suite}", (0, 0.0))[1]
    values["trace.overhead_ratio"] = statistics.median(ratios)
    values["trace.wall_s"] = wall
    values["bench.harness.self_s"] = got.driver

    # both terms are timed on their own, so time lost outside every span
    # (wrapper overhead, the loop itself) shows as a share below 100%
    accounted = tracer.self_total() + got.driver
    print(f"workload {workload.name} seed {seed} traced: {len(outcomes)} ops, wall {wall:.3f} s")
    print(
        f"  tracing overhead: {values['trace.overhead_ratio']:.4f} x the untraced op time of the same pass"
        f" (median of {len(ratios)} rounds: {', '.join(f'{r:.3f}' for r in ratios)})"
    )
    print(
        f"  span self times {tracer.self_total():.4f} s + harness time {got.driver:.4f} s"
        f" = {accounted:.4f} s of {wall:.4f} s wall ({100 * accounted / wall:.2f}%)"
    )
    top = sorted(((v, k) for k, v in values.items() if k.endswith(".self_s")), reverse=True)[:6]
    for v, k in top:
        print(f"  {k} = {v:.4f} s ({100 * v / wall:.1f}% of wall)")
    print(f"  output checks: {len(misses)} misses" + (f", first: {misses[0]}" if misses else ""))

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps(tracer.dump()))
    print(f"  spans written to {trace_file.relative_to(ROOT)}")
    print("extra " + json.dumps({"span_self_s": tracer.self_total(), "accounted_share": accounted / wall}))

    units = per_layer_units()
    return {
        "correct": not misses,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed (exit {proc.returncode}): {proc.stderr[-500:]}")
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"  correct = {result['correct']}, attempted = {result['attempted']}, failed = {result['failed']}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fibk3" / "__init__.py").is_file():
        print(f"error: no fibk3 package under {SRC}; run from a fibk3 checkout", file=sys.stderr)
        return 2
    if sys.get_int_max_str_digits() != sys.int_info.default_max_str_digits:
        print("error: the int->str digit limit differs from the interpreter default", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import fibk3
    import fibk3.cli
    import fibk3.selftest

    if Path(fibk3.__file__).resolve().parent != SRC / "fibk3":
        print(f"error: imported fibk3 from {fibk3.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(workload, args.seed)
    else:
        result = run_untraced(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
