"""Spans around the calls into each fibk3 module, recorded from outside.

`install` rebinds each traced function in every `fibk3.*` namespace that holds
it (modules import each other's functions by name, so patching the defining
module alone would miss most calls) and returns a function that restores the
originals. Spans are kept in memory and written out at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# The layers are the modules; these are the functions timed in each.
LAYERS = {
    "fibgen": (
        "gen_fib",
        "entry_point",
        "salem_trace_of_power",
        "is_perfect_square",
        "classify_membership",
        "gen_fib_iter",
        "divides_in_sequence",
    ),
    "_primes": ("factorize",),
    "salem": (
        "resultant",
        "_resultant_sylvester",
        "_resultant_subresultant",
        "cyclotomic",
        "closed_form_resultant",
        "salem_data",
    ),
    "lattice": (
        "ab_power",
        "is_isometry",
        "disc_action",
        "disc_action_bruteforce",
        "enumerate_discriminant_cosets",
        "word_decompose",
    ),
    "engine": ("analyze", "verify_realization", "target_exponent_scenario", "disc_prime_divisors"),
    "cli": ("main",),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Call-tree recorder: per-name call counts, total, self time and failures.

    Self time is a span's duration minus the durations of its direct children.
    Total time counts only the outermost call of a name, so recursion is not
    counted twice. Leaf spans beyond `keep_leaves` per (name, parent name) are
    folded into one aggregate each instead of being kept one by one.
    """

    def __init__(self, clock=time.perf_counter, keep_leaves: int = 1000):
        self.clock = clock
        self.keep_leaves = keep_leaves
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.leaves: dict[tuple, list] = {}  # (name, parent name) -> [calls, folded calls, folded s]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [id, name, start, child seconds, has children]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0

    def enter(self, name: str) -> None:
        if self._stack:
            self._stack[-1][4] = True
        self._depth[name] += 1
        frame = [self._next_id, name, 0.0, 0.0, False]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = self.clock()

    def exit(self, failed: bool = False) -> None:
        end = self.clock()
        span_id, name, start, child_s, has_children = self._stack.pop()
        duration = end - start
        stat = self.stats[name]
        stat[0] += 1
        stat[2] += duration - child_s
        self._depth[name] -= 1
        if not self._depth[name]:
            stat[1] += duration
        if failed:
            stat[3] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if not has_children:
            leaf = self.leaves.setdefault((name, parent and parent[1]), [0, 0, 0.0])
            leaf[0] += 1
            if leaf[0] > self.keep_leaves:
                leaf[1] += 1
                leaf[2] += duration
                return
        self.spans.append((span_id, parent and parent[0], name, start, end))

    def self_total(self) -> float:
        return sum(stat[2] for stat in self.stats.values())

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "folded_leaves": [
                [name, parent, folded, seconds]
                for (name, parent), (_, folded, seconds) in self.leaves.items()
                if folded
            ],
        }


def _hooks(counts) -> dict:
    """Counters read from the arguments and results of traced calls."""
    lattices = set()

    def entry_point(args, e):
        counts["fibgen.entry_point.steps"] += e

    def is_perfect_square(args, _):
        bits = abs(args[0]).bit_length()
        if bits > counts["fibgen.is_perfect_square.max_bits"]:
            counts["fibgen.is_perfect_square.max_bits"] = bits

    def resultant(args, _):
        # both algorithms run, and must agree, unless a polynomial is constant
        if args[0].degree > 0 and args[1].degree > 0:
            counts["salem.resultant.agreed"] += 1

    def enumerate_cosets(args, result):
        lattices.add(args[0].gram)
        counts["lattice.enumerate_discriminant_cosets.cosets"] += result[0]
        counts["lattice.enumerate_discriminant_cosets.distinct"] = len(lattices)

    def analyze(args, report):
        counts["engine.analyze.candidates"] += len(report.candidates)
        counts["engine.analyze.survivors"] += len(report.survivors)
        bits = max((c.tau.bit_length() for c in report.candidates), default=0)
        if bits > counts["engine.analyze.tau_bits_max"]:
            counts["engine.analyze.tau_bits_max"] = bits

    return {
        "fibgen.entry_point": entry_point,
        "fibgen.is_perfect_square": is_perfect_square,
        "salem.resultant": resultant,
        "lattice.enumerate_discriminant_cosets": enumerate_cosets,
        "engine.analyze": analyze,
    }


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(failed=True)
            raise
        tracer.exit()
        if hook is not None:
            hook(args, result)
        return result

    return traced


def install(tracer: Tracer):
    """Trace every function in LAYERS; returns a function that undoes it."""
    hooks = _hooks(tracer.counts)
    namespaces = [
        mod.__dict__
        for name, mod in sys.modules.items()
        if name == "fibk3" or name.startswith("fibk3.")
    ]
    patched = []
    for name in TRACED:
        module, attr = name.split(".")
        fn = getattr(sys.modules[f"fibk3.{module}"], attr)
        traced = _wrap(tracer, name, fn, hooks.get(name))
        for ns in namespaces:
            for key in [k for k, v in ns.items() if v is fn]:
                patched.append((ns, key, fn))
                ns[key] = traced

    def restore():
        for ns, key, fn in reversed(patched):
            ns[key] = fn

    return restore
