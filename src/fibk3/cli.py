"""Command-line front end.

Every subcommand is one row of _COMMANDS: its help, its arguments, the
guards that refuse an argument before any work, and the library call whose
value is the payload. Output is human-readable by default and machine
output under --json. _jsonify alone writes a payload out, in both modes: a
record as the dict of its fields (the two records of _LAYOUTS in their own
layouts), every integer and rational as a decimal string (so
arbitrary-precision values survive any JSON parser), booleans as JSON
booleans, and floats as their repr strings. Its memoized int-to-text
function is the only code that turns a payload integer into digits. A bare
value (an int, a bool, a list) is the payload {"value": ...} under --json,
and prints as itself.
Exit codes: 0 success, 1 input error or a failed selftest suite (whose JSON
status stays ok), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import engine, lattice, salem
from .errors import InvariantViolation
from .fibgen import classify_membership, entry_point, gen_fib, salem_trace_of_power
from ._record import Record

_DEFAULT_LIMIT = 10**7


class _CliInputError(ValueError):
    def __init__(self, message: str, usage: str | None = None, command: str | None = None):
        super().__init__(message)
        self.usage = usage
        self.command = command


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        # a subcommand's parser is named "fibk3 <command>"
        command = self.prog.partition(" ")[2] or None
        raise _CliInputError(message, usage=self.format_usage(), command=command)


# The two records written with the derived values that are their point,
# not as their fields: a Salem trace with its quadratic (tau > 2), Salem
# number and entropy, and a discriminant action with its exact matrix
# (g - eps*I)*Q^-1 in place of the integer numerators over det(Q). Each
# layout gets the writer's int-to-text function.
_LAYOUTS = {
    salem.SalemQuadratic: lambda v, text: {
        "tau": v.tau, "polynomial": f"x^2 - {text(v.tau)}*x + 1",
        "lambda": v.lambda_, "entropy": v.entropy,
    },
    lattice.DiscriminantAction: lambda v, text: {
        "epsilon": v.epsilon, "holds": v.holds, "matrix": v.matrix
    },
}

# written as they are; a set, so that str in _jsonify is only ever a call
_AS_IS = frozenset({str, bool, type(None)})


def _jsonify(value):
    """value as plain data: a record as the dict of its fields in field
    order, or in its _LAYOUTS layout, a tuple as a list, ints and Fractions
    as decimal strings and floats as repr.

    text alone turns an int into digits, for every int, Fraction and
    _LAYOUTS entry. Each distinct int is converted once per call: a
    survivor's trace appears more than once in a report, and str() of a
    4000-digit int is not cheap.
    """
    digits: dict[int, str] = {}

    def text(v: int) -> str:
        out = digits.get(v)
        if out is None:
            out = digits[v] = str(v)
        return out

    def convert(v):
        kind = type(v)
        if kind is int:
            return text(v)
        if kind is dict:
            return {k: convert(x) for k, x in v.items()}
        if kind is list or kind is tuple:
            return [convert(x) for x in v]
        if kind in _AS_IS:
            return v
        if kind is float:
            return repr(v)
        layout = _LAYOUTS.get(kind)
        if layout is not None:
            return convert(layout(v, text))
        if isinstance(v, Record):
            return {f: convert(getattr(v, f)) for f in v._fields}
        # imported here, not at start-up: only a loaded fractions module can
        # have built a Fraction
        from fractions import Fraction

        if kind is Fraction:
            if v.denominator == 1:
                return text(v.numerator)
            return f"{text(v.numerator)}/{text(v.denominator)}"
        raise TypeError(f"cannot serialize {kind.__name__}")

    return convert(value)


def _human_lines(value, prefix: str = "") -> list[str]:
    """One "path: value" line per leaf of _jsonify's output; a bare value
    is its own line."""
    if isinstance(value, dict):
        lines = []
        for key, item in value.items():
            sub = f"{prefix}.{key}" if prefix else str(key)
            lines.extend(_human_lines(item, sub))
        return lines
    if isinstance(value, (list, tuple)):
        lines = []
        for i, item in enumerate(value):
            lines.extend(_human_lines(item, f"{prefix}[{i}]"))
        return lines
    if value is None:
        value = "none"
    elif value is True or value is False:
        value = "true" if value else "false"
    return [f"{prefix}: {value}" if prefix else value]


def _parse_eps(text: str) -> int:
    if text in ("1", "+1"):
        return 1
    if text == "-1":
        return -1
    # argparse shows the message of an ArgumentTypeError, and replaces any other
    raise argparse.ArgumentTypeError(f"epsilon must be +1 or -1, got {text!r}")


def _parse_limit(text: str) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"the limit must be an integer >= 0, got {text!r}")


def _parse_poly(text: str, what: str) -> salem.IntPolynomial:
    try:
        coeffs = [int(part.strip(), 10) for part in text.split(",")]
    except ValueError:
        raise _CliInputError(
            f"{what} must be comma-separated integer coefficients "
            f"(constant term first), got {text!r}"
        ) from None
    return salem.IntPolynomial(coeffs)


# a guard's bound that stands for the value of --limit-n, and the guard on n
_LIMIT = None
_N = ("n", "<=", _LIMIT)


def _guard(args, argument: str, relation: str, bound: int | None) -> None:
    """Refuse args.<argument> before any work. ">=" refuses a value below
    bound; "<=" one past bound in absolute value, and "bits<=" one whose bit
    length is past it, with bound _LIMIT standing for --limit-n."""
    value = getattr(args, argument)
    if relation == ">=":
        if value < bound:
            raise _CliInputError(f"{argument} must be >= {bound}")
        return
    what = argument
    if relation == "bits<=":
        value, what = value.bit_length(), f"bit length of {argument}"
    limit = args.limit_n if bound is _LIMIT else bound
    if abs(value) > limit:
        raise _CliInputError(f"{what}={value} exceeds the runtime limit {limit}")


def _run_suites(suite: str | None) -> list:
    # imported here, not at start-up: the suites and their random module
    # cost every other command import time
    from . import selftest

    return selftest.run_suites(suite)


def _selftest_text(results: list) -> str:
    lines = []
    for r in results:
        if r.passed:
            lines.append(f"{r.name}: PASS ({r.checks} checks, {r.seconds:.2f} s)")
        else:
            lines.append(
                f"{r.name}: FAIL ({r.failures}/{r.checks} failed; first: {r.first_counterexample})"
            )
    checks = sum(r.checks for r in results)
    failures = sum(r.failures for r in results)
    seconds = sum(r.seconds for r in results)
    if failures:
        lines.append(f"FAILURES PRESENT ({failures}/{checks} checks failed, {seconds:.2f} s)")
    else:
        lines.append(f"all passed ({checks} checks, {seconds:.2f} s)")
    return "\n".join(lines)


def _row(help_text: str, arguments: str, call, *guards, render=None) -> tuple:
    """One _COMMANDS row. call takes the arguments, in order, and returns the
    payload; each guard (argument, relation, bound) is applied by _guard
    before it; render, when given, makes the human text from the payload."""
    return help_text, arguments, call, guards, render


# The whole of each subcommand. Each argument is a positional int unless
# _ARGUMENTS gives its settings. A call names the library function at call
# time, so that a function rebound in its module (a tracer, a test) is the
# one called.
_COMMANDS = {
    "fib": _row("n-th generalized Fibonacci number", "a n", lambda a, n: gen_fib(a, n), _N),
    "member": _row(
        "membership test via the square criterion", "a n",
        lambda a, n: classify_membership(a, n),
    ),
    # entry's cost grows with m's bit length, not its value (README, entry point)
    "entry": _row(
        "entry point: least e with m | a_e", "a m",
        lambda a, m: entry_point(a, m), ("m", "bits<=", 1024),
    ),
    "trace": _row(
        "trace of the n-th power of A*B", "a n", lambda a, n: salem_trace_of_power(a, n), _N
    ),
    "gram": _row(
        "Gram matrix of the standard lattice", "m a",
        lambda m, a: lattice.fibonacci_lattice(m, a),
    ),
    "abpow": _row("(A*B)^n in closed form", "a n", lambda a, n: lattice.ab_power(a, n), _N),
    "isometry": _row(
        "test a row-major 2x2 matrix against the standard lattice "
        "(separate negative entries with --)",
        "m a entries",
        lambda m, a, e: lattice.is_isometry(
            lattice.Isometry2((e[:2], e[2:])), lattice.fibonacci_lattice(m, a)
        ),
    ),
    "discact": _row(
        "discriminant-group action test for (A*B)^n", "m a n eps",
        lambda m, a, n, eps: lattice.disc_action(
            lattice.ab_power(a, n), lattice.fibonacci_lattice(m, a), eps
        ),
        _N, ("n", ">=", 1), ("m", ">=", 2),
    ),
    "cyclotomic": _row(
        "l-th cyclotomic polynomial", "l", lambda l: salem.cyclotomic(l), ("l", "<=", _LIMIT)
    ),
    "resultant": _row(
        "resultant of two polynomials given as ascending coefficient lists, "
        "e.g. 1,-3,1 (constant term first; put -- before a list starting with -)",
        "p q",
        lambda p, q: engine.resultant_report(
            _parse_poly(p, "first polynomial"), _parse_poly(q, "second polynomial")
        ),
    ),
    "salem": _row("Salem quadratic, number, and entropy", "tau", lambda tau: salem.salem_data(tau)),
    "pell": _row(
        "solutions of alpha^2 - D*beta^2 = 4*eps", "d eps bound",
        lambda d, eps, bound: salem.pell_solutions(d, eps, bound), ("bound", "<=", _LIMIT),
    ),
    "candidates": _row(
        "generator analysis for (m, a)", "m a",
        lambda m, a: engine.analyze(m, a), ("m", "<=", _LIMIT),
    ),
    # errata attached to the embedded closure report stay within the payload
    "example100": _row(
        "published target-exponent-100 scenario for m", "m",
        lambda m: engine.target_exponent_scenario(m),
    ),
    "selftest": _row(
        "run the named property suite, or all", "--suite", _run_suites, render=_selftest_text
    ),
}

_ARGUMENTS = {
    "entries": {"type": int, "nargs": 4, "metavar": "E"},
    "eps": {"type": _parse_eps},
    "p": {},
    "q": {},
    "d": {"type": int, "metavar": "D"},
    "--suite": {"default": None},
}


def _build_parser() -> _Parser:
    # global flags are accepted both before and after the subcommand; the
    # SUPPRESS defaults keep a subparser from clobbering a value the main
    # parser already set
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="machine-readable output",
    )
    common.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS,
        help="suppress stdout",
    )
    common.add_argument(
        "--limit-n",
        type=_parse_limit,
        default=argparse.SUPPRESS,
        help=f"guard for index-sized arguments (default {_DEFAULT_LIMIT})",
    )
    parser = _Parser(
        prog="fibk3",
        parents=[common],
        description=(
            "Exact arithmetic for generalized Fibonacci sequences, even rank-2 "
            "lattices, Salem trace quadratics, and generator-candidate filtering."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, *_) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text, description=help_text)
        for argument in arguments.split():
            p.add_argument(argument, **_ARGUMENTS.get(argument, {"type": int}))
    return parser


def _emit(args, command: str, status: str, payload, render=None) -> None:
    # --quiet writes nothing out, so it refuses nothing; in human mode a
    # refusal prints nothing here: its message goes to stderr
    if args.quiet or not (args.json or status == "ok"):
        return
    data = _jsonify(payload)
    # a record's errata_flags field is reported beside the payload, not in it
    flags = data.pop("errata_flags", []) if type(data) is dict else []
    if args.json:
        if type(data) is not dict:
            data = {"value": data}
        document = {"command": command, "status": status, "payload": data, "errata_flags": flags}
        print(json.dumps(document, sort_keys=True, separators=(",", ":")))
    else:
        print(render(payload) if render else "\n".join(_human_lines(data)))
        for flag in flags:
            print(f"errata: {flag}")


def _output_flags(argv: list[str]) -> argparse.Namespace:
    """--json and --quiet read on their own, for a command line that failed
    to parse. Each takes an optional value, so no token makes this reader
    fail: a flag given in any form, --json=x included, counts as set. A
    token "--=..." names neither flag, and it is dropped because it would
    abbreviate both."""
    flags = _Parser(add_help=False)
    flags.add_argument("--json", nargs="?", const=True, default=False)
    flags.add_argument("--quiet", nargs="?", const=True, default=False)
    args = flags.parse_known_args([t for t in argv if not t.startswith("--=")])[0]
    return argparse.Namespace(json=args.json is not False, quiet=args.quiet is not False)


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush at
        # interpreter exit cannot fail again (Python docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _run(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliInputError as exc:
        _emit(_output_flags(argv), exc.command, "input_error", {"message": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        if exc.usage:
            print(exc.usage.rstrip(), file=sys.stderr)
        return 1
    args.json = getattr(args, "json", False)
    args.quiet = getattr(args, "quiet", False)
    args.limit_n = getattr(args, "limit_n", _DEFAULT_LIMIT)
    command = args.command
    _, arguments, call, guards, render = _COMMANDS[command]
    # writing out stays inside the try: _jsonify can refuse a result, for
    # example an integer past the interpreter's int->str digit limit
    try:
        for guard in guards:
            _guard(args, *guard)
        payload = call(*[getattr(args, a.lstrip("-")) for a in arguments.split()])
        _emit(args, command, "ok", payload, render)
    except ValueError as exc:
        _emit(args, command, "input_error", {"message": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        _emit(args, command, "internal_error", {"message": str(exc)})
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    if command == "selftest" and not all(r.passed for r in payload):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
