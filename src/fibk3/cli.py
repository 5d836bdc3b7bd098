"""Command-line front end.

Every operation is exposed as a subcommand with human-readable output by
default and machine output under --json. A handler returns plain data or a
result record, and _jsonify alone writes it out, in both modes: a record as
the dict of its fields, every integer and rational as a decimal string (so
arbitrary-precision values survive any JSON parser), booleans as JSON
booleans, and floats as their repr strings.
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


def _jsonify(value):
    """value as plain data: a record as the dict of its fields in field
    order, a SalemQuadratic as its tau, polynomial, lambda and entropy, a
    tuple as a list, ints and Fractions as decimal strings and floats as repr.

    Each distinct int is converted once per call: a survivor's trace appears
    more than once in a report, and str() of a 4000-digit int is not cheap.
    """
    digits: dict[int, str] = {}

    def convert(v):
        kind = type(v)
        if kind is int:
            text = digits.get(v)
            if text is None:
                text = digits[v] = str(v)
            return text
        if kind is dict:
            return {k: convert(x) for k, x in v.items()}
        if kind is list or kind is tuple:
            return [convert(x) for x in v]
        if kind is str or kind is bool or v is None:
            return v
        if kind is float:
            return repr(v)
        if kind is salem.SalemQuadratic:
            return {
                "tau": convert(v.tau),
                "polynomial": str(v.polynomial),
                "lambda": convert(v.lambda_),
                "entropy": convert(v.entropy),
            }
        if isinstance(v, Record):
            return {f: convert(getattr(v, f)) for f in v._fields}
        # imported here, not at start-up: only a loaded fractions module can
        # have built a Fraction
        from fractions import Fraction

        if kind is Fraction:
            if v.denominator == 1:
                return str(v.numerator)
            return f"{v.numerator}/{v.denominator}"
        raise TypeError(f"cannot serialize {kind.__name__}")

    return convert(value)


def _human_lines(value, prefix: str = "") -> list[str]:
    """One "path: value" line per leaf of _jsonify's output."""
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
        return [f"{prefix}: none"]
    if value is True or value is False:
        value = "true" if value else "false"
    return [f"{prefix}: {value}"]


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


def _guard(value: int, what: str, limit: int) -> int:
    if abs(value) > limit:
        raise _CliInputError(f"{what}={value} exceeds the runtime limit {limit}")
    return value


def _bare_value(data: dict) -> str:
    return data["value"]


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns the payload, a dict or a record; a
# top-level "errata_flags" entry, if any, is taken out of it and reported
# beside it.
# ---------------------------------------------------------------------------


def _cmd_fib(args) -> dict:
    n = _guard(args.n, "n", args.limit_n)
    return {"value": gen_fib(args.a, n)}


def _cmd_trace(args) -> dict:
    n = _guard(args.n, "n", args.limit_n)
    return {"value": salem_trace_of_power(args.a, n)}


def _cmd_entry(args) -> dict:
    # entry's cost grows with m's bit length, not its value (README, entry point)
    _guard(args.m.bit_length(), "bit length of m", 1024)
    return {"value": entry_point(args.a, args.m)}


def _cmd_member(args) -> Record:
    return classify_membership(args.a, args.n)


def _cmd_gram(args) -> dict:
    lat = lattice.fibonacci_lattice(args.m, args.a)
    return {
        "gram": [list(row) for row in lat.gram],
        "disc": lat.disc,
        "signature": [1, 1],
    }


def _cmd_abpow(args) -> dict:
    n = _guard(args.n, "n", args.limit_n)
    g = lattice.ab_power(args.a, n)
    return {
        "matrix": [list(row) for row in g.matrix],
        "det": g.det,
        "trace": g.trace,
    }


def _cmd_isometry(args) -> dict:
    lat = lattice.fibonacci_lattice(args.m, args.a)
    g = lattice.Isometry2(((args.entries[0], args.entries[1]), (args.entries[2], args.entries[3])))
    return {
        "matrix": [list(row) for row in g.matrix],
        "is_isometry": lattice.is_isometry(g, lat),
    }


def _cmd_discact(args) -> dict:
    n = _guard(args.n, "n", args.limit_n)
    if n < 1:
        raise _CliInputError("n must be >= 1")
    if args.m < 2:
        raise _CliInputError("m must be >= 2")
    action = lattice.disc_action(
        lattice.ab_power(args.a, n),
        lattice.fibonacci_lattice(args.m, args.a),
        args.eps,
    )
    return {
        "epsilon": action.epsilon,
        "holds": action.holds,
        "matrix": [list(row) for row in action.matrix],
    }


def _cmd_cyclotomic(args) -> dict:
    poly = salem.cyclotomic(_guard(args.l, "l", args.limit_n))
    return {
        "coefficients": list(poly.coeffs),
        "degree": poly.degree,
        "polynomial": str(poly),
    }


def _cmd_resultant(args) -> dict:
    p = _parse_poly(args.p, "first polynomial")
    q = _parse_poly(args.q, "second polynomial")
    return {
        "p": list(p.coeffs),
        "q": list(q.coeffs),
        "resultant": salem.resultant(p, q),
        "errata_flags": list(engine.errata_for_resultant(p, q)),
    }


def _cmd_salem(args) -> dict:
    quad = salem.salem_data(args.tau)
    return {
        "tau": quad.tau,
        "polynomial": str(quad.polynomial),
        "coefficients": list(quad.polynomial.coeffs),
        "palindromic": salem.is_palindromic(quad.polynomial),
        "lambda": quad.lambda_,
        "entropy": quad.entropy,
    }


def _cmd_pell(args) -> dict:
    bound = _guard(args.bound, "bound", args.limit_n)
    sols = salem.pell_solutions(args.d, args.eps, bound)
    return {
        "solutions": [[alpha, beta] for alpha, beta in sols],
        "count": len(sols),
    }


def _cmd_candidates(args) -> Record:
    m = _guard(args.m, "m", args.limit_n)
    return engine.analyze(m, args.a)


def _cmd_example100(args) -> Record:
    # errata attached to the embedded closure report stay within the payload
    return engine.target_exponent_scenario(args.m)


def _cmd_selftest(args) -> dict:
    # imported here, not at start-up: the suites and their random module
    # cost every other command import time
    from . import selftest

    results = selftest.run_suites(args.suite)
    return {
        "suites": [
            {
                "name": r.name,
                "checks": r.checks,
                "failures": r.failures,
                "first_counterexample": r.first_counterexample,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }


def _selftest_text(data: dict) -> str:
    lines = []
    checks = failures = seconds = 0
    for r in data["suites"]:
        checks += int(r["checks"])
        failures += int(r["failures"])
        seconds += float(r["seconds"])
        if r["failures"] == "0":
            lines.append(
                f"{r['name']}: PASS ({r['checks']} checks, {float(r['seconds']):.2f} s)"
            )
        else:
            lines.append(
                f"{r['name']}: FAIL ({r['failures']}/{r['checks']} failed; "
                f"first: {r['first_counterexample']})"
            )
    if data["all_passed"]:
        lines.append(f"all passed ({checks} checks, {seconds:.2f} s)")
    else:
        lines.append(f"FAILURES PRESENT ({failures}/{checks} checks failed, {seconds:.2f} s)")
    return "\n".join(lines)


# name: (help, handler, arguments, render). Each argument is a positional
# int unless _ARGUMENTS gives its settings; render turns the written-out
# payload into the human text, or is None for _human_lines.
_COMMANDS = {
    "fib": ("n-th generalized Fibonacci number", _cmd_fib, "a n", _bare_value),
    "member": ("membership test via the square criterion", _cmd_member, "a n", None),
    "entry": ("entry point: least e with m | a_e", _cmd_entry, "a m", _bare_value),
    "trace": ("trace of the n-th power of A*B", _cmd_trace, "a n", _bare_value),
    "gram": ("Gram matrix of the standard lattice", _cmd_gram, "m a", None),
    "abpow": ("(A*B)^n in closed form", _cmd_abpow, "a n", None),
    "isometry": (
        "test a row-major 2x2 matrix against the standard lattice "
        "(separate negative entries with --)",
        _cmd_isometry, "m a entries", None,
    ),
    "discact": (
        "discriminant-group action test for (A*B)^n", _cmd_discact, "m a n eps", None
    ),
    "cyclotomic": ("l-th cyclotomic polynomial", _cmd_cyclotomic, "l", None),
    "resultant": (
        "resultant of two polynomials given as ascending coefficient lists, "
        "e.g. 1,-3,1 (constant term first; put -- before a list starting with -)",
        _cmd_resultant, "p q", None,
    ),
    "salem": ("Salem quadratic, number, and entropy", _cmd_salem, "tau", None),
    "pell": ("solutions of alpha^2 - D*beta^2 = 4*eps", _cmd_pell, "d eps bound", None),
    "candidates": ("generator analysis for (m, a)", _cmd_candidates, "m a", None),
    "example100": (
        "published target-exponent-100 scenario for m", _cmd_example100, "m", None
    ),
    "selftest": (
        "run the named property suite, or all", _cmd_selftest, "--suite", _selftest_text
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
    for name, (help_text, handler, arguments, render) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text, description=help_text)
        for argument in arguments.split():
            p.add_argument(argument, **_ARGUMENTS.get(argument, {"type": int}))
        p.set_defaults(handler=handler, render=render)
    return parser


def _emit(args, command: str, status: str, payload, render=None) -> None:
    # --quiet writes nothing out, so it refuses nothing; in human mode a
    # refusal prints nothing here: its message goes to stderr
    if args.quiet or not (args.json or status == "ok"):
        return
    data = _jsonify(payload)
    flags = data.pop("errata_flags", [])
    if args.json:
        document = {"command": command, "status": status, "payload": data, "errata_flags": flags}
        print(json.dumps(document, sort_keys=True, separators=(",", ":")))
    else:
        print(render(data) if render else "\n".join(_human_lines(data)))
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
    # writing out stays inside the try: _jsonify can refuse a result, for
    # example an integer past the interpreter's int->str digit limit
    try:
        payload = args.handler(args)
        _emit(args, command, "ok", payload, args.render)
    except ValueError as exc:
        _emit(args, command, "input_error", {"message": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        _emit(args, command, "internal_error", {"message": str(exc)})
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    if command == "selftest" and not payload["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
