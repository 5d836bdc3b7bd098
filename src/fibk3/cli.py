"""Command-line front end.

Every operation is exposed as a subcommand with human-readable output by
default and machine output under --json. JSON payloads encode every integer
and rational as a decimal string (so arbitrary-precision values survive any
JSON parser), booleans as JSON booleans, and floats as their repr strings.
Exit codes: 0 success, 1 input error or a failed selftest suite (whose JSON
status stays ok), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable

from . import engine, lattice, salem
from .errors import InvariantViolation
from .fibgen import classify_membership, entry_point, gen_fib, salem_trace_of_power

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
    """value with ints and Fractions as decimal strings and floats as repr.

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
        # imported here, not at start-up: only a loaded fractions module can
        # have built a Fraction
        from fractions import Fraction

        if kind is Fraction:
            if v.denominator == 1:
                return str(v.numerator)
            return f"{v.numerator}/{v.denominator}"
        raise TypeError(f"cannot serialize {kind.__name__}")

    return convert(value)


def _human_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return _jsonify(value)


def _human_lines(value, prefix: str = "") -> list[str]:
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
    return [f"{prefix}: {_human_scalar(value)}"]


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


def _bare_value(payload: dict) -> str:
    return _human_scalar(payload["value"])


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload, errata_flags, render), where
# render turns the payload into the human text, or is None for _human_lines.
# ---------------------------------------------------------------------------

_Render = Callable[[dict], str]


def _cmd_fib(args) -> tuple[dict, list[str], _Render | None]:
    n = _guard(args.n, "n", args.limit_n)
    return {"value": gen_fib(args.a, n)}, [], _bare_value


def _cmd_trace(args) -> tuple[dict, list[str], _Render | None]:
    n = _guard(args.n, "n", args.limit_n)
    return {"value": salem_trace_of_power(args.a, n)}, [], _bare_value


def _cmd_entry(args) -> tuple[dict, list[str], _Render | None]:
    m = _guard(args.m, "m", args.limit_n)
    return {"value": entry_point(args.a, m)}, [], _bare_value


def _cmd_member(args) -> tuple[dict, list[str], _Render | None]:
    n = _guard(args.n, "n", args.limit_n)
    result = classify_membership(args.a, n)
    payload = {
        "status": result.status,
        "matches": [
            {"k": m.k, "parity": m.parity, "square_witness": m.square_witness}
            for m in result.matches
        ],
    }
    return payload, [], None


def _cmd_gram(args) -> tuple[dict, list[str], _Render | None]:
    lat = lattice.fibonacci_lattice(args.m, args.a)
    payload = {
        "gram": [list(row) for row in lat.gram],
        "disc": lat.disc,
        "signature": [1, 1],
    }
    return payload, [], None


def _cmd_abpow(args) -> tuple[dict, list[str], _Render | None]:
    n = _guard(args.n, "n", args.limit_n)
    g = lattice.ab_power(args.a, n)
    payload = {
        "matrix": [list(row) for row in g.matrix],
        "det": g.det,
        "trace": g.trace,
    }
    return payload, [], None


def _cmd_isometry(args) -> tuple[dict, list[str], _Render | None]:
    lat = lattice.fibonacci_lattice(args.m, args.a)
    g = lattice.Isometry2(((args.entries[0], args.entries[1]), (args.entries[2], args.entries[3])))
    payload = {
        "matrix": [list(row) for row in g.matrix],
        "is_isometry": lattice.is_isometry(g, lat),
    }
    return payload, [], None


def _cmd_discact(args) -> tuple[dict, list[str], _Render | None]:
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
    payload = {
        "epsilon": action.epsilon,
        "holds": action.holds,
        "matrix": [list(row) for row in action.matrix],
    }
    return payload, [], None


def _cmd_cyclotomic(args) -> tuple[dict, list[str], _Render | None]:
    poly = salem.cyclotomic(args.l)
    payload = {
        "coefficients": list(poly.coeffs),
        "degree": poly.degree,
        "polynomial": str(poly),
    }
    return payload, [], None


def _cmd_resultant(args) -> tuple[dict, list[str], _Render | None]:
    p = _parse_poly(args.p, "first polynomial")
    q = _parse_poly(args.q, "second polynomial")
    value = salem.resultant(p, q)
    flags = list(engine.errata_for_resultant(p, q))
    payload = {
        "p": list(p.coeffs),
        "q": list(q.coeffs),
        "resultant": value,
    }
    return payload, flags, None


def _cmd_salem(args) -> tuple[dict, list[str], _Render | None]:
    quad = salem.salem_data(args.tau)
    payload = {
        "tau": quad.tau,
        "polynomial": str(quad.polynomial),
        "coefficients": list(quad.polynomial.coeffs),
        "palindromic": salem.is_palindromic(quad.polynomial),
        "lambda": quad.lambda_,
        "entropy": quad.entropy,
    }
    return payload, [], None


def _cmd_pell(args) -> tuple[dict, list[str], _Render | None]:
    bound = _guard(args.bound, "bound", args.limit_n)
    sols = salem.pell_solutions(args.d, args.eps, bound)
    payload = {
        "solutions": [[alpha, beta] for alpha, beta in sols],
        "count": len(sols),
    }
    return payload, [], None


def _cmd_candidates(args) -> tuple[dict, list[str], _Render | None]:
    m = _guard(args.m, "m", args.limit_n)
    report = engine.analyze(m, args.a)
    payload = report.as_dict()
    flags = payload.pop("errata_flags")
    return payload, flags, None


def _cmd_example100(args) -> tuple[dict, list[str], _Render | None]:
    report = engine.target_exponent_scenario(args.m)
    payload = report.as_dict()
    flags = payload.pop("errata_flags")
    # errata attached to the embedded closure report stay within the payload
    return payload, flags, None


def _cmd_selftest(args) -> tuple[dict, list[str], _Render | None]:
    # imported here, not at start-up: the suites and their random module
    # cost every other command import time
    from . import selftest

    results = selftest.run_suites(args.suite)
    payload = {
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
    return payload, [], _selftest_text


def _selftest_text(payload: dict) -> str:
    lines = []
    for r in payload["suites"]:
        if not r["failures"]:
            lines.append(
                f"{r['name']}: PASS ({r['checks']} checks, {r['seconds']:.2f} s)"
            )
        else:
            lines.append(
                f"{r['name']}: FAIL ({r['failures']}/{r['checks']} failed; "
                f"first: {r['first_counterexample']})"
            )
    checks = sum(r["checks"] for r in payload["suites"])
    failures = sum(r["failures"] for r in payload["suites"])
    seconds = sum(r["seconds"] for r in payload["suites"])
    if payload["all_passed"]:
        lines.append(f"all passed ({checks} checks, {seconds:.2f} s)")
    else:
        lines.append(f"FAILURES PRESENT ({failures}/{checks} checks failed, {seconds:.2f} s)")
    return "\n".join(lines)


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

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("fib", help="n-th generalized Fibonacci number")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_fib)

    p = add_parser("member", help="membership test via the square criterion")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_member)

    p = add_parser("entry", help="entry point: least e with m | a_e")
    p.add_argument("a", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_entry)

    p = add_parser("trace", help="trace of the n-th power of A*B")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_trace)

    p = add_parser("gram", help="Gram matrix of the standard lattice")
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.set_defaults(handler=_cmd_gram)

    p = add_parser("abpow", help="(A*B)^n in closed form")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_abpow)

    p = add_parser(
        "isometry",
        help="test a row-major 2x2 matrix against the standard lattice "
        "(separate negative entries with --)",
    )
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.add_argument("entries", type=int, nargs=4, metavar="E")
    p.set_defaults(handler=_cmd_isometry)

    p = add_parser("discact", help="discriminant-group action test for (A*B)^n")
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.add_argument("eps", type=_parse_eps)
    p.set_defaults(handler=_cmd_discact)

    p = add_parser("cyclotomic", help="l-th cyclotomic polynomial")
    p.add_argument("l", type=int)
    p.set_defaults(handler=_cmd_cyclotomic)

    p = add_parser(
        "resultant",
        help="resultant of two polynomials given as ascending coefficient "
        "lists, e.g. 1,-3,1 (constant term first)",
    )
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(handler=_cmd_resultant)

    p = add_parser("salem", help="Salem quadratic, number, and entropy")
    p.add_argument("tau", type=int)
    p.set_defaults(handler=_cmd_salem)

    p = add_parser("pell", help="solutions of alpha^2 - D*beta^2 = 4*eps")
    p.add_argument("d", type=int, metavar="D")
    p.add_argument("eps", type=_parse_eps)
    p.add_argument("bound", type=int)
    p.set_defaults(handler=_cmd_pell)

    p = add_parser("candidates", help="generator analysis for (m, a)")
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.set_defaults(handler=_cmd_candidates)

    p = add_parser(
        "example100", help="published target-exponent-100 scenario for m"
    )
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_example100)

    p = add_parser("selftest", help="run the named property suite, or all")
    p.add_argument("--suite", default=None)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _emit(
    args, command: str, status: str, payload, flags=(), render: _Render | None = None
) -> None:
    # in human mode a refusal prints nothing here: its message goes to stderr
    if args.quiet:
        return
    if args.json:
        document = {
            "command": command,
            "status": status,
            "payload": _jsonify(payload),
            "errata_flags": list(flags),
        }
        print(json.dumps(document, sort_keys=True, separators=(",", ":")))
    elif status == "ok":
        print(render(payload) if render else "\n".join(_human_lines(payload)))
        for flag in flags:
            print(f"errata: {flag}")


def _output_flags(argv: list[str]) -> argparse.Namespace:
    """--json and --quiet read on their own, for a command line that failed
    to parse; unreadable flags count as absent."""
    flags = _Parser(add_help=False)
    flags.add_argument("--json", action="store_true")
    flags.add_argument("--quiet", action="store_true")
    try:
        return flags.parse_known_args(argv)[0]
    except _CliInputError:
        return argparse.Namespace(json=False, quiet=False)


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
    # printing stays inside the try: rendering can refuse a result, for
    # example an integer past the interpreter's int->str digit limit
    try:
        payload, flags, render = args.handler(args)
        _emit(args, command, "ok", payload, flags, render)
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
