"""Per-call cost of the hot kernels, one row per (label, call, calls per repeat).

    python -I .github/scripts/percall.py

Each row is the best of 7 timeit repeats, printed in microseconds per call,
with no timing gate, so that a per-call regression shows in the log:

- the seven kernels a selftest pass calls most, and two record builds,
  20,000 calls per repeat;
- the two exact cross-checks with the largest inputs of a pass, 200 calls:
  Bareiss on the 22x22 Sylvester matrix of x^2 - 47x + 1 and Phi_25, and
  the brute-force oracle walking all 11,700 cosets of L(30, 3) for the
  identity;
- selftest._split over two no-op cases (one fork, one pipe, one merge: the
  fixed cost each split suite pays), 20 calls;
- the largest case of the addition-formula oracle, a = 8 (20,100 checks,
  a row walk in which row n computes its products a_k*a_{n+1} once and
  takes its second products from row n - 1), 20 calls;
- the CLI writer on the report of candidates 18980 1, whose survivor has a
  3,248-digit trace, 200 calls.
"""

import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from fibk3 import cli, engine, fibgen, lattice, salem, selftest  # noqa: E402

REPEATS = 7

lat, small = lattice.fibonacci_lattice(61, 1), lattice.fibonacci_lattice(2, 1)
g = lattice.ab_power(1, 15)
sylvester = salem._sylvester_matrix(salem.IntPolynomial([1, -47, 1]), salem.cyclotomic(25))
big, identity = lattice.fibonacci_lattice(30, 3), lattice.Isometry2(((1, 0), (0, 1)))
report = engine.analyze(18980, 1)

ROWS = [
    ("fibgen.classify_membership(2, 1000)", lambda: fibgen.classify_membership(2, 1000), 20000),
    (
        "fibgen.divides_in_sequence(3, 7, 140)",
        lambda: fibgen.divides_in_sequence(3, 7, 140),
        20000,
    ),
    ("fibgen.gen_fib(3, 77)", lambda: fibgen.gen_fib(3, 77), 20000),
    ("engine.verify_realization(61, 1, 15)", lambda: engine.verify_realization(61, 1, 15), 20000),
    (
        "lattice.disc_action((A*B)^15, L(61, 1), -1)",
        lambda: lattice.disc_action(g, lat, -1),
        20000,
    ),
    ("lattice.ab_power(2, 30)", lambda: lattice.ab_power(2, 30), 20000),
    (
        "lattice.disc_action_bruteforce((A*B)^15, L(2, 1), -1)",
        lambda: lattice.disc_action_bruteforce(g, small, -1),
        20000,
    ),
    (
        "DiscriminantAction(1, True, ((1, 2), (3, 4)), -5)",
        lambda: lattice.DiscriminantAction(1, True, ((1, 2), (3, 4)), -5),
        20000,
    ),
    ("IntPolynomial([1, -3, 1, 5, 0])", lambda: salem.IntPolynomial([1, -3, 1, 5, 0]), 20000),
    (
        "salem._bareiss_determinant(Sylvester(x^2 - 47x + 1, Phi_25))",
        lambda: salem._bareiss_determinant(sylvester),
        200,
    ),
    (
        "lattice.disc_action_bruteforce(I, L(30, 3), 1)",
        lambda: lattice.disc_action_bruteforce(identity, big, 1),
        200,
    ),
    (
        "selftest._split over two no-op cases (fork, pipe, merge)",
        lambda: selftest._split(selftest._Recorder(), (0, 1), lambda rec, case: None),
        20,
    ),
    (
        "selftest._suite_addition_formula(_Recorder(), 8), 20,100 checks",
        lambda: selftest._suite_addition_formula(selftest._Recorder(), 8),
        20,
    ),
    ("cli._jsonify(engine.analyze(18980, 1))", lambda: cli._jsonify(report), 200),
]

for label, call, number in ROWS:
    best = min(timeit.repeat(call, number=number, repeat=REPEATS)) / number
    print(f"{best * 1e6:8.3f} us  {label}")
