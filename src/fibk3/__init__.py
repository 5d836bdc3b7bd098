"""Exact arithmetic for generalized Fibonacci sequences, rank-2 even lattices,
Salem trace quadratics, cyclotomic resultants, and the filter-based search for
automorphism-generator candidates on the associated surfaces."""

from .errors import FactorizationError, InvariantViolation
from .fibgen import (
    MembershipMatch,
    MembershipResult,
    classify_membership,
    divides_in_sequence,
    entry_point,
    gen_fib,
    gen_fib_iter,
    is_perfect_square,
    salem_trace_of_power,
    shifted_trace,
)
from .lattice import (
    DiscriminantAction,
    EvenLattice2,
    Isometry2,
    WordDecomposition,
    ab_power,
    disc_action,
    fibonacci_lattice,
    generator_a,
    generator_b,
    in_positive_cone,
    is_isometry,
    is_plus_isometry,
    word_decompose,
)
from .salem import (
    ENGINE_CYCLOTOMIC_INDICES,
    IntPolynomial,
    SalemQuadratic,
    admissible_trace_root,
    char_poly_multiplicity,
    closed_form_resultant,
    cyclotomic,
    cyclotomic_trace_filter,
    is_palindromic,
    pell_solutions,
    resultant,
    salem_data,
)
from .engine import (
    AnalysisReport,
    CandidatePair,
    RealizationResult,
    TargetExponentReport,
    analyze,
    target_exponent_scenario,
    verify_realization,
)

__version__ = "0.1.0"
