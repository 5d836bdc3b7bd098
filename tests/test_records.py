"""Value semantics of the result records, independent of how they are built.

Every record is immutable, compares by value only against its own class,
hashes consistently with that equality, prints as Name(field=value, ...) and
accepts its fields by position or by keyword.
"""

import pytest

from fibk3.engine import (
    AnalysisReport,
    CandidatePair,
    FilterCheck,
    RealizationResult,
    ScenarioCandidate,
    SurvivorDetail,
    TargetExponentReport,
)
from fibk3.fibgen import MembershipMatch, MembershipResult
from fibk3.lattice import DiscriminantAction, EvenLattice2, Isometry2, WordDecomposition
from fibk3.salem import SalemQuadratic
from fibk3.selftest import SuiteResult

_CHECK = FilterCheck("trace-root-admissible", True, {"root": 18})
_CANDIDATE = CandidatePair(2, 15, 1860498, "anti_symplectic", "survives", (_CHECK,))
_REPORT = AnalysisReport(
    61, 1, 15, (5, 61), True, _CANDIDATE, (_CANDIDATE,), (), "determined", ()
)
_SCENARIO = ScenarioCandidate(1, 20, 20, "excluded", ("published-exclusion",))

# each record class with one field assignment, in declaration order
RECORDS = [
    (MembershipMatch, {"k": 4, "parity": "even", "square_witness": 7}),
    (MembershipResult, {"status": "member", "matches": (MembershipMatch(4, "even", 7),)}),
    (EvenLattice2, {"gram": ((2, 1), (1, -2)), "m": 1, "a": 1}),
    (Isometry2, {"matrix": ((1, 0), (1, -1))}),
    (DiscriminantAction, {"epsilon": 1, "holds": False, "numerators": ((1, 2), (3, 4)),
                          "disc": -5}),
    (WordDecomposition, {"sign": -1, "word": "ABA"}),
    (SalemQuadratic, {"tau": 7}),
    (FilterCheck, {"name": "resultant-divisibility", "passed": False,
                   "witness": {"resultant": 11, "failing_prime": 61}}),
    (CandidatePair, {"l": 10, "k": 3, "tau": 76, "epsilon_class": "order_l",
                     "verdict": "survives", "reasons": (_CHECK,)}),
    (SurvivorDetail, {"l": 2, "k": 15, "multiplicity": 20, "salem": SalemQuadratic(1860498)}),
    (AnalysisReport, {"m": 61, "a": 1, "entry_point": 15, "discriminant_primes": (5, 61),
                      "generator_criterion_applies": False, "generator": None,
                      "candidates": (_CANDIDATE,), "survivor_details": (),
                      "resolution": "inconclusive", "errata_flags": ("flag",)}),
    (RealizationResult, {"realized": True, "epsilon": -1}),
    (ScenarioCandidate, {"l": 5, "k": 4, "required_index": 20, "verdict": "survives",
                         "reasons": ()}),
    (TargetExponentReport, {"m": 15, "n_target": 100, "published_candidates": (_SCENARIO,),
                            "published_survivors": ((2, 50),), "closure_report": _REPORT,
                            "errata_flags": ()}),
    (SuiteResult, {"name": "cassini", "checks": 3, "failures": 0,
                   "first_counterexample": None, "seconds": 0.25}),
]

IDS = [cls.__name__ for cls, _ in RECORDS]
VALIDATED = (EvenLattice2, Isometry2, SalemQuadratic)


def build(cls, fields):
    return cls(*fields.values())


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
class TestRecordSemantics:
    def test_fields_read_back(self, cls, fields):
        record = build(cls, fields)
        for name, value in fields.items():
            assert getattr(record, name) == value

    def test_keyword_construction_matches_positional(self, cls, fields):
        assert cls(**fields) == build(cls, fields)

    def test_missing_or_unknown_field_is_type_error(self, cls, fields):
        values = list(fields.values())
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*values, **{next(iter(fields)): values[0]})

    def test_assignment_and_deletion_raise(self, cls, fields):
        record = build(cls, fields)
        for name in (*fields, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert {name: getattr(record, name) for name in fields} == fields

    def test_equality_is_by_value_within_the_class(self, cls, fields):
        record = build(cls, fields)
        assert record == build(cls, fields)
        assert not record != build(cls, fields)
        assert record != tuple(fields.values())
        assert record != list(fields.values())
        subclass = type("Sub" + cls.__name__, (cls,), {})
        assert record != build(subclass, fields)
        assert build(subclass, fields) != record

    def test_equal_records_hash_equally(self, cls, fields):
        first, second = build(cls, fields), build(cls, fields)
        assert first is not second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_repr(self, cls, fields):
        body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(build(cls, fields)) == f"{cls.__qualname__}({body})"


# the validated classes vary their fields in their own tests below
UNVALIDATED = [(cls, fields) for cls, fields in RECORDS if cls not in VALIDATED]


@pytest.mark.parametrize("cls, fields", UNVALIDATED, ids=[cls.__name__ for cls, _ in UNVALIDATED])
def test_equality_sees_every_field(cls, fields):
    record = build(cls, fields)
    for name in fields:
        changed = dict(fields, **{name: _other(fields[name])})
        assert record != cls(**changed)


def _other(value):
    """A value of a similar kind that differs from value."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return value + (None,) if value else (None,)
    if isinstance(value, dict):
        return {**value, "extra": 1}
    return None


class TestFilterCheckWitness:
    def test_hashable_with_a_dict_witness(self):
        check = FilterCheck("resultant-divisibility", False, {"resultant": 11, "failing_prime": 61})
        twin = FilterCheck("resultant-divisibility", False, {"resultant": 11, "failing_prime": 61})
        assert hash(check) == hash(twin)
        assert check in {twin}

    def test_witness_compares_but_does_not_hash(self):
        first = FilterCheck("trace-root-admissible", True, {"root": 18})
        second = FilterCheck("trace-root-admissible", True, {"root": 19})
        assert first != second
        assert hash(first) == hash(second)

    def test_records_holding_checks_hash(self):
        assert hash(_REPORT) == hash(
            AnalysisReport(
                61, 1, 15, (5, 61), True, _CANDIDATE, (_CANDIDATE,), (), "determined", ()
            )
        )


class TestEvenLattice2:
    GRAM = ((2, 1), (1, -2))

    def test_defaults(self):
        lat = EvenLattice2(self.GRAM)
        assert lat.m is None and lat.a is None
        assert lat == EvenLattice2(gram=self.GRAM) == EvenLattice2(self.GRAM, None, None)
        assert repr(lat) == "EvenLattice2(gram=((2, 1), (1, -2)), m=None, a=None)"

    def test_keyword_provenance(self):
        lat = EvenLattice2(gram=((6, 3), (3, -6)), a=1, m=3)
        assert (lat.m, lat.a) == (3, 1)
        assert lat != EvenLattice2(((6, 3), (3, -6)))
        assert lat != EvenLattice2(((6, 3), (3, -4)))

    def test_gram_is_normalised_to_int_tuples(self):
        lat = EvenLattice2([[2, True], [1, -2]])
        assert lat.gram == self.GRAM and type(lat.gram[0][1]) is int
        assert lat == EvenLattice2(self.GRAM)

    def test_discriminant_cosets_is_cached_per_instance(self):
        lat = EvenLattice2(((6, 3), (3, -6)), m=3, a=1)
        assert lat.discriminant_cosets is lat.discriminant_cosets
        assert lat == EvenLattice2(((6, 3), (3, -6)), m=3, a=1)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((((2, 1), (0, -2)),), "Gram matrix must be symmetric"),
            ((((3, 1), (1, -2)),), "even lattice needs even diagonal entries"),
            ((((2, 1), (1, -2)), 1, None), "provenance requires both m and a"),
            ((((2, 1), (1, -2)), None, 1), "provenance requires both m and a"),
            ((((2, 1), (1, -2)), 2, 1), "Gram matrix does not match the (m, a) provenance"),
            (((1, 2, 3),), "a 2x2 matrix is required"),
            ((((2, 1.0), (1, -2)),), "matrix entries must be integers"),
        ],
    )
    def test_validation(self, args, message):
        with pytest.raises(ValueError, match=message.replace("(", r"\(").replace(")", r"\)")):
            EvenLattice2(*args)


class TestIsometry2:
    def test_matrix_is_normalised(self):
        g = Isometry2(matrix=[[1, 0], [True, -1]])
        assert g.matrix == ((1, 0), (1, -1)) and type(g.matrix[1][0]) is int
        assert g == Isometry2(((1, 0), (1, -1)))
        assert g != Isometry2(((1, 0), (0, 1)))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ((1, 2, 3, 4), "a 2x2 matrix is required"),
            (((1, 2), (3,)), "a 2x2 matrix is required"),
            (((1, 2), (3, "4")), "matrix entries must be integers"),
            (((1, 2.5), (3, 4)), "matrix entries must be integers"),
        ],
    )
    def test_validation(self, rows, message):
        with pytest.raises(ValueError, match=message):
            Isometry2(rows)


class TestSalemQuadratic:
    @pytest.mark.parametrize("tau", [2, 0, -5, True, 7.0, "7", None])
    def test_validation(self, tau):
        with pytest.raises(ValueError, match="a Salem trace must be an integer > 2"):
            SalemQuadratic(tau)

    def test_keyword(self):
        assert SalemQuadratic(tau=3) == SalemQuadratic(3)
        assert SalemQuadratic(3) != SalemQuadratic(4)
