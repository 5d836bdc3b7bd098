"""Value semantics of the result records, independent of how they are built.

Every record is immutable, compares by value only against its own class,
hashes consistently with that equality, prints as Name(field=value, ...),
accepts its fields by position or by keyword, and is written out by the
command line's one writer, cli._jsonify, as the dict of its fields (a
SalemQuadratic and a DiscriminantAction in the layouts of cli._LAYOUTS).
"""

import copy
import pickle
import sys

import pytest

from fibk3._record import Record
from fibk3.cli import _jsonify
from fibk3.engine import (
    AnalysisReport,
    CandidatePair,
    FilterCheck,
    RealizationResult,
    ResultantReport,
    ScenarioCandidate,
    SurvivorDetail,
    TargetExponentReport,
)
from fibk3.fibgen import MembershipMatch, MembershipResult
from fibk3.lattice import (
    DiscriminantAction,
    EvenLattice2,
    Isometry2,
    WordDecomposition,
    fibonacci_lattice,
)
from fibk3.salem import IntPolynomial, SalemQuadratic
from fibk3.selftest import SuiteResult

_CHECK = FilterCheck("trace-root-admissible", True, {"root": 18})
_CANDIDATE = CandidatePair(2, 15, 1860498, "anti_symplectic", "survives", (_CHECK,))
_DETAIL = SurvivorDetail(2, 15, 20, SalemQuadratic(1860498))
_REPORT = AnalysisReport(
    61, 1, 15, (5, 61), True, _CANDIDATE, (_CANDIDATE,), ((2, 15),), (_DETAIL,), "determined", ()
)
_SCENARIO = ScenarioCandidate(
    1, 20, 20, "excluded", (FilterCheck("published-exclusion-k20", False, {"required_index": 20}),)
)

# each record class with one field assignment, in declaration order
RECORDS = [
    (MembershipMatch, {"k": 4, "parity": "even", "square_witness": 7}),
    (MembershipResult, {"status": "member", "matches": (MembershipMatch(4, "even", 7),)}),
    (EvenLattice2, {"gram": ((2, 1), (1, -2))}),
    (Isometry2, {"matrix": ((1, 0), (1, -1))}),
    (DiscriminantAction, {"epsilon": 1, "holds": False, "numerators": ((1, 2), (3, 4)),
                          "disc": -5}),
    (WordDecomposition, {"sign": -1, "word": "ABA"}),
    (SalemQuadratic, {"tau": 7}),
    (IntPolynomial, {"coeffs": (1, -3, 1)}),
    (FilterCheck, {"name": "resultant-divisibility", "passed": False,
                   "witness": {"resultant": 11, "failing_prime": 61}}),
    (CandidatePair, {"l": 10, "k": 3, "tau": 76, "epsilon_class": "order_l",
                     "verdict": "survives", "reasons": (_CHECK,)}),
    (SurvivorDetail, {"l": 2, "k": 15, "multiplicity": 20, "salem": SalemQuadratic(1860498)}),
    (AnalysisReport, {"m": 61, "a": 1, "entry_point": 15, "discriminant_primes": (5, 61),
                      "generator_criterion_applies": False, "generator": None,
                      "candidates": (_CANDIDATE,), "survivors": ((2, 15),),
                      "survivor_details": (_DETAIL,),
                      "resolution": "inconclusive", "errata_flags": ("flag",)}),
    (RealizationResult, {"realized": True, "epsilon": -1}),
    (ScenarioCandidate, {"l": 5, "k": 4, "required_index": 20, "verdict": "excluded",
                         "reasons": (FilterCheck("divisibility", False,
                                                 {"required_index": 20, "residue": 349}),)}),
    (TargetExponentReport, {"m": 15, "n_target": 100,
                            "published_style_candidates": (_SCENARIO,),
                            "published_style_survivors": ((2, 50),), "closure_rule": _REPORT,
                            "errata_flags": ()}),
    (ResultantReport, {"p": IntPolynomial((1, -3, 1)), "q": IntPolynomial((1, 1)),
                       "resultant": 5, "errata_flags": ("flag",)}),
    (SuiteResult, {"name": "cassini", "checks": 3, "failures": 0,
                   "first_counterexample": None, "seconds": 0.25}),
]

IDS = [cls.__name__ for cls, _ in RECORDS]
VALIDATED = (EvenLattice2, Isometry2, SalemQuadratic, IntPolynomial)


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
            with pytest.raises(AttributeError) as assigned:
                setattr(record, name, 0)
            assert str(assigned.value) == f"cannot assign to field {name!r}"
            with pytest.raises(AttributeError) as deleted:
                delattr(record, name)
            assert str(deleted.value) == f"cannot delete field {name!r}"
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


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy]
    + [lambda r, p=p: pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_copy_and_pickle_round_trip(cls, fields, round_trip):
    record = build(cls, fields)
    twin = round_trip(record)
    assert type(twin) is cls and twin == record and hash(twin) == hash(record)
    assert {name: getattr(twin, name) for name in fields} == fields
    with pytest.raises(AttributeError, match="^cannot assign to field 'no_such_field'$"):
        twin.no_such_field = 0


class TestLayout:
    """Every record class has __slots__ of its own fields, so a record has no
    __dict__."""

    def test_every_record_class_is_listed(self):
        # this module imports every module that defines a record class
        found = {
            value
            for name, module in sys.modules.items() if name.startswith("fibk3.")
            for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Record) and value is not Record
        }
        assert found == {cls for cls, _ in RECORDS}

    @pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
    def test_slots_are_the_fields(self, cls, fields):
        assert cls.__slots__ == cls._fields == tuple(fields)
        assert "__dict__" not in cls.__dict__ and Record.__slots__ == ()
        assert not hasattr(build(cls, fields), "__dict__")


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
        twin = AnalysisReport(
            61, 1, 15, (5, 61), True, _CANDIDATE, (_CANDIDATE,), ((2, 15),),
            (SurvivorDetail(2, 15, 20, SalemQuadratic(1860498)),), "determined", (),
        )
        assert hash(_REPORT) == hash(twin)
        assert hash(TargetExponentReport(15, 100, (_SCENARIO,), ((2, 50),), _REPORT, ())) == hash(
            TargetExponentReport(15, 100, (_SCENARIO,), ((2, 50),), twin, ())
        )


_CANDIDATE_PAYLOAD = {
    "l": "2",
    "k": "15",
    "tau": "1860498",
    "epsilon_class": "anti_symplectic",
    "verdict": "survives",
    "reasons": [{"name": "trace-root-admissible", "passed": True, "witness": {"root": "18"}}],
}
_SALEM_1860498 = {
    "tau": "1860498",
    "polynomial": "x^2 - 1860498*x + 1",
    "lambda": "1860497.9999994626",
    "entropy": "14.436354751788103",
}


class TestAsPayload:
    """A record is written out as the dict of its fields, in field order,
    with every integer as a decimal string."""

    def test_candidate_with_two_checks(self):
        squares = FilterCheck("cyclotomic-trace-squares", True, {"root": 9, "root5": 15})
        divides = FilterCheck("resultant-divisibility", False,
                              {"resultant": 11, "failing_prime": 61})
        pair = CandidatePair(10, 3, 76, "order_l", "excluded", (squares, divides))
        payload = _jsonify(pair)
        assert payload == {
            "l": "10",
            "k": "3",
            "tau": "76",
            "epsilon_class": "order_l",
            "verdict": "excluded",
            "reasons": [
                {"name": "cyclotomic-trace-squares", "passed": True,
                 "witness": {"root": "9", "root5": "15"}},
                {"name": "resultant-divisibility", "passed": False,
                 "witness": {"resultant": "11", "failing_prime": "61"}},
            ],
        }
        assert list(payload) == ["l", "k", "tau", "epsilon_class", "verdict", "reasons"]
        assert list(payload["reasons"][0]) == ["name", "passed", "witness"]
        assert list(payload["reasons"][1]["witness"]) == ["resultant", "failing_prime"]

    def test_analysis_report_with_its_survivors(self):
        payload = _jsonify(_REPORT)
        assert payload == {
            "m": "61",
            "a": "1",
            "entry_point": "15",
            "discriminant_primes": ["5", "61"],
            "generator_criterion_applies": True,
            "generator": _CANDIDATE_PAYLOAD,
            "candidates": [_CANDIDATE_PAYLOAD],
            "survivors": [["2", "15"]],
            "survivor_details": [
                {"l": "2", "k": "15", "multiplicity": "20", "salem": _SALEM_1860498}
            ],
            "resolution": "determined",
            "errata_flags": [],
        }
        assert list(payload) == list(AnalysisReport._fields)
        assert list(payload)[6:9] == ["candidates", "survivors", "survivor_details"]

    def test_scenario_report_nests_its_closure_report(self):
        report = TargetExponentReport(15, 100, (_SCENARIO,), ((2, 50),), _REPORT, ("flag",))
        payload = _jsonify(report)
        assert list(payload) == [
            "m", "n_target", "published_style_candidates", "published_style_survivors",
            "closure_rule", "errata_flags",
        ]
        assert payload["published_style_survivors"] == [["2", "50"]]
        assert payload["closure_rule"] == _jsonify(_REPORT)
        assert payload["errata_flags"] == ["flag"]

    def test_salem_quadratic_block(self):
        payload = _jsonify(SalemQuadratic(1860498))
        assert payload == _SALEM_1860498
        assert list(payload) == ["tau", "polynomial", "lambda", "entropy"]
        assert payload["lambda"] == repr(SalemQuadratic(1860498).lambda_)
        assert payload["entropy"] == repr(SalemQuadratic(1860498).entropy)

    def test_discriminant_action_block(self):
        # the exact matrix (g - eps*I) * Q^-1 = numerators / disc, not its parts
        action = DiscriminantAction(-1, False, ((-9, 3), (-12, 9)), -15)
        payload = _jsonify(action)
        assert payload == {
            "epsilon": "-1",
            "holds": False,
            "matrix": [["3/5", "-1/5"], ["4/5", "-3/5"]],
        }
        assert list(payload) == ["epsilon", "holds", "matrix"]

    def test_resultant_report(self):
        report = ResultantReport(IntPolynomial((1, -3, 1)), IntPolynomial((1, 1)), 5, ())
        assert _jsonify(report) == {
            "p": {"coeffs": ["1", "-3", "1"]},
            "q": {"coeffs": ["1", "1"]},
            "resultant": "5",
            "errata_flags": [],
        }

    def test_witness_is_a_copy(self):
        payload = _jsonify(_CANDIDATE)
        assert payload["reasons"][0]["witness"] is not _CHECK.witness
        payload["reasons"][0]["witness"]["root"] = 0
        assert _CHECK.witness == {"root": 18}

    def test_none_stays_none(self):
        assert _jsonify(None) is None
        assert _jsonify(AnalysisReport(**dict(RECORDS)[AnalysisReport]))["generator"] is None

    def test_membership_result(self):
        result = MembershipResult("member", (MembershipMatch(4, "even", 7),))
        payload = _jsonify(result)
        assert payload == {
            "status": "member",
            "matches": [{"k": "4", "parity": "even", "square_witness": "7"}],
        }
        assert list(payload) == ["status", "matches"]


class TestEvenLattice2:
    GRAM = ((2, 1), (1, -2))

    @pytest.mark.parametrize("m, a", [(1, 1), (3, 1), (61, 1), (6, 2), (5, 7)])
    def test_family_lattice_is_its_gram_matrix(self, m, a):
        gram = ((2 * m, a * m), (a * m, -2 * m))
        lat = fibonacci_lattice(m, a)
        assert lat == EvenLattice2(gram) and hash(lat) == hash(EvenLattice2(gram))
        assert lat._fields == ("gram",)
        assert repr(lat) == f"EvenLattice2(gram={gram!r})"

    def test_no_provenance_fields(self):
        gram = ((6, 3), (3, -6))
        with pytest.raises(TypeError):
            EvenLattice2(gram, 3, 1)
        with pytest.raises(TypeError):
            EvenLattice2(gram, m=3, a=1)

    def test_gram_is_normalised_to_int_tuples(self):
        lat = EvenLattice2([[2, True], [1, -2]])
        assert lat.gram == self.GRAM and type(lat.gram[0][1]) is int
        assert lat == EvenLattice2(self.GRAM)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((((2, 1), (0, -2)),), "Gram matrix must be symmetric"),
            ((((3, 1), (1, -2)),), "even lattice needs even diagonal entries"),
            ((((2, 1), (1, -3)),), "even lattice needs even diagonal entries"),
            ((((2, 1), (1,)),), "a 2x2 matrix is required"),
            ((((2, 1), (1, "-2")),), "matrix entries must be integers"),
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
