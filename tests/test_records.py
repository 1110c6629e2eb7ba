"""The contract of edcert's immutable value types.

Every record is built positionally, by keyword and with its defaults; equal
records of one class are equal and hash alike, a record never equals one of
another class holding the same values, assignment raises AttributeError,
copies and pickles are equal records, and the repr is Name(field=value, ...)
in field order.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from edcert import (
    AuditEntry,
    CandidatePrimes,
    Certificate,
    EDReport,
    Factorization,
    FormalPoly,
    Mat2,
    NewtonPolygon,
    PAdic,
    SearchConfig,
    Segment,
    Verdict,
)
from edcert.exact_arith import DEFAULT_RHO_BUDGET
from edcert.oracle import OracleVerdict

SRC = Path(__file__).resolve().parent.parent / "src"

_POLY = FormalPoly(1, (2, 0, 1))
_SEGMENT = Segment(Fraction(-1, 2), 2)

# (class, positional args, the same record by keyword, its exact repr)
CASES = [
    (FormalPoly, (4, (2, 6)), {"den": -4, "nums": (-2, -6)}, "FormalPoly(den=2, nums=(1, 3))"),
    (
        Mat2,
        (1, Fraction(1, 2), 0, 3),
        {"a": Fraction(1), "b": Fraction(2, 4), "c": 0, "d": 3},
        "Mat2(a=Fraction(1, 1), b=Fraction(1, 2), c=Fraction(0, 1), d=Fraction(3, 1))",
    ),
    (PAdic, (5,), {"p": 5}, "PAdic(p=5)"),
    (Segment, (Fraction(-1, 2), 2), {"slope": Fraction(-1, 2), "length": 2},
     "Segment(slope=Fraction(-1, 2), length=2)"),
    (
        NewtonPolygon,
        (((0, 1), (2, 0)), (_SEGMENT,)),
        {"vertices": ((0, 1), (2, 0)), "segments": (_SEGMENT,)},
        "NewtonPolygon(vertices=((0, 1), (2, 0)), "
        "segments=(Segment(slope=Fraction(-1, 2), length=2),))",
    ),
    (EDReport, (True, False, True, 2, None),
     {"d0": True, "d1": False, "d2": True, "d1_gcd": 2},
     "EDReport(d0=True, d1=False, d2=True, d1_gcd=2, d2_failing_index=None)"),
    (Factorization, (((2, 3), (5, 1)), 77), {"factors": ((2, 3), (5, 1)), "cofactor": 77},
     "Factorization(factors=((2, 3), (5, 1)), cofactor=77)"),
    (CandidatePrimes, (frozenset({3}), False), {"primes": frozenset({3}), "complete": False},
     "CandidatePrimes(primes=frozenset({3}), complete=False)"),
    (SearchConfig, (7,), {"rho_budget": 7}, "SearchConfig(rho_budget=7)"),
    (AuditEntry, (3, 2, "D0 fails"), {"prime": 3, "stage": 2, "reason": "D0 fails"},
     "AuditEntry(prime=3, stage=2, reason='D0 fails')"),
    (
        Certificate,
        (_POLY, Verdict.IRREDUCIBLE, 2, 1, Mat2.identity(), _POLY,
         EDReport(True, True, True, 1), (AuditEntry(2, 0, "x"),), False),
        {"input": _POLY, "verdict": Verdict.IRREDUCIBLE, "prime": 2, "stage": 1,
         "transform": Mat2.identity(), "witness": _POLY,
         "report": EDReport(True, True, True, 1), "audit": (AuditEntry(2, 0, "x"),),
         "candidate_primes_complete": False},
        "Certificate(input=FormalPoly(den=1, nums=(2, 0, 1)), "
        "verdict=<Verdict.IRREDUCIBLE: 'irreducible'>, prime=2, stage=1, "
        "transform=Mat2(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(1, 1)), "
        "witness=FormalPoly(den=1, nums=(2, 0, 1)), "
        "report=EDReport(d0=True, d1=True, d2=True, d1_gcd=1, d2_failing_index=None), "
        "audit=(AuditEntry(prime=2, stage=0, reason='x'),), candidate_primes_complete=False)",
    ),
    (OracleVerdict, (False, (_POLY, _POLY)), {"irreducible": False, "witness": (_POLY, _POLY)},
     "OracleVerdict(irreducible=False, witness=(FormalPoly(den=1, nums=(2, 0, 1)), "
     "FormalPoly(den=1, nums=(2, 0, 1))))"),
]

_IDS = [case[0].__name__ for case in CASES]

# one field of each case's record changed, by keyword
CHANGED = {
    FormalPoly: {"den": 3},
    Mat2: {"b": 2},
    PAdic: {"p": 7},
    Segment: {"length": 3},
    NewtonPolygon: {"segments": ()},
    EDReport: {"d2_failing_index": 1},
    Factorization: {"cofactor": 1},
    CandidatePrimes: {"complete": True},
    SearchConfig: {"rho_budget": 8},
    AuditEntry: {"reason": "D1 fails"},
    Certificate: {"prime": 3},
    OracleVerdict: {"witness": None},
}


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=_IDS)
def test_records_build_compare_and_print_by_their_fields(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert repr(a) == repr(b) == text
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != cls(**{**kwargs, **CHANGED[cls]})
    assert a != args and a != None  # noqa: E711
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a and repr(twin) == text
    # a subclass holds the same values but is another record type
    twin = type("Twin", (cls,), {})(*args)
    assert twin != a and a != twin and not twin == a


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=_IDS)
def test_records_refuse_assignment(cls, args, kwargs, text):
    a = cls(*args)
    for name in kwargs:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == text


def test_record_defaults():
    assert Factorization(((2, 1),)) == Factorization(((2, 1),), 1)
    assert Factorization(()).complete and not Factorization((), 15).complete
    assert SearchConfig() == SearchConfig(DEFAULT_RHO_BUDGET)
    assert repr(SearchConfig()) == f"SearchConfig(rho_budget={DEFAULT_RHO_BUDGET})"
    assert EDReport(False, False, False) == EDReport(False, False, False, None, None)
    assert OracleVerdict(True) == OracleVerdict(True, None)
    bare = Certificate(_POLY, Verdict.INCONCLUSIVE)
    assert bare == Certificate(_POLY, Verdict.INCONCLUSIVE, None, None, None, None, None, (), True)
    assert repr(bare) == (
        "Certificate(input=FormalPoly(den=1, nums=(2, 0, 1)), "
        "verdict=<Verdict.INCONCLUSIVE: 'inconclusive'>, prime=None, stage=None, "
        "transform=None, witness=None, report=None, audit=(), candidate_primes_complete=True)"
    )
    assert not bare.irreducible


def test_record_construction_normalises_its_fields():
    p = FormalPoly(-6, [4, -2])
    assert (p.den, p.nums) == (3, (-2, 1)) and type(p.nums) is tuple
    m = Mat2(2, 0, 0, 1)
    assert all(type(x) is Fraction for x in m.entries()) and m.det == 2
    equal = {FormalPoly(2, (2, 4)), FormalPoly(1, (1, 2)), FormalPoly(-1, (-1, -2))}
    assert equal == {FormalPoly(1, (1, 2))}


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: FormalPoly(0, (1, 2)), ValueError, "zero denominator"),
        (lambda: FormalPoly(1, ()), ValueError, "at least one entry"),
        (lambda: Mat2(1, 2, 2, 4), ValueError, "matrix is singular"),
        (lambda: Mat2(Fraction(1, 2), 1, 1, 2), ValueError, "matrix is singular"),
        (lambda: Mat2(1.5, 0, 0, 1), TypeError, "cannot be interpreted as an integer"),
        (lambda: PAdic(1), ValueError, "1 is not prime"),
        (lambda: PAdic(91), ValueError, "91 is not prime"),
        (lambda: SearchConfig(0), ValueError, "rho_budget must be at least 1, got 0"),
        (lambda: SearchConfig(rho_budget=-5), ValueError, "rho_budget must be at least 1, got -5"),
    ],
)
def test_record_validation_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_importing_the_cli_loads_no_code_generators():
    """A cold `import edcert.cli` leaves dataclasses, inspect and typing
    unimported: records are plain classes, and annotations take their
    abstract types from collections.abc."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import edcert.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
