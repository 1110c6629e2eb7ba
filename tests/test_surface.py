"""The public surface of edcert: each name the package ships has a caller.

A name stays public only for one of these reasons: code in src/edcert calls
it, the CLI calls it, it is a documented Fraction view of the integer form,
or the benchmark's tracer (bench/tracing.py) wraps it by name.  Test-only
operations live in tests/helpers.py, and reversal, scalings and shears are
written as act(A, Mat2(...)).
"""

import edcert
from edcert import FormalPoly, Mat2

EXPORTS = {
    "AuditEntry": "certify_search builds the audit; the CLI prints it",
    "CandidatePrimes": "returned by candidate_primes",
    "Certificate": "returned by certify_search; the CLI prints and writes it",
    "EDReport": "returned by is_ed; the CLI prints it",
    "Factorization": "returned by factor",
    "FormalPoly": "the polynomial every function takes",
    "Mat2": "the matrix act takes; the CLI parses one",
    "NewtonPolygon": "returned by newton_polygon; the CLI prints and plots it",
    "PAdic": "the valuation is_ed and newton_polygon take",
    "SearchConfig": "certify_search's settings; the CLI passes EDCERT_RHO_BUDGET",
    "Segment": "the sides of a NewtonPolygon",
    "Verdict": "Certificate.verdict",
    "act": "the CLI's act command; certify builds U(A) with it",
    "candidate_primes": "the paper's prime set, pinned by criterion 4; bench tracer target "
                        "certify.candidate_primes",
    "certificate_to_json": "the CLI's certify --json; the benchmark calls it",
    "certify_search": "the CLI's certify command",
    "dumas_concat_holds": "the CLI's dumas command",
    "factor": "certify_search and candidate_primes factor each tail with it",
    "is_ed": "certify_search and the CLI's ed-check call it",
    "is_probable_prime": "PAdic and the checker call it",
    "newton_polygon": "the CLI's newton command",
    "read_certificate": "the CLI's verify command reads the file with it",
    "upper_transform": "certify_search calls it",
    "validate_certificate_json": "the CLI's verify command; the benchmark calls it",
}

FORMAL_POLY = {
    "den": "the integer form (den, nums)",
    "nums": "the integer form (den, nums)",
    "coeffs": "documented view: the Fractions a_i",
    "formal_degree": "read across src",
    "actual_degree": "certify_search and dumas_concat_holds check it",
    "is_zero": "dumas_concat_holds and the oracle check it",
    "from_coeffs": "the oracle builds factors with it; the benchmark builds inputs",
    "mul": "the CLI's dumas command and dumas_concat_holds",
    "eval": "bench tracer target poly.eval",
    "taylor_shift": "bench tracer target poly.taylor_shift",
}

MAT2 = {
    "a": "the integer form [[a, b], [c, d]] / den",
    "b": "the integer form",
    "c": "the integer form",
    "d": "the integer form",
    "den": "the integer form",
    "entries": "documented view: the Fractions; the CLI prints them",
    "identity": "certify_search's stage-1 transform",
}


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


def test_package_exports_only_the_kept_names():
    assert sorted(edcert.__all__) == sorted(EXPORTS)
    assert all(hasattr(edcert, name) for name in edcert.__all__)


def test_formal_poly_and_mat2_have_only_the_kept_attributes():
    assert _public(FormalPoly) == set(FORMAL_POLY)
    assert _public(Mat2) == set(MAT2)
