"""edcert: Eisenstein-Dumas irreducibility certificates for rational polynomials.

Certifies irreducibility in Q[x] by locating a prime p and a nonsingular
2x2 rational matrix whose action turns the input into an Eisenstein-Dumas
polynomial at the p-adic valuation.  All arithmetic is exact.
"""

from .certify import (
    AuditEntry,
    CandidatePrimes,
    Certificate,
    SearchConfig,
    Verdict,
    candidate_primes,
    certify_search,
    default_t_grid,
    lower_transform,
    one_param_member,
    phi,
    upper_transform,
)
from .exact_arith import Factorization, Rational, factor, gcd, is_probable_prime
from .moebius import Mat2, MatrixShape, act
from .newton_ed import (
    EDReport,
    NewtonPolygon,
    Segment,
    dumas_concat_holds,
    is_ed,
    is_ed_strict,
    newton_polygon,
)
from .poly import FormalPoly
from .valuation import PAdic

__version__ = "0.1.0"

__all__ = [
    "AuditEntry",
    "CandidatePrimes",
    "Certificate",
    "EDReport",
    "Factorization",
    "FormalPoly",
    "Mat2",
    "MatrixShape",
    "NewtonPolygon",
    "PAdic",
    "Rational",
    "SearchConfig",
    "Segment",
    "Verdict",
    "act",
    "candidate_primes",
    "certify_search",
    "default_t_grid",
    "dumas_concat_holds",
    "factor",
    "gcd",
    "is_ed",
    "is_ed_strict",
    "is_probable_prime",
    "lower_transform",
    "newton_polygon",
    "one_param_member",
    "phi",
    "upper_transform",
]
