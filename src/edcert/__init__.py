"""edcert: Eisenstein-Dumas irreducibility certificates for rational polynomials.

Certifies irreducibility in Q[x] by locating a prime p and a nonsingular
2x2 rational matrix whose action turns the input into an Eisenstein-Dumas
polynomial at the p-adic valuation.  All arithmetic is exact.
"""

from .certificate import certificate_to_json, read_certificate, validate_certificate_json
from .certify import (
    AuditEntry,
    CandidatePrimes,
    Certificate,
    SearchConfig,
    Verdict,
    candidate_primes,
    certify_search,
    upper_transform,
)
from .exact_arith import Factorization, factor, is_probable_prime
from .moebius import Mat2, act
from .newton_ed import (
    EDReport,
    NewtonPolygon,
    Segment,
    dumas_concat_holds,
    is_ed,
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
    "NewtonPolygon",
    "PAdic",
    "SearchConfig",
    "Segment",
    "Verdict",
    "act",
    "candidate_primes",
    "certificate_to_json",
    "certify_search",
    "dumas_concat_holds",
    "factor",
    "is_ed",
    "is_probable_prime",
    "newton_polygon",
    "read_certificate",
    "upper_transform",
    "validate_certificate_json",
]
