"""Certificate text: the grammar, the JSON writer and reader, and an
independent checker.

One grammar covers the polynomials and rationals that the CLI reads and that
a certificate stores.  Digits are ASCII 0-9; whitespace may appear between
any two tokens, except after the sign of a rational:

    poly     := [sign] term (sign term)*
    term     := coeff ['*'] [x ['^' int]]  |  x ['^' int]
    coeff    := int | int '/' int
    rational := [sign] coeff
    sign     := '+' | '-'

int/int is the only fractional form: decimals and exponents are rejected,
and so is a run of more than MAX_DIGITS digits.
The readers return integer forms: a rational as (num, den) with den > 0, not
reduced, and a polynomial as (D, [D a_0, ..., D a_n]) with D > 0 a common
denominator, so that every entry is an integer.

The checker, validate_certificate_json, shares no arithmetic with the search:
it uses neither the action kernel nor the Eisenstein-Dumas test, and works on
integers throughout.  An irreducible certificate claims that the witness W
equals A g for g = [[a, b], [c, d]] and that W is Eisenstein-Dumas at p.

  * W = A g.  Let F(X, Y) = sum alpha_i X^i Y^(n-i) be the binary form of
    the input's integer form (D_A, alpha), lam the lcm of g's denominators
    and a, b, c, d the integer entries of lam g.  Then A g =
    F(ax+b, cx+d) / (D_A lam^n), so with omega the witness's integer form
    (D_W, omega) and Omega(x) = sum omega_i x^i, W = A g is the identity
    D_A lam^n Omega(x) = D_W F(ax+b, cx+d) between two integer polynomials of
    degree at most n.  For c = 0, the paper's triangular action and every
    matrix the search writes (the identity at stage 1, the shear of U(A) at
    stage 2), F(ax+b, d) = P(ax+b) with P(y) = sum alpha_i d^(n-i) y^i, so
    the identity reads D_A lam^n omega_i = D_W a^i P_i for i = 0..n, where
    P_i are the coefficients of P(y+b): a Taylor shift by synthetic
    division, n^2/2 multiply-adds.  A full matrix (c != 0) would need a
    reversal and a second shift as well; the search never writes one (orbit
    lemma), but the format allows it, so there the identity is tested at
    the n+1 points x = 0, 1, ..., n, which decide it: both sides have degree
    at most n.  That costs 2(n+1)^2 multiply-adds.
  * (D0)-(D2) at p are read from the integer numerators omega_i = D_W w_i.
    Each valuation is v(D_W) + v(w_i), and the common term cancels:
    v(w_0) - v(w_n) is unchanged in (D1), and in (D2) it adds n v(D_W) to
    both sides of n v(w_i) >= (n-i) v(w_0) + i v(w_n).  Only omega_0 and
    omega_n are valued; (D2) at an interior index is a divisibility test
    (see _ed_report).  The stored report must equal the recomputed one in
    type as well as in value: d0, d1 and d2 JSON booleans, gcd_value and
    failing_index integers, or null where the recomputed value is None.

Inconclusive certificates get a shape check only.  The checker is total: any
malformed JSON value gives (False, reason), never an exception.  The text
itself is read by read_certificate, which refuses with ValueError what the
JSON decoder alone would accept silently or fail on with the interpreter's
error: text longer than MAX_CERTIFICATE_CHARS, an integer of more than
MAX_DIGITS digits, a key repeated in an object at any depth, and nesting
deeper than the decoder's recursion limit.  Below psi_13
it tests the stated prime with its own Miller-Rabin, all 13 prime bases up to
41, which is a proof there (Sorenson & Webster, Math. Comp. 2017).  The only
import from the rest of the package is the BPSW test it runs from psi_13 on.
"""

from __future__ import annotations

import json
import math
import re

from .exact_arith import is_probable_prime

#: Largest exponent and formal degree accepted from outside; every degree the
#: tests and the benchmark use is at most 24, and the work of the action and
#: the search grows at least quadratically in the degree.
MAX_DEGREE = 1000

#: Most digits in one integer literal read or printed: the interpreter's
#: default limit on conversions between int and str.
MAX_DIGITS = 4300

#: Longest certificate text read_certificate accepts, in characters: over three
#: times the 17.3 million or so of a degree-MAX_DEGREE certificate whose input
#: and witness have MAX_DIGITS-digit numerators and denominators.
MAX_CERTIFICATE_CHARS = 2**26

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # the least odd composite passing all 13


def _is_prime(p: int) -> bool:
    """Primality of p >= 2: Miller-Rabin with the 13 bases below psi_13, the
    package's BPSW test from there on."""
    if p >= _PSI_13:
        return is_probable_prime(p)
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _clip(text: str) -> str:
    """text as an error message echoes it: whole up to 50 characters, else
    its first 20 characters and its length."""
    return text if len(text) <= 50 else f"{text[:20]}... ({len(text)} characters)"


class PolyParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


#: A rational: [sign]int or [sign]int/int, the sign against the first digit.
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:\s*/\s*([0-9]+))?\s*")

#: One polynomial term and the whitespace after it.  The denominator and the
#: exponent may match empty, so that read_poly can say where one is missing.
_TERM = re.compile(
    r"(?P<sign>[+-])?\s*(?:(?P<num>[0-9]+)\s*(?:/\s*(?P<den>[0-9]*)\s*)?(?:\*\s*)?)?"
    r"(?:(?P<x>[xX])\s*(?:\^\s*(?P<exp>[0-9]*))?)?\s*"
)


def read_rational(text: str) -> tuple[int, int]:
    """(num, den), den > 0 and not reduced, of [sign]int or [sign]int/int in
    ASCII digits; a non-string raises TypeError."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"invalid rational {_clip(repr(text))}: expected an integer or 'int/int'")
    num, den = m.groups()
    if len(text) > MAX_DIGITS:  # only then can a digit run be too long
        _check_digits(m, 1), _check_digits(m, 2)
    num, den = int(num), int(den) if den else 1
    if den == 0:
        raise ValueError(f"invalid rational {_clip(repr(text))}: zero denominator")
    return num, den


def _check_digits(m: re.Match, group: int) -> None:
    """Refuse the digit run in a group of m if it has more than MAX_DIGITS
    digits."""
    digits = m[group]
    if digits is not None and (size := len(digits.lstrip("+-"))) > MAX_DIGITS:
        raise PolyParseError(
            f"integer of {size} digits exceeds the limit {MAX_DIGITS}", m.start(group)
        )


def read_poly(text: str, formal_degree: int | None = None) -> tuple[int, list[int]]:
    """Read the polynomial grammar into (D, [D a_0, ..., D a_n]); like terms
    are combined.

    The formal degree n is the largest exponent carrying a nonzero
    coefficient unless overridden upward; an override below the actual degree
    is an error, and so is an exponent or override above MAX_DEGREE.  Errors
    carry their position, and the first in the text is the one reported.
    """
    if formal_degree is not None and formal_degree > MAX_DEGREE:
        raise ValueError(
            f"formal degree {_clip(str(formal_degree))} exceeds the limit {MAX_DEGREE}"
        )
    pos = len(text) - len(text.lstrip())
    if pos == len(text):
        raise PolyParseError("empty polynomial", pos)
    terms: dict[int, tuple[int, int]] = {}
    long_text = len(text) > MAX_DIGITS  # only then can a digit run be too long
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, num, den, x, exp = m.groups()
        if sign is None and terms:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        if num is None and x is None:
            raise PolyParseError("expected a coefficient or 'x'", m.end())
        if long_text:
            _check_digits(m, 2)
        if den == "":
            raise PolyParseError("expected an integer", m.start(3))
        if long_text:
            _check_digits(m, 3)
        den = int(den) if den else 1
        if den == 0:
            raise PolyParseError("zero denominator", m.start(3))
        if exp == "":
            raise PolyParseError("expected an integer", m.start(5))
        if long_text:
            _check_digits(m, 5)
        exp = (1 if x else 0) if exp is None else int(exp)
        if exp > MAX_DEGREE:
            raise PolyParseError(
                f"exponent {_clip(str(exp))} exceeds the limit {MAX_DEGREE}", m.start(5)
            )
        num = 1 if num is None else int(num)
        if sign == "-":
            num = -num
        if exp in terms:
            prev_num, prev_den = terms[exp]
            num, den = prev_num * den + num * prev_den, prev_den * den
            g = math.gcd(num, den)
            num, den = num // g, den // g
        terms[exp] = num, den
        pos = m.end()
    actual = max((e for e, (num, _) in terms.items() if num != 0), default=0)
    if formal_degree is not None and formal_degree < actual:
        raise ValueError(
            f"formal degree override {_clip(str(formal_degree))} "
            f"is below the actual degree {actual}"
        )
    n = actual if formal_degree is None else formal_degree
    coeffs = [terms.get(k, (0, 1)) for k in range(n + 1)]
    return _integer_form(coeffs)


def _integer_form(rationals: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """(D, [D num/den ...]) for (num, den) pairs, D the lcm of the den."""
    D = math.lcm(*[den for _, den in rationals])
    return D, [num * (D // den) for num, den in rationals]


#: The least integer of more than MAX_DIGITS digits.
_DIGITS_BOUND = 10**MAX_DIGITS


def _decimal(x: int) -> str:
    """str(x); past MAX_DIGITS digits, which read_poly would refuse, a
    ValueError of ours in place of the interpreter's."""
    if -_DIGITS_BOUND < x < _DIGITS_BOUND:
        return str(x)
    raise ValueError(
        f"a certificate integer of {x.bit_length()} bits exceeds the limit of {MAX_DIGITS} digits"
    )


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms as 'x' or 'x/d', the text of str(Fraction);
    each integer is written by _decimal."""
    g = math.gcd(num, den)
    return _decimal(num // g) if g == den else f"{_decimal(num // g)}/{_decimal(den // g)}"


def format_poly(A) -> str:
    """Grammar-compatible rendering of a FormalPoly, highest exponent first."""
    parts: list[str] = []
    for e in range(A.formal_degree, -1, -1):
        num = A.nums[e]
        if num == 0:
            continue
        mag = _ratio(abs(num), A.den)
        if e == 0:
            body = mag
        else:
            body = "x" if mag == "1" else f"{mag}x"
            if e > 1:
                body += f"^{e}"
        if not parts:
            parts.append(body if num > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if num > 0 else ' - '}{body}")
    return "".join(parts) if parts else "0"


def certificate_to_json(cert) -> dict:
    """Exact-string JSON form of a Certificate; all rationals are serialized
    as 'num/den' strings.  Every integer it writes goes through _decimal, so
    one of more than MAX_DIGITS digits raises ValueError before any text is
    returned."""
    if cert.irreducible:
        g = cert.transform
        transform = [_ratio(x, g.den) for x in (g.a, g.b, g.c, g.d)]
        den = cert.witness.den
        witness = [_ratio(x, den) for x in cert.witness.nums]
        report = {
            "d0": cert.report.d0,
            "d1": cert.report.d1,
            "d2": cert.report.d2,
            "gcd_value": cert.report.d1_gcd,
            "failing_index": cert.report.d2_failing_index,
        }
        prime = _decimal(cert.prime)
    else:
        transform = witness = report = prime = None
    audit = [
        {"prime": _decimal(e.prime), "stage": e.stage, "reason": e.reason} for e in cert.audit
    ]
    if not cert.candidate_primes_complete:
        audit.append(
            {"prime": None, "stage": 0, "reason": "candidate prime set possibly incomplete"}
        )
    return {
        "input": format_poly(cert.input),
        "formal_degree": cert.input.formal_degree,
        "verdict": cert.verdict.value,
        "prime": prime,
        "transform": transform,
        "witness_coeffs": witness,
        "report": report,
        "audit": audit,
    }


def _json_int(text: str) -> int:
    """A JSON integer, refused past MAX_DIGITS digits with a message of ours."""
    if (size := len(text.lstrip("-"))) > MAX_DIGITS:
        raise ValueError(f"JSON integer of {size} digits exceeds the limit {MAX_DIGITS}")
    return int(text)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key repeated in it is refused, at any depth."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {_clip(repr(key))} in certificate JSON")
        data[key] = value
    return data


def read_certificate(text: str) -> object:
    """The JSON value of certificate text, a dict for every certificate,
    ready for validate_certificate_json; ValueError for anything the module
    docstring lists as refused, or for text that is not JSON."""
    if len(text) > MAX_CERTIFICATE_CHARS:
        raise ValueError(f"certificate text exceeds the limit of {MAX_CERTIFICATE_CHARS} characters")
    try:
        return json.loads(text, parse_int=_json_int, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("certificate JSON is nested too deeply") from None


def _val(m: int, p: int) -> int:
    """Exponent of p in the nonzero integer m, by repeated squaring: strip
    p^(2^j) for j = 0, 1, ... while it divides m, then test the smaller
    powers p^(2^j) largest first, each once."""
    k, powers = 0, [p]
    while m % powers[-1] == 0:
        m //= powers[-1]
        k += 1 << len(powers) - 1
        powers.append(powers[-1] * powers[-1])
    for j in range(len(powers) - 2, -1, -1):
        if m % powers[j] == 0:
            m //= powers[j]
            k += 1 << j
    return k


def _binary_form(alpha: list[int], X: int, Y: int) -> int:
    """sum alpha_i X^i Y^(n-i), by Horner's rule from the top."""
    acc, Ypow = 0, 1
    for ai in reversed(alpha):
        acc = acc * X + ai * Ypow
        Ypow *= Y
    return acc


def _acts_to(D: int, alpha: list[int], g: list[int], lam: int, Dw: int, omega: list[int]) -> bool:
    """Whether the witness (Dw, omega) is the input (D, alpha) acted on by the
    matrix with integer entries g = lam * [a, b, c, d]: the identity
    D lam^n Omega(x) = Dw F(ax+b, cx+d) of the module docstring, checked
    coefficient by coefficient for c = 0 and at x = 0..n otherwise (see
    there)."""
    n = len(alpha) - 1
    if len(omega) != n + 1:
        return False
    a, b, c, d = g
    scale = D * lam**n
    if c == 0:
        P, dpow = alpha[:], 1
        for i in range(n, -1, -1):
            P[i] *= dpow
            dpow *= d
        if b:
            for i in range(n):
                acc = P[n]
                for j in range(n - 1, i - 1, -1):
                    acc = P[j] = P[j] + b * acc
        apow = Dw
        for w, Pi in zip(omega, P):
            if scale * w != apow * Pi:
                return False
            apow *= a
        return True
    for k in range(n + 1):
        value = 0
        for w in reversed(omega):
            value = value * k + w
        if scale * value != Dw * _binary_form(alpha, a * k + b, c * k + d):
            return False
    return True


def _ed_report(omega: list[int], p: int) -> tuple[bool, bool, bool, int | None, int | None]:
    """(d0, d1, d2, gcd, failing index) of the Eisenstein-Dumas conditions at
    p, read from the integer numerators omega of a degree-n polynomial.

    Only omega_0 and omega_n are valued: since v(omega_i) is an integer,
    n v(omega_i) >= (n-i) v0 + i vn holds exactly when omega_i is 0 or
    divisible by p^k with k = ceil(((n-i) v0 + i vn) / n)."""
    n = len(omega) - 1
    if omega[0] == 0 or omega[n] == 0:
        return False, False, False, None, None
    v0, vn = _val(omega[0], p), _val(omega[n], p)
    g = math.gcd(v0 - vn, n)
    powers: dict[int, int] = {}
    failing = None
    for i in range(1, n):
        k = -(-((n - i) * v0 + i * vn) // n)
        if k not in powers:
            powers[k] = p**k
        if omega[i] % powers[k]:
            failing = i
            break
    return True, g == 1, failing is None, g, failing


def validate_certificate_json(data: object) -> tuple[bool, str]:
    """Re-derive everything an irreducibility certificate claims.

    Re-reads the input, decides witness = act(input, transform) coefficient
    by coefficient for a triangular transform and by evaluation at n+1
    points for a full one, and re-derives the Eisenstein-Dumas report,
    comparing it bit for bit, in type as well as in value, with the stored
    one (see the module docstring).  A formal degree below 2 is refused, as
    by the search, before the stated prime is tested.  Inconclusive
    certificates only get a shape check.  Total: any malformed JSON value
    gives (False, reason), never an exception.
    """
    if not isinstance(data, dict):
        return False, "malformed certificate: not a JSON object"
    try:
        formal_degree = data["formal_degree"]
        if not isinstance(formal_degree, int) or isinstance(formal_degree, bool):
            raise TypeError(f"formal_degree must be an integer, got {_clip(repr(formal_degree))}")
        D, alpha = read_poly(data["input"], formal_degree)
        verdict = data["verdict"]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    if verdict == "inconclusive":
        for key in ("prime", "transform", "witness_coeffs", "report"):
            if data.get(key) is not None:
                return False, f"inconclusive certificate must have null {key}"
        return True, "inconclusive certificate is well-formed (no claim to check)"
    if verdict != "irreducible":
        return False, f"unknown verdict {_clip(repr(verdict))}"
    try:
        prime = data["prime"]
        if not (isinstance(prime, str) and prime.isascii() and prime.isdigit()):
            raise ValueError(f"prime must be a string of decimal digits, got {_clip(repr(prime))}")
        if len(prime) > MAX_DIGITS:
            raise ValueError(f"prime of {len(prime)} digits exceeds the limit {MAX_DIGITS}")
        p = int(prime)
        if p < 2:  # tested for primality last, but _val needs p >= 2
            raise ValueError(f"{p} is not prime")
        transform, coeffs = data["transform"], data["witness_coeffs"]
        if not (isinstance(transform, list) and isinstance(coeffs, list)):
            raise TypeError("transform and witness_coeffs must be lists of strings")
        entries = [read_rational(x) for x in transform]
        if len(entries) != 4:
            raise TypeError(f"transform must have 4 entries, got {len(entries)}")
        lam, g = _integer_form(entries)
        if g[0] * g[3] == g[1] * g[2]:
            raise ValueError("matrix is singular")
        if not coeffs:
            raise ValueError("coefficient vector must have at least one entry")
        Dw, omega = _integer_form([read_rational(x) for x in coeffs])
        report = data["report"]
        if not isinstance(report, dict):
            raise TypeError("report must be a JSON object")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    if alpha[-1] == 0:
        return False, "input's actual degree is below its formal degree"
    if not _acts_to(D, alpha, g, lam, Dw, omega):
        return False, "witness does not equal act(input, transform)"
    keys = ("d0", "d1", "d2", "gcd_value", "failing_index")
    stored = tuple(report.get(key) for key in keys)
    fresh = _ed_report(omega, p)
    # by type as well as by value: a JSON 1 or 1.0 is not true, nor true 1
    if stored != fresh or any(type(s) is not type(f) for s, f in zip(stored, fresh)):
        return False, f"stored report {_clip(str(stored))} disagrees with recomputed {fresh}"
    if not all(fresh[:3]):
        return False, "witness is not an Eisenstein-Dumas polynomial at the stated prime"
    # At n = 1, D1 is gcd(., 1) = 1 at every p, so it does not bound p.
    if formal_degree < 2:
        return False, "certification requires degree >= 2"
    # Last, as the one costly test: for n >= 2, D1 at p means p | omega_0 omega_n.
    if not _is_prime(p):
        return False, f"malformed certificate: {_clip(str(p))} is not prime"
    return True, f"witness is Eisenstein-Dumas at p = {p}"
