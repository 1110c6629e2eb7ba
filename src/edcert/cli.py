"""Command-line front end: parsing, printing, JSON certificates, SVG plots.

One grammar covers --poly, --matrix and the certificate text that `verify`
re-reads.  Digits are ASCII 0-9; whitespace may appear between any two
tokens, except after the sign of a rational:

    poly     := [sign] term (sign term)*
    term     := coeff ['*'] [x ['^' int]]  |  x ['^' int]
    coeff    := int | int '/' int
    rational := [sign] coeff
    sign     := '+' | '-'

int/int is the only fractional form: decimals and exponents are rejected.

Exit codes across all subcommands: 0 for success/true, 1 for
inconclusive/false, 2 for usage, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .certify import (
    Certificate,
    SearchConfig,
    STAGE_NAMES,
    Verdict,
    certify_search,
)
from .moebius import Mat2, act
from .newton_ed import dumas_concat_holds, is_ed, is_ed_strict, newton_polygon
from .poly import FormalPoly
from .valuation import PAdic


#: Largest exponent and formal degree accepted from outside; every degree the
#: tests and the benchmark use is at most 24, and the work of the action and
#: the search grows at least quadratically in the degree.
MAX_DEGREE = 1000


class PolyParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


#: A rational: [sign]int or [sign]int/int, the sign against the first digit.
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:\s*/\s*([0-9]+))?\s*")

#: One polynomial term and the whitespace after it.  The denominator and the
#: exponent may match empty, so that parse_poly can say where one is missing.
_TERM = re.compile(
    r"(?P<sign>[+-])?\s*(?:(?P<num>[0-9]+)\s*(?:/\s*(?P<den>[0-9]*)\s*)?(?:\*\s*)?)?"
    r"(?:(?P<x>[xX])\s*(?:\^\s*(?P<exp>[0-9]*))?)?\s*"
)


def parse_rational(text: str) -> Fraction:
    """[sign]int or [sign]int/int in ASCII digits; a non-string raises TypeError."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"invalid rational {text!r}: expected an integer or 'int/int'")
    num, den = int(m[1]), int(m[2] or 1)
    if den == 0:
        raise ValueError(f"invalid rational {text!r}: zero denominator")
    return Fraction(num, den)


def _integer(m: re.Match, group: str) -> int | None:
    """The integer in a term's group, None if absent; an empty group is an error."""
    digits = m[group]
    if digits == "":
        raise PolyParseError("expected an integer", m.start(group))
    return None if digits is None else int(digits)


def parse_poly(text: str, formal_degree: int | None = None) -> FormalPoly:
    """Parse the polynomial grammar; like terms are combined.

    The formal degree is the largest exponent carrying a nonzero coefficient
    unless overridden upward; an override below the actual degree is an error,
    and so is an exponent or override above MAX_DEGREE.  Errors carry their
    position, and the first in the text is the one reported.
    """
    if formal_degree is not None and formal_degree > MAX_DEGREE:
        raise ValueError(f"formal degree {formal_degree} exceeds the limit {MAX_DEGREE}")
    pos = len(text) - len(text.lstrip())
    if pos == len(text):
        raise PolyParseError("empty polynomial", pos)
    terms: dict[int, Fraction] = {}
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m["sign"] is None and terms:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        if m["num"] is None and m["x"] is None:
            raise PolyParseError("expected a coefficient or 'x'", m.end())
        num, den = int(m["num"] or 1), _integer(m, "den")
        if den == 0:
            raise PolyParseError("zero denominator", m.start("den"))
        exp = _integer(m, "exp")
        if exp is None:
            exp = 1 if m["x"] else 0
        elif exp > MAX_DEGREE:
            raise PolyParseError(f"exponent {exp} exceeds the limit {MAX_DEGREE}", m.start("exp"))
        sign = -1 if m["sign"] == "-" else 1
        terms[exp] = terms.get(exp, 0) + Fraction(sign * num, den or 1)
        pos = m.end()
    actual = max((e for e, c in terms.items() if c != 0), default=0)
    if formal_degree is not None and formal_degree < actual:
        raise ValueError(
            f"formal degree override {formal_degree} is below the actual degree {actual}"
        )
    n = actual if formal_degree is None else formal_degree
    return FormalPoly(tuple(terms.get(k, Fraction(0)) for k in range(n + 1)))


def format_poly(A: FormalPoly) -> str:
    """Grammar-compatible rendering, highest exponent first."""
    parts: list[str] = []
    for e in range(A.formal_degree, -1, -1):
        c = A.coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            body = "x" if mag == 1 else f"{mag}x"
            if e > 1:
                body += f"^{e}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts) if parts else "0"


def format_matrix(g: Mat2) -> str:
    a, b, c, d = g.entries()
    return f"[{a}, {b}; {c}, {d}]"


def parse_matrix(text: str) -> Mat2:
    """Parse 'a,b;c,d' with rational entries into a nonsingular matrix."""
    rows = [row.split(",") for row in text.split(";")]
    if [len(row) for row in rows] != [2, 2]:
        raise ValueError(f"matrix must be 'a,b;c,d', got {text!r}")
    return Mat2(*(parse_rational(entry) for row in rows for entry in row))


# -- JSON certificates --------------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    """Exact-string JSON form; all rationals are serialized as 'num/den' strings."""
    if cert.verdict is Verdict.IRREDUCIBLE:
        transform = [str(x) for x in cert.transform.entries()]
        witness = [str(c) for c in cert.witness.coeffs]
        report = {
            "d0": cert.report.d0,
            "d1": cert.report.d1,
            "d2": cert.report.d2,
            "gcd_value": cert.report.d1_gcd,
            "failing_index": cert.report.d2_failing_index,
        }
        prime = str(cert.prime)
    else:
        transform = witness = report = prime = None
    audit = [
        {"prime": str(e.prime), "stage": e.stage, "reason": e.reason} for e in cert.audit
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


def validate_certificate_json(data: object) -> tuple[bool, str]:
    """Re-derive everything an irreducibility certificate claims.

    Re-parses the input, recomputes act(input, transform), compares it to the
    serialized witness, and re-runs the Eisenstein-Dumas report, comparing
    bit for bit.  Inconclusive certificates only get a shape check.  Total:
    any malformed JSON value gives (False, reason), never an exception.
    """
    if not isinstance(data, dict):
        return False, "malformed certificate: not a JSON object"
    try:
        formal_degree = data["formal_degree"]
        if not isinstance(formal_degree, int) or isinstance(formal_degree, bool):
            raise TypeError(f"formal_degree must be an integer, got {formal_degree!r}")
        A = parse_poly(data["input"], formal_degree)
        verdict = data["verdict"]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    if verdict == "inconclusive":
        for key in ("prime", "transform", "witness_coeffs", "report"):
            if data.get(key) is not None:
                return False, f"inconclusive certificate must have null {key}"
        return True, "inconclusive certificate is well-formed (no claim to check)"
    if verdict != "irreducible":
        return False, f"unknown verdict {verdict!r}"
    try:
        prime = data["prime"]
        if not (isinstance(prime, str) and prime.isascii() and prime.isdigit()):
            raise ValueError(f"prime must be a string of decimal digits, got {prime!r}")
        vp = PAdic(int(prime))
        transform, coeffs = data["transform"], data["witness_coeffs"]
        if not (isinstance(transform, list) and isinstance(coeffs, list)):
            raise TypeError("transform and witness_coeffs must be lists of strings")
        g = Mat2(*map(parse_rational, transform))
        witness = FormalPoly(tuple(map(parse_rational, coeffs)))
        report = data["report"]
        if not isinstance(report, dict):
            raise TypeError("report must be a JSON object")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    if A.actual_degree != A.formal_degree:
        return False, "input's actual degree is below its formal degree"
    recomputed = act(A, g)
    if recomputed != witness:
        return False, "witness does not equal act(input, transform)"
    rep = is_ed(witness, vp)
    stored = (
        report.get("d0"),
        report.get("d1"),
        report.get("d2"),
        report.get("gcd_value"),
        report.get("failing_index"),
    )
    fresh = (rep.d0, rep.d1, rep.d2, rep.d1_gcd, rep.d2_failing_index)
    if stored != fresh:
        return False, f"stored report {stored} disagrees with recomputed {fresh}"
    if not rep.verdict:
        return False, "witness is not an Eisenstein-Dumas polynomial at the stated prime"
    return True, f"witness is Eisenstein-Dumas at p = {vp.p}"


# -- SVG Newton polygon plots -------------------------------------------------

_SVG_W, _SVG_H, _SVG_MARGIN = 640, 480, 60


def newton_polygon_svg(A: FormalPoly, v: PAdic) -> str:
    """Deterministic standalone SVG: support points as circles, hull as a polyline."""
    polygon = newton_polygon(A, v)
    points = [(i, v.val(A.coeffs[i])) for i in A.support()]
    xs = [i for i, _ in points]
    ys = [w for _, w in points]
    x_lo, x_hi = 0, max(max(xs), 1)
    y_lo, y_hi = min(ys), max(ys)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1, y_hi + 1
    span_x = x_hi - x_lo
    span_y = y_hi - y_lo
    inner_w = _SVG_W - 2 * _SVG_MARGIN
    inner_h = _SVG_H - 2 * _SVG_MARGIN

    def px(i: int) -> str:
        return f"{_SVG_MARGIN + inner_w * (i - x_lo) / span_x:.2f}"

    def py(w: int) -> str:
        return f"{_SVG_H - _SVG_MARGIN - inner_h * (w - y_lo) / span_y:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_H - _SVG_MARGIN}" x2="{_SVG_W - _SVG_MARGIN}" '
        f'y2="{_SVG_H - _SVG_MARGIN}" stroke="black"/>',
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_MARGIN}" x2="{_SVG_MARGIN}" '
        f'y2="{_SVG_H - _SVG_MARGIN}" stroke="black"/>',
        f'<text x="{_SVG_W - _SVG_MARGIN + 14}" y="{_SVG_H - _SVG_MARGIN + 4}" '
        f'font-size="14">i</text>',
        f'<text x="{_SVG_MARGIN - 10}" y="{_SVG_MARGIN - 14}" font-size="14">v(a_i)</text>',
    ]
    for i in range(x_lo, x_hi + 1):
        lines.append(
            f'<text x="{px(i)}" y="{_SVG_H - _SVG_MARGIN + 18}" font-size="11" '
            f'text-anchor="middle">{i}</text>'
        )
    if span_y <= 24:
        for w in range(y_lo, y_hi + 1):
            lines.append(
                f'<text x="{_SVG_MARGIN - 8}" y="{py(w)}" font-size="11" '
                f'text-anchor="end">{w}</text>'
            )
    hull = " ".join(f"{px(i)},{py(w)}" for i, w in polygon.vertices)
    lines.append(f'<polyline points="{hull}" fill="none" stroke="steelblue" stroke-width="2"/>')
    for i, w in points:
        lines.append(f'<circle cx="{px(i)}" cy="{py(w)}" r="4" fill="crimson"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# -- subcommands ----------------------------------------------------------------


def _report_lines(report) -> list[str]:
    out = [f"D0: {'pass' if report.d0 else 'FAIL'}"]
    if report.d1_gcd is None:
        out.append(f"D1: {'pass' if report.d1 else 'FAIL'}")
    else:
        out.append(f"D1: {'pass' if report.d1 else 'FAIL'} (gcd = {report.d1_gcd})")
    if report.d2_failing_index is None:
        out.append(f"D2: {'pass' if report.d2 else 'FAIL'}")
    else:
        out.append(f"D2: FAIL at index {report.d2_failing_index}")
    return out


def _cmd_ed_check(args) -> int:
    A = parse_poly(args.poly, args.formal_degree)
    v = PAdic(args.prime)
    report = (is_ed_strict if args.strict else is_ed)(A, v)
    print(f"polynomial: {format_poly(A)} (formal degree {A.formal_degree})")
    print(f"prime: {v.p}")
    for line in _report_lines(report):
        print(line)
    print(f"verdict: {'Eisenstein-Dumas' if report.verdict else 'not Eisenstein-Dumas'} at v_{v.p}")
    return 0 if report.verdict else 1


def _cmd_newton(args) -> int:
    A = parse_poly(args.poly, args.formal_degree)
    v = PAdic(args.prime)
    polygon = newton_polygon(A, v)
    print(f"polynomial: {format_poly(A)} (formal degree {A.formal_degree})")
    print(f"prime: {v.p}")
    print("vertices: " + ", ".join(f"({i}, {w})" for i, w in polygon.vertices))
    if polygon.segments:
        print(
            "segments: "
            + "; ".join(f"slope {s.slope}, length {s.length}" for s in polygon.segments)
        )
    else:
        print("segments: none (single support point)")
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(newton_polygon_svg(A, v))
        print(f"svg written to {args.svg}")
    return 0


def _cmd_act(args) -> int:
    A = parse_poly(args.poly, args.formal_degree)
    g = parse_matrix(args.matrix)
    B = act(A, g)
    print(f"{format_poly(B)} (formal degree {B.formal_degree})")
    return 0


def _cmd_certify(args) -> int:
    A = parse_poly(args.poly, args.formal_degree)
    budget = os.environ.get("EDCERT_RHO_BUDGET")
    config = SearchConfig(rho_budget=int(budget)) if budget else SearchConfig()
    cert = certify_search(A, config)
    if cert.irreducible:
        print("verdict: irreducible")
        print(f"prime: {cert.prime}")
        print(f"stage: {cert.stage} ({STAGE_NAMES[cert.stage]})")
        print(f"transform: {format_matrix(cert.transform)}")
        print(f"witness: {format_poly(cert.witness)} (formal degree {cert.witness.formal_degree})")
        for line in _report_lines(cert.report):
            print(line)
    else:
        suffix = "" if cert.candidate_primes_complete else " (candidate prime set possibly incomplete)"
        print(f"verdict: inconclusive{suffix}")
        for entry in cert.audit:
            stage = f"stage {entry.stage}" if entry.stage else "note"
            print(f"  p={entry.prime} {stage}: {entry.reason}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(certificate_to_json(cert), fh, indent=2)
            fh.write("\n")
        print(f"certificate written to {args.json}")
    return 0 if cert.irreducible else 1


def _cmd_dumas(args) -> int:
    A = parse_poly(args.polyA)
    B = parse_poly(args.polyB)
    v = PAdic(args.prime)
    ok = dumas_concat_holds(A, B, v)

    def fmt(P):
        return " ".join(
            f"{slope}:{length}"
            for slope, length in sorted(newton_polygon(P, v).slope_lengths().items())
        )

    print(f"A: {format_poly(A)}  slopes {{{fmt(A)}}}")
    print(f"B: {format_poly(B)}  slopes {{{fmt(B)}}}")
    print(f"A*B slopes {{{fmt(A.mul(B))}}}")
    print(f"concatenation {'holds' if ok else 'FAILS'}")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    with open(args.json) as fh:
        data = json.load(fh)
    ok, reason = validate_certificate_json(data)
    print(f"{'valid' if ok else 'INVALID'}: {reason}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edcert",
        description="Certify irreducibility of rational polynomials by finding "
        "an Eisenstein-Dumas witness in the Möbius orbit.",
    )
    sub = ap.add_subparsers(
        dest="command",
        metavar="{ed-check,newton,act,certify,dumas,verify}",
    )

    def poly_arg(p, name="--poly", help="polynomial, e.g. 'x^4 - 14x^2 + 9'"):
        p.add_argument(name, required=True, help=help)
        p.add_argument(
            "--formal-degree",
            type=int,
            default=None,
            help="treat the polynomial as a form of this degree (upward override)",
        )

    p = sub.add_parser("ed-check", help="test the Eisenstein-Dumas conditions at one prime")
    poly_arg(p)
    p.add_argument("--prime", required=True, type=int)
    p.add_argument("--strict", action="store_true", help="use the strict interior bound")
    p.set_defaults(fn=_cmd_ed_check)

    p = sub.add_parser("newton", help="print (and optionally plot) the Newton polygon")
    poly_arg(p)
    p.add_argument("--prime", required=True, type=int)
    p.add_argument("--svg", metavar="FILE", help="write an SVG plot to FILE")
    p.set_defaults(fn=_cmd_newton)

    p = sub.add_parser("act", help="apply a 2x2 matrix to a polynomial")
    poly_arg(p)
    p.add_argument("--matrix", required=True, help="entries 'a,b;c,d' (rationals)")
    p.set_defaults(fn=_cmd_act)

    p = sub.add_parser("certify", help="search for an irreducibility certificate")
    poly_arg(p)
    p.add_argument("--json", metavar="FILE", help="write the certificate as JSON to FILE")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("dumas", help="check polygon concatenation for a product")
    p.add_argument("--polyA", required=True)
    p.add_argument("--polyB", required=True)
    p.add_argument("--prime", required=True, type=int)
    p.set_defaults(fn=_cmd_dumas)

    p = sub.add_parser("verify", help="re-validate a JSON certificate")
    p.add_argument("--json", required=True, metavar="FILE")
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "fn", None):
        ap.print_help()
        return 2
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
