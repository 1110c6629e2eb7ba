"""Command-line front end: parsing, printing, JSON certificates, SVG plots.

Polynomial grammar (whitespace insignificant):

    poly  := [sign] term (sign term)*
    term  := coeff ['*'] [x ['^' exp]]  |  x ['^' exp]
    coeff := int | int '/' int
    sign  := '+' | '-'

Exit codes across all subcommands: 0 for success/true, 1 for
inconclusive/false, 2 for usage, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .oracle import brute_irreducible
from .poly import FormalPoly
from .valuation import PAdic


class PolyParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_rational(text: str) -> Fraction:
    """An integer or 'int/int', optionally signed."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}: {exc}") from None


def parse_poly(text: str, formal_degree: int | None = None) -> FormalPoly:
    """Parse the polynomial grammar; like terms are combined.

    The formal degree is the largest exponent carrying a nonzero coefficient
    unless overridden upward; an override below the actual degree is an error.
    """
    s = text
    i = 0

    def skip_ws():
        nonlocal i
        while i < len(s) and s[i].isspace():
            i += 1

    def fail(message: str):
        raise PolyParseError(message, i)

    def read_int() -> int:
        nonlocal i
        start = i
        while i < len(s) and s[i].isdigit():
            i += 1
        if i == start:
            fail("expected an integer")
        return int(s[start:i])

    terms: dict[int, Fraction] = {}
    skip_ws()
    if i >= len(s):
        fail("empty polynomial")
    first = True
    while True:
        skip_ws()
        if i >= len(s):
            break
        sign = 1
        if s[i] == "+":
            i += 1
            skip_ws()
        elif s[i] == "-":
            sign = -1
            i += 1
            skip_ws()
        elif not first:
            fail("expected '+' or '-' between terms")
        coeff = None
        if i < len(s) and s[i].isdigit():
            num = read_int()
            skip_ws()
            if i < len(s) and s[i] == "/":
                i += 1
                skip_ws()
                den_at = i
                den = read_int()
                if den == 0:
                    i = den_at
                    fail("zero denominator")
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            skip_ws()
            if i < len(s) and s[i] == "*":
                i += 1
                skip_ws()
        exp = None
        if i < len(s) and s[i] in "xX":
            i += 1
            skip_ws()
            if i < len(s) and s[i] == "^":
                i += 1
                skip_ws()
                exp = read_int()
            else:
                exp = 1
        if coeff is None and exp is None:
            fail("expected a coefficient or 'x'")
        exp = exp or 0
        coeff = Fraction(1) if coeff is None else coeff
        terms[exp] = terms.get(exp, Fraction(0)) + sign * coeff
        first = False

    actual = max((e for e, c in terms.items() if c != 0), default=0)
    n = actual
    if formal_degree is not None:
        if formal_degree < actual:
            raise ValueError(
                f"formal degree override {formal_degree} is below the actual degree {actual}"
            )
        n = formal_degree
    return FormalPoly(tuple(terms.get(k, Fraction(0)) for k in range(n + 1)))


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_poly(A: FormalPoly) -> str:
    """Grammar-compatible rendering, highest exponent first."""
    parts: list[str] = []
    for e in range(A.formal_degree, -1, -1):
        c = A.coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = format_rational(mag)
        else:
            body = "x" if mag == 1 else f"{format_rational(mag)}x"
            if e > 1:
                body += f"^{e}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts) if parts else "0"


def format_matrix(g: Mat2) -> str:
    a, b, c, d = (format_rational(x) for x in g.entries())
    return f"[{a}, {b}; {c}, {d}]"


def parse_matrix(text: str) -> Mat2:
    """Parse 'a,b;c,d' with rational entries into a nonsingular matrix."""
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError("matrix must have two ';'-separated rows")
    entries = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise ValueError("each matrix row must have two ','-separated entries")
        entries.extend(parse_rational(c) for c in cells)
    return Mat2(*entries)


# -- JSON certificates --------------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    """Exact-string JSON form; all rationals are serialized as 'num/den' strings."""
    if cert.verdict is Verdict.IRREDUCIBLE:
        transform = [format_rational(x) for x in cert.transform.entries()]
        witness = [format_rational(c) for c in cert.witness.coeffs]
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
        A = parse_poly(data["input"], data["formal_degree"])
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
        prime = int(data["prime"])
        vp = PAdic(prime)
        g = Mat2(*(parse_rational(x) for x in data["transform"]))
        witness = FormalPoly(tuple(parse_rational(c) for c in data["witness_coeffs"]))
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
    return True, f"witness is Eisenstein-Dumas at p = {prime}"


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
    extra = tuple(int(p) for p in args.primes.split(",")) if args.primes else ()
    kwargs = {"t_height": args.t_height, "extra_primes": extra}
    budget = os.environ.get("EDCERT_RHO_BUDGET")
    if budget:
        kwargs["rho_budget"] = int(budget)
    cert = certify_search(A, SearchConfig(**kwargs))
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


def _cmd_oracle(args) -> int:
    A = parse_poly(args.poly, args.formal_degree)
    verdict = brute_irreducible(A)
    if verdict.irreducible:
        print(f"{format_poly(A)}: irreducible (exhaustive search, degree <= 6)")
        return 0
    g, h = verdict.witness
    print(f"{format_poly(A)}: reducible = ({format_poly(g)}) * ({format_poly(h)})")
    return 1


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
    p.add_argument("--t-height", type=int, default=8, help="height bound of the t grid (default 8)")
    p.add_argument("--primes", help="extra candidate primes, comma-separated")
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

    # Undocumented desk-check hook for the brute-force oracle.
    p = sub.add_parser("oracle")
    poly_arg(p)
    p.set_defaults(fn=_cmd_oracle)

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
