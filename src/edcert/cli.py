"""Command-line front end: argument parsing, printing and SVG plots.

The subcommands only read arguments, call the library and print.  The text
grammar of --poly, --matrix and the certificate rationals, the certificate
JSON format, its reader and its checker live in edcert.certificate, and the
grammar's names (PolyParseError, MAX_DEGREE, MAX_DIGITS) are imported from
there; parse_poly wraps its polynomial reader in a FormalPoly, parse_matrix
reads each --matrix entry with its rational reader, and verify reads at most
MAX_CERTIFICATE_CHARS + 1 characters of its file, for read_certificate to
refuse the longer ones.
The integer flags --prime and --formal-degree take a sign and ASCII digits
only, at most MAX_DIGITS of them, and an error echoes a long value clipped.
ed-check tests (D0)-(D2) with the paper's non-strict bound in (D2).

The optional EDCERT_RHO_BUDGET environment variable caps the factoring
effort of certify: a positive integer of at most MAX_DIGITS ASCII digits.

Exit codes across all subcommands: 0 for success/true, 1 for
inconclusive/false, 2 for usage, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .certificate import (
    MAX_CERTIFICATE_CHARS,
    MAX_DIGITS,
    _RATIONAL,
    _clip,
    certificate_to_json,
    format_poly,
    read_certificate,
    read_poly,
    read_rational,
    validate_certificate_json,
)
from .certify import SearchConfig, STAGE_NAMES, certify_search
from .moebius import Mat2, act
from .newton_ed import dumas_concat_holds, is_ed, newton_polygon
from .poly import FormalPoly
from .valuation import PAdic


def parse_poly(text: str, formal_degree: int | None = None) -> FormalPoly:
    """certificate.read_poly(text, formal_degree) as a FormalPoly; see there
    for the formal degree and the errors."""
    return FormalPoly(*read_poly(text, formal_degree))


def _int_arg(text: str) -> int:
    """An integer flag (--prime, --formal-degree) as the grammar reads one:
    [sign] and ASCII digits, whitespace around; more than MAX_DIGITS digits
    are refused with a message of ours, and anything else is echoed clipped."""
    if (size := len(text.strip().lstrip("+-"))) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"integer of {size} digits exceeds the limit {MAX_DIGITS}")
    if (m := _RATIONAL.fullmatch(text)) is None or m[2] is not None:
        raise argparse.ArgumentTypeError(f"invalid integer {_clip(repr(text))}")
    return int(m[1])


def format_matrix(g: Mat2) -> str:
    a, b, c, d = g.entries()
    return f"[{a}, {b}; {c}, {d}]"


def parse_matrix(text: str) -> Mat2:
    """Parse 'a,b;c,d' into a nonsingular matrix; each entry is [sign]int or
    [sign]int/int in ASCII digits (certificate.read_rational)."""
    rows = [row.split(",") for row in text.split(";")]
    if [len(row) for row in rows] != [2, 2]:
        raise ValueError(f"matrix must be 'a,b;c,d', got {text!r}")
    return Mat2(*(Fraction(*read_rational(entry)) for row in rows for entry in row))


# -- SVG Newton polygon plots -------------------------------------------------

_SVG_W, _SVG_H, _SVG_MARGIN = 640, 480, 60


def newton_polygon_svg(A: FormalPoly, v: PAdic) -> str:
    """Deterministic standalone SVG: support points as circles, hull as a polyline."""
    polygon = newton_polygon(A, v)
    vden = v.val(A.den)
    points = [(i, v.val(x) - vden) for i, x in enumerate(A.nums) if x]
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
    report = is_ed(A, v)
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
    segments = "; ".join(f"slope {s.slope}, length {s.length}" for s in polygon.segments)
    lines = [
        f"polynomial: {format_poly(A)} (formal degree {A.formal_degree})",
        f"prime: {v.p}",
        "vertices: " + ", ".join(f"({i}, {w})" for i, w in polygon.vertices),
        f"segments: {segments or 'none (single support point)'}",
    ]
    if args.svg:  # written before any line is printed: newton prints all of its text or none
        with open(args.svg, "w") as fh:
            fh.write(newton_polygon_svg(A, v))
        lines.append(f"svg written to {args.svg}")
    print("\n".join(lines))
    return 0


def _act_digits(A: FormalPoly, g: Mat2) -> int:
    """An upper bound on the digits of each numerator and denominator of
    act(A, g), in O(n): poly._substitute gives N / (A.den g.den^n) with
    |N| <= (n+1) max|A.nums| M^n, M the larger row sum of |g.den g|."""
    M, n = max(abs(g.a) + abs(g.b), abs(g.c) + abs(g.d), g.den), A.formal_degree
    bits = (n + 1).bit_length() + max(A.den, *map(abs, A.nums)).bit_length() + n * M.bit_length()
    return bits * 30103 // 100000 + 1  # 0.30103 > log10(2)


def _cmd_act(args) -> int:
    A = parse_poly(args.poly, args.formal_degree)
    g = parse_matrix(args.matrix)
    if (digits := _act_digits(A, g)) > MAX_DIGITS:
        raise ValueError(
            f"input too large: a result coefficient may have {digits} digits, over {MAX_DIGITS}"
        )
    B = act(A, g)
    print(f"{format_poly(B)} (formal degree {B.formal_degree})")
    return 0


def _cmd_certify(args) -> int:
    A = parse_poly(args.poly, args.formal_degree)
    budget = os.environ.get("EDCERT_RHO_BUDGET")
    if budget and not (budget.isascii() and budget.isdigit()
                       and len(budget) <= MAX_DIGITS and int(budget)):
        raise ValueError(f"EDCERT_RHO_BUDGET must be a positive integer of at most {MAX_DIGITS} "
                         f"ASCII digits, got {_clip(repr(budget))}")
    config = SearchConfig(rho_budget=int(budget)) if budget else SearchConfig()
    cert = certify_search(A, config)
    # certificate_to_json refuses every integer it would write past
    # MAX_DIGITS digits, and these cover each integer the lines print; the
    # lines are printed last, so certify prints all of its text or none.
    data = certificate_to_json(cert)
    if cert.irreducible:
        lines = [
            "verdict: irreducible",
            f"prime: {cert.prime}",
            f"stage: {cert.stage} ({STAGE_NAMES[cert.stage]})",
            f"transform: {format_matrix(cert.transform)}",
            f"witness: {format_poly(cert.witness)} (formal degree {cert.witness.formal_degree})",
            *_report_lines(cert.report),
        ]
    else:
        suffix = "" if cert.candidate_primes_complete else " (candidate prime set possibly incomplete)"
        lines = [f"verdict: inconclusive{suffix}"]
        for entry in cert.audit:
            stage = f"stage {entry.stage}" if entry.stage else "note"
            lines.append(f"  p={entry.prime} {stage}: {entry.reason}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(json.dumps(data, indent=2) + "\n")
        lines.append(f"certificate written to {args.json}")
    print("\n".join(lines))
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
        text = fh.read(MAX_CERTIFICATE_CHARS + 1)
    ok, reason = validate_certificate_json(read_certificate(text))
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
            type=_int_arg,
            default=None,
            help="treat the polynomial as a form of this degree (upward override)",
        )

    p = sub.add_parser("ed-check", help="test the Eisenstein-Dumas conditions at one prime")
    poly_arg(p)
    p.add_argument("--prime", required=True, type=_int_arg)
    p.set_defaults(fn=_cmd_ed_check)

    p = sub.add_parser("newton", help="print (and optionally plot) the Newton polygon")
    poly_arg(p)
    p.add_argument("--prime", required=True, type=_int_arg)
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
    p.add_argument("--prime", required=True, type=_int_arg)
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
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
