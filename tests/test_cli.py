import json
import random
import re
import time
from fractions import Fraction

import pytest

import edcert.certificate
import edcert.cli
from edcert import Certificate, Factorization, FormalPoly, Mat2, Verdict, act, is_ed
from edcert.certificate import MAX_DEGREE, MAX_DIGITS, PolyParseError, _clip, _decimal
from edcert.cli import (
    certificate_to_json,
    format_matrix,
    format_poly,
    main,
    newton_polygon_svg,
    parse_matrix,
    parse_poly,
    validate_certificate_json,
)
from edcert.cli import _act_digits
from edcert.certify import certify_search
from edcert.valuation import PAdic
from helpers import mat, parse_rational, poly, reference_parse_poly, reference_parse_rational


# -- parser --------------------------------------------------------------------


def test_parse_examples():
    assert parse_poly("x^4 - 14x^2 + 9") == poly(9, 0, -14, 0, 1)
    assert parse_poly("1/2x^2 + 8") == poly(8, 0, Fraction(1, 2))
    assert parse_poly("0", formal_degree=3) == poly(0, n=3)


def test_parse_variants():
    assert parse_poly("x") == poly(0, 1)
    assert parse_poly("-x") == poly(0, -1)
    assert parse_poly("2*x^3") == poly(0, 0, 0, 2)
    assert parse_poly("  x ^ 2+ 4 x + 8 ") == poly(8, 4, 1)
    assert parse_poly("3/4") == poly(Fraction(3, 4))
    assert parse_poly("x + x + 1 - 1") == poly(0, 2)
    assert parse_poly("x^2 - x^2") == poly(0)
    assert parse_poly("5x^0") == poly(5)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x^2 + + 3")
    assert err.value.position == 6
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("x^")
    with pytest.raises(PolyParseError):
        parse_poly("1/0x")
    with pytest.raises(PolyParseError):
        parse_poly("x 3")
    with pytest.raises(PolyParseError):
        parse_poly("x^-2")


def test_parse_errors_follow_text_order():
    # The zero denominator at 3 comes before the empty exponent at 7.
    with pytest.raises(PolyParseError) as err:
        parse_poly("3 /0X ^")
    assert err.value.position == 3 and "zero denominator" in str(err.value)


def test_digits_are_ascii():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x^\u00b2")  # superscript two
    assert err.value.position == 2
    with pytest.raises(PolyParseError) as err:
        parse_poly("x + \u0663")  # Arabic-Indic three
    assert err.value.position == 4


@pytest.mark.parametrize("text", ["1e3", "1.5", "1_000", "\u0663", "- 1", "1/0", "", "/2"])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError, match="invalid rational"):
        parse_rational(text)


def test_parse_rational_forms():
    assert parse_rational("1 / 2") == Fraction(1, 2)
    assert parse_rational(" -6/4\n") == Fraction(-3, 2)
    assert parse_rational("+7") == 7


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError as exc:  # PolyParseError included
        return type(exc), str(exc), getattr(exc, "position", None)


def test_parsers_match_the_frozen_reference():
    # The regular grammar against the character scanner and Fraction(str) it
    # replaced, on 200k strings of ASCII text: the same FormalPoly, or the
    # same exception type, message and position.  Fraction(str) allows no
    # whitespace next to '/', so parse_rational is compared only where there
    # is none, and only on acceptance and value.  Degree-1000 results cost a
    # millisecond each, so x^1000 and the override 1000 are drawn rarely.
    rng = random.Random(8)
    tokens = list("xX^+-*/0123456789 \t\n") + ["1001", "x^1000", "x^1001"]
    weights = [4, 1, 4, 4, 4, 2, 2] + [2] * 10 + [3, 1, 1, 1, 0.02, 1]
    degrees = rng.choices([None, 0, 3, 1000, 1001, -1], [50, 15, 15, 0.2, 5, 5], k=200_000)
    lengths = rng.choices(range(10), k=200_000)
    flat = rng.choices(tokens, weights, k=sum(lengths))
    messages, rationals, at_limit, i = set(), 0, 0, 0
    for n, k in zip(degrees, lengths):
        text, i = "".join(flat[i : i + k]), i + k
        got = _outcome(parse_poly, text, n)
        assert got == _outcome(reference_parse_poly, text, n), (text, n)
        if isinstance(got, tuple):
            messages.add(got[1])
        else:
            at_limit += got.formal_degree == MAX_DEGREE
        if not re.search(r"\s/|/\s", text):
            rationals += 1
            got, want = _outcome(parse_rational, text), _outcome(reference_parse_rational, text)
            assert got == want or (isinstance(got, tuple) and isinstance(want, tuple)), text
    # every error of the grammar, and the largest degree, were reached
    kinds = {re.sub(r"-?\d+", "N", m.split(" (at")[0]) for m in messages}
    assert len(kinds) == 8 and at_limit > 20 and rationals > 100_000, (kinds, at_limit)


def _kind(outcome):
    """An outcome of _outcome with every integer in its message, clipped or
    not, read as N: the reference echoes a long exponent whole."""
    if not isinstance(outcome, tuple):
        return outcome
    kind, message, position = outcome
    return kind, re.sub(r"[0-9]+(\.\.\. \([0-9]+ characters\))?", "N", message), position


@pytest.mark.parametrize("size", [MAX_DIGITS, MAX_DIGITS + 1])
def test_readers_on_both_sides_of_the_digit_check(size):
    # The readers check the length of each digit run only in a text longer
    # than MAX_DIGITS.  Every text here has exactly `size` characters, and
    # each reads as the frozen reference reads it, error and position
    # included.
    sevens = lambda k: "7" * (size - k)  # noqa: E731
    texts = [
        f"{sevens(3)}x+1",  # long numerator
        f"1/{sevens(2)}",  # long denominator
        f"x^{sevens(2)}",  # long exponent, over MAX_DEGREE
        f"{sevens(6)}x^1001",  # exponent over MAX_DEGREE
        f"{sevens(2)}/x",  # empty denominator
        f"{sevens(2)}x^",  # empty exponent
        f"{sevens(2)}/0",  # zero denominator
        f"1/{'0' * (size - 2)}",  # long zero denominator
        f"x-{sevens(5)}/3x",  # long numerator after a term
    ]
    for text in texts:
        assert len(text) == size
        got = _outcome(parse_poly, text)
        assert _kind(got) == _kind(_outcome(reference_parse_poly, text)), text[:30]
        assert isinstance(got, FormalPoly) or got[0] is PolyParseError, got
    rationals = [sevens(0), f"-{sevens(1)}", f"{sevens(2)}/3", f"1/{sevens(2)}", f"{sevens(2)}/0"]
    for text in rationals + [f"{sevens(1)}/"]:
        assert len(text) == size
        got, want = _outcome(parse_rational, text), _outcome(reference_parse_rational, text)
        if size == MAX_DIGITS or text != sevens(0):
            both_refuse = isinstance(got, tuple) and isinstance(want, tuple) and got[0] is want[0]
            assert got == want or both_refuse, text[:30]
    if size > MAX_DIGITS:
        # one run of MAX_DIGITS + 1 digits: the reference stops at int()'s
        # own limit at the same place
        message = f"integer of {size} digits exceeds the limit {MAX_DIGITS} (at position 0)"
        for parse in (parse_poly, parse_rational):
            assert _outcome(parse, sevens(0)) == (PolyParseError, message, 0)
        with pytest.raises(ValueError, match=f"{size} digits"):
            reference_parse_poly(sevens(0))


def test_formal_degree_override():
    A = parse_poly("x^2 + 1", formal_degree=5)
    assert A.formal_degree == 5 and A.actual_degree == 2
    with pytest.raises(ValueError):
        parse_poly("x^2 + 1", formal_degree=1)


def test_degree_limit():
    assert parse_poly(f"x^{MAX_DEGREE}").formal_degree == MAX_DEGREE
    assert parse_poly("x", formal_degree=MAX_DEGREE).formal_degree == MAX_DEGREE
    with pytest.raises(PolyParseError) as err:
        parse_poly(f"1 + x^{MAX_DEGREE + 1}")
    assert err.value.position == 6
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_poly("x", formal_degree=MAX_DEGREE + 1)


def test_format_round_trip():
    rng = random.Random(4321)
    for _ in range(80):
        n = rng.randint(0, 7)
        A = FormalPoly.from_coeffs(
            [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n + 1)]
        )
        assert parse_poly(format_poly(A), formal_degree=A.formal_degree) == A
    assert format_poly(poly(-2, -6, -5, 0)) == "-5x^2 - 6x - 2"
    assert format_poly(poly(0, n=4)) == "0"
    assert format_poly(poly(0, 1, n=3)) == "x"


def test_parse_matrix():
    assert parse_matrix("1,0;1,1") == Mat2(1, 0, 1, 1)
    assert parse_matrix("1/2, -3; 0, 4") == Mat2(1, -6, 0, 8, 2)
    with pytest.raises(ValueError):
        parse_matrix("1,0;0,0")  # singular
    with pytest.raises(ValueError):
        parse_matrix("1,0,0,1")
    with pytest.raises(ValueError, match="invalid rational"):
        parse_matrix("1e3,0;0,1")


def test_text_that_reads_mat2_is_unchanged(capsys):
    # The text written from a Mat2 is part of the CLI and certificate
    # formats, so it must not depend on how Mat2 stores its entries.
    assert format_matrix(parse_matrix("-6/4, 1/3; 5, -2/8")) == "[-3/2, 1/3; 5, -1/4]"
    assert format_matrix(parse_matrix("1,0;1,1")) == "[1, 0; 1, 1]"
    assert main(["certify", "--poly", "x^3 - x^2 + 1/3x + 53/27"]) == 0  # (x - 1/3)^3 + 2
    out = capsys.readouterr().out
    assert "stage: 2 (upper transform)\ntransform: [1, 1/3; 0, 1]\n" in out
    assert main(["act", "--poly", "x^3+x^2-2", "--matrix", "1/2,-3;0,4"]) == 0
    assert capsys.readouterr().out == "1/8x^3 - 5/4x^2 + 3/2x - 119 (formal degree 3)\n"
    A, g = parse_poly("x^2+4x+8"), parse_matrix("2/4,0;0,1")
    W = act(A, g)
    cert = Certificate(A, Verdict.IRREDUCIBLE, 2, 1, g, W, is_ed(W, PAdic(2)))
    assert certificate_to_json(cert)["transform"] == ["1/2", "0", "0", "1"]


# -- subcommands ---------------------------------------------------------------


def test_ed_check_command(capsys):
    assert main(["ed-check", "--poly", "x^2+4x+8", "--prime", "2"]) == 0
    out = capsys.readouterr().out
    assert "verdict: Eisenstein-Dumas at v_2" in out
    assert main(["ed-check", "--poly", "x^2+4", "--prime", "2"]) == 1
    out = capsys.readouterr().out
    assert "D1: FAIL (gcd = 2)" in out
    # (D0) fails at x^3 + x, so (D1) has no gcd to print
    assert main(["ed-check", "--poly", "x^3+x", "--prime", "2"]) == 1
    assert "D0: FAIL\nD1: FAIL\nD2: FAIL\n" in capsys.readouterr().out
    assert main(["ed-check", "--poly", "x^3+x+2", "--prime", "2"]) == 1
    assert "D1: pass (gcd = 1)\nD2: FAIL at index 1\n" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:  # the strict form is not an option
        main(["ed-check", "--poly", "x^2+4x+8", "--prime", "2", "--strict"])
    assert exc.value.code == 2


def test_newton_command(capsys):
    assert main(["newton", "--poly", "x^2+6x+8", "--prime", "2"]) == 0
    out = capsys.readouterr().out
    assert "vertices: (0, 3), (1, 1), (2, 0)" in out
    assert "slope -2, length 1" in out and "slope -1, length 1" in out


def test_newton_plots_a_flat_polygon(capsys, tmp_path):
    # every coefficient of x^3 + x + 1 has v_2 = 0, so the plot's value axis
    # is widened to -1..1 and the hull runs through its middle
    path = tmp_path / "flat.svg"
    assert main(["newton", "--poly", "x^3+x+1", "--prime", "2", "--svg", str(path)]) == 0
    assert "segments: slope 0, length 3\n" in capsys.readouterr().out
    svg = path.read_text()
    assert '<polyline points="60.00,240.00 580.00,240.00"' in svg
    assert all(f'text-anchor="end">{w}</text>' in svg for w in (-1, 0, 1))


def test_newton_prints_all_of_its_text_or_none(capsys, tmp_path):
    path = tmp_path / "missing" / "n.svg"
    assert main(["newton", "--poly", "x^2+6x+8", "--prime", "2", "--svg", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and not path.exists()
    path = tmp_path / "n.svg"
    assert main(["newton", "--poly", "x^2+6x+8", "--prime", "2", "--svg", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("polynomial: ") and out.endswith(f"svg written to {path}\n")
    assert path.read_text().startswith("<svg ")


def test_act_command(capsys):
    assert main(["act", "--poly", "x^3+x^2-2", "--matrix", "1,0;1,1"]) == 0
    assert capsys.readouterr().out.strip() == "-5x^2 - 6x - 2 (formal degree 3)"
    assert main(["act", "--poly", "x^2+1", "--matrix", "1,1;1,1"]) == 2


def test_certify_command(capsys, tmp_path):
    assert main(["certify", "--poly", "x^2+4x+8"]) == 0
    out = capsys.readouterr().out
    assert "verdict: irreducible" in out and "prime: 2" in out and "stage: 1" in out

    path = tmp_path / "neg.json"
    assert main(["certify", "--poly", "x^4-14x^2+9", "--json", str(path)]) == 1
    out = capsys.readouterr().out
    assert "verdict: inconclusive" in out
    data = json.loads(path.read_text())
    assert data["verdict"] == "inconclusive"
    assert data["prime"] is None and data["witness_coeffs"] is None
    assert any(entry["stage"] == 4 for entry in data["audit"])


def test_certify_prints_all_of_its_text_or_none(capsys, monkeypatch, tmp_path):
    # This quartic is irreducible by U(A) at p = 3, but U(A) has the
    # denominator 256 * 10^4500, of 4503 digits, which neither the text nor
    # the JSON can carry.  certify used to print four lines of the
    # certificate and then exit with the interpreter's int-to-str error.
    # factor leaves every tail unfactored, since factoring the endpoint
    # ratios' tails of this input takes about 10 s; 3 is in band 1.
    monkeypatch.setattr("edcert.certify.factor", lambda t, rho_budget: Factorization((), t))
    path = tmp_path / "c.json"
    text = "1" + "0" * 1500 + "x^4+x^3+x+4"
    assert main(["certify", "--poly", text, "--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not path.exists()
    assert err.startswith("error: a certificate integer of ") and "int_max_str_digits" not in err
    assert f"limit of {MAX_DIGITS} digits" in err and len(err) < 200


def test_certificate_integers_are_written_up_to_the_digit_limit():
    assert _decimal(10**MAX_DIGITS - 1) == "9" * MAX_DIGITS
    assert _decimal(-(10**MAX_DIGITS - 1)) == "-" + "9" * MAX_DIGITS
    for x in (10**MAX_DIGITS, -(10**MAX_DIGITS)):
        with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_DIGITS} digits"):
            _decimal(x)


def test_certify_rejects_bad_input(capsys):
    assert main(["certify", "--poly", "x+1"]) == 2  # degree 1
    assert main(["certify", "--poly", "x^2+*"]) == 2
    assert "error:" in capsys.readouterr().err


def test_certify_env_var_caps_factoring_effort(capsys, monkeypatch):
    monkeypatch.setenv("EDCERT_RHO_BUDGET", "100000")
    assert main(["certify", "--poly", "x^2+4x+8"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("budget", [
    "\u0661\u0660\u0660\u0660\u0660\u0660", "1_000", "-5", "0", "000",
    pytest.param("7" * 5000, id="5000 digits"), pytest.param("z" * 5000, id="5000 letters"),
])
def test_certify_rejects_a_bad_rho_budget(budget, capsys, monkeypatch):
    # Arabic-Indic 100000, an underscore, a negative and a zero budget, and
    # over MAX_DIGITS digits or characters: one message naming the variable,
    # which echoes a long value clipped
    monkeypatch.setenv("EDCERT_RHO_BUDGET", budget)
    assert main(["certify", "--poly", "x^2+4x+8"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: EDCERT_RHO_BUDGET must be a positive integer"), err
    assert "int_max_str_digits" not in err and len(err) < 200, err


def test_formal_degree_flag(capsys):
    assert main(["act", "--poly", "x^2+1", "--formal-degree", "3", "--matrix", "0,1;1,0"]) == 0
    # reversal at formal degree 3 shifts everything up by one slot
    assert capsys.readouterr().out.strip() == "x^3 + x (formal degree 3)"


def test_dumas_command(capsys):
    assert main(["dumas", "--polyA", "x+2", "--polyB", "x+4", "--prime", "2"]) == 0
    assert "concatenation holds" in capsys.readouterr().out
    assert main(["dumas", "--polyA", "0", "--polyB", "x", "--prime", "2"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["act", "--poly", "x^30000000", "--matrix", "1,0;1,1"],
        ["certify", "--poly", "x^2+1", "--formal-degree", "100000000"],
        ["ed-check", "--poly", "x^99999999+2", "--prime", "2"],
    ],
    ids=["act-exponent", "certify-formal-degree", "ed-check-exponent"],
)
def test_hostile_degrees_exit_2_at_once(argv, capsys):
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["x^100+1", "x^10+1"])
def test_act_refuses_a_result_too_long_to_print_at_once(text, capsys):
    # A 4000-digit entry passes the grammar; acting on x^100 + 1 took minutes,
    # and on x^10 + 1 printing the result failed with the interpreter's limit.
    t0 = time.perf_counter()
    assert main(["act", "--poly", text, "--matrix", "9" * 4000 + ",1;0,1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: input too large") and f"over {MAX_DIGITS}" in err, err


@pytest.mark.parametrize(
    "poly_text, matrix",
    [("7" * 5000 + "x+1", "1,0;0,1"), ("x+1", "1,0;0," + "7" * 5000)],
    ids=["coefficient", "matrix-entry"],
)
def test_act_refuses_a_literal_over_the_digit_limit(poly_text, matrix, capsys):
    # Reading such a literal with int() raised the interpreter's own message.
    assert main(["act", "--poly", poly_text, "--matrix", matrix]) == 2
    err = capsys.readouterr().err
    assert f"integer of 5000 digits exceeds the limit {MAX_DIGITS} (at position " in err, err
    assert "int_max_str_digits" not in err
    assert parse_poly("7" * MAX_DIGITS + "x+1").nums[1] == int("7" * MAX_DIGITS)


@pytest.mark.parametrize(
    "argv",
    [
        ["ed-check", "--poly", "x^2+1", "--prime"],
        ["newton", "--poly", "x^2+1", "--prime"],
        ["dumas", "--polyA", "x+2", "--polyB", "x+4", "--prime"],
        ["certify", "--poly", "x^2+1", "--formal-degree"],
    ],
    ids=["ed-check", "newton", "dumas", "formal-degree"],
)
def test_integer_flags_echo_a_long_value_clipped(argv, capsys):
    # int() on 5000 digits raised the interpreter's message, which argparse
    # printed with the whole value; 4299 sevens then an 8 is an even integer
    # that PAdic refuses as "not prime", once echoing all 4300 digits.
    for value, reason in (
        ("7" * 5000, f"integer of 5000 digits exceeds the limit {MAX_DIGITS}"),
        ("7" * 200 + "x", f"invalid integer '{'7' * 19}... (203 characters)"),  # repr's quotes
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and reason in err and len(err) < 300, err
    if argv[-1] == "--prime":
        assert main(argv + ["7" * 4299 + "8"]) == 2
        err = capsys.readouterr().err
        assert err == "error: 77777777777777777777... (4300 characters) is not prime\n"


@pytest.mark.parametrize("flag", ["--prime", "--formal-degree"])
def test_a_long_value_that_is_no_integer_is_called_invalid(flag, capsys):
    # The digit limit counted characters before the grammar was matched, so
    # 5000 z's were "an integer of 5000 digits"; it now counts the digits of
    # the match, and a value the grammar refuses is echoed clipped.
    other = ["--prime", "7"] if flag == "--formal-degree" else ["--formal-degree", "2"]
    for value in ("z" * 5000, "7" * MAX_DIGITS + "x", "7" * 4000 + " " * 1000 + "7"):
        with pytest.raises(SystemExit) as exc:
            main(["ed-check", "--poly", "x^2+7", *other, flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and f"invalid integer {_clip(repr(value))}" in err, err
        assert "digits exceeds" not in err and len(err) < 300, err
    digit = "7" if flag == "--prime" else "2"
    assert main(["ed-check", "--poly", "x^2+7", *other, flag, " " * 5000 + digit]) == 0


@pytest.mark.parametrize("flag", ["--prime", "--formal-degree"])
def test_integer_flags_are_read_by_the_grammar(flag, capsys):
    # int() read the Arabic-Indic seven and 0_7 as 7; the polynomial grammar,
    # EDCERT_RHO_BUDGET and a certificate's prime refuse both, and so do the
    # integer flags now: a sign and ASCII digits, whitespace around.
    other = ["--prime", "7"] if flag == "--formal-degree" else ["--formal-degree", "2"]
    for value in ("\u0667", "0_7", "7/1", "1e3", "+-7", ""):
        with pytest.raises(SystemExit) as exc:
            main(["ed-check", "--poly", "x^2+7", *other, flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and f"invalid integer {value!r}" in err, err
    digit = "7" if flag == "--prime" else "2"
    for value in (f" +{digit} ", f"0{digit}", f"\t{digit}\n"):
        assert main(["ed-check", "--poly", "x^2+7", *other, flag, value]) == 0
        assert "prime: 7" in capsys.readouterr().out


def test_act_prints_a_long_result_within_the_limit(capsys):
    big = 10**2000  # (big x + 1)^2 + 1 has a 4001-digit leading coefficient
    assert main(["act", "--poly", "x^2+1", "--matrix", f"{big},1;0,1"]) == 0
    assert capsys.readouterr().out.strip() == f"{big**2}x^2 + {2 * big}x + 2 (formal degree 2)"


def test_act_digit_bound_covers_every_coefficient():
    rng = random.Random(90210)

    def rational(num_digits, den_digits):
        bound = 10**num_digits
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 10 ** rng.randint(0, den_digits)))

    for _ in range(400):
        n = rng.randint(0, 9)
        A = FormalPoly.from_coeffs([rational(6, 5) for _ in range(n + 1)])
        while True:
            entries = [rational(9, 4) if rng.random() < 0.7 else Fraction(0) for _ in range(4)]
            if entries[0] * entries[3] != entries[1] * entries[2]:
                break
        g = mat(*entries)
        B = act(A, g)
        longest = max(len(str(x)) for c in B.coeffs for x in (abs(c.numerator), c.denominator))
        assert longest <= _act_digits(A, g), (A, g)
    assert _act_digits(FormalPoly.from_coeffs([1, 0, 1]), Mat2(10**2000, 1, 0, 1)) == 4001


def test_verify_rejects_a_hostile_formal_degree_at_once(tmp_path, capsys):
    data = certificate_to_json(certify_search(parse_poly("x^4-14x^2+9")))
    assert data["verdict"] == "inconclusive"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({**data, "formal_degree": 100_000_000}))
    t0 = time.perf_counter()
    assert main(["verify", "--json", str(path)]) == 1
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out
    assert out.startswith("INVALID: malformed certificate") and "exceeds the limit" in out


def test_verify_refuses_a_json_integer_over_the_digit_limit(tmp_path, capsys):
    text = json.dumps(certificate_to_json(certify_search(parse_poly("x^2+4x+8"))))
    path = tmp_path / "cert.json"
    path.write_text(text.replace('"formal_degree": 2', '"formal_degree": ' + "7" * 5000))
    assert main(["verify", "--json", str(path)]) == 2
    assert capsys.readouterr().err == f"error: JSON integer of 5000 digits exceeds the limit {MAX_DIGITS}\n"


def test_verify_refuses_deeply_nested_json(tmp_path, capsys):
    # The decoder gives up on deep nesting with a RecursionError; verify
    # reports it as an input error, whether the nesting is the whole file or
    # sits inside a valid certificate.
    deep = "[" * 100_000 + "]" * 100_000
    text = json.dumps(certificate_to_json(certify_search(parse_poly("x^2+4x+8"))))
    assert '"audit": []' in text
    for content in (deep, text.replace('"audit": []', '"audit": ' + deep)):
        path = tmp_path / "cert.json"
        path.write_text(content)
        assert main(["verify", "--json", str(path)]) == 2
        assert capsys.readouterr().err == "error: certificate JSON is nested too deeply\n"


def test_verify_refuses_a_repeated_key_at_any_depth(tmp_path, capsys):
    # The decoder would keep the last of two equal keys; verify refuses the
    # file, whether the values agree or not, at the top and inside "report".
    text = json.dumps(certificate_to_json(certify_search(parse_poly("x^2+4x+8"))))
    key = "k" * 60  # echoed as its repr is clipped: 20 characters and the length
    cases = [
        ('"prime": "2"', '"prime": "3", "prime": "2"', "'prime'"),
        ('"prime": "2"', '"prime": "2", "prime": "2"', "'prime'"),
        ('"d0": true', '"d0": false, "d0": true', "'d0'"),
        ('"audit": []', f'"audit": [{{"{key}": 1, "{key}": 2}}]', "'" + "k" * 19 + "... (62 characters)"),
    ]
    for old, new, shown in cases:
        assert text.count(old) == 1
        path = tmp_path / "cert.json"
        path.write_text(text.replace(old, new))
        assert main(["verify", "--json", str(path)]) == 2, new
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: duplicate key {shown} in certificate JSON\n"
    path.write_text(text)
    assert main(["verify", "--json", str(path)]) == 0


def test_verify_reads_at_most_the_text_limit(tmp_path, monkeypatch, capsys):
    # verify reads one character past the limit and no more, so an endless
    # file ends in one message, not in a read until memory runs out.
    text = json.dumps(certificate_to_json(certify_search(parse_poly("x^2+4x+8"))))
    for module in (edcert.certificate, edcert.cli):
        monkeypatch.setattr(module, "MAX_CERTIFICATE_CHARS", len(text))
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert main(["verify", "--json", str(path)]) == 0
    message = f"error: certificate text exceeds the limit of {len(text)} characters\n"
    path.write_text(text + " " * 10**6)
    for name in (str(path), "/dev/zero"):
        capsys.readouterr()
        assert main(["verify", "--json", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


# -- JSON certificates ----------------------------------------------------------


def test_json_round_trip_and_verify(tmp_path):
    cert = certify_search(parse_poly("1+x+x^2+x^3+x^4"))
    data = certificate_to_json(cert)
    # all schema keys present, rationals as exact strings
    assert set(data) == {
        "input",
        "formal_degree",
        "verdict",
        "prime",
        "transform",
        "witness_coeffs",
        "report",
        "audit",
    }
    assert data["prime"] == "5"
    assert data["transform"] == ["1", "-1/4", "0", "1"]
    assert all(isinstance(x, str) for x in data["witness_coeffs"])
    text = json.dumps(data)
    ok, reason = validate_certificate_json(json.loads(text))
    assert ok, reason


def test_verify_detects_tampering():
    cert = certify_search(parse_poly("x^2+4x+8"))
    data = certificate_to_json(cert)

    bad = json.loads(json.dumps(data))
    bad["witness_coeffs"][0] = "7"
    ok, reason = validate_certificate_json(bad)
    assert not ok and "act(input, transform)" in reason

    bad = json.loads(json.dumps(data))
    bad["prime"] = "3"
    assert not validate_certificate_json(bad)[0]

    bad = json.loads(json.dumps(data))
    bad["report"]["gcd_value"] = 2
    ok, reason = validate_certificate_json(bad)
    assert not ok and "disagrees" in reason


def test_verify_command(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(["certify", "--poly", "x^2+4x+8", "--json", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--json", str(path)]) == 0
    assert "valid" in capsys.readouterr().out

    data = json.loads(path.read_text())
    data["witness_coeffs"] = ["1", "1", "1"]
    path.write_text(json.dumps(data))
    assert main(["verify", "--json", str(path)]) == 1

    assert main(["verify", "--json", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda data: [],
        lambda data: {**data, "report": None},
        lambda data: {**data, "formal_degree": "2"},
        lambda data: {**data, "witness_coeffs": [1, 2, 3]},
        lambda data: {**data, "prime": "6"},
        lambda data: {**data, "prime": 2.7},
        lambda data: {**data, "prime": 2},
        lambda data: {**data, "prime": " 2 "},
        lambda data: {**data, "prime": "2_0"},
        lambda data: {**data, "prime": "+2"},
        lambda data: {**data, "prime": "\uff12"},
        lambda data: {**data, "formal_degree": None},
        lambda data: {**data, "formal_degree": True},
        lambda data: {**data, "formal_degree": 2.0},
        lambda data: {**data, "transform": "1001"},
        lambda data: {**data, "witness_coeffs": "841"},
        lambda data: {**data, "witness_coeffs": {"8": 0, "4": 0, "1": 0}},
        lambda data: {**data, "transform": ["1e3", "0", "0", "1"]},
        lambda data: {**data, "witness_coeffs": ["7" * 5000, "4", "1"]},
        lambda data: {**data, "prime": "7" * 5000},
    ],
    ids=[
        "list",
        "null-report",
        "string-degree",
        "integer-coeffs",
        "composite-prime",
        "float-prime",
        "integer-prime",
        "padded-prime",
        "underscore-prime",
        "signed-prime",
        "fullwidth-digit-prime",
        "null-degree",
        "bool-degree",
        "float-degree",
        "string-transform",
        "string-coeffs",
        "dict-coeffs",
        "exponent-transform-entry",
        "long-witness-coeff",
        "long-prime",
    ],
)
def test_verify_rejects_malformed_certificates(mutate, request, tmp_path, capsys):
    # The checker tests the prime last, so a composite prime at which the
    # stored report does not hold is refused by the report.
    reasons = {"composite-prime": "stored report"}
    expected = reasons.get(request.node.callspec.id, "malformed certificate")
    data = mutate(certificate_to_json(certify_search(parse_poly("x^2+4x+8"))))
    ok, reason = validate_certificate_json(data)
    assert not ok and reason.startswith(expected) and "int_max_str_digits" not in reason
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--json", str(path)]) == 1
    assert capsys.readouterr().out.startswith(f"INVALID: {expected}")


def test_inconclusive_json_verifies_as_well_formed(tmp_path):
    cert = certify_search(parse_poly("x^4-14x^2+9"))
    ok, reason = validate_certificate_json(certificate_to_json(cert))
    assert ok and "no claim" in reason


# -- SVG -------------------------------------------------------------------------


def test_svg_is_deterministic_and_well_formed(tmp_path):
    A = parse_poly("x^2+6x+8")
    v = PAdic(2)
    svg1 = newton_polygon_svg(A, v)
    svg2 = newton_polygon_svg(A, v)
    assert svg1 == svg2
    assert svg1.startswith("<svg ") and svg1.rstrip().endswith("</svg>")
    assert svg1.count("<circle") == 3
    assert "<polyline" in svg1 and "v(a_i)" in svg1

    assert main(["newton", "--poly", "x^2+6x+8", "--prime", "2", "--svg", str(tmp_path / "a.svg")]) == 0
    assert main(["newton", "--poly", "x^2+6x+8", "--prime", "2", "--svg", str(tmp_path / "b.svg")]) == 0
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
