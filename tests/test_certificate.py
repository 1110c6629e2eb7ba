"""The certificate checker: independence from the search, and agreement with
the checker it replaced under mutation."""

import ast
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from edcert import (
    Certificate,
    FormalPoly,
    Verdict,
    act,
    certificate,
    certificate_to_json,
    certify_search,
    is_ed,
    is_probable_prime,
    moebius,
    poly,
    read_certificate,
    upper_transform,
    validate_certificate_json,
)
from edcert.certificate import read_rational
from edcert.cli import parse_poly
from helpers import (
    PSI,
    mat,
    mat_inv,
    nonzero_fraction,
    padic,
    primality_draws,
    random_dense_mat,
    random_ed_polynomial,
    random_int_poly,
    reference_acts_to,
    reference_is_probable_prime,
    reference_validate_certificate_json,
)


def test_certificate_module_imports_only_the_primality_test():
    tree = ast.parse(Path(certificate.__file__).read_text())
    from_package, other = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("edcert")):
            from_package.append((node.level, node.module, [a.name for a in node.names]))
        elif isinstance(node, ast.ImportFrom):
            other.add(node.module)
        elif isinstance(node, ast.Import):
            other.update(a.name for a in node.names)
    assert from_package == [(1, "exact_arith", ["is_probable_prime"])]
    assert other <= set(sys.stdlib_module_names), other


def test_checker_rejects_what_a_broken_action_kernel_certifies(monkeypatch):
    # A = E(x - s) with E centered and Eisenstein at 2 and s odd: U(A) = E.
    # With b negated in the kernel, the search tests A(x - s) = E(x - 2s)
    # instead, which is Eisenstein at 2 as well, and certifies A with the
    # shear by s and that wrong witness.  The old checker recomputes the
    # witness with the same broken kernel and approves it.
    Es = ["x^3 + 2", "x^3 + 4x + 2", "x^5 + 6x^2 + 2", "x^7 + 2x + 6"]
    inputs = [parse_poly(E).taylor_shift(-s) for E in Es for s in (1, -3)]
    substitute = poly._substitute

    def flipped(A, lam, a, b, c, d):
        return substitute(A, lam, a, -b, c, d)

    monkeypatch.setattr(poly, "_substitute", flipped)
    monkeypatch.setattr(moebius, "_substitute", flipped)
    for A in inputs:
        cert = certify_search(A)
        assert cert.irreducible and cert.prime == 2 and cert.stage == 2, A
        data = certificate_to_json(cert)
        assert reference_validate_certificate_json(data) == (True, "witness is Eisenstein-Dumas at p = 2")
        ok, reason = validate_certificate_json(data)
        assert not ok and reason == "witness does not equal act(input, transform)", A


def test_checker_rejects_a_certificate_naming_psi13():
    # psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin with all 13
    # bases.  x^3 + psi_13 is Eisenstein at both factors, so only the
    # primality of the stated prime tells the two certificates apart.
    psi13 = 3317044064679887385961981
    cert = certify_search(parse_poly(f"x^3+{psi13}"))
    assert cert.irreducible and (cert.prime, cert.stage) == (1287836182261, 1)
    data = certificate_to_json(cert)
    assert validate_certificate_json(data) == (True, "witness is Eisenstein-Dumas at p = 1287836182261")
    data["prime"] = str(psi13)
    assert validate_certificate_json(data) == (False, f"malformed certificate: {psi13} is not prime")
    # Every psi_k passes the first k prime bases.  x^2 + psi_k with the
    # identity transform is Eisenstein at psi_k, so only the checker's
    # primality test refuses it; at the largest prime below psi_k it passes.
    for psi in PSI:
        p = psi - 2
        while not reference_is_probable_prime(p):
            p -= 2
        for q, want in ((psi, (False, f"malformed certificate: {psi} is not prime")),
                        (p, (True, f"witness is Eisenstein-Dumas at p = {p}"))):
            data = {
                "input": f"x^2 + {q}", "formal_degree": 2, "verdict": "irreducible", "prime": str(q),
                "transform": ["1", "0", "0", "1"], "witness_coeffs": [str(q), "0", "1"],
                "report": {"d0": True, "d1": True, "d2": True, "gcd_value": 1, "failing_index": None},
                "audit": [],
            }
            assert validate_certificate_json(data) == want, q


def test_checker_refuses_degree_one_before_the_prime_test(monkeypatch):
    # At n = 1, D1 is gcd(v(w_0) - v(w_1), 1) = 1 at every prime, so it no
    # longer forces p | omega_0 omega_n: x + 1 with the identity transform
    # passes D0-D2 at 2, at 1000003 and at a 4300-digit composite.  The
    # checker refuses n < 2 as the search does, without testing the prime;
    # a certificate it refused before keeps its reason.
    def prime_test(p):
        raise AssertionError(f"the prime {p} is tested")

    monkeypatch.setattr(certificate, "_is_prime", prime_test)
    data = {
        "input": "x + 1", "formal_degree": 1, "verdict": "irreducible", "prime": "2",
        "transform": ["1", "0", "0", "1"], "witness_coeffs": ["1", "1"],
        "report": {"d0": True, "d1": True, "d2": True, "gcd_value": 1, "failing_index": None},
        "audit": [],
    }
    for prime in ("2", "1000003", "7" * 4299 + "1"):
        data["prime"] = prime
        assert validate_certificate_json(data) == (False, "certification requires degree >= 2"), prime
    data["witness_coeffs"] = ["1", "2"]
    assert validate_certificate_json(data) == (False, "witness does not equal act(input, transform)")
    data["witness_coeffs"], data["report"]["d1"] = ["1", "1"], False
    assert validate_certificate_json(data)[1].startswith("stored report ")


def test_checker_primality_test_agrees_with_the_package():
    # The checker's own 13-base Miller-Rabin below psi_13, against the
    # package's graded test, on every n below 10^5 and on the draws around
    # and between the psi_k.
    for n in list(range(2, 10**5)) + primality_draws():
        assert certificate._is_prime(n) == is_probable_prime(n), n


def test_stored_report_is_compared_by_type():
    # 1 == 1.0 == True in Python, so a report of numbers for booleans, or a
    # boolean for the gcd, compared equal to the recomputed one.
    data = certificate_to_json(certify_search(parse_poly("x^2+4x+8")))
    assert validate_certificate_json(data) == (True, "witness is Eisenstein-Dumas at p = 2")
    fresh = "(True, True, True, 1, None)"
    for key, value in [("d0", 1), ("d1", 1.0), ("d2", 1), ("gcd_value", True), ("gcd_value", 1.0)]:
        report = {**data["report"], key: value}
        stored = tuple(report[k] for k in ("d0", "d1", "d2", "gcd_value", "failing_index"))
        assert validate_certificate_json({**data, "report": report}) == (
            False, f"stored report {stored} disagrees with recomputed {fresh}"
        ), (key, value)
    report = {"d0": 1, "d1": 1.0, "d2": True, "gcd_value": True, "failing_index": None}
    ok, reason = validate_certificate_json({**data, "report": report})
    assert not ok and reason.startswith("stored report (1, 1.0, True, True, None) disagrees"), reason
    # a witness with a zero endpoint recomputes to (False, False, False,
    # None, None), and 0 == False as well
    W = parse_poly("x^2+2x")
    data = certificate_to_json(
        Certificate(W, Verdict.IRREDUCIBLE, 2, 1, moebius.Mat2(1, 0, 0, 1), W, is_ed(W, padic(2)))
    )
    refused = "witness is not an Eisenstein-Dumas polynomial at the stated prime"
    assert validate_certificate_json(data) == (False, refused)
    for key, value in [("d0", 0), ("d1", 0.0), ("d2", 0)]:
        ok, reason = validate_certificate_json({**data, "report": {**data["report"], key: value}})
        assert not ok and reason.startswith("stored report "), (key, value, reason)


def _integer_parts(coeffs) -> tuple[int, list[int]]:
    return certificate._integer_form([(c.numerator, c.denominator) for c in coeffs])


def _action_case(rng: random.Random, triangular: bool, degrees: tuple[int, int] = (1, 30)):
    """(input, matrix) with rational entries: upper triangular with a != d,
    b = 0 one time in ten, or full; every entry of either sign."""
    n = rng.randint(*degrees)
    cs = [Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(n + 1)]
    cs[n] = cs[n] or Fraction(rng.choice((-1, 1)))
    A = FormalPoly.from_coeffs(cs)
    if not triangular:
        return A, random_dense_mat(rng, 12)
    a, d = nonzero_fraction(rng, 12), nonzero_fraction(rng, 12)
    while d == a:
        d = nonzero_fraction(rng, 12)
    b = Fraction(0) if rng.random() < 0.1 else nonzero_fraction(rng, 12)
    return A, mat(a, b, 0, d)


def _identity_size(entries: list[int], lam: int, n: int) -> int:
    """The size _acts_to compares with _FINGERPRINT_SIZE."""
    return n * (n + max(x.bit_length() for x in (lam, *entries)))


def test_triangular_identity_agrees_with_evaluation_at_n_plus_1_points(monkeypatch):
    # The checker decides W = A g coefficient by coefficient: for c = 0 by a
    # Taylor shift of the scaled input, for c != 0 by two shifts around a
    # reversal; the reference evaluates both sides at n+1 points.  Each case
    # is checked with its true witness, which both accept, and with one
    # witness numerator moved by 1, which both refuse.  Forty full matrices
    # act at degree 60 to 100, past _FINGERPRINT_SIZE, and every case is
    # decided again with the fingerprint off, so that the exact test refuses
    # the nudge there too.
    rng = random.Random(1701)
    kinds = {"triangular": 0, "b = 0": 0, "full": 0, "full, fingerprinted": 0}
    cases = [(case % 6 != 5, (1, 30)) for case in range(1200)] + [(False, (60, 100))] * 40
    for triangular, degrees in cases:
        A, g = _action_case(rng, triangular, degrees)
        W = act(A, g)
        lam, entries = _integer_parts(g.entries())
        args = (A.den, list(A.nums), entries, lam)
        nudged = list(W.nums)
        nudged[rng.randrange(len(nudged))] += rng.choice((-1, 1))
        for omega, want in ((list(W.nums), True), (nudged, False)):
            assert reference_acts_to(*args, W.den, omega) is want, (A, g)
            assert certificate._acts_to(*args, W.den, omega) is want, (A, g, omega)
            with monkeypatch.context() as m:
                m.setattr(certificate, "_FINGERPRINT_SIZE", float("inf"))
                assert certificate._acts_to(*args, W.den, omega) is want, (A, g, omega)
        if not triangular and _identity_size(entries, lam, A.formal_degree) > certificate._FINGERPRINT_SIZE:
            kinds["full, fingerprinted"] += 1
        kinds["full" if not triangular else "b = 0" if entries[1] == 0 else "triangular"] += 1
    assert kinds["triangular"] > 800 and kinds["b = 0"] > 50 and kinds["full"] == 240, kinds
    assert kinds["full, fingerprinted"] > 30, kinds


def _wrong_witness(n: int, transform: list[str]) -> dict:
    """A certificate of x^n + 2 at 2 whose witness, n+1 ones, is not the
    input acted on by transform."""
    return {
        "input": f"x^{n} + 2",
        "formal_degree": n,
        "verdict": "irreducible",
        "prime": "2",
        "transform": transform,
        "witness_coeffs": ["1"] * (n + 1),
        "report": {"d0": True, "d1": True, "d2": True, "gcd_value": 1, "failing_index": None},
        "audit": [],
    }


@pytest.mark.parametrize(
    "transform",
    [["1/" + "7" * 4300, "0", "0", "1"], ["1/" + "7" * 4300, "1", "1", "1"], ["1", "1", "0", "1"]],
    ids=["4300-digit scaling", "4300-digit full matrix", "shift by 1"],
)
def test_a_wrong_witness_of_degree_1000_is_refused_within_a_second(transform):
    # lam^1000 has 4.3 million digits, and the exact test built it (and the
    # Taylor shift) before it compared anything: 65 s for the scaling, and
    # 10.7 s for the full matrix at degree 300 already.  The two sides now
    # differ at the fingerprint's point: two Horner passes modulo a prime.
    data = _wrong_witness(1000, transform)
    start = time.perf_counter()
    verdict = validate_certificate_json(data)
    elapsed = time.perf_counter() - start
    assert verdict == (False, "witness does not equal act(input, transform)")
    assert elapsed < 1.0, elapsed


def test_honest_full_matrix_certificates_verify():
    # Conjugates B = E h of Eisenstein-Dumas polynomials E, each certified by
    # the transform h^-1 and the witness act(B, h^-1) = E, all verify.  One
    # in twenty has degree 60 to 70, and one in twenty 60-digit entries at
    # degree 6 to 10, which puts most of them past _FINGERPRINT_SIZE.
    rng = random.Random(2718)
    fingerprinted = 0
    for i in range(1050):
        degrees, bound = {9: ((60, 70), 9), 19: ((6, 10), 10**60)}.get(i % 20, ((2, 8), 9))
        E, p = random_ed_polynomial(
            rng, min_degree=degrees[0], max_degree=degrees[1], max_endpoint_val=2, extra_val=1
        )
        h = random_dense_mat(rng, bound)
        B, g = act(E, h), mat_inv(h)
        W = act(B, g)
        assert W == E, (E, h)
        data = certificate_to_json(Certificate(B, Verdict.IRREDUCIBLE, p, None, g, W, is_ed(W, padic(p))))
        assert validate_certificate_json(data) == (True, f"witness is Eisenstein-Dumas at p = {p}"), data
        lam, entries = _integer_parts(g.entries())
        fingerprinted += _identity_size(entries, lam, B.formal_degree) > certificate._FINGERPRINT_SIZE
    assert fingerprinted > 80, fingerprinted


def _reducible_draw(rng: random.Random, kind: str) -> tuple[FormalPoly, list[int]]:
    """(A, primes): A a product B C of factors of degree 1 to 20, or a square
    B^2; for kind "ED product", B and C are Eisenstein-Dumas at one prime q
    with one slope, so that by Dumas only (D1) refuses A at q, and primes is
    [q].  A is conjugated by a random full matrix when kind says so."""
    primes = []
    if kind.startswith("ED product"):
        B, q = random_ed_polynomial(rng, min_degree=1, max_degree=20, max_unit=9, max_endpoint_val=2)
        v = padic(q)
        gap = v.val(B.nums[0]) - v.val(B.nums[-1])
        while True:  # an equal slope needs an equal degree, as gcd(gap, n) = 1
            C, _ = random_ed_polynomial(rng, prime=q, degree=B.formal_degree, max_unit=9, max_endpoint_val=2)
            if v.val(C.nums[0]) - v.val(C.nums[-1]) == gap:
                break
        primes.append(q)
    else:
        B = random_int_poly(rng, 1, 20, coeff_bound=20)
        C = B if kind.startswith("square") else random_int_poly(rng, 1, 20, coeff_bound=20)
    A = B.mul(C)
    return (act(A, random_dense_mat(rng, 5)) if kind.endswith("conjugated") else A), primes


def test_no_forged_certificate_of_a_reducible_input_is_accepted():
    # No conjugate of a reducible polynomial is Eisenstein-Dumas at any prime
    # (Dumas), so every certificate that claims one is a forgery, whatever
    # its prime and transform.  Each forgery here is the strongest one: the
    # true witness W = A g and the very report the checker recomputes, so
    # only the checker's Eisenstein-Dumas test can refuse it.  The (p, g)
    # pairs are sampled from p <= 47 and g among the identity, U(A)'s shear
    # and a random full matrix; the witnesses are honest identities, so this
    # runs _acts_to's full-matrix path on every third certificate.
    rng = random.Random(1313)
    primes = [q for q in range(2, 48) if is_probable_prime(q)]
    kinds = [f"{k}{c}" for k in ("product", "ED product", "square") for c in ("", ", conjugated")]
    keys = ("d0", "d1", "d2", "gcd_value", "failing_index")
    refused = "witness is not an Eisenstein-Dumas polynomial at the stated prime"
    only_d1 = 0  # forgeries that (D1) alone refuses, with v(w_0) != v(w_n)
    for i in range(180):
        A, at = _reducible_draw(rng, kinds[i % len(kinds)])
        for g in (mat(1, 0, 0, 1), upper_transform(A)[0], random_dense_mat(rng, 9)):
            W = act(A, g)
            for p in at + rng.sample([q for q in primes if q not in at], 4 - len(at)):
                data = certificate_to_json(Certificate(A, Verdict.IRREDUCIBLE, p, None, g, W, is_ed(W, padic(p))))
                _, omega = certificate._integer_form([read_rational(x) for x in data["witness_coeffs"]])
                report = certificate._ed_report(omega, p)
                data["report"] = dict(zip(keys, report))
                assert validate_certificate_json(data) == (False, refused), (kinds[i % len(kinds)], data)
                only_d1 += report[:3] == (True, False, True) and report[3] < A.formal_degree
    assert only_d1 > 60, only_d1


def _valid_text() -> str:
    text = json.dumps(certificate_to_json(certify_search(parse_poly("x^2+4x+8"))))
    assert '"prime": "2"' in text and '"d0": true' in text and '"formal_degree": 2' in text
    return text


def _refused(text: str) -> str:
    try:
        read_certificate(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("read_certificate accepted the text")


def test_reader_refuses_a_key_repeated_at_any_depth():
    text = _valid_text()
    for old, new, shown in [
        ('"prime": "2"', '"prime": "3", "prime": "2"', "'prime'"),  # depth 1
        ('"d0": true', '"d0": true, "d0": true', "'d0'"),  # depth 2, inside "report"
    ]:
        assert _refused(text.replace(old, new)) == f"duplicate key {shown} in certificate JSON"
        # the decoder alone keeps the last value, and the checker then passes it
        assert validate_certificate_json(json.loads(text.replace(old, new)))[0]


def test_reader_refuses_a_json_integer_over_the_digit_limit():
    text = _valid_text().replace('"formal_degree": 2', '"formal_degree": ' + "7" * 4301)
    assert _refused(text) == "JSON integer of 4301 digits exceeds the limit 4300"
    assert read_certificate(_valid_text().replace('"formal_degree": 2', '"formal_degree": ' + "7" * 4300))


def test_reader_refuses_nesting_deeper_than_the_decoder_allows():
    deep = "[" * 100_000 + "]" * 100_000
    for text in (deep, _valid_text().replace('"audit": []', '"audit": ' + deep)):
        assert _refused(text) == "certificate JSON is nested too deeply"


def test_reader_refuses_text_over_the_length_limit(monkeypatch):
    text = _valid_text()
    monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CHARS", len(text))
    assert read_certificate(text)
    assert _refused(text + " ") == f"certificate text exceeds the limit of {len(text)} characters"


def test_reader_round_trips_a_valid_certificate():
    for poly_text in ("x^2+4x+8", "1+x+x^2+x^3+x^4", "x^4-14x^2+9"):
        data = certificate_to_json(certify_search(parse_poly(poly_text)))
        text = json.dumps(data, indent=2)
        assert read_certificate(text) == data
        assert validate_certificate_json(read_certificate(text)) == validate_certificate_json(data)
    assert validate_certificate_json(read_certificate(_valid_text())) == (
        True, "witness is Eisenstein-Dumas at p = 2"
    )


def test_witness_strings_are_the_fractions_as_text():
    # certificate_to_json writes each witness entry from (den, nums) with one
    # gcd; the text must be str() of the Fraction it stands for.
    rng = random.Random(1405)
    zeros = negatives = 0
    for _ in range(500):
        n = rng.randint(1, 8)
        nums = [rng.choice((0, rng.randint(-10**6, 10**6), rng.randint(-9, 9))) for _ in range(n + 1)]
        nums[n] = nums[n] or rng.choice((-1, 1))
        W = FormalPoly(rng.randint(2, 240), tuple(nums))
        assert W.den > 1
        zeros += 0 in W.nums
        negatives += min(W.nums) < 0
        cert = Certificate(W, Verdict.IRREDUCIBLE, 2, 1, moebius.Mat2(1, 0, 0, 1), W, is_ed(W, padic(2)))
        assert certificate_to_json(cert)["witness_coeffs"] == [str(c) for c in W.coeffs], W
    assert zeros > 200 and negatives > 200, (zeros, negatives)


def _conjugate_certificate(rng: random.Random) -> Certificate:
    """Certificate of B = E h for E Eisenstein-Dumas at p and h with four
    nonzero entries: transform h^-1, witness E."""
    E, p = random_ed_polynomial(rng, max_degree=6, max_unit=6, max_endpoint_val=2, extra_val=1)
    h = random_dense_mat(rng, 5)
    B, g = act(E, h), mat_inv(h)
    assert act(B, g) == E
    return Certificate(B, Verdict.IRREDUCIBLE, p, None, g, E, is_ed(E, padic(p)))


def _certificates(rng: random.Random, count: int):
    """Criterion-13 draws, shifted draws and full-matrix conjugates, in turn;
    the first two through the search."""
    for i in range(count):
        if i % 3 == 2:
            yield _conjugate_certificate(rng)
            continue
        A, _ = random_ed_polynomial(rng, max_degree=6, max_unit=6, max_endpoint_val=2, extra_val=1)
        if i % 3 == 1:
            A = A.taylor_shift(rng.choice((-1, 1)))
        yield certify_search(A)


def _other_prime(p: int, rng: random.Random) -> str:
    """A neighbouring prime of p, or a composite."""
    neighbours = [q for q in range(max(2, p - 12), p + 13) if q != p and is_probable_prime(q)]
    composites = [p + 1 if p > 2 else 4, p * p, 2 * p, 1, 0]
    return str(rng.choice(neighbours + composites))


_WRONG_TYPES = [1, 2.5, True, None, "1", [], {}, ["1"], [1, 2]]


def _nudge(data, rng):
    lists = [k for k in ("witness_coeffs", "transform") if isinstance(data.get(k), list)]
    if not lists:
        return _wrong_type(data, rng)
    key = rng.choice(lists)
    i = rng.randrange(len(data[key]))
    data[key][i] = str(Fraction(data[key][i]) + rng.choice((-1, 1)))
    return data


def _prime(data, rng):
    p = int(data["prime"]) if isinstance(data.get("prime"), str) else 2
    data["prime"] = _other_prime(p, rng)
    return data


def _report_field(data, rng):
    report = data.get("report")
    if not isinstance(report, dict):
        data["report"] = {"d0": True, "d1": True, "d2": True, "gcd_value": 1, "failing_index": None}
        return data
    key = rng.choice(sorted(report))
    value = report[key]
    if isinstance(value, bool):
        report[key] = not value
    else:
        report[key] = rng.choice([0, 1, 2, 3]) if value is None else rng.choice([None, value + 1, value - 1])
    return data


def _witness_length(data, rng):
    coeffs = data.get("witness_coeffs")
    if not isinstance(coeffs, list):
        return _wrong_type(data, rng)
    if coeffs and rng.random() < 0.5:
        del coeffs[rng.choice((0, -1))]
    else:
        coeffs.insert(rng.choice((0, len(coeffs))), rng.choice(("0", "1", "2/3")))
    return data


def _falling_factorial(data, rng):
    """Add k x(x-1)...(x-n+1) to the witness: the change vanishes at x = 0..n-1,
    so only the last of the n+1 evaluation points shows it."""
    coeffs = data.get("witness_coeffs")
    if not isinstance(coeffs, list):
        return _wrong_type(data, rng)
    product = [1]
    for j in range(len(coeffs) - 1):
        product = [a - j * b for a, b in zip([0] + product, product + [0])]
    k = rng.choice((-2, -1, 1, Fraction(1, 2)))
    data["witness_coeffs"] = [str(Fraction(c) + k * q) for c, q in zip(coeffs, product)]
    return data


# The keys the checker reads; "audit" is free text.
_CHECKED = ("input", "formal_degree", "verdict", "prime", "transform", "witness_coeffs", "report")


def _drop_key(data, rng):
    del data[rng.choice(_CHECKED)]
    return data


def _wrong_type(data, rng):
    key = rng.choice([k for k in _CHECKED if k in data])
    value = data[key]
    if isinstance(value, list) and value and rng.random() < 0.5:
        value[rng.randrange(len(value))] = rng.choice(_WRONG_TYPES)
    elif isinstance(value, dict) and value and rng.random() < 0.5:
        value[rng.choice(sorted(value))] = rng.choice(_WRONG_TYPES)
    else:
        data[key] = rng.choice(_WRONG_TYPES)
    return data


def _singular(data, rng):
    transform = data.get("transform")
    if isinstance(transform, list) and len(transform) == 4:
        a, b = transform[:2]
        k = rng.choice(("1", "-2", "1/3", "0"))
        data["transform"] = [a, b] + [str(Fraction(k) * Fraction(x)) for x in (a, b)]
    else:
        data["transform"] = ["0", "0", "0", "0"]
    return data


MUTATIONS = [
    _nudge, _prime, _report_field, _witness_length, _drop_key, _wrong_type, _singular,
    _falling_factorial,
]


def _python_message(reason: str) -> bool:
    """A reason of the old checker that only repeats an interpreter message:
    the arity TypeError of helpers.mat, which builds its Mat2, for a
    transform not of four entries."""
    return "mat()" in reason


def _refused_before_the_prime_test(got: tuple[bool, str], want: tuple[bool, str]) -> bool:
    """Whether the old checker refused a composite prime of at least 2 first,
    where the checker, which tests primality last, refuses by the report."""
    return (
        not got[0]
        and want[1].endswith(" is not prime")
        and got[1].startswith(("stored report ", "witness is not an Eisenstein-Dumas"))
    )


def _report_retyped(data, original) -> bool:
    """Whether a report field of data equals the original's in value but not
    in type, as _wrong_type's 1 for true or True for 1: the old checker
    compared reports by value only."""
    report, before = data.get("report"), original.get("report")
    if not (isinstance(report, dict) and isinstance(before, dict)):
        return False
    return any(
        k in report and report[k] == before[k] and type(report[k]) is not type(before[k])
        for k in before
    )


def test_checker_agrees_with_the_frozen_reference_under_mutation():
    # 1050 certificates, each checked as written and under three random
    # mutations: the same ok every time, and the same reason except where the
    # old reason is an interpreter message, where the old checker refused a
    # composite prime before the report that now refuses it, or where a
    # report field was swapped for an equal value of another type, which the
    # old checker accepted and the checker refuses by its report.
    rng = random.Random(9)
    outcomes = {m.__name__: [0, 0] for m in MUTATIONS}
    irreducible = python_messages = prime_last = retyped = 0
    for cert in _certificates(rng, 1050):
        irreducible += cert.irreducible
        text = json.dumps(certificate_to_json(cert))
        variants = [(None, json.loads(text))]
        for mutate in rng.sample(MUTATIONS, 3):
            variants.append((mutate.__name__, mutate(json.loads(text), rng)))
        for name, data in variants:
            got = validate_certificate_json(data)
            want = reference_validate_certificate_json(data)
            if _python_message(want[1]):
                python_messages += 1
                arity = f"transform must have 4 entries, got {len(data['transform'])}"
                want = (False, f"malformed certificate: {arity}")
            if _refused_before_the_prime_test(got, want):
                prime_last += 1
                want = got
            if name == "_wrong_type" and want[0] and _report_retyped(data, variants[0][1]):
                assert not got[0] and got[1].startswith("stored report "), (data, got)
                retyped += 1
                want = got
            assert got == want, (data, got, want)
            if name is None:
                assert got[0], (data, got)
            else:
                outcomes[name][got[0]] += 1
    assert irreducible > 900 and python_messages > 0, (irreducible, python_messages)
    assert prime_last > 0 and retyped > 0, (prime_last, retyped)
    # Every mutation ran and was mostly rejected.  Some are harmless: a key
    # dropped from an inconclusive certificate that must be null anyway, or a
    # neighbouring prime at which the witness is Eisenstein-Dumas too.
    for name, (rejected, accepted) in outcomes.items():
        assert rejected > 300 and accepted < rejected / 10, (name, rejected, accepted)
