"""The certificate checker: independence from the search, and agreement with
the checker it replaced under mutation."""

import ast
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

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
    validate_certificate_json,
)
from edcert.cli import parse_poly
from helpers import (
    padic,
    random_dense_mat,
    random_ed_polynomial,
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

    def flipped(A, a, b, c, d):
        return substitute(A, a, -b, c, d)

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


def _conjugate_certificate(rng: random.Random) -> Certificate:
    """Certificate of B = E h for E Eisenstein-Dumas at p and h with four
    nonzero entries: transform h^-1, witness E."""
    E, p = random_ed_polynomial(rng, max_degree=6, max_unit=6, max_endpoint_val=2, extra_val=1)
    h = random_dense_mat(rng, 5)
    B, g = act(E, h), h.inverse()
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
    Mat2's arity TypeError for a transform not of four entries."""
    return "Mat2.__init__()" in reason


def test_checker_agrees_with_the_frozen_reference_under_mutation():
    # 1050 certificates, each checked as written and under three random
    # mutations: the same ok every time, and the same reason except where the
    # old reason is an interpreter message.
    rng = random.Random(9)
    outcomes = {m.__name__: [0, 0] for m in MUTATIONS}
    irreducible = python_messages = 0
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
            assert got == want, (data, got, want)
            if name is None:
                assert got[0], (data, got)
            else:
                outcomes[name][got[0]] += 1
    assert irreducible > 900 and python_messages > 0, (irreducible, python_messages)
    # Every mutation ran and was mostly rejected.  Some are harmless: a key
    # dropped from an inconclusive certificate that must be null anyway, or a
    # neighbouring prime at which the witness is Eisenstein-Dumas too.
    for name, (rejected, accepted) in outcomes.items():
        assert rejected > 300 and accepted < rejected / 10, (name, rejected, accepted)
