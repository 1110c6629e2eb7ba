"""Time bounds by degree for the kernels every certificate passes through.

One seeded dense input of degree 300 with 20-digit coefficients.  Its
a_{n-1} is drawn prime to 30, so that 2, 3 and 5 all divide the denominator
of the shift -a_{n-1}/(n a_n) that builds U(A): U(A)'s numerators then carry
valuations in the hundreds at each of these primes, the case where valuing
one division per unit took seconds.  On a 2-vCPU VM the kernels took about
85 ms (U(A)), 8-15 ms (is_ed) and 50-75 ms (newton_polygon); each bound is at
least four times that, and each is taken as the best of three runs.

The checker is timed on a valid stage-2 certificate of A = E(x+1), for E
Eisenstein at 3 with 20-digit coefficients and e_n = 1, built from
upper_transform and is_ed: certify_search would spend minutes factoring the
endpoint ratios at this degree.  Its transform is the shear of U(A), which
the checker decides by the triangular identity.  On the same VM it took
4-8 ms at n = 100 and 28-55 ms at n = 200 as the host's speed varied,
against 13-22 ms and 93-182 ms when it evaluated both sides at n+1 points;
each bound is at least three times the slowest figure.
"""

import math
import random
import time

import pytest

from edcert import (
    Certificate,
    FormalPoly,
    PAdic,
    Verdict,
    certificate_to_json,
    is_ed,
    newton_polygon,
    upper_transform,
    validate_certificate_json,
)


def _dense_input(n: int, seed: int) -> FormalPoly:
    rng = random.Random(seed)

    def draw() -> int:
        return rng.choice((-1, 1)) * rng.randrange(10**19, 10**20)

    cs = [draw() for _ in range(n + 1)]
    while math.gcd(cs[n - 1], 30) != 1:
        cs[n - 1] = draw()
    return FormalPoly.from_coeffs(cs)


def _best_of_three(f, bound: float) -> float:
    """The fastest of up to three timed calls of f, stopping at the first
    call under bound."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
        if best < bound:
            break
    return best


@pytest.fixture(scope="module")
def dense_300():
    A = _dense_input(300, 300)
    return A, upper_transform(A)[1]


def test_upper_transform_at_degree_300(dense_300):
    A, _ = dense_300
    assert _best_of_three(lambda: upper_transform(A), 0.5) < 0.5


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_ed_at_degree_300(dense_300, p):
    _, U = dense_300
    v = PAdic(p)
    assert _best_of_three(lambda: is_ed(U, v), 0.1) < 0.1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_newton_polygon_at_degree_300(dense_300, p):
    _, U = dense_300
    v = PAdic(p)
    assert _best_of_three(lambda: newton_polygon(U, v), 0.3) < 0.3


def shifted_eisenstein_certificate(n: int, seed: int) -> dict:
    """The JSON certificate of A = E(x+1) by its U(A) at 3, where E has
    leading coefficient 1 and other coefficients 3 times 19-digit integers,
    the constant prime to 9."""
    rng = random.Random(seed)
    e = [3 * rng.choice((-1, 1)) * rng.randrange(10**18, 10**19) for _ in range(n)] + [1]
    while e[0] % 9 == 0:
        e[0] += 3
    A = FormalPoly.from_coeffs(e).taylor_shift(1)
    g, U = upper_transform(A)
    report = is_ed(U, PAdic(3))
    return certificate_to_json(Certificate(A, Verdict.IRREDUCIBLE, 3, 2, g, U, report))


@pytest.mark.parametrize("n, bound", [(100, 0.025), (200, 0.175)])
def test_verify_by_degree(n, bound):
    data = shifted_eisenstein_certificate(n, n)
    assert data["transform"][2] == "0" and data["transform"][1] != "0"
    assert validate_certificate_json(data) == (True, "witness is Eisenstein-Dumas at p = 3")
    assert _best_of_three(lambda: validate_certificate_json(data), bound) < bound
