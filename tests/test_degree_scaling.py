"""Time bounds by degree for the kernels every certificate passes through.

One seeded dense input of degree 300 with 20-digit coefficients.  Its
a_{n-1} is drawn prime to 30, so that 2, 3 and 5 all divide the denominator
of the shift -a_{n-1}/(n a_n) that builds U(A): U(A)'s numerators then carry
valuations in the hundreds at each of these primes, the case where valuing
one division per unit took seconds.  On a 2-vCPU VM the kernels took about
85 ms (U(A)), 8-15 ms (is_ed) and 50-75 ms (newton_polygon); each bound is at
least four times that, and each is taken as the best of three runs.
"""

import math
import random
import time

import pytest

from edcert import FormalPoly, PAdic, is_ed, newton_polygon, upper_transform


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
