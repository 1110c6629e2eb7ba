"""Seeded inputs of the three benchmark workloads, as integer coefficient lists.

Each workload is a fixed list of inputs made by a seeded generator here, and
``reference/<workload>.json`` holds the committed answer for each of them.  A
run's ``--seed`` sets the order in which a pass visits the inputs; it does
not pick a subset.  Subsets were tried and rejected: the certify latencies of
mixed-lowdeg split into inputs that build the stage-4 family and inputs that
do not, with the median on the cliff between them, and dense-search has too
few inputs for its 90th percentile to survive a change of subset.

This module imports nothing from edcert: the program sees only the lists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Input:
    """One benchmark input: a stable id and coefficients a_0..a_n."""

    id: str
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def taylor_shift(coeffs: list[int], s: int) -> list[int]:
    """Coefficients of A(x + s) for integer A and s."""
    out = [0] * len(coeffs)
    for k, a in enumerate(coeffs):
        for i in range(k + 1):
            out[i] += math.comb(k, i) * a * s ** (k - i)
    return out


# -- mixed-lowdeg: the acceptance-criterion-13 recipe ------------------------

_ED_PRIMES = (2, 3, 5, 7, 11, 13)


def _ed_draw(rng: random.Random) -> list[int]:
    """One Eisenstein-Dumas-by-construction draw: degree 2-6, max_unit=6,
    max_endpoint_val=2, extra_val=1, interior zeros with probability 0.15.

    Makes the same calls on ``rng`` as the criterion-13 generator, so the
    draws are that test's draws.
    """
    n = rng.choice(range(2, 7))
    p = rng.choice(_ED_PRIMES)
    while True:
        v0 = rng.randint(0, 2)
        vn = rng.randint(0, 2)
        if math.gcd(v0 - vn, n) == 1:
            break

    def unit() -> int:
        while True:
            u = rng.randint(-6, 6)
            if u != 0 and u % p != 0:
                return u

    coeffs = []
    for i in range(n + 1):
        if i == 0:
            e = v0
        elif i == n:
            e = vn
        else:
            if rng.random() < 0.15:
                coeffs.append(0)
                continue
            e = -(-((n - i) * v0 + i * vn) // n) + rng.randint(0, 1)
        coeffs.append(p**e * unit())
    return coeffs


def mixed_lowdeg_inputs(size: int = 300, gen_seed: int = 1013) -> list[Input]:
    """Criterion-13 draws; every third draw is Taylor-shifted by +-1."""
    rng = random.Random(gen_seed)
    out = []
    for draw in range(1, size + 1):
        coeffs = _ed_draw(rng)
        if draw % 3 == 0:
            coeffs = taylor_shift(coeffs, rng.choice((-1, 1)))
        out.append(Input(f"mixed-lowdeg/{draw:04d}", tuple(coeffs)))
    return out


# -- cyclo-shift: shifted cyclotomic polynomials ------------------------------


def cyclo_shift_inputs() -> list[Input]:
    """Phi_p(x + k) for p in {7, 11, 13} and k in [-4, 4]."""
    return [
        Input(f"cyclo-shift/p{p}k{k:+d}", tuple(taylor_shift([1] * p, k)))
        for p in (7, 11, 13)
        for k in range(-4, 5)
    ]


# -- dense-search: random dense integer polynomials ---------------------------


def dense_search_inputs(per_degree: int = 3, gen_seed: int = 6010) -> list[Input]:
    """Degree 6-10, coefficients uniform in [-50, 50], nonzero endpoints."""
    rng = random.Random(gen_seed)
    out = []
    for n in range(6, 11):
        for j in range(per_degree):
            coeffs = [rng.randint(-50, 50) for _ in range(n + 1)]
            for end in (0, n):
                while coeffs[end] == 0:
                    coeffs[end] = rng.randint(-50, 50)
            out.append(Input(f"dense-search/d{n}-{j}", tuple(coeffs)))
    return out


WORKLOADS = {
    "mixed-lowdeg": mixed_lowdeg_inputs,
    "cyclo-shift": cyclo_shift_inputs,
    "dense-search": dense_search_inputs,
}


def inputs(workload: str) -> list[Input]:
    return WORKLOADS[workload]()


def order(workload: str, inputs: list[Input], seed: int) -> list[Input]:
    """The inputs in the order one seed's passes visit them."""
    shuffled = list(inputs)
    random.Random(f"{workload}/{seed}").shuffle(shuffled)
    return shuffled
