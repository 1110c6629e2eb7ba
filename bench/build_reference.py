"""Rebuild ``reference/<workload>.json``: the answer of this tree for every
input, after cross-checking it independently of the search.

    python3 bench/build_reference.py [workload ...]

Each row holds the input, its core answer (verdict, prime, stage, transform,
witness), the completeness flag of the candidate primes, and the sha256 of
the certificate JSON text.  Rebuilding is a change of the benchmark: say in
CHANGES.md why the answers moved.
"""

from __future__ import annotations

import json
import sys
import time

import corpus
import harness


def check_cyclo(rows: list[dict]) -> None:
    """Every Phi_p(x + k) is certified at the prime p itself."""
    for row in rows:
        p = len(row["coeffs"])
        if row["verdict"] != "irreducible" or row["prime"] != str(p):
            raise AssertionError(f"{row['id']}: expected a certificate at p = {p}, got {row}")


def check_oracle(api, rows: list[dict]) -> None:
    """The brute-force factor search confirms every irreducible verdict."""
    from edcert.oracle import brute_irreducible

    for row in rows:
        if row["verdict"] != "irreducible":
            continue
        if not brute_irreducible(api.FormalPoly.from_coeffs(row["coeffs"])).irreducible:
            raise AssertionError(f"{row['id']}: certified irreducible, but the oracle factors it")


def build(workload: str) -> list[dict]:
    api = harness.load_api()
    rows = []
    for item in corpus.inputs(workload):
        cert, text = harness.certify(api, api.FormalPoly.from_coeffs(item.coeffs))
        ok, reason = harness.verify(api, text)
        if not ok:
            raise AssertionError(f"{item.id}: certificate rejected: {reason}")
        rows.append({"id": item.id, "coeffs": list(item.coeffs), **harness.answer(cert, text)})
    if workload == "cyclo-shift":
        check_cyclo(rows)
    if workload == "mixed-lowdeg":
        check_oracle(api, rows)
    return rows


def write(workload: str, rows: list[dict]) -> None:
    path = harness.REFERENCE_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    body = ",\n".join(json.dumps(row) for row in rows)
    with open(path, "w") as fh:
        fh.write(f'{{"workload": {json.dumps(workload)}, "inputs": [\n{body}\n]}}\n')


def main(argv: list[str]) -> int:
    for workload in argv or list(corpus.WORKLOADS):
        t0 = time.perf_counter()
        rows = build(workload)
        write(workload, rows)
        counts: dict[tuple, int] = {}
        for row in rows:
            key = (row["verdict"], row["stage"])
            counts[key] = counts.get(key, 0) + 1
        print(f"{workload}: {len(rows)} inputs {counts} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
