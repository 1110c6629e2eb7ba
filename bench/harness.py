"""Calls into edcert's public API and comparison with the committed reference.

edcert is imported from the ``src`` directory of the checkout this file sits
in, never from elsewhere on the path, so a run always measures this tree.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Public names the benchmark calls, looked up on the package first and then
# on any loaded edcert module, so moving one between modules keeps it found.
API_NAMES = (
    "FormalPoly",
    "SearchConfig",
    "certify_search",
    "certificate_to_json",
    "validate_certificate_json",
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, no reference, bad input)."""


def load_api() -> SimpleNamespace:
    """(Re-)import edcert from ``src`` and resolve the names in API_NAMES.

    Modules already imported are dropped first, so each call pays the whole
    import again; set-up is timed over several calls.
    """
    if not (SRC / "edcert" / "__init__.py").is_file():
        raise BenchError(f"no edcert package under {SRC}")
    for name in [m for m in sys.modules if m == "edcert" or m.startswith("edcert.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("edcert")
    if Path(package.__file__).resolve().parent != (SRC / "edcert").resolve():
        raise BenchError(f"edcert was imported from {package.__file__}, not from {SRC}")
    importlib.import_module("edcert.cli")
    modules = [package] + [
        m for n, m in sorted(sys.modules.items()) if n.startswith("edcert.") and m is not None
    ]
    api = SimpleNamespace()
    for name in API_NAMES:
        found = next((getattr(m, name) for m in modules if hasattr(m, name)), None)
        if found is None:
            raise BenchError(f"edcert has no {name}")
        setattr(api, name, found)
    return api


def certify(api: SimpleNamespace, poly):
    """The timed certify operation: search, JSON form, JSON text."""
    cert = api.certify_search(poly)
    return cert, json.dumps(api.certificate_to_json(cert))


def verify(api: SimpleNamespace, text: str) -> tuple[bool, str]:
    """The timed verify operation: parse the JSON text and re-check it."""
    return api.validate_certificate_json(json.loads(text))


def answer(cert, text: str) -> dict:
    """The reference row of one certificate: its core fields and digest."""
    data = json.loads(text)
    return {
        "verdict": data["verdict"],
        "prime": data["prime"],
        "stage": cert.stage,
        "transform": data["transform"],
        "witness": data["witness_coeffs"],
        "complete": cert.candidate_primes_complete,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


CORE = ("verdict", "prime", "stage", "transform", "witness")


def core_mismatch(got: dict, ref: dict) -> list[str]:
    """Names of the core fields in which ``got`` differs from ``ref``."""
    return [k for k in CORE if got[k] != ref[k]]


def load_reference(workload: str, inputs) -> dict[str, dict]:
    """Reference rows by input id; the generated inputs must match the committed ones."""
    path = REFERENCE_DIR / f"{workload}.json"
    try:
        with open(path) as fh:
            rows = json.load(fh)["inputs"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read reference {path}: {exc}") from None
    by_id = {row["id"]: row for row in rows}
    for item in inputs:
        row = by_id.get(item.id)
        if row is None or tuple(row["coeffs"]) != item.coeffs:
            raise BenchError(f"reference {path} does not match the generated input {item.id}")
    return by_id
