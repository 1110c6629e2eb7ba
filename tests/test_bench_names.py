"""The names the benchmark in bench/ calls and traces must exist in edcert.

bench/harness.py resolves its API_NAMES on the package, and bench/tracing.py
wraps each of its TARGETS by module and attribute name.  A target that is
renamed or deleted is skipped silently there, and the layer metrics that need
it read null, so this checks the whole set.
"""

import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from edcert import FormalPoly, upper_transform
from helpers import mat

BENCH = Path(__file__).resolve().parent.parent / "bench"

# harness.load_api() drops and re-imports every edcert module, so it runs in a
# child process: in this one it would leave a second copy of each class.
_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import harness, tracing
tracer = tracing.Tracer([harness.load_api()])
tracer.install()
tracer.uninstall()
expected = {t.name for t in tracing.TARGETS}
print("missing:", sorted(expected - tracer.present))
sys.exit(0 if tracer.present == expected else 1)
"""


def test_benchmark_finds_every_name_it_calls_and_traces():
    run = subprocess.run(
        [sys.executable, "-c", _CHECK, str(BENCH)], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == "missing: []\n"


def test_tracer_tells_the_kinds_of_action_apart(monkeypatch):
    # tracing._act_kind reads the fields a, b, c, d of Mat2 to name an act
    # span: a zero among them makes it triangular, none a full matrix.
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    A = FormalPoly(3, (1, 2, 3))
    for g in (upper_transform(A)[0], mat(1, Fraction(-2, 9), 0, 1), mat(3, 0, Fraction(1, 2), 2)):
        assert tracing._act_kind((A, g)) == "moebius.act.triangular", g
    for g in (mat(Fraction(1, 2), -3, 5, 4), mat(1, Fraction(-22, 3), 1, 1)):
        assert tracing._act_kind((A, g)) == "moebius.act.full", g
