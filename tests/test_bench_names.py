"""The names the benchmark in bench/ calls and traces must exist in edcert.

bench/harness.py resolves its API_NAMES on the package, and bench/tracing.py
wraps each of its TARGETS by module and attribute name.  A target that is
renamed or deleted is skipped silently there, and the layer metrics that need
it read null, so this checks the whole set.
"""

import subprocess
import sys
from pathlib import Path

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
