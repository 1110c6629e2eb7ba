"""edcert benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mixed-lowdeg --seed 1 --seconds 40 --trace 0

One process, one thread, closed loop: a single caller issues each request
after the previous one returns.  A request is one input:

  certify  certify_search -> certificate_to_json -> json.dumps
  verify   json.loads -> validate_certificate_json

Every answer is checked against ``reference/<workload>.json``: an input fails
when certify raises, when its certificate is rejected, or when its verdict,
prime, stage, transform or witness differs from the reference.  A changed
certificate digest with the same core answer is listed, not failed.

Times are per-input medians over repeated passes after an untimed warm-up,
each sample scaled for host speed (see ``kernel_s``).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs half the time untraced and half
traced, and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object; the lines before it are a table,
and ``out/`` gets a JSON file with the environment, per-input rows, raw and
scaled times, and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import corpus
import harness
import tracing

SETUP_REPEATS = 9
WARM_UP_SHARE = 0.1
# In an end-to-end pass a cheap input is called again until its calls took
# this long (at most MAX_REPEATS calls), so the inputs near the median, which
# cost a few ms each, get enough samples for a steady per-input median.
REPEAT_S = 0.010
MAX_REPEATS = 8
# Seed kept out of every run made while tuning the benchmark.
HELD_OUT_SEED = 9001
OUT_DIR = Path(__file__).resolve().parent / "out"

# The speed kernel's time on the reference host (its median on the 2-vCPU
# VM the benchmark was defined on).
KERNEL_REF_S = 0.85e-3

# Metric: (unit, better).  END_TO_END are the bounded metrics; INFO ones can
# be 0, so they are printed and enforced through ``failed`` instead.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "certify_per_s": ("1/s", "higher"),
    "certify_p50_ms": ("ms", "lower"),
    "certify_p90_ms": ("ms", "lower"),
    "verify_p50_ms": ("ms", "lower"),
    "verify_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
INFO = {
    "certified_ratio": ("ratio", "higher"),
    "incomplete_ratio": ("ratio", "lower"),
    "failed_ratio": ("ratio", "lower"),
}


def kernel_s() -> float:
    """Seconds a fixed piece of Fraction arithmetic takes right now.

    The collector is off so the kernel's cost does not depend on how many
    objects the program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 150):
            acc = acc * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
            acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Kernel times taken between the timed calls of a run.

    The host's speed drifts by up to 2x within seconds (CPU time tracks wall
    time, so it is not scheduling).  Each timed sample is multiplied by
    KERNEL_REF_S over the mean of the kernel times just before and just after
    it.  In probes this cut the spread of a pass's time from 33% to 2%, and
    the spread of one input's samples from 60% to 9% on mixed-lowdeg and
    from 29% to 17% on cyclo-shift.  The median of the six nearest kernels
    did worse on both.
    """

    def __init__(self):
        self.kernels: list[float] = []

    def tick(self) -> int:
        """Time the kernel now; returns its index."""
        self.kernels.append(kernel_s())
        return len(self.kernels) - 1

    def scale(self, i: int) -> float:
        """Scale of a sample taken between kernel i and kernel i + 1."""
        return 2 * KERNEL_REF_S / (self.kernels[i] + self.kernels[i + 1])


def setup(workload: str, seed: int):
    """Import edcert, generate the inputs, load the reference."""
    api = harness.load_api()
    inputs = corpus.inputs(workload)
    reference = harness.load_reference(workload, inputs)
    ordered = corpus.order(workload, inputs, seed)
    polys = [api.FormalPoly.from_coeffs(item.coeffs) for item in ordered]
    return api, ordered, polys, reference


class Run:
    """Timed, checked calls over one workload's inputs."""

    def __init__(self, api, inputs, polys, reference, speed: HostSpeed):
        self.api, self.inputs, self.polys, self.reference = api, inputs, polys, reference
        self.speed = speed
        self.tracer: tracing.Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.digest_changed: set[str] = set()
        self.answers: dict[str, dict] = {}
        self.reset_samples()

    def reset_samples(self) -> None:
        # Per input and call: (certify seconds, verify seconds, kernel index).
        self.samples: list[list[tuple[float, float, int]]] = [[] for _ in self.inputs]

    def _fail(self, k: int, reason: str) -> None:
        item_id = self.inputs[k].id
        self.failed += 1
        if item_id not in self.failures:
            print(f"FAILED {item_id}: {reason}", file=sys.stderr)
        self.failures[item_id] = reason

    def call(self, k: int) -> tuple[float, float]:
        """Certify and verify input k and check the answer; returns the raw
        certify and verify seconds."""
        if self.tracer is not None:
            self.tracer.input = k
        self.attempted += 1
        t0 = perf_counter()
        try:
            cert, text = harness.certify(self.api, self.polys[k])
            t1 = perf_counter()
            ok, reason = harness.verify(self.api, text)
            t2 = perf_counter()
        except Exception:  # a failing input is counted and reported; the run goes on
            t1 = t2 = perf_counter()
            ok, reason, cert = False, traceback.format_exc(limit=3), None
        if cert is None:
            self._fail(k, f"raised: {reason}")
            return t1 - t0, t2 - t1
        got = harness.answer(cert, text)
        ref = self.reference[self.inputs[k].id]
        self.answers[self.inputs[k].id] = got
        if not ok:
            self._fail(k, f"certificate rejected: {reason}")
        elif mismatch := harness.core_mismatch(got, ref):
            self._fail(k, f"differs from the reference in {', '.join(mismatch)}")
        elif got["sha256"] != ref["sha256"]:
            self.digest_changed.add(self.inputs[k].id)
        return t1 - t0, t2 - t1

    def measure(self, k: int, repeat_s: float) -> None:
        """Call input k, again while its calls took less than ``repeat_s``,
        and record the samples with the index of the kernel before them."""
        before = len(self.speed.kernels) - 1
        times = [self.call(k)]
        while sum(c + v for c, v in times) < repeat_s and len(times) < MAX_REPEATS:
            times.append(self.call(k))
        self.speed.tick()
        self.samples[k].extend((c, v, before) for c, v in times)

    def passes(self, seconds: float, whole: bool, repeat_s: float = 0.0, after_pass=None) -> int:
        """Repeat passes over the inputs for ``seconds``; the first pass
        always completes.  Otherwise a pass stops at the deadline, or, with
        ``whole``, starts only if a pass as long as the last one fits."""
        deadline = perf_counter() + seconds
        self.speed.tick()
        done = 0
        while True:
            started = perf_counter()
            for k in range(len(self.inputs)):
                if done and not whole and perf_counter() >= deadline:
                    return done
                self.measure(k, repeat_s)
            done += 1
            if after_pass is not None:
                after_pass()
            now = perf_counter()
            if now >= deadline or (whole and 2 * now - started > deadline):
                return done

    def warm_up(self, seconds: float) -> None:
        """Untimed calls in pass order until ``seconds`` pass (at least one)."""
        deadline = perf_counter() + seconds
        for k in range(len(self.inputs)):
            self.call(k)
            if perf_counter() >= deadline:
                return

    def per_input(self, field: int, scaled: bool = True) -> list[float]:
        """Per-input median seconds of certify (0) or verify (1)."""
        scale = self.speed.scale if scaled else lambda i: 1.0
        return [statistics.median(s[field] * scale(s[2]) for s in per) for per in self.samples]

    def certify_per_s(self, scaled: bool = True) -> float:
        return len(self.inputs) / sum(self.per_input(0, scaled))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def workload_why(workload: str) -> str | None:
    """Why the workload was chosen, as BENCHMARK.json states it."""
    try:
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec["workloads"] if w["name"] == workload), None)


def git_rev() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = harness.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(api) -> dict:
    config = api.SearchConfig()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(harness.SRC.rglob("*.py"))
        ),
        "trial_bound": getattr(config, "trial_bound", None),
        "rho_budget": getattr(config, "rho_budget", None),
        "held_out_seed": HELD_OUT_SEED,
        "kernel_ref_ms": KERNEL_REF_S * 1e3,
        "loop": "closed, 1 caller, 1 process, 1 thread",
    }


def end_to_end(run: Run, setup_times: list[tuple[float, int]], scaled: bool) -> dict[str, float]:
    certify = run.per_input(0, scaled)
    verify = run.per_input(1, scaled)
    answers = [run.answers.get(item.id) for item in run.inputs]
    n = len(run.inputs)
    return {
        "setup_s": statistics.median(
            raw * (run.speed.scale(i) if scaled else 1.0) for raw, i in setup_times
        ),
        "certify_per_s": n / sum(certify),
        "certify_p50_ms": statistics.median(certify) * 1e3,
        "certify_p90_ms": p90(certify) * 1e3,
        "verify_p50_ms": statistics.median(verify) * 1e3,
        "verify_p90_ms": p90(verify) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "certified_ratio": sum(1 for a in answers if a and a["verdict"] == "irreducible") / n,
        "incomplete_ratio": sum(1 for a in answers if a and not a["complete"]) / n,
        "failed_ratio": len(run.failures) / n,
    }


def input_rows(run: Run) -> list[dict]:
    certify, verify = run.per_input(0), run.per_input(1)
    rows = []
    for k, item in enumerate(run.inputs):
        got = run.answers.get(item.id, {})
        rows.append({
            "id": item.id,
            "degree": item.degree,
            "verdict": got.get("verdict"),
            "prime": got.get("prime"),
            "stage": got.get("stage"),
            "complete": got.get("complete"),
            "certify_ms": certify[k] * 1e3,
            "verify_ms": verify[k] * 1e3,
            "samples": len(run.samples[k]),
            "failed": run.failures.get(item.id),
            "digest_changed": item.id in run.digest_changed,
        })
    return rows


def traced_half(run: Run, seconds: float) -> tuple[dict, int, tracing.Tracer]:
    """Traced passes; returns per-layer metrics, pass count and the tracer."""
    tracer = tracing.Tracer([run.api])
    stats: list[tracing.PassStats] = []
    run.reset_samples()
    run.tracer = tracer
    tracer.install()
    try:
        passes = run.passes(
            seconds,
            whole=True,
            after_pass=lambda: stats.append(
                tracer.take_pass([run.speed.scale(s[-1][2]) for s in run.samples])
            ),
        )
    finally:
        tracer.uninstall()
        run.tracer = None
    return tracing.layer_metrics(stats, tracer.present), passes, tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        speed = HostSpeed()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            before = speed.tick()
            t0 = perf_counter()
            api, inputs, polys, reference = setup(args.workload, args.seed)
            setup_times.append((perf_counter() - t0, before))
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run = Run(api, inputs, polys, reference, speed)
    run.warm_up(args.seconds * WARM_UP_SHARE)
    measure = args.seconds * (1 - WARM_UP_SHARE)
    result = {
        "workload": args.workload,
        "why": workload_why(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(api),
    }
    if args.trace:
        run.passes(measure / 2, whole=True)
        untraced = run.certify_per_s()
        layers, passes, tracer = traced_half(run, measure / 2)
        traced = run.certify_per_s()
        layers["trace.untraced_certify_per_s"] = {"value": untraced, "unit": "1/s"}
        layers["trace.traced_certify_per_s"] = {"value": traced, "unit": "1/s"}
        layers["trace.overhead_ratio"] = {"value": untraced / traced - 1, "unit": "ratio"}
        metrics = layers
        result["layer_metrics"] = layers
        result["layer_map"] = tracing.LAYER_MAP
        stem = f"{args.workload}-seed{args.seed}-trace1"
        OUT_DIR.mkdir(exist_ok=True)
        result["spans_written"] = tracer.write_last_pass(
            OUT_DIR / f"{stem}-spans.tsv.gz", [item.id for item in inputs]
        )
    else:
        passes = run.passes(measure, whole=False, repeat_s=REPEAT_S)
        scaled = end_to_end(run, setup_times, scaled=True)
        raw = end_to_end(run, setup_times, scaled=False)
        metrics = {k: {"value": scaled[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
        result["end_to_end"] = {
            k: {"value": scaled[k], "raw": raw[k], "unit": unit, "better": better}
            for k, (unit, better) in (END_TO_END | INFO).items()
        }
        stem = f"{args.workload}-seed{args.seed}-trace0"
    result.update({
        "setup_s_each": [{"raw": r, "scale": speed.scale(i)} for r, i in setup_times],
        "timed_passes": passes,
        "inputs": input_rows(run),
        "digest_only_changes": sorted(run.digest_changed),
        "failures": run.failures,
    })

    print(f"workload {args.workload}  seed {args.seed}  inputs {len(inputs)}  "
          f"timed passes {passes}  calls {run.attempted}  failed inputs {len(run.failures)}")
    if args.trace:
        for name, m in metrics.items():
            shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:40s} {shown:>12s} {m['unit']}")
    else:
        print(f"  {'metric':18s} {'value':>12s} {'raw':>12s} unit")
        for name, m in result["end_to_end"].items():
            print(f"  {name:18s} {m['value']:12.6g} {m['raw']:12.6g} {m['unit']:6s}"
                  f" {m['better']} is better")
    if run.digest_changed:
        print(f"  digest-only changes: {', '.join(sorted(run.digest_changed))}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
