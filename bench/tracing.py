"""Per-layer tracing of edcert from outside the package.

Each traced public function is replaced, at every module attribute (or class
attribute) it is bound to, by a wrapper that records a span: name, start,
end, parent span and input index.  The package's own code is not edited.
Spans are kept in memory per pass, folded into per-name call counts, total
time and self time (duration minus the time covered by child spans), and the
spans of the last pass are written out at the end.

A traced name that no longer exists (a refactor removed or moved it) is
skipped, and the layer metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _factor_seen(result, counters):
    if result.cofactor != 1:
        counters["exact_arith.factor.incomplete"] += 1


def _is_ed_seen(result, counters):
    if result.verdict:
        counters["newton_ed.is_ed.hits"] += 1


def _candidates_seen(result, counters):
    counters["certify.candidate_primes.primes"] += len(result.primes)


def _search_seen(result, counters):
    if result.stage == 4:
        counters["certify.stage4_hits"] += 1


def _act_kind(args) -> str:
    """Span name of one act call: full matrix or one with a zero entry."""
    try:
        g = args[1]
        full = all(x != 0 for x in (g.a, g.b, g.c, g.d))
    except (IndexError, AttributeError):
        return "moebius.act"
    return "moebius.act.full" if full else "moebius.act.triangular"


@dataclass(frozen=True)
class Target:
    """A traced callable: span name, defining module, and ``name`` or
    ``Class.method`` within it."""

    name: str
    module: str
    attr: str
    observe: Callable | None = None
    kind: Callable | None = None


TARGETS = (
    Target("bench.certify", "harness", "certify"),
    Target("bench.verify", "harness", "verify"),
    Target("exact_arith.factor", "edcert.exact_arith", "factor", observe=_factor_seen),
    Target("valuation.PAdic", "edcert.valuation", "PAdic.__init__"),
    Target("valuation.val", "edcert.valuation", "PAdic.val"),
    Target("poly.eval", "edcert.poly", "FormalPoly.eval"),
    Target("poly.taylor_shift", "edcert.poly", "FormalPoly.taylor_shift"),
    Target("moebius.act", "edcert.moebius", "act", kind=_act_kind),
    Target("newton_ed.is_ed", "edcert.newton_ed", "is_ed", observe=_is_ed_seen),
    Target(
        "certify.candidate_primes", "edcert.certify", "candidate_primes", observe=_candidates_seen
    ),
    Target("certify.upper_transform", "edcert.certify", "upper_transform"),
    Target("certify.lower_transform", "edcert.certify", "lower_transform"),
    Target("certify.default_t_grid", "edcert.certify", "default_t_grid"),
    Target("certify.one_param_member", "edcert.certify", "one_param_member"),
    Target("certify.certify_search", "edcert.certify", "certify_search", observe=_search_seen),
    Target("cli.certificate_to_json", "edcert.cli", "certificate_to_json"),
    Target("cli.validate_certificate_json", "edcert.cli", "validate_certificate_json"),
    Target("cli.parse_poly", "edcert.cli", "parse_poly"),
)


@dataclass
class PassStats:
    """One traced pass, folded by span name."""

    calls: dict[str, int]
    total_ms: dict[str, float]
    self_ms: dict[str, float]
    counters: dict[str, int]


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self, namespaces: list[object]):
        self.namespaces = namespaces  # extra objects holding API references
        self.present: set[str] = set()
        self.input = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._reset()

    def _reset(self):
        self._name = array("i")
        self._parent = array("i")
        self._input = array("i")
        self._start = array("d")
        self._end = array("d")
        self.counters = {
            "exact_arith.factor.incomplete": 0,
            "newton_ed.is_ed.hits": 0,
            "certify.candidate_primes.primes": 0,
            "certify.stage4_hits": 0,
        }

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._input.append(self.input)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, target: Target):
        tracer, observe, kind = self, target.observe, target.kind
        nid = self._id(target.name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(nid if kind is None else tracer._id(kind(args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if observe is not None:
                observe(result, tracer.counters)
            return result

        return traced

    def _rebind(self, owner, fn, wrapped) -> None:
        for attr, value in list(vars(owner).items()):
            if value is fn:
                self._restore.append((owner, attr, value))
                setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every target that exists; remember which did."""
        for target in TARGETS:
            module = sys.modules.get(target.module)
            owner_name, _, method = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = vars(owner).get(method) if owner is not None else None
            if fn is None:
                continue
            self.present.add(target.name)
            wrapped = self._wrapper(fn, target)
            if owner_name:
                self._rebind(owner, fn, wrapped)
                continue
            holders = [m for n, m in sys.modules.items() if n.partition(".")[0] == "edcert"]
            for holder in holders + [module] + self.namespaces:
                self._rebind(holder, fn, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def take_pass(self, scales: list[float]) -> PassStats:
        """Fold the spans recorded since the last call into per-name totals,
        each duration multiplied by the host-speed scale of its input."""
        n = len(self._name)
        duration = [(self._end[i] - self._start[i]) * scales[self._input[i]] for i in range(n)]
        covered = [0.0] * n
        for i, parent in enumerate(self._parent):
            if parent >= 0:
                covered[parent] += duration[i]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, nid in enumerate(self._name):
            name = self._names[nid]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration[i] * 1e3
            own[name] = own.get(name, 0.0) + (duration[i] - covered[i]) * 1e3
        stats = PassStats(calls, total, own, dict(self.counters))
        self._last = (self._name, self._parent, self._input, self._start, self._end)
        self._reset()
        return stats

    def write_last_pass(self, path, input_ids: list[str]) -> int:
        """Write the last folded pass as gzip TSV; returns the span count."""
        names, parents, inputs, starts, ends = self._last
        t0 = starts[0] if starts else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\tinput\n")
            for i in range(len(names)):
                fh.write(
                    f"{i}\t{self._names[names[i]]}\t{(starts[i] - t0) * 1e6:.1f}\t"
                    f"{(ends[i] - t0) * 1e6:.1f}\t{parents[i]}\t{input_ids[inputs[i]]}\n"
                )
        return len(names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(span: str, needs: str | None = None):
    return ("count", (needs or span,), lambda s: s.calls.get(span, 0))


def _self_ms(span: str, needs: str | None = None):
    return ("ms", (needs or span,), lambda s: s.self_ms.get(span, 0.0))


def _total_ms(span: str):
    return ("ms", (span,), lambda s: s.total_ms.get(span, 0.0))


def _counter(key: str, needs: str):
    return ("count", (needs,), lambda s: s.counters[key])


# Per-layer metric: (unit, span names it needs, value from one pass).  Times
# are per pass over the workload; a ratio is 0 when its base is 0.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], Callable[[PassStats], float]]] = {
    "exact_arith.factor.calls": _calls("exact_arith.factor"),
    "exact_arith.factor.self_ms": _self_ms("exact_arith.factor"),
    "exact_arith.factor.incomplete": _counter(
        "exact_arith.factor.incomplete", "exact_arith.factor"
    ),
    "valuation.PAdic.calls": _calls("valuation.PAdic"),
    "valuation.PAdic.ms": _total_ms("valuation.PAdic"),
    "valuation.val.calls": _calls("valuation.val"),
    "poly.eval.calls": _calls("poly.eval"),
    "poly.eval.self_ms": _self_ms("poly.eval"),
    "poly.taylor_shift.calls": _calls("poly.taylor_shift"),
    "moebius.act.full.calls": _calls("moebius.act.full", "moebius.act"),
    "moebius.act.full.self_ms": _self_ms("moebius.act.full", "moebius.act"),
    "moebius.act.triangular.calls": _calls("moebius.act.triangular", "moebius.act"),
    "moebius.act.triangular.self_ms": _self_ms("moebius.act.triangular", "moebius.act"),
    "newton_ed.is_ed.calls": _calls("newton_ed.is_ed"),
    "newton_ed.is_ed.self_ms": _self_ms("newton_ed.is_ed"),
    "newton_ed.is_ed.hit_ratio": (
        "ratio",
        ("newton_ed.is_ed",),
        lambda s: _ratio(s.counters["newton_ed.is_ed.hits"], s.calls.get("newton_ed.is_ed", 0)),
    ),
    "certify.candidate_primes.self_ms": _self_ms("certify.candidate_primes"),
    "certify.candidate_primes.primes": _counter(
        "certify.candidate_primes.primes", "certify.candidate_primes"
    ),
    "certify.transforms.calls": (
        "count",
        ("certify.upper_transform", "certify.lower_transform"),
        lambda s: s.calls.get("certify.upper_transform", 0)
        + s.calls.get("certify.lower_transform", 0),
    ),
    "certify.default_t_grid.calls": _calls("certify.default_t_grid"),
    "certify.default_t_grid.ms": _total_ms("certify.default_t_grid"),
    "certify.one_param_member.calls": _calls("certify.one_param_member"),
    "certify.one_param_member.self_ms": _self_ms("certify.one_param_member"),
    "certify.member_hit_ratio": (
        "ratio",
        ("certify.one_param_member", "certify.certify_search"),
        lambda s: _ratio(
            s.counters["certify.stage4_hits"], s.calls.get("certify.one_param_member", 0)
        ),
    ),
    "certify.certify_search.ms": _total_ms("certify.certify_search"),
    "certify.certify_search.self_ms": _self_ms("certify.certify_search"),
    "cli.certificate_to_json.ms": _total_ms("cli.certificate_to_json"),
    "cli.validate_certificate_json.self_ms": _self_ms("cli.validate_certificate_json"),
    "cli.parse_poly.ms": _total_ms("cli.parse_poly"),
}


def layer_metrics(passes: list[PassStats], present: set[str]) -> dict[str, dict]:
    """Median over traced passes of each per-pass layer metric; ``None``
    where a span the metric needs was not traced."""
    out = {}
    for name, (unit, needs, value) in LAYER_METRICS.items():
        ok = all(n in present for n in needs)
        out[name] = {
            "value": statistics.median(value(s) for s in passes) if ok else None,
            "unit": unit,
        }
    return out


# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MAP = {
    "exact_arith.factor.*": "certify_p50_ms and certify_per_s on cyclo-shift; "
    "little of certify_p50_ms on mixed-lowdeg",
    "valuation.PAdic.*": "certify_p50_ms on mixed-lowdeg; verify_p50_ms on every workload",
    "valuation.val.calls": "certify_per_s on dense-search",
    "poly.eval.*": "certify_per_s on dense-search",
    "poly.taylor_shift.calls": "0 today; nonzero once act is built on Taylor shifts",
    "moebius.act.full.*": "certify_per_s on dense-search and mixed-lowdeg; 0 on cyclo-shift",
    "moebius.act.triangular.*": "verify_p50_ms on cyclo-shift",
    "newton_ed.is_ed.*": "certify_per_s on dense-search",
    "certify.candidate_primes.*": "certify results on cyclo-shift",
    "certify.transforms.calls": "certify_p50_ms on cyclo-shift (4 per input today; 2 would do)",
    "certify.default_t_grid.*": "certify_p50_ms on mixed-lowdeg",
    "certify.one_param_member.*, certify.member_hit_ratio": "certify_per_s on dense-search "
    "and mixed-lowdeg",
    "cli.*": "verify_p50_ms",
}
