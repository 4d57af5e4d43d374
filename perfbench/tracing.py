"""Spans recorded around the benchmark's calls into ``incproc``, and the
per-layer metrics derived from them.

A span is one timed interval: a name of the form ``layer.function``, start
and end times from ``time.perf_counter``, the span that caused it, the id of
the operation it belongs to, and the counts read off the call's result at the
same boundary. Spans stay in memory and are written out once, when the run
ends. No span is recorded inside the package: every layer span wraps a call
the benchmark makes.

With tracing off, :meth:`Tracer.call` is a plain call and the counting
functions never run, so the untraced timings carry no tracing cost.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("states", "exact", "regions", "simulate", "thermo", "gordan",
          "asymptotics")
# Spans named ``bench.*`` are the benchmark's own rounds and operations; their
# self time is the benchmark's glue between layer calls.
BENCH = "bench"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    span_id: int
    parent: int | None
    op_id: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans when ``enabled``; otherwise calls straight through."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        # a round has no operation; an operation is its own; a layer call
        # belongs to the operation that made it
        if parent is None:
            op_id = None
        elif parent.parent is None:
            op_id = span_id
        else:
            op_id = parent.op_id
        span = Span(span_id, parent.span_id if parent else None, op_id, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def begin(self, name: str) -> Span | None:
        """Open a benchmark span (a round or an operation)."""
        return self._open(name) if self.enabled else None

    def end(self, span: Span | None) -> None:
        if span is not None:
            self._close(span)

    def call(self, name: str, fn, *args, count=None, rss=False, **kwargs):
        """Call ``fn`` inside a span named ``name``.

        ``count`` maps the result to the counts stored on the span; ``rss``
        also stores the growth of the process's RSS high-water mark across
        the call.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        before = _maxrss_mb() if rss else 0.0
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if rss:
            span.counts["rss_growth_mb"] = _maxrss_mb() - before
        if count is not None:
            span.counts.update(count(result))
        return result

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [
            {"id": s.span_id, "parent": s.parent, "op": s.op_id, "name": s.name,
             "start": s.start, "end": s.end, "counts": s.counts}
            for s in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another, so the covered time is the
    sum of their durations.
    """
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _subtree(spans: list[Span], root: Span) -> list[Span]:
    ids = {root.span_id}
    out = [root]
    for s in spans[root.span_id + 1:]:
        if s.parent in ids:
            ids.add(s.span_id)
            out.append(s)
    return out


# metric -> (span names whose durations it sums)
_TIMES = {
    "states.enumerate_s": ("states.enumerate_states", "states.counts_matrix"),
    "exact.build_s": ("exact.build_rate_matrix", "exact.build_generator"),
    "exact.stationary_s": ("exact.stationary_exact",),
    "exact.trace_rates_s": ("exact.mean_jump_rate_exact",),
    "exact.closed_form_s": ("exact.stationary_closed_form",),
    "exact.reciprocal_sum_s": ("exact.reciprocal_sum",),
    "regions.masses_s": ("regions.RegionSpec", "regions.region_masses",
                         "regions.flow_profile"),
    "simulate.simulate_s": ("simulate.simulate",),
    "simulate.trace_project_s": ("simulate.trace_project",),
    "simulate.mc_hitting_s": ("simulate.mc_hitting",),
    "simulate.mc_trace_rates_s": ("simulate.mc_mean_jump_rate",),
    "thermo.diffusion_s": ("thermo.measure_diffusion",),
    "thermo.drift_s": ("thermo.measure_drift",),
    "thermo.condensate_statistics_s": ("thermo.condensate_statistics",),
    "thermo.condensation_s": ("thermo.torus_condensation",),
    "thermo.generator_gap_s": ("thermo.generator_gap",),
    "gordan.certify_s": ("gordan.gordan_certificate",),
    "asymptotics.test_function_s": ("asymptotics.test_function",),
}

# metric -> (numerator count, span names, denominator: "time" or a count, scale)
_RATES = {
    "states.states_per_s": ("states", ("states.counts_matrix",), "time", 1.0),
    "states.rank_many_per_s": ("states", ("states.rank_many",), "time", 1.0),
    "exact.states_per_s": ("states", ("exact.stationary_exact",), "time", 1.0),
    "simulate.us_per_event": (None, ("simulate.simulate",), "events", 1e6),
    "simulate.trace_us_per_event": (None, ("simulate.trace_project",), "events", 1e6),
    "simulate.hitting_ms_per_replica": (None, ("simulate.mc_hitting",), "replicas", 1e3),
    "thermo.relocations_per_s": ("relocations", ("thermo.measure_diffusion",), "time", 1.0),
    "gordan.certificates_per_s": ("certificates", ("gordan.gordan_certificate",), "time", 1.0),
}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order it is reported."""
    names = list(_TIMES) + list(_RATES) + [
        "exact.build_nnz", "exact.rss_growth_mb", "simulate.events",
        "simulate.censored_frac", "bench.wall_s", "bench.ref_s"]
    names += [f"{layer}.self_s" for layer in LAYERS + (BENCH,)]
    names.append("trace.overhead_s")
    return sorted(names)


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, u in (("us_per_event", "us"), ("ms_per_replica", "ms"),
                      ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"


def per_layer_metrics(spans: list[Span], untraced_wall: float,
                      reference: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times and per-round counts are medians over the traced rounds; rates are
    totals over all traced rounds; ``exact.rss_growth_mb`` is the largest
    growth of the RSS high-water mark across one exact call. A layer the
    workload never calls reports 0. ``trace.overhead_s`` is the median
    traced round time minus ``untraced_wall``, the median untraced one,
    which is also reported as ``bench.wall_s``; ``bench.ref_s`` is the
    median time of the reference computation.
    """
    rounds = [s for s in spans if s.parent is None]
    own = self_times(spans)
    per_round: dict[str, list[float]] = {}
    totals: dict[tuple[str, str], float] = {}
    for rnd in rounds:
        sub = _subtree(spans, rnd)
        sums: dict[str, float] = {}
        for s in sub:
            sums[s.name] = sums.get(s.name, 0.0) + s.duration
            key = s.layer + ".self_s"
            sums[key] = sums.get(key, 0.0) + own[s.span_id]
            for cname, value in s.counts.items():
                totals[(s.name, cname)] = totals.get((s.name, cname), 0.0) + value
                sums[s.name + "#" + cname] = sums.get(s.name + "#" + cname, 0.0) + value
        for metric, names in _TIMES.items():
            per_round.setdefault(metric, []).append(sum(sums.get(n, 0.0) for n in names))
        for layer in LAYERS + (BENCH,):
            per_round.setdefault(layer + ".self_s", []).append(sums.get(layer + ".self_s", 0.0))
        per_round.setdefault("exact.build_nnz", []).append(
            sums.get("exact.build_rate_matrix#nnz", 0.0)
            + sums.get("exact.build_generator#nnz", 0.0))
        per_round.setdefault("simulate.events", []).append(
            sums.get("simulate.simulate#events", 0.0))

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    out = {name: med(values) for name, values in per_round.items()}
    for metric, (num, names, den, scale) in _RATES.items():
        time_total = sum(s.duration for s in spans if s.name in names)
        if num is None:
            top = time_total
        else:
            top = sum(totals.get((n, num), 0.0) for n in names)
        if den == "time":
            bottom = time_total
        else:
            bottom = sum(totals.get((n, den), 0.0) for n in names)
        out[metric] = scale * top / bottom if bottom > 0 else 0.0
    replicas = totals.get(("simulate.mc_hitting", "replicas"), 0.0)
    censored = totals.get(("simulate.mc_hitting", "censored"), 0.0)
    out["simulate.censored_frac"] = censored / replicas if replicas > 0 else 0.0
    growth = [s.counts["rss_growth_mb"] for s in spans if "rss_growth_mb" in s.counts]
    out["exact.rss_growth_mb"] = max(growth) if growth else 0.0
    traced_wall = med([r.duration for r in rounds])
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["bench.wall_s"] = untraced_wall
    out["bench.ref_s"] = reference
    return {name: out.get(name, 0.0) for name in per_layer_names()}
