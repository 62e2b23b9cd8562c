"""Turn one measured run into the benchmark's named metrics.

End-to-end metrics come from the label book of an untraced run, over the
labels due in the faster half of its slices (:func:`faster_half`); per-layer
metrics come from the spans of the traced slices of a ``--trace 1`` run.
A per-layer metric whose layer is not on a workload's path reads 0 (for
example every ``serving.*`` metric on ``loop_b1``, which bypasses the
batcher, scheduler and streams).
"""

from __future__ import annotations

import math
import resource
from typing import Any, Dict, List

import numpy as np

from tracing import APPLIED, SKIPPED, Label, Slices, Tracer
from workloads import LABEL_PERIOD_S, Workload

MS = 1e3


def _pct(values: List[float], q: float) -> float:
    """Percentile ``q`` of durations in seconds, in milliseconds (0 if none)."""
    return float(np.percentile(values, q)) * MS if len(values) else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slice_costs(labels: List[Label], slices: Slices) -> List[float]:
    """Busy time per prepared label of each slice (infinite for an empty slice)."""
    counts = np.bincount(
        [label.slice_index for label in labels if label.state != SKIPPED],
        minlength=len(slices.busy_s),
    )
    return [
        busy / count if count else float("inf") for busy, count in zip(slices.busy_s, counts)
    ]


def faster_half(labels: List[Label], slices: Slices) -> List[int]:
    """Indices of the half of the slices with the least busy time per label.

    The host this benchmark was built on changes speed by up to 2x in phases
    of ten seconds or more that slow every layer alike.  Contention only
    ever adds time, so the faster half of a run's slices is a steadier
    estimate of the program's own cost than the whole run.
    """
    costs = slice_costs(labels, slices)
    ranked = sorted(range(len(costs)), key=costs.__getitem__)
    return sorted(ranked[: max(1, len(ranked) // 2)])


def end_to_end(
    workload: Workload, run: Dict[str, Any], setup_times: List[float]
) -> Dict[str, Dict[str, float]]:
    slices: Slices = run["slices"]
    chosen = set(faster_half(workload.book.labels, slices))
    labels = [label for label in workload.book.labels if label.slice_index in chosen]
    applied = [label for label in labels if label.state == APPLIED]
    latencies = [label.latency_s for label in applied]
    on_time = sum(1 for value in latencies if value <= LABEL_PERIOD_S)
    # A loop run flat out reports its speed; a scheduled one, the rate it
    # kept up over the whole run.
    if not workload.scheduled:
        rate = len(applied) / sum(slices.busy_s[i] for i in chosen)
    else:
        rate = workload.book.counts()[APPLIED] / run["wall_s"]
    return {
        "label_latency_p50_ms": {"value": _pct(latencies, 50), "unit": "ms"},
        "label_latency_p95_ms": {"value": _pct(latencies, 95), "unit": "ms"},
        "label_on_time_share": {"value": on_time / len(labels), "unit": "share"},
        "labels_per_s": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": float(np.median(setup_times)), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def _queue_waits(labels: List[Label], slices: Slices, plan_starts: np.ndarray) -> List[float]:
    """Per applied label: first plan call after its prepare, minus prepare end.

    Every flush serves every window queued before it starts, so the first
    plan call after a window was prepared is the one that classified it.
    Only labels prepared and applied inside one traced slice are used.
    """
    waits = []
    for label in labels:
        if label.state != APPLIED or not slices.traced(label.slice_index):
            continue
        i = int(np.searchsorted(plan_starts, label.prepare_end_s))
        if i < len(plan_starts) and plan_starts[i] <= label.apply_end_s:
            waits.append(plan_starts[i] - label.prepare_end_s)
    return waits


def per_layer(
    workload: Workload, run: Dict[str, Any], tracer: Tracer, hit_rate: float
) -> Dict[str, Dict[str, float]]:
    slices: Slices = run["slices"]
    labels = workload.book.labels
    spans = tracer.by_name
    durations = lambda name: [s.duration_s for s in spans(name)]  # noqa: E731
    self_times = lambda name: [s.self_s for s in spans(name)]  # noqa: E731

    plan = spans("nn.plan")
    plan_rows = sum(s.rows for s in plan)
    plan_starts = np.sort([s.start_s for s in plan])
    queue_waits = _queue_waits(labels, slices, plan_starts) if workload.fleet else []
    executor_waits = [s.duration_s - s.work_s for s in spans("serving.executor")]
    flush_overheads = [
        s.duration_s - s.work_s
        for name in ("serving.tick", "serving.pump", "serving.submit", "streams.poll")
        for s in spans(name)
        if s.planned
    ]
    harvests = [s.self_s for s in spans("streams.harvest") if s.work_s > 0]
    polls = [s.self_s for s in spans("streams.poll") if not s.planned]

    applied = [label for label in labels if label.state == APPLIED]
    lateness = (
        [label.prepare_start_s - label.due_s for label in labels] if workload.scheduled else []
    )
    traced_busy = sum(b for i, b in enumerate(slices.busy_s) if slices.traced(i))
    top_level = sum(s.duration_s for s in tracer.spans if s.depth == 0)
    costs = slice_costs(labels, slices)
    traced_costs = [c for i, c in enumerate(costs) if slices.traced(i) and math.isfinite(c)]
    untraced_costs = [c for i, c in enumerate(costs) if not slices.traced(i) and math.isfinite(c)]
    overhead = 0.0
    if traced_costs and untraced_costs:
        overhead = float(np.median(traced_costs) / np.median(untraced_costs) - 1.0)

    counters = workload.counters()
    stats = workload.program_stats()

    def metric(value: float, unit: str) -> Dict[str, float]:
        return {"value": float(value), "unit": unit}

    return {
        "acquisition.synth_ms_p50": metric(_pct(durations("acquisition.synth"), 50), "ms"),
        "acquisition.read_ms_p50": metric(_pct(durations("acquisition.read"), 50), "ms"),
        "signals.filter_ms_p50": metric(_pct(durations("signals.filter"), 50), "ms"),
        "signals.filter_ms_p99": metric(_pct(durations("signals.filter"), 99), "ms"),
        "nn.plan_ms_p50": metric(_pct(durations("nn.plan"), 50), "ms"),
        "nn.plan_ms_p99": metric(_pct(durations("nn.plan"), 99), "ms"),
        "nn.plan_ms_per_window": metric(
            sum(s.duration_s for s in plan) / plan_rows * MS if plan_rows else 0.0, "ms"
        ),
        "nn.specialized_hit_rate": metric(hit_rate, "share"),
        "serving.batch_size_mean": metric(stats.get("batch_size_mean", 0.0), "count"),
        "serving.queue_wait_ms_p50": metric(_pct(queue_waits, 50), "ms"),
        "serving.queue_wait_ms_p99": metric(_pct(queue_waits, 99), "ms"),
        "serving.executor_wait_ms_p50": metric(_pct(executor_waits, 50), "ms"),
        "serving.flush_overhead_ms_p50": metric(_pct(flush_overheads, 50), "ms"),
        "serving.deadline_violations": metric(stats.get("deadline_violations", 0.0), "count"),
        "serving.shed": metric(counters["shed"], "count"),
        "serving.superseded": metric(counters["superseded"], "count"),
        "streams.submit_ms_p50": metric(_pct(self_times("streams.submit"), 50), "ms"),
        "streams.poll_ms_p50": metric(_pct(polls, 50), "ms"),
        "streams.harvest_ms_p50": metric(_pct(harvests, 50), "ms"),
        "streams.lag_ms_max": metric(stats.get("stream_lag_max_s", 0.0) * MS, "ms"),
        "core.apply_ms_p50": metric(_pct(durations("core.apply"), 50), "ms"),
        "arm.actuation_rate": metric(
            sum(label.actuated for label in applied) / len(applied) if applied else 0.0,
            "share",
        ),
        "loadgen.lag_ms_p99": metric(_pct(lateness, 99), "ms"),
        "loadgen.busy_share": metric(sum(slices.busy_s) / run["wall_s"], "share"),
        "trace.overhead_share": metric(overhead, "share"),
        "trace.coverage": metric(top_level / traced_busy if traced_busy else 0.0, "share"),
    }
