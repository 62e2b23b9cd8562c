"""Wall-clock and analytical profiling of classifiers for deployment reports."""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.deployment.edge_device import DeploymentEstimate, EdgeDeviceModel
from repro.models.base import EEGClassifier, NeuralEEGClassifier
from repro.utils.timing import median_call_time_s


@dataclass
class LatencyProfile:
    """Measured and estimated inference characteristics of one model."""

    model_family: str
    parameters: int
    effective_parameters: int
    measured_latency_s: float
    estimated: DeploymentEstimate
    #: Which execution engine served ``measured_latency_s``: ``"compiled"``
    #: when the classifier dispatched to its inference plan, else
    #: ``"autograd"``.
    engine: str = "autograd"
    #: Wall-clock latency of the autograd path, measured only when
    #: ``profile_classifier(..., include_autograd=True)`` and the classifier
    #: is neural; ``None`` otherwise.
    autograd_latency_s: Optional[float] = None
    #: Transient allocation high-water of one steady-state ``predict_proba``
    #: call (tracemalloc peak delta, bytes).  Plan intermediates live in
    #: bound arenas either way: an unspecialised call adds its output copy
    #: and the preprocessing temporaries, a shape-specialised call stays
    #: within numpy's constant-size iteration buffers.
    alloc_peak_bytes: Optional[int] = None
    #: Net new live allocation blocks after one steady-state call — retained
    #: garbage, ~0 for both plan modes.
    alloc_net_blocks: Optional[int] = None
    #: Bytes held by the plan's pre-bound scratch arenas (0 when the plan is
    #: not specialised); what steady-state calls no longer allocate.
    plan_scratch_bytes: Optional[int] = None
    #: Fraction of plan calls served from a pre-bound arena so far.
    specialized_hit_rate: Optional[float] = None
    #: One entry per matmul operand in the serving plan —
    #: ``"<op>[<in>x<out>]=<variant>"`` (variant ``dense``/``ell``/
    #: ``block<th>x<tw>``), from the compiler's lowering report.  Empty for
    #: autograd-served classifiers.
    kernel_variants: List[str] = field(default_factory=list)
    #: Autotune-cache hits among this plan's calibrated lowering decisions
    #: (``None`` when the plan was never calibrated in this process).
    autotune_hits: Optional[int] = None
    #: Calibration timings the compile actually had to run (cache misses).
    autotune_misses: Optional[int] = None
    #: One row per (matmul op, raced candidate) from the plan's lowering
    #: records — see :func:`variant_timing_table`.  Empty for autograd-served
    #: classifiers and payload-rebuilt plans (no timings survive transport).
    variant_timings: List[dict] = field(default_factory=list)

    @property
    def throughput_hz(self) -> float:
        if self.measured_latency_s <= 0:
            return float("inf")
        return 1.0 / self.measured_latency_s

    @property
    def compiled_speedup(self) -> Optional[float]:
        """Autograd-over-compiled latency ratio, when both were measured."""
        if self.autograd_latency_s is None or self.measured_latency_s <= 0:
            return None
        return self.autograd_latency_s / self.measured_latency_s


def _variant_tile(variant: str) -> str:
    """The tile geometry a variant name encodes (``8x8``, ``16x1g4``, ``-``)."""
    if variant.startswith("block"):
        return variant[len("block") :]
    return "-"


def variant_timing_table(plan) -> List[dict]:
    """Flatten a plan's lowering records into a per-candidate timing table.

    One row per ``(matmul op, raced variant)``: what the autotuner measured
    (microseconds, best of the interleaved rounds), which candidate won, the
    tile geometry block candidates carried, and whether the decision was
    replayed from the autotune cache (cached decisions ship the *stored*
    timings; payload-rebuilt plans have none, so their winner rows carry
    ``us=None``).  The losers matter: a ``block8x8g4`` row a hair behind the
    fused winner says the menu was competitive, a 10x-slower ``ell`` row
    says the gather wall is real on this host.
    """
    rows: List[dict] = []
    for record in plan.lowering_report():
        timings = record.get("timings") or {}
        shape = record.get("shape")
        for name in sorted(timings) or [str(record["variant"])]:
            seconds = timings.get(name)
            rows.append(
                {
                    "op": record["op"],
                    "shape": list(shape) if shape is not None else None,
                    "variant": name,
                    "tile": _variant_tile(name),
                    "chosen": name == record["variant"],
                    "cached": record.get("cached"),
                    "us": None if seconds is None else round(float(seconds) * 1e6, 2),
                }
            )
    return rows


def _effective_parameters(classifier: EEGClassifier) -> int:
    """Non-zero parameter count when available, else the nominal count."""
    if isinstance(classifier, NeuralEEGClassifier) and classifier.network is not None:
        return int(sum(int((p.data != 0).sum()) for p in classifier.network.parameters()))
    return classifier.parameter_count()


def _allocation_profile(call: Callable[[], object]) -> Tuple[int, int]:
    """(peak_bytes, net_blocks) of one steady-state ``call`` under tracemalloc.

    The call is warmed first so one-off lazy state (plan compilation, arena
    binding, buffer caches) never pollutes the steady-state numbers.  Peak
    bytes captures transient intermediates that are freed before the call
    returns — exactly what the zero-allocation arena removes — while the
    net block count exposes retained garbage.
    """
    call()
    call()
    gc.collect()
    tracemalloc.start()
    try:
        call()  # absorb tracemalloc's own first-call bookkeeping
        before = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        start_bytes = tracemalloc.get_traced_memory()[0]
        call()
        peak_bytes = tracemalloc.get_traced_memory()[1] - start_bytes
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    net_blocks = sum(
        diff.count_diff for diff in after.compare_to(before, "filename")
    )
    return max(0, int(peak_bytes)), int(net_blocks)


def profile_classifier(
    classifier: EEGClassifier,
    example_windows: np.ndarray,
    device: Optional[EdgeDeviceModel] = None,
    bits_per_weight: int = 32,
    repeats: int = 5,
    include_autograd: bool = False,
    include_allocations: bool = True,
    specialize: bool = False,
) -> LatencyProfile:
    """Measure wall-clock latency and estimate edge-device behaviour.

    Neural classifiers are profiled on their serving engine: the compiled
    inference plan is built *before* timing starts, so the one-off compile
    cost never pollutes the measurement.  Pass ``include_autograd=True`` to
    additionally time the float64 autograd path and expose the speedup via
    :attr:`LatencyProfile.compiled_speedup`.

    ``specialize=True`` pre-binds the plan's scratch arena for the example
    batch size before profiling, so the report shows the zero-allocation
    steady state (:attr:`LatencyProfile.alloc_peak_bytes` dropping to
    numpy's constant iteration buffers is the observable claim); allocation profiling itself runs after the latency timing with
    tracemalloc off, so it never skews the measured latency.
    """
    device = device or EdgeDeviceModel()
    engine = "autograd"
    compiled = None
    if isinstance(classifier, NeuralEEGClassifier):
        compiled = classifier.ensure_compiled()
        if compiled is not None:
            engine = "compiled"
    if specialize and compiled is not None:
        compiled.specialize(int(np.asarray(example_windows).shape[0]))
        classifier.predict_proba(example_windows)  # bind the arena now
    measured = median_call_time_s(
        lambda: classifier.predict_proba(example_windows), repeats
    )
    autograd_latency: Optional[float] = None
    if include_autograd and isinstance(classifier, NeuralEEGClassifier):
        autograd_latency = median_call_time_s(
            lambda: classifier.predict_proba_autograd(example_windows), repeats
        )
    alloc_peak: Optional[int] = None
    alloc_blocks: Optional[int] = None
    if include_allocations:
        alloc_peak, alloc_blocks = _allocation_profile(
            lambda: classifier.predict_proba(example_windows)
        )
    scratch: Optional[int] = None
    hit_rate: Optional[float] = None
    kernel_variants: List[str] = []
    autotune_hits: Optional[int] = None
    autotune_misses: Optional[int] = None
    variant_timings: List[dict] = []
    if compiled is not None:
        variant_timings = variant_timing_table(compiled.plan)
        stats = compiled.specialization_stats()
        scratch = int(stats["scratch_bytes"])
        hit_rate = float(stats["hit_rate"])
        calibrated = False
        for record in compiled.plan.lowering_report():
            shape = record["shape"]
            kernel_variants.append(
                f"{record['op']}[{shape[0]}x{shape[1]}]={record['variant']}"
            )
            if record.get("cached") is not None:
                if not calibrated:
                    calibrated = True
                    autotune_hits = autotune_misses = 0
                if record["cached"]:
                    autotune_hits += 1
                else:
                    autotune_misses += 1
    effective = _effective_parameters(classifier)
    estimate = device.estimate(effective, bits_per_weight=bits_per_weight)
    return LatencyProfile(
        model_family=classifier.family,
        parameters=classifier.parameter_count(),
        effective_parameters=effective,
        measured_latency_s=measured,
        estimated=estimate,
        engine=engine,
        autograd_latency_s=autograd_latency,
        alloc_peak_bytes=alloc_peak,
        alloc_net_blocks=alloc_blocks,
        plan_scratch_bytes=scratch,
        specialized_hit_rate=hit_rate,
        kernel_variants=kernel_variants,
        autotune_hits=autotune_hits,
        autotune_misses=autotune_misses,
        variant_timings=variant_timings,
    )
