"""Cross-session micro-batching of classifier calls.

Every classifier in the repo is batch-shaped — ``predict_proba`` takes
``(n, channels, samples)`` — but the single-session loop only ever calls it
with ``n=1``.  The :class:`MicroBatcher` closes that gap: sessions submit
their prepared windows, and a flush runs in three phases so *execution* can
be handed to any :mod:`repro.serving.executors` backend (inline, worker
thread, or worker process):

``prepare()``
    stacks the pending windows into one array and captures the session
    order — pure bookkeeping, no shared state left behind;
``execute`` (:func:`execute_windows`)
    issues the chunked ``predict_proba`` calls — a pure function of the
    stacked windows and a classifier, safe to run anywhere the classifier
    lives;
``finalize()``
    validates the returned rows and routes each session its own
    probability row.

``flush()`` composes the three phases inline and is bit-for-bit the
single-call behaviour the rest of the serving stack was built on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.models.base import EEGClassifier
from repro.utils.timing import SYSTEM_CLOCK, Clock


@dataclass
class BatchResult:
    """Outcome of one :meth:`MicroBatcher.flush`."""

    #: Per-session class probabilities, keyed by the submitting session id.
    #: Each row is session-owned (copied out of the classifier's output, so
    #: a later flush reusing a specialised plan's arena buffer can never
    #: mutate it retroactively).
    results: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Sizes of the ``predict_proba`` calls actually issued (one entry per
    #: chunk; a single entry equal to ``len(results)`` in the common case).
    batch_sizes: List[int] = field(default_factory=list)
    #: Total wall-clock time spent inside ``predict_proba``.
    latency_s: float = 0.0
    #: Whether every classifier call in this flush hit a shape-specialised
    #: (pre-bound arena) plan execution.
    specialized: bool = False

    def __len__(self) -> int:
        return len(self.results)

    def per_window_latency_s(self) -> float:
        """Classification latency attributed to each window in the batch."""
        if not self.results:
            return 0.0
        return self.latency_s / len(self.results)


@dataclass
class PreparedBatch:
    """Phase-one output: a flush captured as plain data.

    Everything an executor needs to classify the batch — no references to
    the batcher, the sessions or any other shared state — so it pickles
    cleanly to a worker process.
    """

    #: Submission order; row ``i`` of the execution output belongs to
    #: ``session_ids[i]``.
    session_ids: List[str]
    #: Stacked windows, shape ``(n, channels, samples)``.
    windows: np.ndarray
    #: Cap on the rows per ``predict_proba`` call.
    chunk_size: int

    def __len__(self) -> int:
        return len(self.session_ids)


@dataclass
class ExecutionResult:
    """Phase-two output: raw probabilities plus the service-time measurement."""

    #: Concatenated probability rows, shape ``(n, n_classes)``.
    probabilities: np.ndarray
    #: Rows per ``predict_proba`` call actually issued.
    batch_sizes: List[int]
    #: Time spent inside ``predict_proba`` only (service time — excludes any
    #: queueing in front of the executor).
    service_s: float
    #: Label of the worker that executed the batch ("serial", a thread name,
    #: or a shard-worker id); purely informational, flows into telemetry.
    worker: str = ""
    #: Whether every ``predict_proba`` call of this execution ran on a
    #: shape-specialised plan arena (False when the classifier has no plan).
    specialized: bool = False
    #: Version of the inference plan that served this execution (0 when the
    #: executor is not version-aware; shard workers echo the version their
    #: replica was built from, so hot-swap transitions are observable
    #: per-flush in telemetry).
    plan_version: int = 0


def _specialized_calls(classifier: EEGClassifier) -> Optional[int]:
    """Cumulative arena-hit counter of the classifier's plan, if it has one."""
    stats_hook = getattr(classifier, "specialization_stats", None)
    if stats_hook is None:
        return None
    stats = stats_hook()
    if stats is None:
        return None
    return int(stats["specialized_calls"])


def execute_windows(
    classifier: EEGClassifier,
    windows: np.ndarray,
    chunk_size: int,
    clock: Optional[Clock] = None,
    worker: str = "",
    plan_version: int = 0,
) -> ExecutionResult:
    """Classify stacked windows in ``chunk_size`` blocks, timing service only.

    This is the whole execution phase as a pure function: no batcher state,
    no session state, just a classifier and an array.  Worker threads call
    it with the shared classifier; shard worker processes call it with their
    reconstructed plan replica and their own clock.

    When the batch fits a single chunk (the common case), the classifier's
    output is returned as-is — no ``np.concatenate`` copy on the hot path.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    clock = clock or SYSTEM_CLOCK
    n = windows.shape[0]
    calls_before = _specialized_calls(classifier)
    probabilities: List[np.ndarray] = []
    batch_sizes: List[int] = []
    elapsed = 0.0
    for start in range(0, n, chunk_size):
        block = windows[start : start + chunk_size]
        t0 = clock.now()
        probabilities.append(classifier.predict_proba(block))
        elapsed += clock.now() - t0
        batch_sizes.append(block.shape[0])
    if len(probabilities) == 1:
        probs = probabilities[0]
    else:
        probs = np.concatenate(probabilities, axis=0)
    specialized = False
    if calls_before is not None and batch_sizes:
        calls_after = _specialized_calls(classifier)
        specialized = (
            calls_after is not None
            and calls_after - calls_before >= len(batch_sizes)
        )
    return ExecutionResult(
        probabilities=probs,
        batch_sizes=batch_sizes,
        service_s=elapsed,
        worker=worker,
        specialized=specialized,
        plan_version=plan_version,
    )


class MicroBatcher:
    """Stacks windows from many sessions into one classifier call.

    Neural classifiers are served from their compiled inference plan (see
    :mod:`repro.nn.inference`): the batcher warms the plan at construction so
    the one-off compile cost is paid before the first flush, not inside it.

    Parameters
    ----------
    classifier:
        Shared batch-shaped classifier.
    max_batch_size:
        Optional cap on the number of windows per ``predict_proba`` call;
        larger flushes are split into consecutive chunks (memory control on
        small devices).  ``None`` means one call regardless of fleet size.
    clock:
        Time source used to measure flush latency.  Defaults to the system
        monotonic clock; tests inject a fake so latency assertions are exact.
    specialize:
        When ``True`` (the default) and the classifier serves from a
        compiled plan, the plan auto-specialises for the fleet's dominant
        batch sizes: after two consecutive flushes of the same size, the
        plan keeps a zero-allocation scratch arena for that geometry and
        re-specialises when the cohort resizes.  Other flushes run through
        the plan's single private arena and receive a copy of its output.  The scheduler passes ``False`` for remote executors —
        workers specialise their own replicas, so binding arenas on the
        local plan would only hold memory that never serves.
    """

    def __init__(
        self,
        classifier: EEGClassifier,
        max_batch_size: Optional[int] = None,
        clock: Optional[Clock] = None,
        specialize: bool = True,
    ) -> None:
        if max_batch_size is not None and max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        self.classifier = classifier
        self.max_batch_size = max_batch_size
        self.clock = clock or SYSTEM_CLOCK
        self.specialize = specialize
        self._pending: List[Tuple[str, np.ndarray]] = []
        self._pending_ids: set = set()
        # Reused stacking buffers, keyed by (batch, window shape, dtype) —
        # the one windows-sized allocation prepare() would otherwise make
        # per flush.  Only maintained on the inline serving path
        # (specialize=True): remote executors pickle the stacked array
        # anyway, and the buffer must not be recycled while a worker still
        # reads it.
        self._stack_buffers: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        # Precompile the serving plan (no-op for classifiers without one, or
        # whose network is not built yet — they compile on first prediction).
        ensure_compiled = getattr(classifier, "ensure_compiled", None)
        if ensure_compiled is not None:
            ensure_compiled()
        if specialize:
            # Request auto-specialisation on the *classifier* (the standing
            # preference survives plan invalidation/recompiles and applies
            # even when the network is not built yet); CompiledClassifier
            # replicas expose the same hook directly.
            auto = getattr(classifier, "enable_auto_specialization", None)
            if auto is not None:
                auto()

    def swap_classifier(self, classifier: EEGClassifier) -> None:
        """Replace the serving classifier between flushes (plan hot-swap).

        Refuses while windows are pending: a mid-batch swap would classify
        half the batch on each plan, which is exactly the mixed-version
        flush the hot-swap contract rules out.  The replacement goes through
        the same warm-up as the constructor (precompile, and re-request
        auto-specialisation when this batcher serves inline).
        """
        if self._pending:
            raise RuntimeError(
                f"cannot swap classifier with {len(self._pending)} windows "
                "pending; flush first"
            )
        self.classifier = classifier
        ensure_compiled = getattr(classifier, "ensure_compiled", None)
        if ensure_compiled is not None:
            ensure_compiled()
        if self.specialize:
            auto = getattr(classifier, "enable_auto_specialization", None)
            if auto is not None:
                auto()

    def specialization_stats(self) -> Optional[Dict[str, float]]:
        """The serving plan's arena hit/miss counters; ``None`` without one."""
        stats_hook = getattr(self.classifier, "specialization_stats", None)
        return stats_hook() if stats_hook is not None else None

    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, session_id: str, window: np.ndarray) -> None:
        """Queue one session's prepared window for the next flush."""
        window = np.asarray(window)
        if window.ndim != 2:
            raise ValueError(
                f"window must be (channels, samples); got shape {window.shape}"
            )
        if self._pending and window.shape != self._pending[0][1].shape:
            raise ValueError(
                f"window shape {window.shape} does not match the pending batch "
                f"shape {self._pending[0][1].shape}"
            )
        if session_id in self._pending_ids:
            raise ValueError(
                f"session {session_id!r} already has a window in this batch"
            )
        self._pending.append((session_id, window))
        self._pending_ids.add(session_id)

    # ------------------------------------------------------------------ #
    # three-phase flush
    # ------------------------------------------------------------------ #
    #: Cap on concurrently held stacking buffers (LRU), mirroring the plan
    #: arena policy: a resizing fleet re-buffers without hoarding scratch.
    MAX_STACK_BUFFERS = 2

    def prepare(self) -> Optional[PreparedBatch]:
        """Capture and clear the pending batch; ``None`` when empty.

        On the inline serving path (``specialize=True``) the stacked array
        is a **batcher-owned buffer** reused across flushes of the same
        geometry — valid until the next ``prepare()`` with that geometry.
        ``finalize`` copies each session its own row, so nothing downstream
        retains it.
        """
        if not self._pending:
            return None
        pending, self._pending, self._pending_ids = self._pending, [], set()
        windows = [window for _, window in pending]
        return PreparedBatch(
            session_ids=[session_id for session_id, _ in pending],
            windows=self._stack(windows),
            chunk_size=self.max_batch_size or len(pending),
        )

    def _stack(self, windows: List[np.ndarray]) -> np.ndarray:
        if not self.specialize:
            return np.stack(windows, axis=0)
        first = windows[0]
        if any(w.dtype != first.dtype for w in windows[1:]):
            return np.stack(windows, axis=0)
        key = (len(windows), first.shape, first.dtype)
        buffer = self._stack_buffers.get(key)
        if buffer is None:
            buffer = np.empty((len(windows),) + first.shape, dtype=first.dtype)
            self._stack_buffers[key] = buffer
            while len(self._stack_buffers) > self.MAX_STACK_BUFFERS:
                self._stack_buffers.popitem(last=False)
        else:
            self._stack_buffers.move_to_end(key)
        for i, window in enumerate(windows):
            np.copyto(buffer[i], window)
        return buffer

    def execute(self, prepared: PreparedBatch) -> ExecutionResult:
        """Run the classification phase inline with the batcher's own state."""
        return execute_windows(
            self.classifier, prepared.windows, prepared.chunk_size, self.clock
        )

    @staticmethod
    def finalize(prepared: PreparedBatch, execution: ExecutionResult) -> BatchResult:
        """Route execution output back to the sessions that submitted it.

        Rows are copied out of the execution output: a specialised plan
        returns an arena-owned buffer that the next flush overwrites, and a
        session (or test) holding its probability row must not see it
        change underneath.  The copies are a handful of float64s per
        session — noise next to the classifier call.
        """
        probs = execution.probabilities
        if probs.shape[0] != len(prepared):
            raise RuntimeError(
                f"classifier returned {probs.shape[0]} rows for a batch of "
                f"{len(prepared)} windows"
            )
        return BatchResult(
            results={
                sid: probs[i].copy() for i, sid in enumerate(prepared.session_ids)
            },
            batch_sizes=execution.batch_sizes,
            latency_s=execution.service_s,
            specialized=execution.specialized,
        )

    def flush(self) -> BatchResult:
        """Classify everything pending in as few calls as possible."""
        prepared = self.prepare()
        if prepared is None:
            return BatchResult()
        return self.finalize(prepared, self.execute(prepared))
