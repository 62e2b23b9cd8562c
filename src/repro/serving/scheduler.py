"""Cohort flush scheduling: one deadline policy under two front ends.

A fleet batches windows across sessions and must trade batch size against
the queueing delay of the oldest waiting window, inside the label period.
That policy lives once, in :class:`CohortFlushCore`:

- a cohort flushes when the oldest queued window's deadline arrives
  (:meth:`~CohortFlushCore.pump`, scheduled via
  :meth:`~CohortFlushCore.next_flush_due_s`) or when its batch is full;
- on a serializing executor the wake time is pulled forward by an EWMA of
  the service time of the cohorts that must flush first;
- at most one flush per cohort is in flight (double-flushes are refused;
  windows keep queueing behind it), and completed futures are folded back
  on the core's own thread;
- a worker death requeues the unserved windows (a fresher window from the
  same session supersedes the stale one); supervised executors heal, and
  quarantined cohorts degrade to an inline serial fallback;
- serving plans hot-swap between flushes (:meth:`~CohortFlushCore.swap_plan`).

Two front ends subclass the core and differ only in how a window is
enqueued, how a served flush is delivered and which front-end fields a
telemetry record carries:

- :class:`AsyncFleetScheduler` owns sessions.  :meth:`~AsyncFleetScheduler.submit`
  runs a session's prepare phase and queues its window (or sheds it via
  :class:`AdmissionController`); a flush applies each row through the
  owning session's ``apply_result``.  :meth:`~AsyncFleetScheduler.tick` is
  the lock-step mode: every session prepared, every cohort flushed at once.
- :class:`~repro.streams.consumer.StreamConsumerScheduler` reads windows
  from cohort logs through a consumer group and publishes each flush as a
  :class:`~repro.streams.messages.FlushResult` before acking its entries.

:class:`ModelRouter` lets heterogeneous compiled plans share one front end:
windows destined for different models cannot stack into one
``predict_proba``, so each cohort gets its own
:class:`~repro.serving.batcher.MicroBatcher` and queue.  Flush *execution*
is pluggable (:mod:`repro.serving.executors`): inline on the caller's thread
(:class:`~repro.serving.executors.SerialExecutor`, the default), on a thread
pool, or sharded across one worker process per cohort.

Everything is clock-injected (:class:`repro.utils.timing.Clock`): production
uses the system monotonic clock, tests drive a deterministic fake through
thousands of virtual seconds in milliseconds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import CognitiveArmConfig
from repro.models.base import EEGClassifier
from repro.serving.batcher import (
    BatchResult,
    ExecutionResult,
    MicroBatcher,
    PreparedBatch,
)
from repro.serving.executors import (
    WORKER_QUARANTINED,
    WORKER_RESPAWNING,
    CohortQuarantinedError,
    FlushExecutor,
    FlushTicket,
    SerialExecutor,
    WorkerDiedError,
    WorkerRespawnPending,
)
from repro.serving.session import SessionFleet
from repro.serving.telemetry import (
    FleetReport,
    FleetTelemetry,
    FleetTickRecord,
    fleet_report,
)
from repro.utils.timing import SYSTEM_CLOCK, Clock

#: Outcomes of :meth:`AsyncFleetScheduler.submit`.
SUBMIT_QUEUED = "queued"
SUBMIT_FLUSHED = "flushed"
SUBMIT_STALLED = "stalled"
SUBMIT_SHED = "shed"

#: Tolerance when deciding whether a flush started past a window's deadline,
#: so flushing *exactly* at the deadline never counts as a violation.
_DEADLINE_EPS = 1e-9

#: EWMA weight for the per-cohort flush-service-time estimate.
_SERVICE_EWMA_ALPHA = 0.25
#: Safety margin on the service estimate when computing serial wake times;
#: overestimating flushes a touch early (safe), underestimating violates.
_SERVICE_SAFETY = 1.5


@dataclass(frozen=True)
class SchedulerConfig:
    """Flush and admission policy knobs shared by both front ends.

    Parameters
    ----------
    deadline_s:
        Maximum time any queued window may wait before its cohort's flush
        *starts*.  The scheduler reports the next due time via
        :meth:`CohortFlushCore.next_flush_due_s`; a driver that pumps by
        then observes zero deadline violations.
    max_batch_size:
        Flush a cohort immediately once this many windows are queued, and
        also the chunk cap handed to each cohort's :class:`MicroBatcher`.
    latency_budget_s:
        Admission-control budget on the observed p95 flush latency.  ``None``
        disables admission control entirely (every window is admitted).
    admission_window:
        Number of recent flush latencies in the sliding p95 estimate.
    recovery_fraction:
        Hysteresis: once shedding, admission resumes only when the observed
        p95 falls to ``recovery_fraction * latency_budget_s`` or below.
    shed_ratio:
        Fraction of incoming windows refused while shedding, spread evenly
        across submissions.  Must stay below 1.0 so flushes (and therefore
        fresh latency samples) keep happening and the controller can observe
        recovery.
    stream_lag_budget_s:
        Admission-control budget on the *upstream* stream lag (oldest
        un-acked window age on the streaming data plane).  Flush-latency
        percentiles cannot see windows queueing in the log before a
        scheduler reads them, so on the stream plane shedding must also
        trigger on lag, before the log grows unbounded.  ``None`` (the
        default, and the only meaningful setting off the stream plane)
        disables the lag trigger.
    """

    deadline_s: float = 0.015
    max_batch_size: int = 32
    latency_budget_s: Optional[float] = None
    admission_window: int = 32
    recovery_fraction: float = 0.5
    shed_ratio: float = 0.5
    stream_lag_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.latency_budget_s is not None and self.latency_budget_s <= 0:
            raise ValueError("latency_budget_s must be positive (or None)")
        if self.admission_window < 1:
            raise ValueError("admission_window must be at least 1")
        if not 0.0 < self.recovery_fraction <= 1.0:
            raise ValueError("recovery_fraction must be in (0, 1]")
        if not 0.0 < self.shed_ratio < 1.0:
            raise ValueError(
                "shed_ratio must be in (0, 1): shedding everything would "
                "starve the latency estimate and never recover"
            )
        if self.stream_lag_budget_s is not None and self.stream_lag_budget_s <= 0:
            raise ValueError("stream_lag_budget_s must be positive (or None)")


class AdmissionController:
    """Sheds load when flush p95 — or upstream stream lag — blows its budget.

    The controller is a two-state machine with hysteresis.  In the admitting
    state every window passes.  When the sliding-window p95 of flush
    latencies exceeds ``budget_s``, *or* the most recently observed stream
    lag exceeds ``lag_budget_s``, it flips to shedding and refuses
    ``shed_ratio`` of submissions (deterministically, via an accumulator, so
    the shed load is spread evenly rather than bursty).  It flips back once
    every enabled signal recovers to ``recovery_fraction`` of its budget.
    Shedding degrades sessions — their window for that period is skipped and
    counted — but never blocks the submitter or raises.

    The lag signal exists for the streaming data plane: windows queueing in
    an append-only log *upstream* of the scheduler never show up in flush
    latency, so a slow consumer would let the log grow unbounded while the
    p95 looked healthy.  Off the stream plane no lag is ever observed and
    the controller behaves exactly as before.
    """

    def __init__(
        self,
        budget_s: Optional[float],
        window: int = 32,
        recovery_fraction: float = 0.5,
        shed_ratio: float = 0.5,
        lag_budget_s: Optional[float] = None,
    ) -> None:
        self.budget_s = budget_s
        self.lag_budget_s = lag_budget_s
        self.recovery_fraction = recovery_fraction
        self.shed_ratio = shed_ratio
        self._latencies: Deque[float] = deque(maxlen=window)
        self.shedding = False
        self.shed_count = 0
        self.activations = 0
        self._accumulator = 0.0
        #: Most recently observed upstream stream lag (oldest-unacked age).
        self.last_stream_lag_s = 0.0

    @property
    def enabled(self) -> bool:
        return self.budget_s is not None or self.lag_budget_s is not None

    def observed_p95(self) -> float:
        """Sliding-window p95 of recorded flush latencies (0.0 when empty)."""
        if not self._latencies:
            return 0.0
        return float(np.percentile(list(self._latencies), 95))

    def observe(
        self, latency_s: float, stream_lag_s: Optional[float] = None
    ) -> None:
        """Record one flush latency (and optionally the current stream lag)."""
        self._latencies.append(float(latency_s))
        if stream_lag_s is not None:
            self.last_stream_lag_s = float(stream_lag_s)
        self._update_state()

    def observe_lag(self, stream_lag_s: float) -> None:
        """Record the current upstream stream lag without a latency sample.

        Producers on the stream plane call this per submission round — lag
        moves with every append and every consumer ack, not only at flush
        boundaries, and shedding must be able to trigger between flushes.
        """
        self.last_stream_lag_s = float(stream_lag_s)
        self._update_state()

    def _update_state(self) -> None:
        if not self.enabled:
            return
        p95 = self.observed_p95()
        latency_over = self.budget_s is not None and p95 > self.budget_s
        lag_over = (
            self.lag_budget_s is not None
            and self.last_stream_lag_s > self.lag_budget_s
        )
        if not self.shedding and (latency_over or lag_over):
            self.shedding = True
            self.activations += 1
            self._accumulator = 0.0
            return
        latency_recovered = (
            self.budget_s is None
            or p95 <= self.recovery_fraction * self.budget_s
        )
        lag_recovered = (
            self.lag_budget_s is None
            or self.last_stream_lag_s
            <= self.recovery_fraction * self.lag_budget_s
        )
        if self.shedding and latency_recovered and lag_recovered:
            self.shedding = False

    def admit(self) -> bool:
        """Decide one submission; ``False`` means shed (and is counted)."""
        if not self.shedding:
            return True
        self._accumulator += self.shed_ratio
        if self._accumulator >= 1.0 - _DEADLINE_EPS:
            self._accumulator -= 1.0
            self.shed_count += 1
            return False
        return True


class ModelRouter:
    """Routes sessions to per-cohort classifiers behind one scheduler.

    Windows destined for different models cannot share a ``predict_proba``
    call, so the scheduler keeps one batcher and queue per cohort; the
    router owns the cohort → classifier mapping.  Construct it from a dict
    (insertion order fixes the cohort flush order) or from a bare classifier
    for the homogeneous single-cohort case.
    """

    DEFAULT_COHORT = "default"

    def __init__(
        self,
        classifiers: Union[EEGClassifier, Mapping[str, EEGClassifier]],
        default_cohort: Optional[str] = None,
    ) -> None:
        if isinstance(classifiers, Mapping):
            if not classifiers:
                raise ValueError("ModelRouter needs at least one classifier")
            self._classifiers = dict(classifiers)
        else:
            self._classifiers = {self.DEFAULT_COHORT: classifiers}
        if default_cohort is None:
            default_cohort = next(iter(self._classifiers))
        if default_cohort not in self._classifiers:
            raise KeyError(f"default cohort {default_cohort!r} has no classifier")
        self.default_cohort = default_cohort

    @property
    def cohorts(self) -> Tuple[str, ...]:
        return tuple(self._classifiers)

    def classifier_for(self, cohort: str) -> EEGClassifier:
        try:
            return self._classifiers[cohort]
        except KeyError:
            raise KeyError(
                f"unknown cohort {cohort!r}; routable cohorts: {list(self._classifiers)}"
            ) from None

    def resolve(self, cohort: Optional[str]) -> str:
        """Normalise an optional cohort name, validating it exists."""
        if cohort is None:
            return self.default_cohort
        self.classifier_for(cohort)
        return cohort

    def replace(self, cohort: str, classifier: EEGClassifier) -> None:
        """Swap a cohort's classifier in place (plan hot-swap).

        Only existing cohorts can be replaced — the cohort set is fixed at
        scheduler construction (queues, batchers and executor lanes are all
        keyed on it).
        """
        if cohort not in self._classifiers:
            raise KeyError(
                f"unknown cohort {cohort!r}; routable cohorts: {list(self._classifiers)}"
            )
        self._classifiers[cohort] = classifier


@dataclass
class QueuedWindow:
    """One window waiting in a cohort queue for the next flush."""

    session_id: str
    window: np.ndarray
    #: Clock time the deadline is measured from (submission, stream-entry
    #: timestamp or local read time).
    arrival_s: float
    due_s: float  # absolute clock time by which the flush must start
    #: Stream-plane identity: the entry id on the cohort log and the
    #: session's submission sequence (0 for windows submitted directly).
    entry_id: int = 0
    sequence: int = 0


@dataclass
class FlushEvent:
    """Outcome of one cohort flush (async or lock-step)."""

    cohort: str
    #: "deadline", "full", "drain", "worker-died" or "tick" (lock-step).
    reason: str
    flushed_at_s: float
    #: Each served session's resulting tick, keyed by session id.
    ticks: Dict[str, Any] = field(default_factory=dict)
    batch_size: int = 0
    #: Service time: wall clock spent inside ``predict_proba`` only.
    latency_s: float = 0.0
    max_queue_wait_s: float = 0.0
    deadline_violations: int = 0
    #: Execution backend lane that served the flush ("serial", a worker
    #: thread name, or a shard-worker id).
    worker: str = ""
    #: Time between handing the batch to the executor and the result being
    #: folded back in, minus the service time: executor queueing/transport
    #: overhead (0.0 for the inline serial path).
    executor_wait_s: float = 0.0


@dataclass
class _InFlightFlush:
    """Book-keeping for one flush handed to the executor, until harvest."""

    cohort: str
    reason: str
    started_at_s: float
    max_wait_s: float
    violations: int
    items: List[QueuedWindow]
    prepared: PreparedBatch
    ticket: FlushTicket
    #: True when the flush ran on a degraded (quarantined-cohort serial
    #: fallback) lane rather than the configured executor.
    degraded: bool = False
    #: Front-end telemetry fields sampled when the flush started.
    context: Dict[str, Any] = field(default_factory=dict)


class CohortFlushCore:
    """Per-cohort queues, deadline/full flush policy, execution and healing.

    Front ends fill the cohort queues through :meth:`_enqueue` and fill in
    three seams:

    - enqueue: :meth:`_supersede` accounts for a stale window that a
      fresher one from the same session replaced (at enqueue or at
      requeue), and :meth:`_serves` says whether a requeued window's
      session still wants its row;
    - delivery: :meth:`_deliver` hands one served flush onward, and
      :meth:`_drain_tail` settles what :meth:`drain` leaves undelivered;
    - telemetry: :meth:`_front_fields` supplies a record's front-end fields
      and :meth:`_flush_context` the ones sampled at flush start.

    ``cohorts`` selects the routed cohorts this core flushes (all of them
    when ``None``).
    """

    def __init__(
        self,
        router: Union[ModelRouter, EEGClassifier, Mapping[str, EEGClassifier]],
        cohorts: Optional[Sequence[str]] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        clock: Optional[Clock] = None,
        executor: Optional[FlushExecutor] = None,
    ) -> None:
        self.router = router if isinstance(router, ModelRouter) else ModelRouter(router)
        cohorts = self.router.cohorts if cohorts is None else tuple(cohorts)
        classifiers = {cohort: self.router.classifier_for(cohort) for cohort in cohorts}
        self.scheduler_config = scheduler_config or SchedulerConfig()
        self.clock = clock or SYSTEM_CLOCK
        self.telemetry = FleetTelemetry()
        self.executor: FlushExecutor = executor or SerialExecutor()
        # Remote executors classify on worker-owned plan replicas, which
        # auto-specialise over there; binding arenas on the local plans
        # would only pin scratch that never executes.
        local_execution = not getattr(self.executor, "remote_execution", False)
        self._batchers: Dict[str, MicroBatcher] = {
            cohort: MicroBatcher(
                classifier,
                max_batch_size=self.scheduler_config.max_batch_size,
                clock=self.clock,
                specialize=local_execution,
            )
            for cohort, classifier in classifiers.items()
        }
        self.executor.bind(classifiers, clock=self.clock)
        self._queues: Dict[str, List[QueuedWindow]] = {cohort: [] for cohort in cohorts}
        self._inflight: Dict[str, _InFlightFlush] = {}
        # Per-cohort EWMA of flush *service* time (execute only).  ``None``
        # means "no sample yet": a genuine zero-latency sample (exact under a
        # virtual clock) must seed the estimate, not reset it.
        self._service_ewma_s: Dict[str, Optional[float]] = {
            cohort: None for cohort in cohorts
        }
        #: Worker deaths observed, healed or raised.
        self.worker_deaths = 0
        #: Plan hot-swaps completed through :meth:`swap_plan`.
        self.plan_swaps = 0
        #: Current plan version per cohort; stamped onto every flush record.
        self._plan_versions: Dict[str, int] = {cohort: 1 for cohort in cohorts}
        #: Quarantined cohorts now served by their inline serial fallback.
        self._degraded: set = set()
        #: Lazily-built per-cohort serial fallbacks (degraded serving and
        #: drain-time service of cohorts whose worker is mid-respawn).
        self._fallbacks: Dict[str, SerialExecutor] = {}
        #: Most recent flush (any trigger) — the only handle on a flush that
        #: ran inline when a batch filled.
        self.last_flush_event: Optional[FlushEvent] = None

    # ------------------------------------------------------------------ #
    # front-end seams
    # ------------------------------------------------------------------ #
    def _supersede(self, cohort: str, stale: QueuedWindow) -> None:
        """Account for a stale window a fresher one from its session replaced."""
        raise NotImplementedError

    def _serves(self, session_id: str) -> bool:
        """Whether a requeued window's session still wants its row."""
        return True

    def _deliver(
        self, flight: _InFlightFlush, result: BatchResult, execution: ExecutionResult
    ) -> Dict[str, Any]:
        """Hand one served flush onward; returns the event's ``ticks``."""
        raise NotImplementedError

    def _drain_tail(self) -> None:
        """Settle what :meth:`drain` leaves undelivered (default: nothing)."""

    def _front_fields(self) -> Dict[str, Any]:
        """``n_sessions``, ``stalled_sessions`` and ``backlog_depth`` (at
        least) for the next telemetry record."""
        raise NotImplementedError

    def _flush_context(self, cohort: str) -> Dict[str, Any]:
        """Telemetry fields sampled when a cohort's flush starts."""
        return {}

    # ------------------------------------------------------------------ #
    # queues
    # ------------------------------------------------------------------ #
    @property
    def cohorts(self) -> Tuple[str, ...]:
        """The cohorts this front end flushes."""
        return tuple(self._queues)

    @property
    def inflight_cohorts(self) -> Tuple[str, ...]:
        """Cohorts whose flush is currently running on the executor."""
        return tuple(self._inflight)

    def backlog_depth(self) -> int:
        """Windows queued here: admitted, not yet handed to the executor."""
        return sum(len(queue) for queue in self._queues.values())

    def _enqueue(self, cohort: str, item: QueuedWindow) -> None:
        """Queue a window; it supersedes its session's stale queued one.

        Real-time semantics: stale windows are dropped, not replayed.  The
        fresh window is appended, so every queue stays FIFO by arrival and
        — with one shared ``deadline_s`` — due-ordered, which
        :meth:`_schedule` relies on.
        """
        queue = self._queues[cohort]
        for index, queued in enumerate(queue):
            if queued.session_id == item.session_id:
                del queue[index]
                self._supersede(cohort, queued)
                break
        queue.append(item)

    def _ready_full(self, cohort: str) -> bool:
        """Whether the cohort's backlog fills a whole batch and may flush."""
        return (
            len(self._queues[cohort]) >= self.scheduler_config.max_batch_size
            and cohort not in self._inflight
            and self._cohort_available(cohort)
        )

    def _flush_if_full(self, cohort: str) -> Optional[FlushEvent]:
        """Flush a full cohort inline; ``None`` when it did not start.

        While the cohort already has a flush in flight the backlog keeps
        queueing and flushes as soon as that one is harvested; a worker
        that died or went respawning leaves the windows queued for a later
        pump (or drain).
        """
        if not self._ready_full(cohort):
            return None
        if self._try_begin_flush(cohort, reason="full") is None:
            return None
        return self._complete(cohort)

    def _next_full_cohort(self) -> Optional[str]:
        """A cohort whose backlog fills a whole batch and is free to flush."""
        return next((c for c in self._queues if self._ready_full(c)), None)

    # ------------------------------------------------------------------ #
    # supervision / self-healing
    # ------------------------------------------------------------------ #
    def _supervised(self) -> bool:
        """Whether the executor exposes the worker-supervision surface."""
        return hasattr(self.executor, "worker_state")

    def _fallback_for(self, cohort: str) -> SerialExecutor:
        """The cohort's inline serial fallback lane, built on first use."""
        fallback = self._fallbacks.get(cohort)
        if fallback is None:
            fallback = SerialExecutor(label=f"degraded:{cohort}")
            fallback.bind(
                {cohort: self.router.classifier_for(cohort)}, clock=self.clock
            )
            self._fallbacks[cohort] = fallback
        return fallback

    def _degrade(self, cohort: str) -> None:
        """Permanently route a quarantined cohort to its serial fallback."""
        if cohort in self._degraded:
            return
        self._degraded.add(cohort)
        self._fallback_for(cohort)

    def _executor_for(self, cohort: str) -> FlushExecutor:
        if cohort in self._degraded:
            return self._fallbacks[cohort]
        return self.executor

    def _cohort_available(self, cohort: str) -> bool:
        """Whether a flush submitted for this cohort now would be accepted.

        Respawning cohorts are unavailable until their backoff elapses (the
        windows keep queueing; :meth:`_schedule` pushes their wake time to
        the retry); quarantined cohorts degrade to the serial fallback and
        become available again immediately.
        """
        if cohort in self._degraded or not self._supervised():
            return True
        state = self.executor.worker_state(cohort)
        if state == WORKER_QUARANTINED:
            self._degrade(cohort)
            return True
        if state == WORKER_RESPAWNING:
            retry_at = self.executor.respawn_due_s(cohort)
            return retry_at is None or self.clock.now() >= retry_at
        return True

    def _effective_due_s(self, cohort: str, due_s: float) -> float:
        """A queued window's due time, pushed back to any pending respawn.

        A cohort whose worker is mid-backoff cannot flush before the retry
        time no matter how overdue its windows are; scheduling the wake at
        the original due time would spin the pump without progress.
        """
        if cohort in self._degraded or not self._supervised():
            return due_s
        if self.executor.worker_state(cohort) == WORKER_RESPAWNING:
            retry_at = self.executor.respawn_due_s(cohort)
            if retry_at is not None:
                return max(due_s, retry_at)
        return due_s

    def _heal_worker_death(self, cohort: str) -> bool:
        """Count one worker death and absorb it; ``False`` means raise.

        Healing is only possible when the executor supervises its workers
        (it respawns the lane; the core merely waits out the backoff): it
        emits a ``worker-died`` telemetry record and degrades the cohort if
        the supervisor quarantined it.
        """
        self.worker_deaths += 1
        if not self._supervised():
            return False
        self._record(
            "worker-died",
            cohort=cohort,
            completed_at_s=self.clock.now(),
            plan_version=self._plan_versions.get(cohort, 0),
        )
        if self.executor.worker_state(cohort) == WORKER_QUARANTINED:
            self._degrade(cohort)
        return True

    def _try_begin_flush(
        self, cohort: str, reason: str
    ) -> Optional[_InFlightFlush]:
        """Begin a flush, absorbing recoverable executor failures.

        Returns ``None`` when the flush could not start but the windows are
        safely back in the queue: the worker died at submit (healed — the
        supervisor respawns it), the cohort is mid-backoff, or it was just
        quarantined (degraded — the next attempt serves via the fallback).
        Unrecoverable failures (or deaths on an unsupervised executor)
        propagate.
        """
        try:
            return self._begin_flush(cohort, reason)
        except WorkerDiedError:
            # _begin_flush already restored the queue before re-raising.
            if not self._heal_worker_death(cohort):
                raise
            return None
        except WorkerRespawnPending:
            return None
        except CohortQuarantinedError:
            self._degrade(cohort)
            return None

    # ------------------------------------------------------------------ #
    # flush scheduling
    # ------------------------------------------------------------------ #
    def service_estimate_s(self, cohort: str) -> Optional[float]:
        """Current EWMA of the cohort's flush service time (None = no sample)."""
        return self._service_ewma_s[cohort]

    def _schedule(self) -> Tuple[Optional[float], List[str]]:
        """Wake time and flush order meeting all deadlines on this executor.

        On a serializing executor cohorts flush one after another, so a
        cohort's flush must start early enough that the cohorts due *before*
        it can be served first: with dues ``d1 <= d2 <= ...`` and
        (safety-inflated) service estimates ``s1, s2, ...``, the executor
        must wake at ``min(d1, d2 - s1, d3 - s1 - s2, ...)``.  With one
        cohort this degenerates to the oldest window's plain due time.

        On a concurrent executor (thread pool, process shards) cohort
        flushes overlap, so every cohort's deadline stands alone and the
        wake time is simply the earliest due time.
        """
        pending = sorted(
            (self._effective_due_s(cohort, queue[0].due_s), cohort)
            for cohort, queue in self._queues.items()
            if queue
        )
        if not pending:
            return None, []
        order = [cohort for _, cohort in pending]
        if not self.executor.serializes_flushes:
            return pending[0][0], order
        wake = float("inf")
        ahead = 0.0
        for due, cohort in pending:
            wake = min(wake, due - ahead)
            estimate = self._service_ewma_s[cohort]
            ahead += _SERVICE_SAFETY * (estimate if estimate is not None else 0.0)
        return wake, order

    def next_flush_due_s(self) -> Optional[float]:
        """Absolute clock time by which :meth:`pump` must next be called.

        A driver that pumps no later than this guarantees no queued window
        waits past its deadline: the time is the earliest pending due time,
        pulled forward — on a serializing executor — by the estimated
        service time of any other cohorts that must flush first.  ``None``
        when nothing is queued.
        """
        wake, _ = self._schedule()
        return wake

    def pump(self, horizon_s: float = 0.0, wait: bool = True) -> List[FlushEvent]:
        """Flush cohorts whose wake time has arrived, in due order.

        A cohort can flush slightly *before* its own deadline when (on a
        serializing executor) an earlier-due cohort's estimated service time
        would otherwise push it past; flushing early is always
        deadline-safe, just a smaller batch.  On a concurrent executor every
        due cohort is handed to the executor immediately, so their flushes
        overlap.

        ``horizon_s`` extends the lookahead for drivers that are about to
        be busy: ``pump(horizon_s=0.005)`` also flushes anything that would
        come due within the next 5 ms, so a single-threaded driver can
        flush *before* starting work it cannot interrupt (e.g. an expensive
        ``prepare_window``) instead of returning to an already-missed
        deadline.

        With ``wait=True`` (the default) the call blocks until every flush
        it started has been harvested, so the returned events are complete
        and no executor work remains when it returns.  ``wait=False``
        returns as soon as the due flushes are *started*; their events
        surface from a later ``pump``/``drain`` once the futures complete
        (see :attr:`inflight_cohorts`).  Either way, a cohort whose previous
        flush is still in flight is never double-flushed: the call waits
        that flush out first.
        """
        if horizon_s < 0:
            raise ValueError("horizon_s must be non-negative")
        events = self._harvest(block=False)
        while True:
            # A backlog that filled to a whole batch behind an in-flight
            # flush is due the moment the cohort frees up, deadline or not —
            # the inline full-batch flush was refused for it.
            cohort = self._next_full_cohort()
            reason = "full"
            if cohort is None:
                wake, order = self._schedule()
                if wake is None or self.clock.now() + horizon_s < wake - _DEADLINE_EPS:
                    break
                cohort = next(
                    (
                        c
                        for c in order
                        if c not in self._inflight and self._cohort_available(c)
                    ),
                    None,
                )
                reason = "deadline"
                if cohort is None:
                    # Every due cohort is either in flight or waiting out a
                    # respawn backoff.  Wait the most urgent in-flight one
                    # out and reconsider (its queue may have refilled); with
                    # nothing in flight there is no progress to make now —
                    # the respawning cohorts' wake times are in the future.
                    busy = next((c for c in order if c in self._inflight), None)
                    if busy is None:
                        break
                    events.append(self._complete(busy))
                    continue
            flight = self._try_begin_flush(cohort, reason=reason)
            if flight is None:
                # Worker death absorbed (or backoff hit) — the windows are
                # back in the queue and the cohort is unavailable until its
                # respawn, so the next _schedule() pass moves past it.
                continue
            if flight.ticket.done():
                events.append(self._complete(cohort))
        if wait:
            # Wait out *everything* in flight — flushes started here and any
            # left over from an earlier pump(wait=False) — so the documented
            # contract holds: no executor work remains when pump() returns.
            events.extend(self._harvest(block=True))
            while (cohort := self._next_full_cohort()) is not None:
                flight = self._try_begin_flush(cohort, reason="full")
                if flight is None:
                    break  # cohort went respawning; a later pump serves it
                events.append(self._complete(cohort))
        return events

    def drain(self) -> List[FlushEvent]:
        """Flush everything still queued, regardless of deadlines.

        Also waits out and returns any flushes still in flight on the
        executor, so after ``drain()`` no window and no future is pending.
        """
        events = self._harvest(block=True)
        passes = 0
        while any(self._queues.values()):
            passes += 1
            if passes > 64:
                raise RuntimeError(
                    "drain() did not converge: workers keep dying faster "
                    "than the fallback can serve"
                )
            for cohort in [c for c, q in self._queues.items() if q]:
                if not self._queues[cohort]:
                    continue
                if self._cohort_available(cohort):
                    flight = self._try_begin_flush(cohort, reason="drain")
                    if flight is not None:
                        events.append(self._complete(cohort))
                        continue
                if self._queues[cohort]:
                    # The cohort's worker is mid-respawn and drain cannot
                    # wait out virtual backoffs: serve this one flush on
                    # the inline fallback without degrading the cohort.
                    self._begin_flush(
                        cohort, reason="drain", executor=self._fallback_for(cohort)
                    )
                    events.append(self._complete(cohort))
        self._drain_tail()
        return events

    def _harvest(self, block: bool) -> List[FlushEvent]:
        """Fold completed in-flight flushes back in; optionally wait for all."""
        events = []
        for cohort in list(self._inflight):
            if block or self._inflight[cohort].ticket.done():
                events.append(self._complete(cohort))
        return events

    # ------------------------------------------------------------------ #
    # flush mechanics
    # ------------------------------------------------------------------ #
    def _begin_flush(
        self,
        cohort: str,
        reason: str,
        executor: Optional[FlushExecutor] = None,
    ) -> _InFlightFlush:
        """Hand a cohort's queued windows to the executor (phase one).

        ``executor`` overrides the cohort's routed lane for this one flush
        (drain uses it to serve a mid-respawn cohort on the inline fallback
        without degrading it permanently).
        """
        if cohort in self._inflight:
            raise RuntimeError(
                f"cohort {cohort!r} already has a flush in flight; "
                "double-flushes are refused"
            )
        if executor is None:
            executor = self._executor_for(cohort)
        queue, self._queues[cohort] = self._queues[cohort], []
        if not queue:
            raise RuntimeError(f"internal: flush of empty cohort queue {cohort!r}")
        context = self._flush_context(cohort)
        batcher = self._batchers[cohort]
        started_at = self.clock.now()
        for item in queue:
            batcher.submit(item.session_id, item.window)
        prepared = batcher.prepare()
        assert prepared is not None
        try:
            ticket = executor.submit_flush(cohort, prepared)
        except Exception:
            # The executor refused the batch (worker died, pool shut down).
            # Put the windows back so no admitted window is silently lost:
            # a recovered executor (or drain) can still serve them, and the
            # one-result-per-admitted-window conservation invariant holds.
            self._queues[cohort] = queue + self._queues[cohort]
            raise
        flight = _InFlightFlush(
            cohort=cohort,
            reason=reason,
            started_at_s=started_at,
            max_wait_s=max(started_at - item.arrival_s for item in queue),
            violations=sum(
                1 for item in queue if started_at > item.due_s + _DEADLINE_EPS
            ),
            items=queue,
            prepared=prepared,
            ticket=ticket,
            degraded=executor is not self.executor,
            context=context,
        )
        self._inflight[cohort] = flight
        return flight

    def _complete(self, cohort: str) -> FlushEvent:
        """Harvest one in-flight flush: deliver its rows, record telemetry."""
        flight = self._inflight[cohort]
        # Resolve the ticket *before* dropping the in-flight entry: if
        # result() raises (worker timeout), the flush stays tracked and a
        # later pump/drain retries the harvest instead of wedging the cohort.
        try:
            execution = flight.ticket.result()
        except WorkerDiedError:
            # The worker is gone and this flush will never be answered:
            # requeue the windows (the respawned worker, fallback or drain
            # serves them) instead of wedging the cohort behind a dead lane.
            # On a supervised executor the death is absorbed — the
            # supervisor schedules the respawn and a synthetic event marks
            # the spot; unsupervised executors raise.
            del self._inflight[cohort]
            self._requeue(flight)
            if not self._heal_worker_death(cohort):
                raise
            event = FlushEvent(
                cohort=cohort,
                reason="worker-died",
                flushed_at_s=flight.started_at_s,
            )
            self.last_flush_event = event
            return event
        del self._inflight[cohort]
        result = self._batchers[cohort].finalize(flight.prepared, execution)
        completed_at = self.clock.now()
        # Service EWMA: execute-only time, so wake-time estimates are not
        # polluted by executor queueing.  None means "no sample yet" — a
        # genuine 0.0 sample must seed the estimate, not reset it.
        previous = self._service_ewma_s[cohort]
        self._service_ewma_s[cohort] = (
            execution.service_s
            if previous is None
            else _SERVICE_EWMA_ALPHA * execution.service_s
            + (1.0 - _SERVICE_EWMA_ALPHA) * previous
        )
        ticks = self._deliver(flight, result, execution)
        executor_wait = max(
            0.0, (completed_at - flight.started_at_s) - execution.service_s
        )
        self._record(
            flight.reason,
            batch_size=len(result),
            latency_s=result.latency_s,
            deadline_violations=flight.violations,
            max_queue_wait_s=flight.max_wait_s,
            cohort=cohort,
            worker=execution.worker,
            executor_wait_s=executor_wait,
            completed_at_s=completed_at,
            specialized=execution.specialized,
            plan_version=execution.plan_version
            or self._plan_versions.get(cohort, 0),
            degraded=flight.degraded,
            **flight.context,
        )
        event = FlushEvent(
            cohort=cohort,
            reason=flight.reason,
            flushed_at_s=flight.started_at_s,
            ticks=ticks,
            batch_size=len(result),
            latency_s=result.latency_s,
            max_queue_wait_s=flight.max_wait_s,
            deadline_violations=flight.violations,
            worker=execution.worker,
            executor_wait_s=executor_wait,
        )
        self.last_flush_event = event
        return event

    def _requeue(self, flight: _InFlightFlush) -> None:
        """Put an unserved flush's windows back at the head of its queue.

        The original per-window arrival times stand replaced by the flush
        start (never earlier, so the re-derived deadlines are conservative).
        Windows whose session no longer wants a row are dropped, matching
        the harvest path, and a session that already queued a *fresher*
        window behind the in-flight flush keeps that one — the stale window
        is superseded, exactly as if the flush had never started.
        """
        deadline = self.scheduler_config.deadline_s
        queue = self._queues[flight.cohort]
        fresher = {item.session_id for item in queue}
        requeued = []
        for item in flight.items:
            if not self._serves(item.session_id):
                continue
            if item.session_id in fresher:
                self._supersede(flight.cohort, item)
                continue
            requeued.append(
                replace(
                    item,
                    arrival_s=flight.started_at_s,
                    due_s=flight.started_at_s + deadline,
                )
            )
        self._queues[flight.cohort] = requeued + queue

    def _record(
        self, reason: str, batch_size: int = 0, latency_s: float = 0.0, **fields
    ) -> None:
        """Append one telemetry record (front-end fields from the seam)."""
        self.telemetry.record(
            FleetTickRecord(
                tick_index=len(self.telemetry.records),
                batch_size=batch_size,
                batch_latency_s=latency_s,
                flush_reason=reason,
                **self._front_fields(),
                **fields,
            )
        )

    # ------------------------------------------------------------------ #
    # plan hot-swap / fleet health
    # ------------------------------------------------------------------ #
    def swap_plan(
        self,
        cohort: Optional[str] = None,
        payload: Optional[bytes] = None,
        classifier: Optional[EEGClassifier] = None,
    ) -> int:
        """Swap a cohort's serving plan under traffic; returns the new version.

        Pass exactly one of ``payload`` (``.npz`` transport bytes from
        :meth:`repro.models.compiled.CompiledClassifier.to_payload`) or
        ``classifier`` (a live classifier object).  Any in-flight flush for
        the cohort is harvested first, so no flush straddles the swap: every
        flush serves entirely on the old plan or entirely on the new one,
        and version-aware executors stamp which on each record.  On the
        stream plane this is also the handler for
        :class:`~repro.streams.messages.PlanSwap` control entries.

        On a remote, swap-capable executor (process shards, the chaos
        simulator) the payload ships to the worker as a versioned control
        message and the worker double-buffers the flip; the local router,
        batcher and fallback are updated in lockstep so drain-time and
        degraded serving also use the new plan.  On local executors the
        swap is a synchronous classifier replacement between flushes.
        """
        cohort = self.router.resolve(cohort)
        if (payload is None) == (classifier is None):
            raise ValueError("pass exactly one of payload= or classifier=")
        if cohort in self._inflight:
            self._complete(cohort)
        executor = self.executor
        remote_swap = getattr(executor, "remote_execution", False) and hasattr(
            executor, "swap_plan"
        )
        if classifier is not None:
            local = classifier
        else:
            from repro.models.compiled import CompiledClassifier

            local = CompiledClassifier.from_payload(payload)
        if remote_swap:
            version = executor.swap_plan(
                cohort, payload if payload is not None else classifier
            )
        else:
            version = self._plan_versions.get(cohort, 0) + 1
            swap = getattr(executor, "swap_classifier", None)
            if swap is not None:
                swap(cohort, local)
        self.router.replace(cohort, local)
        self._batchers[cohort].swap_classifier(local)
        if cohort in self._fallbacks:
            self._fallbacks[cohort].swap_classifier(cohort, local)
        self._plan_versions[cohort] = version
        self.plan_swaps += 1
        return version

    def plan_version(self, cohort: Optional[str] = None) -> int:
        """Current plan version of a cohort (1 until the first swap)."""
        return self._plan_versions.get(self.router.resolve(cohort), 0)

    def fleet_health(self) -> Dict[str, Dict[str, Any]]:
        """Per-cohort supervision snapshot: state, plan version, restarts.

        ``state`` is ``"degraded"`` once a cohort serves from its serial
        fallback, otherwise the supervisor's view (``running`` /
        ``respawning`` / ``quarantined``; plain ``running`` on unsupervised
        executors, which have no lanes to lose).
        """
        health: Dict[str, Dict[str, Any]] = {}
        supervised = self._supervised()
        for cohort, queue in self._queues.items():
            if cohort in self._degraded:
                state = "degraded"
            elif supervised:
                state = self.executor.worker_state(cohort)
            else:
                state = "running"
            restarts = 0
            if supervised and hasattr(self.executor, "restart_count"):
                restarts = self.executor.restart_count(cohort)
            health[cohort] = {
                "state": state,
                "plan_version": self._plan_versions.get(cohort, 0),
                "restarts": restarts,
                "queued": len(queue),
            }
        return health

    # ------------------------------------------------------------------ #
    # reporting / lifecycle
    # ------------------------------------------------------------------ #
    def _specialization(self) -> Dict[str, Dict[str, float]]:
        return {
            cohort: stats
            for cohort, batcher in self._batchers.items()
            if (stats := batcher.specialization_stats()) is not None
        }

    def report(self) -> FleetReport:
        """Flush-side fleet summary.

        Two cores fed the same windows under the same virtual clock produce
        equal reports, field for field (the replay determinism contract).
        """
        return fleet_report(self.telemetry, specialization=self._specialization())

    def shutdown(self) -> None:
        """Drain pending work, then stop the executor (and any fallbacks)."""
        self.drain()
        self.executor.shutdown()
        for fallback in self._fallbacks.values():
            fallback.shutdown()
        self._fallbacks = {}
        self._degraded = set()


class AsyncFleetScheduler(SessionFleet, CohortFlushCore):
    """Session-owning front end: deadline-aware micro-batches per cohort.

    Sessions attach with a cohort (defaulting to the router's default) and
    submit through :meth:`submit`, which runs the session's
    ``prepare_window`` phase and queues the window with its arrival time.  A
    cohort flushes when its batch fills (inline, inside ``submit``) or when
    the driver pumps it at/after the oldest window's deadline
    (:meth:`pump`, scheduled via :meth:`next_flush_due_s`).  Flushes route
    each probability row back through the owning session's ``apply_result``
    and record one :class:`FleetTickRecord` each.

    :meth:`tick` is the lock-step mode: every session prepared in insertion
    order, every cohort flushed at once.  A one-session fleet is
    tick-for-tick identical to
    :class:`~repro.core.realtime.RealTimeInferenceLoop`.

    Sessions are duck-typed (see :class:`~repro.serving.session.SessionFleet`),
    so deterministic test harnesses can stand in for full
    :class:`~repro.serving.session.ServingSession` objects.
    """

    def __init__(
        self,
        router: Union[ModelRouter, EEGClassifier, Mapping[str, EEGClassifier]],
        config: Optional[CognitiveArmConfig] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        clock: Optional[Clock] = None,
        executor: Optional[FlushExecutor] = None,
    ) -> None:
        CohortFlushCore.__init__(
            self, router, None, scheduler_config, clock, executor
        )
        self.config = config or CognitiveArmConfig()
        sched = self.scheduler_config
        self.admission = AdmissionController(
            sched.latency_budget_s,
            window=sched.admission_window,
            recovery_fraction=sched.recovery_fraction,
            shed_ratio=sched.shed_ratio,
            lag_budget_s=sched.stream_lag_budget_s,
        )
        self._init_sessions()
        self._stalled_since_flush = 0
        self._shed_since_flush = 0

    def _attach_cohort(self, cohort: Optional[str]) -> str:
        return self.router.resolve(cohort)

    # ------------------------------------------------------------------ #
    # asynchronous submission path
    # ------------------------------------------------------------------ #
    def submit(self, session_id: str) -> str:
        """Run one session's prepare phase and queue (or shed) its window.

        Returns one of ``"queued"``, ``"flushed"`` (the submission filled the
        cohort batch and triggered an inline flush, retrievable as
        :attr:`last_flush_event`), ``"stalled"`` (the session produced no
        window) or ``"shed"`` (refused by admission control; the window is
        skipped with telemetry, the session keeps running).

        If the session already has a window queued (it outran the flush
        cadence), the fresh window supersedes the stale one and the drop is
        counted in :attr:`superseded_by_session`.  A full batch normally
        flushes inline; while the cohort already has a flush in flight on an
        asynchronous executor the submission queues instead.
        """
        session = self._sessions[session_id]
        window = session.prepare_window()
        if window is None:
            self._stalled_since_flush += 1
            return SUBMIT_STALLED
        if not self.admission.admit():
            self.shed_by_session[session_id] += 1
            self._shed_since_flush += 1
            return SUBMIT_SHED
        cohort = self._session_cohort[session_id]
        now = self.clock.now()
        self._enqueue(
            cohort,
            QueuedWindow(
                session_id,
                window,
                arrival_s=now,
                due_s=now + self.scheduler_config.deadline_s,
            ),
        )
        event = self._flush_if_full(cohort)
        if event is None or event.reason == "worker-died":
            return SUBMIT_QUEUED
        return SUBMIT_FLUSHED

    # ------------------------------------------------------------------ #
    # front-end seams
    # ------------------------------------------------------------------ #
    def _supersede(self, cohort: str, stale: QueuedWindow) -> None:
        self.superseded_by_session[stale.session_id] += 1

    def _serves(self, session_id: str) -> bool:
        return session_id in self._sessions

    def _deliver(
        self, flight: _InFlightFlush, result: BatchResult, execution: ExecutionResult
    ) -> Dict[str, Any]:
        per_window = result.per_window_latency_s()
        ticks: Dict[str, Any] = {}
        for session_id, probabilities in result.results.items():
            session = self._sessions.get(session_id)
            if session is None:  # departed while queued/in flight: drop its row
                continue
            ticks[session_id] = session.apply_result(probabilities, per_window)
        self.admission.observe(result.latency_s)
        return ticks

    def _drain_tail(self) -> None:
        if self._shed_since_flush or self._stalled_since_flush:
            # Sheds/stalls after the last flush would otherwise never reach
            # telemetry; emit an empty record to carry the counters (empty
            # records are excluded from latency percentiles).
            self._record("drain")

    def _front_fields(self) -> Dict[str, Any]:
        fields = {
            "n_sessions": len(self._sessions),
            "stalled_sessions": self._stalled_since_flush,
            "shed_sessions": self._shed_since_flush,
            "backlog_depth": sum(
                getattr(s, "backlog_depth", 0) for s in self._sessions.values()
            ),
        }
        self._stalled_since_flush = 0
        self._shed_since_flush = 0
        return fields

    # ------------------------------------------------------------------ #
    # lock-step mode
    # ------------------------------------------------------------------ #
    def tick(self) -> Dict[str, Any]:
        """Run one lock-step fleet tick; returns each served session's tick.

        Every attached session is prepared in insertion order and every
        cohort is flushed immediately — no queueing, no deadlines — into one
        telemetry record; admission control still applies.

        The lock-step and asynchronous entry points must not interleave on
        one instance: windows queued via :meth:`submit` would be applied out
        of order behind the fresher windows ``tick`` prepares, so ``tick``
        refuses to run until the queues are drained.
        """
        if any(self._queues.values()) or self._inflight:
            raise RuntimeError(
                "lock-step tick() cannot run with windows queued via "
                "submit() or flushes in flight; call drain() (or pump()) first"
            )
        # Stalls/sheds from submit() calls that never led to a flush fold
        # into this tick's record along with the tick's own.
        for session in self.sessions:
            window = session.prepare_window()
            if window is None:
                self._stalled_since_flush += 1
                continue
            if not self.admission.admit():
                self.shed_by_session[session.session_id] += 1
                self._shed_since_flush += 1
                continue
            self._batchers[self._session_cohort[session.session_id]].submit(
                session.session_id, window
            )
        ticks: Dict[str, Any] = {}
        batch_size = 0
        latency_s = 0.0
        specialized_flags: List[bool] = []
        for batcher in self._batchers.values():
            result = batcher.flush()
            per_window = result.per_window_latency_s()
            for session_id, probabilities in result.results.items():
                ticks[session_id] = self._sessions[session_id].apply_result(
                    probabilities, per_window
                )
            batch_size += len(result)
            latency_s += result.latency_s
            if len(result):
                # Per-flush samples, matching the async path: cohorts are
                # independent service events, not one combined latency.
                self.admission.observe(result.latency_s)
                specialized_flags.append(result.specialized)
        self._record(
            "tick",
            batch_size=batch_size,
            latency_s=latency_s,
            # The record's contract is "every classifier call hit an
            # arena": all non-empty cohort flushes must agree.
            specialized=bool(specialized_flags) and all(specialized_flags),
        )
        return ticks

    # ------------------------------------------------------------------ #
    # reporting / lifecycle
    # ------------------------------------------------------------------ #
    def report(self) -> FleetReport:
        """Fleet summary over attached and departed sessions."""
        return fleet_report(
            self.telemetry, self.sessions + self._departed, self._specialization()
        )

    def shutdown(self) -> None:
        """Drain pending work, stop the executor, then every session."""
        super().shutdown()
        for session_id in list(self._sessions):
            self.remove_session(session_id)
