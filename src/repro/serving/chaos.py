"""Deterministic fault injection for the self-healing shard fleet.

Supervision code is only as trustworthy as the failures it has been proven
against, and real worker crashes are the worst kind of test input: they
land at arbitrary wall-clock instants, so a soak that passes today says
little about tomorrow.  This module makes failure *scripted*:

- :class:`Injection` / :class:`FaultInjector` — a schedule of faults
  (worker kills mid-flush / idle / at respawn, pipe closes, slow-worker
  stalls) pinned to exact virtual times on the injected clock.  The
  injector drives any executor exposing the chaos surface
  (``inject_kill`` / ``inject_pipe_close`` / ``inject_stall``) — the real
  :class:`~repro.serving.executors.ProcessShardExecutor` or the simulated
  one below.
- :class:`SimulatedShardExecutor` — a process-shard stand-in that runs
  entirely on the virtual clock: same supervision policy (it embeds the
  same :class:`~repro.serving.executors.ShardSupervisor`), same error
  types, same hot-swap/versioning contract, but deaths, backoffs and
  stalls are exact virtual-time events.  This is what lets a
  10k-virtual-second, 32-session chaos soak with a dozen kills run in
  well under a second of real time — and deterministically, so the
  recovered run can be compared row-for-row against an uninjected one.
- :class:`ChaosLoad` — :class:`tests.helpers.SimulatedLoad`-compatible
  driver that interleaves the injector with traffic, firing each fault at
  its scripted virtual time.
- :func:`window_conservation` / :func:`recovery_latencies` — the two soak
  assertions as reusable analyses: no admitted window may vanish
  (``admitted == applied + superseded + still-queued``), and every death
  must be followed by served traffic within the supervisor's backoff
  budget.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.models.base import EEGClassifier
from repro.serving.batcher import ExecutionResult, PreparedBatch, execute_windows
from repro.serving.executors import (
    WORKER_RUNNING,
    CohortQuarantinedError,
    ExecutorClosedError,
    ShardSupervisor,
    SupervisorConfig,
    WorkerDiedError,
    WorkerRespawnPending,
    _BoundMixin,
)
from repro.serving.telemetry import FleetTelemetry
from repro.utils.timing import Clock

#: Injection kinds.
KILL = "kill"
PIPE_CLOSE = "pipe-close"
STALL = "stall"

#: Kill phases: where in the worker's lifecycle the fault lands.
#: ``idle`` kills the worker between flushes (discovered at the next
#: submit); ``mid-flush`` arms the *next accepted* flush to die before
#: answering; ``respawn`` (alias ``bind``) makes the next respawn attempt
#: fail its start handshake.
PHASES = ("idle", "mid-flush", "respawn", "bind")


@dataclass(frozen=True)
class Injection:
    """One scripted fault, pinned to a virtual time."""

    #: Absolute clock time at which the fault fires.
    at_s: float
    #: ``kill``, ``pipe-close`` or ``stall``.
    kind: str
    #: Cohort whose worker lane is faulted.
    cohort: str
    #: Lifecycle phase for kills (see :data:`PHASES`); ignored otherwise.
    phase: str = "idle"
    #: Stall length for ``stall`` injections.
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (KILL, PIPE_CLOSE, STALL):
            raise ValueError(f"unknown injection kind {self.kind!r}")
        if self.kind == KILL and self.phase not in PHASES:
            raise ValueError(
                f"unknown kill phase {self.phase!r}; expected one of {PHASES}"
            )
        if self.kind == STALL and self.duration_s <= 0:
            raise ValueError("stall injections need a positive duration_s")


class FaultInjector:
    """Applies a scripted fault schedule to an executor at exact clock times.

    The schedule is fixed up front and applied in time order by
    :meth:`poll`, which the driving loop calls whenever virtual time moves;
    :meth:`next_at_s` exposes the next fire time so an event-driven driver
    can advance the clock *to* it rather than past it.  Every applied
    injection is logged in :attr:`applied` for post-run assertions.
    """

    def __init__(self, schedule: Sequence[Injection], clock: Clock) -> None:
        self.schedule: List[Injection] = sorted(schedule, key=lambda i: i.at_s)
        self.clock = clock
        self.applied: List[Injection] = []
        self._next = 0
        self._executor: Optional[Any] = None

    def arm(self, executor: Any) -> None:
        """Point the injector at the executor whose lanes it will fault."""
        for hook in ("inject_kill", "inject_pipe_close", "inject_stall"):
            if not hasattr(executor, hook):
                raise TypeError(
                    f"{type(executor).__name__} has no {hook}; fault injection "
                    "needs an executor with the chaos surface"
                )
        self._executor = executor

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self.schedule)

    def next_at_s(self) -> Optional[float]:
        """Fire time of the next pending injection (None when exhausted)."""
        if self.exhausted:
            return None
        return self.schedule[self._next].at_s

    def poll(self) -> List[Injection]:
        """Apply every injection whose time has come; returns those fired."""
        if self._executor is None:
            raise RuntimeError("injector is not armed; call arm(executor) first")
        fired: List[Injection] = []
        now = self.clock.now()
        while not self.exhausted and self.schedule[self._next].at_s <= now + 1e-12:
            injection = self.schedule[self._next]
            self._next += 1
            self._apply(injection)
            self.applied.append(injection)
            fired.append(injection)
        return fired

    def _apply(self, injection: Injection) -> None:
        assert self._executor is not None
        if injection.kind == KILL:
            self._executor.inject_kill(injection.cohort, phase=injection.phase)
        elif injection.kind == PIPE_CLOSE:
            self._executor.inject_pipe_close(injection.cohort)
        else:
            self._executor.inject_stall(injection.cohort, injection.duration_s)


class _SimulatedWorker:
    """State of one simulated cohort lane."""

    def __init__(self, plan_version: int = 1) -> None:
        self.alive = True
        self.plan_version = plan_version
        self.pending_stall_s = 0.0
        self.die_mid_flush = False
        self.fail_next_respawn = False


class _SimulatedTicket:
    """Lazy flush result: faults scripted for this flush land at harvest."""

    def __init__(
        self,
        executor: "SimulatedShardExecutor",
        cohort: str,
        worker: _SimulatedWorker,
        prepared: PreparedBatch,
    ) -> None:
        self._executor = executor
        self._cohort = cohort
        self._worker = worker
        self._prepared = prepared
        self._execution: Optional[ExecutionResult] = None

    def done(self) -> bool:
        return True  # resolving is instantaneous (virtual time only moves here)

    def result(self, timeout: Optional[float] = None) -> ExecutionResult:
        if self._execution is not None:
            return self._execution
        worker = self._worker
        if worker.die_mid_flush:
            worker.die_mid_flush = False
            worker.alive = False
            self._executor.supervisor.record_death(self._cohort)
            raise WorkerDiedError(
                self._cohort, pending=(self,), detail="simulated mid-flush kill"
            )
        clock = self._executor._clock
        if worker.pending_stall_s > 0.0:
            # A stalled worker holds its reply; virtual clocks advance, the
            # system clock (never used in chaos soaks) would sleep.
            stall, worker.pending_stall_s = worker.pending_stall_s, 0.0
            advance = getattr(clock, "advance", None)
            if advance is not None:
                advance(stall)
            else:
                clock.sleep(stall)
        self._execution = execute_windows(
            self._executor._classifier_for(self._cohort),
            self._prepared.windows,
            self._prepared.chunk_size,
            clock,
            worker=f"sim:{self._cohort}",
            plan_version=worker.plan_version,
        )
        return self._execution


class SimulatedShardExecutor(_BoundMixin):
    """Process-shard semantics on the virtual clock, faults included.

    Implements the full supervised-executor contract of
    :class:`~repro.serving.executors.ProcessShardExecutor` — the same
    :class:`ShardSupervisor` policy object, the same typed errors
    (:class:`WorkerDiedError` / :class:`WorkerRespawnPending` /
    :class:`CohortQuarantinedError`), the same supervision, hot-swap and
    chaos surfaces — but lanes are in-process state machines instead of
    OS processes, so a scripted 10k-virtual-second soak is deterministic
    and instant.  Classification runs the *actual* cohort classifiers
    (any ``EEGClassifier``, no transport requirement), which is what makes
    the recovered run exactly comparable to an uninjected one.
    """

    serializes_flushes = False
    remote_execution = True

    def __init__(
        self, supervisor_config: Optional[SupervisorConfig] = None
    ) -> None:
        super().__init__()
        self.supervisor_config = supervisor_config or SupervisorConfig()
        self.supervisor = ShardSupervisor(self.supervisor_config)
        self._workers: Dict[str, _SimulatedWorker] = {}
        self._versions: Dict[str, int] = {}
        self.closed = False
        #: Lifetime counts of injected faults actually absorbed, per kind.
        self.fault_counts: Dict[str, int] = {KILL: 0, PIPE_CLOSE: 0, STALL: 0}

    def bind(self, classifiers: Mapping[str, EEGClassifier], clock: Clock) -> None:
        if self.closed:
            raise ExecutorClosedError(
                "executor was shut down; build a fresh one instead of rebinding"
            )
        self._check_bind(classifiers)
        self._classifiers = dict(classifiers)
        self._clock = clock
        self.supervisor = ShardSupervisor(self.supervisor_config, clock)
        self._workers = {cohort: _SimulatedWorker() for cohort in classifiers}
        self._versions = {cohort: 1 for cohort in classifiers}
        for cohort in classifiers:
            self.supervisor.watch(cohort)

    # ------------------------------------------------------------------ #
    # supervision surface (mirrors ProcessShardExecutor)
    # ------------------------------------------------------------------ #
    def worker_state(self, cohort: str) -> str:
        return self.supervisor.state(cohort)

    def fleet_states(self) -> Dict[str, str]:
        return self.supervisor.states()

    def respawn_due_s(self, cohort: str) -> Optional[float]:
        return self.supervisor.retry_at_s(cohort)

    def restart_count(self, cohort: str) -> int:
        return self.supervisor.restart_count(cohort)

    def plan_version(self, cohort: str) -> int:
        return self._versions.get(cohort, 0)

    def acked_plan_version(self, cohort: str) -> int:
        worker = self._workers.get(cohort)
        return worker.plan_version if worker is not None else 0

    # ------------------------------------------------------------------ #
    # flush path
    # ------------------------------------------------------------------ #
    def _respawn(self, cohort: str) -> None:
        worker = self._workers[cohort]
        if worker.fail_next_respawn:
            worker.fail_next_respawn = False
            state = self.supervisor.record_death(cohort)
            if state == "quarantined":
                raise CohortQuarantinedError(
                    cohort,
                    deaths=self.supervisor.deaths_in_window(cohort),
                    window_s=self.supervisor_config.restart_window_s,
                )
            raise WorkerDiedError(
                cohort, detail="simulated respawn/start failure"
            )
        worker.alive = True
        worker.die_mid_flush = False
        worker.pending_stall_s = 0.0
        worker.plan_version = self._versions[cohort]
        self.supervisor.record_respawn_success(cohort)

    def submit_flush(self, cohort: str, prepared: PreparedBatch) -> _SimulatedTicket:
        if self.closed:
            raise ExecutorClosedError(
                f"cannot flush cohort {cohort!r}: executor was shut down"
            )
        self._classifier_for(cohort)
        state = self.supervisor.state(cohort)
        if state == "quarantined":
            raise CohortQuarantinedError(
                cohort,
                deaths=self.supervisor.deaths_in_window(cohort),
                window_s=self.supervisor_config.restart_window_s,
            )
        if state == "respawning":
            retry_at = self.supervisor.retry_at_s(cohort)
            assert retry_at is not None
            if self._clock.now() < retry_at:
                raise WorkerRespawnPending(cohort, retry_at)
            self._respawn(cohort)
        worker = self._workers[cohort]
        if not worker.alive:
            # Idle death, discovered at submit — exactly when the real
            # executor notices an exited process.
            self.supervisor.record_death(cohort)
            raise WorkerDiedError(cohort, detail="simulated worker dead")
        return _SimulatedTicket(self, cohort, worker, prepared)

    # ------------------------------------------------------------------ #
    # plan hot-swap
    # ------------------------------------------------------------------ #
    def swap_plan(self, cohort: str, payload: Any) -> int:
        """Swap a cohort's plan; accepts transport bytes or a classifier.

        Mirrors the real executor's contract: the new plan becomes both the
        serving plan (flipped between flushes — the scheduler harvests any
        in-flight flush before swapping) and the respawn image, and the
        bumped version is echoed on every subsequent flush.
        """
        if self.closed:
            raise ExecutorClosedError(
                f"cannot swap cohort {cohort!r}: executor was shut down"
            )
        self._classifier_for(cohort)
        if isinstance(payload, (bytes, bytearray, memoryview)):
            from repro.models.compiled import CompiledClassifier

            classifier: EEGClassifier = CompiledClassifier.from_payload(
                bytes(payload)
            )
        else:
            classifier = payload
        version = self._versions[cohort] + 1
        self._versions[cohort] = version
        assert self._classifiers is not None
        self._classifiers[cohort] = classifier
        worker = self._workers[cohort]
        if worker.alive and self.supervisor.state(cohort) == WORKER_RUNNING:
            worker.plan_version = version
        return version

    # ------------------------------------------------------------------ #
    # chaos surface
    # ------------------------------------------------------------------ #
    def inject_kill(self, cohort: str, phase: str = "idle") -> None:
        worker = self._workers[cohort]
        if phase in ("respawn", "bind"):
            worker.fail_next_respawn = True
        elif phase == "mid-flush":
            worker.die_mid_flush = True
        else:
            worker.alive = False
        self.fault_counts[KILL] += 1

    def inject_pipe_close(self, cohort: str) -> None:
        # Transport loss is indistinguishable from an idle death up here:
        # the lane stops answering and the next use discovers it.
        self._workers[cohort].alive = False
        self.fault_counts[PIPE_CLOSE] += 1

    def inject_stall(self, cohort: str, duration_s: float) -> None:
        self._workers[cohort].pending_stall_s += float(duration_s)
        self.fault_counts[STALL] += 1

    def shutdown(self) -> None:
        self.closed = True
        self._workers = {}
        self._versions = {}
        self._classifiers = None


class ChaosLoad:
    """Traffic driver that fires scripted faults at exact virtual times.

    Same event loop as :class:`tests.helpers.SimulatedLoad` (periodic
    per-session submissions, pump at every flush deadline, settle + drain),
    with one addition: between any two events the injector is polled at
    each scripted fault time, so faults land exactly where the schedule
    says — including *between* a deadline and the submission that would
    have refilled the queue.
    """

    def __init__(
        self,
        scheduler: Any,
        clock: Any,
        injector: FaultInjector,
        period_s: float = 0.1,
        jitter_s: float = 0.0,
        seed: int = 0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.scheduler = scheduler
        self.clock = clock
        self.injector = injector
        self.period_s = float(period_s)
        self.jitter_s = float(jitter_s)
        self._rng = np.random.default_rng(seed)
        self.outcomes: Any = Counter()
        self.flush_events: List[Any] = []
        self.submissions = 0

    def _pump_until(self, time_s: float) -> None:
        """Service every fault and flush deadline due at or before ``time_s``."""
        while True:
            due = self.scheduler.next_flush_due_s()
            fault_at = self.injector.next_at_s()
            targets = [
                t for t in (due, fault_at) if t is not None and t <= time_s
            ]
            if not targets:
                return
            target = min(targets)
            self.clock.advance_to(max(target, self.clock.now()))
            self.injector.poll()
            due = self.scheduler.next_flush_due_s()
            if due is not None and due <= self.clock.now() + 1e-12:
                self.flush_events.extend(self.scheduler.pump())

    def run(self, duration_s: float) -> "ChaosLoad":
        start = self.clock.now()
        horizon = start + float(duration_s)
        counter = itertools.count()
        heap: List[Any] = []
        sessions = self.scheduler.sessions
        for i, session in enumerate(sessions):
            offset = (i / len(sessions)) * self.period_s
            heapq.heappush(
                heap, (start + offset, next(counter), session.session_id)
            )
        while heap:
            arrival, _, session_id = heapq.heappop(heap)
            if arrival > horizon:
                break
            self._pump_until(arrival)
            self.clock.advance_to(max(arrival, self.clock.now()))
            self.injector.poll()
            outcome = self.scheduler.submit(session_id)
            if outcome == "flushed":
                self.flush_events.append(self.scheduler.last_flush_event)
            self.outcomes[outcome] += 1
            self.submissions += 1
            jitter = (
                self._rng.uniform(0, self.jitter_s) if self.jitter_s else 0.0
            )
            heapq.heappush(
                heap,
                (arrival + self.period_s + jitter, next(counter), session_id),
            )
        self._pump_until(float("inf"))
        self.flush_events.extend(self.scheduler.drain())
        return self


# ---------------------------------------------------------------------- #
# soak analyses
# ---------------------------------------------------------------------- #
def window_conservation(scheduler: Any, load: Any) -> Dict[str, int]:
    """Account for every admitted window; the soak's conservation invariant.

    Every submission that was admitted (``queued`` or ``flushed``) must end
    the run as exactly one of: a result applied to its session, a window
    superseded by a fresher one from the same session, or (only before
    drain) still queued.  ``holds`` is the post-drain identity
    ``admitted == applied + superseded`` — a worker death that loses even
    one window breaks it.
    """
    admitted = load.outcomes.get("queued", 0) + load.outcomes.get("flushed", 0)
    applied = sum(s.labels_emitted() for s in scheduler.sessions) + sum(
        s.labels_emitted() for s in getattr(scheduler, "_departed", [])
    )
    superseded = sum(scheduler.superseded_by_session.values())
    queued = scheduler.backlog_depth()
    return {
        "admitted": admitted,
        "applied": applied,
        "superseded": superseded,
        "queued": queued,
        "holds": int(admitted == applied + superseded + queued),
    }


def recovery_latencies(telemetry: FleetTelemetry) -> Dict[str, List[float]]:
    """Per-cohort delays from each worker death to the next served flush.

    A ``worker-died`` record marks the death (its ``completed_at_s`` is the
    detection time); recovery is the next record of the same cohort that
    actually classified something.  Deaths with no later served flush (end
    of run) report no latency — the conservation check covers those
    windows instead.
    """
    latencies: Dict[str, List[float]] = {}
    open_deaths: Dict[str, List[float]] = {}
    for record in telemetry.records:
        if not record.cohort:
            continue
        if record.flush_reason == "worker-died":
            open_deaths.setdefault(record.cohort, []).append(
                record.completed_at_s
            )
        elif record.batch_size > 0 and open_deaths.get(record.cohort):
            served_at = record.completed_at_s
            for died_at in open_deaths.pop(record.cohort):
                latencies.setdefault(record.cohort, []).append(
                    served_at - died_at
                )
    return latencies
