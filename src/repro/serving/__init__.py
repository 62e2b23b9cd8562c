"""Multi-session serving: cross-session micro-batched inference.

The single-participant loop (``repro.core.realtime``) classifies one window
at a time.  This package scales that loop out: N concurrent
:class:`ServingSession` objects hand their prepared windows to one flush
core (:class:`CohortFlushCore`), a :class:`MicroBatcher` stacks them into
one ``(n, channels, samples)`` call per cohort on a shared classifier, and
:class:`FleetTelemetry` reports throughput, tail latency, backlog and
per-session accuracy.

The flush core owns the one serving policy — deadline or full-batch
flushes, the serializing-executor wake pull-forward by per-cohort service
EWMAs, worker-death requeue, supervised degrade and plan hot-swap — and
runs under two front ends: :class:`AsyncFleetScheduler` (sessions submit
directly, with p95-budget admission control via
:class:`AdmissionController`; :meth:`AsyncFleetScheduler.tick` is the
lock-step mode) and :class:`repro.streams.StreamConsumerScheduler` (windows
arrive through stream logs).  :class:`ModelRouter` maps cohorts to
classifiers.  Everything is clock-injected so tests drive it with a
deterministic virtual clock.

Flush *execution* is pluggable behind the
:class:`~repro.serving.executors.FlushExecutor` protocol:
:class:`SerialExecutor` (inline, the default), :class:`ThreadPoolFlushExecutor`
(cohort flushes overlap on a thread pool) and :class:`ProcessShardExecutor`
(one worker process per cohort, each pinning a reconstructed compiled plan
shipped as an ``.npz``-geometry payload — see
:meth:`repro.models.compiled.CompiledClassifier.to_payload`).

The shard fleet self-heals: a :class:`ShardSupervisor` respawns dead
workers with capped exponential backoff, quarantines cohorts that flap
(the core then degrades them to an inline :class:`SerialExecutor`
fallback), and serving plans hot-swap under traffic via
``swap_plan`` with a per-flush ``plan_version`` telemetry contract.
:mod:`repro.serving.chaos` provides the deterministic fault-injection
harness that soaks all of this on a virtual clock.
"""

from repro.serving.batcher import (
    BatchResult,
    ExecutionResult,
    MicroBatcher,
    PreparedBatch,
    execute_windows,
)
from repro.serving.chaos import (
    FaultInjector,
    Injection,
    SimulatedShardExecutor,
    recovery_latencies,
    window_conservation,
)
from repro.serving.executors import (
    WORKER_QUARANTINED,
    WORKER_RESPAWNING,
    WORKER_RUNNING,
    CohortQuarantinedError,
    ExecutorClosedError,
    FlushExecutionError,
    FlushExecutor,
    FlushTicket,
    ProcessShardExecutor,
    SerialExecutor,
    ShardSupervisor,
    SupervisorConfig,
    ThreadPoolFlushExecutor,
    WorkerDiedError,
    WorkerRespawnPending,
)
from repro.serving.scheduler import (
    AdmissionController,
    AsyncFleetScheduler,
    CohortFlushCore,
    FlushEvent,
    ModelRouter,
    SchedulerConfig,
)
from repro.serving.session import ServingSession
from repro.serving.telemetry import (
    FleetReport,
    FleetTelemetry,
    FleetTickRecord,
    SessionStats,
    calibrate_batch_latency_s,
    session_stats,
)

__all__ = [
    "AdmissionController",
    "AsyncFleetScheduler",
    "BatchResult",
    "CohortFlushCore",
    "CohortQuarantinedError",
    "ExecutionResult",
    "ExecutorClosedError",
    "FaultInjector",
    "FlushEvent",
    "FlushExecutionError",
    "FlushExecutor",
    "FlushTicket",
    "Injection",
    "MicroBatcher",
    "ModelRouter",
    "PreparedBatch",
    "ProcessShardExecutor",
    "SchedulerConfig",
    "SerialExecutor",
    "ShardSupervisor",
    "SimulatedShardExecutor",
    "SupervisorConfig",
    "ThreadPoolFlushExecutor",
    "WORKER_QUARANTINED",
    "WORKER_RESPAWNING",
    "WORKER_RUNNING",
    "WorkerDiedError",
    "WorkerRespawnPending",
    "execute_windows",
    "recovery_latencies",
    "window_conservation",
    "FleetReport",
    "ServingSession",
    "FleetTelemetry",
    "FleetTickRecord",
    "SessionStats",
    "calibrate_batch_latency_s",
    "session_stats",
]
