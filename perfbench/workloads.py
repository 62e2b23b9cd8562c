"""The four label-loop workloads and the models they serve.

Every workload builds its own model, sessions and front end, probes each
session with a :class:`~tracing.LabelBook`, and registers its trace sites
with a :class:`~tracing.Tracer`.  ``--seed`` chooses only the inputs: the
participants' EEG and action scripts and the open-loop schedule.  The served
models are fixed, so a change of seed never changes what is being measured.

``loop_b1``
    One session, one label due every 66.7 ms: ``prepare_window`` -> dense
    LSTM-512 ``predict_proba`` on one window -> ``apply_result``.  The
    paper's Pareto model in its one-user edge deployment; no batcher,
    scheduler or stream.
``fleet_tick_b32``
    Closed lock-step loop of 32 sessions through
    ``AsyncFleetScheduler.tick()``, serving the 90 % (8, 8)-block-pruned
    LSTM-512 with one 32-row flush per tick.  Not in ``BENCHMARK.json``: on
    a 2-core shared host its median label latency and rate spread 13-18 %
    between runs.
``fleet_open``
    Open loop on the real clock: 2 staggered sessions, each due every
    66.7 ms with seeded jitter, on ``AsyncFleetScheduler`` +
    ``SerialExecutor`` with a 15 ms deadline, serving the pruned LSTM-512.
``stream_open``
    The same schedule through ``StreamDuplex``: producer -> cohort log ->
    consumer group -> flush -> result log -> producer apply.

A scheduled workload never builds a backlog: when a session's next label is
due before the generator could start the current one, the current one is
skipped and counts as a miss, as a board that makes a fresh window every
period would have it.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.compression.pruning import prune_classifier_inplace
from repro.core.config import CognitiveArmConfig
from repro.models.lstm_model import EEGLSTM, LSTMConfig
from repro.nn import autotune
from repro.serving.executors import SerialExecutor
from repro.serving.scheduler import SUBMIT_SHED, AsyncFleetScheduler, SchedulerConfig
from repro.serving.session import ServingSession
from repro.signals.synthetic import ACTIONS, ParticipantProfile
from repro.streams import StreamDuplex
from tracing import LabelBook, Slices, Tracer, now

#: The paper's label period at 15 Hz; a label applied later than this after
#: it was due is a miss.
LABEL_PERIOD_S = 1.0 / 15.0
HIDDEN = 512
#: Seed of the served models' weights (fixed: the model is the program).
MODEL_SEED = 0
PRUNE_RATIO = 0.9
PRUNE_TILE = (8, 8)
#: Standard deviation of the pruned model's weights.  One scale for every
#: matrix, so the global block-magnitude ranking prunes each of them to about
#: 90 %; the library's default initialisation would let the ranking drop the
#: whole input projection and serve the same output for every window.
PRUNED_WEIGHT_STD = 0.06
DEADLINE_S = 0.015
MAX_BATCH = 32
FLEET_TICK_SESSIONS = 32
#: Sessions of the open-loop workloads: the driver is busy about 30 % of the
#: time on a 2-core host, which leaves room for the host to run 3x slower
#: for a while.  At 3 sessions (about 45 % busy) a slow phase of a shared
#: host put the generator more than a label period behind.
OPEN_SESSIONS = 2
#: Uniform jitter, either side, on every open-loop due time.  Sessions start
#: evenly staggered; a jitter this wide re-draws which labels collide in the
#: single-threaded driver on every period, so a run's tail averages over
#: many collision patterns instead of depending on the seed's phases.  It
#: stays under a quarter period, so a session's labels never swap order.
JITTER_S = 0.015
#: The open-loop driver wakes this much before a flush falls due and pumps
#: with this horizon, so a late wake-up from sleep does not miss the deadline.
WAKE_EARLY_S = 0.001
#: Labels a participant holds one imagined action before the script moves on.
ACTION_HOLD_LABELS = 30
#: Served windows re-classified by the output checks, per run.
CHECK_SAMPLES = 24
CHECK_TOLERANCE = 1e-5
#: Warm-up before measuring: lets plan arenas bind and caches fill.
WARMUP_LABELS = 4


def build_dense_lstm() -> EEGLSTM:
    """The paper's Pareto LSTM-512, dense, compiled."""
    classifier = EEGLSTM(LSTMConfig(hidden_size=HIDDEN), seed=MODEL_SEED)
    classifier.ensure_network(16, 150)
    classifier.ensure_compiled()
    return classifier


def build_pruned_lstm() -> EEGLSTM:
    """The 90 % (8, 8)-block-pruned LSTM-512 (§III-E), compiled.

    Compilation races the sparse kernel variants through the autotune cache
    the caller installed.
    """
    classifier = EEGLSTM(LSTMConfig(hidden_size=HIDDEN), seed=MODEL_SEED)
    network = classifier.ensure_network(16, 150)
    rng = np.random.default_rng(MODEL_SEED)
    for parameter in network.parameters():
        parameter.data[...] = rng.normal(0.0, PRUNED_WEIGHT_STD, parameter.data.shape)
    prune_classifier_inplace(classifier, PRUNE_RATIO, tile=PRUNE_TILE)
    classifier.ensure_compiled()
    return classifier


class Checks:
    """Reservoir of served (window, row) pairs, re-classified after the run.

    Each sampled row must match ``predict_proba_autograd`` on its window
    and, in fleet workloads, a single-window ``predict_proba`` of the same
    window, within :data:`CHECK_TOLERANCE`.
    """

    def __init__(self, seed: int, fleet: bool) -> None:
        self.fleet = fleet
        self.samples: List[Tuple[np.ndarray, np.ndarray]] = []
        self._seen = 0
        self._rng = np.random.default_rng(seed)

    def sample(self, session: Any, probabilities: np.ndarray, label: Any) -> None:
        self._seen += 1
        if len(self.samples) < CHECK_SAMPLES:
            slot = len(self.samples)
            self.samples.append(None)  # type: ignore[arg-type]
        else:
            slot = int(self._rng.integers(0, self._seen))
            if slot >= CHECK_SAMPLES:
                return
        self.samples[slot] = (
            np.array(session.last_window, copy=True),
            np.array(probabilities, dtype=float, copy=True),
        )

    def run(self, classifier: EEGLSTM) -> Tuple[int, int]:
        """Re-classify the samples; returns ``(checked, failed)``."""
        failed = 0
        for window, row in self.samples:
            reference = classifier.predict_proba_autograd(window[None])[0]
            ok = np.max(np.abs(row - reference)) <= CHECK_TOLERANCE
            if self.fleet:
                single = classifier.predict_proba(window[None])[0]
                ok = ok and np.max(np.abs(row - single)) <= CHECK_TOLERANCE
            failed += int(not ok)
        return len(self.samples), failed


class Workload:
    """Set-up, instrumentation and the measured loop of one workload."""

    name = ""
    #: Labels fall due on a schedule (a paced or open loop); otherwise the
    #: loop runs flat out and each label is due when its prepare starts.
    scheduled = False
    fleet = False

    def __init__(self, seed: int, scratch_dir: str) -> None:
        self.seed = seed
        self.config = CognitiveArmConfig()
        self.checks = Checks(seed, self.fleet)
        self.book = LabelBook(self.config.confidence_threshold, self.checks.sample)
        self.sessions: List[ServingSession] = []
        self._scratch_dir = scratch_dir
        self._scripts: Dict[str, List[str]] = {}
        self.classifier: Optional[EEGLSTM] = None

    # -- set-up --------------------------------------------------------- #
    def setup(self, repeat: int) -> None:
        """Build everything against a cold autotune cache, then warm up."""
        path = os.path.join(self._scratch_dir, f"autotune-{repeat}.json")
        autotune.set_default_cache(autotune.AutotuneCache(path=path))
        self.build()
        self.warm_up()

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def make_sessions(self, n: int) -> List[ServingSession]:
        profiles = ParticipantProfile.cohort(n_participants=n, base_seed=self.seed)
        rng = np.random.default_rng(self.seed)
        sessions = []
        for index, profile in enumerate(profiles):
            sid = f"s{index}"
            session = ServingSession(sid, profile=profile, config=self.config)
            self._scripts[sid] = list(rng.choice(ACTIONS, size=64))
            sessions.append(session)
        return sessions

    def follow_script(self, session: ServingSession) -> None:
        """Set the action the participant imagines for its next label."""
        script = self._scripts[session.session_id]
        session.set_action(script[(session.tick_index // ACTION_HOLD_LABELS) % len(script)])

    def instrument(self, tracer: Tracer) -> None:
        """Register the per-session and plan trace sites."""
        for session in self.sessions:
            tracer.wrap(session.board, "advance", "acquisition.synth")
            tracer.wrap(session.board, "get_current_board_data", "acquisition.read")
            tracer.wrap(session.loop.preprocessing, "process", "signals.filter")
            tracer.wrap(session, "prepare_window", "core.prepare")
            tracer.wrap(session, "apply_result", "core.apply")
        tracer.wrap(
            self.classifier, "predict_proba", "nn.plan", rows=lambda w: len(w)
        )

    def teardown(self) -> None:
        self.book.detach()

    # -- measurement ----------------------------------------------------- #
    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Dict[str, Any]:
        """Run the measured window; returns its wall time and its slices."""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """Program-side label counters: applied, shed, superseded."""
        raise NotImplementedError

    def program_stats(self) -> Dict[str, float]:
        """Serving/stream counters the program keeps itself."""
        return {}


class ClosedLoop(Workload):
    """A workload whose next step starts when the previous one returns.

    With a ``period``, a step also waits for its due time: one label per
    session per period, due on the schedule, so a slow step makes the next
    one late.
    """

    period: Optional[float] = None

    def step(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        for _ in range(WARMUP_LABELS):
            self.step()

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Dict[str, Any]:
        self.book.start()
        start = now()
        slices = Slices(self.book, tracer, start, seconds)
        end = start + seconds
        t = start
        due = start
        while t < end:
            if self.period is not None:
                if due > t:
                    time.sleep(due - t)
                    t = now()
                while t - due >= self.period:
                    for session in self.sessions:
                        self.book.skip(session.session_id, due, t)
                    due += self.period
                for session in self.sessions:
                    self.book.expect(session.session_id, due)
                due += self.period
            slices.at(t)
            self.step()
            finished = now()
            slices.add_busy(finished - t)
            t = finished
        slices.finish()
        return {"wall_s": t - start, "slices": slices}


class LoopB1(ClosedLoop):
    name = "loop_b1"
    # The edge deployment labels at 15 Hz; a loop run flat out on a shared
    # 2-core host measured the host's phases more than the program.
    scheduled = True
    period = LABEL_PERIOD_S

    def build(self) -> None:
        self.classifier = build_dense_lstm()
        self.sessions = self.make_sessions(1)
        self.session = self.sessions[0]
        self.session.start()
        self.book.attach(self.session)
        self._applied_before = 0

    def step(self) -> None:
        session = self.session
        self.follow_script(session)
        window = session.prepare_window()
        start = now()
        probabilities = self.classifier.predict_proba(window[None, :, :])[0]
        session.apply_result(probabilities, now() - start)

    def measure(self, seconds, tracer):
        self._applied_before = self.session.labels_emitted()
        return super().measure(seconds, tracer)

    def counters(self) -> Dict[str, int]:
        applied = self.session.labels_emitted() - self._applied_before
        return {"applied": applied, "shed": 0, "superseded": 0}

    def teardown(self) -> None:
        super().teardown()
        self.session.stop()


def _scheduler_config() -> SchedulerConfig:
    return SchedulerConfig(deadline_s=DEADLINE_S, max_batch_size=MAX_BATCH)


class _FleetCounters:
    """Deltas of a front end's own label counters over the measured window."""

    def __init__(self, front: Any) -> None:
        self.front = front
        self.before = self.read()

    def read(self) -> Dict[str, int]:
        front = self.front
        return {
            "applied": int(sum(r.batch_size for r in front.telemetry.records)),
            "shed": int(sum(front.shed_by_session.values())),
            "superseded": int(sum(front.superseded_by_session.values())),
        }

    def delta(self) -> Dict[str, int]:
        after = self.read()
        return {key: after[key] - self.before[key] for key in after}


def _telemetry_stats(telemetry: Any, since: int) -> Dict[str, float]:
    records = [r for r in telemetry.records[since:] if r.batch_size > 0]
    return {
        "batch_size_mean": float(np.mean([r.batch_size for r in records])) if records else 0.0,
        "deadline_violations": float(sum(r.deadline_violations for r in records)),
        "stream_lag_max_s": max((r.stream_lag_s for r in records), default=0.0),
    }


class FleetTickB32(ClosedLoop):
    name = "fleet_tick_b32"
    fleet = True

    def build(self) -> None:
        self.classifier = build_pruned_lstm()
        self.scheduler = AsyncFleetScheduler(
            self.classifier, config=self.config, scheduler_config=_scheduler_config()
        )
        self.sessions = self.make_sessions(FLEET_TICK_SESSIONS)
        for session in self.sessions:
            self.scheduler.add_session(session)
            self.book.attach(session)

    def step(self) -> None:
        for session in self.sessions:
            self.follow_script(session)
        self.scheduler.tick()

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        tracer.wrap(self.scheduler, "tick", "serving.tick")

    def measure(self, seconds, tracer):
        self._counters = _FleetCounters(self.scheduler)
        self._records_before = len(self.scheduler.telemetry.records)
        return super().measure(seconds, tracer)

    def counters(self) -> Dict[str, int]:
        return self._counters.delta()

    def program_stats(self) -> Dict[str, float]:
        return _telemetry_stats(self.scheduler.telemetry, self._records_before)

    def teardown(self) -> None:
        super().teardown()
        self.scheduler.shutdown()


class OpenLoop(Workload):
    """N sessions, each due every label period with seeded jitter, real clock.

    The driver sleeps until the next due submit or flush.  It pumps the
    front end just before ``next_flush_due_s()`` and, before each prepare
    (which it cannot interrupt), with a horizon of the expected prepare
    time, so no flush falls due while it is busy.
    """

    scheduled = True
    fleet = True

    def build(self) -> None:
        self.classifier = build_pruned_lstm()
        self.executor = SerialExecutor()
        self.front = self.make_front()
        self.sessions = self.make_sessions(OPEN_SESSIONS)
        for session in self.sessions:
            self.front.add_session(session)
            self.book.attach(session)

    def make_front(self) -> Any:
        raise NotImplementedError

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        tracer.wrap(self.executor, "submit_flush", "serving.executor")

    def warm_up(self) -> None:
        for _ in range(WARMUP_LABELS):
            for session in self.sessions:
                self.front.submit(session.session_id)
            self.front.drain()

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Dict[str, Any]:
        front = self.front
        self._counters = _FleetCounters(self.counter_source())
        self._records_before = len(front.telemetry.records)
        # One jitter stream per session, so the schedule depends on the seed
        # alone, whichever labels the generator has to skip.
        rngs = [
            np.random.default_rng((self.seed + 1, index)) for index in range(len(self.sessions))
        ]
        self.book.start()
        start = now()
        end = start + seconds
        slices = Slices(self.book, tracer, start, seconds)
        phases = np.arange(len(self.sessions)) * LABEL_PERIOD_S / len(self.sessions)

        def due_time(index: int, k: int) -> float:
            jitter = rngs[index].uniform(-JITTER_S, JITTER_S) if k else 0.0
            return start + JITTER_S + phases[index] + k * LABEL_PERIOD_S + jitter

        due: List[Tuple[float, int, int]] = []
        for index in range(len(self.sessions)):
            heapq.heappush(due, (due_time(index, 0), index, 0))
        prepare_estimate = 0.0
        while True:
            t = now()
            slices.at(t)
            flush_due = front.next_flush_due_s()
            if flush_due is not None and flush_due <= t + WAKE_EARLY_S:
                front.pump(horizon_s=WAKE_EARLY_S)
                slices.add_busy(now() - t)
                continue
            if due and due[0][0] <= t:
                due_s, index, k = heapq.heappop(due)
                session = self.sessions[index]
                nxt = due_time(index, k + 1)
                while nxt <= t and nxt < end:
                    self.book.skip(session.session_id, due_s, t)
                    due_s, k = nxt, k + 1
                    nxt = due_time(index, k + 1)
                self.follow_script(session)
                front.pump(horizon_s=prepare_estimate)
                submit_start = now()
                self.book.expect(session.session_id, due_s)
                if front.submit(session.session_id) == SUBMIT_SHED:
                    self.book.mark_shed(session.session_id)
                finished = now()
                spent = finished - submit_start
                prepare_estimate = (
                    0.8 * prepare_estimate + 0.2 * spent if prepare_estimate else spent
                )
                slices.add_busy(finished - t)
                if nxt < end:
                    heapq.heappush(due, (nxt, index, k + 1))
                continue
            if not due:
                break
            wake = due[0][0] if flush_due is None else min(due[0][0], flush_due - WAKE_EARLY_S)
            if wake > t:
                time.sleep(wake - t)
        t = now()
        front.drain()
        slices.add_busy(now() - t)
        slices.finish()
        return {"wall_s": now() - start, "slices": slices}

    def counter_source(self) -> Any:
        return self.front

    def counters(self) -> Dict[str, int]:
        return self._counters.delta()

    def program_stats(self) -> Dict[str, float]:
        return _telemetry_stats(self.front.telemetry, self._records_before)

    def teardown(self) -> None:
        super().teardown()
        self.front.shutdown()


class FleetOpen(OpenLoop):
    name = "fleet_open"

    def make_front(self) -> AsyncFleetScheduler:
        return AsyncFleetScheduler(
            self.classifier,
            config=self.config,
            scheduler_config=_scheduler_config(),
            executor=self.executor,
        )

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        tracer.wrap(self.front, "submit", "serving.submit")
        tracer.wrap(self.front, "pump", "serving.pump")


class StreamOpen(OpenLoop):
    name = "stream_open"

    def make_front(self) -> StreamDuplex:
        return StreamDuplex(
            self.classifier,
            config=self.config,
            scheduler_config=_scheduler_config(),
            executor=self.executor,
        )

    def counter_source(self) -> Any:
        return self.front.producer

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        tracer.wrap(self.front.producer, "submit", "streams.submit")
        tracer.wrap(self.front.consumer, "poll", "streams.poll")
        tracer.wrap(self.front.consumer, "pump", "serving.pump")
        tracer.wrap(self.front.producer, "harvest_results", "streams.harvest")


WORKLOADS = {cls.name: cls for cls in (LoopB1, FleetTickB32, FleetOpen, StreamOpen)}
