"""End-to-end streaming plane tests: producer + consumer over one topology.

Covers the conservation contract (every admitted window lands in exactly
one FlushResult, as a row or a supersession), lag-driven admission control,
per-session sequences, the SimulatedLoad-drivable StreamDuplex facade, and
equivalence with the direct AsyncFleetScheduler.
"""

import numpy as np
import pytest

from tests.helpers import (
    ClockedStubClassifier,
    FakeClock,
    ScriptedSession,
    SimulatedLoad,
)

from repro.serving.batcher import execute_windows
from repro.serving.executors import WORKER_RUNNING, WorkerDiedError
from repro.serving.scheduler import AsyncFleetScheduler, SchedulerConfig
from repro.streams import (
    SCHEDULER_GROUP,
    StreamConsumerScheduler,
    StreamDuplex,
    StreamFleetProducer,
    StreamTopology,
)


@pytest.fixture
def clock():
    return FakeClock()


def make_plane(clock, n_sessions=4, cohorts=("a",), **cfg):
    config = SchedulerConfig(**{"deadline_s": 0.05, "max_batch_size": 8, **cfg})
    topology = StreamTopology(clock=clock)
    producer = StreamFleetProducer(topology, scheduler_config=config, clock=clock)
    consumer = StreamConsumerScheduler(
        {c: ClockedStubClassifier(clock, base_latency_s=0.001) for c in cohorts},
        {c: topology.cohort_stream(c) for c in cohorts},
        topology.result_stream,
        scheduler_config=config,
        clock=clock,
    )
    for i in range(n_sessions):
        producer.add_session(
            ScriptedSession(f"s{i}"), cohort=cohorts[i % len(cohorts)]
        )
    return topology, producer, consumer


class TestProducer:
    def test_submissions_land_on_the_cohort_stream_in_sequence(self, clock):
        topology, producer, _ = make_plane(clock, n_sessions=2)
        for _ in range(3):
            for session in producer.sessions:
                assert producer.submit(session.session_id) == "queued"
            clock.advance(0.1)
        entries = topology.cohort_stream("a").range()
        assert len(entries) == 6
        by_session = {}
        for entry in entries:
            by_session.setdefault(entry.payload.session_id, []).append(
                entry.payload.sequence
            )
        assert by_session == {"s0": [0, 1, 2], "s1": [0, 1, 2]}

    def test_trace_sessions_mirrors_submissions(self, clock):
        topology = StreamTopology(clock=clock)
        producer = StreamFleetProducer(
            topology,
            scheduler_config=SchedulerConfig(deadline_s=0.05),
            clock=clock,
            trace_sessions=True,
        )
        producer.add_session(ScriptedSession("s0"), cohort="a")
        producer.submit("s0")
        assert len(topology.cohort_stream("a")) == 1
        assert len(topology.session_stream("a", "s0")) == 1

    def test_conservation_applied_plus_superseded_equals_submitted(self, clock):
        topology, producer, consumer = make_plane(clock, n_sessions=3)
        for round_idx in range(10):
            for session in producer.sessions:
                producer.submit(session.session_id)
            # Only poll every other round: skipped rounds leave stale
            # windows behind that the next round supersedes.
            if round_idx % 2:
                consumer.poll()
                clock.advance(0.05)
                consumer.pump()
            else:
                clock.advance(0.05)
        consumer.poll()
        consumer.drain()
        producer.harvest_results()
        assert producer.submitted == 30
        assert producer.labels_applied + producer.superseded_count == 30
        assert producer.superseded_count > 0  # the scenario actually bit
        applied = sum(len(s.applied) for s in producer.sessions)
        assert applied == producer.labels_applied
        # and the group is fully acked: nothing pending, nothing undelivered
        assert topology.cohort_stream("a").depth(SCHEDULER_GROUP) == 0

    def test_lag_budget_sheds_when_consumers_fall_behind(self, clock):
        topology, producer, consumer = make_plane(
            clock, n_sessions=1, stream_lag_budget_s=0.2
        )
        outcomes = []
        for _ in range(10):  # no consumer polling: lag grows unbounded
            outcomes.append(producer.submit("s0"))
            clock.advance(0.1)
        assert "shed" in outcomes
        assert producer.admission.shedding
        assert producer.admission.activations == 1
        # consumer catches up -> lag recovers -> admission resumes
        consumer.poll()
        consumer.drain()
        producer.harvest_results()
        producer.submit("s0")
        assert not producer.admission.shedding

    def test_departed_session_rows_are_dropped_on_harvest(self, clock):
        topology, producer, consumer = make_plane(clock, n_sessions=2)
        for session in producer.sessions:
            producer.submit(session.session_id)
        consumer.poll()
        departed = producer.remove_session("s0")
        clock.advance(0.05)
        consumer.pump()
        producer.harvest_results()
        assert len(departed.applied) == 0
        assert len(producer.get_session("s1").applied) == 1
        # conservation counts the departed row as applied-to-nobody
        assert producer.labels_applied == 1

    def test_report_aggregates_stream_fields(self, clock):
        topology, producer, consumer = make_plane(clock, n_sessions=2)
        for session in producer.sessions:
            producer.submit(session.session_id)
        clock.advance(0.05)
        consumer.poll()
        consumer.pump()
        producer.harvest_results()
        report = producer.report()
        assert report.fleet["total_labels"] == 2.0
        assert report.fleet["stream_lag_s"] >= 0.0
        assert report.fleet["max_stream_depth"] == 2.0
        assert "a" in report.cohorts
        assert report.cohorts["a"]["max_stream_lag_s"] >= 0.0
        # worker attribution is per scheduler process + lane
        assert list(report.workers) == ["consumer-0/serial"]


class TestDuplex:
    def test_simulated_load_drives_the_duplex_like_a_scheduler(self, clock):
        duplex = StreamDuplex(
            {"a": ClockedStubClassifier(clock, base_latency_s=0.001)},
            scheduler_config=SchedulerConfig(deadline_s=0.05, max_batch_size=8),
            clock=clock,
        )
        for i in range(4):
            duplex.add_session(ScriptedSession(f"s{i}"), cohort="a")
        load = SimulatedLoad(duplex, clock, period_s=0.1)
        load.run(3.0)
        assert load.outcomes["queued"] + load.outcomes["flushed"] > 0
        report = duplex.report()
        assert report.fleet["total_labels"] == float(duplex.producer.submitted)
        assert report.fleet["deadline_violations"] == 0.0
        applied = sum(len(s.applied) for s in duplex.sessions)
        assert applied == duplex.producer.submitted

    def test_full_batch_submission_reports_flushed(self, clock):
        duplex = StreamDuplex(
            {"a": ClockedStubClassifier(clock)},
            scheduler_config=SchedulerConfig(deadline_s=0.05, max_batch_size=2),
            clock=clock,
        )
        duplex.add_session(ScriptedSession("s0"), cohort="a")
        duplex.add_session(ScriptedSession("s1"), cohort="a")
        assert duplex.submit("s0") == "queued"
        assert duplex.submit("s1") == "flushed"
        assert duplex.last_flush_event.reason == "full"
        assert duplex.last_flush_event.batch_size == 2

    def test_unroutable_cohort_is_refused(self, clock):
        duplex = StreamDuplex(
            {"a": ClockedStubClassifier(clock)},
            clock=clock,
        )
        with pytest.raises(KeyError, match="unknown cohort"):
            duplex.add_session(ScriptedSession("s0"), cohort="nope")

    def test_duplex_matches_direct_scheduler_row_for_row(self, clock):
        """The stream plane must not change *what* is computed, only how it
        travels: same sessions, same arrivals, same classifiers => the same
        flush sequence and the same probability rows.  Two cohorts on the
        serializing default executor, with service times long enough that
        the EWMA wake pull-forward decides when cohorts flush."""
        config = SchedulerConfig(deadline_s=0.05, max_batch_size=8)
        cohorts = ("a", "b")

        def run(factory):
            local_clock = FakeClock()
            target = factory(
                local_clock,
                {
                    cohort: ClockedStubClassifier(
                        local_clock, base_latency_s=0.008, peak_class=index
                    )
                    for index, cohort in enumerate(cohorts)
                },
            )
            for i in range(6):
                target.add_session(
                    ScriptedSession(f"s{i}", seed=i), cohort=cohorts[i % 2]
                )
            load = SimulatedLoad(
                target, local_clock, period_s=0.1, jitter_s=0.03, seed=5
            ).run(3.0)
            flushes = [
                (
                    event.cohort,
                    event.reason,
                    event.batch_size,
                    event.flushed_at_s,
                    event.deadline_violations,
                    event.max_queue_wait_s,
                )
                for event in load.flush_events
            ]
            rows = {
                s.session_id: [probs for probs, _ in s.applied]
                for s in target.sessions
            }
            return flushes, rows

        direct_flushes, direct = run(
            lambda clk, classifiers: AsyncFleetScheduler(
                classifiers, scheduler_config=config, clock=clk
            )
        )
        streamed_flushes, streamed = run(
            lambda clk, classifiers: StreamDuplex(
                classifiers, scheduler_config=config, clock=clk
            )
        )
        # Some deadline flush started before its oldest window was due:
        # the other cohort's service estimate pulled the wake forward.
        assert any(
            reason == "deadline" and wait < config.deadline_s - 1e-9
            for _, reason, _, _, _, wait in direct_flushes
        )
        assert {cohort for cohort, *_ in direct_flushes} == set(cohorts)
        assert [f[:5] for f in streamed_flushes] == [f[:5] for f in direct_flushes]
        assert direct.keys() == streamed.keys()
        for session_id in direct:
            assert len(direct[session_id]) == len(streamed[session_id])
            for left, right in zip(direct[session_id], streamed[session_id]):
                np.testing.assert_allclose(left, right, atol=1e-12)


class _Ticket:
    """A flush ticket that can stay in flight until its worker is killed."""

    def __init__(self, cohort, execution, in_flight):
        self.cohort = cohort
        self.execution = execution
        self.in_flight = in_flight
        self.dead = False

    def done(self):
        return self.dead or not self.in_flight

    def result(self, timeout=None):
        if self.dead:
            raise WorkerDiedError(self.cohort, pending=(self,), detail="test kill")
        assert not self.in_flight, "harvested a flush that never finished"
        return self.execution


class _FirstFlushDiesExecutor:
    """Supervised stub: the first flush stays in flight until :meth:`kill`
    reports its worker dead; every later flush completes at once."""

    serializes_flushes = False
    remote_execution = False

    def __init__(self):
        self.first = None

    def bind(self, classifiers, clock):
        self.classifiers = dict(classifiers)
        self.clock = clock

    def worker_state(self, cohort):
        return WORKER_RUNNING

    def respawn_due_s(self, cohort):
        return None

    def submit_flush(self, cohort, prepared):
        execution = execute_windows(
            self.classifiers[cohort],
            prepared.windows,
            prepared.chunk_size,
            clock=self.clock,
        )
        ticket = _Ticket(cohort, execution, in_flight=self.first is None)
        if self.first is None:
            self.first = ticket
        return ticket

    def kill(self):
        self.first.dead = True

    def shutdown(self):
        pass


class TestRequeueAcrossFrontEnds:
    """A worker dying mid-flush while a fresher window from the same session
    waits behind it: both front ends supersede the stale window on requeue."""

    @pytest.mark.parametrize("front", ["direct", "duplex"])
    def test_mid_flush_death_supersedes_stale_window(self, clock, front):
        executor = _FirstFlushDiesExecutor()
        factory = AsyncFleetScheduler if front == "direct" else StreamDuplex
        target = factory(
            {"a": ClockedStubClassifier(clock, base_latency_s=0.001)},
            scheduler_config=SchedulerConfig(deadline_s=0.05),
            clock=clock,
            executor=executor,
        )
        core = target if front == "direct" else target.consumer
        session = target.add_session(ScriptedSession("s0"), cohort="a")
        assert target.submit("s0") == "queued"
        clock.advance(0.05)
        assert target.pump(wait=False) == []
        assert core.inflight_cohorts == ("a",)
        assert target.submit("s0") == "queued"  # fresher, behind the flight
        executor.kill()
        target.drain()
        assert core.worker_deaths == 1
        assert core.inflight_cohorts == () and core.backlog_depth() == 0
        # Conservation: two admitted windows, one row applied, one superseded.
        assert len(session.applied) == 1
        if front == "direct":
            superseded = target.superseded_by_session
        else:
            superseded = target.producer.superseded_by_session
            assert target.producer.labels_applied == 1
            assert target.producer.superseded_count == 1
            # The consumer acked the served *and* the superseded entry.
            assert target.topology.cohort_stream("a").pending(SCHEDULER_GROUP) == []
        assert superseded == {"s0": 1}
