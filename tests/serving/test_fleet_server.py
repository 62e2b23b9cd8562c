"""Lock-step fleet serving (``AsyncFleetScheduler.tick``): batching, churn,
stall handling and equivalence with the single-session loop."""

import numpy as np
import pytest

from repro.acquisition.board import BoardConfig, SimulatedCytonDaisyBoard
from repro.core.config import CognitiveArmConfig
from repro.core.realtime import RealTimeInferenceLoop
from repro.serving.scheduler import AsyncFleetScheduler
from repro.serving.session import ServingSession
from repro.signals.montage import Montage
from repro.signals.synthetic import ACTION_LEFT, ACTION_RIGHT, ParticipantProfile
from tests.helpers import ClockedStubClassifier, FakeClock


def _profile(seed):
    return ParticipantProfile(participant_id=f"P{seed}", seed=seed)


class TestServingSession:
    def test_requires_start_before_prepare(self, serving_config):
        session = ServingSession("s0", _profile(1), serving_config)
        with pytest.raises(RuntimeError):
            session.prepare_window()

    def test_two_phase_round_trip(self, serving_config, stub_classifier):
        session = ServingSession("s0", _profile(1), serving_config)
        session.start()
        window = session.prepare_window()
        assert window.shape == (serving_config.n_channels, serving_config.window_size)
        probs = stub_classifier.predict_proba(window[None])[0]
        tick = session.apply_result(probs, classify_latency_s=0.001)
        assert tick.action in ("left", "right", "idle")
        assert session.labels_emitted() == 1
        session.stop()

    def test_invalid_action_rejected(self, serving_config):
        session = ServingSession("s0", _profile(1), serving_config)
        with pytest.raises(ValueError):
            session.set_action("jump")

    def test_voice_keyword_switches_controller_mode(self, serving_config):
        session = ServingSession("s0", _profile(1), serving_config)
        session.start()
        assert session.handle_keyword("fingers")
        assert session.controller.mode == "fingers"
        session.stop()


class TestLockStepFleet:
    def test_tick_batches_all_sessions_in_one_call(
        self, serving_config, stub_classifier
    ):
        fleet = AsyncFleetScheduler(stub_classifier, serving_config)
        for seed in range(4):
            fleet.add_session(profile=_profile(seed))
        ticks = fleet.tick()
        assert len(ticks) == 4
        assert stub_classifier.batch_sizes == [4]  # one vectorised call

    def test_results_routed_to_owning_session(self, serving_config, stub_classifier):
        fleet = AsyncFleetScheduler(stub_classifier, serving_config)
        for seed in (11, 23):
            fleet.add_session(profile=_profile(seed))
        ticks = fleet.tick()
        for session in fleet.sessions:
            expected = stub_classifier.predict_proba(session.last_window[None])[0]
            best = float(np.max(expected))
            assert ticks[session.session_id].confidence == pytest.approx(best)

    def test_join_and_leave_mid_run(self, serving_config, stub_classifier):
        fleet = AsyncFleetScheduler(stub_classifier, serving_config)
        a = fleet.add_session(profile=_profile(1))
        b = fleet.add_session(profile=_profile(2))
        for _ in range(3):
            fleet.tick()
        c = fleet.add_session(profile=_profile(3))
        for _ in range(3):
            fleet.tick()
        fleet.remove_session(b.session_id)
        for _ in range(3):
            fleet.tick()
        sizes = [r.batch_size for r in fleet.telemetry.records]
        assert sizes == [2, 2, 2, 3, 3, 3, 2, 2, 2]
        assert a.labels_emitted() == 9
        assert b.labels_emitted() == 6  # stopped after leaving
        assert c.labels_emitted() == 6  # started late
        report = fleet.report()
        assert {s.session_id for s in report.sessions} == {
            a.session_id, b.session_id, c.session_id,
        }
        assert report.session(b.session_id).labels_emitted == 6

    def test_auto_ids_skip_caller_supplied_names(self, serving_config, stub_classifier):
        fleet = AsyncFleetScheduler(stub_classifier, serving_config)
        fleet.add_session(session_id="session-1", profile=_profile(1))
        auto = fleet.add_session(profile=_profile(2))  # must not collide
        assert auto.session_id != "session-1"
        fleet.remove_session(auto.session_id)
        late = fleet.add_session(profile=_profile(3))  # departed ids stay taken
        assert late.session_id not in {"session-1", auto.session_id}

    def test_duplicate_session_id_rejected(self, serving_config, stub_classifier):
        fleet = AsyncFleetScheduler(stub_classifier, serving_config)
        fleet.add_session(session_id="dup", profile=_profile(1))
        with pytest.raises(ValueError):
            fleet.add_session(session_id="dup", profile=_profile(2))

    def test_mismatched_session_shape_rejected(self, serving_config, stub_classifier):
        fleet = AsyncFleetScheduler(stub_classifier, serving_config)
        other = CognitiveArmConfig(window_size=50, label_rate_hz=10.0)
        session = ServingSession("odd", _profile(1), other)
        with pytest.raises(ValueError):
            fleet.add_session(session)

    def test_mismatched_session_clock_rejected(self, serving_config, stub_classifier):
        fleet = AsyncFleetScheduler(stub_classifier, serving_config)
        slow = CognitiveArmConfig(
            window_size=serving_config.window_size, label_rate_hz=5.0
        )
        session = ServingSession("slow", _profile(1), slow)
        with pytest.raises(ValueError, match="lock-step"):
            fleet.add_session(session)

    def test_stalled_session_shrinks_batch_and_recovers(
        self, serving_config, stub_classifier
    ):
        fleet = AsyncFleetScheduler(stub_classifier, serving_config)
        healthy = fleet.add_session(profile=_profile(1))
        flaky = fleet.add_session(
            session_id="flaky", profile=_profile(2), stall_ticks={1, 2}
        )
        for _ in range(5):
            fleet.tick()
        sizes = [r.batch_size for r in fleet.telemetry.records]
        assert sizes == [2, 1, 1, 2, 2]  # graceful degradation, then recovery
        stalls = [r.stalled_sessions for r in fleet.telemetry.records]
        assert stalls == [0, 1, 1, 0, 0]
        assert healthy.labels_emitted() == 5
        assert flaky.labels_emitted() == 3
        assert flaky.dropped_windows == 2  # backlog dropped on recovery
        assert flaky.backlog_depth == 0
        assert fleet.telemetry.max_backlog_depth() == 2
        assert fleet.telemetry.stall_rate() == pytest.approx(2 / 10)

    def test_injected_clock_makes_tick_latencies_exact(self, serving_config):
        clock = FakeClock()
        classifier = ClockedStubClassifier(clock, base_latency_s=0.006, per_row_s=0.001)
        fleet = AsyncFleetScheduler(classifier, serving_config, clock=clock)
        for seed in range(3):
            fleet.add_session(profile=_profile(seed))
        fleet.tick()
        record = fleet.telemetry.records[0]
        assert record.batch_latency_s == pytest.approx(0.006 + 0.001 * 3)
        # Sessions inherit the fleet clock, so prepare-phase latency is
        # virtual too and the whole tick is deterministic.
        tick = fleet.sessions[0].ticks[0]
        assert tick.processing_latency_s == pytest.approx((0.006 + 0.003) / 3)

    def test_all_stalled_tick_does_not_skew_latency_p50(self, serving_config):
        clock = FakeClock()
        classifier = ClockedStubClassifier(clock, base_latency_s=0.010)
        fleet = AsyncFleetScheduler(classifier, serving_config, clock=clock)
        fleet.add_session(
            session_id="flaky", profile=_profile(1), stall_ticks={1, 3, 5, 7}
        )
        for _ in range(8):
            fleet.tick()
        # Half the ticks classified nothing; they must not drag p50 to ~0.
        assert fleet.telemetry.latency_percentiles()["p50"] == pytest.approx(0.010)
        assert fleet.telemetry.stall_rate() == pytest.approx(0.5)

    def test_empty_fleet_tick_is_safe(self, serving_config, stub_classifier):
        fleet = AsyncFleetScheduler(stub_classifier, serving_config)
        assert fleet.tick() == {}
        assert stub_classifier.batch_sizes == []

    def test_run_and_report(self, serving_config, stub_classifier):
        fleet = AsyncFleetScheduler(stub_classifier, serving_config)
        for seed in range(3):
            fleet.add_session(profile=_profile(seed))
        for _ in range(int(round(1.0 * serving_config.label_rate_hz))):
            fleet.tick()
        report = fleet.report()
        assert report.ticks == 10
        assert report.fleet["total_labels"] == 30.0
        assert report.fleet["throughput_labels_per_s"] > 0
        assert report.fleet["batch_latency_p95_s"] >= report.fleet["batch_latency_p50_s"]
        assert len(report.sessions) == 3
        fleet.shutdown()
        assert fleet.n_sessions == 0


class TestSingleSessionEquivalence:
    """A 1-session fleet must be tick-for-tick identical to the plain loop."""

    def _reference_ticks(self, profile, config, classifier, actions):
        board = SimulatedCytonDaisyBoard(
            profile=profile,
            config=BoardConfig(
                sampling_rate_hz=config.sampling_rate_hz,
                n_channels=config.n_channels,
            ),
            montage=Montage(),
        )
        board.prepare_session()
        board.start_stream()
        loop = RealTimeInferenceLoop(board, classifier, config)
        loop.warmup()
        ticks = []
        for tick_index in range(20):
            if tick_index in actions:
                board.set_action(actions[tick_index])
            ticks.append(loop.tick())
        return ticks

    def test_tick_for_tick_identical(self, serving_config, stub_classifier):
        actions = {0: ACTION_RIGHT, 8: ACTION_LEFT, 15: ACTION_RIGHT}
        reference = self._reference_ticks(
            ParticipantProfile(participant_id="EQ", seed=42),
            serving_config,
            stub_classifier,
            actions,
        )
        fleet = AsyncFleetScheduler(stub_classifier, serving_config)
        session = fleet.add_session(
            profile=ParticipantProfile(participant_id="EQ", seed=42)
        )
        fleet_ticks = []
        for tick_index in range(20):
            if tick_index in actions:
                session.set_action(actions[tick_index])
            fleet_ticks.append(fleet.tick()[session.session_id])
        assert len(fleet_ticks) == len(reference)
        for ours, ref in zip(fleet_ticks, reference):
            assert ours.time_s == ref.time_s
            assert ours.action == ref.action
            assert ours.smoothed_action == ref.smoothed_action
            assert ours.confidence == ref.confidence  # bit-for-bit
