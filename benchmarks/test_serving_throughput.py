"""Benchmark: cross-session micro-batched serving vs N sequential loops.

Serves the same N-participant fleet two ways — N independent
``RealTimeInferenceLoop`` runs (one ``predict_proba(n=1)`` call per session
per tick) versus one lock-step ``AsyncFleetScheduler`` (a single
``predict_proba(n=N)`` call per ``tick()``) — and compares end-to-end
throughput in labels/s.  Both sides pay the identical acquisition +
preprocessing cost; the fleet amortises the
per-call classification overhead, which is the serving-side analogue of the
short-block batching the paper's DAC line of work optimises for.
"""

import os
import time

import numpy as np

from repro.acquisition.board import BoardConfig, SimulatedCytonDaisyBoard
from repro.core.config import CognitiveArmConfig
from repro.core.realtime import RealTimeInferenceLoop
from repro.models.lstm_model import EEGLSTM, LSTMConfig
from repro.serving.scheduler import AsyncFleetScheduler
from repro.serving.telemetry import calibrate_batch_latency_s
from repro.signals.montage import Montage
from repro.signals.synthetic import ACTION_RIGHT, ParticipantProfile

N_SESSIONS = 8
DURATION_S = 2.0
REPEATS = 1 if os.environ.get("REPRO_BENCH_FAST") else 3


def _config():
    return CognitiveArmConfig(window_size=100, label_rate_hz=10.0,
                              confidence_threshold=0.34, smoothing_window=3)


def _classifier(config):
    """The paper's Pareto-optimal LSTM (512 hidden units, Fig. 8), untrained.

    Untrained weights are fine for a throughput benchmark, and the recurrence
    makes batching pay off structurally, not just via call overhead: the
    python loop over timesteps runs once per ``predict_proba`` call whatever
    the batch size, so a fleet-sized batch costs barely more than a single
    window.
    """
    classifier = EEGLSTM(LSTMConfig(hidden_size=512), seed=0)
    classifier.ensure_network(config.n_channels, config.window_size)
    return classifier


def _profiles():
    return [
        ParticipantProfile(participant_id=f"FLEET{i:02d}", seed=50 + i)
        for i in range(N_SESSIONS)
    ]


def _sequential_labels_per_s(classifier, config):
    """N independent single-session loops, one n=1 classifier call per tick."""
    loops = []
    for profile in _profiles():
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
        board.set_action(ACTION_RIGHT)
        loops.append(loop)
    start = time.perf_counter()
    for loop in loops:
        loop.run(DURATION_S)
    elapsed = time.perf_counter() - start
    return sum(len(loop.ticks) for loop in loops) / elapsed


def _fleet_labels_per_s(classifier, config):
    """One lock-step fleet, one micro-batched n=N classifier call per tick."""
    fleet = AsyncFleetScheduler(classifier, config)
    for profile in _profiles():
        session = fleet.add_session(profile=profile)
        session.set_action(ACTION_RIGHT)
    n_ticks = int(round(DURATION_S * config.label_rate_hz))
    start = time.perf_counter()
    for _ in range(n_ticks):
        fleet.tick()
    elapsed = time.perf_counter() - start
    labels = fleet.telemetry.total_labels
    fleet.shutdown()
    return labels / elapsed, fleet


def test_fleet_serving_beats_sequential_loops(once):
    config = _config()
    classifier = _classifier(config)

    def compare():
        sequential = max(
            _sequential_labels_per_s(classifier, config) for _ in range(REPEATS)
        )
        results = [_fleet_labels_per_s(classifier, config) for _ in range(REPEATS)]
        fleet_lps, fleet = max(results, key=lambda r: r[0])
        return sequential, fleet_lps, fleet

    sequential_lps, fleet_lps, fleet = once(compare)
    single = calibrate_batch_latency_s(
        classifier,
        np.zeros((1, config.n_channels, config.window_size)),
        repeats=5,
    )
    batched = calibrate_batch_latency_s(
        classifier,
        np.zeros((N_SESSIONS, config.n_channels, config.window_size)),
        repeats=5,
    )
    percentiles = fleet.telemetry.latency_percentiles()
    print("\n" + "=" * 80)
    print(f"Fleet serving throughput — {N_SESSIONS} sessions, "
          f"{DURATION_S:.0f} s @ {config.label_rate_hz:.0f} Hz labels")
    print(f"sequential loops:     {sequential_lps:10.1f} labels/s")
    print(f"micro-batched fleet:  {fleet_lps:10.1f} labels/s "
          f"({fleet_lps / sequential_lps:.2f}x)")
    print(f"predict_proba, n=1:   {single * 1e3:8.3f} ms   "
          f"n={N_SESSIONS}: {batched * 1e3:8.3f} ms "
          f"({single * N_SESSIONS / batched:.2f}x amortisation)")
    print(f"batch latency p50/p95/p99: {percentiles['p50'] * 1e3:.3f} / "
          f"{percentiles['p95'] * 1e3:.3f} / {percentiles['p99'] * 1e3:.3f} ms")
    assert fleet_lps > sequential_lps, (
        f"micro-batched fleet ({fleet_lps:.1f} labels/s) should beat "
        f"{N_SESSIONS} sequential loops ({sequential_lps:.1f} labels/s)"
    )
