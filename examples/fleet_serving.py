#!/usr/bin/env python
"""Fleet serving walkthrough: many users, one classifier, one batch per tick.

Builds a heterogeneous fleet of simulated participants, serves them all from
a single shared classifier with cross-session micro-batched inference (the
scheduler's lock-step ``tick()``: every session prepared, one batched call),
and
exercises the serving subsystem's operational behaviours:

- sessions joining and leaving mid-run,
- a session stalling (the batch shrinks, nobody else is delayed, and the
  stalled session catches up by dropping its backlog),
- fleet telemetry: throughput in labels/s, p50/p95/p99 batch latency,
  backlog depth and per-session accuracy.

Run with:  python examples/fleet_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.core.config import CognitiveArmConfig
from repro.experiments.common import BENCH_SCALE, small_reference_models, train_validation
from repro.serving import AsyncFleetScheduler, calibrate_batch_latency_s
from repro.signals.synthetic import ACTION_LEFT, ACTION_RIGHT, ParticipantProfile


def make_profile(index: int) -> ParticipantProfile:
    """Heterogeneous fleet: each participant gets different ERD strength."""
    profile = ParticipantProfile(participant_id=f"USER{index:02d}", seed=200 + index)
    profile.rhythms.erd_depth = 0.6 + 0.04 * (index % 6)
    return profile


def main() -> None:
    config = CognitiveArmConfig(window_size=BENCH_SCALE.window_size,
                                label_rate_hz=10.0,
                                confidence_threshold=0.34, smoothing_window=3)

    print("=== Training the shared fleet classifier ===")
    train, validation = train_validation(BENCH_SCALE, seed=0)
    classifier = small_reference_models(epochs=4, seed=0)["cnn"]
    classifier.fit(train, validation)
    print(f"  validation accuracy: {classifier.evaluate(validation):.3f}")

    print("\n=== Sizing the fleet against the label-period budget ===")
    for batch in (1, 4, 8, 16):
        latency = calibrate_batch_latency_s(
            classifier, np.zeros((batch, config.n_channels, config.window_size))
        )
        verdict = "ok" if latency <= config.label_period_s else "OVER BUDGET"
        print(f"  batch n={batch:2d}: {latency * 1e3:7.2f} ms per tick "
              f"(budget {config.label_period_s * 1e3:.0f} ms) [{verdict}]")

    print("\n=== Serving an 8-session fleet with mid-run churn ===")
    fleet = AsyncFleetScheduler(classifier, config)
    for index in range(8):
        session = fleet.add_session(profile=make_profile(index))
        session.set_action(ACTION_RIGHT if index % 2 == 0 else ACTION_LEFT)

    # Phase 1: steady state.
    for _ in range(20):
        fleet.tick()

    # Phase 2: one user disconnects, a new one joins with a stall scheduled.
    departing = fleet.sessions[0]
    fleet.remove_session(departing.session_id)
    print(f"  {departing.session_id} left after {departing.labels_emitted()} labels")
    flaky = fleet.add_session(
        profile=make_profile(8),
        session_id="late-flaky",
        stall_ticks={4, 5, 6},  # session-local ticks: stalls shortly after joining
    )
    flaky.set_action(ACTION_RIGHT)
    for _ in range(20):
        fleet.tick()

    report = fleet.report()
    fleet.shutdown()

    print("\n=== Fleet telemetry ===")
    fleet = report.fleet
    print(f"  ticks: {int(fleet['ticks'])}, labels: {int(fleet['total_labels'])}")
    print(f"  throughput: {fleet['throughput_labels_per_s']:.0f} labels/s "
          f"of classification time")
    print(f"  batch latency p50/p95/p99: {fleet['batch_latency_p50_s'] * 1e3:.2f} / "
          f"{fleet['batch_latency_p95_s'] * 1e3:.2f} / "
          f"{fleet['batch_latency_p99_s'] * 1e3:.2f} ms")
    print(f"  stall rate: {fleet['stall_rate']:.3f}, "
          f"max backlog depth: {int(fleet['max_backlog_depth'])}")

    print("\n=== Per-session roll-up ===")
    for stats in report.sessions:
        print(f"  {stats.session_id:>12s}: {stats.labels_emitted:3d} labels, "
              f"accuracy {stats.accuracy:.2f}, "
              f"dropped windows {stats.dropped_windows}")


if __name__ == "__main__":
    main()
