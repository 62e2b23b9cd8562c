"""Physiologically-motivated synthetic EEG generator.

The paper records real EEG from five participants wearing an OpenBCI
UltraCortex Mark IV headset.  We do not have that hardware, so this module
provides the substitution described in DESIGN.md: a generator that produces a
16-channel, 125 Hz signal with the statistical structure that the paper's
classifiers exploit:

* 1/f ("pink") background activity plus white sensor noise,
* ongoing alpha/mu (~10 Hz) and beta (~20 Hz) rhythms whose amplitude is
  largest over occipital/central sites,
* 50 Hz power-line interference,
* occasional eye-blink and EMG (muscle) artifacts, and
* **event-related desynchronisation (ERD)**: during imagined right-hand
  movement the mu/beta rhythm over the contralateral motor cortex (C3) is
  attenuated, and vice versa for imagined left-hand movement.  The *idle*
  class leaves both hemispheres at baseline power.

The lateralised ERD is the physiological signature motor-imagery BCIs decode,
so classifiers trained on this generator face the same discrimination problem
as the paper's models, with per-participant variability controlling how hard
that problem is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.signals.montage import Montage

#: Canonical action labels used throughout the library.
ACTION_LEFT = "left"
ACTION_RIGHT = "right"
ACTION_IDLE = "idle"
ACTIONS: Tuple[str, str, str] = (ACTION_LEFT, ACTION_RIGHT, ACTION_IDLE)


@dataclass
class RhythmConfig:
    """Parameters of the ongoing oscillatory activity of one participant."""

    mu_freq_hz: float = 10.0
    beta_freq_hz: float = 20.0
    alpha_freq_hz: float = 10.5
    mu_amplitude_uv: float = 8.0
    beta_amplitude_uv: float = 4.0
    alpha_amplitude_uv: float = 6.0
    #: Fractional attenuation of the contralateral mu/beta rhythm during motor
    #: imagery (0 = no ERD, 1 = complete suppression).
    erd_depth: float = 0.65
    #: Mild power *increase* over the ipsilateral hemisphere (ERS).
    ers_gain: float = 0.15


@dataclass
class ArtifactConfig:
    """Rates and amplitudes of non-neural contamination."""

    blink_rate_hz: float = 0.25
    blink_amplitude_uv: float = 80.0
    blink_duration_s: float = 0.3
    emg_burst_rate_hz: float = 0.1
    emg_amplitude_uv: float = 20.0
    emg_duration_s: float = 0.5
    line_noise_hz: float = 50.0
    line_noise_amplitude_uv: float = 5.0
    white_noise_uv: float = 2.0
    pink_noise_uv: float = 6.0
    drift_amplitude_uv: float = 15.0
    drift_freq_hz: float = 0.1


@dataclass
class ParticipantProfile:
    """Per-participant generative parameters (the cross-subject variability).

    The paper's leave-one-subject-out evaluation measures how well models
    generalise across participants; the fields here are what varies between
    simulated participants.
    """

    participant_id: str
    rhythms: RhythmConfig = field(default_factory=RhythmConfig)
    artifacts: ArtifactConfig = field(default_factory=ArtifactConfig)
    #: Per-channel gain mismatch (electrode impedance differences).
    channel_gain_std: float = 0.08
    #: Reaction delay between cue onset and ERD onset, in seconds.
    reaction_delay_s: float = 0.35
    seed: int = 0

    @classmethod
    def cohort(
        cls,
        n_participants: int = 5,
        base_seed: int = 1234,
        erd_depth_range: Tuple[float, float] = (0.45, 0.8),
        noise_range: Tuple[float, float] = (1.5, 3.5),
    ) -> List["ParticipantProfile"]:
        """Create a cohort of participants with varied signal quality.

        Mirrors the paper's five-participant cohort: each simulated
        participant gets its own ERD depth (task signal strength), rhythm
        frequencies and noise level.
        """
        rng = np.random.default_rng(base_seed)
        profiles: List[ParticipantProfile] = []
        for i in range(n_participants):
            rhythms = RhythmConfig(
                mu_freq_hz=float(rng.uniform(9.0, 11.5)),
                beta_freq_hz=float(rng.uniform(18.0, 24.0)),
                alpha_freq_hz=float(rng.uniform(9.5, 11.0)),
                mu_amplitude_uv=float(rng.uniform(6.0, 10.0)),
                beta_amplitude_uv=float(rng.uniform(3.0, 5.0)),
                alpha_amplitude_uv=float(rng.uniform(4.0, 8.0)),
                erd_depth=float(rng.uniform(*erd_depth_range)),
                ers_gain=float(rng.uniform(0.05, 0.25)),
            )
            artifacts = ArtifactConfig(
                blink_rate_hz=float(rng.uniform(0.15, 0.35)),
                emg_burst_rate_hz=float(rng.uniform(0.05, 0.2)),
                white_noise_uv=float(rng.uniform(*noise_range)),
                pink_noise_uv=float(rng.uniform(4.0, 8.0)),
            )
            profiles.append(
                cls(
                    participant_id=f"P{i + 1:02d}",
                    rhythms=rhythms,
                    artifacts=artifacts,
                    channel_gain_std=float(rng.uniform(0.04, 0.12)),
                    reaction_delay_s=float(rng.uniform(0.2, 0.5)),
                    seed=base_seed + 101 * (i + 1),
                )
            )
        return profiles


class SyntheticEEGGenerator:
    """Generate multi-channel EEG segments for a given participant.

    Parameters
    ----------
    profile:
        The participant whose signals to synthesise.
    montage:
        Electrode montage; defines channel count and which channels carry
        motor rhythm, blink and EMG activity.
    sampling_rate_hz:
        Sampling rate.  The paper streams at 125 Hz (Cyton + Daisy).
    """

    def __init__(
        self,
        profile: ParticipantProfile,
        montage: Optional[Montage] = None,
        sampling_rate_hz: float = 125.0,
    ) -> None:
        self.profile = profile
        self.montage = montage or Montage()
        self.sampling_rate_hz = float(sampling_rate_hz)
        self._rng = np.random.default_rng(profile.seed)
        self._channel_gains = 1.0 + profile.channel_gain_std * self._rng.standard_normal(
            self.montage.n_channels
        )
        # Spatial weights of the mu/beta sources centred on C3 (left hemisphere,
        # controls the right hand) and C4 (right hemisphere, controls the left
        # hand).  Weight falls off with scalp distance.
        self._c3_weights = self._source_weights("C3")
        self._c4_weights = self._source_weights("C4")
        self._occipital_weights = self._source_weights("O1") + self._source_weights("O2")
        self._frontal_weights = self._region_weights(self.montage.frontal_indices())
        self._temporal_weights = self._region_weights(self.montage.temporal_indices())

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def generate(
        self,
        duration_s: float,
        action: str = ACTION_IDLE,
        onset_elapsed_s: float = 0.0,
    ) -> np.ndarray:
        """Generate a ``(n_channels, n_samples)`` EEG segment for one action.

        ``action`` must be one of ``"left"``, ``"right"`` or ``"idle"``.  The
        ERD modulation is applied after the participant's reaction delay,
        measured from action onset; ``onset_elapsed_s`` says how long the
        action has already been ongoing when this segment starts, so streaming
        callers that generate many short consecutive blocks (the simulated
        board advancing one label period at a time) see a single continuous
        reaction ramp instead of restarting it with every block.
        """
        if action not in ACTIONS:
            raise ValueError(f"Unknown action {action!r}; expected one of {ACTIONS}")
        if onset_elapsed_s < 0:
            raise ValueError("onset_elapsed_s must be non-negative")
        n_samples = int(round(duration_s * self.sampling_rate_hz))
        if n_samples <= 0:
            raise ValueError("duration_s must correspond to at least one sample")
        t = np.arange(n_samples) / self.sampling_rate_hz
        data = self._background(n_samples, t)
        data += self._motor_rhythms(t + onset_elapsed_s, action)
        data += self._artifacts(n_samples, t)
        data *= self._channel_gains[:, None]
        return data

    def generate_trial(
        self, action: str, task_duration_s: float = 10.0, rest_duration_s: float = 10.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Generate a full cue-task-rest trial as used by the paper's protocol.

        Returns ``(data, labels)`` where ``labels`` assigns each sample the
        task action during the task block and ``"idle"`` during rest.
        """
        task = self.generate(task_duration_s, action)
        rest = self.generate(rest_duration_s, ACTION_IDLE)
        data = np.concatenate([task, rest], axis=1)
        labels = np.array(
            [action] * task.shape[1] + [ACTION_IDLE] * rest.shape[1], dtype=object
        )
        return data, labels

    # ------------------------------------------------------------------ #
    # Signal components
    # ------------------------------------------------------------------ #
    def _background(self, n_samples: int, t: np.ndarray) -> np.ndarray:
        cfg = self.profile.artifacts
        n_ch = self.montage.n_channels
        data = cfg.pink_noise_uv * self._pink_noise(n_ch, n_samples)
        data += cfg.white_noise_uv * self._rng.standard_normal((n_ch, n_samples))
        # Slow electrode drift (common across channels with random phase).
        phases = self._rng.uniform(0, 2 * np.pi, size=n_ch)
        data += cfg.drift_amplitude_uv * np.sin(
            2 * np.pi * cfg.drift_freq_hz * t[None, :] + phases[:, None]
        )
        # Posterior alpha rhythm, strongest occipitally.
        rhythms = self.profile.rhythms
        alpha = rhythms.alpha_amplitude_uv * np.sin(
            2 * np.pi * rhythms.alpha_freq_hz * t + self._rng.uniform(0, 2 * np.pi)
        )
        data += self._occipital_weights[:, None] * alpha[None, :]
        # Power-line interference on every channel.
        data += cfg.line_noise_amplitude_uv * np.sin(
            2 * np.pi * cfg.line_noise_hz * t
        )[None, :]
        return data

    def _pink_noise(self, n_ch: int, n_samples: int) -> np.ndarray:
        """Unit-variance 1/f noise per channel via spectral shaping of white noise.

        All channels are shaped in one FFT round trip; each row is drawn,
        shaped and scaled exactly as it would be on its own.
        """
        white = self._rng.standard_normal((n_ch, n_samples))
        spectrum = np.fft.rfft(white, axis=1)
        freqs = np.fft.rfftfreq(n_samples, d=1.0)
        # Avoid dividing by zero at DC; 1/sqrt(f) amplitude shaping gives 1/f power.
        scale = np.ones_like(freqs)
        nonzero = freqs > 0
        scale[nonzero] = 1.0 / np.sqrt(freqs[nonzero])
        shaped = np.fft.irfft(spectrum * scale, n=n_samples, axis=1)
        std = shaped.std(axis=1, keepdims=True)
        np.divide(shaped, std, out=shaped, where=std > 0)
        return shaped

    def _motor_rhythms(self, t: np.ndarray, action: str) -> np.ndarray:
        rhythms = self.profile.rhythms
        # Envelope: baseline 1.0; during imagery the contralateral source is
        # attenuated by erd_depth after the reaction delay, the ipsilateral
        # source slightly enhanced (ERS).
        envelope_c3 = np.ones_like(t)
        envelope_c4 = np.ones_like(t)
        onset = self.profile.reaction_delay_s
        active = t >= onset
        ramp = np.clip((t - onset) / 0.5, 0.0, 1.0)
        if action == ACTION_RIGHT:
            # Right-hand imagery -> left motor cortex (C3) desynchronises.
            envelope_c3 = 1.0 - rhythms.erd_depth * ramp * active
            envelope_c4 = 1.0 + rhythms.ers_gain * ramp * active
        elif action == ACTION_LEFT:
            envelope_c4 = 1.0 - rhythms.erd_depth * ramp * active
            envelope_c3 = 1.0 + rhythms.ers_gain * ramp * active
        mu_phase_c3 = self._rng.uniform(0, 2 * np.pi)
        mu_phase_c4 = self._rng.uniform(0, 2 * np.pi)
        beta_phase_c3 = self._rng.uniform(0, 2 * np.pi)
        beta_phase_c4 = self._rng.uniform(0, 2 * np.pi)
        # Amplitude-modulated rhythms (slow random amplitude fluctuations make
        # the signal non-stationary, as real EEG is).
        slow_mod = 1.0 + 0.2 * np.sin(2 * np.pi * 0.3 * t + self._rng.uniform(0, 2 * np.pi))
        c3_source = slow_mod * envelope_c3 * (
            rhythms.mu_amplitude_uv * np.sin(2 * np.pi * rhythms.mu_freq_hz * t + mu_phase_c3)
            + rhythms.beta_amplitude_uv
            * np.sin(2 * np.pi * rhythms.beta_freq_hz * t + beta_phase_c3)
        )
        c4_source = slow_mod * envelope_c4 * (
            rhythms.mu_amplitude_uv * np.sin(2 * np.pi * rhythms.mu_freq_hz * t + mu_phase_c4)
            + rhythms.beta_amplitude_uv
            * np.sin(2 * np.pi * rhythms.beta_freq_hz * t + beta_phase_c4)
        )
        return (
            self._c3_weights[:, None] * c3_source[None, :]
            + self._c4_weights[:, None] * c4_source[None, :]
        )

    def _artifacts(self, n_samples: int, t: np.ndarray) -> np.ndarray:
        cfg = self.profile.artifacts
        n_ch = self.montage.n_channels
        duration_s = n_samples / self.sampling_rate_hz
        data = np.zeros((n_ch, n_samples))
        # Eye blinks: frontal, half-sine pulses.
        n_blinks = self._rng.poisson(cfg.blink_rate_hz * duration_s)
        blink_len = max(1, int(cfg.blink_duration_s * self.sampling_rate_hz))
        pulse = np.sin(np.linspace(0, np.pi, blink_len))
        for _ in range(n_blinks):
            start = self._rng.integers(0, max(1, n_samples - blink_len))
            seg = slice(start, start + blink_len)
            amp = cfg.blink_amplitude_uv * self._rng.uniform(0.7, 1.3)
            data[:, seg] += self._frontal_weights[:, None] * amp * pulse[None, : data[:, seg].shape[1]]
        # EMG bursts: temporal channels, high-frequency noise bursts.
        n_bursts = self._rng.poisson(cfg.emg_burst_rate_hz * duration_s)
        burst_len = max(1, int(cfg.emg_duration_s * self.sampling_rate_hz))
        for _ in range(n_bursts):
            start = self._rng.integers(0, max(1, n_samples - burst_len))
            seg = slice(start, start + burst_len)
            length = data[:, seg].shape[1]
            burst = cfg.emg_amplitude_uv * self._rng.standard_normal(length)
            window = np.hanning(length) if length > 1 else np.ones(1)
            data[:, seg] += self._temporal_weights[:, None] * (burst * window)[None, :]
        return data

    # ------------------------------------------------------------------ #
    # Spatial weighting helpers
    # ------------------------------------------------------------------ #
    def _source_weights(self, source_channel: str, falloff_cm: float = 4.0) -> np.ndarray:
        """Gaussian falloff of a cortical source's scalp projection."""
        weights = np.zeros(self.montage.n_channels)
        try:
            self.montage.index_of(source_channel)
        except KeyError:
            return weights
        for i, name in enumerate(self.montage.channels):
            d = self.montage.distance_cm(name, source_channel)
            weights[i] = np.exp(-0.5 * (d / falloff_cm) ** 2)
        return weights

    def _region_weights(self, indices: Iterable[int], base: float = 1.0) -> np.ndarray:
        weights = np.zeros(self.montage.n_channels)
        for i in indices:
            weights[i] = base
        # Small leakage onto every other channel (volume conduction).
        weights += 0.05
        return weights
