"""Tests for the synthetic EEG generator."""

import copy

import numpy as np
import pytest

from repro.signals.montage import Montage
from repro.signals.quality import band_power
from repro.signals.synthetic import (
    ACTION_IDLE,
    ACTION_LEFT,
    ACTION_RIGHT,
    ParticipantProfile,
    SyntheticEEGGenerator,
)


@pytest.fixture()
def generator():
    profile = ParticipantProfile(participant_id="P01", seed=42)
    return SyntheticEEGGenerator(profile)


class TestGeneration:
    def test_output_shape_matches_duration(self, generator):
        data = generator.generate(2.0, ACTION_IDLE)
        assert data.shape == (16, 250)

    def test_unknown_action_rejected(self, generator):
        with pytest.raises(ValueError):
            generator.generate(1.0, "jump")

    def test_zero_duration_rejected(self, generator):
        with pytest.raises(ValueError):
            generator.generate(0.0, ACTION_IDLE)

    def test_output_is_finite(self, generator):
        data = generator.generate(4.0, ACTION_RIGHT)
        assert np.isfinite(data).all()

    def test_amplitude_in_physiological_range(self, generator):
        data = generator.generate(4.0, ACTION_IDLE)
        # EEG plus artifacts should live within roughly +-300 microvolts.
        assert np.abs(data).max() < 300.0

    def test_trial_concatenates_task_and_rest(self, generator):
        data, labels = generator.generate_trial(ACTION_LEFT, 2.0, 3.0)
        assert data.shape[1] == labels.shape[0] == 625
        assert (labels[:250] == ACTION_LEFT).all()
        assert (labels[250:] == ACTION_IDLE).all()


class TestERDLateralisation:
    """Right-hand imagery suppresses mu power over C3; left over C4."""

    @staticmethod
    def _mu_power(generator, action, channel, n_trials=6, duration=4.0):
        montage = generator.montage
        idx = montage.index_of(channel)
        powers = []
        for _ in range(n_trials):
            data = generator.generate(duration, action)
            powers.append(band_power(data[idx], (8.0, 13.0), generator.sampling_rate_hz))
        return float(np.mean(powers))

    def test_right_imagery_suppresses_c3(self, generator):
        idle = self._mu_power(generator, ACTION_IDLE, "C3")
        right = self._mu_power(generator, ACTION_RIGHT, "C3")
        assert right < idle

    def test_left_imagery_suppresses_c4(self, generator):
        idle = self._mu_power(generator, ACTION_IDLE, "C4")
        left = self._mu_power(generator, ACTION_LEFT, "C4")
        assert left < idle

    def test_lateralisation_index_discriminates_left_right(self, generator):
        c3 = generator.montage.index_of("C3")
        c4 = generator.montage.index_of("C4")

        def lateralisation(action):
            vals = []
            for _ in range(6):
                data = generator.generate(4.0, action)
                p3 = band_power(data[c3], (8.0, 30.0), 125.0)
                p4 = band_power(data[c4], (8.0, 30.0), 125.0)
                vals.append((p4 - p3) / (p4 + p3))
            return float(np.mean(vals))

        assert lateralisation(ACTION_RIGHT) > lateralisation(ACTION_LEFT)


class TestCohort:
    def test_cohort_size_and_unique_ids(self):
        cohort = ParticipantProfile.cohort(5)
        assert len(cohort) == 5
        assert len({p.participant_id for p in cohort}) == 5

    def test_cohort_profiles_differ(self):
        cohort = ParticipantProfile.cohort(5)
        depths = {p.rhythms.erd_depth for p in cohort}
        assert len(depths) > 1

    def test_cohort_is_deterministic_for_seed(self):
        a = ParticipantProfile.cohort(3, base_seed=7)
        b = ParticipantProfile.cohort(3, base_seed=7)
        assert [p.rhythms.mu_freq_hz for p in a] == [p.rhythms.mu_freq_hz for p in b]

    def test_generator_respects_custom_montage(self):
        montage = Montage(channels=("C3", "C4", "FP1", "O1"))
        profile = ParticipantProfile(participant_id="X", seed=1)
        gen = SyntheticEEGGenerator(profile, montage)
        assert gen.generate(1.0).shape[0] == 4


def _reference_pink_noise(rng, n_samples):
    """One channel of 1/f noise, drawn and shaped on its own."""
    white = rng.standard_normal(n_samples)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_samples, d=1.0)
    scale = np.ones_like(freqs)
    nonzero = freqs > 0
    scale[nonzero] = 1.0 / np.sqrt(freqs[nonzero])
    shaped = np.fft.irfft(spectrum * scale, n=n_samples)
    std = shaped.std()
    if std > 0:
        shaped = shaped / std
    return shaped


class _PerChannelGenerator(SyntheticEEGGenerator):
    """The generator with its pink noise drawn one channel at a time."""

    def _pink_noise(self, n_ch, n_samples):
        return np.stack([_reference_pink_noise(self._rng, n_samples) for _ in range(n_ch)])


class TestOnePassSynthesis:
    """All channels' pink noise in one FFT round trip changes no output bit."""

    @pytest.mark.parametrize("seed", [0, 7, 42, 1234])
    @pytest.mark.parametrize("n_samples", [1, 8, 1250])
    def test_blocks_and_rng_match_per_channel_reference(self, seed, n_samples):
        profile = ParticipantProfile(participant_id="P01", seed=seed)
        fast = SyntheticEEGGenerator(profile)
        reference = _PerChannelGenerator(copy.deepcopy(profile))
        for action in (ACTION_IDLE, ACTION_LEFT, ACTION_RIGHT):
            block = fast.generate(n_samples / fast.sampling_rate_hz, action)
            want = reference.generate(n_samples / reference.sampling_rate_hz, action)
            assert block.shape == (16, n_samples)
            assert np.array_equal(block, want)
        assert np.array_equal(fast._rng.standard_normal(8), reference._rng.standard_normal(8))
