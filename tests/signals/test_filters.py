"""Tests for the preprocessing filter chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from repro.serving.session import ServingSession
from repro.signals import filters
from repro.signals.filters import (
    FilterSettings,
    PreprocessingPipeline,
    bandpass_butterworth,
    notch_filter,
    remove_artifacts,
)
from repro.signals.synthetic import ParticipantProfile
from repro.signals.quality import band_power, line_noise_power

FS = 125.0


def _tone(freq_hz, duration_s=4.0, fs=FS, amplitude=1.0):
    t = np.arange(int(duration_s * fs)) / fs
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


class TestBandpass:
    def test_passband_tone_preserved(self):
        x = _tone(10.0)
        y = bandpass_butterworth(x, FS)
        assert band_power(y, (8, 12), FS) > 0.5 * band_power(x, (8, 12), FS)

    def test_dc_drift_removed(self):
        x = _tone(10.0) + 50.0
        y = bandpass_butterworth(x, FS)
        assert abs(np.mean(y)) < 1.0

    def test_high_frequency_attenuated(self):
        x = _tone(55.0)
        y = bandpass_butterworth(x, FS)
        assert np.std(y) < 0.1 * np.std(x)

    def test_invalid_band_raises(self):
        with pytest.raises(ValueError):
            bandpass_butterworth(_tone(10.0), FS, low_hz=40.0, high_hz=10.0)

    def test_high_above_nyquist_raises(self):
        with pytest.raises(ValueError):
            bandpass_butterworth(_tone(10.0), FS, high_hz=70.0)

    def test_2d_input_filters_each_channel(self):
        x = np.vstack([_tone(10.0), _tone(55.0)])
        y = bandpass_butterworth(x, FS)
        assert y.shape == x.shape
        assert np.std(y[0]) > 5 * np.std(y[1])

    def test_3d_input_rejected(self):
        with pytest.raises(ValueError):
            bandpass_butterworth(np.zeros((2, 2, 2)), FS)


class TestNotch:
    def test_line_noise_removed(self):
        clean = _tone(10.0)
        noisy = clean + _tone(50.0, amplitude=2.0)
        filtered = notch_filter(noisy, FS)
        assert line_noise_power(filtered, 50.0, 1.0, FS) < 0.05 * line_noise_power(
            noisy, 50.0, 1.0, FS
        )

    def test_neighbouring_frequencies_preserved(self):
        x = _tone(10.0)
        y = notch_filter(x, FS)
        assert band_power(y, (8, 12), FS) > 0.8 * band_power(x, (8, 12), FS)

    def test_notch_at_nyquist_raises(self):
        with pytest.raises(ValueError):
            notch_filter(_tone(10.0), FS, notch_hz=70.0)

    def test_negative_notch_raises(self):
        with pytest.raises(ValueError):
            notch_filter(_tone(10.0), FS, notch_hz=-1.0)


class TestArtifactRemoval:
    def test_blink_spike_suppressed(self):
        x = _tone(10.0, amplitude=5.0)
        x[200:220] += 150.0
        cleaned = remove_artifacts(x, FS, amplitude_threshold_uv=60.0)
        assert np.abs(cleaned[200:220]).max() < 80.0

    def test_clean_signal_untouched(self):
        x = _tone(10.0, amplitude=5.0)
        cleaned = remove_artifacts(x, FS, amplitude_threshold_uv=60.0)
        np.testing.assert_allclose(cleaned, x)

    def test_multichannel_independent_cleaning(self):
        a = _tone(10.0, amplitude=5.0)
        b = a.copy()
        b[100] = 500.0
        cleaned = remove_artifacts(np.vstack([a, b]), FS)
        np.testing.assert_allclose(cleaned[0], a)
        assert abs(cleaned[1, 100]) < 60.0


class TestPipeline:
    def test_full_chain_improves_line_noise(self):
        x = _tone(10.0, amplitude=8.0) + _tone(50.0, amplitude=5.0) + 30.0
        pipeline = PreprocessingPipeline()
        y = pipeline(x[None, :])
        assert line_noise_power(y[0], 50.0, 1.0, FS) < 0.1 * line_noise_power(
            x, 50.0, 1.0, FS
        )

    def test_minimum_samples_positive(self):
        assert PreprocessingPipeline().minimum_samples() > 0

    @pytest.mark.parametrize("order", [4, 9])
    def test_minimum_samples_is_the_shortest_accepted_segment(self, order):
        pipeline = PreprocessingPipeline(FilterSettings(bandpass_order=order))
        shortest = pipeline.minimum_samples()
        x = np.random.default_rng(order).standard_normal((3, shortest))
        assert pipeline(x).shape == x.shape
        with pytest.raises(ValueError, match="padlen"):
            pipeline(x[:, :-1])

    def test_artifact_stage_can_be_disabled(self):
        settings_obj = FilterSettings(remove_artifacts=False)
        pipeline = PreprocessingPipeline(settings_obj)
        x = _tone(10.0, amplitude=5.0)[None, :]
        assert pipeline(x).shape == x.shape

    @settings(max_examples=20, deadline=None)
    @given(
        freq=st.floats(min_value=2.0, max_value=40.0),
        amplitude=st.floats(min_value=0.5, max_value=50.0),
    )
    def test_property_output_finite_and_bounded(self, freq, amplitude):
        """Filtering any in-band tone yields finite output of comparable scale."""
        x = _tone(freq, amplitude=amplitude)
        y = PreprocessingPipeline()(x[None, :])
        assert np.isfinite(y).all()
        assert np.abs(y).max() <= 3.0 * amplitude + 1.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_filtering_is_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 500))
        p = PreprocessingPipeline()
        np.testing.assert_allclose(p(x), p(x))


# --------------------------------------------------------------------------- #
# Oracle: scipy's own zero-phase filters, designed per call, and the
# per-channel artifact loop.  The library must match them bit for bit.
# --------------------------------------------------------------------------- #
def _oracle_artifacts(data, fs, threshold, window_s):
    arr = np.atleast_2d(np.asarray(data, dtype=float))
    cleaned = arr.copy()
    half = max(1, int(window_s * fs / 2))
    n_samples = arr.shape[1]
    for ch in range(arr.shape[0]):
        channel = cleaned[ch]
        baseline = np.median(channel)
        outliers = np.abs(channel - baseline) > threshold
        for i in np.flatnonzero(outliers):
            lo = max(0, i - half)
            hi = min(n_samples, i + half + 1)
            neighbourhood = channel[lo:hi]
            good = neighbourhood[np.abs(neighbourhood - baseline) <= threshold]
            channel[i] = np.median(good) if good.size else baseline
    return cleaned[0] if np.ndim(data) == 1 else cleaned


def _oracle_bandpass(x, cfg):
    nyquist = cfg.sampling_rate_hz / 2.0
    sos = sps.butter(
        cfg.bandpass_order,
        [cfg.bandpass_low_hz / nyquist, cfg.bandpass_high_hz / nyquist],
        btype="band",
        output="sos",
    )
    return sps.sosfiltfilt(sos, x, axis=-1)


def _oracle_notch(x, cfg):
    b, a = sps.iirnotch(cfg.notch_hz, cfg.notch_quality, fs=cfg.sampling_rate_hz)
    return sps.filtfilt(b, a, x, axis=-1)


def _oracle_chain(x, cfg):
    y = _oracle_notch(_oracle_bandpass(x, cfg), cfg)
    return _oracle_artifacts(y, cfg.sampling_rate_hz, cfg.artifact_threshold_uv, cfg.artifact_window_s)


def _random_case(seed):
    """Settings and an EEG-like input with spike runs and a saturated channel."""
    rng = np.random.default_rng(seed)
    cfg = FilterSettings(
        bandpass_order=int(rng.choice([4, 9])),
        bandpass_low_hz=float(rng.choice([0.5, 1.0, 4.0, 8.0])),
        bandpass_high_hz=float(rng.choice([30.0, 40.0, 45.0, 55.0])),
        artifact_threshold_uv=float(rng.choice([40.0, 60.0])),
    )
    n_ch = int(rng.integers(1, 17))
    n = int(rng.integers(PreprocessingPipeline(cfg).minimum_samples(), 2001))
    x = 10.0 * rng.standard_normal((n_ch, n)) + 30.0 * rng.standard_normal((n_ch, 1))
    for _ in range(int(rng.integers(0, 4 * n_ch + 1))):
        # Runs of adjacent outliers pin the sequential in-place replacement.
        ch, start = int(rng.integers(n_ch)), int(rng.integers(n))
        x[ch, start : start + int(rng.integers(1, 20))] += rng.choice([-1.0, 1.0]) * rng.uniform(80, 400)
    if rng.random() < 0.15:
        # Every sample of this channel is an outlier: the baseline fallback.
        x[int(rng.integers(n_ch)), :] = 100.0 * np.where(np.arange(n) % 2, 1.0, -1.0)
    if n_ch == 1 and rng.random() < 0.5:
        x = x[0]
    return cfg, x


class TestFilterOracle:
    SEEDS = range(200)

    def test_pipeline_matches_scipy_bit_for_bit(self):
        for seed in self.SEEDS:
            cfg, x = _random_case(seed)
            got = PreprocessingPipeline(cfg)(x)
            assert np.array_equal(got, _oracle_chain(x, cfg)), f"seed={seed}"

    def test_artifact_removal_matches_per_channel_loop(self):
        for seed in self.SEEDS:
            cfg, x = _random_case(seed)
            got = remove_artifacts(x, cfg.sampling_rate_hz, cfg.artifact_threshold_uv, cfg.artifact_window_s)
            want = _oracle_artifacts(x, cfg.sampling_rate_hz, cfg.artifact_threshold_uv, cfg.artifact_window_s)
            assert np.array_equal(got, want), f"seed={seed}"

    def test_each_filter_matches_scipy_bit_for_bit(self):
        for seed in self.SEEDS:
            cfg, x = _random_case(seed)
            got = bandpass_butterworth(
                x, cfg.sampling_rate_hz, cfg.bandpass_low_hz, cfg.bandpass_high_hz, cfg.bandpass_order
            )
            assert np.array_equal(got, _oracle_bandpass(x, cfg)), f"seed={seed}"
            got = notch_filter(x, cfg.sampling_rate_hz, cfg.notch_hz, cfg.notch_quality)
            assert np.array_equal(got, _oracle_notch(x, cfg)), f"seed={seed}"

    def test_too_short_input_raises_like_scipy(self):
        with pytest.raises(ValueError, match="greater than padlen, which is 57"):
            bandpass_butterworth(np.zeros(57))
        with pytest.raises(ValueError, match="greater than padlen, which is 9"):
            notch_filter(np.zeros((2, 9)))


class TestDesignCache:
    """The filters are designed once per parameter tuple, not once per label."""

    def test_prepare_window_designs_nothing_after_the_first_label(self, monkeypatch):
        calls = {}

        def counting(name):
            original = getattr(sps, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            return wrapper

        for name in ("butter", "iirnotch", "sosfilt_zi", "lfilter_zi"):
            monkeypatch.setattr(sps, name, counting(name))
        filters._bandpass_design.cache_clear()
        filters._notch_design.cache_clear()
        session = ServingSession("s0", profile=ParticipantProfile(participant_id="P01", seed=3))
        session.start()
        assert session.prepare_window() is not None
        assert set(calls) == {"butter", "iirnotch", "sosfilt_zi", "lfilter_zi"}
        calls.clear()
        for _ in range(50):
            assert session.prepare_window() is not None
        assert calls == {}

    def test_changing_settings_changes_the_output(self):
        x = np.random.default_rng(0).standard_normal((4, 500))
        pipeline = PreprocessingPipeline()
        before = pipeline(x)
        pipeline.settings.bandpass_high_hz = 30.0
        after = pipeline(x)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, PreprocessingPipeline(FilterSettings(bandpass_high_hz=30.0))(x))

    def test_cached_designs_are_read_only(self):
        bandpass = filters._bandpass_design(125.0, 0.5, 45.0, 9)
        notch = filters._notch_design(125.0, 50.0, 30.0)
        for arr in (*bandpass.coefficients, bandpass.zi, *notch.coefficients, notch.zi):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0.0
