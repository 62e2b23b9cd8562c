"""Preprocessing filters used by CognitiveArm (Section III-A3 of the paper).

The paper applies, in order:

1. a 9th-order Butterworth band-pass retaining 0.5-45 Hz,
2. a 50 Hz notch filter with quality factor 30, and
3. BrainFlow-style artifact removal for eye blinks and muscle activity.

These are implemented here on top of :mod:`scipy.signal`, operating on
``(n_channels, n_samples)`` arrays so the same functions serve offline dataset
preparation and the real-time pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy import signal as sps


def _as_2d(data: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Promote a 1-D signal to a single-channel 2-D array."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ValueError("EEG data must be 1-D (samples) or 2-D (channels, samples)")


class _ZeroPhaseDesign(NamedTuple):
    """One designed IIR filter, applied forward-backward like ``filtfilt``.

    ``coefficients`` is ``(sos,)`` for second-order sections or ``(b, a)``
    for a transfer function.  ``zi`` is the filter's steady-state step
    response, shaped to broadcast against one sample per channel, and
    ``padlen`` the odd-extension length scipy's ``sosfiltfilt`` /
    ``filtfilt`` use by default.  All arrays are read-only: designs are
    shared through the module-level cache.
    """

    coefficients: Tuple[np.ndarray, ...]
    zi: np.ndarray
    padlen: int

    def apply(self, arr: np.ndarray) -> np.ndarray:
        """Zero-phase filter ``(channels, samples)`` data along the samples."""
        edge = self.padlen
        if arr.shape[1] <= edge:
            raise ValueError(
                "The length of the input vector x must be greater than padlen, "
                f"which is {edge}."
            )
        ext = np.concatenate(
            (
                2 * arr[:, :1] - arr[:, edge:0:-1],
                arr,
                2 * arr[:, -1:] - arr[:, -2 : -(edge + 2) : -1],
            ),
            axis=1,
        )
        forward = self._pass(ext)
        backward = self._pass(forward[:, ::-1])
        return backward[:, ::-1][:, edge:-edge]

    def _pass(self, x: np.ndarray) -> np.ndarray:
        """One causal pass, started in steady state at the first sample."""
        zi = self.zi * x[:, :1]
        if len(self.coefficients) == 1:
            # sosfilt's compiled kernel takes a writable buffer; the copy is
            # a few dozen floats.
            return sps.sosfilt(self.coefficients[0].copy(), x, axis=1, zi=zi)[0]
        b, a = self.coefficients
        return sps.lfilter(b, a, x, axis=1, zi=zi)[0]


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


@lru_cache(maxsize=64)
def _bandpass_design(
    sampling_rate_hz: float, low_hz: float, high_hz: float, order: int
) -> _ZeroPhaseDesign:
    """The Butterworth band-pass for one parameter tuple, designed once."""
    if not 0 < low_hz < high_hz:
        raise ValueError("Require 0 < low_hz < high_hz")
    nyquist = sampling_rate_hz / 2.0
    if high_hz >= nyquist:
        raise ValueError("high_hz must be below the Nyquist frequency")
    sos = sps.butter(order, [low_hz / nyquist, high_hz / nyquist], btype="band", output="sos")
    n_sections = sos.shape[0]
    # sosfiltfilt's default pad, which discounts poles/zeros at the origin.
    ntaps = 2 * n_sections + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    zi = sps.sosfilt_zi(sos).reshape(n_sections, 1, 2)
    _read_only(sos, zi)
    return _ZeroPhaseDesign((sos,), zi, 3 * int(ntaps))


@lru_cache(maxsize=64)
def _notch_design(
    sampling_rate_hz: float, notch_hz: float, quality_factor: float
) -> _ZeroPhaseDesign:
    """The notch for one parameter tuple, designed once."""
    if notch_hz <= 0:
        raise ValueError("notch_hz must be positive")
    nyquist = sampling_rate_hz / 2.0
    if notch_hz >= nyquist:
        raise ValueError("notch_hz must be below the Nyquist frequency")
    b, a = sps.iirnotch(notch_hz, quality_factor, fs=sampling_rate_hz)
    zi = sps.lfilter_zi(b, a).reshape(1, -1)
    _read_only(b, a, zi)
    # filtfilt's default pad.
    return _ZeroPhaseDesign((b, a), zi, 3 * max(len(a), len(b)))


def bandpass_butterworth(
    data: np.ndarray,
    sampling_rate_hz: float = 125.0,
    low_hz: float = 0.5,
    high_hz: float = 45.0,
    order: int = 9,
) -> np.ndarray:
    """Apply the paper's 9th-order Butterworth band-pass (0.5-45 Hz).

    The filter is applied forward-backward (zero phase) using second-order
    sections for numerical stability at high order.
    """
    design = _bandpass_design(sampling_rate_hz, low_hz, high_hz, order)
    arr, was_1d = _as_2d(data)
    filtered = design.apply(arr)
    return filtered[0] if was_1d else filtered


def notch_filter(
    data: np.ndarray,
    sampling_rate_hz: float = 125.0,
    notch_hz: float = 50.0,
    quality_factor: float = 30.0,
) -> np.ndarray:
    """Apply the paper's 50 Hz notch filter with quality factor 30."""
    design = _notch_design(sampling_rate_hz, notch_hz, quality_factor)
    arr, was_1d = _as_2d(data)
    filtered = design.apply(arr)
    return filtered[0] if was_1d else filtered


def remove_artifacts(
    data: np.ndarray,
    sampling_rate_hz: float = 125.0,
    amplitude_threshold_uv: float = 60.0,
    window_s: float = 0.3,
) -> np.ndarray:
    """Suppress high-amplitude transient artifacts (blinks, EMG bursts).

    This reproduces the role of BrainFlow's standard signal-cleaning helpers:
    samples whose magnitude exceeds ``amplitude_threshold_uv`` (after removing
    the channel median) are replaced by a local median computed over a
    ``window_s`` neighbourhood, which removes blink/EMG spikes while leaving
    the ongoing rhythms untouched.  Replacements run in sample order, so a
    replaced sample counts as good in its neighbours' medians.
    """
    arr, was_1d = _as_2d(data)
    cleaned = arr.copy()
    half = max(1, int(window_s * sampling_rate_hz / 2))
    n_samples = arr.shape[1]
    baselines = np.median(arr, axis=1)
    outliers = np.abs(arr - baselines[:, None]) > amplitude_threshold_uv
    for ch in np.flatnonzero(outliers.any(axis=1)):
        channel = cleaned[ch]
        baseline = baselines[ch]
        for i in np.flatnonzero(outliers[ch]):
            lo = max(0, i - half)
            hi = min(n_samples, i + half + 1)
            neighbourhood = channel[lo:hi]
            good = neighbourhood[
                np.abs(neighbourhood - baseline) <= amplitude_threshold_uv
            ]
            channel[i] = np.median(good) if good.size else baseline
    return cleaned[0] if was_1d else cleaned


@dataclass
class FilterSettings:
    """Configuration of the full preprocessing chain."""

    sampling_rate_hz: float = 125.0
    bandpass_low_hz: float = 0.5
    bandpass_high_hz: float = 45.0
    bandpass_order: int = 9
    notch_hz: float = 50.0
    notch_quality: float = 30.0
    artifact_threshold_uv: float = 60.0
    artifact_window_s: float = 0.3
    remove_artifacts: bool = True


class PreprocessingPipeline:
    """The complete Butterworth -> notch -> artifact-removal chain.

    Instances are stateless with respect to the data (each call processes a
    complete segment), which matches the paper's windowed real-time operation:
    each classification window is filtered independently.  The filter designs
    (coefficients, pad lengths, steady-state initial conditions) are cached
    per settings value, not per instance, so a label pays only for the
    filtering itself and a change to ``settings`` takes effect on the next
    call.
    """

    def __init__(self, settings: Optional[FilterSettings] = None) -> None:
        self.settings = settings or FilterSettings()

    def __call__(self, data: np.ndarray) -> np.ndarray:
        return self.process(data)

    def process(self, data: np.ndarray) -> np.ndarray:
        """Run the full preprocessing chain on ``(channels, samples)`` data."""
        cfg = self.settings
        out = bandpass_butterworth(
            data,
            sampling_rate_hz=cfg.sampling_rate_hz,
            low_hz=cfg.bandpass_low_hz,
            high_hz=cfg.bandpass_high_hz,
            order=cfg.bandpass_order,
        )
        out = notch_filter(
            out,
            sampling_rate_hz=cfg.sampling_rate_hz,
            notch_hz=cfg.notch_hz,
            quality_factor=cfg.notch_quality,
        )
        if cfg.remove_artifacts:
            out = remove_artifacts(
                out,
                sampling_rate_hz=cfg.sampling_rate_hz,
                amplitude_threshold_uv=cfg.artifact_threshold_uv,
                window_s=cfg.artifact_window_s,
            )
        return out

    def minimum_samples(self) -> int:
        """Smallest segment length the zero-phase filters accept."""
        # Each forward-backward pass needs more samples than its odd-extension
        # pad; the band-pass pad grows with the order, the notch's is fixed.
        cfg = self.settings
        bandpass = _bandpass_design(
            cfg.sampling_rate_hz, cfg.bandpass_low_hz, cfg.bandpass_high_hz, cfg.bandpass_order
        )
        notch = _notch_design(cfg.sampling_rate_hz, cfg.notch_hz, cfg.notch_quality)
        return max(bandpass.padlen, notch.padlen) + 1
