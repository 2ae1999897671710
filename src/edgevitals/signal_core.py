"""Shared signal representation and spectral primitives."""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestionError

__all__ = [
    "SignalKind",
    "SampledSignal",
    "Spectrum",
    "hamming_window",
    "dft_magnitude",
    "read_signal_csv",
]


class SignalKind(enum.Enum):
    ECG = "ECG"
    RESPIRATION = "RESPIRATION"


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled waveform. Samples are mV for ECG, calibrated
    volume units for respiration. Immutable; operations return new values."""

    samples: np.ndarray
    rate_hz: float
    start_time_ms: int = 0
    kind: SignalKind = SignalKind.ECG

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if not (self.rate_hz > 0):
            raise ValueError("rate_hz must be positive")
        # contiguous and read-only: sosfiltfilt's output is a negative-stride view
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def duration_seconds(self):
        return len(self.samples) / self.rate_hz

    def replace_samples(self, samples):
        return SampledSignal(samples, self.rate_hz, self.start_time_ms, self.kind)


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum; magnitudes[k] sits at k * bin_width_hz."""

    magnitudes: np.ndarray = field(repr=False)
    bin_width_hz: float


def hamming_window(n):
    """Window weights w[k] = 0.54 - 0.46 cos(2 pi k / (n-1)); [1.0] for n=1."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("window length must be a positive integer")
    if n == 1:
        return np.array([1.0])
    k = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def dft_magnitude(samples, rate_hz):
    """Magnitude spectrum up to Nyquist. No zero padding: n_fft = len(samples),
    so bin_width is exactly rate_hz / n."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("need at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    mags = np.abs(np.fft.rfft(x))
    return Spectrum(magnitudes=mags, bin_width_hz=rate_hz / len(x))


def read_signal_csv(path, rate_hz, kind):
    """Load a `timestamp_ms,value` CSV as a uniformly sampled signal.

    The declared rate is validated against the timestamps: every
    consecutive gap must stay within 1% of the nominal sample period.
    A file that does not decode or parse raises IngestionError naming it.
    """
    if not (rate_hz > 0):
        raise ValueError("rate_hz must be positive")
    try:
        # readline decodes the whole first buffer, data rows too
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
    except UnicodeDecodeError as exc:
        raise IngestionError("%s: %s" % (path, exc)) from None
    if header != "timestamp_ms,value":
        raise IngestionError("%s: expected header 'timestamp_ms,value', got %r" % (path, header))
    try:
        # given a path, not an open file, numpy parses in C, a chunk at a time
        data = np.loadtxt(path, delimiter=",", skiprows=1, encoding="utf-8", ndmin=2)
    except ValueError as exc:
        raise IngestionError("%s: %s" % (path, exc)) from None
    if data.size == 0:
        raise IngestionError("%s: no samples" % path)
    if data.shape[1] != 2:
        raise IngestionError("%s: expected 2 columns, timestamp_ms and value, got %d"
                             % (path, data.shape[1]))
    ts, values = data[:, 0], data[:, 1]
    finite_ts = np.isfinite(ts)
    if not np.all(finite_ts):
        # a NaN gap would pass the jitter bound below, since NaN compares false
        raise IngestionError("%s: non-finite timestamp in data row %d"
                             % (path, int(np.argmin(finite_ts)) + 1))
    if not np.all(np.isfinite(values)):
        raise IngestionError("%s: non-finite sample value" % path)
    period_ms = 1000.0 / rate_hz
    if len(ts) > 1:
        # in place and dropped before the samples are copied out, so the
        # check adds one record-length temporary to the peak, not three
        gaps = np.diff(ts)
        gaps -= period_ms
        worst = np.max(np.abs(gaps, out=gaps))
        del gaps
        if worst > 0.01 * period_ms:
            raise IngestionError(
                "%s: timestamp jitter %.3f ms exceeds 1%% of the %.3f ms period"
                % (path, worst, period_ms)
            )
    return SampledSignal(values, rate_hz, int(round(ts[0])), kind)
