"""`edgevitals.filters` against `scipy.signal` itself: the same bits for
every Butterworth design, zero-phase filtering and peak set drawn, the same
error for a record too short to pad, and the very kernels the package
imports."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.signal
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import edgevitals
from edgevitals import filters


def assert_same_bits(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
    assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))


def outcome(f, *args):
    """f(*args) as its dtype, shape and bits, or the error it raised. A
    cutoff within a few ulps of 0 or of fs/2 puts a pole on the unit
    circle or fails the design, and both sides must fail alike."""
    try:
        out = np.asarray(f(*args))
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.view(np.uint64).tobytes()


@st.composite
def designs(draw):
    """(order, cutoff_hz, btype, fs), the cutoff strictly inside (0, fs/2)."""
    fs = draw(st.floats(100.0, 1000.0))
    cutoff = draw(st.floats(0.0, fs / 2, exclude_min=True, exclude_max=True))
    return draw(st.integers(1, 6)), cutoff, draw(st.sampled_from(["lowpass", "highpass"])), fs


def scipy_sos(order, cutoff, btype, fs):
    return scipy.signal.butter(order, cutoff, btype=btype, fs=fs, output="sos")


def padlen(sos):
    ntaps = 2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    return 3 * ntaps


def record(seed, n):
    """A wandering baseline under a sinusoid and white noise."""
    rng = np.random.default_rng(seed)
    return (np.cumsum(rng.standard_normal(n)) * 0.05 + np.sin(np.arange(n) * 0.07)
            + rng.standard_normal(n) * 0.1)


@settings(max_examples=300, deadline=None)
@given(designs())
def test_butter_sos_equals_scipy_butter(design):
    assert outcome(filters.butter_sos, *design) == outcome(scipy_sos, *design)


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("btype", ["lowpass", "highpass"])
@pytest.mark.parametrize("fs,cutoff", [(250.0, 0.5), (250.0, 5.0), (250.0, 15.0),
                                       (100.0, 49.999), (1000.0, 0.05), (360.0, 40.0)])
def test_butter_sos_equals_scipy_butter_on_the_pipeline_grid(order, btype, fs, cutoff):
    assert_same_bits(filters.butter_sos(order, cutoff, btype, fs),
                     scipy_sos(order, cutoff, btype, fs))


@settings(max_examples=150, deadline=None)
@given(designs(), st.integers(0, 2 ** 32 - 1), st.data())
def test_sosfiltfilt_equals_scipy_sosfiltfilt(design, seed, data):
    try:
        sos = scipy_sos(*design)
    except ValueError:
        assume(False)  # no filter to run; the design test compares the errors
    n = data.draw(st.one_of(st.integers(padlen(sos) + 1, padlen(sos) + 50),
                            st.integers(padlen(sos) + 1, 100_000)))
    x = record(seed, n)
    assert outcome(filters.sosfiltfilt, sos, x) == outcome(scipy.signal.sosfiltfilt, sos, x)


@pytest.mark.parametrize("design", [(2, 0.5, "highpass", 250.0), (3, 15.0, "lowpass", 250.0),
                                    (1, 5.0, "highpass", 100.0)])
def test_a_record_no_longer_than_the_padding_fails_with_scipys_message(design):
    sos = scipy_sos(*design)
    x = record(0, padlen(sos))
    with pytest.raises(ValueError) as theirs:
        scipy.signal.sosfiltfilt(sos, x)
    with pytest.raises(ValueError) as ours:
        filters.sosfiltfilt(sos, x)
    assert str(ours.value) == str(theirs.value)
    assert_same_bits(filters.sosfiltfilt(sos, record(0, padlen(sos) + 1)),
                     scipy.signal.sosfiltfilt(sos, record(0, padlen(sos) + 1)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=400), st.integers(1, 60))
def test_find_peaks_equals_scipy_on_flat_tops_and_ties(values, distance):
    x = np.array(values, dtype=np.float64)
    assert_same_bits(filters.find_peaks(x, distance),
                     scipy.signal.find_peaks(x, distance=distance)[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 100_000), st.sampled_from([1, 2, 50, 200]))
def test_find_peaks_equals_scipy_on_rounded_noise(seed, n, distance):
    x = np.round(np.random.default_rng(seed).standard_normal(n) * 3)
    assert_same_bits(filters.find_peaks(x, distance),
                     scipy.signal.find_peaks(x, distance=distance)[0])


def test_the_kernels_are_scipy_signals_own():
    import scipy.signal._peak_finding_utils as peak_finding_utils
    import scipy.signal._sosfilt as sosfilt

    assert filters._sosfilt_kernel is sosfilt._sosfilt
    assert filters._peak_utils is peak_finding_utils


def test_a_fresh_load_takes_the_files_the_package_imports():
    # in a new interpreter the kernels load from their files before
    # scipy.signal is imported; the package's own finder must name the
    # same files, and the package must then use the functions loaded
    code = (
        "import importlib.machinery, os, sys\n"
        "from edgevitals import filters\n"
        "assert 'scipy.signal' not in sys.modules\n"
        "import scipy.signal, scipy.signal._signaltools as tools\n"
        "for name in ('_sosfilt', '_peak_finding_utils'):\n"
        "    found = importlib.machinery.PathFinder.find_spec(name, scipy.signal.__path__)\n"
        "    loaded = sys.modules['scipy.signal.' + name].__file__\n"
        "    assert os.path.samefile(found.origin, loaded), (found.origin, loaded)\n"
        "assert tools._sosfilt is filters._sosfilt_kernel\n"
        "assert scipy.signal._peak_finding._local_maxima_1d is "
        "filters._peak_utils._local_maxima_1d\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(edgevitals.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
