"""Butterworth design, zero-phase filtering and peak picking on scipy's
compiled kernels, without importing scipy's signal package.

Each function gives the bits that scipy's function of the same name gives
for the arguments the pipeline uses: the numpy around the kernels repeats
scipy's arithmetic step for step, and the kernels are scipy's own.
Importing the signal package costs over a second of CPU and about 78 MB
that stay resident; loading the two kernels costs milliseconds.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

__all__ = ["butter_sos", "sosfiltfilt", "find_peaks"]


def _kernel_module(name):
    """The compiled extension `name` of scipy's signal package, loaded from
    its file in that package's directory without importing the package.
    Without the file, the package's own import."""
    full = "scipy.signal." + name
    if full in sys.modules:
        return sys.modules[full]
    where = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin), "signal")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(where, name + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(full, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(full, path, loader=loader))
            loader.exec_module(module)
            sys.modules[full] = module
            return module
    return importlib.import_module(full)


_sosfilt_kernel = _kernel_module("_sosfilt")._sosfilt
_peak_utils = _kernel_module("_peak_finding_utils")


def _cplxreal(z):
    """scipy's split of roots into the upper member of each conjugate pair
    (the mean of the two) and the real roots, both sorted by real part."""
    z = z[np.lexsort((abs(z.imag), z.real))]
    real = abs(z.imag) <= 100 * np.finfo(np.float64).eps * abs(z)
    zr = z[real].real
    if len(zr) == len(z):
        return np.array([]), zr
    z = z[~real]
    return (z[z.imag > 0] + z[z.imag < 0].conj()) / 2, zr


def _zpk2sos(z, p, k):
    """scipy's "nearest" pairing for a digital Butterworth filter: real
    zeros, conjugate pole pairs and at most one real pole. The pole nearest
    the unit circle goes last, with the zeros nearest it."""
    if len(p) % 2:
        p = np.concatenate((p, [0.0]))
        z = np.concatenate((z, [0.0]))
    z = np.concatenate(_cplxreal(z))
    p = np.concatenate(_cplxreal(p))
    sos = np.zeros((len(z) // 2, 6))
    for si in range(len(sos) - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1 = p[i]
        p = np.delete(p, i)
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(p))
            i = real[np.argmin(np.abs(1 - np.abs(p[real])))]
            p2 = p[i]
            p = np.delete(p, i)
        else:
            p2 = p1.conj()
        zeros = []
        for _ in range(2):
            i = np.argsort(np.abs(z - p1))[0]
            zeros.append(z[i])
            z = np.delete(z, i)
        sos[si, :3] = np.poly(zeros)  # real zeros, so real coefficients
        sos[si, 3:] = np.poly([p1, p2])  # a conjugate or a real pair: real
    sos[0, :3] *= k
    return sos


def butter_sos(order, cutoff_hz, btype, fs):
    """scipy's `butter(order, cutoff_hz, btype, fs=fs, output="sos")` for a
    "lowpass" or "highpass" filter."""
    if btype not in ("lowpass", "highpass"):
        raise ValueError("btype must be 'lowpass' or 'highpass'")
    if order < 1:
        raise ValueError("order must be >= 1")
    fs = float(fs)
    wn = np.asarray(cutoff_hz, dtype=np.float64) / (fs / 2)
    if not wn > 0:
        raise ValueError("filter critical frequencies must be greater than 0")
    if not wn < 1:
        raise ValueError("Digital filter critical frequencies must be 0 < Wn < fs/2 "
                         "(fs=%r -> fs/2=%r)" % (fs, fs / 2))
    wo = float(2 * 2.0 * np.tan(np.pi * wn / 2.0))  # pre-warped, as at fs = 2
    z = np.array([])  # the analog prototype has no zeros
    p = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=np.float64) / (2 * order))
    if btype == "lowpass":
        p, k = wo * p, wo ** order
    else:
        z, p, k = np.zeros(order), wo / p, np.real(np.prod(-z) / np.prod(-p))
    # bilinear transform at fs = 2; zeros at infinity map to -1
    k = k * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))
    z = np.concatenate(((4.0 + z) / (4.0 - z), -np.ones(len(p) - len(z))))
    p = (4.0 + p) / (4.0 - p)
    return _zpk2sos(z, p, k)


def _sosfilt_zi(sos):
    """Per-section state of a filter at rest under a unit step, as
    sosfilt_zi: each section's lfilter_zi, scaled by the gain before it."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for section, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        companion = np.array([-a[1:], [1.0, 0.0]])  # a[0] is 1
        zi[section] = scale * np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def _filter_in_place(sos, x, zi):
    """One pass of scipy's kernel over x, from zi scaled by x's first sample."""
    _sosfilt_kernel(sos, x[np.newaxis], (zi * x[0])[np.newaxis])


def sosfiltfilt(sos, x):
    """scipy's `sosfiltfilt(sos, x)` for a 1-D x: forward and backward
    passes over an odd extension of 3 * ntaps samples at each end, each
    pass started from the steady state for its first sample."""
    sos = np.ascontiguousarray(sos, dtype=np.float64)
    if not (sos[:, 3] == 1).all():
        raise ValueError("sos[:, 3] should be all ones")
    x = np.asarray(x, dtype=np.float64)
    ntaps = 2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    edge = 3 * ntaps
    if len(x) <= edge:
        raise ValueError("The length of the input vector x must be greater than padlen, "
                         "which is %d." % edge)
    ext = np.concatenate((2 * x[:1] - x[edge:0:-1], x, 2 * x[-1:] - x[-2:-(edge + 2):-1]))
    zi = _sosfilt_zi(sos)
    _filter_in_place(sos, ext, zi)
    y = ext[::-1].copy()
    _filter_in_place(sos, y, zi)
    return y[::-1][edge:-edge]


def find_peaks(x, distance):
    """scipy's `find_peaks(x, distance=distance)[0]`: local maxima (a
    flat top at its middle sample), then, from the highest down, each peak
    that lies at least `distance` samples from every peak already kept."""
    x = np.asarray(x, dtype=np.float64, order="C")
    if distance < 1:
        raise ValueError("`distance` must be greater or equal to 1")
    peaks, _, _ = _peak_utils._local_maxima_1d(x)
    return peaks[_peak_utils._select_by_peak_distance(peaks, x[peaks], float(distance))]
