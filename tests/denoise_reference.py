"""The DB4 synthesis step and the wavelet denoise as they were before the
synthesis reused one upsampled buffer and the thresholding moved onto the
decomposition's own detail arrays. Kept verbatim as the test oracle: the
shipped functions must return identical arrays.
"""

from dataclasses import replace

import numpy as np

from edgevitals.ecg_preprocess import DB4_REC_HI, DB4_REC_LO, _TAPS, dwt_db4


def idwt_step(a, d, out_len):
    ua = np.zeros(2 * len(a) - 1)
    ua[::2] = a
    ud = np.zeros(2 * len(d) - 1)
    ud[::2] = d
    y = np.convolve(ua, DB4_REC_LO) + np.convolve(ud, DB4_REC_HI)
    return y[_TAPS - 2: len(y) - (_TAPS - 2)][:out_len]


def idwt_db4(decomposition):
    a = decomposition.approximation
    for level in range(len(decomposition.details) - 1, -1, -1):
        a = idwt_step(
            a,
            decomposition.details[level],
            decomposition.level_input_lengths[level],
        )
    return a


def threshold_details(details, threshold, threshold_mode):
    new_details = []
    for d in details:
        if threshold_mode == "soft":
            new_details.append(np.sign(d) * np.maximum(np.abs(d) - threshold, 0.0))
        else:
            new_details.append(np.where(np.abs(d) > threshold, d, 0.0))
    return tuple(new_details)


def denoise_samples(samples, levels=4, threshold_mode="soft"):
    x = np.asarray(samples, dtype=np.float64)
    dec = dwt_db4(x, levels)
    sigma = np.median(np.abs(dec.details[0])) / 0.6745
    threshold = sigma * np.sqrt(2.0 * np.log(len(x)))
    return idwt_db4(replace(dec, details=threshold_details(dec.details, threshold,
                                                           threshold_mode)))
