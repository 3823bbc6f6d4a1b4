"""Savitzky-Golay smoothing: local least-squares polynomial regression.

The kernel is the top row of the least-squares projection
``c = e0^T (V^T V)^{-1} V^T`` where V is the (2m+1) x (order+1) Vandermonde
matrix over the offsets -m..m. Applying it as a moving dot product fits a
polynomial of the given order around every sample and keeps the fitted
centre value, so polynomials up to that order pass through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from ..errors import InvalidKernelSpec, SeriesTooShort

# values per coefficient in one chunk of smooth_padded, which keeps its
# (2m+1, rows, S) products in cache
SMOOTH_CHUNK = 4096


@dataclass(frozen=True)
class SavGolKernel:
    coefficients: tuple
    window: int
    poly_order: int

    @property
    def half_width(self) -> int:
        return self.window // 2

    @cached_property
    def weights(self) -> np.ndarray:
        """The coefficients as a read-only float64 array, made once."""
        weights = np.array(self.coefficients, dtype=np.float64)
        weights.flags.writeable = False
        return weights


def kernel_spec(window: int, poly_order: int) -> Tuple[int, int]:
    """(window, poly_order) as integers once checked: an odd positive window
    and 0 <= poly_order < window, else InvalidKernelSpec. This is the check
    of savgol_kernel without the design, whose cost grows with the window."""
    window = int(window)
    poly_order = int(poly_order)
    if window < 1 or window % 2 == 0:
        raise InvalidKernelSpec(f"window must be odd and positive, got {window}")
    if not 0 <= poly_order < window:
        raise InvalidKernelSpec(
            f"poly_order must satisfy 0 <= order < window, got {poly_order}")
    return window, poly_order


def savgol_kernel(window: int, poly_order: int) -> SavGolKernel:
    """Compute smoothing coefficients for an odd window and polynomial order."""
    window, poly_order = kernel_spec(window, poly_order)
    m = window // 2
    # offsets scaled to [-1, 1]: the fitted centre value is invariant to the
    # basis scale, and the scaled Vandermonde stays well conditioned even for
    # near-interpolating kernels
    offsets = np.arange(-m, m + 1, dtype=np.float64) / max(m, 1)
    vand = offsets[:, None] ** np.arange(poly_order + 1)[None, :]
    # c = first row of (V^T V)^{-1} V^T, computed as the first row of pinv(V)
    coeffs = np.linalg.pinv(vand)[0]
    # the exact kernel is symmetric; fold out the residual solver asymmetry
    coeffs = 0.5 * (coeffs + coeffs[::-1])
    return SavGolKernel(tuple(float(c) for c in coeffs), window, poly_order)


def smooth_values(kernel: SavGolKernel, values: np.ndarray) -> np.ndarray:
    """Smooth each column of a (T, S) matrix; boundaries use mirror padding."""
    t_len = values.shape[0]
    if t_len < kernel.window:
        raise SeriesTooShort(
            f"series length {t_len} shorter than kernel window {kernel.window}")
    m = kernel.half_width  # reflect the time axis, the edge not repeated
    padded = np.pad(np.asarray(values, dtype=np.float64), ((m, m), (0, 0)), mode="reflect")
    return smooth_padded(kernel, padded)


def smooth_padded(kernel: SavGolKernel, padded: np.ndarray) -> np.ndarray:
    """The T smoothed rows of an already padded (T + 2m, S) matrix.

    This is the one Savitzky-Golay accumulation, for smooth_values and for
    FrontEnd, which calls it on the rows of the windows due, from a stride
    of rows to a padded buffer's worth. The output goes in chunks of
    SMOOTH_CHUNK // S rows. One multiply over a strided (2m+1, rows, S) view
    of ``padded`` forms all of a chunk's products, which are then added in
    coefficient order, c0 p0 + c1 p1 + ... + c2m p2m, so each row gets the
    same bits however the rows are split between calls and chunks. The sum
    is a loop of in-place adds, not a reduce: numpy reduces a single column
    pairwise, in another order.
    """
    padded = np.ascontiguousarray(padded, dtype=np.float64)
    window = kernel.window
    t_len = padded.shape[0] - window + 1
    # shifted[k] is padded[k:k + t_len], a view
    shifted = np.ndarray((window, t_len) + padded.shape[1:], np.float64, padded,
                         strides=padded.strides[:1] + padded.strides)
    weights = kernel.weights.reshape((window,) + (1,) * padded.ndim)
    out = np.empty(shifted.shape[1:])
    rows = max(1, SMOOTH_CHUNK // max(out[:1].size, 1))  # output rows per chunk
    for lo in range(0, t_len, rows):
        products = weights * shifted[:, lo:lo + rows]
        acc = products[0]
        for term in products[1:]:
            acc += term
        out[lo:lo + rows] = acc
    return out
