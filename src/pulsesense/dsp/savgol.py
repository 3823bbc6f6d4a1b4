"""Savitzky-Golay smoothing: local least-squares polynomial regression.

The kernel is the top row of the least-squares projection
``c = e0^T (V^T V)^{-1} V^T`` where V is the (2m+1) x (order+1) Vandermonde
matrix over the offsets -m..m. Applying it as a moving dot product fits a
polynomial of the given order around every sample and keeps the fitted
centre value, so polynomials up to that order pass through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidKernelSpec, SeriesTooShort


@dataclass(frozen=True)
class SavGolKernel:
    coefficients: tuple
    window: int
    poly_order: int

    @property
    def half_width(self) -> int:
        return self.window // 2


def savgol_kernel(window: int, poly_order: int) -> SavGolKernel:
    """Compute smoothing coefficients for an odd window and polynomial order."""
    window = int(window)
    poly_order = int(poly_order)
    if window < 1 or window % 2 == 0:
        raise InvalidKernelSpec(f"window must be odd and positive, got {window}")
    if not 0 <= poly_order < window:
        raise InvalidKernelSpec(
            f"poly_order must satisfy 0 <= order < window, got {poly_order}")
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


def mirror_pad(values: np.ndarray, m: int) -> np.ndarray:
    """Reflect-pad the time axis by m samples on each side (edge not repeated)."""
    return np.pad(values, ((m, m),) + ((0, 0),) * (values.ndim - 1), mode="reflect")


def smooth_values(kernel: SavGolKernel, values: np.ndarray) -> np.ndarray:
    """Smooth each column of a (T, S) matrix; boundaries use mirror padding."""
    t_len = values.shape[0]
    if t_len < kernel.window:
        raise SeriesTooShort(
            f"series length {t_len} shorter than kernel window {kernel.window}")
    padded = mirror_pad(np.asarray(values, dtype=np.float64), kernel.half_width)
    return smooth_padded(kernel, padded)


def smooth_padded(kernel: SavGolKernel, padded: np.ndarray) -> np.ndarray:
    """The T smoothed rows of an already padded (T + 2m, S) matrix.

    This is the one Savitzky-Golay accumulation. It runs coefficient by
    coefficient in a fixed order, so the streaming predictor, which calls it
    on its 2m+1 buffered rows, reproduces smooth_values bit for bit.
    """
    t_len = padded.shape[0] - kernel.window + 1
    c = kernel.coefficients
    out = c[0] * padded[0:t_len]
    for k in range(1, kernel.window):
        out += c[k] * padded[k:k + t_len]
    return out
