"""Savitzky-Golay kernel and smoothing, against exact-rational and
brute-force convolution oracles."""

from fractions import Fraction

import numpy as np
import pytest

from pulsesense.dsp import savgol_kernel, smooth_padded, smooth_values
from pulsesense.dsp.savgol import SMOOTH_CHUNK
from pulsesense.errors import InvalidKernelSpec, SeriesTooShort


def exact_kernel(window, order):
    """Independent oracle: solve the least-squares normal equations in exact
    rational arithmetic (Gaussian elimination over Fractions)."""
    m = window // 2
    offsets = range(-m, m + 1)
    v = [[Fraction(z) ** j for j in range(order + 1)] for z in offsets]
    # A = V^T V, rhs = V^T (as columns); solve A X = rhs, keep row 0 of X
    size = order + 1
    a = [[sum(v[i][r] * v[i][c] for i in range(window)) for c in range(size)]
         for r in range(size)]
    rhs = [[v[i][r] for i in range(window)] for r in range(size)]
    # forward elimination with partial pivot (exact, pivot always nonzero)
    for col in range(size):
        piv = next(r for r in range(col, size) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(size):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                rhs[r] = [x - factor * y for x, y in zip(rhs[r], rhs[col])]
    return [rhs[0][i] / a[0][0] for i in range(window)]


class TestKernel:
    def test_window15_order3_matches_exact_oracle(self):
        kernel = savgol_kernel(15, 3)
        exact = exact_kernel(15, 3)
        assert exact[7] == Fraction(167, 1105)
        for got, want in zip(kernel.coefficients, exact):
            assert abs(got - float(want)) < 1e-12

    def test_coefficients_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            window = int(rng.integers(1, 12)) * 2 + 1
            order = int(rng.integers(0, window - 1))
            kernel = savgol_kernel(window, order)
            assert abs(sum(kernel.coefficients) - 1.0) < 1e-12

    def test_symmetry_exact(self):
        for window, order in ((15, 3), (21, 4), (7, 2), (9, 5)):
            c = savgol_kernel(window, order).coefficients
            assert all(c[i] == c[window - 1 - i] for i in range(window))

    def test_window5_order1_is_moving_average(self):
        c = savgol_kernel(5, 1).coefficients
        np.testing.assert_allclose(c, 0.2, atol=1e-15)

    def test_invalid_specs(self):
        with pytest.raises(InvalidKernelSpec):
            savgol_kernel(14, 3)
        with pytest.raises(InvalidKernelSpec):
            savgol_kernel(5, 5)
        with pytest.raises(InvalidKernelSpec):
            savgol_kernel(5, -1)


class TestSmoothing:
    def test_constant_unchanged(self):
        kernel = savgol_kernel(15, 3)
        col = np.full((60, 2), 7.25)
        np.testing.assert_allclose(smooth_values(kernel, col), 7.25, atol=1e-12)

    def test_cubic_preserved_on_interior(self):
        """An order-3 kernel reproduces cubics exactly (interior samples)."""
        kernel = savgol_kernel(15, 3)
        t = np.linspace(-1, 1, 200)
        cubic = 2.0 * t ** 3 - 0.5 * t ** 2 + t + 3.0
        out = smooth_values(kernel, cubic[:, None])[:, 0]
        np.testing.assert_allclose(out[7:-7], cubic[7:-7], atol=1e-9)

    def test_polynomials_up_to_order_preserved(self):
        rng = np.random.default_rng(2)
        for window, order in ((9, 2), (15, 3), (11, 4)):
            kernel = savgol_kernel(window, order)
            m = window // 2
            t = np.linspace(-1, 1, 120)
            coeffs = rng.uniform(-2, 2, order + 1)
            poly = np.polyval(coeffs, t)
            out = smooth_values(kernel, poly[:, None])[:, 0]
            np.testing.assert_allclose(out[m:-m], poly[m:-m], atol=1e-9)

    def test_matches_direct_convolution_oracle(self):
        """Brute-force oracle: per-sample dot product over a mirror-padded
        copy, written independently of the implementation."""
        kernel = savgol_kernel(15, 3)
        rng = np.random.default_rng(11)
        col = rng.standard_normal(80)
        m = 7
        padded = np.concatenate([col[m:0:-1], col, col[-2:-m - 2:-1]])
        expected = np.array([
            sum(kernel.coefficients[k] * padded[i + k] for k in range(15))
            for i in range(80)
        ])
        got = smooth_values(kernel, col[:, None])[:, 0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_too_short_series(self):
        kernel = savgol_kernel(15, 3)
        with pytest.raises(SeriesTooShort):
            smooth_values(kernel, np.zeros((14, 1)))

    def test_smooth_padded_per_row_bitwise_matches_block(self):
        kernel = savgol_kernel(15, 3)
        rng = np.random.default_rng(4)
        values = rng.standard_normal((50, 3))
        block = smooth_values(kernel, values)
        m = kernel.half_width
        padded = np.pad(values, ((m, m), (0, 0)), mode="reflect")
        for i in range(50):
            row = smooth_padded(kernel, padded[i:i + 15])
            assert row.shape == (1, 3)
            assert np.array_equal(row[0], block[i])


def per_coefficient_loop(kernel, padded):
    """Reference accumulation: c0 times all rows, then each further
    coefficient's products added over all rows, in coefficient order."""
    t_len = padded.shape[0] - kernel.window + 1
    c = kernel.coefficients
    out = c[0] * padded[0:t_len]
    for k in range(1, kernel.window):
        out += c[k] * padded[k:k + t_len]
    return out


class TestSmoothPaddedBits:
    @pytest.mark.parametrize("window,order", [(15, 3), (5, 1), (1, 0)])
    def test_one_subcarrier(self, window, order):
        """At S=1 a reduce over the coefficients would sum pairwise."""
        kernel = savgol_kernel(window, order)
        rng = np.random.default_rng(40 + window)
        for t_len in (1, 2, window, 3 * SMOOTH_CHUNK + 5):
            padded = rng.standard_normal((t_len + window - 1, 1))
            got = smooth_padded(kernel, padded)
            assert got.shape == (t_len, 1)
            assert got.tobytes() == per_coefficient_loop(kernel, padded).tobytes()

    @pytest.mark.parametrize("n_sub", [3, 64, 234])
    def test_across_chunk_boundaries(self, n_sub):
        kernel = savgol_kernel(15, 3)
        rows = max(1, SMOOTH_CHUNK // n_sub)  # output rows per chunk
        rng = np.random.default_rng(n_sub)
        for t_len in (rows - 1, rows, rows + 1, 2 * rows + 7):
            padded = rng.standard_normal((t_len + 14, n_sub)) * 100
            expected = per_coefficient_loop(kernel, padded).tobytes()
            assert smooth_padded(kernel, padded).tobytes() == expected
            assert smooth_padded(kernel, np.asfortranarray(padded)).tobytes() == expected

    @pytest.mark.parametrize("window,order", [(15, 3), (5, 1)])
    def test_rows_holding_signed_zeros(self, window, order):
        """Products of -0.0 and sums of zeros keep their signs as in the
        loop; with all-positive coefficients (5, 1) an all -0.0 column stays
        -0.0."""
        kernel = savgol_kernel(window, order)
        rng = np.random.default_rng(7)
        padded = rng.standard_normal((200, 4))
        padded[rng.random((200, 4)) < 0.3] = 0.0
        padded[rng.random((200, 4)) < 0.3] = -0.0
        padded[:, 2] = -0.0
        padded[:, 3] = 0.0
        expected = per_coefficient_loop(kernel, padded)
        if order == 1:
            assert np.all(np.signbit(expected[:, 2]))
        assert smooth_padded(kernel, padded).tobytes() == expected.tobytes()
        for i in range(0, 200 - window + 1, 17):  # one row at a time, as streaming calls it
            row = smooth_padded(kernel, padded[i:i + window])
            assert row.tobytes() == expected[i:i + 1].tobytes()
