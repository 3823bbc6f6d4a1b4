"""fits_one_array: the one rule every array sized by outside input asks."""

import math

import numpy as np
import pytest

from pulsesense.errors import fits_one_array


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_largest_count_fits_and_one_more_does_not(dtype):
    """At the boundary, in integer arithmetic: the largest count accepted is
    the largest numpy itself will shape, checked on a broadcast view that
    allocates nothing, and one more is refused by both."""
    itemsize = np.dtype(dtype).itemsize
    top = int(np.iinfo(np.intp).max) // itemsize
    assert fits_one_array(top, itemsize)
    assert np.broadcast_to(np.zeros((), dtype), (top,)).size == top
    assert not fits_one_array(top + 1, itemsize)
    with pytest.raises(ValueError, match="array is too big"):
        np.broadcast_to(np.zeros((), dtype), (top + 1,))


@pytest.mark.parametrize("count", [math.inf, math.nan, 1e300, 2.0 ** 63, 2 ** 200])
def test_counts_past_every_array_are_refused(count):
    assert not fits_one_array(count, 8)


def test_items_larger_than_every_array_are_refused():
    """A row of 10**400 subcarriers is itself past the range, and no float
    count has to be formed from it."""
    assert not fits_one_array(1, 16 * 10 ** 400)
    assert not fits_one_array(0.5, 16 * 10 ** 400)


def test_small_counts_fit():
    assert fits_one_array(1, 16) and fits_one_array(2.5, 8) and fits_one_array(0, 8)
