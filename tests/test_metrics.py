"""Regression and classification metrics, including the kappa worked example."""

import numpy as np
import pytest

from pulsesense.errors import (
    EmptyInput,
    LengthMismatch,
    ValueOutOfRange,
    ZeroTargetForMAPE,
)
from pulsesense.metrics import classification_metrics, regression_metrics


class TestRegression:
    def test_single_sample(self):
        rep = regression_metrics([100.0], [99.0], threshold=1.5)
        assert rep.mae == 1.0
        assert rep.mape_percent == pytest.approx(1.0)
        assert rep.frac_within_threshold == 1.0
        assert rep.mape_complement == pytest.approx(99.0)

    def test_threshold_is_inclusive(self):
        rep = regression_metrics([10.0, 10.0], [9.0, 8.0], threshold=1.5)
        assert rep.frac_within_threshold == 0.5
        rep = regression_metrics([10.0], [8.5], threshold=1.5)
        assert rep.frac_within_threshold == 1.0  # |err| == threshold counts

    def test_perfect_predictions(self):
        rep = regression_metrics([72.0, 80.0], [72.0, 80.0], threshold=1.5)
        assert rep.mae == 0.0 and rep.mape_percent == 0.0
        assert rep.frac_within_threshold == 1.0

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            regression_metrics([1.0, 2.0], [1.0], threshold=1.5)
        with pytest.raises(ZeroTargetForMAPE):
            regression_metrics([0.0], [1.0], threshold=1.5)
        with pytest.raises(EmptyInput):
            regression_metrics([], [], threshold=1.5)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(60, 100, 50)
        yh = y + rng.normal(0, 2, 50)
        a = regression_metrics(y, yh, 1.5)
        perm = rng.permutation(50)
        b = regression_metrics(y[perm], yh[perm], 1.5)
        assert a.mae == pytest.approx(b.mae)
        assert a.mape_percent == pytest.approx(b.mape_percent)
        assert a.frac_within_threshold == b.frac_within_threshold

    def test_scale_equivariance(self):
        """Scaling y and y-hat by c scales MAE by c and fixes MAPE; the
        threshold must scale alongside to keep the fraction."""
        rng = np.random.default_rng(1)
        y = rng.uniform(60, 100, 40)
        yh = y + rng.normal(0, 1, 40)
        a = regression_metrics(y, yh, 1.5)
        c = 3.0
        b = regression_metrics(c * y, c * yh, c * 1.5)
        assert b.mae == pytest.approx(c * a.mae)
        assert b.mape_percent == pytest.approx(a.mape_percent)
        assert b.frac_within_threshold == pytest.approx(a.frac_within_threshold)

    def test_within_fraction_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(60, 100, 60)
        yh = y + rng.normal(0, 2, 60)
        fracs = [regression_metrics(y, yh, th).frac_within_threshold
                 for th in (0.5, 1.0, 1.5, 2.0, 4.0)]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))


class TestClassification:
    def test_perfect(self):
        rep = classification_metrics([0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0])
        assert rep.accuracy == 1.0
        assert rep.sensitivity == 1.0
        assert rep.specificity == 1.0
        assert rep.kappa == 1.0
        assert not rep.conventions

    def test_worked_confusion_example(self):
        """tp=40, fn=5, fp=5, tn=50: p_o=0.9, p_e=0.505, kappa ~ 0.7980."""
        probs = np.concatenate([np.full(40, 0.9), np.full(5, 0.1),
                                np.full(5, 0.9), np.full(50, 0.1)])
        labels = np.concatenate([np.ones(45), np.zeros(55)])
        rep = classification_metrics(probs, labels)
        assert (rep.tp, rep.fn, rep.fp, rep.tn) == (40, 5, 5, 50)
        assert rep.accuracy == pytest.approx(0.90)
        assert rep.sensitivity == pytest.approx(8 / 9, abs=1e-10)
        assert rep.specificity == pytest.approx(10 / 11, abs=1e-10)
        assert rep.kappa == pytest.approx((0.9 - 0.505) / 0.495, abs=1e-4)
        assert rep.kappa == pytest.approx(0.7980, abs=1e-4)

    def test_degenerate_all_negative(self):
        rep = classification_metrics([0.1, 0.2, 0.3], [0, 0, 0])
        assert rep.accuracy == 1.0
        assert rep.specificity == 1.0
        assert rep.sensitivity == 1.0  # convention: no positives to miss
        assert rep.kappa == 1.0        # convention: p_e == 1 and p_o == 1
        assert "sensitivity_no_positives" in rep.conventions
        assert "kappa_degenerate_marginals" in rep.conventions

    def test_decision_threshold_is_inclusive_ge(self):
        rep = classification_metrics([0.5], [1])
        assert rep.tp == 1

    def test_kappa_zero_for_marginal_independence(self):
        """A classifier that ignores the label has kappa 0: counts chosen so
        the confusion factorizes (tp*tn == fp*fn)."""
        probs = np.concatenate([np.full(20, 0.9), np.full(20, 0.1),
                                np.full(20, 0.9), np.full(20, 0.1)])
        labels = np.concatenate([np.ones(40), np.zeros(40)])
        rep = classification_metrics(probs, labels)
        assert rep.kappa == pytest.approx(0.0, abs=1e-12)

    def test_kappa_within_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            probs = rng.random(n)
            labels = rng.integers(0, 2, n).astype(float)
            rep = classification_metrics(probs, labels)
            assert -1.0 <= rep.kappa <= 1.0
            assert 0.0 <= rep.accuracy <= 1.0

    def test_errors(self):
        with pytest.raises(EmptyInput):
            classification_metrics([], [])
        with pytest.raises(ValueOutOfRange):
            classification_metrics([0.5], [0.5])
        with pytest.raises(LengthMismatch):
            classification_metrics([0.5, 0.6], [1])


class TestSerialization:
    def test_json_keys_regression(self):
        rep = regression_metrics([100.0], [99.0], threshold=1.5)
        doc = rep.to_json_dict()
        assert doc["threshold"] == 1.5 and doc["frac_within_threshold"] == 1.0
        assert "mae" in doc and "mape_percent" in doc and "mape_complement" in doc

    def test_json_keys_breathing_threshold(self):
        """The key names no unit: the threshold next to it says which."""
        doc = regression_metrics([15.0], [14.9], threshold=0.75).to_json_dict()
        assert doc["threshold"] == 0.75 and doc["frac_within_threshold"] == 1.0
        assert not [key for key in doc if "bpm" in key]
