import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from telekf import metrics, sysid
from telekf.errors import DataError, NumericalError

from conftest import random_stable_system


class TestRmse:
    def test_zero_error(self, rng):
        x = rng.standard_normal(100)
        assert metrics.rmse(x, x) == 0.0

    def test_unit_error(self):
        assert metrics.rmse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_against_reverse_order_summation(self, rng):
        e = rng.standard_normal(501)
        t = rng.standard_normal(501)
        # independent oracle: accumulate squared errors in reverse order
        acc = 0.0
        for i in range(500, -1, -1):
            acc += (e[i] - t[i]) ** 2
        assert abs(metrics.rmse(e, t) - np.sqrt(acc / 501)) < 1e-12

    def test_scale_equivariance(self, rng):
        e = rng.standard_normal(64)
        t = rng.standard_normal(64)
        for a in (-3.0, 0.5, 7.0):
            assert abs(metrics.rmse(a * e, a * t)
                       - abs(a) * metrics.rmse(e, t)) < 1e-12

    def test_permutation_invariance(self, rng):
        e = rng.standard_normal(64)
        t = rng.standard_normal(64)
        perm = rng.permutation(64)
        assert metrics.rmse(e[perm], t[perm]) == pytest.approx(
            metrics.rmse(e, t), abs=1e-14)

    def test_errors(self):
        with pytest.raises(DataError):
            metrics.rmse([1.0], [1.0, 2.0])
        with pytest.raises(DataError):
            metrics.rmse([], [])


class TestAccuracy:
    def test_perfect(self, rng):
        x = rng.uniform(0, 1, 50)
        assert metrics.accuracy_pct(x, x) == 100.0

    def test_nrmse_range_formula(self):
        truth = np.linspace(0, 1, 200)
        est = truth + 0.05  # RMSE 0.05, range 1
        assert metrics.accuracy_pct(est, truth) == pytest.approx(95.0)

    def test_one_minus_rmse(self):
        truth = np.zeros(10)
        est = np.full(10, 0.25)
        assert metrics.accuracy_pct(est, truth, "one_minus_rmse") == \
            pytest.approx(75.0)

    def test_zero_range_rejected(self):
        with pytest.raises(DataError, match="range"):
            metrics.accuracy_pct([1.0, 1.0], [2.0, 2.0])

    def test_clipped_to_bounds(self):
        truth = np.linspace(0, 0.1, 50)
        est = truth + 50.0
        assert metrics.accuracy_pct(est, truth) == 0.0

    def test_affine_invariance_of_nrmse_range(self, rng):
        e = rng.uniform(0, 1, 80)
        t = rng.uniform(0, 1, 80)
        base = metrics.accuracy_pct(e, t)
        for a, b in ((2.0, -1.0), (0.1, 5.0)):
            assert metrics.accuracy_pct(a * e + b, a * t + b) == \
                pytest.approx(base, abs=1e-9)

    def test_unknown_metric(self):
        with pytest.raises(DataError):
            metrics.accuracy_pct([0.0], [1.0], "bogus")


class TestWhiteness:
    def test_iid_sequence_inside_band(self):
        hits = 0
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal(10_000)
            stat, band = metrics.innovation_whiteness(x, 10)
            if stat[0] < 3 / np.sqrt(10_000):
                hits += 1
        assert hits >= 19

    def test_constant_sequence_errors(self):
        with pytest.raises(DataError, match="zero-variance"):
            metrics.innovation_whiteness(np.full(100, 2.5), 10)

    def test_alternating_sequence(self):
        x = np.tile([1.0, -1.0], 500)
        acf = metrics.autocorrelations(x, 1)
        # the biased estimator divides by N, so lag 1 gives -(N-1)/N
        assert acf[0, 0] == pytest.approx(-0.999, abs=1e-6)

    def test_band_value(self):
        x = np.random.default_rng(0).standard_normal(400)
        _, band = metrics.innovation_whiteness(x, 5)
        assert band == pytest.approx(1.96 / 20)

    def test_insufficient_samples(self):
        with pytest.raises(DataError):
            metrics.innovation_whiteness(np.zeros(5), 10)

    @pytest.mark.parametrize("max_lag", [0, -1])
    def test_lag_below_one_rejected(self, max_lag):
        x = np.random.default_rng(0).standard_normal((50, 2))
        with pytest.raises(DataError, match="max_lag"):
            metrics.autocorrelations(x, max_lag)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_autocorrelations_match_per_lag_sums(self, rng, channels):
        x = rng.standard_normal((1230, channels)) + rng.uniform(-2, 2, channels)
        c = x - x.mean(axis=0)
        ref = np.array([[np.sum(c[lag:, j] * c[:-lag, j]) / np.sum(c[:, j] ** 2)
                         for j in range(channels)] for lag in range(1, 11)])
        got = metrics.autocorrelations(x, 10)
        assert got.shape == (10, channels)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(metrics.autocorrelations(x[:, 0], 10),
                                      metrics.autocorrelations(x[:, :1], 10))


class TestFitReport:
    def test_self_validation_noise_free(self, rng):
        model = random_stable_system(rng, 2, 2, 2)
        u = rng.standard_normal((500, 2))
        y = sysid.simulate(model, u)
        predicted, report = metrics.fit_report(model, u, y)
        np.testing.assert_array_equal(predicted, y)
        assert np.all(report.accuracy_pct > 99.9)
        assert report.metric_def == "nrmse_range"

    def test_degenerate_model_matches_zero_predictor(self, rng):
        model = sysid.StateSpaceModel(A=0.5 * np.eye(2), B=np.zeros((2, 1)),
                                      C=np.zeros((1, 2)), D=np.zeros((1, 1)))
        u = rng.standard_normal((300, 1))
        y = rng.uniform(0, 1, (300, 1))
        _, report = metrics.fit_report(model, u, y)
        zero_acc = metrics.accuracy_pct(np.zeros(300), y.ravel())
        assert report.accuracy_pct[0] == pytest.approx(zero_acc)

    def test_heldout_within_two_points(self, rng):
        true = random_stable_system(rng, 2, 1, 1)
        u_id = rng.standard_normal((2000, 1))
        y_id = sysid.simulate(true, u_id)
        model = sysid.realize(sysid.moesp_decompose(u_id, y_id, 8), 2)
        u_val = rng.standard_normal((2000, 1))
        y_val = sysid.simulate(true, u_val)
        acc_id = metrics.fit_report(model, u_id, y_id)[1].accuracy_pct[0]
        acc_val = metrics.fit_report(model, u_val, y_val)[1].accuracy_pct[0]
        assert abs(acc_id - acc_val) < 2.0

    def test_channel_mismatch(self, rng):
        model = random_stable_system(rng, 2, 1, 2)
        with pytest.raises(DataError, match="channels"):
            metrics.fit_report(model, rng.standard_normal((50, 1)),
                               rng.standard_normal((50, 3)))


class TestReport:
    def test_serialization_lossless(self, tmp_path):
        report = metrics.EstimationReport(
            rmse=[0.02, 0.03], accuracy_pct=[97.5, 96.0],
            whiteness=[0.05, 0.07], n_samples=1200,
            metric_def="nrmse_range", burn_in=30)
        p = tmp_path / "report.json"
        p.write_text(json.dumps(report.to_dict()))
        again = metrics.EstimationReport(**json.loads(p.read_text()))
        np.testing.assert_array_equal(again.rmse, report.rmse)
        np.testing.assert_array_equal(again.accuracy_pct, report.accuracy_pct)
        assert again.metric_def == report.metric_def

    def test_metric_def_mandatory(self):
        with pytest.raises(DataError, match="metric_def"):
            metrics.EstimationReport(rmse=[0.1], accuracy_pct=[90.0],
                                     whiteness=[0.1], n_samples=10,
                                     metric_def="")

    @pytest.mark.parametrize("bad", [np.nan, 1e200], ids=["nan", "overflow"])
    def test_non_finite_score_is_numerical_error(self, bad):
        # NaN passed the old rmse >= 0 and 0 <= accuracy <= 100 checks
        truth = np.linspace(0.0, 1.0, 50)[:, None]
        estimates = truth.copy()
        estimates[10] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="^output channel 0: "
                               "score is not finite"):
                metrics.report_run(estimates, truth)

    def test_report_run_takes_innovations_as_a_list(self, rng):
        e, t = rng.uniform(0, 1, (2, 60, 2))
        innov = rng.standard_normal((60, 2))
        got = metrics.report_run(e, t, innovations=innov.tolist(), burn_in=5)
        want = metrics.report_run(e, t, innovations=innov, burn_in=5)
        np.testing.assert_array_equal(got.whiteness, want.whiteness)
        assert np.all(np.isfinite(got.whiteness))

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (20,), elements=st.floats(0, 1)),
           arrays(np.float64, (20,), elements=st.floats(0, 1)))
    def test_report_run_consistent_with_primitives(self, e, t):
        if t.max() - t.min() <= 0:
            return
        rep = metrics.report_run(e.reshape(-1, 1), t.reshape(-1, 1))
        assert rep.rmse[0] == pytest.approx(metrics.rmse(e, t))
        assert rep.accuracy_pct[0] == pytest.approx(metrics.accuracy_pct(e, t))


class TestPublishedPairs:
    #: The paper's published (RMSE, accuracy %) pairs.
    PAIRS = np.array([(0.0331, 94.80), (0.0297, 95.99), (0.0243, 97.67)])

    def test_rank_default_metric_best(self):
        # fit the accuracy formulas that RMSE alone determines to the
        # pairs: 100 (1 - r), and 100 (1 - r / range) with its range fitted
        # by least squares in s = 1 / range
        r, a = self.PAIRS.T
        s = -float((100.0 * r) @ (a - 100.0) / ((100.0 * r) @ (100.0 * r)))
        residual = {name: float(np.sqrt(np.mean((pred - a) ** 2)))
                    for name, pred in (("one_minus_rmse", 100.0 * (1.0 - r)),
                                       ("nrmse_range", 100.0 * (1.0 - s * r)))}
        assert min(residual, key=residual.get) == metrics.DEFAULT_METRIC
        assert 1.0 / s == pytest.approx(0.738, abs=5e-4)
        assert residual == pytest.approx(
            {"nrmse_range": 0.69, "one_minus_rmse": 1.25}, abs=5e-3)
        # the pairs are mutually inconsistent: both candidates miss
        assert all(res > 0.01 for res in residual.values())
