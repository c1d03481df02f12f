import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telekf import estimator, metrics, netsim, sysid
from telekf.errors import DataError, NumericalError

from conftest import (joint_update, random_stable_system, simulate_noisy,
                      strictly_proper_system)


def scalar_model(a=1.0, b=0.0, c=1.0, d=0.0):
    return sysid.StateSpaceModel(A=[[a]], B=[[b]], C=[[c]], D=[[d]])


def row_update(P, r, z, x=(0.0,), C=((1.0,),)):
    """One measurement update through _row_updates: posterior x and P."""
    C = np.asarray(C, dtype=float)
    x = np.asarray(x, dtype=float)
    P_post, G = estimator._row_updates(np.asarray(P, dtype=float), C,
                                       np.asarray(r, dtype=float))
    return x + G @ (np.asarray(z, dtype=float) - C @ x), P_post


class TestPredict:
    # With P0 = 0 and Q = 0 the gain is 0, so run_filter's states are the
    # prediction x_k = A x_{k-1} + B u_{k-1} alone.
    def test_identity_dynamics(self):
        m = scalar_model(a=1.0)
        noise = estimator.NoiseModel(Q=[[0.0]], R=[[1.0]])
        run = estimator.run_filter(m, noise, np.zeros((5, 1)),
                                   np.full((5, 1), 9.0), x0=[2.0],
                                   P0=[[0.0]])
        np.testing.assert_array_equal(run.states, np.full((5, 1), 2.0))

    def test_pure_input_drive(self):
        m = sysid.StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2),
                                  C=np.eye(2), D=np.zeros((2, 2)))
        noise = estimator.NoiseModel(Q=np.zeros((2, 2)), R=np.eye(2))
        u = np.array([[1.0, -2.0], [0.5, 3.0], [-4.0, 0.25]])
        run = estimator.run_filter(m, noise, u, np.full((3, 2), 7.0),
                                   x0=[5.0, 5.0], P0=np.zeros((2, 2)))
        np.testing.assert_array_equal(run.states, [[5.0, 5.0], *u[:-1]])

    def test_covariance_arithmetic(self):
        # P_1^- = 0.5 + 0.1, so the first gain is 0.6 / (0.6 + 1)
        G, _ = estimator._gain_schedule(np.ones((1, 1)), np.ones((1, 1)),
                                        np.full((1, 1), 0.1), np.ones(1),
                                        np.full((1, 1), 0.5), 2)
        assert G[0, 0, 0] == pytest.approx(0.6 / 1.6, abs=1e-15)


class TestUpdate:
    def test_hand_computed_scalar_gain(self):
        x, P = row_update([[1.0]], [1.0], [2.0])
        assert x[0] == pytest.approx(1.0, abs=1e-12)  # K = 0.5
        assert P[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_huge_r_ignores_measurement(self):
        x, _ = row_update([[1.0]], [1e12], [100.0], x=[0.5])
        assert abs(x[0] - 0.5) < 1e-9

    def test_zero_r_trusts_measurement(self):
        x, P = row_update(np.eye(2), [0.0, 0.0], [3.0, -1.0],
                          x=[0.0, 0.0], C=np.eye(2))
        np.testing.assert_allclose(x, [3.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(P, 0, atol=1e-12)

    def test_degenerate_innovation(self):
        with pytest.raises(NumericalError, match="degenerate innovation"):
            row_update([[0.0]], [0.0], [1.0])

    def test_covariance_stays_symmetric_psd(self, rng):
        m = random_stable_system(rng, 4, 1, 3)
        Q, r = 0.01 * np.eye(4), np.full(3, 0.1)
        P = np.eye(4)
        for k in range(50):
            P, _ = estimator._row_updates(m.A @ P @ m.A.T + Q, m.C, r)
            assert np.abs(P - P.T).max() < 1e-9
            assert np.linalg.eigvalsh(P).min() >= -1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sequential_equals_batch_for_diagonal_r(self, seed):
        rng = np.random.default_rng(seed)
        n, m_out = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        model = random_stable_system(rng, n, 1, m_out)
        L = rng.standard_normal((n, n))
        P = L @ L.T + 0.1 * np.eye(n)
        R = np.diag(rng.uniform(0.05, 2.0, m_out))
        x = rng.standard_normal(n)
        z = rng.standard_normal(m_out)
        x_seq, P_seq = row_update(P, np.diag(R), z, x=x, C=model.C)
        K, P_joint = joint_update(P, model.C, R)
        np.testing.assert_allclose(x_seq, x + K @ (z - model.C @ x),
                                   atol=1e-9)
        np.testing.assert_allclose(P_seq, P_joint, atol=1e-9)

    def test_gain_monotone_in_r(self):
        # scaling R by 10 strictly decreases the scalar Kalman gain
        P = 1.0
        gains = []
        for r in (0.1, 1.0, 10.0):
            gains.append(P / (P + r))
        # x = K * z, so x is the realized gain
        xs = [row_update([[P]], [r], [1.0])[0][0] for r in (0.1, 1.0, 10.0)]
        assert xs[0] > xs[1] > xs[2]
        np.testing.assert_allclose(xs, gains, atol=1e-12)


class TestRunFilter:
    def test_converges_on_perfect_channel(self, rng):
        # strictly proper model: the filter reconstructs outputs as C x_hat
        model = strictly_proper_system(rng, 2, 1, 2)
        u = rng.standard_normal((600, 1))
        y = sysid.simulate(model, u)
        noise = estimator.NoiseModel(Q=np.zeros((2, 2)), R=1e-12 * np.eye(2))
        run = estimator.run_filter(model, noise, u, y)
        err = np.abs(run.estimates[20:] - y[20:])
        assert metrics.rmse(run.estimates[20:], y[20:]) < 1e-6
        assert err.max() < 1e-4

    def test_feedthrough_noise_free(self, rng):
        # D != 0: the filter updates against z - D u and reports C x + D u,
        # so noise-free outputs are reproduced once the state has converged
        model = random_stable_system(rng, 2, 1, 2)
        assert np.abs(model.D).min() > 0
        u = rng.standard_normal((600, 1))
        y = sysid.simulate(model, u)
        noise = estimator.NoiseModel(Q=np.zeros((2, 2)), R=1e-12 * np.eye(2))
        run = estimator.run_filter(model, noise, u, y)
        assert np.abs(run.estimates[20:] - y[20:]).max() < 1e-9

    def test_width_errors_are_data_errors(self, rng):
        model = random_stable_system(rng, 2, 1, 2)
        noise = estimator.NoiseModel(Q=np.eye(2), R=np.eye(2))
        with pytest.raises(DataError, match="channels"):
            estimator.run_filter(model, noise, np.zeros((10, 2)),
                                 np.zeros((10, 2)))
        with pytest.raises(DataError, match="channels"):
            estimator.run_filter(model, noise, np.zeros((10, 1)),
                                 np.zeros((10, 3)))

    def test_total_loss_tracks_open_loop_prediction(self, rng):
        # all measurements lost: the stream holds clean[0] forever, so the
        # filter sees a constant; compare against an open-loop predictor fed
        # the same constant pseudo-measurements
        model = random_stable_system(rng, 2, 1, 1)
        u = rng.standard_normal((300, 1))
        y = sysid.simulate(model, u)
        stream = netsim.impair(y, netsim.NetworkScenario(0, 0, 1.0, seed=0),
                               dt=1 / 30)
        noise = estimator.NoiseModel(Q=0.01 * np.eye(2), R=np.eye(1))
        run = estimator.run_filter(model, noise, u, stream.observed)
        held = np.tile(y[0], (300, 1))
        ref = estimator.run_filter(model, noise, u, held)
        np.testing.assert_allclose(run.estimates, ref.estimates, atol=1e-12)

    def test_length_mismatch(self, rng):
        model = random_stable_system(rng, 2, 1, 1)
        noise = estimator.NoiseModel(Q=np.eye(2), R=np.eye(1))
        with pytest.raises(DataError, match="lengths"):
            estimator.run_filter(model, noise, np.zeros((10, 1)),
                                 np.zeros((11, 1)))

    def test_bounded_estimates_for_stable_model(self, rng):
        model = random_stable_system(rng, 3, 1, 2, radius=0.8)
        n = 20_000  # long-horizon stand-in for the 1e6-step bound
        u = rng.standard_normal((n, 1))
        z = rng.standard_normal((n, 2))
        noise = estimator.NoiseModel(Q=0.01 * np.eye(3), R=np.eye(2))
        run = estimator.run_filter(model, noise, u, z)
        assert np.all(np.isfinite(run.states))
        assert np.abs(run.states).max() < 1e3

    def test_innovation_whiteness_matched_model(self, rng):
        model = sysid.StateSpaceModel(
            A=np.array([[0.7, 0.2], [0.0, 0.5]]), B=np.array([[1.0], [0.4]]),
            C=np.array([[1.0, 0.3]]), D=np.zeros((1, 1)))
        Q = 0.01 * np.eye(2)
        R = 0.05 * np.eye(1)
        u = rng.standard_normal((10_000, 1))
        y = simulate_noisy(model, u, Q, R, rng)
        run = estimator.run_filter(
            model, estimator.NoiseModel(Q=Q, R=R), u, y)
        acf = metrics.autocorrelations(run.innovations[100:], 10)
        assert np.abs(acf).max() < 3 / np.sqrt(10_000 - 100)


def textbook_filter(model, Q, R, u, z, x0, P0):
    """Reference Kalman filter, one step at a time: predict with the
    previous input, then the joint gain against diag(R), updating against
    the measurement less its feedthrough D u."""
    A, B, C, D = model.A, model.B, model.C, model.D
    R_diag = np.diag(np.diag(R))
    x, P = np.asarray(x0, dtype=float), np.asarray(P0, dtype=float)
    states = [x]
    for k in range(1, u.shape[0]):
        x = A @ x + B @ u[k - 1]
        P = A @ P @ A.T + Q
        K = P @ C.T @ np.linalg.inv(C @ P @ C.T + R_diag)
        x = x + K @ (z[k] - D @ u[k] - C @ x)
        P = (np.eye(x.size) - K @ C) @ P
        states.append(x)
    return np.array(states)


class TestGainSchedule:
    def check_against_textbook(self, model, Q, R, u, z, x0, P0):
        run = estimator.run_filter(model, estimator.NoiseModel(Q=Q, R=R),
                                   u, z, x0=x0, P0=P0)
        ref = textbook_filter(model, Q, R, u, z, x0, P0)
        assert np.all(np.isfinite(run.states))
        np.testing.assert_allclose(run.states, ref, rtol=0, atol=1e-9)
        Du = u @ model.D.T
        np.testing.assert_allclose(run.estimates, ref @ model.C.T + Du,
                                   rtol=0, atol=1e-9)
        prior = np.vstack([x0, ref[:-1] @ model.A.T + u[:-1] @ model.B.T])
        np.testing.assert_allclose(run.innovations,
                                   z - prior @ model.C.T - Du,
                                   rtol=0, atol=1e-9)
        return run

    def test_multi_output_freezes_early(self, rng):
        model = random_stable_system(rng, 3, 2, 3)
        Q = 0.01 * np.eye(3)
        # off-diagonal R is ignored: the reference uses diag(R)
        R = np.array([[0.02, 0.01, 0.0], [0.01, 0.05, 0.0], [0.0, 0.0, 0.1]])
        u = rng.standard_normal((500, 2))
        z = simulate_noisy(model, u, Q, np.diag(np.diag(R)), rng)
        run = self.check_against_textbook(
            model, Q, R, u, z, x0=[0.5, -1.0, 2.0],
            P0=np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 0.5]]))
        assert run.gain_converged_step is not None
        assert run.gain_converged_step < 200

    def test_never_freezes_without_process_noise(self, rng):
        model = strictly_proper_system(rng, 2, 1, 2)
        u = rng.standard_normal((300, 1))
        z = sysid.simulate(model, u)
        run = self.check_against_textbook(
            model, np.zeros((2, 2)), 1e-8 * np.eye(2), u, z,
            x0=[1.0, -1.0], P0=np.eye(2))
        assert run.gain_converged_step is None

    def test_unstable_unobservable_mode_stays_finite(self, rng):
        # the second mode is unobservable and grows by 1.3 per step, so the
        # closed loop keeps it and powers of the step map overflow within
        # the stream; with no noise or input on that mode its state is 0
        model = sysid.StateSpaceModel(
            A=np.diag([0.5, 1.3]), B=np.array([[1.0], [0.0]]),
            C=np.array([[1.0, 0.0]]), D=np.zeros((1, 1)))
        assert 3000 * np.log10(1.3) > 308  # 1.3 ** 3000 overflows
        u = rng.standard_normal((3000, 1))
        z = rng.standard_normal((3000, 1))
        run = self.check_against_textbook(
            model, np.diag([0.01, 0.0]), np.array([[0.1]]), u, z,
            x0=[0.3, 0.0], P0=np.diag([1.0, 0.0]))
        assert run.gain_converged_step is not None

    @pytest.mark.parametrize("seed", range(300, 306))
    def test_freeze_step_ignores_the_last_bits_of_q(self, seed):
        # the criterion-11 shape: 3 states, 3 in, 3 out, 1,240 samples, Q
        # from the bootstrap; a freeze test of a few ulps moved the step
        # (or lost it) on 1-3 ulp changes of Q here
        rng = np.random.default_rng(seed)
        model = random_stable_system(rng, 3, 3, 3)
        u = rng.standard_normal((1240, 3))
        z = simulate_noisy(model, u, 1e-4 * np.eye(3), 1e-4 * np.eye(3), rng)
        noise = estimator.estimate_noise_empirical(model, u, z)
        eps = np.finfo(float).eps
        steps = {estimator._gain_schedule(model.A, model.C,
                                          noise.Q * (1 + k * eps),
                                          np.diag(noise.R), np.eye(3),
                                          1240)[1]
                 for k in range(4)}
        assert len(steps) == 1 and None not in steps

    def test_slow_closed_loop_stays_near_the_never_frozen_filter(
            self, monkeypatch):
        rng = np.random.default_rng(7)
        model = sysid.StateSpaceModel(A=[[0.995, 0.1], [0.0, 0.5]],
                                      B=[[1.0], [0.5]], C=[[1.0, 0.0]],
                                      D=[[0.0]])
        noise = estimator.NoiseModel(Q=1e-5 * np.eye(2), R=[[1.0]])
        u = 0.1 * rng.standard_normal((3000, 1))
        z = simulate_noisy(model, u, noise.Q, noise.R, rng)
        estimator._cached_schedule.cache_clear()
        run = estimator.run_filter(model, noise, u, z)
        G, frozen_at = estimator._gain_schedule(
            model.A, model.C, noise.Q, np.diag(noise.R), np.eye(2), 3000)
        assert frozen_at == run.gain_converged_step is not None
        closed = (np.eye(2) - G[-1] @ model.C) @ model.A
        assert np.max(np.abs(np.linalg.eigvals(closed))) >= 0.99
        # a negative tolerance never freezes: one gain per sample
        monkeypatch.setattr(estimator, "_FREEZE_RTOL", -1.0)
        estimator._cached_schedule.cache_clear()
        try:
            ref = estimator.run_filter(model, noise, u, z)
        finally:
            estimator._cached_schedule.cache_clear()
        assert ref.gain_converged_step is None
        # measured 3.8e-13 of the largest estimate
        err = np.abs(run.estimates - ref.estimates).max()
        assert err <= 1e-11 * np.abs(ref.estimates).max()

    @pytest.mark.parametrize("q, s", [(0.0, "0.0"), (1e308, "inf")],
                             ids=["zero", "overflow"])
    def test_degenerate_noise_names_the_sample(self, q, s):
        # NumericalError is what the CLI reports with exit code 3.  With
        # Q = 1e308 I the first innovation variance c P c overflows to inf,
        # which must raise without a RuntimeWarning.
        model = sysid.StateSpaceModel(A=0.5 * np.eye(2), B=[[1.0], [0.0]],
                                      C=[[1.0, 1.0]], D=[[0.0]])
        noise = estimator.NoiseModel(Q=q * np.eye(2), R=np.zeros((1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="sample 2: degenerate "
                               f"innovation variance {s}$"):
                estimator.run_filter(model, noise, np.zeros((10, 1)),
                                     np.zeros((10, 1)), P0=np.zeros((2, 2)))


class TestNoiseModel:
    def test_psd_enforced(self):
        with pytest.raises(DataError):
            estimator.NoiseModel(Q=[[-1.0]], R=[[1.0]])
        with pytest.raises(DataError):
            estimator.NoiseModel(Q=[[1.0]], R=[[0.0, 0.5], [0.1, 0.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_is_numerical_error(self, bad):
        with pytest.raises(NumericalError, match="non-finite entries in Q"):
            estimator.NoiseModel(Q=[[bad]], R=[[1.0]])
        with pytest.raises(NumericalError, match="non-finite entries in R"):
            estimator.NoiseModel(Q=np.eye(2), R=[[1.0, 0.0], [0.0, bad]])

    def test_huge_finite_covariance_is_kept(self):
        # symmetrizing 1e308 must not overflow it to a non-finite entry
        nm = estimator.NoiseModel(Q=1e308 * np.eye(2), R=np.eye(1))
        np.testing.assert_array_equal(nm.Q, 1e308 * np.eye(2))

    def test_overflowing_bootstrap_is_numerical_error(self):
        # finite outputs whose residual products overflow: the estimated
        # covariances are non-finite, which is reported before any
        # eigendecomposition sees them
        rng = np.random.default_rng(3)
        model = random_stable_system(rng, 2, 1, 1)
        u = rng.standard_normal((200, 1))
        y = 1e200 * sysid.simulate(model, u)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="non-finite entries"):
            estimator.estimate_noise_empirical(model, u, y)

    def test_initial_guess(self):
        nm = estimator.NoiseModel.initial(3, 2, eps_q=1e-4, eps_r=1e-3)
        np.testing.assert_array_equal(nm.Q, 1e-4 * np.eye(3))
        np.testing.assert_array_equal(nm.R, 1e-3 * np.eye(2))
        assert nm.provenance == "initial"

    def test_json_roundtrip(self, tmp_path):
        nm = estimator.NoiseModel(Q=0.2 * np.eye(2), R=0.3 * np.eye(1),
                                  provenance="empirical")
        p = tmp_path / "noise.json"
        p.write_text(json.dumps(nm.to_dict()))
        loaded = estimator.NoiseModel(**json.loads(p.read_text()))
        np.testing.assert_array_equal(loaded.Q, nm.Q)
        assert loaded.provenance == "empirical"


class TestEmpiricalNoise:
    def test_zero_residuals_with_feedthrough(self, rng):
        # D != 0 and a varying input: r_y subtracts C x + D u, so exact
        # noise-free data leave nothing for R or Q
        model = random_stable_system(rng, 2, 1, 2)
        u = rng.standard_normal((2000, 1))
        y = sysid.simulate(model, u)
        nm = estimator.estimate_noise_empirical(model, u, y,
                                                eps_q=1e-12, eps_r=1e-12)
        assert np.abs(nm.R).max() < 1e-10
        assert np.abs(nm.Q).max() < 1e-10

    def test_width_errors_are_data_errors(self, rng):
        model = random_stable_system(rng, 2, 1, 2)
        with pytest.raises(DataError, match="channels"):
            estimator.estimate_noise_empirical(model, np.zeros((10, 3)),
                                               np.zeros((10, 2)))
        with pytest.raises(DataError, match="channels"):
            estimator.estimate_noise_empirical(model, np.zeros((10, 1)),
                                               np.zeros((10, 1)))

    def test_zero_residuals_give_zero_covariances(self, rng):
        # exact strictly proper model, noise-free data, constant input
        model = strictly_proper_system(rng, 2, 1, 2)
        u = np.full((2000, 1), 0.8)
        y = sysid.simulate(model, u)
        nm = estimator.estimate_noise_empirical(model, u, y,
                                                eps_q=1e-12, eps_r=1e-12)
        assert np.abs(nm.R).max() < 1e-10
        assert np.abs(nm.Q).max() < 1e-10
        assert nm.provenance == "empirical"

    def test_zero_residuals_varying_input(self, rng):
        # the process residual subtracts B u(k-1), the input the prediction
        # step used, so exact noise-free data leave nothing for Q
        model = strictly_proper_system(rng, 2, 1, 2)
        u = rng.standard_normal((2000, 1))
        y = sysid.simulate(model, u)
        nm = estimator.estimate_noise_empirical(model, u, y,
                                                eps_q=1e-12, eps_r=1e-12)
        assert np.abs(nm.R).max() < 1e-10
        assert np.abs(nm.Q).max() < 1e-10

    def test_recovers_measurement_covariance(self, rng):
        # known R*, negligible process noise, filter trusting the model:
        # measurement residuals isolate the sensor noise
        model = sysid.StateSpaceModel(
            A=np.array([[0.8, 0.1], [0.0, 0.6]]), B=np.array([[1.0], [0.5]]),
            C=np.eye(2), D=np.zeros((2, 1)))
        R_true = 0.04 * np.eye(2)
        u = rng.standard_normal((10_000, 1))
        y = sysid.simulate(model, u) + rng.multivariate_normal(
            np.zeros(2), R_true, size=10_000)
        nm = estimator.estimate_noise_empirical(model, u, y,
                                                eps_q=1e-8, eps_r=1e-2)
        rel = np.linalg.norm(nm.R - R_true) / np.linalg.norm(R_true)
        assert rel < 0.20
        assert np.linalg.eigvalsh(nm.Q).min() >= 0

    @pytest.mark.xfail(
        strict=True,
        reason="the posterior-residual covariance recursion cannot meet the "
               "R and Q targets simultaneously: any gain small enough to "
               "keep measurement residuals near R inflates the process "
               "residuals far beyond Q, and vice versa")
    def test_simultaneous_q_and_r_recovery(self, rng):
        model = sysid.StateSpaceModel(
            A=np.array([[0.8, 0.1], [0.0, 0.6]]), B=np.array([[1.0], [0.5]]),
            C=np.eye(2), D=np.zeros((2, 1)))
        Q_true, R_true = 0.01 * np.eye(2), 0.04 * np.eye(2)
        u = np.full((10_000, 1), 0.7)
        y = simulate_noisy(model, u, Q_true, R_true, rng)
        nm = estimator.estimate_noise_empirical(model, u, y,
                                                eps_q=1e-5, eps_r=1e-4)
        assert np.linalg.norm(nm.R - R_true) / np.linalg.norm(R_true) < 0.20
        assert np.linalg.norm(nm.Q - Q_true) / np.linalg.norm(Q_true) < 0.50

    @pytest.mark.xfail(
        strict=True,
        reason="iterating the bootstrap shrinks R toward zero (posterior "
               "residuals underestimate the innovation variance), which "
               "degrades innovation whiteness rather than preserving it")
    def test_second_iteration_whiteness_no_worse(self, rng):
        model = sysid.StateSpaceModel(
            A=np.array([[0.8, 0.1], [0.0, 0.6]]), B=np.array([[1.0], [0.5]]),
            C=np.eye(2), D=np.zeros((2, 1)))
        Q_true, R_true = 0.01 * np.eye(2), 0.04 * np.eye(2)
        u = rng.standard_normal((10_000, 1))
        y = simulate_noisy(model, u, Q_true, R_true, rng)

        def whiteness(noise):
            run = estimator.run_filter(model, noise, u, y)
            w, _ = metrics.innovation_whiteness(run.innovations[50:], 10)
            return w.max()

        one = estimator.estimate_noise_empirical(model, u, y, iterations=1)
        two = estimator.estimate_noise_empirical(model, u, y, iterations=2)
        assert whiteness(two) <= whiteness(one) + 1e-12

    def test_iterations_validated(self, rng):
        model = random_stable_system(rng, 1, 1, 1)
        with pytest.raises(DataError):
            estimator.estimate_noise_empirical(model, np.zeros((10, 1)),
                                               np.zeros((10, 1)), iterations=0)

    def test_q_always_psd(self, rng):
        for seed in range(5):
            r2 = np.random.default_rng(seed)
            model = random_stable_system(r2, 2, 1, 2)
            u = r2.standard_normal((500, 1))
            y = sysid.simulate(model, u) + 0.1 * r2.standard_normal((500, 2))
            nm = estimator.estimate_noise_empirical(model, u, y)
            assert np.linalg.eigvalsh(nm.Q).min() >= 0
            assert np.linalg.eigvalsh(nm.R).min() >= 0
