import tracemalloc

import numpy as np
import pytest

from telekf import sysid
from telekf.dataio import build_hankel
from telekf.errors import DataError, NumericalError

from conftest import random_stable_system


def two_state_system():
    return sysid.StateSpaceModel(
        A=np.diag([0.9, 0.5]), B=np.array([[1.0], [1.0]]),
        C=np.eye(2), D=np.zeros((2, 1)))


class TestDecompose:
    def test_known_order_rank(self, rng):
        true = two_state_system()
        u = rng.standard_normal((2000, 1))
        y = sysid.simulate(true, u)
        dec = sysid.moesp_decompose(u, y, block_rows=10)
        ss = dec.singular_values
        assert np.sum(ss > 1e-10 * ss[0]) == 2

    def test_null_data(self):
        u = np.zeros((500, 1))
        y = np.zeros((500, 1))
        dec = sysid.moesp_decompose(u, y, block_rows=5)
        np.testing.assert_allclose(dec.singular_values, 0, atol=1e-14)
        assert dec.cond_r11 == np.inf  # zero input excites nothing

    def test_jigsaws_scale_mode_count(self, rng):
        u = rng.standard_normal((1240, 3))
        y = rng.standard_normal((1240, 3))
        dec = sysid.moesp_decompose(u, y, block_rows=20)
        assert dec.singular_values.size == 60

    def test_insufficient_data(self, rng):
        with pytest.raises(DataError, match="samples"):
            sysid.moesp_decompose(rng.standard_normal((30, 1)),
                                  rng.standard_normal((30, 1)), block_rows=20)
        with pytest.raises(DataError, match="^inputs and outputs must be "
                                            "2-D$"):
            sysid.moesp_decompose(np.zeros((30, 1, 1)), np.zeros((30, 1)), 2)
        with pytest.raises(DataError, match="^inputs and outputs must have "
                                            "the same length$"):
            sysid.moesp_decompose(np.zeros((30, 1)), np.zeros((31, 1)), 2)


def noisy_series(rng, n_samples, m_in, m_out, noise=0.1):
    """Inputs and outputs of a random 4-state system driven by white input,
    with white output noise of std ``noise``."""
    true = random_stable_system(rng, 4, m_in, m_out)
    u = rng.standard_normal((n_samples, m_in))
    y = sysid.simulate(true, u) + noise * rng.standard_normal((n_samples, m_out))
    return u, y


def hankels(u, y, d):
    cols = u.shape[0] - d + 1
    return build_hankel(u, d, cols), build_hankel(y, d, cols)


def householder_lq(U, Y):
    """Reference L: Householder QR of the stacked transpose, rows signed so
    that diag(R) >= 0."""
    R = np.triu(np.linalg.qr(np.vstack([U, Y]).T, mode="r"))
    R[np.diag(R) < 0] *= -1.0
    return R.T


class TestStackGram:
    @pytest.mark.parametrize("m_in, m_out, d", [
        (1, 1, 1), (1, 2, 1), (1, 1, 6), (2, 3, 1), (1, 3, 5), (3, 3, 20)])
    def test_equals_gram_of_built_stack(self, rng, m_in, m_out, d):
        # the fewest samples moesp_decompose accepts, and a longer series
        for n_samples in (2 * d * max(m_in, m_out) + 1, 400):
            u, y = noisy_series(rng, n_samples, m_in, m_out)
            u += 0.5  # an offset, as min-max scaling leaves
            S = np.hstack([u, y])
            H = build_hankel(S, d, n_samples - d + 1)
            ref = H @ H.T
            G = sysid._stack_gram(S, d)
            assert np.abs(G - ref).max() <= 1e-13 * np.abs(ref).max()
            np.testing.assert_array_equal(G, G.T)


class TestLQFactor:
    @pytest.mark.parametrize("n_samples, m_in, m_out, d",
                             [(1240, 3, 3, 20), (2000, 1, 2, 8)])
    def test_noisy_data_takes_cholesky_qr2(self, rng, n_samples, m_in, m_out, d):
        u, y = noisy_series(rng, n_samples, m_in, m_out)
        L, method, cond_est = sysid._lq_factor(u, y, d)
        assert method == "cholesky_qr2"
        assert cond_est <= sysid._CHOLQR_MAX_COND
        assert np.all(np.triu(L, 1) == 0)
        assert np.all(np.diag(L) >= 0)
        ref = householder_lq(*hankels(u, y, d))
        assert np.abs(L - ref).max() <= 1e-12 * np.abs(ref).max()

    # 996 columns at d = 5: 7 leaves a ragged last chunk, 83 divides them,
    # 995 leaves one column and 10,000 takes them in one chunk; at d = 1 the
    # last chunk of 999 is one sample of the series
    @pytest.mark.parametrize("d, chunk", [(5, 7), (5, 83), (5, 995),
                                          (5, 10_000), (1, 999)])
    def test_any_chunk_width_gives_the_same_factor(self, rng, monkeypatch,
                                                   d, chunk):
        u, y = noisy_series(rng, 1000, 2, 2)
        monkeypatch.setattr(sysid, "_CHUNK", chunk)
        L, method, _ = sysid._lq_factor(u, y, d)
        assert method == "cholesky_qr2"
        ref = householder_lq(*hankels(u, y, d))
        assert np.abs(L - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_decompose_never_holds_the_whole_stack(self, rng):
        d = 20
        u, y = noisy_series(rng, 12 * sysid._CHUNK, 2, 2)
        stack_bytes = d * (2 + 2) * (u.shape[0] - d + 1) * 8
        tracemalloc.start()
        try:
            dec = sysid.moesp_decompose(u, y, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.lq_method == "cholesky_qr2"
        assert peak < 0.5 * stack_bytes

    def test_noise_free_data_takes_householder(self, rng):
        u = rng.standard_normal((2000, 1))
        y = sysid.simulate(two_state_system(), u)
        L, method, _ = sysid._lq_factor(u, y, 10)
        assert method == "householder"
        np.testing.assert_array_equal(L, householder_lq(*hankels(u, y, 10)))
        assert sysid.moesp_decompose(u, y, 10).lq_method == "householder"

    def test_singular_values_match_householder_over_noise_sweep(self, rng):
        true = random_stable_system(rng, 4, 3, 3)
        u = rng.standard_normal((1240, 3))
        y0 = sysid.simulate(true, u)
        e = rng.standard_normal(y0.shape)
        cols = 1240 - 20 + 1
        U = build_hankel(u, 20, cols)
        methods = set()
        for noise in 10.0 ** -np.arange(1, 8):
            y = y0 + noise * e
            dec = sysid.moesp_decompose(u, y, block_rows=20)
            methods.add(dec.lq_method)
            ref = householder_lq(U, build_hankel(y, 20, cols))
            ss = np.linalg.svd(ref[60:, 60:], compute_uv=False)
            # every singular value to 1e-10 of itself, the small noise-floor
            # ones included
            np.testing.assert_allclose(dec.singular_values, ss, rtol=1e-10,
                                       err_msg=f"noise {noise:g}, {dec.lq_method}")
        # the sweep crosses the limit: both paths run
        assert methods == {"cholesky_qr2", "householder"}

    def test_decomposition_records_condition(self, rng):
        u = rng.standard_normal((1240, 3))
        y = (sysid.simulate(random_stable_system(rng, 4, 3, 3), u)
             + 0.1 * rng.standard_normal((1240, 3)))
        dec = sysid.moesp_decompose(u, y, block_rows=20)
        assert dec.lq_method == "cholesky_qr2"
        assert 1.0 <= dec.lq_cond_est <= sysid._CHOLQR_MAX_COND
        assert dec.cond_r11 == pytest.approx(np.linalg.cond(dec.R11), rel=1e-12)


class TestSelectOrder:
    def test_energy_two_equal_modes(self):
        assert sysid.select_order([10, 10, 0, 0]) == 2

    def test_energy_dominant_mode(self):
        assert sysid.select_order([100, 1, 1]) == 1

    def test_single_mode(self):
        assert sysid.select_order([1]) == 1

    def test_degenerate(self):
        with pytest.raises(NumericalError, match="degenerate"):
            sysid.select_order([0.0, 0.0])

    def test_fixed(self):
        assert sysid.select_order([5, 4, 3], fixed=2) == 2
        # fixed overrides the energy rule, which would pick 1 here
        assert sysid.select_order([100, 1, 1], energy=0.5, fixed=3) == 3
        with pytest.raises(DataError, match="fixed order 0 must be >= 1"):
            sysid.select_order([5, 4, 3], fixed=0)

    def test_energy_ratio_monotone(self, rng):
        ss = np.sort(rng.uniform(0, 10, 12))[::-1]
        ratios = np.cumsum(ss) / ss.sum()
        assert np.all(np.diff(ratios) >= 0)


class TestRealize:
    def test_recovers_known_system(self, rng):
        true = two_state_system()
        u = rng.standard_normal((2000, 1))
        y = sysid.simulate(true, u)
        dec = sysid.moesp_decompose(u, y, block_rows=10)
        model = sysid.realize(dec, 2)
        eig = np.sort(np.linalg.eigvals(model.A).real)
        np.testing.assert_allclose(eig, [0.5, 0.9], atol=1e-6)
        for mt, me in zip(true.markov_parameters(10), model.markov_parameters(10)):
            np.testing.assert_allclose(me, mt, atol=1e-6)

    def test_rank1_truncation_keeps_dominant_mode(self, rng):
        true = two_state_system()
        u = rng.standard_normal((2000, 1))
        y = sysid.simulate(true, u)
        dec = sysid.moesp_decompose(u, y, block_rows=10)
        model = sysid.realize(dec, 1)
        assert model.order == 1
        # truncation keeps a pole near the dominant 0.9 mode, not the fast
        # 0.5 one, and the dominant output channel stays well approximated
        pole = float(np.linalg.eigvals(model.A).real[0])
        assert 0.8 < pole < 0.95
        yh = sysid.simulate(model, u)
        rel = np.sqrt(((yh[:, 0] - y[:, 0]) ** 2).mean()) / y[:, 0].std()
        assert rel < 0.2

    def test_strictly_proper_feedthrough(self, rng):
        true = two_state_system()
        u = rng.standard_normal((2000, 1))
        y = sysid.simulate(true, u)
        model = sysid.realize(sysid.moesp_decompose(u, y, 10), 2)
        assert np.abs(model.D).max() < 1e-6

    def test_order_out_of_range(self, rng):
        true = two_state_system()
        u = rng.standard_normal((500, 1))
        y = sysid.simulate(true, u)
        dec = sysid.moesp_decompose(u, y, 10)
        with pytest.raises(DataError):
            sysid.realize(dec, 0)

    def test_one_block_row_is_data_error(self, rng):
        # d = 1 decomposes, but leaves the shift equation no rows
        u, y = noisy_series(rng, 200, 1, 2)
        dec = sysid.moesp_decompose(u, y, 1)
        with pytest.raises(DataError, match="block_rows"):
            sysid.realize(dec, 1)

    def test_ill_conditioned_shift_is_numerical_error(self):
        # orthonormal U1 scaled by sqrt([1, 1e-30]): the shift equation's
        # two columns differ in size by 1e15
        ss = np.array([1.0, 1e-30, 1e-31, 1e-32])
        dec = sysid.SubspaceDecomposition(
            singular_values=ss, R11=np.eye(4), R21=np.zeros((4, 4)),
            U1=np.eye(4), block_rows=4, m_in=1, m_out=1,
            lq_method="cholesky_qr2", lq_cond_est=1.0, cond_r11=1.0)
        with pytest.raises(NumericalError) as info:
            sysid.realize(dec, 2)
        assert str(info.value) == ("ill-conditioned observability shift "
                                   "equation (cond=1.000e+15)")

    def test_noise_free_consistency_sweep(self, rng):
        # exactly n significant singular values and 1e-6 Markov recovery
        for n in (1, 2, 3):
            true = random_stable_system(rng, n, 2, 2)
            u = rng.standard_normal((max(50 * n, 400), 2))
            y = sysid.simulate(true, u)
            dec = sysid.moesp_decompose(u, y, block_rows=4 * n)
            ss = dec.singular_values
            assert np.sum(ss > 1e-8 * ss[0]) == n
            model = sysid.realize(dec, n)
            mt = true.markov_parameters(10)
            me = model.markov_parameters(10)
            scale = max(np.linalg.norm(M) for M in mt)
            assert max(np.linalg.norm(a - b) for a, b in zip(mt, me)) / scale < 1e-6


def step_loop(F, x0, h):
    """Reference for _affine_pass: x_0 = x0, x_k = F x_{k-1} + h_{k-1}."""
    xs = [np.asarray(x0, dtype=float)]
    for h_k in h:
        xs.append(F @ xs[-1] + h_k)
    return np.array(xs)


class TestSimulate:
    def test_pure_feedthrough(self, rng):
        m = sysid.StateSpaceModel(A=np.zeros((2, 2)), B=np.zeros((2, 3)),
                                  C=np.zeros((3, 2)), D=np.eye(3))
        u = rng.standard_normal((20, 3))
        np.testing.assert_array_equal(sysid.simulate(m, u), u)

    def test_frozen_state(self):
        m = sysid.StateSpaceModel(A=np.eye(2), B=np.zeros((2, 1)),
                                  C=np.eye(2), D=np.zeros((2, 1)))
        out = sysid.simulate(m, np.ones((15, 1)), x0=[3.0, -1.0])
        np.testing.assert_array_equal(out, np.tile([3.0, -1.0], (15, 1)))

    def test_linearity(self, rng):
        m = random_stable_system(rng, 3, 2, 2)
        u1 = rng.standard_normal((100, 2))
        u2 = rng.standard_normal((100, 2))
        lhs = sysid.simulate(m, u1 + u2)
        rhs = sysid.simulate(m, u1) + sysid.simulate(m, u2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dimension_mismatch(self, rng):
        m = two_state_system()
        with pytest.raises(DataError):
            sysid.simulate(m, rng.standard_normal((10, 2)))

    def test_matches_step_loop(self, rng):
        m = random_stable_system(rng, 4, 2, 3)
        u = rng.standard_normal((500, 2))
        x0 = rng.standard_normal(4)
        x = step_loop(m.A, x0, u @ m.B.T)[:-1]
        np.testing.assert_allclose(sysid.simulate(m, u, x0=x0),
                                   x @ m.C.T + u @ m.D.T,
                                   rtol=1e-12, atol=1e-12)


class TestAffinePass:
    @pytest.mark.parametrize("radius", [0.9, 1.05])
    @pytest.mark.parametrize("n", [1, 3, 6])
    # 2049 and 5000 steps nest the block starts (65 and 157 blocks)
    @pytest.mark.parametrize("n_steps", [0, 1, 31, 32, 33, 1000, 2049, 5000])
    def test_matches_step_loop(self, rng, n_steps, n, radius):
        F = rng.standard_normal((n, n))
        F *= radius / np.max(np.abs(np.linalg.eigvals(F)))
        x0 = rng.standard_normal(n)
        h = rng.standard_normal((n_steps, n))
        ref = step_loop(F, x0, h)
        got = sysid._affine_pass(F, x0, h)
        assert got.shape == (n_steps + 1, n)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    def test_overflowing_power_halves_the_block(self, rng):
        # F^32 overflows, and the second mode has zero state and input:
        # a block of 32 would meet inf * 0 there
        F = np.diag([0.5, 1e12])
        with np.errstate(over="ignore"):
            assert not np.isfinite(
                np.linalg.matrix_power(F, sysid._BLOCK)).all()
        h = np.column_stack([rng.standard_normal(100), np.zeros(100)])
        got = sysid._affine_pass(F, np.array([1.0, 0.0]), h)
        ref = step_loop(F, [1.0, 0.0], h)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got[:, 1], 0.0)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("nest_above", [0, 1, 2, 5])
    @pytest.mark.parametrize("n_steps", [0, 1, 32, 33, 1000, 5000])
    def test_any_nesting_depth_matches_step_loop(self, rng, monkeypatch,
                                                 nest_above, n_steps):
        # a low threshold nests down to levels of one or no block
        monkeypatch.setattr(sysid, "_NEST_ABOVE", nest_above)
        F = rng.standard_normal((3, 3))
        F *= 0.99 / np.max(np.abs(np.linalg.eigvals(F)))
        x0 = rng.standard_normal(3)
        h = rng.standard_normal((n_steps, 3))
        ref = step_loop(F, x0, h)
        got = sysid._affine_pass(F, x0, h)
        assert got.shape == (n_steps + 1, 3)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    def test_overflowing_inner_power_halves_the_inner_block(self, rng):
        # F^32 is finite, so the outer blocks keep 32 samples; the nested
        # pass on F^32 would form F^1024, which overflows, and the second
        # mode has zero state and input
        F = np.diag([0.5, 4.0])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(np.linalg.matrix_power(F, sysid._BLOCK)).all()
            assert not np.isfinite(
                np.linalg.matrix_power(F, sysid._BLOCK ** 2)).all()
        h = np.column_stack([rng.standard_normal(5000), np.zeros(5000)])
        assert -(-5000 // sysid._BLOCK) > sysid._NEST_ABOVE
        got = sysid._affine_pass(F, np.array([1.0, 0.0]), h)
        ref = step_loop(F, [1.0, 0.0], h)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got[:, 1], 0.0)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_criterion_11_length_stays_on_one_level(self, rng, monkeypatch):
        # 1,240 samples (39 blocks) loop over their block starts: nesting
        # there timed slower, and would move the sweep's last bits
        F = rng.standard_normal((3, 3))
        F *= 0.95 / np.max(np.abs(np.linalg.eigvals(F)))
        x0 = rng.standard_normal(3)
        h = rng.standard_normal((1239, 3))
        got = sysid._affine_pass(F, x0, h)
        monkeypatch.setattr(sysid, "_NEST_ABOVE", np.inf)
        np.testing.assert_array_equal(got, sysid._affine_pass(F, x0, h))


class TestModelProperties:
    def test_similarity_invariant_markov(self, rng):
        m = random_stable_system(rng, 3, 2, 2)
        T = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        Ti = np.linalg.inv(T)
        m2 = sysid.StateSpaceModel(A=T @ m.A @ Ti, B=T @ m.B,
                                   C=m.C @ Ti, D=m.D)
        for a, b in zip(m.markov_parameters(10), m2.markov_parameters(10)):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_input_terms(self, rng):
        m = random_stable_system(rng, 3, 2, 4)
        u = rng.standard_normal((50, 2))
        Bu, Du = m.input_terms(u)
        assert Bu.shape == (49, 3) and Du.shape == (50, 4)
        # row k-1 of Bu is B u_{k-1}, the drive of x_k: the last input
        # drives no state in the run
        for k in (1, 25, 49):
            np.testing.assert_allclose(Bu[k - 1], m.B @ u[k - 1], atol=1e-12)
        np.testing.assert_allclose(Du[49], m.D @ u[49], atol=1e-12)
        with pytest.raises(DataError, match="input has 3 channels"):
            m.input_terms(np.zeros((50, 3)))

    def test_unstable_flag(self):
        m = sysid.StateSpaceModel(A=[[1.05]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
        assert m.is_unstable
        assert m.spectral_radius == pytest.approx(1.05)
