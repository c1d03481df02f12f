import os

import numpy as np
import pytest

from telekf import sysid


def random_stable_system(rng, order, m_in, m_out, radius=0.9):
    """Random stable discrete-time system with spectral radius <= radius."""
    A = rng.standard_normal((order, order))
    ev = np.max(np.abs(np.linalg.eigvals(A)))
    A = A * (rng.uniform(0.5, radius) / max(ev, 1e-12))
    B = rng.standard_normal((order, m_in))
    C = rng.standard_normal((m_out, order))
    D = rng.standard_normal((m_out, m_in))
    return sysid.StateSpaceModel(A=A, B=B, C=C, D=D)


def strictly_proper_system(rng, order, m_in, m_out, radius=0.9):
    """Random stable system with zero feedthrough, like the models the
    identification stage produces."""
    m = random_stable_system(rng, order, m_in, m_out, radius=radius)
    return sysid.StateSpaceModel(A=m.A, B=m.B, C=m.C,
                                 D=np.zeros((m_out, m_in)))


def simulate_noisy(model, inputs, Q, R, rng):
    """Simulate with process noise cov Q and measurement noise cov R."""
    n, m_out = model.order, model.m_out
    N = inputs.shape[0]
    w = rng.multivariate_normal(np.zeros(n), Q, size=N)
    v = rng.multivariate_normal(np.zeros(m_out), R, size=N)
    drive = inputs @ model.B.T + w
    # Rows 1.. first hold drive[k-1]; the loop adds A x_{k-1} to each.
    xs = np.zeros((N, n))
    xs[1:] = drive[:-1]
    rows = list(xs)
    for prev, row in zip(rows, rows[1:]):
        row += model.A @ prev
    return xs @ model.C.T + (inputs @ model.D.T + v)


def joint_update(P, C, R):
    """Textbook joint measurement update in Joseph form: the gain
    K = P C^T S^-1 with S = C P C^T + R, and the posterior covariance
    (I - K C) P (I - K C)^T + K R K^T."""
    S = C @ P @ C.T + R
    K = np.linalg.solve(S, C @ P).T  # S and P are symmetric
    IKC = np.eye(P.shape[0]) - K @ C
    return K, IKC @ P @ IKC.T + K @ R @ K.T


def surrogate_dataset(seed=5, n_samples=6000, dt=0.5e-3):
    """Fixed synthetic 3x3-channel surrogate: smooth multi-sine inputs with
    excitation noise through a known stable 3-state system, min-max scaled."""
    rng = np.random.default_rng(seed)
    m = 3
    t = np.arange(n_samples) * dt
    freqs = rng.uniform(0.3, 10.0, (m, 4))
    phases = rng.uniform(0, 2 * np.pi, (m, 4))
    u = np.stack(
        [np.sum(np.sin(2 * np.pi * freqs[i][:, None] * t + phases[i][:, None]),
                axis=0) for i in range(m)], axis=1)
    u = u + 0.2 * rng.standard_normal(u.shape)
    A = np.array([[0.995, 0.01, 0.0], [0.0, 0.99, 0.02], [0.0, 0.0, 0.985]])
    B = 0.3 * rng.standard_normal((3, 3))
    C = rng.standard_normal((3, 3))
    true = sysid.StateSpaceModel(A=A, B=B, C=C, D=np.zeros((3, 3)))
    y = sysid.simulate(true, u)
    u = (u - u.min(0)) / (u.max(0) - u.min(0))
    y = (y - y.min(0)) / (y.max(0) - y.min(0))
    return u, y, dt, true


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped (POSIX only): the
    forked CSV parts must all be waited for, on every path."""
    yield
    if os.name != "posix":
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid or '(running)'} "
                f"unreaped")


# One line per acceptance criterion, echoed after the run summary so the
# report is visible even though pytest captures stdout of passing tests.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
