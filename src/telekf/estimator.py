"""Kalman filtering over impaired measurement streams, with empirical
bootstrap of the process and measurement noise covariances from residuals.

The measurement update applies each output channel as a scalar update
against the matching diagonal entry of R (off-diagonal R is ignored); for
diagonal R this equals the joint vector update.  run_filter computes the
data-independent gains first and freezes them once the covariance
settles; it then steps the states one sample at a time up to the freeze
and covers the time-invariant rest in one blocked affine pass
(sysid._affine_pass).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dataio import as_series
from .errors import DataError, NumericalError
from .sysid import StateSpaceModel, _affine_pass, _map_rows


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * P + 0.5 * P.T  # P + P.T overflows above ~9e307


def _covariance(M, name: str) -> np.ndarray:
    """The one check of a covariance (Q, R or a given P0): square, finite,
    symmetric and PSD up to 1e-12 max(1, max|M|); negative eigenvalues
    within that tolerance are clipped to zero."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DataError(f"{name} must be a square matrix, got {M.shape}")
    if not np.isfinite(M).all():
        raise NumericalError(f"non-finite entries in {name}")
    tol = 1e-12 * max(1.0, np.abs(M).max())
    if np.abs(M - M.T).max() > tol:
        raise DataError(f"{name} is not symmetric")
    M = _symmetrize(M)
    w, V = np.linalg.eigh(M)
    if w.min() < -tol:
        raise DataError(f"{name} is not positive semidefinite")
    if w.min() < 0.0:
        M = _symmetrize(V @ np.diag(np.maximum(w, 0.0)) @ V.T)
    return M


@dataclass(frozen=True)
class NoiseModel:
    """Process (Q) and measurement (R) noise covariances; see _covariance."""

    Q: np.ndarray
    R: np.ndarray
    provenance: str = "initial"  # "initial" | "empirical"

    def __post_init__(self):
        for name in ("Q", "R"):
            object.__setattr__(self, name,
                               _covariance(getattr(self, name), name))

    def to_dict(self) -> dict:
        return {"Q": self.Q.tolist(), "R": self.R.tolist(),
                "provenance": self.provenance}


@dataclass(frozen=True)
class EstimationRun:
    """Filter trajectory: per-step output estimates C x_hat + D u,
    innovations z - D u - C x_prior, and the posterior state sequence.

    gain_converged_step is the sample index (0-based, as the run CSV's k
    column) from which the gain was held constant, or None when the
    covariance never settled within the stream.
    """

    estimates: np.ndarray
    innovations: np.ndarray
    states: np.ndarray
    gain_converged_step: int | None = None


def _row_updates(P: np.ndarray, C: np.ndarray,
                 r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply each row of C as a scalar update against r[d].

    Returns the posterior covariance and the gain G of the composed
    update x_post = x + G (z - C x); an innovation variance that is not
    positive and finite raises NumericalError.
    """
    P = P.copy()
    G = np.zeros((P.shape[0], C.shape[0]))
    for d, c in enumerate(C):
        Pc = P @ c
        s = c @ Pc + r[d]
        if not 0 < s < np.inf:
            raise NumericalError(f"degenerate innovation variance {s}")
        K = Pc / s
        G -= np.outer(K, c @ G)
        G[:, d] += K
        # Joseph form collapsed for a scalar gain K = Pc/s:
        # (I-Kc) P (I-Kc)^T + r K K^T == P - Pc Pc^T / s.
        P -= Pc[:, None] * K
    return P, G


# The gain is frozen once the posterior covariance moves by no more than
# _FREEZE_RTOL of its largest entry.  The step shrinks geometrically, at
# about rho^2 for rho the spectral radius of the closed loop (I - G C) A,
# so it leaves a distance of about _FREEZE_RTOL / (1 - rho^2) to the
# steady state.  A tolerance of a few ulps would sit inside the rounding
# noise of the step itself: the last bits of Q would then decide when, and
# whether, the gain freezes.  1e-12 is well above that noise and still
# close: a 1-3 ulp change of Q leaves the freeze step alone, and at
# rho = 0.994 the estimates stay within 4e-13 of a filter that never
# freezes.
_FREEZE_RTOL = 1e-12


def _gain_schedule(A: np.ndarray, C: np.ndarray, Q: np.ndarray,
                   r: np.ndarray, P0: np.ndarray,
                   n_samples: int) -> tuple[np.ndarray, int | None]:
    """Gains G_k of x_k = x_k^- + G_k (z_k - C x_k^-) for k = 1, 2, ...

    Runs the covariance recursion (predict, then _row_updates) and stops
    at the first k whose posterior covariance differs from the previous
    one by at most _FREEZE_RTOL * max|P_k|; G_k then holds for every later
    sample.  Returns the gains up to that k, stacked and read-only, and k
    (None when P does not settle within n_samples); a non-finite
    predicted covariance or innovation variance raises NumericalError
    naming its sample.
    """
    P_prev = P0
    gains = []
    frozen_at = None
    # an overflow shows up as a non-finite P or s, which raises below
    with np.errstate(over="ignore"):
        for k in range(1, n_samples):
            P = _symmetrize(A @ P_prev @ A.T + Q)
            try:
                if not np.isfinite(P).all():
                    raise NumericalError("predicted covariance is not finite")
                P, G = _row_updates(P, C, r)
            except NumericalError as exc:
                raise NumericalError(f"sample {k + 1}: {exc}") from exc
            gains.append(G)
            if np.abs(P - P_prev).max() <= _FREEZE_RTOL * np.abs(P).max():
                frozen_at = k
                break
            P_prev = P
    stacked = np.array(gains).reshape(-1, A.shape[0], C.shape[0])
    stacked.flags.writeable = False
    return stacked, frozen_at


@functools.lru_cache(maxsize=8)
def _cached_schedule(key, n_samples):
    """_gain_schedule memoized on the exact bytes of its inputs: every
    final pass of one sweep filters with the same noise and P0."""
    A, C, Q, r, P0 = (np.frombuffer(b).reshape(shape) for shape, b in key)
    return _gain_schedule(A, C, Q, r, P0, n_samples)


def run_filter(model: StateSpaceModel, noise: NoiseModel, inputs: np.ndarray,
               measurements: np.ndarray,
               x0: np.ndarray | None = None,
               P0: np.ndarray | None = None) -> EstimationRun:
    """Run predict/update over the full stream.

    Sample 1 keeps the initial state (x0 = 0, P0 = I by default); from
    sample 2 on, the filter predicts with B u(k-1) and updates against
    z(k) - D u(k), both terms from model.input_terms and z the observed
    (possibly impaired) measurement, one scalar update per row of C
    against diag(R): off-diagonal R is ignored.  Estimates are C x + D u.
    The gains depend only on (A, C, Q, diag R, P0), so they are computed
    first and frozen once the covariance stops changing
    (gain_converged_step); the state pass is then x_k = M_k A x_{k-1}
    + M_k B u_{k-1} + G_k (z_k - D u_k) with M_k = I - G_k C, stepped once
    per sample up to gain_converged_step; past it M and G are constant,
    and one blocked affine pass gives the rest (sysid._affine_pass: blocks
    of _BLOCK samples, whose starts a nested pass on (M A)^_BLOCK carries
    across on long streams; each level halves its block while one of its
    powers overflows).  A given P0 passes the check of Q and R
    (_covariance) and must be order x order.  An innovation variance that
    is not positive and finite raises NumericalError naming the sample.
    """
    z_seq = as_series(measurements)
    Bu, Du = model.input_terms(inputs)
    n_samples = Du.shape[0]
    if z_seq.shape[0] != n_samples:
        raise DataError(
            f"inputs ({n_samples}) and measurements ({z_seq.shape[0]}) "
            f"have different lengths")
    if z_seq.shape[1] != model.m_out:
        raise DataError(f"measurement has {z_seq.shape[1]} channels, "
                        f"model expects {model.m_out}")
    z = z_seq - Du  # D does not enter the gains; the filter works on z - D u
    n = model.order
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    P0 = np.eye(n) if P0 is None else _covariance(P0, "P0")
    if P0.shape != (n, n):
        raise DataError(f"P0 is {P0.shape}, model order is {n}")
    A, C = model.A, model.C

    key = tuple((a.shape, a.tobytes())
                for a in (A, C, noise.Q, np.diag(noise.R), P0))
    G, frozen_at = _cached_schedule(key, n_samples)
    n_sched = G.shape[0]
    M = np.eye(n) - G @ C
    # Rows 1.. first hold h_k = M_k B u_{k-1} + G_k z_k; the loop then adds
    # F_k x_{k-1}, in order, to turn each into x_k.
    states = np.empty((n_sched + 1, n))
    states[0] = x
    states[1:] = (np.einsum("kij,kj->ki", M, Bu[:n_sched])
                  + np.einsum("kij,kj->ki", G, z[1:n_sched + 1]))
    rows = list(states)
    for F_k, prev, row in zip(M @ A, rows, rows[1:]):
        row += np.dot(F_k, prev)
    if frozen_at is not None:  # the last gain holds for the rest
        tail = _affine_pass(M[-1] @ A, states[-1],
                            _map_rows(M[-1], Bu[n_sched:])
                            + _map_rows(G[-1], z[n_sched + 1:]))
        states = np.concatenate([states[:-1], tail])

    innovations = np.empty((n_samples, model.m_out))
    innovations[0] = z[0] - C @ states[0]
    innovations[1:] = z[1:] - _map_rows(C, _map_rows(A, states[:-1]) + Bu)
    return EstimationRun(estimates=_map_rows(C, states) + Du,
                         innovations=innovations,
                         states=states, gain_converged_step=frozen_at)


def estimate_noise_empirical(
    model: StateSpaceModel, inputs: np.ndarray, outputs: np.ndarray,
    eps_q: float = 1e-4, eps_r: float = 1e-4, iterations: int = 1,
) -> NoiseModel:
    """Bootstrap Q and R from filter residuals.

    Starting from Q = eps_q I, R = eps_r I, run the filter from its default
    start (x0 = 0, P0 = I), then form
    measurement residuals r_y(k) = y(k) - y_hat(k), y_hat = C x_hat + D u,
    and process residuals r_x(k) = x_hat(k) - A x_hat(k-1) - B u(k-1),
    with the input terms the filter uses (model.input_terms), and take
    R = (1/N) sum r_y r_y^T, Q = (1/(N-1)) sum r_x r_x^T.  Additional
    iterations re-run the filter with the empirical values.
    """
    if iterations < 1:
        raise DataError("iterations must be >= 1")
    outputs = as_series(outputs)
    Bu, _ = model.input_terms(inputs)
    n_samples = outputs.shape[0]
    if n_samples < 2:
        raise DataError("need at least 2 samples to estimate covariances")

    if eps_q <= 0 or eps_r <= 0:
        raise DataError("eps_q and eps_r must be positive")
    noise = NoiseModel(Q=eps_q * np.eye(model.order),
                       R=eps_r * np.eye(model.m_out))
    for _ in range(iterations):
        run = run_filter(model, noise, inputs, outputs)
        r_y = outputs - run.estimates
        # r_x(k) = x(k) - A x(k-1) - B u(k-1), k = 2..N
        r_x = run.states[1:] - _map_rows(model.A, run.states[:-1]) - Bu
        R_emp = (r_y.T @ r_y) / n_samples
        Q_emp = (r_x.T @ r_x) / (n_samples - 1)
        noise = NoiseModel(Q=Q_emp, R=R_emp, provenance="empirical")
    return noise
