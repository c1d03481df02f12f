"""Estimation quality metrics: per-channel RMSE, accuracy percentage,
innovation whiteness, and open-loop validation fit reports.

The accuracy percentage has no single canonical definition in the
teleoperation literature; every report therefore stamps the formula it
used (``metric_def``).  The default is range-normalized:
100 * (1 - RMSE / (max(truth) - min(truth))).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import as_series
from .errors import DataError, NumericalError
from .sysid import StateSpaceModel, simulate

DEFAULT_METRIC = "nrmse_range"
ACCURACY_METRICS = ("nrmse_range", "one_minus_rmse", "nmae")
_RANGE_NORMALIZED = ("nrmse_range", "nmae")
#: Reports take innovation whiteness over lags 1..WHITENESS_MAX_LAG.
WHITENESS_MAX_LAG = 10


@dataclass(frozen=True)
class EstimationReport:
    """Per-channel quality summary for one filter run or simulation; a
    non-finite RMSE or accuracy is a NumericalError naming the channel."""

    rmse: np.ndarray
    accuracy_pct: np.ndarray
    whiteness: np.ndarray
    n_samples: int
    metric_def: str
    burn_in: int = 0

    def __post_init__(self):
        for name in ("rmse", "accuracy_pct", "whiteness"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        finite = np.isfinite(self.rmse) & np.isfinite(self.accuracy_pct)
        if not finite.all():
            j = np.argmin(finite)
            raise NumericalError(f"output channel {j}: score is not finite "
                                 f"(RMSE {self.rmse[j]}, accuracy "
                                 f"{self.accuracy_pct[j]}%)")
        if not self.metric_def:
            raise DataError("metric_def must be recorded")

    def to_dict(self) -> dict:
        return {
            "rmse": self.rmse.tolist(),
            "accuracy_pct": self.accuracy_pct.tolist(),
            "whiteness": self.whiteness.tolist(),
            "n_samples": self.n_samples,
            "metric_def": self.metric_def,
            "burn_in": self.burn_in,
        }


def _check_pair(estimates, truth):
    estimates = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimates.shape != truth.shape:
        raise DataError(
            f"shape mismatch: estimates {estimates.shape} vs truth {truth.shape}")
    if estimates.size == 0:
        raise DataError("empty series")
    return estimates, truth


def rmse(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared error over all entries."""
    estimates, truth = _check_pair(estimates, truth)
    return float(np.sqrt(np.mean((estimates - truth) ** 2)))


def accuracy_pct(estimates: np.ndarray, truth: np.ndarray,
                 metric_def: str = DEFAULT_METRIC) -> float:
    """Accuracy percentage under the named formula, clipped to [0, 100].

    "nrmse_range"    -- 100 * (1 - RMSE / range(truth))
    "one_minus_rmse" -- 100 * (1 - RMSE); meaningful on [0, 1] data
    "nmae"           -- 100 * (1 - MAE / range(truth))
    """
    estimates, truth = _check_pair(estimates, truth)
    if metric_def == "one_minus_rmse":
        acc = 100.0 * (1.0 - rmse(estimates, truth))
    elif metric_def in _RANGE_NORMALIZED:
        span = float(truth.max() - truth.min())
        if span <= 0:
            raise DataError("truth range is zero; range-normalized accuracy undefined")
        if metric_def == "nrmse_range":
            acc = 100.0 * (1.0 - rmse(estimates, truth) / span)
        else:
            acc = 100.0 * (1.0 - float(np.mean(np.abs(estimates - truth))) / span)
    else:
        raise DataError(f"unknown accuracy metric '{metric_def}'")
    return float(np.clip(acc, 0.0, 100.0))


def innovation_whiteness(innovations: np.ndarray,
                         max_lag: int = WHITENESS_MAX_LAG
                         ) -> tuple[np.ndarray, float]:
    """Max |sample autocorrelation| over lags 1..max_lag, per channel,
    plus the 95% confidence band 1.96/sqrt(N)."""
    acf = autocorrelations(innovations, max_lag)
    n = np.size(innovations) // acf.shape[1]
    return np.abs(acf).max(axis=0), 1.96 / np.sqrt(n)


def autocorrelations(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelation of each channel at lags 1..max_lag,
    shape (max_lag, channels)."""
    if max_lag < 1:
        raise DataError(f"max_lag must be >= 1, got {max_lag}")
    x = as_series(series)
    n = x.shape[0]
    if n <= max_lag:
        raise DataError("series shorter than max_lag")
    # One np.dot per channel and lag, on contiguous rows: about 3x faster
    # than summing elementwise products down the columns of x.
    channels = np.ascontiguousarray((x - x.mean(axis=0)).T)
    sums = np.empty((max_lag + 1, x.shape[1]))
    for j, c in enumerate(channels):
        for lag in range(max_lag + 1):
            sums[lag, j] = np.dot(c[lag:], c[:n - lag])
    if np.any(sums[0] == 0):
        raise DataError("zero-variance channel: autocorrelation undefined")
    return sums[1:] / sums[0]


def check_truth(truth: np.ndarray, metric_def: str,
                burn_in: int) -> np.ndarray:
    """truth[burn_in:], the part of a truth series a report scores, checked
    before any estimate is made: burn_in must leave a sample, and a
    range-normalized metric_def needs every channel to vary there."""
    truth = as_series(truth)
    if burn_in >= truth.shape[0]:
        raise DataError(f"burn_in {burn_in} >= series length {truth.shape[0]}")
    # one contiguous row per channel: max and min down the columns of a
    # few-channel series are slower (41 against 6 us at 1,210 x 3)
    cols = np.ascontiguousarray(truth[burn_in:].T)
    flat = cols.max(axis=1) - cols.min(axis=1) <= 0
    if metric_def in _RANGE_NORMALIZED and flat.any():
        raise DataError(f"output channel {np.argmax(flat)}: truth range is "
                        "zero; range-normalized accuracy undefined")
    return truth[burn_in:]


def report_run(estimates: np.ndarray, truth: np.ndarray,
               innovations: np.ndarray | None = None,
               metric_def: str = DEFAULT_METRIC,
               burn_in: int = 0) -> EstimationReport:
    """Summarize a filter run against ground truth, excluding the first
    ``burn_in`` samples from the error metrics and the whiteness (NaN
    when no innovations are given or too few remain)."""
    estimates, truth = _check_pair(estimates, truth)
    t = check_truth(truth, metric_def, burn_in)
    e = as_series(estimates)[burn_in:]
    channels = e.shape[1]
    # an overflowing square is an inf RMSE, which EstimationReport rejects
    with np.errstate(over="ignore"):
        rmses = np.array([rmse(e[:, j], t[:, j]) for j in range(channels)])
        accs = np.array([accuracy_pct(e[:, j], t[:, j], metric_def)
                         for j in range(channels)])
    white = np.full(channels, np.nan)
    if innovations is not None:
        innovations = as_series(innovations)
        if innovations.shape[0] - burn_in > WHITENESS_MAX_LAG:
            white, _ = innovation_whiteness(innovations[burn_in:])
    return EstimationReport(rmse=rmses, accuracy_pct=accs, whiteness=white,
                            n_samples=e.shape[0], metric_def=metric_def,
                            burn_in=burn_in)


def fit_report(model: StateSpaceModel, inputs: np.ndarray,
               outputs: np.ndarray, metric_def: str = DEFAULT_METRIC,
               burn_in: int = 0) -> tuple[np.ndarray, EstimationReport]:
    """Open-loop validation: check the outputs (check_truth), simulate the
    model on the given inputs and score the prediction against the
    outputs per channel; returns the prediction and its report."""
    outputs = as_series(outputs)
    if outputs.shape[1] != model.m_out:
        raise DataError(
            f"validation outputs have {outputs.shape[1]} channels, "
            f"model expects {model.m_out}")
    check_truth(outputs, metric_def, burn_in)
    predicted = simulate(model, inputs)
    return predicted, report_run(predicted, outputs, metric_def=metric_def,
                                 burn_in=burn_in)
