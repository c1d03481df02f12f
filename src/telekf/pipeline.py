"""Experiment configuration and end-to-end commands.

Every command is a pure function of an ExperimentConfig: the same config
(and toolkit version) produces byte-identical primary outputs on the same
machine, numpy/BLAS build and BLAS thread count.  Output files embed the
config hash and the accuracy metric definition so results remain
interpretable in isolation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import dataio, estimator, metrics, netsim, sysid
from .errors import ConfigError, DataError, TelekfError


def derive_seed(master_seed: int, index: int) -> int:
    """Per-scenario seed: 64-bit blake2b digest of "master:index"."""
    digest = hashlib.blake2b(f"{master_seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = ""
    validation_dataset: str = ""
    model_path: str = ""  # reuse a previously identified model
    dt: float | None = None
    block_rows: int = 20
    energy: float = 0.85  # cumulative-energy order rule
    fixed_order: int | None = None  # overrides the energy rule when set
    eps_q: float = 1e-4
    eps_r: float = 1e-4
    bootstrap_iterations: int = 1
    burn_in: int | None = None  # None -> 10 * model order
    scenarios: str | list = "suite"  # "suite" or a list of scenario dicts
    sample_delay_range: bool = False
    master_seed: int = 0
    metric_def: str = metrics.DEFAULT_METRIC
    out_dir: str = "out"

    def __post_init__(self):
        if self.scenarios != "suite" and not isinstance(self.scenarios, list):
            raise ConfigError(
                f"scenarios must be 'suite' or a list, got {self.scenarios!r}")
        valid = {"metric_def": self.metric_def in metrics.ACCURACY_METRICS,
                 "block_rows": self.block_rows >= 1,
                 "energy": 0 < self.energy <= 1,
                 "fixed_order": (self.fixed_order is None
                                 or self.fixed_order >= 1),
                 # NaN fails every comparison, so it is rejected with inf
                 "dt": self.dt is None or 0 < self.dt < np.inf,
                 "eps_q": 0 < self.eps_q < np.inf,
                 "eps_r": 0 < self.eps_r < np.inf,
                 "bootstrap_iterations": self.bootstrap_iterations >= 1,
                 "burn_in": self.burn_in is None or self.burn_in >= 0}
        bad = [f"{k}={getattr(self, k)!r}" for k, ok in valid.items() if not ok]
        if bad:
            raise ConfigError(f"invalid config values: {', '.join(bad)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        kinds = {f.name: f.type for f in fields(cls)}
        return cls(**dataio.check_keys(doc, kinds, "config"))

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def resolve_scenarios(self) -> list[netsim.NetworkScenario]:
        if self.scenarios == "suite":
            base = netsim.scenario_suite()
        else:
            base = [netsim.NetworkScenario.from_dict(d) for d in self.scenarios]
        return [s.with_seed(derive_seed(self.master_seed, i))
                for i, s in enumerate(base)]


def _stamp(config: ExperimentConfig) -> str:
    return f"# config_hash={config.config_hash} metric_def={config.metric_def}"


def _write_json(path, config: ExperimentConfig, doc: dict, **extra) -> None:
    """Write ``doc`` as strict JSON stamped with the config hash, which
    follows doc's own keys (or keeps its place when doc has one), then
    ``extra``; a non-finite float is written as null."""
    doc = {**doc, "config_hash": config.config_hash, **extra}
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:  # a non-finite float; the walk is paid only then
        text = json.dumps(_finite_or_none(doc), indent=2, allow_nan=False)
    with open(path, "w") as f:
        f.write(text)


def _finite_or_none(doc):
    """JSON has no inf/nan: ``doc`` with every non-finite float in its
    dicts and lists made None, to be written as null."""
    if isinstance(doc, dict):
        return {k: _finite_or_none(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_finite_or_none(v) for v in doc]
    if isinstance(doc, float) and not np.isfinite(doc):
        return None
    return doc


def _load_and_normalize(config: ExperimentConfig):
    if not config.dataset:
        raise ConfigError("config has no dataset path")
    return dataio.normalize(dataio.load_dataset(config.dataset, dt=config.dt))


def _identify(config: ExperimentConfig, norm: dataio.TrajectoryDataset):
    return sysid.identify(
        norm.inputs, norm.outputs, block_rows=config.block_rows,
        energy=config.energy, fixed=config.fixed_order)


def _burn_in(config: ExperimentConfig, model: sysid.StateSpaceModel) -> int:
    return 10 * model.order if config.burn_in is None else config.burn_in


def _out_dir(config: ExperimentConfig) -> Path:
    """Create the output directory; commands call this once their inputs
    have loaded, so a rejected run leaves no directory behind.  A path
    that cannot be a directory (a file, or a path through one) is a
    ConfigError."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_identify(config: ExperimentConfig) -> dict:
    """Identify a model from the config's dataset.

    Writes model.json (read back by load_model), singular_values.csv
    (scree data) and identify_log.json into the output directory.  Each
    "norm_params" channel entry holds a channel's name, role ("input" or
    "output"), min, max and whether it is constant; like "dt" (the
    dataset's), the names and flags are only informational.
    """
    norm, params = _load_and_normalize(config)
    model, decomp, order = _identify(config, norm)
    out = _out_dir(config)

    channels = [{"name": name, "role": role, "min": float(lo),
                 "max": float(hi), "constant": bool(lo == hi)}
                for role, names, sc in (
                    ("input", norm.input_names, params.inputs),
                    ("output", norm.output_names, params.outputs))
                for name, lo, hi in zip(names, sc.mins, sc.maxs)]
    model_path = out / "model.json"
    _write_json(model_path, config, {
        "order": model.order, "dt": norm.dt, "A": model.A.tolist(),
        "B": model.B.tolist(), "C": model.C.tolist(), "D": model.D.tolist(),
        "spectral_radius": model.spectral_radius,
        "flags": {"unstable": model.is_unstable},
        "norm_params": {"channels": channels}})

    scree_path = out / "singular_values.csv"
    dataio.write_table(scree_path, ["index", "singular_value"],
                       decomp.singular_values[:, None].tolist(),
                       stamp=_stamp(config), first_index=1)

    ss = decomp.singular_values
    log = {
        "config_hash": config.config_hash,
        "order": order,
        "criterion": "energy" if config.fixed_order is None else "fixed",
        "energy_ratio": float(np.sum(ss[:order]) / np.sum(ss)),
        "spectral_radius": model.spectral_radius,
        "unstable": model.is_unstable,
        "warnings": list(decomp.warnings),
        "n_singular_values": int(ss.size),
        "lq_method": decomp.lq_method,
        "lq_cond_est": decomp.lq_cond_est,
        "cond_r11": decomp.cond_r11,
    }
    log_path = out / "identify_log.json"
    _write_json(log_path, config, log)
    return {"model": model, "decomposition": decomp, "order": order,
            "paths": {"model": model_path, "scree": scree_path, "log": log_path}}


def load_model(path) -> tuple[sysid.StateSpaceModel,
                              dataio.NormalizationParams]:
    """Read the matrices and normalization params of a model.json written
    by cmd_identify, grouping the channel entries' min and max by role;
    an unreadable file or a malformed document (bad matrix shapes and
    scaling, channel entries that do not match B's columns and C's rows,
    and a NaN or Infinity token, included) is a DataError that names the
    file."""
    try:
        doc = dataio.read_json(path, "model")
        model = sysid.StateSpaceModel(*(doc[name] for name in "ABCD"))
        by_role = {"input": ([], []), "output": ([], [])}
        for entry in doc["norm_params"]["channels"]:
            mins, maxs = by_role[entry["role"]]
            mins.append(entry["min"])
            maxs.append(entry["max"])
        for role, width in (("input", model.m_in), ("output", model.m_out)):
            count = len(by_role[role][0])
            if count != width:
                raise DataError(
                    f"{count} {role} channel entries for {width} {role}s")
        return model, dataio.NormalizationParams(
            *(dataio.ChannelScaling(*by_role[role])
              for role in ("input", "output")))
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError,
            DataError) as exc:  # ValueError: non-numbers
        raise DataError(
            f"cannot load StateSpaceModel from {path}: {exc!r}") from exc


def model_and_data(config: ExperimentConfig, path: str) -> tuple[
        sysid.StateSpaceModel, dataio.TrajectoryDataset]:
    """The config's model, read from model_path or identified from its
    dataset, and the recording at ``path`` normalized with that model's
    scaling, its channel counts checked against the model's.  A model
    identified from ``path`` itself comes with its identification data."""
    if config.model_path:
        model, params = load_model(config.model_path)
    else:
        norm, params = _load_and_normalize(config)
        model, _, _ = _identify(config, norm)
        if path == config.dataset:
            return model, norm
    raw = dataio.load_dataset(path, dt=config.dt)
    if (raw.m_in, raw.m_out) != (model.m_in, model.m_out):
        raise DataError(f"{path} is {raw.m_in}x{raw.m_out} channels, model "
                        f"expects {model.m_in}x{model.m_out}")
    return model, dataio.normalize(raw, params=params)[0]


def score_stream(config: ExperimentConfig, model: sysid.StateSpaceModel,
                 inputs: np.ndarray, observed: np.ndarray, truth: np.ndarray):
    """Bootstrap Q/R on an observed stream with the config's eps_q, eps_r
    and bootstrap_iterations, filter it and score the estimates against
    the truth by the config's metric_def and burn-in; returns noise, run
    and report.  They depend on the stream alone, so scenarios that
    deliver the same stream can share them."""
    noise = estimator.estimate_noise_empirical(
        model, inputs, observed, eps_q=config.eps_q, eps_r=config.eps_r,
        iterations=config.bootstrap_iterations)
    run = estimator.run_filter(model, noise, inputs, observed)
    report = metrics.report_run(run.estimates, truth,
                                innovations=run.innovations,
                                metric_def=config.metric_def,
                                burn_in=_burn_in(config, model))
    return noise, run, report


def cmd_sweep(config: ExperimentConfig) -> dict:
    """Run the scenario sweep and write a Table-style summary CSV plus
    per-scenario run exports.  Per-scenario toolkit errors (TelekfError)
    are recorded in the summary without aborting the sweep; any other
    exception is a bug and propagates.

    Scenarios whose channel delivers a stream bit-identical to an earlier
    scenario's reuse that scenario's bootstrap, filter run and run CSV;
    their reports name it in ``same_stream_as``.  Labels must be unique,
    since each names its scenario's files."""
    scenarios = config.resolve_scenarios()
    tags = [s.label or f"scenario_{i + 1}" for i, s in enumerate(scenarios)]
    repeated = sorted({t for t in tags if tags.count(t) > 1})
    if repeated:
        raise ConfigError(f"scenario labels repeat: {repeated}")
    if not config.dataset:
        raise ConfigError("sweep needs a dataset (for inputs and truth)")
    model, norm = model_and_data(config, config.dataset)
    out = _out_dir(config)

    out_names = norm.output_names
    columns = (["scenario", "nj_ms", "nd_ms", "np_pct"]
               + [f"acc_{n}" for n in out_names]
               + [f"rmse_{n}" for n in out_names]
               + ["status"])
    run_cols = (["k"] + [f"z_{n}" for n in out_names]
                + [f"yhat_{n}" for n in out_names]
                + [f"innov_{n}" for n in out_names])
    rows = []
    reports = []
    # observed stream bytes -> (tag, noise, report, gain_converged_step) of
    # the first scenario that delivered it
    first_seen = {}
    for tag, scenario in zip(tags, scenarios):
        head = [tag, scenario.nj_ms, scenario.nd_ms, scenario.loss_prob * 100.0]
        try:
            stream = netsim.impair(
                norm.outputs, scenario, norm.dt,
                sample_delay_range=config.sample_delay_range)
            key = stream.observed.tobytes()
            if key not in first_seen:
                noise, run, report = score_stream(
                    config, model, norm.inputs, stream.observed, norm.outputs)
                first_seen[key] = (tag, noise, report, run.gain_converged_step)
                dataio.write_table(
                    out / f"{tag}_run.csv", run_cols,
                    np.hstack([stream.observed, run.estimates,
                               run.innovations]).tolist(),
                    stamp=_stamp(config))
        except TelekfError as exc:  # keep sweeping; record the failure
            rows.append(head + [""] * (2 * len(out_names))
                        + [f"error: {exc}"])
            reports.append(None)
            continue
        first, noise, report, converged = first_seen[key]
        same_as = None if first == tag else first
        rows.append(head + [f"{a:.4f}" for a in report.accuracy_pct]
                    + [f"{r:.6f}" for r in report.rmse]
                    + ["ok"])
        reports.append(report)

        if same_as is not None:
            shutil.copyfile(out / f"{same_as}_run.csv", out / f"{tag}_run.csv")
        delivered = ~stream.loss_mask
        delays = (np.flatnonzero(delivered) + 1
                  - stream.source_index[delivered])
        _write_json(out / f"{tag}_report.json", config,
                    {**report.to_dict(), "scenario": scenario.to_dict()},
                    noise=noise.to_dict(), gain_converged_step=converged,
                    rows_changed=int(np.any(stream.observed != norm.outputs,
                                            axis=1).sum()),
                    lost=int(stream.loss_mask.sum()),
                    same_stream_as=same_as,
                    mean_delay_samples=(float(delays.mean()) if delays.size
                                        else None))

    summary_path = out / "sweep_summary.csv"
    with open(summary_path, "w", newline="") as f:
        f.write(_stamp(config) + "\n")
        csv.writer(f).writerows([columns] + rows)
    return {"summary": summary_path, "reports": reports, "model": model}


def cmd_validate(config: ExperimentConfig) -> dict:
    """Score a model open loop on a validation dataset; writes
    fit_report.json and an estimate-vs-truth CSV."""
    if not config.validation_dataset:
        raise ConfigError("config has no validation_dataset path")
    model, norm = model_and_data(config, config.validation_dataset)
    predicted, report = metrics.fit_report(
        model, norm.inputs, norm.outputs, metric_def=config.metric_def,
        burn_in=_burn_in(config, model))

    out = _out_dir(config)
    report_path = out / "fit_report.json"
    _write_json(report_path, config, report.to_dict())

    series_path = out / "validation_series.csv"
    cols = (["k"] + [f"truth_{n}" for n in norm.output_names]
            + [f"pred_{n}" for n in norm.output_names])
    dataio.write_table(series_path, cols,
                       np.hstack([norm.outputs, predicted]).tolist(),
                       stamp=_stamp(config))
    return {"report": report, "paths": {"report": report_path,
                                        "series": series_path}}


def cmd_impair(config: ExperimentConfig, scenario_index: int = 0) -> dict:
    """Channel-only dry run: impair the dataset's outputs under one
    scenario and export the observed stream."""
    scenarios = config.resolve_scenarios()
    if not 0 <= scenario_index < len(scenarios):
        raise ConfigError(
            f"scenario index {scenario_index} outside 0..{len(scenarios) - 1}")
    scenario = scenarios[scenario_index]
    norm, _ = _load_and_normalize(config)
    stream = netsim.impair(norm.outputs, scenario, norm.dt,
                           sample_delay_range=config.sample_delay_range)
    path = _out_dir(config) / "impaired.csv"
    cols = (["k"] + [f"obs_{n}" for n in norm.output_names]
            + ["source_index", "lost"])
    rows = [obs + [src, lost] for obs, src, lost in zip(
        stream.observed.tolist(), stream.source_index.tolist(),
        stream.loss_mask.astype(int).tolist())]
    dataio.write_table(path, cols, rows, stamp=_stamp(config))
    return {"stream": stream, "path": path, "scenario": scenario}


def cmd_calibrate_accuracy(config: ExperimentConfig) -> dict:
    """Score candidate accuracy formulas against the published pairs and
    write the ranking."""
    result = metrics.calibrate_accuracy()
    path = _out_dir(config) / "accuracy_calibration.json"
    _write_json(path, config, result)
    return {"result": result, "path": path}
