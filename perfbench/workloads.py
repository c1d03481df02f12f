"""The three benchmark workloads: seeded inputs, one timed iteration, and
the checks that decide whether the program's outputs are correct.

Each workload's plant (the true system behind the data) is fixed, so runs
with different seeds measure the same problem; the seed draws the input
signals, the noise and the channel randomness.  The program receives only
the generated CSV files or arrays.

An operation is one CLI command, one scenario row or one ``run_filter``
call.  ``check`` returns the names of the operations of an iteration that
failed: they raised, exited non-zero, wrote an "error:" row, produced a
non-finite value, or produced output that a check below rejects.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import shutil
import time
from pathlib import Path

import numpy as np

STAMP = re.compile(r"^# config_hash=([0-9a-f]{12}) ")
MAX_LAG = 10  # innovation autocorrelations are taken at lags 1..MAX_LAG

# Full and tiny (smoke-test) sizes of each workload.
SIZES = {
    "full": {"c11_samples": 1240, "long_samples": 36_000,
             "val_samples": 12_000, "filter_models": 8,
             "filter_samples": 10_000},
    "tiny": {"c11_samples": 300, "long_samples": 1_500, "val_samples": 500,
             "filter_models": 2, "filter_samples": 1_000},
}


def random_stable_system(rng, order, m_in, m_out, radius=0.9):
    """A, B, C, D of a random system with spectral radius below radius."""
    A = rng.standard_normal((order, order))
    ev = np.max(np.abs(np.linalg.eigvals(A)))
    A = A * (rng.uniform(0.5, radius) / max(ev, 1e-12))
    B = rng.standard_normal((order, m_in))
    C = rng.standard_normal((m_out, order))
    D = rng.standard_normal((m_out, m_in))
    return A, B, C, D


def simulate_noisy(plant, u, q, r, rng):
    """Simulate with isotropic process noise q and measurement noise r;
    returns the measured outputs and the measurement-noise-free outputs."""
    A, B, C, D = plant
    n, m_out, N = A.shape[0], C.shape[0], u.shape[0]
    w = rng.standard_normal((N, n)) * np.sqrt(q)
    v = rng.standard_normal((N, m_out)) * np.sqrt(r)
    x = np.zeros(n)
    y_true = np.empty((N, m_out))
    for k in range(N):
        y_true[k] = C @ x + D @ u[k]
        x = A @ x + B @ u[k] + w[k]
    return y_true + v, y_true


def write_csv(path, u, y, dt=1 / 30):
    """Write the CSV layout telekf.dataio.load_dataset reads."""
    header = (["t"] + [f"u:u{i}" for i in range(u.shape[1])]
              + [f"y:y{i}" for i in range(y.shape[1])])
    table = np.column_stack([np.arange(u.shape[0]) * dt, u, y]).tolist()
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.write("\n".join(",".join(map(repr, row)) for row in table) + "\n")


def minmax(y, ref):
    """Min-max scale y with the statistics of ref, as telekf normalizes."""
    lo, hi = ref.min(axis=0), ref.max(axis=0)
    return (y - lo) / (hi - lo)


def read_stamped_csv(path):
    """Return the config hash (None if unstamped) and the data rows of a
    CSV written by telekf: a stamp line, a header, then the rows."""
    with open(path, newline="") as f:
        m = STAMP.match(f.readline())
        reader = csv.reader(f)
        next(reader)
        rows = list(reader)
    return (m.group(1) if m else None), rows


def autocorrelations(e):
    """Sample autocorrelations of a 1-D series at lags 1..MAX_LAG."""
    e = e - e.mean()
    return np.array([e[lag:] @ e[:-lag] for lag in
                     range(1, MAX_LAG + 1)]) / (e @ e)


def inside_band(acf, n) -> int:
    """How many autocorrelations lie inside the white-noise band
    +/-1.96/sqrt(n)."""
    return int(np.sum(np.abs(acf) <= 1.96 / np.sqrt(n)))


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def _finite(values) -> bool:
    try:
        return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))
    except (TypeError, ValueError):
        return False


class CliWorkload:
    """Two telekf commands driven in-process through telekf.cli.main.

    Every iteration writes into an emptied output directory.  The first
    iteration's files get the full content checks; every later iteration
    must reproduce them byte for byte, which also proves the README's
    determinism claim.
    """

    warmup_iterations = 1
    extra_operations: list[str] = []

    def __init__(self, telekf, work: Path):
        self.cli = telekf.cli
        self.out = work / "out"
        self.reference = None      # file digests of the first iteration
        self.ref_failed: list[str] = []
        self.quality: dict = {}
        self.last_codes: list = []
        self.last_times: list[float] = []
        self.last_log = ""

    def iterate(self) -> float:
        """Run the commands; return the seconds spent in them."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.last_codes, self.last_times = [], []
        log = io.StringIO()
        clock = time.perf_counter
        start = clock()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for argv in self.commands:
                t0 = clock()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a program bug fails the operation
                    code = f"{type(exc).__name__}: {exc}"
                self.last_times.append(clock() - t0)
                self.last_codes.append(code)
                if code != 0:
                    break
        elapsed = clock() - start
        self.last_log = log.getvalue()
        return elapsed

    @property
    def operations(self) -> list[str]:
        return [argv[0] for argv in self.commands] + self.extra_operations

    def check(self) -> list[str]:
        """Names of the operations of the last iteration that failed."""
        failed = []
        for argv, code in zip(self.commands, self.last_codes):
            if code != 0:
                failed.append(argv[0])
        ran = len(self.last_codes)
        if ran < len(self.commands) or failed:
            # A command that did not run, or whose outputs are missing,
            # fails together with everything it would have produced.
            failed += [argv[0] for argv in self.commands[ran:]]
            return sorted(set(failed) | set(self.extra_operations))
        digests = _digests(self.out)
        if self.reference is None:
            self.reference = digests
            try:
                self.ref_failed = self.check_content()
            except (OSError, ValueError, KeyError, IndexError,
                    TypeError) as exc:
                self.ref_failed = list(self.operations)
                self.last_log += f"check error: {exc!r}\n"
            return list(self.ref_failed)
        failed = list(self.ref_failed)
        for name in set(digests) | set(self.reference):
            if digests.get(name) != self.reference.get(name):
                failed.append(self.owner(name))
        return sorted(set(failed))

    def command_of(self, filename: str) -> str:
        """The command that writes the file."""
        if filename in ("model.json", "singular_values.csv",
                        "identify_log.json"):
            return "identify"
        return self.commands[1][0]

    def owner(self, filename: str) -> str:
        """The operation that fails when the file is wrong."""
        return self.command_of(filename)

    def check_stamps(self, names) -> list[str]:
        """Every file must carry one config hash per writing command."""
        stamps: dict[str, set] = {}
        failed = []
        for name in names:
            path = self.out / name
            if not path.is_file():
                failed.append(self.owner(name))
                continue
            if name.endswith(".json"):
                stamp = json.loads(path.read_text()).get("config_hash")
                ok = isinstance(stamp, str) and re.fullmatch(
                    "[0-9a-f]{12}", stamp)
            else:
                stamp, _ = read_stamped_csv(path)
                ok = stamp is not None
            if not ok:
                failed.append(self.owner(name))
            stamps.setdefault(self.command_of(name), set()).add(stamp)
        failed += [op for op, s in stamps.items() if len(s) != 1]
        return failed

    def check_identify(self) -> list[str]:
        model = json.loads((self.out / "model.json").read_text())
        log = json.loads((self.out / "identify_log.json").read_text())
        _, rows = read_stamped_csv(self.out / "singular_values.csv")
        ss = np.array([float(r[1]) for r in rows])
        ok = (all(_finite(model[k]) for k in "ABCD")
              and log["order"] == model["order"] == len(model["A"])
              and _finite(ss) and np.all(ss >= 0)
              and np.all(np.diff(ss) <= 0))
        self.order = model["order"]
        return [] if ok else ["identify"]


class SweepC11(CliWorkload):
    """identify --block-rows 20, then the six-scenario sweep with --seed."""

    name = "sweep_c11"
    n_scenarios = 6

    def __init__(self, telekf, work: Path, seed: int, size: dict):
        super().__init__(telekf, work)
        plant = random_stable_system(np.random.default_rng(11), 3, 3, 3)
        rng = np.random.default_rng([1, seed])
        u = rng.standard_normal((size["c11_samples"], 3))
        y, _ = simulate_noisy(plant, u, 1e-4, 1e-4, rng)
        self.truth = minmax(y, y)
        data = str(work / "c11.csv")
        write_csv(data, u, y)
        out = str(self.out)
        self.commands = [
            ["identify", "--dataset", data, "--out", out,
             "--block-rows", "20"],
            ["sweep", "--dataset", data, "--model", f"{out}/model.json",
             "--out", out, "--block-rows", "20", "--seed", str(seed)],
        ]
        self.extra_operations = [f"scenario_{i + 1}"
                                 for i in range(self.n_scenarios)]

    def owner(self, filename: str) -> str:
        m = re.match(r"(scenario_\d+)_", filename)
        return m.group(1) if m else super().owner(filename)

    def check_content(self) -> list[str]:
        tags = [f"scenario_{i + 1}" for i in range(self.n_scenarios)]
        names = (["model.json", "singular_values.csv", "identify_log.json",
                  "sweep_summary.csv"] + [f"{t}_run.csv" for t in tags]
                 + [f"{t}_report.json" for t in tags])
        failed = self.check_stamps(names) + self.check_identify()
        _, rows = read_stamped_csv(self.out / "sweep_summary.csv")
        m_out = self.truth.shape[1]
        burn = 10 * self.order
        accs, rmses, inside = [], [], []
        if [r[0] for r in rows] != tags:
            return sorted(set(failed + tags))
        for tag, row in zip(tags, rows):
            if row[-1] != "ok" or tag in failed:
                failed.append(tag)
                continue
            acc = np.array(row[4:4 + m_out], dtype=float)
            err = np.array(row[4 + m_out:4 + 2 * m_out], dtype=float)
            if not (_finite(acc) and _finite(err)):
                failed.append(tag)
                continue
            _, run_rows = read_stamped_csv(self.out / f"{tag}_run.csv")
            run = np.array(run_rows, dtype=float)
            report = json.loads((self.out / f"{tag}_report.json").read_text())
            yhat = run[:, 1 + m_out:1 + 2 * m_out]
            t = self.truth[burn:]
            own_rmse = np.sqrt(np.mean((yhat[burn:] - t) ** 2, axis=0))
            own_acc = 100 * (1 - own_rmse / (t.max(axis=0) - t.min(axis=0)))
            if not (_finite(run) and _finite(report["rmse"])
                    and run.shape[0] == self.truth.shape[0]
                    and np.allclose(own_rmse, err, rtol=0, atol=1e-6)
                    and np.allclose(own_acc, acc, rtol=0, atol=1e-4)
                    and np.allclose(report["rmse"], err, rtol=0, atol=1e-6)):
                failed.append(tag)
            accs.append(own_acc)
            rmses.append(own_rmse)
            innov = run[burn:, 1 + 2 * m_out:]
            inside += [inside_band(autocorrelations(innov[:, j]),
                                   innov.shape[0]) for j in range(m_out)]
        if accs:
            self.quality = {"acc_mean_pct": float(np.mean(accs)),
                            "rmse_max": float(np.max(rmses)),
                            "white_frac": sum(inside)
                            / (MAX_LAG * len(inside))}
        return sorted(set(failed))


class IdentifyLong(CliWorkload):
    """identify --block-rows 20 on a long, wide recording, then validate
    the written model on a separate recording."""

    name = "identify_long"

    def __init__(self, telekf, work: Path, seed: int, size: dict):
        super().__init__(telekf, work)
        plant = random_stable_system(np.random.default_rng(36), 6, 6, 6)
        rng = np.random.default_rng([2, seed])
        n_id, n_val = size["long_samples"], size["val_samples"]
        u = rng.standard_normal((n_id + n_val, 6))
        y, _ = simulate_noisy(plant, u, 1e-4, 1e-4, rng)
        self.truth = minmax(y[n_id:], y[:n_id])
        data, val = str(work / "long.csv"), str(work / "val.csv")
        write_csv(data, u[:n_id], y[:n_id])
        write_csv(val, u[n_id:], y[n_id:])
        out = str(self.out)
        self.commands = [
            ["identify", "--dataset", data, "--out", out,
             "--block-rows", "20"],
            ["validate", "--model", f"{out}/model.json",
             "--validation-dataset", val, "--out", out],
        ]

    def check_content(self) -> list[str]:
        names = ["model.json", "singular_values.csv", "identify_log.json",
                 "fit_report.json", "validation_series.csv"]
        failed = self.check_stamps(names) + self.check_identify()
        report = json.loads((self.out / "fit_report.json").read_text())
        _, rows = read_stamped_csv(self.out / "validation_series.csv")
        series = np.array(rows, dtype=float)
        m_out = self.truth.shape[1]
        truth = series[:, 1:1 + m_out]
        pred = series[:, 1 + m_out:]
        burn = report["burn_in"]
        own_rmse = np.sqrt(np.mean((pred[burn:] - truth[burn:]) ** 2, axis=0))
        if not (_finite(series) and _finite(report["rmse"])
                and _finite(report["accuracy_pct"])
                and series.shape[0] == self.truth.shape[0]
                and np.allclose(truth, self.truth, rtol=0, atol=1e-12)
                and np.allclose(own_rmse, report["rmse"], rtol=1e-9, atol=0)):
            failed.append("validate")
        self.quality = {"acc_mean_pct": float(np.mean(report["accuracy_pct"])),
                        "rmse_max": float(np.max(report["rmse"]))}
        return sorted(set(failed))


def reference_filter(A, B, C, Q, R, u, z):
    """Textbook Kalman filter with the conventions of telekf's run_filter:
    x0 = 0 and P0 = I at sample 1, then predict with the previous input and
    update with the joint gain.  Returns estimates C x and innovations."""
    n, N = A.shape[0], u.shape[0]
    x, P = np.zeros(n), np.eye(n)
    est = np.empty((N, C.shape[0]))
    innov = np.empty((N, C.shape[0]))
    innov[0] = z[0] - C @ x
    est[0] = C @ x
    for k in range(1, N):
        x = A @ x + B @ u[k - 1]
        P = A @ P @ A.T + Q
        innov[k] = z[k] - C @ x
        K = P @ C.T @ np.linalg.inv(C @ P @ C.T + R)
        x = x + K @ innov[k]
        P = (np.eye(n) - K @ C) @ P
        est[k] = C @ x
    return est, innov


class FilterDirect:
    """run_filter with the matched noise model on plain arrays, then the
    lag-1..10 innovation autocorrelations; one iteration per model, cycling
    through the models."""

    name = "filter_direct"
    burn = 100

    def __init__(self, telekf, work: Path, seed: int, size: dict):
        self.estimator, self.metrics = telekf.estimator, telekf.metrics
        plant_rng = np.random.default_rng(1005)
        rng = np.random.default_rng([3, seed])
        self.Q, self.R = 0.01 * np.eye(2), np.array([[0.04]])
        self.noise = telekf.estimator.NoiseModel(Q=self.Q, R=self.R)
        self.cases = []
        for _ in range(size["filter_models"]):
            A, B, C, _ = random_stable_system(plant_rng, 2, 1, 1)
            D = np.zeros((1, 1))
            u = rng.standard_normal((size["filter_samples"], 1))
            y, y_true = simulate_noisy((A, B, C, D), u, 0.01, 0.04, rng)
            model = telekf.sysid.StateSpaceModel(A=A, B=B, C=C, D=D)
            self.cases.append({"model": model, "u": u, "y": y,
                               "y_true": y_true, "first": None})
        self.warmup_iterations = len(self.cases)
        self.next = 0
        self.last = None
        self.quality: dict = {}
        self.last_log = ""
        self.operations = ["run_filter"]

    def iterate(self) -> float:
        case = self.cases[self.next % len(self.cases)]
        self.next += 1
        self.last = case
        clock = time.perf_counter
        start = clock()
        try:
            run = self.estimator.run_filter(case["model"], self.noise,
                                            case["u"], case["y"])
            acf = self.metrics.autocorrelations(run.innovations[self.burn:],
                                                MAX_LAG)
            case["result"] = (run.estimates, run.innovations, acf)
        except Exception as exc:  # a program bug fails the operation
            case["result"] = None
            self.last_log = f"{type(exc).__name__}: {exc}\n"
        return clock() - start

    def check(self) -> list[str]:
        case = self.last
        result = case["result"]
        if result is None or not all(_finite(a) for a in result):
            return ["run_filter"]
        if case["first"] is not None:
            same = all(np.array_equal(a, b)
                       for a, b in zip(result, case["first"]))
            return [] if same and case["first_ok"] else ["run_filter"]
        case["first"] = result
        est, innov, acf = result
        m = case["model"]
        ref_est, ref_innov = reference_filter(m.A, m.B, m.C, self.Q, self.R,
                                              case["u"], case["y"])
        e = innov[self.burn:, 0]
        own_acf = autocorrelations(e)
        case["first_ok"] = bool(
            np.allclose(est, ref_est, rtol=0, atol=1e-9)
            and np.allclose(innov, ref_innov, rtol=0, atol=1e-9)
            and np.allclose(acf[:, 0], own_acf, rtol=0, atol=1e-12))
        t = case["y_true"][self.burn:]
        err = float(np.sqrt(np.mean((est[self.burn:] - t) ** 2)))
        case["acc"] = 100 * (1 - err / float(t.max() - t.min()))
        case["rmse"] = err
        case["inside"] = inside_band(acf, e.size)
        done = [c for c in self.cases if c["first"] is not None]
        self.quality = {
            "acc_mean_pct": float(np.mean([c["acc"] for c in done])),
            "rmse_max": float(max(c["rmse"] for c in done)),
            "white_frac": sum(c["inside"] for c in done)
            / (MAX_LAG * len(done)),
        }
        return [] if case["first_ok"] else ["run_filter"]


WORKLOADS = {cls.name: cls for cls in (SweepC11, IdentifyLong, FilterDirect)}
