import json
import re

import numpy as np
import pytest

from telekf import dataio, estimator, metrics, netsim, pipeline, sysid
from telekf.cli import main
from telekf.errors import ConfigError

from conftest import random_stable_system


def _model_text(a=0.5, first_min=0.0, last_max=1.0,
                roles=("input", "input", "output", "output")) -> str:
    """A one-state model.json for dataset_csv's 2-in, 2-out recording,
    with A[0][0], the first channel's min, the last one's max and the
    roles of the channel entries given."""
    channels = [{"role": role, "min": 0.0, "max": 1.0} for role in roles]
    channels[0]["min"], channels[-1]["max"] = first_min, last_max
    return json.dumps({"A": [[a]], "B": [[1.0, 0.0]], "C": [[1.0], [0.0]],
                       "D": [[0.0, 0.0], [0.0, 0.0]],
                       "norm_params": {"channels": channels}})


@pytest.fixture()
def dataset_csv(tmp_path):
    rng = np.random.default_rng(42)
    true = random_stable_system(rng, 2, 2, 2)
    u = rng.standard_normal((800, 2))
    y = sysid.simulate(true, u)
    path = tmp_path / "train.csv"
    dataio.save_dataset(dataio.TrajectoryDataset(inputs=u, outputs=y,
                                                 dt=1 / 30), path)
    return path


@pytest.fixture()
def validation_csv(tmp_path, dataset_csv):
    ds = dataio.load_dataset(dataset_csv)
    # held-out slice of the same trajectory, re-saved as its own file
    held = dataio.TrajectoryDataset(inputs=ds.inputs[400:],
                                    outputs=ds.outputs[400:], dt=ds.dt)
    path = tmp_path / "val.csv"
    dataio.save_dataset(held, path)
    return path


class TestIdentify:
    def test_end_to_end(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "out"
        rc = main(["identify", "--dataset", str(dataset_csv),
                   "--out", str(out), "--block-rows", "10"])
        assert rc == 0
        assert (out / "model.json").exists()
        assert (out / "singular_values.csv").exists()
        log = json.loads((out / "identify_log.json").read_text())
        assert f"order {log['order']}," in capsys.readouterr().out
        model, _ = pipeline.load_model(out / "model.json")
        assert model.order == log["order"]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: min-max scaling leaves each channel an "
               "offset, and MOESP spends a third state on it")
    def test_true_order_of_noise_free_plant(self, tmp_path, dataset_csv):
        config = pipeline.ExperimentConfig(dataset=str(dataset_csv),
                                           block_rows=10,
                                           out_dir=str(tmp_path / "out"))
        assert pipeline.cmd_identify(config)["order"] == 2

    def test_model_file_roundtrip(self, tmp_path, dataset_csv):
        config = pipeline.ExperimentConfig(dataset=str(dataset_csv),
                                           block_rows=10,
                                           out_dir=str(tmp_path / "out"))
        result = pipeline.cmd_identify(config)
        model, params = pipeline.load_model(result["paths"]["model"])
        for name in "ABCD":
            np.testing.assert_array_equal(getattr(model, name),
                                          getattr(result["model"], name))
        _, fitted = dataio.normalize(dataio.load_dataset(dataset_csv))
        for got, want in ((params.inputs, fitted.inputs),
                          (params.outputs, fitted.outputs)):
            np.testing.assert_array_equal(got.mins, want.mins)
            np.testing.assert_array_equal(got.maxs, want.maxs)
        doc = json.loads(result["paths"]["model"].read_text())
        assert list(doc) == ["order", "dt", "A", "B", "C", "D",
                             "spectral_radius", "flags", "norm_params",
                             "config_hash"]
        assert doc["dt"] == pytest.approx(1 / 30)

    def test_norm_params_roundtrip(self, tmp_path, dataset_csv):
        # a constant output channel is flagged on disk and still scales to 0
        ds = dataio.load_dataset(dataset_csv)
        outputs = np.hstack([ds.outputs, np.full((ds.n_samples, 1), 2.5)])
        path = tmp_path / "flat.csv"
        dataio.save_dataset(dataio.TrajectoryDataset(
            inputs=ds.inputs, outputs=outputs, dt=ds.dt), path)
        out = tmp_path / "out"
        assert main(["identify", "--dataset", str(path), "--out", str(out),
                     "--block-rows", "10"]) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["norm_params"]["channels"] == [
            {"name": name, "role": role, "min": lo, "max": hi,
             "constant": lo == hi}
            for role, names, x in (("input", ("u0", "u1"), ds.inputs),
                                   ("output", ("y0", "y1", "y2"), outputs))
            for name, lo, hi in zip(names, x.min(0).tolist(),
                                    x.max(0).tolist())]
        assert [e["constant"] for e in doc["norm_params"]["channels"]] == [
            False, False, False, False, True]
        _, params = pipeline.load_model(out / "model.json")
        _, fitted = dataio.normalize(dataio.load_dataset(path))
        for got, want in ((params.inputs, fitted.inputs),
                          (params.outputs, fitted.outputs)):
            np.testing.assert_array_equal(got.mins, want.mins)
            np.testing.assert_array_equal(got.maxs, want.maxs)
        assert list(params.outputs.constant) == [False, False, True]
        assert np.all(params.outputs.apply(outputs)[:, 2] == 0.0)

    @pytest.mark.parametrize("spoil, message", [
        (lambda e: e.update(role="state"), "KeyError('state')"),
        (lambda e: e.pop("min"), "KeyError('min')"),
        (lambda e: e.update(max=-1e9), "channel max below min"),
    ], ids=["unknown_role", "missing_min", "max_below_min"])
    def test_bad_norm_params_is_data_error(self, tmp_path, dataset_csv,
                                           validation_csv, capsys, spoil,
                                           message):
        out = tmp_path / "out"
        assert main(["identify", "--dataset", str(dataset_csv),
                     "--out", str(out), "--block-rows", "10"]) == 0
        doc = json.loads((out / "model.json").read_text())
        spoil(doc["norm_params"]["channels"][1])
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", "--model", str(model),
                     "--validation-dataset", str(validation_csv),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot load StateSpaceModel from {model}: " in err
        assert message in err

    def test_log_records_lq_health(self, tmp_path, dataset_csv):
        # noise-free data: the Gram matrix is too ill-conditioned for
        # CholeskyQR2 and the Householder QR runs
        noisy = tmp_path / "noisy.csv"
        ds = dataio.load_dataset(dataset_csv)
        rng = np.random.default_rng(3)
        dataio.save_dataset(dataio.TrajectoryDataset(
            inputs=ds.inputs, dt=ds.dt,
            outputs=ds.outputs + 0.1 * rng.standard_normal(ds.outputs.shape)),
            noisy)
        for path, method in ((dataset_csv, "householder"),
                             (noisy, "cholesky_qr2")):
            out = tmp_path / method
            assert main(["identify", "--dataset", str(path),
                         "--out", str(out), "--block-rows", "10"]) == 0
            log = json.loads((out / "identify_log.json").read_text())
            assert log["lq_method"] == method
            assert log["cond_r11"] >= 1.0
            cond_est = log["lq_cond_est"]
            if method == "cholesky_qr2":
                assert 1.0 <= cond_est <= sysid._CHOLQR_MAX_COND
            else:
                assert cond_est is None or cond_est > sysid._CHOLQR_MAX_COND

    def test_forced_order(self, tmp_path, dataset_csv):
        out = tmp_path / "out"
        rc = main(["identify", "--dataset", str(dataset_csv),
                   "--out", str(out), "--block-rows", "10", "--order", "1"])
        assert rc == 0
        log = json.loads((out / "identify_log.json").read_text())
        assert log["order"] == 1
        assert log["criterion"] == "fixed"

    def test_config_fixed_order(self, tmp_path, dataset_csv):
        # a config file's fixed_order overrides the energy rule without --order
        args = ["identify", "--dataset", str(dataset_csv), "--block-rows", "10"]
        assert main(args + ["--out", str(tmp_path / "energy")]) == 0
        log = json.loads((tmp_path / "energy" / "identify_log.json").read_text())
        assert log["order"] != 2 and log["criterion"] == "energy"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fixed_order": 2}))
        out = tmp_path / "fixed"
        assert main(args + ["--config", str(cfg), "--out", str(out)]) == 0
        log = json.loads((out / "identify_log.json").read_text())
        assert log["order"] == 2 and log["criterion"] == "fixed"
        assert pipeline.load_model(out / "model.json")[0].order == 2

    def test_stamp_in_scree(self, tmp_path, dataset_csv):
        out = tmp_path / "out"
        main(["identify", "--dataset", str(dataset_csv), "--out", str(out),
              "--block-rows", "10"])
        first = (out / "singular_values.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")
        assert "metric_def=" in first

    def test_block_rows_too_large(self, tmp_path, dataset_csv, capsys):
        rc = main(["identify", "--dataset", str(dataset_csv),
                   "--out", str(tmp_path / "o"), "--block-rows", "400"])
        assert rc == 2
        assert "samples" in capsys.readouterr().err


class TestValidate:
    def test_saved_model_roundtrip(self, tmp_path, dataset_csv,
                                   validation_csv, capsys):
        out = tmp_path / "out"
        assert main(["identify", "--dataset", str(dataset_csv),
                     "--out", str(out), "--block-rows", "10"]) == 0
        rc = main(["validate", "--model", str(out / "model.json"),
                   "--validation-dataset", str(validation_csv),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert len(report["accuracy_pct"]) == 2
        assert all(0.0 <= a <= 100.0 for a in report["accuracy_pct"])
        assert report["metric_def"] == "nrmse_range"
        assert "validation accuracy" in capsys.readouterr().out

    def test_simulates_once(self, tmp_path, dataset_csv, validation_csv,
                            monkeypatch):
        out = tmp_path / "out"
        assert main(["identify", "--dataset", str(dataset_csv),
                     "--out", str(out), "--block-rows", "10"]) == 0
        simulate = sysid.simulate
        calls = []

        def counting(model, inputs, x0=None):
            calls.append(np.shape(inputs)[0])
            return simulate(model, inputs, x0)

        monkeypatch.setattr(sysid, "simulate", counting)
        monkeypatch.setattr(metrics, "simulate", counting)
        assert main(["validate", "--model", str(out / "model.json"),
                     "--validation-dataset", str(validation_csv),
                     "--out", str(out)]) == 0
        assert calls == [400]

    def test_saved_model_loads_only_validation_data(
            self, tmp_path, dataset_csv, validation_csv, monkeypatch):
        # with a saved model the identification dataset is not needed
        out = tmp_path / "out"
        assert main(["identify", "--dataset", str(dataset_csv),
                     "--out", str(out), "--block-rows", "10"]) == 0
        load = dataio.load_dataset
        paths = []

        def counting(path, *args, **kwargs):
            paths.append(str(path))
            return load(path, *args, **kwargs)

        monkeypatch.setattr(dataio, "load_dataset", counting)
        assert main(["validate", "--model", str(out / "model.json"),
                     "--dataset", str(dataset_csv),
                     "--validation-dataset", str(validation_csv),
                     "--out", str(out)]) == 0
        assert paths == [str(validation_csv)]

    def test_missing_validation_dataset(self, tmp_path, dataset_csv):
        rc = main(["validate", "--dataset", str(dataset_csv),
                   "--out", str(tmp_path / "o"), "--block-rows", "10"])
        assert rc == 1


class TestModelAndData:
    @pytest.mark.parametrize("command, held_out", [
        ("sweep", False), ("validate", True), ("validate", False)],
        ids=["sweep", "validate", "validate_on_identification_data"])
    def test_inline_model_loads_each_recording_once(
            self, tmp_path, dataset_csv, validation_csv, monkeypatch,
            command, held_out):
        # the identification arrays serve again when they are the data
        load = dataio.load_dataset
        paths = []

        def counting(path, *args, **kwargs):
            paths.append(str(path))
            return load(path, *args, **kwargs)

        monkeypatch.setattr(dataio, "load_dataset", counting)
        path = str(validation_csv if held_out else dataset_csv)
        expected = [str(dataset_csv)] + [path] * held_out
        argv = [command, "--dataset", str(dataset_csv), "--block-rows", "10",
                "--out", str(tmp_path / "o")]
        if command == "validate":
            argv += ["--validation-dataset", path]
        assert main(argv) == 0
        assert paths == expected

        paths.clear()
        config = pipeline.ExperimentConfig(dataset=str(dataset_csv),
                                           block_rows=10)
        model, norm = pipeline.model_and_data(config, path)
        assert paths == expected
        assert norm.inputs.shape == (400 if held_out else 800, model.m_in)


class TestStrictJson:
    def test_reports_parse_without_nan_or_infinity(self, tmp_path,
                                                  dataset_csv,
                                                  validation_csv):
        # open-loop validation has no innovations, so its whiteness is NaN
        # in memory and null on disk
        out = str(tmp_path / "out")
        model = str(tmp_path / "out" / "model.json")
        for argv in (["identify", "--dataset", str(dataset_csv)],
                     ["validate", "--model", model, "--validation-dataset",
                      str(validation_csv)],
                     ["sweep", "--model", model, "--dataset",
                      str(dataset_csv)],
                     ["calibrate-accuracy"]):
            assert main(argv + ["--out", out, "--block-rows", "10"]) == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        reports = sorted((tmp_path / "out").glob("*.json"))
        assert len(reports) == 10  # model, log, fit, calibration, 6 sweep
        docs = {p.name: json.loads(p.read_text(), parse_constant=refuse)
                for p in reports}
        assert docs["fit_report.json"]["whiteness"] == [None, None]


class TestSweep:
    def test_end_to_end(self, tmp_path, dataset_csv):
        out = tmp_path / "out"
        rc = main(["sweep", "--dataset", str(dataset_csv), "--out", str(out),
                   "--block-rows", "10", "--seed", "7"])
        assert rc == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert len(lines) == 8  # stamp + header + six scenarios
        assert all(line.endswith("ok") for line in lines[2:])
        # one run export and one report per scenario
        assert len(list(out.glob("*_run.csv"))) == 6
        reports = list(out.glob("*_report.json"))
        assert len(reports) == 6
        for path in reports:
            step = json.loads(path.read_text())["gain_converged_step"]
            assert isinstance(step, int) and 0 < step < 800

    def test_bootstrap_schedule_computed_once(self, tmp_path, dataset_csv,
                                              monkeypatch):
        schedule = estimator._gain_schedule
        initial_calls = []

        def counting(A, C, Q, r, P0, n_samples):
            if (np.array_equal(Q, 1e-4 * np.eye(A.shape[0]))
                    and np.all(r == 1e-4)):
                initial_calls.append(n_samples)
            return schedule(A, C, Q, r, P0, n_samples)

        estimator._cached_schedule.cache_clear()
        monkeypatch.setattr(estimator, "_gain_schedule", counting)
        rc = main(["sweep", "--dataset", str(dataset_csv),
                   "--out", str(tmp_path / "out"), "--block-rows", "10"])
        assert rc == 0
        assert initial_calls == [800]

    def test_programming_error_propagates(self, tmp_path, dataset_csv,
                                          monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in the filter")

        monkeypatch.setattr(estimator, "run_filter", broken)
        with pytest.raises(TypeError, match="bug in the filter"):
            main(["sweep", "--dataset", str(dataset_csv),
                  "--out", str(tmp_path / "out"), "--block-rows", "10"])

    def test_deterministic(self, tmp_path, dataset_csv):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        cfg = {"dataset": str(dataset_csv), "block_rows": 10,
               "master_seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(out2)]) == 0
        a = (out1 / "sweep_summary.csv").read_text().splitlines()[1:]
        b = (out2 / "sweep_summary.csv").read_text().splitlines()[1:]
        assert a == b

    def test_rerun_into_same_out_is_byte_identical(self, tmp_path,
                                                   dataset_csv):
        # out_dir is part of the config hash, so both runs use one path;
        # every file matches, the run CSVs of repeated streams included
        out = tmp_path / "out"
        args = ["sweep", "--dataset", str(dataset_csv), "--out", str(out),
                "--block-rows", "10", "--seed", "5"]
        assert main(args) == 0
        first = out.rename(tmp_path / "first")
        assert main(args) == 0
        names = sorted(p.name for p in first.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (first / name).read_bytes()
        assert any(json.loads((out / name).read_text())["same_stream_as"]
                   for name in names if name.endswith("_report.json"))

    def test_seed_changes_results(self, tmp_path, dataset_csv):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            main(["sweep", "--dataset", str(dataset_csv), "--out", str(out),
                  "--block-rows", "10", "--seed", seed])
            outs.append((out / "sweep_summary.csv").read_text()
                        .splitlines()[2:])
        assert outs[0] != outs[1]

    @pytest.mark.parametrize("name", ["eps_q"])
    def test_overflowing_noise_scale_fails_every_row(self, tmp_path,
                                                     dataset_csv, name):
        # a finite but huge covariance overflows the first innovation
        # variance: each scenario is recorded as failed, naming the
        # sample, instead of ending the sweep
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: 1e308}))
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg), "--dataset",
                   str(dataset_csv), "--block-rows", "10", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(lines) == 8  # stamp + header + six scenarios
        for line in lines[2:]:
            assert re.fullmatch(r"error: sample 2: degenerate innovation "
                                r"variance inf", line.split(",")[-1])
        assert not list(out.glob("*_run.csv"))
        assert not list(out.glob("*_report.json"))

    def test_huge_measurement_noise_scale_completes(self, tmp_path,
                                                     dataset_csv):
        # R = 1e308 I is finite: the first bootstrap pass runs open loop,
        # and every scenario is scored with finite figures
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps_r": 1e308}))
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg), "--dataset",
                   str(dataset_csv), "--block-rows", "10", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert [line.split(",")[-1] for line in lines[2:]] == ["ok"] * 6
        reports = [json.loads(p.read_text())
                   for p in out.glob("*_report.json")]
        assert len(reports) == 6
        for doc in reports:
            figures = np.array(doc["accuracy_pct"] + doc["rmse"], dtype=float)
            assert np.isfinite(figures).all()

    def test_custom_scenario_list(self, tmp_path, dataset_csv):
        scenarios = [{"nd_ms": 0.0, "nj_ms": 0.0, "np_pct": 0.0,
                      "label": "clean"}]
        sc_path = tmp_path / "scen.json"
        sc_path.write_text(json.dumps(scenarios))
        out = tmp_path / "out"
        rc = main(["sweep", "--dataset", str(dataset_csv), "--out", str(out),
                   "--block-rows", "10", "--scenarios", str(sc_path)])
        assert rc == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("clean,")
        assert (out / "clean_run.csv").exists()

    def test_identical_streams_share_one_run(self, tmp_path, dataset_csv,
                                             monkeypatch):
        # Delays of at most 1 ms never move a 30 Hz sample, so the three
        # zero-loss scenarios deliver the clean stream; 5% loss does not.
        scenarios = [
            {"nd_ms": 0.0, "nj_ms": 0.0, "np_pct": 0.0, "label": "still"},
            {"nd_ms": 1.0, "nj_ms": 0.1, "np_pct": 5.0, "label": "lossy"},
            {"nd_ms": 1.0, "nj_ms": 0.1, "np_pct": 0.0, "label": "short"},
            {"nd_ms": 0.0, "nj_ms": 0.0, "np_pct": 0.0, "label": "again"},
        ]
        sc_path = tmp_path / "scen.json"
        sc_path.write_text(json.dumps(scenarios))
        out = tmp_path / "out"
        assert main(["identify", "--dataset", str(dataset_csv),
                     "--out", str(out), "--block-rows", "10"]) == 0
        estimate = estimator.estimate_noise_empirical
        calls = []

        def counting(model, inputs, outputs, **kwargs):
            calls.append(outputs)
            return estimate(model, inputs, outputs, **kwargs)

        monkeypatch.setattr(estimator, "estimate_noise_empirical", counting)
        rc = main(["sweep", "--dataset", str(dataset_csv), "--out", str(out),
                   "--model", str(out / "model.json"), "--seed", "4",
                   "--scenarios", str(sc_path)])
        assert rc == 0
        assert len(calls) == 2

        runs = [(out / f"{t}_run.csv").read_bytes()
                for t in ("still", "short", "again")]
        assert runs[0] == runs[1] == runs[2]
        assert (out / "lossy_run.csv").read_bytes() != runs[0]
        docs = {sc["label"]: json.loads(
            (out / f"{sc['label']}_report.json").read_text())
            for sc in scenarios}
        assert [docs[t]["same_stream_as"] for t in docs] == [
            None, None, "still", "still"]
        assert docs["still"]["rows_changed"] == docs["still"]["lost"] == 0
        assert docs["lossy"]["lost"] > 0
        assert docs["lossy"]["rows_changed"] > 0
        assert docs["again"]["scenario"]["label"] == "again"

        config = pipeline.ExperimentConfig(
            dataset=str(dataset_csv), model_path=str(out / "model.json"),
            scenarios=scenarios, master_seed=4)
        model, norm = pipeline.model_and_data(config, config.dataset)
        rows = (out / "sweep_summary.csv").read_text().splitlines()[2:]
        assert len(rows) == len(scenarios)
        for row, scenario in zip(rows, config.resolve_scenarios()):
            stream = netsim.impair(norm.outputs, scenario, norm.dt)
            _, _, report = pipeline.score_stream(
                config, model, norm.inputs, stream.observed, norm.outputs)
            assert row.split(",")[4:-1] == (
                [f"{a:.4f}" for a in report.accuracy_pct]
                + [f"{r:.6f}" for r in report.rmse])

    def test_config_settings_reach_every_row(self, tmp_path, dataset_csv):
        doc = {"dataset": str(dataset_csv), "block_rows": 10,
               "master_seed": 3, "eps_q": 1e-3, "eps_r": 1e-2,
               "bootstrap_iterations": 2, "burn_in": 7, "metric_def": "nmae"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0].endswith(" metric_def=nmae")

        config = pipeline.ExperimentConfig.from_dict(doc)
        model, norm = pipeline.model_and_data(config, config.dataset)
        defaults = pipeline.ExperimentConfig()
        rows = lines[2:]
        assert len(rows) == 6
        changed = set()
        for row, scenario in zip(rows, config.resolve_scenarios()):
            stream = netsim.impair(norm.outputs, scenario, norm.dt)
            noise, _, report = pipeline.score_stream(
                config, model, norm.inputs, stream.observed, norm.outputs)
            assert row.split(",")[4:] == (
                [f"{a:.4f}" for a in report.accuracy_pct]
                + [f"{r:.6f}" for r in report.rmse] + ["ok"])
            # each setting moves the scores, so a scorer that dropped one
            # would not match the sweep above by accident
            got = np.concatenate([noise.Q.ravel(), noise.R.ravel(),
                                  report.accuracy_pct, report.rmse])
            for name in ("eps_q", "eps_r", "bootstrap_iterations",
                         "burn_in", "metric_def"):
                other = pipeline.ExperimentConfig(
                    **{**doc, name: getattr(defaults, name)})
                noise2, _, report2 = pipeline.score_stream(
                    other, model, norm.inputs, stream.observed, norm.outputs)
                if not np.array_equal(got, np.concatenate([
                        noise2.Q.ravel(), noise2.R.ravel(),
                        report2.accuracy_pct, report2.rmse])):
                    changed.add(name)
        assert changed == {"eps_q", "eps_r", "bootstrap_iterations",
                           "burn_in", "metric_def"}

    def test_mean_delay_from_source_index(self, tmp_path, dataset_csv):
        # 100 ms is 3 samples at 30 Hz; the clamp max(1, k - 3) makes rows
        # 1..3 younger than that
        scenarios = [
            {"nd_ms": 100.0, "nj_ms": 0.0, "np_pct": 0.0, "label": "fixed"},
            {"nd_ms": 150.0, "nj_ms": 40.0, "np_pct": 10.0,
             "label": "rough"},
        ]
        sc_path = tmp_path / "scen.json"
        sc_path.write_text(json.dumps(scenarios))
        out = tmp_path / "out"
        assert main(["identify", "--dataset", str(dataset_csv),
                     "--out", str(out), "--block-rows", "10"]) == 0
        assert main(["sweep", "--dataset", str(dataset_csv),
                     "--out", str(out), "--model", str(out / "model.json"),
                     "--seed", "5", "--scenarios", str(sc_path)]) == 0
        config = pipeline.ExperimentConfig(
            dataset=str(dataset_csv), model_path=str(out / "model.json"),
            scenarios=scenarios, master_seed=5)
        model, norm = pipeline.model_and_data(config, config.dataset)
        delays = {}
        for scenario in config.resolve_scenarios():
            src = netsim.impair(norm.outputs, scenario, norm.dt).source_index
            k = np.arange(1, src.size + 1)
            delays[scenario.label] = (k - src)[src > 0]
            doc = json.loads(
                (out / f"{scenario.label}_report.json").read_text())
            assert list(doc)[-1] == "mean_delay_samples"
            assert doc["mean_delay_samples"] == pytest.approx(
                delays[scenario.label].mean(), rel=1e-15)
        assert delays["fixed"].size == norm.outputs.shape[0]
        assert list(delays["fixed"][:3]) == [0, 1, 2]
        assert np.all(delays["fixed"][3:] == 3)
        assert delays["rough"].size < norm.outputs.shape[0]

    def test_repeated_label_is_config_error(self, tmp_path, dataset_csv,
                                            capsys):
        # "scenario_2" is also the default tag of the unlabelled second
        # scenario; both would write scenario_2_run.csv
        clean = {"nd_ms": 0.0, "nj_ms": 0.0, "np_pct": 0.0}
        sc_path = tmp_path / "scen.json"
        sc_path.write_text(json.dumps([{**clean, "label": "scenario_2"},
                                       clean]))
        out = tmp_path / "out"
        rc = main(["sweep", "--dataset", str(dataset_csv), "--out", str(out),
                   "--block-rows", "10", "--scenarios", str(sc_path)])
        assert rc == 1
        assert "scenario labels repeat: ['scenario_2']" in \
            capsys.readouterr().err
        assert not list(out.glob("*_run.csv"))


class TestImpair:
    def test_export(self, tmp_path, dataset_csv):
        out = tmp_path / "out"
        rc = main(["impair", "--dataset", str(dataset_csv), "--out", str(out),
                   "--scenario-index", "2"])
        assert rc == 0
        lines = (out / "impaired.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "k"
        assert len(lines) == 802

    def test_bad_index(self, tmp_path, dataset_csv, capsys):
        rc = main(["impair", "--dataset", str(dataset_csv),
                   "--out", str(tmp_path / "o"), "--scenario-index", "9"])
        assert rc == 1
        assert "scenario index" in capsys.readouterr().err


class TestErrors:
    def test_missing_dataset_is_data_error(self, tmp_path):
        rc = main(["identify", "--dataset", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_no_dataset_is_config_error(self, tmp_path):
        rc = main(["identify", "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("argv, code", [
        (["sweep", "--dataset", "{data}", "--scenarios", "{scen}"], 1),
        (["identify"], 1),
        (["identify", "--dataset", "{tmp}/absent.csv"], 2),
        (["validate", "--dataset", "{data}"], 1),
        (["impair", "--dataset", "{data}", "--scenario-index", "9"], 1),
        (["sweep", "--model", "{tmp}/absent.json"], 1),
        (["sweep", "--dataset", "{data}", "--scenarios", "{tmp}/none.json"],
         1),
        (["impair", "--dataset", "{data}", "--scenarios", "{tmp}/none.json"],
         1),
    ], ids=["sweep_bad_label", "identify_no_dataset",
            "identify_missing_file", "validate_no_validation_set",
            "impair_bad_index", "sweep_no_dataset", "sweep_no_scenarios",
            "impair_no_scenarios"])
    def test_rejected_run_creates_no_directory(self, tmp_path, dataset_csv,
                                               monkeypatch, argv, code):
        if code == 1:  # a config error is found before any data loads
            def no_load(*args, **kwargs):
                raise AssertionError("dataio.load_dataset was called")
            monkeypatch.setattr(dataio, "load_dataset", no_load)
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0, "np": 0.0,
                                     "label": "a/b"}]))
        (tmp_path / "none.json").write_text("[]")
        argv = [a.format(data=dataset_csv, scen=scen, tmp=tmp_path)
                for a in argv]
        out = tmp_path / "o" / "p"
        assert main(argv + ["--block-rows", "10", "--out", str(out)]) == code
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["identify", "sweep"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "in_file"])
    def test_uncreatable_out_is_config_error(self, tmp_path, dataset_csv,
                                             capsys, command, below):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken / "sub" if below else taken
        rc = main([command, "--dataset", str(dataset_csv), "--block-rows",
                   "10", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"config error: cannot create output directory {out}: ")
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("argv, name", [
        (["identify"], "model.json"),
        (["validate", "--validation-dataset", "{val}"],
         "validation_series.csv"),
        (["sweep", "--scenarios", "{scen}"], "still_run.csv"),
        (["sweep", "--scenarios", "{scen}"], "again_run.csv"),
        (["sweep", "--scenarios", "{scen}"], "sweep_summary.csv"),
        (["impair"], "impaired.csv"),
        (["calibrate-accuracy"], "accuracy_calibration.json"),
    ], ids=["identify", "validate", "sweep_first_run", "sweep_copied_run",
            "sweep_summary", "impair", "calibrate_accuracy"])
    def test_unwritable_output_file_is_config_error(
            self, tmp_path, dataset_csv, validation_csv, capsys, argv, name):
        # a directory where an output file goes fails only once the run
        # has computed that file; the run stops there, a sweep included
        clean = {"nd_ms": 0.0, "nj_ms": 0.0, "np_pct": 0.0}
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps([{**clean, "label": "still"},
                                    {**clean, "label": "again"}]))
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        argv = [a.format(val=validation_csv, scen=scen) for a in argv]
        rc = main(argv + ["--dataset", str(dataset_csv), "--block-rows", "10",
                          "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"config error: cannot write {out / name}: ")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datset": "x.csv"}))
        rc = main(["identify", "--config", str(cfg)])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps({"A": [[0.5]], "C": [[1.0]], "D": [[0.0]], "dt": 0.1}),
        json.dumps({"A": [[0.5]], "B": [["x"]], "C": [[1.0]], "D": [[0.0]],
                    "dt": 0.1}),
        json.dumps([1, 2]),
        json.dumps({"A": [[0.5, 0.1]], "B": [[1.0]], "C": [[1.0]],
                    "D": [[0.0]], "dt": 0.1}),
        _model_text(a=float("nan")),
        _model_text(first_min=float("nan")),
        _model_text(last_max=float("inf")),
        _model_text(roles=("input",) * 3 + ("output",) * 2),
        _model_text(roles=("input",) * 2),
    ], ids=["bad_json", "missing_B", "non_numeric", "not_object",
            "non_square_A", "nan_entry", "nan_min", "infinite_max",
            "extra_input_entry", "no_output_entries"])
    def test_malformed_model_is_data_error(self, tmp_path, dataset_csv,
                                           capsys, text):
        model = tmp_path / "bad.json"
        model.write_text(text)
        rc = main(["sweep", "--dataset", str(dataset_csv),
                   "--model", str(model), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert (f"cannot load StateSpaceModel from {model}"
                in capsys.readouterr().err)

    def test_hand_written_model_loads(self, tmp_path, dataset_csv):
        # the document the malformed-model cases above spoil is itself good
        model = tmp_path / "good.json"
        model.write_text(_model_text())
        assert main(["sweep", "--dataset", str(dataset_csv),
                     "--model", str(model), "--out", str(tmp_path / "o")]) == 0

    def test_model_without_norm_params_is_data_error(self, tmp_path,
                                                     dataset_csv, capsys):
        out = tmp_path / "o"
        assert main(["identify", "--dataset", str(dataset_csv),
                     "--out", str(out), "--block-rows", "10"]) == 0
        doc = json.loads((out / "model.json").read_text())
        del doc["norm_params"]
        model = tmp_path / "bare.json"
        model.write_text(json.dumps(doc))
        for command in (["sweep", "--dataset"], ["validate",
                                                 "--validation-dataset"]):
            rc = main(command + [str(dataset_csv), "--model", str(model),
                                 "--out", str(out)])
            assert rc == 2
            assert "cannot load StateSpaceModel" in capsys.readouterr().err

    def test_dataset_channels_must_match_saved_model(self, tmp_path,
                                                     dataset_csv, capsys):
        out = tmp_path / "o"
        assert main(["identify", "--dataset", str(dataset_csv),
                     "--out", str(out), "--block-rows", "10"]) == 0
        ds = dataio.load_dataset(dataset_csv)
        narrow = tmp_path / "narrow.csv"
        dataio.save_dataset(dataio.TrajectoryDataset(
            inputs=ds.inputs[:, :1], outputs=ds.outputs, dt=ds.dt), narrow)
        rc = main(["sweep", "--dataset", str(narrow),
                   "--model", str(out / "model.json"), "--out", str(out)])
        assert rc == 2
        assert "is 1x2 channels, model expects 2x2" in capsys.readouterr().err

    def test_missing_model_is_data_error(self, tmp_path, dataset_csv):
        rc = main(["sweep", "--dataset", str(dataset_csv),
                   "--model", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("text, message", [
        ("[{", "bad JSON in scenarios"),
        (json.dumps([{"nj_ms": 1.0, "np_pct": 0.1}]),
         "scenario needs 'nd_ms'"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": "fast", "np_pct": 0.1}]),
         "scenario key 'nj_ms' must be float, got 'fast'"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0}]), "scenario needs 'np'"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0, "np": 0.0,
                      "delay_range_ms": 5}]),
         "scenario key 'delay_range_ms' must be list or None, got 5"),
        (json.dumps([3]), "scenario must be a JSON object, got 3"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0, "np": 0.0,
                      "delay_range_ms": [1, 2, 3]}]), "two finite numbers"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0, "np": 0.0,
                      "delay_range_ms": [5, 1]}]), "two finite numbers"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0, "np": 0.0,
                      "delay_range_ms": [-1, 2]}]), "two finite numbers"),
        ('[{"nd_ms": Infinity, "nj_ms": 1.0, "np": 0.0}]',
         "bad JSON in scenarios"),
        ('[{"nd_ms": 1.0, "nj_ms": NaN, "np": 0.0}]', "bad JSON in scenarios"),
        (json.dumps([{"nd_ms": -1.0, "nj_ms": 1.0, "np": 0.0}]),
         "must be finite and non-negative"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0, "np": 1.5}]),
         "outside [0, 1]"),
        (json.dumps([{"nd_ms": "5", "nj_ms": 1.0, "np": 0.0}]),
         "scenario key 'nd_ms' must be float, got '5'"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": True, "np": 0.0}]),
         "scenario key 'nj_ms' must be float, got True"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0, "np": 0.0, "seed": 5.7}]),
         "scenario key 'seed' must be int, got 5.7"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0, "np": 0.0, "lable": "a"}]),
         "unknown scenario keys: ['lable']"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0, "np": float("nan")}]),
         "bad JSON in scenarios"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": float("inf"), "np": 0.0}]),
         "bad JSON in scenarios"),
        (json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0, "np": 0.0,
                      "delay_range_ms": [0.0, float("inf")]}]),
         "bad JSON in scenarios"),
        (json.dumps(["abc"]), "scenario must be a JSON object, got 'abc'"),
        (json.dumps([{"nd_ms": 10**400, "nj_ms": 1.0, "np": 0.0}]),
         "scenario key 'nd_ms' must be float, got 1000"),
        (json.dumps([{"nd_ms": 1, "nj_ms": 1, "np": 0.5, "np_pct": 1}]),
         "np 0.5 and np_pct 1 disagree"),
        ("[]", "scenarios must be 'suite' or a list of at least one scenario"),
    ], ids=["bad_json", "missing_nd_ms", "non_numeric_nj_ms", "missing_np",
            "scalar_delay_range", "not_object", "three_delay_bounds",
            "reversed_delay_range", "negative_delay_range", "infinite_delay",
            "nan_jitter", "negative_delay", "loss_above_one", "string_delay",
            "bool_jitter", "float_seed", "misspelt_key", "dumped_nan_loss",
            "dumped_infinite_jitter", "dumped_infinite_delay_range",
            "string_entry", "huge_int_delay", "np_pct_disagrees",
            "empty_list"])
    def test_malformed_scenarios_are_config_error(self, tmp_path, dataset_csv,
                                                  capsys, text, message):
        scen = tmp_path / "scen.json"
        scen.write_text(text)
        rc = main(["sweep", "--dataset", str(dataset_csv), "--block-rows",
                   "10", "--scenarios", str(scen),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err

    @pytest.mark.parametrize("label, message", [
        *((bad, "one file-name component") for bad in
          ("sub/dir", "../escaped", ".", "..", "back\\slash", "nul\0")),
        (5, "scenario key 'label' must be str, got 5"),
        ("x" * 300, "label of 300 characters too long to name a file"),
        ("\ud800", "codec can't encode")],
        ids=["slash", "parent", "dot", "dotdot", "backslash", "nul",
             "not_string", "too_long", "lone_surrogate"])
    def test_label_must_be_one_file_name(self, tmp_path, dataset_csv,
                                         capsys, label, message):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0, "np": 0.0,
                                     "label": label}]))
        rc = main(["sweep", "--dataset", str(dataset_csv), "--block-rows",
                   "10", "--scenarios", str(scen),
                   "--out", str(tmp_path / "o" / "p")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not [p for p in tmp_path.rglob("*") if p.is_file()
                    and p.name not in ("scen.json", "train.csv")]

    def test_scenarios_checked_before_dataset(self, tmp_path, capsys):
        # the scenario list is a config error even when the dataset, and so
        # the model, could never be loaded
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps([{"nd_ms": 1.0, "nj_ms": 1.0}]))
        rc = main(["sweep", "--dataset", str(tmp_path / "absent.csv"),
                   "--scenarios", str(scen), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"block_rows": "x"}, "config key 'block_rows' must be int"),
        ({"energy": "high"}, "config key 'energy' must be float"),
        ({"master_seed": 1.5}, "config key 'master_seed' must be int"),
        ({"block_rows": True}, "config key 'block_rows' must be int"),
        ({"scenarios": "all"}, "scenarios must be 'suite' or a list"),
        ([], "config must be a JSON object"),
        ({"eps_q": float("nan")}, "bad JSON in config"),
        ({"eps_r": float("inf")}, "bad JSON in config"),
        ({"dt": -float("inf")}, "bad JSON in config"),
        ({"scenarios": [{"nd_ms": float("nan")}]}, "bad JSON in config"),
        ({"eps_q": 10**400}, "config key 'eps_q' must be float, got 1000"),
    ], ids=["str_int", "str_float", "float_int", "bool_int", "bad_suite",
            "not_object", "nan", "infinity", "minus_infinity",
            "nested_nan", "huge_int_float"])
    def test_bad_config_value_is_config_error(self, tmp_path, dataset_csv,
                                              capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["identify", "--config", str(cfg), "--dataset",
                   str(dataset_csv), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"dataset": "\xff.csv"}')
        assert main(["identify", "--config", str(cfg)]) == 1
        assert "bad JSON in config" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, args, message", [
        ({}, ["--metric", "bogus"], "metric_def='bogus'"),
        ({"bootstrap_iterations": 0}, [], "bootstrap_iterations=0"),
        ({"eps_q": -1}, [], "eps_q=-1"),
        ({"eps_r": 0.0}, [], "eps_r=0.0"),
        ({"order_criterion": "energy"}, [], "unknown config keys"),
        ({"order_threshold": 0.01}, [], "unknown config keys"),
        ({}, ["--burn-in", "-5"], "burn_in=-5"),
        ({}, ["--order", "0"], "fixed_order=0"),
        ({"fixed_order": -1}, [], "fixed_order=-1"),
        ({"energy": 7.0}, [], "energy=7.0"),
        ({"energy": 0.0}, [], "energy=0.0"),
        ({"energy": -0.5}, [], "energy=-0.5"),
        ({"energy": 7.0}, ["--order", "2"], "energy=7.0"),
        ({}, ["--block-rows", "0"], "block_rows=0"),
        ({}, ["--dt", "nan"], "dt=nan"),
        ({}, ["--dt", "inf"], "dt=inf"),
        ({}, ["--dt", "-1"], "dt=-1.0"),
    ], ids=["metric", "iterations", "eps_q", "eps_r", "criterion",
            "threshold", "burn_in", "order_zero", "config_order_negative",
            "energy_above_one", "energy_zero", "energy_negative",
            "energy_with_fixed_order", "block_rows_zero", "dt_nan", "dt_inf",
            "dt_negative"])
    def test_invalid_config_value_stops_sweep(self, tmp_path, dataset_csv,
                                              capsys, doc, args, message):
        # checked once, up front: no scenario runs and no summary is written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        rc = main(["sweep", "--config", str(cfg), "--dataset",
                   str(dataset_csv), "--block-rows", "10", "--out", str(out)]
                  + args)
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (out / "sweep_summary.csv").exists()

    @pytest.mark.parametrize("name", ["eps_q", "eps_r"])
    def test_non_finite_noise_scale_is_config_error(self, name):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match=f"{name}={bad}"):
                pipeline.ExperimentConfig(**{name: bad})

    def test_default_config_is_valid(self):
        config = pipeline.ExperimentConfig()
        assert config.metric_def in metrics.ACCURACY_METRICS
        assert pipeline.ExperimentConfig(fixed_order=2).fixed_order == 2

    def test_config_value_types_accepted(self, tmp_path, dataset_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"energy": 1, "fixed_order": None,
                                   "block_rows": 10, "scenarios": "suite"}))
        assert main(["identify", "--config", str(cfg), "--dataset",
                     str(dataset_csv), "--out", str(tmp_path / "o")]) == 0

    def test_degenerate_data_is_numerical_error(self, tmp_path):
        n = 200
        zeros = np.zeros((n, 1))
        path = tmp_path / "flatline.csv"
        # constant-input records normalize to all-zero input, which cannot
        # excite any dynamics
        dataio.save_dataset(
            dataio.TrajectoryDataset(
                inputs=zeros + 1.0,
                outputs=np.sin(np.arange(n)).reshape(-1, 1)),
            path)
        rc = main(["identify", "--dataset", str(path),
                   "--out", str(tmp_path / "o"), "--block-rows", "5"])
        assert rc == 3


class TestCalibrate:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["calibrate-accuracy", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "accuracy_calibration.json").read_text())
        assert doc["best"] in {c["metric_def"] for c in doc["candidates"]}
        assert "best-fitting accuracy formula" in capsys.readouterr().out
