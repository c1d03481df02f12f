"""The benchmark's span tracer (perfbench/spans.py) against the package.

The tracer wraps functions by name and its counters read fields of their
results, so renaming or deleting either breaks ``perfbench/run.py --trace
1``; these tests make that a tier-1 failure.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import telekf.cli
from telekf import dataio, sysid

from conftest import random_stable_system

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(spans):
    """(module, attribute name, function) of every TRACED name."""
    found = []
    for qualname in spans.TRACED:
        mod_name, fn_name = qualname.split(".")
        module = sys.modules[f"telekf.{mod_name}"]
        found.append((module, fn_name, getattr(module, fn_name)))
    return found


def test_install_wraps_every_traced_function_and_uninstall_restores(spans):
    originals = _traced(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, fn_name, fn in originals:
            assert getattr(module, fn_name).__wrapped__ is fn
    finally:
        tracer.uninstall()
    for module, fn_name, fn in originals:
        assert getattr(module, fn_name) is fn


def test_counters_read_the_results_they_are_given(spans, tmp_path):
    rng = np.random.default_rng(8)
    u = rng.standard_normal((400, 2))
    y = sysid.simulate(random_stable_system(rng, 2, 2, 2), u)
    y += 0.01 * rng.standard_normal(y.shape)
    data = tmp_path / "data.csv"
    dataio.save_dataset(dataio.TrajectoryDataset(inputs=u, outputs=y), data)
    out = str(tmp_path / "out")
    tracer = spans.Tracer()
    tracer.install()
    try:
        main = telekf.cli.main
        assert main(["identify", "--dataset", str(data), "--out", out,
                     "--block-rows", "8"]) == 0
        assert main(["sweep", "--dataset", str(data), "--out", out,
                     "--model", f"{out}/model.json"]) == 0
        assert main(["validate", "--validation-dataset", str(data),
                     "--out", out, "--model", f"{out}/model.json"]) == 0
    finally:
        tracer.uninstall()
    names = spans.summarize(tracer.spans, 1)["names"]
    assert set(spans.COUNTERS) <= set(names)
    assert names["sysid.moesp_decompose"]["flops_computed"] > 0
    # U and Y: 8 block rows of 2 channels by 400 - 8 + 1 columns, float64
    hankel_bytes = 2 * (8 * 2) * 393 * 8
    assert names["dataio.build_hankel"]["bytes_computed"] == hankel_bytes
    assert names["dataio.load_dataset"]["bytes"] == 3 * data.stat().st_size
    assert names["sysid.simulate"]["steps"] == 400
    assert names["netsim.impair"]["rows"] == 6 * 400
