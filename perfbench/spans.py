"""Span tracing of telekf's layers, applied from outside the package.

A traced iteration replaces each listed public function with a wrapper in
every telekf module namespace that holds it, so a call is caught where the
caller looks the name up: ``sysid.build_hankel`` (imported by name from
``dataio``), ``metrics.simulate`` (from ``sysid``) and
``estimator.run_filter`` called from inside ``estimate_noise_empirical``
are all seen.  The wrappers are removed again after the iteration, so
untraced iterations run the unmodified package.

Spans are kept in memory with their parent and the iteration they belong
to, and written out once at the end of the run.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

# Functions wrapped in a traced iteration, named by their defining module.
# Private helpers (CSV export, config handling) are not wrapped: their
# time is the self time of the public function that calls them.
TRACED = (
    "dataio.load_dataset", "dataio.normalize", "dataio.build_hankel",
    "sysid.identify", "sysid.moesp_decompose", "sysid.select_order",
    "sysid.realize", "sysid.simulate",
    "netsim.impair",
    "estimator.estimate_noise_empirical", "estimator.run_filter",
    "metrics.report_run", "metrics.fit_report", "metrics.autocorrelations",
    "pipeline.cmd_identify", "pipeline.cmd_sweep", "pipeline.cmd_validate",
    "cli.main",
)

LAYERS = ("dataio", "sysid", "netsim", "estimator", "metrics", "pipeline",
          "cli")


def _qr_flops(m: int, n: int) -> float:
    """Householder QR of an m x n matrix (m >= n), R factor only."""
    return 2.0 * m * n * n - 2.0 * n ** 3 / 3.0


def _svd_flops(n: int) -> float:
    """Golub-Reinsch SVD of an n x n matrix returning U, S and V."""
    return 21.0 * n ** 3


def _count_load(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _count_hankel(args, kwargs, result):
    return {"bytes_computed": result.data.nbytes}


def _count_moesp(args, kwargs, result):
    n_samples = np.shape(args[0])[0]
    d = result.block_rows
    rows = d * (result.m_in + result.m_out)
    return {"flops_computed": _qr_flops(n_samples - d + 1, rows)
            + _svd_flops(d * result.m_out)}


def _count_steps(args, kwargs, result):
    inputs = args[2] if len(args) > 2 else kwargs["inputs"]
    return {"steps": np.shape(inputs)[0]}


def _count_simulate(args, kwargs, result):
    return {"steps": np.shape(args[1])[0]}


def _count_impair(args, kwargs, result):
    clean = np.atleast_2d(np.asarray(args[0], dtype=float))
    changed = np.any(result.observed != clean, axis=1)
    return {"rows": clean.shape[0], "rows_changed": int(changed.sum()),
            "lost": int(result.loss_mask.sum())}


COUNTERS = {
    "dataio.load_dataset": _count_load,
    "dataio.build_hankel": _count_hankel,
    "sysid.moesp_decompose": _count_moesp,
    "sysid.simulate": _count_simulate,
    "estimator.run_filter": _count_steps,
    "netsim.impair": _count_impair,
}


class Tracer:
    """Records (name, parent, iteration, start, end, counts) spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.iteration = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None,
                    "iteration": self.iteration}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED function in each package module naming it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "telekf" or key.startswith("telekf.")]
        for qualname in TRACED:
            mod_name, fn_name = qualname.split(".")
            fn = getattr(sys.modules[f"telekf.{mod_name}"], fn_name)
            wrapper = self._wrap(qualname, fn)
            for mod in modules:
                if getattr(mod, fn_name, None) is fn:
                    self._installed.append((mod, fn_name, fn))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, fn in reversed(self._installed):
            setattr(mod, fn_name, fn)
        self._installed.clear()

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def summarize(spans: list[dict], iterations: int) -> dict:
    """Per-iteration totals for every traced name: ``s`` (time in calls),
    ``self_s`` (minus the time of direct child spans), ``calls`` and the
    summed counts.  Also ``root_s``, the time covered by top-level spans."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, dict] = {}
    root_s = 0.0
    for span, children in zip(spans, child_s):
        dur = span["end"] - span["start"]
        t = totals.setdefault(span["name"], {"s": 0.0, "self_s": 0.0,
                                             "calls": 0})
        t["s"] += dur
        t["self_s"] += dur - children
        t["calls"] += 1
        for key, value in span.get("counts", {}).items():
            t[key] = t.get(key, 0) + value
        if span["parent"] is None:
            root_s += dur
    per_iter = {name: {k: v / iterations for k, v in t.items()}
                for name, t in totals.items()}
    return {"names": per_iter, "root_s": root_s / iterations}
