"""Channel impairment simulation: constant delay, Gaussian jitter, and
Bernoulli packet loss with last-value hold.

Delay and jitter are specified in milliseconds and converted to sample
offsets through the stream's dt.  Randomness comes from a pinned PCG64
generator; the scenario seed is split into two independent substreams
(jitter normals, loss Bernoullis) so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import as_series, check_keys, is_kind
from .errors import ConfigError, DataError


#: The keys of a scenario's JSON form and their types.
_KINDS = {"nd_ms": "float", "nj_ms": "float", "np": "float",
          "np_pct": "float", "seed": "int", "delay_range_ms": "list | None",
          "label": "str"}


@dataclass(frozen=True)
class NetworkScenario:
    """Channel parameters: delay nd (ms) and jitter std nj (ms), both
    finite and non-negative, loss probability np in [0, 1], and a 64-bit
    RNG seed."""

    nd_ms: float
    nj_ms: float
    loss_prob: float
    seed: int = 0
    delay_range_ms: tuple[float, float] | None = None
    label: str = ""

    def __post_init__(self):
        # NaN fails every comparison, so it is rejected with inf
        if not (0 <= self.nd_ms < np.inf and 0 <= self.nj_ms < np.inf):
            raise DataError(f"delay {self.nd_ms} and jitter {self.nj_ms} "
                            f"must be finite and non-negative")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise DataError(f"loss probability {self.loss_prob} outside [0, 1]")

    def to_dict(self) -> dict:
        doc = {
            "nd_ms": self.nd_ms,
            "nj_ms": self.nj_ms,
            "np": self.loss_prob,
            "np_pct": self.loss_prob * 100.0,
            "seed": self.seed,
            "label": self.label,
        }
        if self.delay_range_ms is not None:
            doc["delay_range_ms"] = list(self.delay_range_ms)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkScenario":
        """Build a scenario from its JSON form (the keys to_dict writes);
        a non-object, an unknown key or a value of another type (as in a
        config, a string or a bool is not a number), a missing delay,
        jitter or loss entry, an out-of-range one, np and np_pct that
        disagree, a delay_range_ms that is not two finite numbers
        0 <= lo <= hi, or a label that is not one file-name component (it
        names the scenario's output files) or is too long to be one is a
        ConfigError."""
        check_keys(doc, _KINDS, "scenario")
        try:
            if "np" in doc:
                loss = float(doc["np"])
                if "np_pct" in doc and not np.isclose(
                        doc["np_pct"], 100.0 * loss, rtol=1e-9, atol=0.0):
                    raise ConfigError(f"scenario np {doc['np']!r} and np_pct "
                                      f"{doc['np_pct']!r} disagree")
            elif "np_pct" in doc:
                loss = float(doc["np_pct"]) / 100.0
            else:
                raise ConfigError(
                    "scenario needs 'np' (fraction) or 'np_pct' (percent)")
            nd_ms, nj_ms = float(doc["nd_ms"]), float(doc["nj_ms"])
            rng = doc.get("delay_range_ms")
            if rng is not None:
                rng = tuple(rng)
                if not (len(rng) == 2
                        and all(is_kind(v, "float") for v in rng)
                        and np.all(np.isfinite(rng))
                        and 0 <= rng[0] <= rng[1]):
                    raise ConfigError(
                        f"delay_range_ms must be two finite numbers "
                        f"0 <= lo <= hi, got {doc['delay_range_ms']!r}")
            label = doc.get("label", "")
            if label in (".", "..") or any(c in label for c in "/\\\0"):
                raise ConfigError(
                    f"label must be one file-name component, without / or "
                    f"\\ or NUL and not . or .., got {label!r}")
            # <label>_report.json is the longest name a label makes; it
            # must fit the common NAME_MAX of 255 bytes
            size = len(f"{label}_report.json".encode())
            if size > 255:
                raise ConfigError(
                    f"label of {len(label)} characters too long to name a "
                    f"file: <label>_report.json would be {size} bytes of "
                    f"UTF-8, over 255")
            return cls(nd_ms=nd_ms, nj_ms=nj_ms, loss_prob=loss,
                       seed=doc.get("seed", 0), delay_range_ms=rng,
                       label=label)
        except KeyError as exc:
            raise ConfigError(f"scenario needs {exc}") from None
        except (TypeError, ValueError, DataError) as exc:
            raise ConfigError(f"bad scenario {doc!r}: {exc}") from None


@dataclass(frozen=True)
class ImpairedStream:
    """What the estimator sees after the channel.

    observed row k equals clean row source_index[k]-1 when delivered;
    lost packets hold the previous observed row and carry source_index 0.
    source_index is 1-based to match the delay clamp max(1, ...).
    """

    observed: np.ndarray
    source_index: np.ndarray
    loss_mask: np.ndarray


def _round_half_up(x: np.ndarray) -> np.ndarray:
    # round() in the delay formula is half-away-from-zero, not banker's.
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def impair(clean: np.ndarray, scenario: NetworkScenario, dt: float,
           sample_delay_range: bool = False) -> ImpairedStream:
    """Pass a clean measurement stream through the impaired channel.

    For each sample k >= 2 (1-based) the delivered index is
    max(1, k - round(nd/dt + g_k * nj/dt)) with g_k standard normal and
    nd, nj converted from ms to samples; with probability loss_prob the
    packet is dropped and the previous observed value is held.  Sample 1
    always delivers clean[1].  Deterministic for a fixed seed.

    With ``sample_delay_range`` and a scenario carrying delay_range_ms,
    each sample draws its delay uniformly over the range instead of using
    the fixed nd_ms.
    """
    clean = as_series(clean)
    if clean.shape[0] < 2:
        raise DataError("clean stream needs at least 2 rows")
    if not 0 < dt < np.inf:
        raise DataError(f"dt must be positive and finite, got {dt}")
    n = clean.shape[0]

    jitter_ss, loss_ss, delay_ss = np.random.SeedSequence(scenario.seed).spawn(3)
    jitter_rng = np.random.Generator(np.random.PCG64(jitter_ss))
    loss_rng = np.random.Generator(np.random.PCG64(loss_ss))

    g = jitter_rng.standard_normal(n - 1)
    # random() lies in [0, 1), so p = 0 loses nothing and p = 1 everything
    loss_mask = np.concatenate(
        ([False], loss_rng.random(n - 1) < scenario.loss_prob))

    ms_to_samples = 1.0 / (dt * 1000.0)
    if sample_delay_range and scenario.delay_range_ms is not None:
        delay_rng = np.random.Generator(np.random.PCG64(delay_ss))
        lo, hi = scenario.delay_range_ms
        nd = delay_rng.uniform(lo, hi, n - 1) * ms_to_samples
    else:
        nd = scenario.nd_ms * ms_to_samples
    # A jitter term past the float range is an infinite offset, which the
    # clamps below treat like any other offset past the stream's ends.  An
    # infinite delay plus a -inf jitter term is NaN; the delay is never
    # negative, so it decides: +inf, which delivers row 1.
    with np.errstate(over="ignore", invalid="ignore"):
        offset = _round_half_up(nd + g * scenario.nj_ms * ms_to_samples)
    offset[np.isnan(offset)] = np.inf

    k = np.arange(2, n + 1)  # 1-based sample indices
    # Lower clamp per the delay formula; upper clamp keeps negative jitter
    # draws from indexing past the end of the stream.  Clamped before the
    # cast, so an offset beyond the int range clamps too.
    effective = np.empty(n, dtype=int)
    effective[0] = 1
    effective[1:] = np.clip(k - offset, 1, n).astype(int)

    # Held samples replay the last delivered index (forward fill).
    idx = np.where(loss_mask, 0, np.arange(n))
    np.maximum.accumulate(idx, out=idx)
    return ImpairedStream(observed=clean[effective[idx] - 1, :],
                          source_index=np.where(loss_mask, 0, effective),
                          loss_mask=loss_mask)


def scenario_suite() -> list[NetworkScenario]:
    """The six canonical Tactile-Internet scenarios in the --scenarios
    list form, seeded 0..5 and labelled scenario_1..scenario_6.  A ranged
    delay is kept as delay_range_ms beside its midpoint nd_ms, so that a
    per-sample uniform draw can be enabled instead."""
    docs = [
        {"nd_ms": 1.25, "nj_ms": 0.5, "np_pct": 0.01,
         "delay_range_ms": [0.5, 2.0]},
        {"nd_ms": 1.25, "nj_ms": 0.5, "np_pct": 0.001,
         "delay_range_ms": [0.5, 2.0]},
        {"nd_ms": 1.0, "nj_ms": 0.1, "np_pct": 0.01},
        {"nd_ms": 5.0, "nj_ms": 2.0, "np_pct": 0.001},
        {"nd_ms": 1.0, "nj_ms": 1.0, "np_pct": 0.001},
        {"nd_ms": 2600.0, "nj_ms": 3.0, "np_pct": 1.0,
         "delay_range_ms": [200.0, 5000.0]},
    ]
    return [NetworkScenario.from_dict(
                {**doc, "seed": i, "label": f"scenario_{i + 1}"})
            for i, doc in enumerate(docs)]
