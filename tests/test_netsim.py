import numpy as np
import pytest

from telekf import netsim
from telekf.errors import ConfigError, DataError

DT = 1 / 30


def ramp(n, channels=1):
    return np.arange(float(n * channels)).reshape(n, channels)


class TestImpair:
    def test_identity_channel(self):
        clean = ramp(50)
        s = netsim.impair(clean, netsim.NetworkScenario(0, 0, 0, seed=1), DT)
        np.testing.assert_array_equal(s.observed, clean)
        assert not s.loss_mask.any()
        np.testing.assert_array_equal(s.source_index, np.arange(1, 51))

    def test_total_loss_holds_first_sample(self):
        clean = ramp(40)
        s = netsim.impair(clean, netsim.NetworkScenario(0, 0, 1.0, seed=1), DT)
        np.testing.assert_array_equal(s.observed,
                                      np.tile(clean[0], (40, 1)))
        assert s.loss_mask[1:].all()

    def test_two_sample_shift(self):
        clean = ramp(30)
        nd_ms = 2 * DT * 1000
        s = netsim.impair(clean, netsim.NetworkScenario(nd_ms, 0, 0, seed=1), DT)
        expected = np.maximum(1, np.arange(1, 31) - 2)
        np.testing.assert_array_equal(s.source_index, expected)
        np.testing.assert_array_equal(s.observed.ravel(),
                                      clean[expected - 1].ravel())

    def test_pure_shift_invariant(self):
        clean = ramp(100)
        for shift in (1, 3, 10, 500):
            sc = netsim.NetworkScenario(shift * DT * 1000, 0, 0, seed=0)
            s = netsim.impair(clean, sc, DT)
            k = np.arange(1, 101)
            np.testing.assert_array_equal(
                s.observed.ravel(), clean[np.maximum(1, k - shift) - 1].ravel())
            assert s.source_index.min() == 1

    def test_determinism(self):
        clean = np.random.default_rng(0).standard_normal((500, 2))
        sc = netsim.NetworkScenario(40, 20, 0.05, seed=99)
        a = netsim.impair(clean, sc, DT)
        b = netsim.impair(clean, sc, DT)
        np.testing.assert_array_equal(a.observed, b.observed)
        np.testing.assert_array_equal(a.source_index, b.source_index)
        np.testing.assert_array_equal(a.loss_mask, b.loss_mask)

    def test_different_seeds_differ(self):
        clean = np.random.default_rng(0).standard_normal((500, 1))
        a = netsim.impair(clean, netsim.NetworkScenario(40, 20, 0.05, seed=1), DT)
        b = netsim.impair(clean, netsim.NetworkScenario(40, 20, 0.05, seed=2), DT)
        assert not np.array_equal(a.observed, b.observed)

    @pytest.mark.parametrize("p", [0.0001, 0.01, 0.1])
    def test_empirical_loss_rate(self, p):
        n = 100_000
        clean = np.zeros((n, 1))
        s = netsim.impair(clean, netsim.NetworkScenario(0, 0, p, seed=7), DT)
        rate = s.loss_mask[1:].mean()
        assert abs(rate - p) <= 3 * np.sqrt(p * (1 - p) / n)

    def test_hold_uses_previous_observed(self):
        # with a large delay plus loss, held samples must repeat the stale
        # observed value, not the current clean one
        clean = ramp(200)
        sc = netsim.NetworkScenario(50 * DT * 1000, 0, 0.3, seed=3)
        s = netsim.impair(clean, sc, DT)
        for k in range(1, 200):
            if s.loss_mask[k]:
                np.testing.assert_array_equal(s.observed[k], s.observed[k - 1])
                assert s.source_index[k] == 0
            else:
                np.testing.assert_array_equal(
                    s.observed[k], clean[s.source_index[k] - 1])

    def test_extreme_delay_clamps_to_first_sample(self):
        clean = ramp(20)
        sc = netsim.NetworkScenario(1e7, 0, 0, seed=0)
        s = netsim.impair(clean, sc, DT)
        assert s.source_index.min() == 1
        np.testing.assert_array_equal(s.observed,
                                      np.tile(clean[0], (20, 1)))

    def test_preconditions(self):
        with pytest.raises(DataError):
            netsim.impair(np.zeros((1, 1)), netsim.NetworkScenario(0, 0, 0), DT)
        for dt in (0.0, np.nan, np.inf):
            with pytest.raises(DataError, match="positive and finite"):
                netsim.impair(np.zeros((5, 1)),
                              netsim.NetworkScenario(0, 0, 0), dt)

    def test_sampled_delay_range(self):
        clean = ramp(2000)
        sc = netsim.NetworkScenario(2600, 0, 0, seed=5,
                                    delay_range_ms=(200.0, 5000.0))
        dt = 1e-3
        fixed = netsim.impair(clean, sc, dt)
        ranged = netsim.impair(clean, sc, dt, sample_delay_range=True)
        # the fixed 2600-sample shift exceeds every index, so the whole
        # stream pins to the first sample; per-sample draws down to 200
        # samples let later indices through
        assert np.unique(fixed.source_index).size == 1
        assert fixed.source_index[0] == 1
        assert np.unique(ranged.source_index[1:]).size > 10


class TestScenario:
    def test_invariants(self):
        with pytest.raises(DataError):
            netsim.NetworkScenario(-1, 0, 0)
        with pytest.raises(DataError):
            netsim.NetworkScenario(0, 0, 1.5)
        for nd, nj in ((np.inf, 0), (0, np.nan)):
            with pytest.raises(DataError, match="finite"):
                netsim.NetworkScenario(nd, nj, 0)

    def test_dict_roundtrip_percent_encoding(self):
        sc = netsim.NetworkScenario(1.0, 0.1, 0.0001, seed=4)
        doc = sc.to_dict()
        assert doc["np_pct"] == pytest.approx(0.01)
        again = netsim.NetworkScenario.from_dict(doc)
        assert again == sc
        pct_only = {"nd_ms": 1.0, "nj_ms": 0.1, "np_pct": 0.01}
        assert netsim.NetworkScenario.from_dict(pct_only).loss_prob == \
            pytest.approx(0.0001)

    def test_np_and_np_pct_must_agree(self):
        doc = {"nd_ms": 1.0, "nj_ms": 0.1, "np": 0.07, "np_pct": 7}
        # 100 * 0.07 is 7.000000000000001: rounding is allowed
        assert netsim.NetworkScenario.from_dict(doc).loss_prob == 0.07
        with pytest.raises(ConfigError, match="disagree"):
            netsim.NetworkScenario.from_dict({**doc, "np_pct": 7.0001})

    def test_label_fits_one_file_name(self):
        # <label>_report.json must fit 255 bytes of UTF-8: 243 ASCII
        # characters do, 122 two-byte ones (244 bytes) do not
        doc = {"nd_ms": 1.0, "nj_ms": 0.1, "np": 0.0}
        longest = "x" * 243
        assert netsim.NetworkScenario.from_dict(
            {**doc, "label": longest}).label == longest
        for label in ("x" * 244, "\u00e9" * 122):
            with pytest.raises(ConfigError, match="too long to name a file"):
                netsim.NetworkScenario.from_dict({**doc, "label": label})

    def test_suite_dict_roundtrip(self):
        for i, sc in enumerate(netsim.scenario_suite()):
            sc = sc.with_seed(2**64 - 1 - i)
            assert netsim.NetworkScenario.from_dict(sc.to_dict()) == sc


class TestSuite:
    def test_length(self):
        assert len(netsim.scenario_suite()) == 6

    def test_row3(self):
        sc = netsim.scenario_suite()[2]
        assert sc.nj_ms == 0.1
        assert sc.nd_ms == 1.0
        assert sc.loss_prob == pytest.approx(0.0001)

    def test_row6_midpoint(self):
        sc = netsim.scenario_suite()[5]
        assert sc.nj_ms == 3.0
        assert sc.nd_ms == pytest.approx(2600.0)
        assert sc.loss_prob == pytest.approx(0.01)
        assert sc.delay_range_ms == (200.0, 5000.0)

    def test_all_rows(self):
        # (nj_ms, nd_ms or (lo, hi) delay range, loss %) of the six rows
        table = [
            (0.5, (0.5, 2.0), 0.01),
            (0.5, (0.5, 2.0), 0.001),
            (0.1, 1.0, 0.01),
            (2.0, 5.0, 0.001),
            (1.0, 1.0, 0.001),
            (3.0, (200.0, 5000.0), 1.0),
        ]
        suite = netsim.scenario_suite()
        assert len(suite) == len(table)
        for i, (sc, (nj, nd, loss_pct)) in enumerate(zip(suite, table)):
            ranged = isinstance(nd, tuple)
            assert sc.nj_ms == nj
            assert sc.nd_ms == ((nd[0] + nd[1]) / 2.0 if ranged else nd)
            assert sc.loss_prob == loss_pct / 100.0
            assert sc.delay_range_ms == (nd if ranged else None)
            assert sc.seed == i
            assert sc.label == f"scenario_{i + 1}"
