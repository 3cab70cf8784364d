import numpy as np
import pytest

import gvcplm as g
from gvcplm import CurveEstimate, ParameterError

from oracles import brute_force_quadratic, brute_force_rase


class TestGmse:
    def test_zero_at_truth(self):
        beta = np.array([1.0, -2.0, 0.5])
        assert g.gmse(beta, beta, g.ar1_moment(3)) == 0.0

    def test_unit_coordinate_identity_moment(self):
        beta0 = np.zeros(4)
        beta = np.eye(4)[0]
        assert g.gmse(beta, beta0, np.eye(4)) == pytest.approx(1.0)

    def test_matches_brute_force_double_sum(self, rng):
        moment = g.ar1_moment(6)
        beta0 = rng.normal(size=6)
        beta = beta0 + rng.normal(size=6) * 0.1
        assert g.gmse(beta, beta0, moment) == pytest.approx(
            brute_force_quadratic(beta - beta0, moment)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            g.gmse(np.zeros(3), np.zeros(4), np.eye(4))


class TestRase:
    def _curve(self, values):
        grid = np.linspace(0, 1, values.shape[0])
        return CurveEstimate(grid=grid, values=values)

    def test_zero_when_exact(self):
        grid = np.linspace(0, 1, 200)
        funcs = (np.sin, np.cos)
        curve = CurveEstimate(grid=grid,
                              values=np.column_stack([np.sin(grid), np.cos(grid)]))
        assert g.rase(curve, funcs) == 0.0

    def test_constant_offset_in_one_component(self):
        grid = np.linspace(0, 1, 200)
        c = 0.37
        curve = CurveEstimate(
            grid=grid,
            values=np.column_stack([np.sin(grid) + c, np.cos(grid)]),
        )
        assert g.rase(curve, (np.sin, np.cos)) == pytest.approx(c)

    def test_matches_brute_force_loop(self, rng):
        grid = np.linspace(0, 1, 50)
        values = rng.normal(size=(50, 2))
        funcs = (np.sin, np.cos)
        curve = CurveEstimate(grid=grid, values=values)
        truth = np.column_stack([np.sin(grid), np.cos(grid)])
        assert g.rase(curve, funcs) == pytest.approx(
            brute_force_rase(values, truth)
        )


class TestSummaries:
    def test_sd_mad_definition(self, rng):
        x = rng.normal(size=5000)
        q75, q25 = np.percentile(x, [75, 25])
        assert g.sd_mad(x) == pytest.approx((q75 - q25) / 1.349)
        # for a large normal sample this approximates the SD
        assert abs(g.sd_mad(x) - 1.0) < 0.1

    def test_metric_summary_fields(self):
        s = g.MetricSummary.from_samples([1.0, 2.0, 3.0, 4.0])
        assert s.median == pytest.approx(2.5)
        assert s.mean == pytest.approx(2.5)
        assert s.sd == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert s.as_dict()["median"] == pytest.approx(2.5)

    def test_single_sample_has_no_sd(self):
        s = g.MetricSummary.from_samples([3.0])
        assert (s.median, s.sd_mad, s.mean, s.sd) == (3.0, 0.0, 3.0, None)

    def test_ar1_moment(self):
        m = g.ar1_moment(3, 0.5)
        np.testing.assert_allclose(
            m, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]]
        )
