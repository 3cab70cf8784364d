import numpy as np
import pytest

import gvcplm as g
from gvcplm import CrossValidationError, Dataset, FitConfig, ParameterError
from gvcplm.smoothing import SmoothingParams


def _poisson_data(n=200, rep=0):
    return g.generate(g.make_design("poisson", n), seed=g.replicate_seed(61, rep))


class TestCrossValidate:
    def test_single_cell_grid(self):
        data = _poisson_data()
        report = g.cross_validate("poisson", data, grid=[(0.1, 0.12)], k=3, seed=5)
        assert report.best.h == pytest.approx(0.12)
        assert report.best.delta == pytest.approx(0.1)
        assert not report.failed[0]

    def test_determinism(self):
        data = _poisson_data()
        grid = [(0.1, 0.08), (0.1, 0.15)]
        a = g.cross_validate("poisson", data, grid=grid, k=4, seed=11)
        b = g.cross_validate("poisson", data, grid=grid, k=4, seed=11)
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.best == b.best
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)

    def test_heldout_responses_never_enter_training(self):
        data = _poisson_data()
        grid = [(0.1, 0.12)]
        base = g.cross_validate("poisson", data, grid=grid, k=4, seed=13)
        fold0 = base.folds[0]
        poisoned_y = data.y.copy()
        poisoned_y[fold0] = poisoned_y[fold0] + 5.0
        poisoned = Dataset(u=data.u, x=data.x, z=data.z, y=poisoned_y)
        other = g.cross_validate("poisson", poisoned, grid=grid, k=4, seed=13)
        # fold 0's trained coefficients exclude the poisoned rows: unchanged
        np.testing.assert_allclose(base.fold_betas[0][0], other.fold_betas[0][0],
                                   atol=1e-10)
        # but the held-out score must notice the corruption
        assert not np.allclose(base.scores, other.scores)

    def test_failed_cells_are_excluded(self):
        data = _poisson_data()
        grid = [(0.1, 1e-5), (0.1, 0.12)]  # first cell cannot support local fits
        report = g.cross_validate("poisson", data, grid=grid, k=4, seed=7)
        assert report.failed[0]
        assert not report.failed[1]
        assert report.best.h == pytest.approx(0.12)

    def test_failure_reason_is_recorded(self):
        data = _poisson_data()
        grid = [(0.1, 1e-5), (0.1, 0.12)]
        report = g.cross_validate("poisson", data, grid=grid, k=4, seed=7)
        assert report.reasons[0].startswith("EffectiveSampleError: only ")
        assert "bandwidth 1e-05 too small" in report.reasons[0]
        assert report.reasons[1] is None
        assert report.fold_betas[0] is None

    def test_parameter_error_is_raised_not_recorded(self):
        # a delta-less bernoulli grid is a configuration mistake, not a
        # failed cell
        data = g.generate(g.make_design("bernoulli", 200), seed=g.replicate_seed(67, 0))
        with pytest.raises(ParameterError, match="delta"):
            g.cross_validate("bernoulli", data, grid=[(None, 0.3), (None, 0.5)],
                             k=3, seed=1)

    def test_all_cells_failing_raises(self):
        data = _poisson_data()
        with pytest.raises(CrossValidationError):
            g.cross_validate("poisson", data, grid=[(0.1, 1e-5)], k=4, seed=7)

    def test_bad_fold_count(self):
        data = _poisson_data()
        with pytest.raises(ParameterError):
            g.cross_validate("poisson", data, grid=[(0.1, 0.1)], k=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_seed_not_a_count(self, seed):
        data = _poisson_data()
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            g.cross_validate("poisson", data, grid=[(0.1, 0.1)], k=3, seed=seed)

    @pytest.mark.parametrize("k", [5.5, 2.9, 3.0, "3", True])
    def test_fold_count_not_an_integer(self, k):
        # np.array_split would truncate 5.5 to 5 folds and 2.9 to 2
        data = _poisson_data()
        with pytest.raises(ParameterError, match="needs an integer 2 <= k"):
            g.cross_validate("poisson", data, grid=[(0.1, 0.1)], k=k)

    def test_more_folds_than_observations(self):
        # k > n would leave a fold empty and spend a fit on the full data
        data = _poisson_data()
        with pytest.raises(ParameterError, match="k <= n"):
            g.cross_validate("poisson", data, grid=[(0.1, 0.1)], k=data.n + 1)

    def test_tie_breaks_toward_larger_bandwidth(self, monkeypatch):
        data = _poisson_data()
        grid = [(0.1, 0.08), (0.1, 0.12)]
        report = g.cross_validate("poisson", data, grid=grid, k=3, seed=3)
        # force a tie by construction: equal scores -> larger h wins
        scores = report.scores.copy()
        scores[:] = scores.max()
        order = [(scores[i], grid[i][1], grid[i][0], i) for i in range(len(grid))]
        assert max(order)[3] == 1


class TestOrderIndependence:
    """Cells at the same h share one training engine and held-out fitter per
    fold, but each cell's result is bit-identical to a one-cell run."""

    GRID = [(0.1, 0.12), (0.05, 0.2), (0.05, 1e-5), (0.2, 0.12), (0.05, 0.12),
            (0.1, 0.2)]

    @pytest.mark.parametrize("config", [None, FitConfig(
        smoothing=SmoothingParams(h=1.0, degree=0), algorithm="backfitting",
        max_steps=2)])
    def test_each_cell_equals_a_one_cell_run(self, config):
        data = _poisson_data()
        report = g.cross_validate("poisson", data, grid=self.GRID, k=4, seed=3,
                                  config=config)
        assert report.failed.tolist() == [False, False, True, False, False, False]
        assert report.reasons[2].startswith("EffectiveSampleError: ")
        for cell, (delta, h) in enumerate(self.GRID):
            if cell == 2:
                continue
            alone = g.cross_validate("poisson", data, grid=[(delta, h)], k=4,
                                     seed=3, config=config)
            assert np.array_equal(report.scores[cell], alone.scores[0])
            assert len(report.fold_betas[cell]) == 4
            for got, want in zip(report.fold_betas[cell], alone.fold_betas[0]):
                assert np.array_equal(got, want)

    def test_no_training_fit_differentiates_its_last_step(self, monkeypatch):
        # a training fit keeps beta only: the trials of its last allowed step
        # are solved without z, every other solve of the fit with it
        events = []
        newton_fit, solve_descent = g.profile._newton_fit, g.profile._solve_descent
        solve = g.CurveFitter.solve

        def fit_spy(*args, **kwargs):
            events.append("fit")
            result = newton_fit(*args, **kwargs)
            events.append("end")
            return result

        def step_spy(*args):
            events.append("step")
            return solve_descent(*args)

        def solve_spy(self, offsets, warm=None, z=None):
            events.append(z is not None)
            return solve(self, offsets, warm, z)

        monkeypatch.setattr(g.profile, "_newton_fit", fit_spy)
        monkeypatch.setattr(g.profile, "_solve_descent", step_spy)
        monkeypatch.setattr(g.CurveFitter, "solve", solve_spy)
        config = FitConfig(SmoothingParams(h=1.0), max_steps=2)
        g.cross_validate("poisson", _poisson_data(), grid=[(0.1, 0.12), (0.05, 0.2)],
                         k=3, seed=3, config=config)
        # per fit: the solves before its first step, then each step's trials
        fits, inside = [], False
        for event in events:
            if event == "fit":
                fits.append([[]])
                inside = True
            elif event == "end":
                inside = False
            elif event == "step":
                fits[-1].append([])
            elif inside:
                fits[-1][-1].append(event)
        assert len(fits) == 6
        for start, *steps in fits:
            assert start == [True] and len(steps) == config.max_steps
            assert all(all(step) for step in steps[:-1])
            assert steps[-1] and not any(steps[-1])

    def test_dbe_start_once_per_fold_and_delta(self, monkeypatch):
        # the grid fits deltas 0.1, 0.2 and 0.05 at h = 0.12 and two of them
        # again at h = 0.2 (the cell at h = 1e-5 fails before any fit)
        calls = []
        fit_dbe = g.fit_dbe

        def counted(*args, **kwargs):
            calls.append(args[2])
            return fit_dbe(*args, **kwargs)

        monkeypatch.setattr(g.crossval, "fit_dbe", counted)
        monkeypatch.setattr(g.profile, "fit_dbe", counted)
        g.cross_validate("poisson", _poisson_data(), grid=self.GRID, k=4, seed=3)
        assert sorted(calls) == sorted([0.1, 0.2, 0.05] * 4)


@pytest.mark.slow
class TestSelectedBandwidthBands:
    """The selected h should land near the values used for the benchmark
    studies: within a factor 1.5 in at least 60 percent of replicates."""

    def test_poisson_n200_selects_near_point_one(self):
        grid = [(0.1, h) for h in (0.05, 0.1, 0.2)]
        hits = 0
        reps = 20
        for rep in range(reps):
            data = _poisson_data(rep=rep)
            report = g.cross_validate("poisson", data, grid=grid, k=5, seed=rep)
            if 0.1 / 1.5 <= report.best.h <= 0.1 * 1.5:
                hits += 1
        assert hits >= 0.6 * reps

    def test_bernoulli_n400_selects_near_point_four(self):
        grid = [(0.005, h) for h in (0.2, 0.4, 0.8)]
        hits = 0
        reps = 20
        for rep in range(reps):
            data = g.generate(g.make_design("bernoulli", 400), seed=g.replicate_seed(67, rep))
            report = g.cross_validate("bernoulli", data, grid=grid, k=5, seed=rep)
            if 0.4 / 1.5 <= report.best.h <= 0.4 * 1.5:
                hits += 1
        assert hits >= 0.6 * reps


class TestDefaultGrids:
    def test_default_grid_brackets_rule_of_thumb(self):
        data = _poisson_data()
        hs = g.default_h_grid(data)
        rot = (data.u.max() - data.u.min()) * data.n ** -0.2
        assert hs.min() == pytest.approx(0.5 * rot, rel=1e-6)
        assert hs.max() == pytest.approx(2.0 * rot, rel=1e-6)
        assert len(hs) == 10

    def test_constant_u_has_no_default_grid(self):
        data = _poisson_data()
        flat = g.Dataset(u=np.full(data.n, 0.25), x=data.x, z=data.z, y=data.y)
        with pytest.raises(g.DataError, match="u takes the single value 0.25"):
            g.default_h_grid(flat)

    def test_gaussian_grid_has_no_delta_dimension(self):
        data, _, _ = __import__("conftest").make_gaussian_dataset(n=60, p=2, seed=1)
        grid = g.default_smoothing_grid("gaussian", data)
        assert all(d is None for d, _ in grid)

    def test_poisson_grid_spans_deltas(self):
        data = _poisson_data()
        grid = g.default_smoothing_grid("poisson", data)
        assert sorted({d for d, _ in grid}) == [0.005, 0.01, 0.05, 0.1, 0.2]
