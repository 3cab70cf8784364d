import numpy as np
import pytest

import gvcplm as g
from gvcplm import Dataset, ParameterError


class TestDifferenceWeights:
    def test_partial_linear_window(self):
        w = g.difference_weights(np.ones((2, 1)))
        np.testing.assert_allclose(w, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)

    def test_unique_null_direction(self):
        window = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w = g.difference_weights(window)
        np.testing.assert_allclose(w, np.array([1.0, 1.0, -1.0]) / np.sqrt(3),
                                   atol=1e-12)

    def test_random_windows_annihilate(self, rng):
        for _ in range(25):
            window = rng.normal(size=(3, 2))
            w = g.difference_weights(window)
            assert np.linalg.norm(w @ window) < 1e-10
            assert np.linalg.norm(w) == pytest.approx(1.0)
            # sign convention: first sizable entry positive
            lead = np.flatnonzero(np.abs(w) > 1e-12)[0]
            assert w[lead] > 0

    def test_rank_deficient_window_still_returns_unit_vector(self):
        window = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
        w = g.difference_weights(window)
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.linalg.norm(w @ window) < 1e-10

    def test_bad_shape(self):
        with pytest.raises(ParameterError):
            g.difference_weights(np.ones((3, 3)))


def _constant_alpha_dataset(n=120, p=3, seed=4, noise=0.0):
    gen = np.random.default_rng(seed)
    u = gen.uniform(0, 1, n)
    x = np.ones((n, 1))
    z = gen.normal(size=(n, p))
    beta = np.array([0.8, -0.4, 0.2])
    y = 1.5 + z @ beta + noise * gen.normal(size=n)
    return Dataset(u=u, x=x, z=z, y=y), beta


class TestFitDbe:
    def test_exact_recovery_without_noise(self):
        # constant coefficient function, no noise: differencing is exact
        data, beta = _constant_alpha_dataset()
        result = g.fit_dbe("gaussian", data)
        np.testing.assert_allclose(result.beta0, beta, atol=1e-8)
        assert result.n_starred == data.n - data.n_curves

    def test_permutation_invariance(self, rng):
        data, _ = _constant_alpha_dataset(noise=0.5)
        perm = rng.permutation(data.n)
        shuffled = Dataset(u=data.u[perm], x=data.x[perm],
                           z=data.z[perm], y=data.y[perm])
        a = g.fit_dbe("gaussian", data)
        b = g.fit_dbe("gaussian", shuffled)
        np.testing.assert_allclose(a.beta0, b.beta0, atol=1e-12)
        np.testing.assert_allclose(a.gamma0, b.gamma0, atol=1e-12)

    def test_gaussian_benchmark_design_beats_noise_floor(self):
        # gaussian variant of the benchmark design: the converged fit should
        # reduce the difference-based GMSE by far more than half
        design = g.poisson_design(400)
        gen = np.random.default_rng(9)
        u = gen.uniform(0, 1, 400)
        chol = np.linalg.cholesky(g.ar1_moment(design.p_dim + 1))
        zx = gen.standard_normal((400, design.p_dim + 1)) @ chol.T
        z, x2 = zx[:, :design.p_dim], zx[:, design.p_dim]
        x = np.column_stack([np.ones(400), x2])
        a1, a2 = design.alpha_funcs
        y = a1(u) + a2(u) * x2 + z @ design.beta0 + gen.normal(size=400)
        data = Dataset(u=u, x=x, z=z, y=y)
        moment = g.design_moment(design)
        dbe = g.fit_dbe("gaussian", data)
        cfg = g.FitConfig(smoothing=g.SmoothingParams(h=0.15), max_steps=50)
        final = g.fit("gaussian", data, cfg, init=dbe.beta0, curve_grid=False)
        ratio = g.gmse(final.beta, design.beta0, moment) / g.gmse(
            dbe.beta0, design.beta0, moment
        )
        assert np.isfinite(ratio)
        assert ratio < 0.5

    def test_poisson_initializer_is_consistent_enough(self):
        # calibration run: the start lands within Euclidean distance 1.5 of
        # the truth in at least 90% of replicates
        design = g.poisson_design(200)
        hits = 0
        reps = 50
        for rep in range(reps):
            data = g.generate(design, seed=g.replicate_seed(13, rep))
            result = g.fit_dbe("poisson", data, 0.1)
            hits += np.linalg.norm(result.beta0 - design.beta0) < 1.5
        assert hits >= 0.9 * reps

    def test_sample_size_precondition(self):
        data, _ = _constant_alpha_dataset(n=7)
        with pytest.raises(ParameterError):
            g.fit_dbe("gaussian", data)


def _loop_weights(x_window):
    """The per-window difference weights, one SVD at a time."""
    _, _, vt = np.linalg.svd(x_window.T, full_matrices=True)
    w = vt[-1]
    lead = np.flatnonzero(np.abs(w) > 1e-12)
    if lead.size and w[lead[0]] < 0:
        w = -w
    return w


def _loop_dbe(family, data, delta):
    """Reference: the difference-based fit with a Python loop over windows."""
    fam = g.get_family(family)
    n, q, p = data.n, data.n_curves, data.n_linear
    order = np.argsort(data.u, kind="stable")
    u, x, z = data.u[order], data.x[order], data.z[order]
    gy = fam.transform(data.y, delta)[order]
    y_star = np.empty(n - q)
    design = np.empty((n - q, 2 * q + p))
    for i in range(n - q):
        sl = slice(i, i + q + 1)
        w = _loop_weights(x[sl])
        y_star[i] = w @ gy[sl]
        design[i, :q] = x[i] * w[0]
        design[i, q : 2 * q] = (w * u[sl]) @ x[sl]
        design[i, 2 * q :] = w @ z[sl]
    coef, residual, _, _ = np.linalg.lstsq(design, y_star, rcond=None)
    rss = float(residual[0]) if residual.size else float(
        np.sum((y_star - design @ coef) ** 2))
    return coef, rss


def _tied_and_repeated(family, n=300, seed=5):
    """u on a grid of 25 values (many ties) and x rows drawn from 3 distinct
    rows, so that many windows repeat a row and are rank deficient."""
    gen = np.random.default_rng(seed)
    u = gen.integers(0, 25, n) / 25.0
    x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -2.0]])[gen.integers(0, 3, n)]
    z = gen.normal(size=(n, 4))
    lp = 0.5 * x[:, 1] * np.sin(2 * np.pi * u) + z @ np.array([0.4, -0.3, 0.2, 0.0])
    if family == "poisson":
        y = gen.poisson(np.exp(1.0 + lp)).astype(float)
    else:
        y = (gen.uniform(size=n) < 1.0 / (1.0 + np.exp(-lp))).astype(float)
    return Dataset(u=u, x=x, z=z, y=y)


class TestBatchedDifferencing:
    """fit_dbe's batched differencing is bit-identical to the window loop."""

    @pytest.mark.parametrize("family, n, delta", [
        ("poisson", 200, 0.1), ("poisson", 1500, 0.1),
        ("bernoulli", 200, 0.005), ("bernoulli", 400, 0.005),
    ])
    def test_benchmark_designs(self, family, n, delta):
        design = g.make_design(family, n)
        data = g.generate(design, seed=g.replicate_seed(23, n))
        self._check(family, data, delta)

    @pytest.mark.parametrize("family", ["poisson", "bernoulli"])
    def test_ties_in_u_and_repeated_x_rows(self, family):
        data = _tied_and_repeated(family)
        order = np.argsort(data.u, kind="stable")
        x = data.x[order]
        ranks = [np.linalg.matrix_rank(x[i : i + 3]) for i in range(data.n - 2)]
        assert ranks.count(1) > 10            # rank-deficient windows occur
        # and some null direction leads with a zero entry, so the sign rule
        # reads a later one
        leads = [np.flatnonzero(np.abs(_loop_weights(x[i : i + 3])) > 1e-12)[0]
                 for i in range(data.n - 2)]
        assert max(leads) > 0
        self._check(family, data, 0.05)

    @staticmethod
    def _check(family, data, delta):
        coef, rss = _loop_dbe(family, data, delta)
        got = g.fit_dbe(family, data, delta)
        q = data.n_curves
        assert np.array_equal(got.beta0, coef[2 * q :])
        assert np.array_equal(got.gamma0, coef[:q])
        assert np.array_equal(got.gamma1, coef[q : 2 * q])
        assert got.residual_ss == rss
