"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Stochastic criteria use the fixed master seed below and tolerance bands
rather than exact Monte Carlo values; the heavy study reports are computed
once per session and shared across criteria.  The criteria that run the
studies (3 to 7) are marked ``slow``.
"""

import time

import numpy as np
import pytest
from scipy import stats

import gvcplm as g
from gvcplm import CurveFitter, Dataset, FitConfig, ProfileEngine, SmoothingParams

from conftest import make_gaussian_dataset
from oracles import fd_gradient, gaussian_profile_wls

MASTER_SEED = 20260810

# pilot-calibrated power fixture: a 50-replicate pilot of the n = 400
# Poisson design showed rejection rates of 1.00 at every gamma from 0.05
# upward at level 0.05, so separation is confirmed through the largest
# alternative on the grid
POWER_GAMMAS = (0.0, 0.05, 0.10, 0.15, 0.20)
PILOT_CONFIRMED_GAMMA = 0.20


def _verdict(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def table1_report():
    return g.run_table("table1", reps=50, seed=MASTER_SEED, family="poisson", n=200)


@pytest.fixture(scope="module")
def table2_report():
    return g.run_table("table2", reps=50, seed=MASTER_SEED, family="poisson", n=200)


@pytest.fixture(scope="module")
def table4_report():
    return g.run_table("table4", reps=200, seed=MASTER_SEED, family="poisson", n=400)


@pytest.fixture(scope="module")
def fig1_null_report():
    return g.run_table("fig1_null", reps=200, seed=MASTER_SEED, family="poisson",
                       n=400)


@pytest.fixture(scope="module")
def fig1_power_report():
    return g.run_table("fig1_power", reps=50, seed=MASTER_SEED, family="poisson",
                       n=400, gammas=POWER_GAMMAS)


def test_criterion_1_gaussian_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    sm = SmoothingParams(h=0.25)
    for rep in range(20):
        data, _, _ = make_gaussian_dataset(n=300, q=2, p=6, seed=1000 + rep)
        oracle, _, _ = gaussian_profile_wls(data, sm)
        res = g.fit("gaussian", data, FitConfig(smoothing=sm, max_steps=10))
        worst = max(worst, float(np.linalg.norm(res.beta - oracle)))
    elapsed = time.perf_counter() - start
    _verdict(1, "gaussian oracle equivalence",
             worst < 1e-6 and elapsed < 10.0,
             f"max |beta - oracle| = {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_2_derivative_consistency():
    worst_grad = 0.0
    worst_ap = 0.0
    for family, h, delta in (("poisson", 0.25, 0.1), ("bernoulli", 0.45, 0.005)):
        base = g.make_design(family, 100)
        design = g.SimDesign(family, 100, 5, base.beta0[:5], base.alpha_funcs)
        data = g.generate(design, seed=g.replicate_seed(MASTER_SEED, 0))
        sm = SmoothingParams(h=h, delta=delta)
        beta = 0.9 * design.beta0
        engine = ProfileEngine(family, data, sm)
        grad = engine.gradient(engine.state(beta))
        fd = fd_gradient(lambda b: engine.state(b, differentiate=False).loglik,
                         beta, eps=1e-5)
        rel = np.abs(grad - fd) / (1.0 + np.abs(fd))
        worst_grad = max(worst_grad, float(rel.max()))
        for u in (0.3, 0.7):
            fitter = CurveFitter(family, data.x, data.y, data.u, sm, [u])
            ap = fitter.alpha_prime(fitter.solve(data.z @ beta, z=data.z))[0]
            fd_ap = np.zeros_like(ap)
            for j in range(5):
                e = np.zeros(5)
                e[j] = 1e-4
                hi = fitter.curve_values(fitter.solve(data.z @ (beta + e)))[0]
                lo = fitter.curve_values(fitter.solve(data.z @ (beta - e)))[0]
                fd_ap[j] = (hi - lo) / 2e-4
            worst_ap = max(worst_ap, float(np.abs(ap - fd_ap).max()))
    _verdict(2, "derivative consistency",
             worst_grad < 1e-4 and worst_ap < 5e-3,
             f"gradient rel err {worst_grad:.2e}, curve-derivative err {worst_ap:.2e}")


@pytest.mark.slow
def test_criterion_3_gmse_ratios(table2_report):
    s = table2_report["summary"]
    af_dbe = s["ratio_af_dbe_pct"]["median"]
    af_3s = s["ratio_af_3s_pct"]["median"]
    ok = 3.0 <= af_dbe <= 25.0 and 95.0 <= af_3s <= 110.0
    _verdict(3, "iterated-vs-start GMSE ratios",
             ok, f"median AF/DBE = {af_dbe:.1f}%, median AF/3S = {af_3s:.1f}%")


@pytest.mark.slow
def test_criterion_4_algorithm_comparison(table1_report):
    s = table1_report["summary"]
    gmse_accel = s["gmse_accelerated_x1e4"]["median"]
    gmse_backfit = s["gmse_backfitting_x1e4"]["median"]
    rase_ratio = s["rase_ratio_accelerated_median"]
    time_ratio = s["time_ratio_full_over_accelerated_median"]
    ratios = [r["time_full"] / r["time_accelerated"]
              for r in table1_report["replicates"]]
    q10, q90 = np.quantile(ratios, [0.1, 0.9])
    ok = (gmse_accel <= 0.8 * gmse_backfit
          and rase_ratio >= 0.9
          and time_ratio >= 10.0)
    _verdict(4, "algorithm timing and accuracy", ok,
             f"GMSE accel/backfit = {gmse_accel:.2f}/{gmse_backfit:.2f} x1e-4, "
             f"RASE ratio {rase_ratio:.3f}, time ratio {time_ratio:.1f}x "
             f"(q10-q90 {q10:.1f}-{q90:.1f}x)")


@pytest.mark.slow
def test_criterion_5_sandwich_accuracy(table4_report):
    s = table4_report["summary"]["beta_1"]
    mc_sd = s["mc_sd"]
    se_med = s["se_median"]
    ok = abs(se_med - mc_sd) <= 0.25 * mc_sd
    _verdict(5, "sandwich standard errors", ok,
             f"median SE = {se_med:.4g} vs Monte Carlo SD = {mc_sd:.4g}")


@pytest.mark.slow
def test_criterion_6_wilks_null_distribution(fig1_null_report):
    rows = fig1_null_report["replicates"]
    t_vals = np.array([r["t_stat"] for r in rows])
    df = fig1_null_report["summary"]["df"]
    rejection = fig1_null_report["summary"]["rejection_rates"]["0.05"]
    ks = stats.kstest(t_vals, stats.chi2(df).cdf).statistic
    ok = 0.02 <= rejection <= 0.09 and ks < 0.10
    _verdict(6, "Wilks null distribution", ok,
             f"rejection@0.05 = {rejection:.3f}, KS distance to chi2_{df} = {ks:.3f}")


@pytest.mark.slow
def test_criterion_7_power_monotonicity(fig1_power_report):
    power = fig1_power_report["summary"]["power"]["0.05"]
    gammas = fig1_power_report["summary"]["gammas"]
    inversions = [max(0.0, a - b) for a, b in zip(power, power[1:])]
    big = [d for d in inversions if d > 1e-12]
    monotone_ok = len(big) <= 1 and all(d <= 0.03 for d in big)
    top = power[gammas.index(PILOT_CONFIRMED_GAMMA)]
    ok = monotone_ok and top > 0.9
    _verdict(7, "power monotonicity", ok,
             f"power@0.05 over gamma {gammas} = {np.round(power, 3).tolist()}, "
             f"power at gamma={PILOT_CONFIRMED_GAMMA} is {top:.2f}")


class TestCriterion8Properties:
    """Compact re-checks of the property suites (details in the module tests)."""

    def test_bartlett_mean_score(self):
        n, p = 200, 6
        sm = SmoothingParams(h=0.2)
        bound = 5.0 * np.sqrt(p / n)
        worst = 0.0
        for rep in range(20):
            data, beta0, _ = make_gaussian_dataset(n=n, p=p, seed=300 + rep)
            engine = g.ProfileEngine("gaussian", data, sm)
            norm = np.linalg.norm(engine.gradient(engine.state(beta0))) / n
            worst = max(worst, float(norm))
        _verdict("8a", "Bartlett mean-score", worst < bound,
                 f"max mean-score norm {worst:.3f} < {bound:.3f}")

    def test_glrt_rowspace_invariance(self):
        design = g.poisson_design(200)
        data = g.generate(design, seed=g.replicate_seed(MASTER_SEED, 1))
        cfg = FitConfig(smoothing=SmoothingParams(h=0.1, delta=0.1), max_steps=30)
        fit_alt = g.fit("poisson", data, cfg)
        rows = np.eye(design.p_dim)[6:]
        base = g.glrt("poisson", data, g.make_constraint(rows), cfg, fit_alt=fit_alt)
        gen = np.random.default_rng(MASTER_SEED)
        mix, _ = np.linalg.qr(gen.normal(size=(rows.shape[0], rows.shape[0])))
        remixed = g.glrt("poisson", data, g.make_constraint(mix @ rows), cfg,
                         fit_alt=fit_alt)
        gap = abs(base.statistic - remixed.statistic)
        _verdict("8b", "GLRT rowspace invariance", gap < 1e-6,
                 f"|T - T_remixed| = {gap:.2e}")

    def test_monotone_ascent_trace(self):
        design = g.poisson_design(200)
        data = g.generate(design, seed=g.replicate_seed(MASTER_SEED, 2))
        ok = True
        for alg in ("backfitting", "accelerated", "full"):
            cfg = FitConfig(smoothing=SmoothingParams(h=0.1, delta=0.1),
                            algorithm=alg, max_steps=5)
            res = g.fit("poisson", data, cfg)
            values = [v for _, v in res.trace]
            tol = 1e-9 * (1 + abs(values[0]))
            ok = ok and all(b >= a - tol for a, b in zip(values, values[1:]))
        _verdict("8c", "monotone ascent", ok, "objective nondecreasing for all "
                 "three algorithms")

    def test_dbe_annihilation_and_permutation_invariance(self):
        gen = np.random.default_rng(MASTER_SEED)
        worst = 0.0
        for _ in range(20):
            window = gen.normal(size=(3, 2))
            w = g.difference_weights(window)
            worst = max(worst, float(np.linalg.norm(w @ window)))
        n = 150
        data = Dataset(u=gen.uniform(0, 1, n), x=np.ones((n, 1)),
                       z=gen.normal(size=(n, 3)),
                       y=gen.normal(size=n))
        perm = gen.permutation(n)
        shuffled = Dataset(u=data.u[perm], x=data.x[perm], z=data.z[perm],
                           y=data.y[perm])
        gap = np.max(np.abs(g.fit_dbe("gaussian", data).beta0
                            - g.fit_dbe("gaussian", shuffled).beta0))
        _verdict("8d", "DBE annihilation and permutation invariance",
                 worst < 1e-10 and gap < 1e-12,
                 f"max annihilation residual {worst:.1e}, permutation gap {gap:.1e}")

    def test_cv_determinism(self):
        data = g.generate(g.poisson_design(200), seed=g.replicate_seed(MASTER_SEED, 3))
        grid = [(0.1, 0.08), (0.1, 0.15)]
        a = g.cross_validate("poisson", data, grid=grid, k=4, seed=17)
        b = g.cross_validate("poisson", data, grid=grid, k=4, seed=17)
        same = (np.array_equal(a.scores, b.scores) and a.best == b.best)
        _verdict("8e", "CV determinism", same,
                 "identical seed reproduces the report")
