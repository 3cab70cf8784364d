"""Fit a Poisson varying-coefficient partially linear model.

Simulates one dataset from the benchmark Poisson design (log-mean
alpha1(u) + alpha2(u) x2 + z'beta with 10 linear coefficients at n = 200),
then walks through the standard estimation pipeline: difference-based
start, 3-step accelerated profile fit, and a comparison of the three
Newton variants.
"""

import numpy as np

import gvcplm as g

design = g.make_design("poisson", 200, seed=7)
data = g.generate(design)
print(f"n = {data.n}, curve covariates q = {data.n_curves}, "
      f"linear covariates p = {design.p_dim}")

# smoothing parameters chosen by cross-validation for this design
delta, h = g.preset_smoothing("poisson", 200)
smoothing = g.SmoothingParams(h=h, delta=delta)

# 1. difference-based start: sorts by u, differences out the curves
start = g.fit_dbe("poisson", data, delta)
print("\ndifference-based start (first 6 coordinates):")
print(np.round(start.beta0[:6], 3), " truth:", design.beta0[:6])

# 2. accelerated profile-kernel fit, three Newton steps
config = g.FitConfig(smoothing=smoothing, algorithm="accelerated", max_steps=3)
result = g.fit("poisson", data, config, init=start.beta0)
print("\n3-step accelerated estimate:")
print(np.round(result.beta[:6], 3))
print("profile quasi-likelihood:", round(result.profile_loglik, 2))
print("step norms:", [round(s, 6) for s, _ in result.trace[1:]])

# 3. the fitted coefficient functions on the display grid, at the estimate
curve = g.fit_curve("poisson", data, result.beta, smoothing)
mid = len(curve.grid) // 2
print("\nalpha_hat at u = %.3f:" % curve.grid[mid],
      np.round(curve.values[mid], 3),
      " truth:", np.round([f(curve.grid[mid]) for f in design.alpha_funcs], 3))

# 4. how much do the algorithm variants differ?
moment = g.design_moment(design)
for algorithm in ("backfitting", "accelerated", "full"):
    cfg = g.FitConfig(smoothing=smoothing, algorithm=algorithm, max_steps=3)
    res = g.fit("poisson", data, cfg, init=start.beta0)
    err = g.gmse(res.beta, design.beta0, moment)
    print(f"{algorithm:>12}: GMSE = {err:.2e}")
