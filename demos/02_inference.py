"""Standard errors and hypothesis tests for the parametric part.

Fits the benchmark Bernoulli design and then:
  * reports sandwich standard errors with Wald z statistics,
  * runs the likelihood ratio test that the padded coefficients are zero,
  * runs a single-coordinate test and reports its signed root.
"""

import numpy as np

import gvcplm as g

design = g.make_design("bernoulli", 400, seed=3)
data = g.generate(design)
delta, h = g.preset_smoothing("bernoulli", 400)
smoothing = g.SmoothingParams(h=h, delta=delta)
config = g.FitConfig(smoothing=smoothing, max_steps=3)

fit = g.fit("bernoulli", data, config)
cov = g.sandwich_covariance(fit)

print("coef      estimate      truth     se        z")
for j in range(design.p_dim):
    z = fit.beta[j] / cov.se[j]
    print(f"z{j + 1:<4} {fit.beta[j]:>10.3f} {design.beta0[j]:>10.3f} "
          f"{cov.se[j]:>9.3f} {z:>8.2f}")

# joint test: are the truly-zero coordinates 7..p jointly zero?
rows = np.eye(design.p_dim)[6:]
constraint = g.make_constraint(rows)
test = g.glrt("bernoulli", data, constraint, config, fit_alt=fit)
print(f"\nH0: beta7 = ... = beta{design.p_dim} = 0")
print(f"T = {test.statistic:.3f}, df = {test.df}, p = {test.p_value:.3f}")

# single-coordinate test with one-sided reporting
single = g.make_constraint(np.eye(design.p_dim)[:1])
test1 = g.glrt("bernoulli", data, single, config, fit_alt=fit)
print(f"\nH0: beta1 = 0  ->  T = {test1.statistic:.2f}, "
      f"signed root = {test1.signed_root:.2f}, "
      f"two-sided p = {test1.p_value:.2g}, one-sided p = {test1.p_value_one_sided:.2g}")
