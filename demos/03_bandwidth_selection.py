"""Choose the smoothing pair (delta, h) by 5-fold cross-validation.

The criterion is the held-out quasi-likelihood: larger is better.  The
transform offset delta only enters through the difference-based start and
the cold-start values, so the surface is typically flat in delta and
peaked in h.
"""

import numpy as np

import gvcplm as g

design = g.make_design("poisson", 200, seed=11)
data = g.generate(design)

grid = [(delta, h) for delta in (0.05, 0.1) for h in (0.05, 0.1, 0.2, 0.4)]
report = g.cross_validate("poisson", data, grid=grid, k=5, seed=1)

print("delta   h      held-out quasi-likelihood")
for (delta, h), score, failed in zip(report.grid, report.scores, report.failed):
    mark = " <- best" if (delta, h) == (report.best.delta, report.best.h) else ""
    value = "failed" if failed else f"{score:12.2f}"
    print(f"{delta:<6} {h:<6} {value}{mark}")

print(f"\nselected: h = {report.best.h}, delta = {report.best.delta}")
print("fold sizes:", [len(f) for f in report.folds])

# the default grid brackets the n^(-1/5) rule of thumb
print("\ndefault bandwidth grid:", np.round(g.default_h_grid(data), 3))
