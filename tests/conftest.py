import numpy as np
import pytest

from gvcplm import CurveFitter, Dataset


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def fitter_sizes(monkeypatch):
    """The number of points of every CurveFitter built during the test, in
    the order they are built."""
    sizes = []
    orig = CurveFitter.__init__

    def counting(fitter, *args, **kwargs):
        orig(fitter, *args, **kwargs)
        sizes.append(fitter.points.size)

    monkeypatch.setattr(CurveFitter, "__init__", counting)
    return sizes


def make_gaussian_dataset(n=300, q=2, p=6, seed=0, noise=1.0, alpha_linear=False):
    """Synthetic gaussian varying-coefficient dataset for tests.

    With alpha_linear=True the coefficient functions are degree-1 polynomials
    in u, which a local linear smoother reproduces exactly; combined with
    noise=0.0 this makes every profile estimating equation exact at the true
    beta.
    """
    gen = np.random.default_rng(seed)
    u = np.sort(gen.uniform(0.0, 1.0, n))
    x = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))]) if q > 1 \
        else np.ones((n, 1))
    z = gen.normal(size=(n, p))
    beta = gen.normal(size=p)
    if alpha_linear:
        alpha = np.column_stack([0.5 + 1.5 * u] + [(-1.0 + 2.0 * u)] * (q - 1))
    else:
        alpha = np.column_stack(
            [np.sin(2 * np.pi * u)] + [2 * u * (1 - u)] * (q - 1)
        )
    signal = np.einsum("iq,iq->i", alpha, x) + z @ beta
    y = signal + noise * gen.normal(size=n)
    return Dataset(u=u, x=x, z=z, y=y), beta, alpha
