"""Container for model data: response, curve covariates, linear covariates, index."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Dataset:
    """Observations (y_i, x_i, z_i, u_i) of a varying-coefficient partially
    linear model.

    Attributes:
        u: scalar smoothing index, shape (n,).
        x: covariates multiplying the coefficient functions, shape (n, q).
        z: covariates of the linear (parametric) part, shape (n, p).
        y: response, shape (n,).
        x_names, z_names: optional column labels for reports.
    """

    u: np.ndarray
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    x_names: tuple = None
    z_names: tuple = None

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        for label, arr, most in (("u", u, 1), ("y", y, 1), ("x", x, 2), ("z", z, 2)):
            if not 1 <= arr.ndim <= most:
                allowed = "1-D" if most == 1 else "1-D or 2-D"
                raise DataError(f"{label} must be {allowed}, got shape {arr.shape}")
        if x.ndim == 1:
            x = x[:, None]
        if z.ndim == 1:
            z = z[:, None]
        n = u.shape[0]
        if y.shape[0] != n or x.shape[0] != n or z.shape[0] != n:
            raise DataError(
                f"inconsistent lengths: u has {n} rows, y {y.shape[0]}, "
                f"x {x.shape[0]}, z {z.shape[0]}"
            )
        if x.shape[1] < 1:
            raise DataError("x must have at least one column")
        if z.shape[1] < 1:
            raise DataError("z must have at least one column")
        for label, arr in (("u", u), ("x", x), ("z", z), ("y", y)):
            if not np.all(np.isfinite(arr)):
                i = int(np.flatnonzero(~np.isfinite(arr).reshape(arr.shape[0], -1).all(axis=1))[0])
                raise DataError(f"non-finite value in {label} at row {i}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)
        if self.x_names is not None and len(self.x_names) != x.shape[1]:
            raise DataError("x_names length does not match x columns")
        if self.z_names is not None and len(self.z_names) != z.shape[1]:
            raise DataError("z_names length does not match z columns")

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def n_curves(self) -> int:
        """Number of coefficient functions (columns of x)."""
        return self.x.shape[1]

    @property
    def n_linear(self) -> int:
        """Dimension of the parametric coefficient vector (columns of z)."""
        return self.z.shape[1]
