import re

import numpy as np
import pytest

import gvcplm as g

N = 20


def _arrays():
    gen = np.random.default_rng(5)
    return {"u": np.linspace(0.0, 1.0, N), "x": np.ones(N),
            "z": gen.normal(size=(N, 2)), "y": gen.normal(size=N)}


def test_one_dimensional_x_and_z_become_columns():
    data = g.Dataset(**_arrays())
    assert data.x.shape == (N, 1) and data.z.shape == (N, 2)


@pytest.mark.parametrize("label, shape, expected", [
    ("u", (N, 1), "1-D"),
    ("y", (N, 1), "1-D"),
    ("x", (N, 1, 1), "1-D or 2-D"),
    ("z", (N, 2, 1), "1-D or 2-D"),
    ("x", (), "1-D or 2-D"),
], ids=["u", "y", "x", "z", "scalar-x"])
def test_rejects_an_array_of_the_wrong_dimension(label, shape, expected):
    arrays = _arrays()
    arrays[label] = np.zeros(shape)
    with pytest.raises(g.DataError,
                       match=re.escape(f"{label} must be {expected}, got shape {shape}")):
        g.Dataset(**arrays)
