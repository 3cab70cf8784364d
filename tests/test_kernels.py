import numpy as np
import pytest
from scipy import integrate

from gvcplm import ParameterError
from gvcplm.smoothing import _epanechnikov


class TestEpanechnikov:
    def test_value_at_zero(self):
        assert _epanechnikov(0.0, 1.0) == pytest.approx(0.75)

    def test_outside_support(self):
        assert _epanechnikov(2.0, 1.0) == 0.0

    def test_rescaling(self):
        assert _epanechnikov(0.05, 0.1) == pytest.approx(5.625)

    def test_symmetry(self):
        ts = np.linspace(0.0, 1.5, 31)
        np.testing.assert_allclose(_epanechnikov(ts, 1.0), _epanechnikov(-ts, 1.0))

    def test_zero_beyond_support_radius(self):
        ts = np.linspace(1.0001, 10.0, 50)
        assert np.all(_epanechnikov(ts, 1.0) == 0.0)
        assert np.all(_epanechnikov(0.1 * ts, 0.1) == 0.0)

    def test_integrates_to_one(self):
        for h in (1.0, 0.3):
            val, _ = integrate.quad(lambda t: _epanechnikov(t, h), -h, h)
            assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("h", (0.0, -0.2))
    def test_bad_bandwidth(self, h):
        with pytest.raises(ParameterError):
            _epanechnikov(0.1, h)
