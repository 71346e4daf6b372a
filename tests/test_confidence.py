import math

import pytest

from abo.adaptation import beta_sqrt


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            beta_sqrt(1.0, 0.0, noise_sigma=0.1, delta=0.0)
        with pytest.raises(ValueError):
            beta_sqrt(1.0, 0.0, noise_sigma=0.1, delta=1.5)
        with pytest.raises(ValueError):
            beta_sqrt(1.0, 0.0, noise_sigma=-0.1, delta=0.5)
        with pytest.raises(ValueError):
            beta_sqrt(0.0, 0.0, noise_sigma=0.1, delta=0.5)


class TestBetaSqrt:
    def test_zero_information(self):
        expect = 2.0 + 0.4 * math.sqrt(1.0 + math.log(10.0 / 9.0))
        assert beta_sqrt(2.0, 0.0, 0.1, 0.9) == pytest.approx(expect, abs=1e-9)
        assert beta_sqrt(2.0, 0.0, 0.1, 0.9) == pytest.approx(2.420543, abs=2e-5)

    def test_zero_noise_reduces_to_norm_bound(self):
        assert beta_sqrt(2.0, 5.0, 0.0, 0.9) == 2.0

    def test_with_mutual_information(self):
        mi = 0.5 * math.log(101)
        expect = 2.0 + 0.4 * math.sqrt(mi + 1.0 + math.log(10.0 / 9.0))
        assert beta_sqrt(2.0, mi, 0.1, 0.9) == pytest.approx(expect, abs=1e-9)
        assert beta_sqrt(2.0, mi, 0.1, 0.9) == pytest.approx(2.738964, abs=2e-5)

    def test_negative_information_rejected(self):
        with pytest.raises(ValueError):
            beta_sqrt(2.0, -0.1, 0.1, 0.9)

    def test_monotonicity(self):
        # (norm bound, mutual information, noise, delta)
        base = beta_sqrt(2.0, 1.0, 0.1, 0.5)
        assert beta_sqrt(3.0, 1.0, 0.1, 0.5) > base
        assert beta_sqrt(2.0, 1.0, 0.2, 0.5) > base
        assert beta_sqrt(2.0, 2.0, 0.1, 0.5) > base
        assert beta_sqrt(2.0, 1.0, 0.1, 0.1) > base
