import math

import pytest

from abo.confidence import ConfidenceParams, beta_sqrt


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceParams(delta=0.0, noise_sigma=0.1, norm_bound=1.0)
        with pytest.raises(ValueError):
            ConfidenceParams(delta=1.5, noise_sigma=0.1, norm_bound=1.0)
        with pytest.raises(ValueError):
            ConfidenceParams(delta=0.5, noise_sigma=-0.1, norm_bound=1.0)
        with pytest.raises(ValueError):
            ConfidenceParams(delta=0.5, noise_sigma=0.1, norm_bound=0.0)


class TestBetaSqrt:
    def test_zero_information(self):
        p = ConfidenceParams(delta=0.9, noise_sigma=0.1, norm_bound=2.0)
        expect = 2.0 + 0.4 * math.sqrt(1.0 + math.log(10.0 / 9.0))
        assert beta_sqrt(p, 0.0) == pytest.approx(expect, abs=1e-9)
        assert beta_sqrt(p, 0.0) == pytest.approx(2.420543, abs=2e-5)

    def test_zero_noise_reduces_to_norm_bound(self):
        p = ConfidenceParams(delta=0.9, noise_sigma=0.0, norm_bound=2.0)
        assert beta_sqrt(p, 5.0) == 2.0

    def test_with_mutual_information(self):
        p = ConfidenceParams(delta=0.9, noise_sigma=0.1, norm_bound=2.0)
        mi = 0.5 * math.log(101)
        expect = 2.0 + 0.4 * math.sqrt(mi + 1.0 + math.log(10.0 / 9.0))
        assert beta_sqrt(p, mi) == pytest.approx(expect, abs=1e-9)
        assert beta_sqrt(p, mi) == pytest.approx(2.738964, abs=2e-5)

    def test_negative_information_rejected(self):
        p = ConfidenceParams(delta=0.9, noise_sigma=0.1, norm_bound=2.0)
        with pytest.raises(ValueError):
            beta_sqrt(p, -0.1)

    def test_monotonicity(self):
        base = beta_sqrt(
            ConfidenceParams(delta=0.5, noise_sigma=0.1, norm_bound=2.0), 1.0
        )
        assert beta_sqrt(
            ConfidenceParams(delta=0.5, noise_sigma=0.1, norm_bound=3.0), 1.0
        ) > base
        assert beta_sqrt(
            ConfidenceParams(delta=0.5, noise_sigma=0.2, norm_bound=2.0), 1.0
        ) > base
        assert beta_sqrt(
            ConfidenceParams(delta=0.5, noise_sigma=0.1, norm_bound=2.0), 2.0
        ) > base
        assert beta_sqrt(
            ConfidenceParams(delta=0.1, noise_sigma=0.1, norm_bound=2.0), 1.0
        ) > base
