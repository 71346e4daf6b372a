"""The confidence-width multiplier beta^{1/2} and its parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ConfidenceParams:
    """Failure probability, noise level, and RKHS norm bound."""

    delta: float
    noise_sigma: float
    norm_bound: float

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.norm_bound <= 0:
            raise ValueError("norm_bound must be positive")


def beta_sqrt(params: ConfidenceParams, mutual_info: float) -> float:
    """Width multiplier B + 4 sigma sqrt(I + 1 + ln(1/delta)).

    Strictly increasing in the norm bound, noise, mutual information,
    and 1/delta.
    """
    if mutual_info < 0:
        raise ValueError("mutual_info must be nonnegative")
    return params.norm_bound + 4.0 * params.noise_sigma * math.sqrt(
        mutual_info + 1.0 + math.log(1.0 / params.delta)
    )
