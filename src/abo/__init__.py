"""Adaptive Bayesian optimization with expanding GP hyperparameter classes."""

from .algorithms import (
    AlgorithmConfig,
    RunTrace,
    maximize_ucb,
    run,
)
from .confidence import ConfidenceParams, beta_sqrt
from .gp import GaussianProcess
from .kernels import KernelSpec, gram_matrix, rkhs_norm_of_expansion
from .objectives import (
    ObjectiveSpec,
    bump_linear_preset,
    evaluate_objective,
    make_gp_sample_function,
    make_rkhs_function,
)

__all__ = [
    "AlgorithmConfig",
    "ConfidenceParams",
    "GaussianProcess",
    "KernelSpec",
    "ObjectiveSpec",
    "RunTrace",
    "beta_sqrt",
    "bump_linear_preset",
    "evaluate_objective",
    "gram_matrix",
    "make_gp_sample_function",
    "make_rkhs_function",
    "maximize_ucb",
    "rkhs_norm_of_expansion",
    "run",
]

__version__ = "0.1.0"
