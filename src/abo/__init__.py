"""Adaptive Bayesian optimization with expanding GP hyperparameter classes."""

from .adaptation import beta_sqrt
from .algorithms import (
    AlgorithmConfig,
    RunTrace,
    maximize_ucb,
    run,
)
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
