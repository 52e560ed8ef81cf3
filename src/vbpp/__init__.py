"""Variational inference for Gaussian-process-modulated Poisson processes.

Fits a continuous intensity function lambda(x) = f(x)^2, with f a sparse
(inducing-point) Gaussian process, by maximising an evidence lower bound
that requires no discretisation of the domain.  Includes held-out
predictive bounds, a truncated-normal kernel-smoothing benchmark and a
thinning-based simulator for ground-truth experiments.

Importing the package sets numpy's and scipy's OpenBLAS thread pools to one
thread unless the user chose a count (see ``vbpp.threads``).
"""

from . import threads  # noqa: F401  (applies the thread policy on import)
from .pointdata import (Domain, EventSet, domain_measure, load_events, poisson_log_likelihood,
                        regular_grid)
from .kernel import HyperParams, kernel_eval, gram
from .core import VariationalState, InducingPoints, Model, expected_log_f_sq, elbo
from .optimizer import FitConfig, fit, pack, unpack
from .predictive import (
    PredictiveReport,
    predictive_bound_lp,
    predictive_bound_l0,
    mc_predictive,
    posterior_intensity,
)
from .baseline import KsModel, truncnorm_pdf, fit_bandwidth, ks_log_predictive, ks_intensity
from .simulate import GroundTruth, ground_truth, sample_gp_grid, thin_sample, make_grid

__all__ = [
    "Domain", "EventSet", "domain_measure", "load_events", "poisson_log_likelihood",
    "HyperParams", "kernel_eval", "gram",
    "VariationalState", "InducingPoints", "Model", "expected_log_f_sq", "elbo",
    "FitConfig", "fit", "pack", "unpack", "regular_grid",
    "PredictiveReport", "predictive_bound_lp", "predictive_bound_l0",
    "mc_predictive", "posterior_intensity",
    "KsModel", "truncnorm_pdf", "fit_bandwidth", "ks_log_predictive", "ks_intensity",
    "GroundTruth", "ground_truth", "sample_gp_grid", "thin_sample", "make_grid",
]

__version__ = "0.1.0"
