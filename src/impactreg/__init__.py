"""Model-free association measures via robust linear regression."""

__version__ = "0.1.0"

from .backend import BACKEND_NAME
from .dataset import Dataset
from .errors import ImpactregError
from .hierarchy import (HierarchyResult, fixed_sequence_test,
                        order_covariates, run_hierarchy)
from .impact import (ImpactEstimate, linear_mean_impact, linear_mean_slope,
                     mod_r2, partial_linear_mean_impact,
                     partial_linear_mean_slope)
from .oracle import (DiscreteJoint, PopulationParams,
                     confounding_example_value, constrained_sup_check,
                     exact_linear_impact, exact_mean_impact,
                     exact_partial_linear_impact, exact_partial_mean_impact,
                     population_params, population_theta,
                     quadratic_slope_closed_form)
from .regression import (CoefficientTest, FitResult, coefficient_test,
                         fit_ols, residualize)
from .simulate import SimConfig, SimReport, generate_dataset, run_study, \
    slope_identity_check
from .transforms import TransformSpec, apply_transforms, read_csv, write_csv

__all__ = [
    "BACKEND_NAME", "Dataset", "ImpactregError",
    "HierarchyResult", "fixed_sequence_test", "order_covariates",
    "run_hierarchy", "ImpactEstimate", "linear_mean_impact",
    "linear_mean_slope", "mod_r2", "partial_linear_mean_impact",
    "partial_linear_mean_slope", "DiscreteJoint", "PopulationParams",
    "confounding_example_value", "constrained_sup_check",
    "exact_linear_impact", "exact_mean_impact",
    "exact_partial_linear_impact", "exact_partial_mean_impact",
    "population_params", "population_theta", "quadratic_slope_closed_form",
    "CoefficientTest", "FitResult", "coefficient_test", "fit_ols",
    "residualize", "SimConfig", "SimReport",
    "generate_dataset", "run_study", "slope_identity_check",
    "TransformSpec", "apply_transforms", "read_csv", "write_csv",
]
