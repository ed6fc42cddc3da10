"""Failure-time laws for degradation processes modeled as Brownian-perturbed
subordinators: first passage, last passage, reflected variants, and the
derived inspection/maintenance-policy quantities, with a Monte Carlo oracle
for every analytic formula."""

__version__ = "0.1.0"

from .errors import LevyPassageError, NumericalError, UsageError
from .first_passage import (
    PassageTransform,
    PenaltySpec,
    gamma_exact_cdf,
    gamma_exact_pdf,
    inverse_gaussian_cdf,
    inverse_gaussian_pdf,
    ph_transform,
    pk_series_transform,
    transform_from_scales,
)
from .last_passage import (
    MarginalDensityD,
    bm_last_passage_cdf,
    bm_last_passage_density,
    density_of_dt,
    last_passage_cdf,
    last_passage_joint_density,
    last_passage_joint_mass,
    last_passage_overshoot_transform,
    perturbed_gamma_density,
    reflected_last_passage_exp_joint,
    reflected_last_passage_transform,
)
from .lundberg import (
    LundbergRoot,
    PHRootData,
    ScaleSet,
    build_scale_set,
    escape_probability,
    escape_rate,
    lundberg_truncated,
    ph_root_data,
    scale_via_inversion,
    scale_via_ode_series,
    solve_lundberg,
)
from .maintenance import (
    InspectionSchedule,
    MaintenanceAction,
    PolicyKernels,
    PolicySpec,
    expected_time_to_renewal,
    joint_law_idle,
    policy_from_dict,
    policy_from_json,
    simulate_policy,
)
from .mc import (
    SimConfig,
    SimResult,
    estimate_reflected_exceedance,
    run_first_passage,
    run_last_passage,
    run_reflected_at_exp_horizon,
    run_reflected_first_passage,
    run_reflected_last_passage,
)
from .models import (
    GammaMeasure,
    LevyMeasureView,
    ModelSpec,
    PHMeasure,
    PhaseType,
    model_from_dict,
    model_from_json,
    model_to_dict,
    sample_phase_type,
)
from .numerics import (
    GridFunction,
    find_root_bracketed,
    grid_convolve,
    hyp2f2,
    poly_roots_complex,
)
from .reflected import duality_check, reflected_passage_density
