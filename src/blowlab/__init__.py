"""Desk-scale laboratory for single-point blow-up in the gradient/non-local
perturbed semilinear heat equation."""

__version__ = "0.1.0"

from .params import BetaWindow, ModelParams, ParameterError, beta_window, gamma_of, validate
from .profiles import (
    ProfilePrediction,
    f_profile,
    final_grad_bound,
    final_profile,
    grad_f_profile,
    intermediate_prediction,
    v_K0,
)
from .fields import NonFiniteFieldError, RadialField, RadialGrid
from .solver import (
    BlowupEstimate,
    SolverConfig,
    Trajectory,
    continue_run,
    estimate_T,
    load_snapshots,
    profile_seeded_field,
    run_together,
    run_until_blowup,
    save_snapshots,
)
from .similarity import (
    FrameReport,
    SimilarityFrame,
    extract_frame,
    final_profile_extract,
    frame_report,
    threshold_check,
    v_sharp_behavior,
    w_smallness,
)
from .lemmas import (
    IntegralCase,
    StepFunction,
    gronwall_bound,
    gronwall_equality_solution,
    integral_I_bound,
    integral_I_numeric,
    nonlocal_decay_fit,
    semigroup_smoothing_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
