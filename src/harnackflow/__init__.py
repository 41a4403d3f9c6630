"""harnackflow: a desk-scale laboratory for coupled metric/heat flows on surfaces.

The package integrates the conformal Ricci flow coupled to a heat equation
with curvature potential on flat tori and rotationally symmetric spheres,
evaluates the sharp monotone quantities attached to positive solutions
(log-Harnack expressions, entropies, trace quantities, gradient bounds),
verifies the underlying evolution identities by residual refinement, and
certifies the integrated inequality via dynamic programming over
space-time paths.
"""

from .action import (
    SpaceTimePath,
    check_integrated_harnack,
    check_pairs,
    layer_distance_fn,
    min_action,
    random_pairs,
    write_action_csv,
)
from .config import ScenarioConfig, build_geometry, build_initial_state, parse_config
from .errors import *  # noqa: F401,F403 -- the error module defines the public names
from .flow import (
    EnsembleMember,
    FlowRun,
    FlowState,
    Trajectory,
    load_trajectory,
    run,
    run_ensemble,
    save_trajectory,
    time_derivative,
)
from .geometry import SphereGeometry, SurfaceGeometry, TorusGeometry
from .harnack import (
    COR_H_PRESET,
    COR_P_PRESET,
    GRAD_PRESET,
    MONITOR_COLUMNS,
    SURFACE_PRESET,
    HarnackParams,
    MonitorSeries,
    entropy_F,
    entropy_W,
    gradient_quantity,
    gradient_quantity_f_form,
    mass,
    monitor_series,
    quantity_H,
    quantity_P,
    quantity_tP,
    surface_lyh,
    trace_harnack,
    u_field,
    v_field,
    write_monitor_csv,
)
from .identities import (
    ResidualReport,
    fuzz_residuals,
    preset_agreement_H,
    preset_agreement_P,
    preset_agreement_grad,
    random_params,
    residual_cor_H,
    residual_general_H,
    residual_general_P,
    residual_grad,
    residual_surface,
    residual_tP,
    write_identity_csv,
)
from .runner import (
    AssertionResult,
    ScenarioReport,
    evaluate_assertions,
    run_scenario,
    verify_identities,
)

__version__ = "0.1.0"
