"""Online control of linear dynamical systems under adversarial disturbances.

Simulate linear dynamical systems under adversarial or stochastic
perturbations, run regret-minimizing online controllers alongside
optimal-control baselines, learn predictors, identify unknown systems,
and benchmark everything through a CLI harness.
"""

from .errors import ConfigurationError, EvaluationError
from .filtering import (
    KalmanState,
    LinearPredictor,
    OnlineSpectralFilter,
    SpectralBasis,
    SpectralPredictor,
    build_Z,
    cached_basis,
    hankel_W,
    kalman_filter,
    kalman_steady_state,
    kalman_step,
    learn_linear_step,
    learn_spectral_step,
    load_basis,
    mu_vector,
    predict_linear,
    save_basis,
    spectral_basis,
    spectral_predict,
)
from .lds_core import (
    CallableCost,
    LinearSystem,
    PerturbationSource,
    QuadraticCost,
    Trajectory,
    controllability,
    linearize,
    lyapunov_certificate,
    observability_rank,
    observe,
    simulate,
    spectral_radius,
    step,
)
from .online_control import (
    GPCController,
    GRCController,
    OGDState,
    counterfactual_state,
    gpc_runner,
    grc_runner,
    ogd_update,
)
from .harness import (
    RegretReport,
    ScenarioBlueprint,
    ScenarioConfig,
    best_dac_in_hindsight,
    best_drc_in_hindsight,
    best_linear_in_hindsight,
    component_seed,
    config_from_preset,
    dac_rollout_costs,
    drc_rollout_costs,
    generate_perturbations,
    linear_rollout_costs,
    load_config,
    report_summary,
    run_experiment,
    scenario_presets,
    write_report_csv,
)
from .optimal_control import DARESolution, LQRSolution, dare_solve, lqr_finite
from .policies import (
    BangBangPolicy,
    DACPolicy,
    DRCPolicy,
    GLCPolicy,
    LDCPolicy,
    LiftedGLC,
    LinearPolicy,
    NaturesYTracker,
    PIDPolicy,
    act,
    approximation_gap,
    dac_from_linear,
    glc_from_ldc,
    lift_glc,
    natures_y_step,
    policy_runner,
)
from .serialize import (
    load_matrix,
    read_csv,
    read_json_summary,
    save_matrix,
    write_csv,
    write_json_summary,
)
from .sysid import (
    BlackBoxSystem,
    ExcitationRecord,
    IdentifiedSystem,
    MomentEstimates,
    control_with_model,
    estimate_moments,
    excite_and_record,
    identification_summary,
    identify_then_control,
    recover_AB,
)

__version__ = "0.1.0"
