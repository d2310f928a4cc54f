"""The public entry points on malformed input.

Every callable that the package exports and that takes a matrix, a vector
or a size is called here with each of its array arguments given the wrong
shape, a NaN entry and an infinite entry, and with each of its sizes given
a fraction, zero (where zero is below its minimum) and a negative value.
Each call must raise ConfigurationError or EvaluationError; a raw numpy
error or any result fails.  The one exception is a per-step signal listed
in a case's ``carries``: a NaN or inf there passes through to a result of
the documented shape, as a policy's output does.

A size here is a dimension, a horizon, a window or a step count; solver
budgets such as ``max_iter`` are options, not sizes.  Exported names that
take none of these, and the result records that the package builds from
outputs it has already checked, are listed in ``EXEMPT``, so that a new
export cannot go unchecked.
"""

import inspect
from typing import Callable, NamedTuple

import numpy as np
import pytest

import nscontrol
from nscontrol import (
    BlackBoxSystem,
    ConfigurationError,
    DACPolicy,
    DRCPolicy,
    EvaluationError,
    GLCPolicy,
    GPCController,
    GRCController,
    KalmanState,
    LDCPolicy,
    LinearPolicy,
    LinearPredictor,
    LinearSystem,
    NaturesYTracker,
    OGDState,
    OnlineSpectralFilter,
    PIDPolicy,
    PerturbationSource,
    QuadraticCost,
    ScenarioConfig,
    SpectralPredictor,
    Trajectory,
    approximation_gap,
    best_dac_in_hindsight,
    best_drc_in_hindsight,
    best_linear_in_hindsight,
    build_Z,
    cached_basis,
    config_from_preset,
    control_with_model,
    controllability,
    counterfactual_state,
    dac_from_linear,
    dac_rollout_costs,
    dare_solve,
    drc_rollout_costs,
    estimate_moments,
    excite_and_record,
    generate_perturbations,
    glc_from_ldc,
    hankel_W,
    identify_then_control,
    kalman_filter,
    kalman_steady_state,
    kalman_step,
    learn_linear_step,
    learn_spectral_step,
    linear_rollout_costs,
    linearize,
    lqr_finite,
    lyapunov_certificate,
    mu_vector,
    natures_y_step,
    observability_rank,
    observe,
    ogd_update,
    predict_linear,
    save_matrix,
    simulate,
    spectral_basis,
    spectral_predict,
    spectral_radius,
    step,
)

# A six-step record is too short for the linear comparator to converge.
pytestmark = pytest.mark.filterwarnings("ignore:linear-policy comparator stopped")

EXEMPT = {
    # No matrix, vector or size among the arguments.
    "BangBangPolicy": "scalar band and control limits",
    "CallableCost": "callables",
    "ConfigurationError": "an exception",
    "EvaluationError": "an exception",
    "act": "a policy and its signals, passed on to the policy",
    "component_seed": "a seed and a tag",
    "gpc_runner": "a controller, a system and a cost",
    "grc_runner": "a controller, a system and a cost",
    "identification_summary": "result records",
    "lift_glc": "a system and a policy",
    "load_basis": "a path",
    "load_config": "a path and overrides",
    "load_matrix": "a path",
    "policy_runner": "a policy and a system",
    "read_csv": "a path",
    "read_json_summary": "a path",
    "recover_AB": "a result record",
    "report_summary": "a result record",
    "run_experiment": "a ScenarioConfig, checked when it is built",
    "save_basis": "a basis and a path",
    "scenario_presets": "no arguments",
    "write_csv": "a path and table rows",
    "write_json_summary": "a path and a summary",
    "write_report_csv": "a result record and a path",
    # Result records, built from outputs the package has checked.
    "DARESolution": "result record of dare_solve",
    "ExcitationRecord": "result record of excite_and_record",
    "IdentifiedSystem": "result record of recover_AB",
    "LQRSolution": "result record of lqr_finite",
    "LiftedGLC": "result record of lift_glc",
    "MomentEstimates": "result record of estimate_moments",
    "RegretReport": "result record of run_experiment",
    "ScenarioBlueprint": "entries of scenario_presets, checked as a ScenarioConfig",
    "SpectralBasis": "result record of spectral_basis and load_basis",
}

# One small plant, d_x = 2, d_u = 1, d_y = 1, and what the cases share.
A = np.array([[0.5, 0.1], [0.0, 0.4]])
B = np.array([[0.0], [1.0]])
C = np.array([[1.0, 0.0]])
K = np.array([[-0.1, -0.2]])
W = 0.1 * np.arange(12.0).reshape(6, 2)
SYSTEM = LinearSystem.time_invariant(A, B)
OBSERVED = LinearSystem.time_invariant(A, B, C)
COST = QuadraticCost(Q=np.eye(2), R=np.eye(1))
BASIS = spectral_basis(8, 2)
LINEAR = LinearPredictor(np.zeros((2, 1, 1)), np.zeros((1, 1, 1)))


def _predictor() -> SpectralPredictor:
    return SpectralPredictor.zeros(BASIS, d_y=1, d_u=1)


def _box(**kw) -> BlackBoxSystem:
    return BlackBoxSystem(SYSTEM, PerturbationSource.gaussian(0.1), seed=1, **kw)


def _acted(controller, *signals):
    """``controller`` after a valid ``act(0, *signals)``, ready for
    ``update(0, ...)``."""
    controller.act(0, *signals)
    return controller


class Case(NamedTuple):
    """``call(**arrays, **sizes)``.

    ``arrays`` maps each array argument to a valid value and to how to
    misshape it: ``"col"`` adds an entry along the last axis, ``"row"`` a
    row, ``"grow"`` makes a square matrix an identity one size larger,
    ``"flat"`` ravels it, ``"3d"`` stacks it and ``"2d"`` makes a vector a
    column; None when every shape is valid.  A list stands for its first
    element.  ``sizes`` maps each size to a valid value and its minimum.
    The arguments in ``carries`` are per-step signals whose non-finite
    entries pass through to a result of shape ``shape``, for the caller to
    see (``simulate`` rejects a non-finite control)."""

    call: Callable
    arrays: dict
    sizes: dict = {}
    carries: tuple = ()
    shape: tuple = ()


def _cols(**arrays):
    return {name: (value, "col") for name, value in arrays.items()}


CASES = {
    "LinearSystem": Case(lambda **kw: LinearSystem(**kw), {},
                         {"d_x": (2, 1), "d_u": (1, 1), "d_y": (2, 1)}),
    "LinearSystem.time_invariant": Case(
        LinearSystem.time_invariant, {"A": (A, "col"), "B": (B, "row"), "C": (C, "col")}),
    "LinearSystem.time_varying": Case(
        lambda **kw: LinearSystem.time_varying(lambda t: (A, B), **kw), {},
        {"d_x": (2, 1), "d_u": (1, 1), "d_y": (2, 1)}),
    "PerturbationSource.recorded": Case(PerturbationSource.recorded, {"sequence": (W, "flat")}),
    "PerturbationSource.constant": Case(PerturbationSource.constant,
                                        {"vector": (np.ones(2), "2d")}),
    "PerturbationSource.sinusoidal": Case(PerturbationSource.sinusoidal,
                                          {"phase": (np.zeros(2), "2d")}),
    "PerturbationSource.draw": Case(
        lambda **kw: PerturbationSource.gaussian().draw(rng=np.random.default_rng(0), **kw), {},
        {"start": (0, 0), "stop": (3, 0), "dim": (2, 1)}),
    "QuadraticCost": Case(QuadraticCost, {"Q": (np.eye(2), "col"), "R": (np.eye(1), "col"),
                                          "target": (np.ones(2), "col")}),
    "step": Case(lambda **kw: step(SYSTEM, **kw), _cols(x=np.ones(2), u=np.ones(1), w=np.ones(2))),
    "observe": Case(lambda **kw: observe(OBSERVED, **kw), _cols(x=np.ones(2))),
    # Only the lengths are checked: a diverged run's last states may be
    # non-finite.
    "Trajectory": Case(
        lambda **kw: Trajectory(**kw).horizon,
        {"states": (np.ones((3, 2)), "row"), "controls": (np.ones((2, 1)), "row"),
         "perturbations": (np.ones((2, 2)), "row"), "observations": (np.ones((2, 2)), "row"),
         "costs": (np.ones(2), "row")},
        carries=("states", "controls", "perturbations", "observations", "costs")),
    "simulate": Case(
        lambda **kw: simulate(SYSTEM, lambda t, x, y: K @ x, PerturbationSource.zero(), COST, **kw),
        _cols(x0=np.ones(2)), {"T": (4, 0)}),
    "spectral_radius": Case(spectral_radius, _cols(M=A)),
    "lyapunov_certificate": Case(lyapunov_certificate, _cols(A=A)),
    "controllability": Case(controllability, {"A": (A, "col"), "B": (B, "row")}, {"r": (2, 1)}),
    "observability_rank": Case(observability_rank, _cols(A=A, C=C)),
    "linearize": Case(lambda **kw: linearize(lambda x, u: A @ x + B @ u, **kw),
                      {"x_bar": (np.ones(2), "2d"), "u_bar": (np.ones(1), "2d")}),
    "GPCController": Case(
        GPCController, _cols(K=K),
        {"d_x": (2, 1), "d_u": (1, 1), "h": (3, 1)}),
    "GPCController.act": Case(lambda **kw: GPCController(2, 1, K).act(0, **kw),
                              _cols(x=np.ones(2)), carries=("x",), shape=(1,)),
    "GPCController.update": Case(
        lambda **kw: _acted(GPCController(2, 1, K), np.ones(2)).update(0, cost=COST, **kw),
        {"A_t": (A, "col"), "B_t": (B, "row"), "x_next": (np.ones(2), "col")}),
    "GRCController": Case(GRCController, {},
                          {"d_x": (2, 1), "d_u": (1, 1), "d_y": (1, 1), "h": (3, 0)}),
    # A fresh learner holds zero blocks, which an inf signal meets.
    "GRCController.act": Case(lambda **kw: GRCController(2, 1, 1).act(0, **kw),
                              _cols(y=np.ones(1), C_t=C), carries=("y",), shape=(1,)),
    "GRCController.update": Case(
        lambda **kw: _acted(GRCController(2, 1, 1), np.ones(1), C).update(0, cost=COST_Y, **kw),
        {"A_t": (A, "col"), "B_t": (B, "row"), "C_t": (C, "col")}),
    "OGDState": Case(OGDState, {"point": (np.zeros(3), None)}),
    "counterfactual_state": Case(
        counterfactual_state,
        _cols(Ms=[np.ones((1, 2))], w_history=[np.ones(2)] * 3,
             A_closed_history=[A + B @ K] * 3, B_history=[B] * 3),
        {"H_trunc": (3, 0)}),
    "ogd_update": Case(lambda **kw: ogd_update(OGDState(np.zeros(3), radius=1.0), **kw),
                       _cols(gradient=np.ones(3))),
    "KalmanState": Case(KalmanState, _cols(x_hat=np.zeros(2), Sigma=np.eye(2))),
    "kalman_step": Case(
        lambda **kw: kalman_step(KalmanState(np.zeros(2), np.eye(2)), **kw),
        {"A": (A, "col"), "B": (B, "row"), "C": (C, "col"), "Sigma_x": (np.eye(2), "grow"),
         "Sigma_y": (np.eye(1), "grow"), "u": (np.ones(1), "col"), "y": (np.ones(1), "col")}),
    "kalman_filter": Case(
        lambda **kw: kalman_filter(KalmanState(np.zeros(2), np.eye(2)), **kw),
        {"A": (A, "col"), "C": (C, "col"), "Sigma_x": (np.eye(2), "grow"),
         "Sigma_y": (np.eye(1), "grow"), "Y": (np.ones((3, 1)), "col"), "B": (B, "row"),
         "U": (np.ones((3, 1)), "col")}),
    "kalman_steady_state": Case(
        kalman_steady_state, {"A": (A, "col"), "C": (C, "col"), "Sigma_x": (np.eye(2), "grow"),
                              "Sigma_y": (np.eye(1), "grow")}),
    # M2's last axis, d_u, may have any length: its misshape drops the axes.
    "LinearPredictor": Case(LinearPredictor, {"M1": (np.zeros((2, 1, 1)), "col"),
                                              "M2": (np.zeros((1, 1, 1)), "flat")}),
    "predict_linear": Case(
        lambda **kw: predict_linear(LINEAR, **kw),
        _cols(u_history=[np.ones(1)] * 2, y_history=[np.ones(1)] * 2)),
    "learn_linear_step": Case(
        lambda **kw: learn_linear_step(LINEAR, **kw),
        _cols(u_history=[np.ones(1)] * 2, y_history=[np.ones(1)] * 2, y_true=np.ones(1))),
    "build_Z": Case(build_Z, {}, {"T": (4, 2)}),
    "hankel_W": Case(hankel_W, {}, {"T": (4, 1)}),
    "mu_vector": Case(lambda **kw: mu_vector(0.5, **kw), {}, {"T": (4, 1)}),
    "spectral_basis": Case(spectral_basis, {}, {"T": (8, 2), "h": (2, 1)}),
    "cached_basis": Case(lambda tmp_path, **kw: cached_basis(cache_dir=str(tmp_path), **kw), {},
                         {"T": (8, 2), "h": (2, 1)}),
    "SpectralPredictor": Case(
        lambda **kw: SpectralPredictor.zeros(BASIS, **kw), {}, {"d_y": (1, 1), "d_u": (1, 1)}),
    "spectral_predict": Case(
        lambda **kw: spectral_predict(_predictor(), **kw),
        _cols(u_tilde=np.ones((8, 1)), y_prev=np.ones(1), u_prev=np.ones(1))),
    "learn_spectral_step": Case(
        lambda **kw: learn_spectral_step(_predictor(), **kw),
        _cols(u_tilde=np.ones((8, 1)), y_prev=np.ones(1), u_prev=np.ones(1), y_true=np.ones(1))),
    "OnlineSpectralFilter": Case(lambda **kw: OnlineSpectralFilter(_predictor(), **kw), {},
                                 {"d_u": (1, 1)}),
    "OnlineSpectralFilter.step": Case(
        lambda **kw: OnlineSpectralFilter(_predictor(), 1).step(**kw),
        _cols(u_prev=np.ones(1), y_true=np.ones(1))),
    "OnlineSpectralFilter.run": Case(
        lambda **kw: OnlineSpectralFilter(_predictor(), 1).run(**kw),
        _cols(U=np.ones((3, 1)), Y=np.ones((3, 1)))),
    "ScenarioConfig": Case(
        lambda **kw: ScenarioConfig("contract", SYSTEM, COST, PerturbationSource.zero(),
                                    {"kind": "zero"}, **kw),
        {"x0": (np.ones(2), "col"), "noise_embedding": (np.eye(2), "row")},
        {"horizon": (4, 1)}),
    "config_from_preset": Case(
        lambda **kw: config_from_preset("scalar-0.9", {"kind": "zero"}, **kw), {},
        {"horizon": (4, 1)}),
    "generate_perturbations": Case(
        lambda **kw: generate_perturbations(PerturbationSource.gaussian(), seed=0, **kw),
        {"embedding": (np.eye(2), "row")}, {"T": (4, 0), "d_x": (2, 1)}),
    "best_dac_in_hindsight": Case(
        lambda **kw: best_dac_in_hindsight(SYSTEM, COST, **kw),
        _cols(K=K, w_record=W, x0=np.ones(2)), {"h": (2, 0)}),
    "best_drc_in_hindsight": Case(
        lambda **kw: best_drc_in_hindsight(OBSERVED, COST_Y, **kw),
        _cols(w_record=W, x0=np.ones(2)), {"h": (2, 0)}),
    "best_linear_in_hindsight": Case(
        lambda **kw: best_linear_in_hindsight(SYSTEM, COST, **kw),
        _cols(w_record=W, x0=np.ones(2), starts=[K])),
    "dac_rollout_costs": Case(
        lambda **kw: dac_rollout_costs(SYSTEM, COST, **kw),
        _cols(K=K, Ms=[np.ones((1, 2))] * 2, w_record=W, x0=np.ones(2))),
    "drc_rollout_costs": Case(
        lambda **kw: drc_rollout_costs(OBSERVED, COST_Y, **kw),
        _cols(Ms=[np.ones((1, 1))] * 2, w_record=W, x0=np.ones(2))),
    "linear_rollout_costs": Case(
        lambda **kw: linear_rollout_costs(SYSTEM, COST, **kw),
        _cols(K=K, w_record=W, x0=np.ones(2))),
    "dare_solve": Case(
        dare_solve, {"A": (A, "col"), "B": (B, "row"), "Q": (np.eye(2), "grow"),
                     "R": (np.eye(1), "grow")}),
    "lqr_finite": Case(
        lqr_finite, {"A": (A, "col"), "B": (B, "row"), "Q": (np.eye(2), "grow"),
                     "R": (np.eye(1), "grow")}, {"T": (4, 1)}),
    "LinearPolicy": Case(LinearPolicy, {"K": (K, None)}),
    "LinearPolicy.act_state": Case(lambda **kw: LinearPolicy(K).act_state(**kw),
                                   _cols(x=np.ones(2)), carries=("x",), shape=(1,)),
    "PIDPolicy": Case(PIDPolicy, _cols(alpha=K, beta=K, gamma_d=K)),
    "PIDPolicy.act_state": Case(lambda **kw: PIDPolicy(K, K, K).act_state(**kw),
                                _cols(x=np.ones(2)), carries=("x",), shape=(1,)),
    "LDCPolicy": Case(
        LDCPolicy, {"A_pi": (0.5 * np.eye(2), "col"), "B_pi": (np.ones((2, 2)), "row"),
                    "C_pi": (np.ones((1, 2)), "col"), "D_pi": (K, "col")}),
    "GLCPolicy": Case(GLCPolicy, _cols(Ms=[K, K])),
    "GLCPolicy.act_state": Case(lambda **kw: GLCPolicy([K, K]).act_state(**kw), _cols(x=np.ones(2)),
                                carries=("x",), shape=(1,)),
    "DACPolicy": Case(DACPolicy, _cols(K=K, Ms=[K, K], offset=np.ones(1))),
    "DRCPolicy": Case(DRCPolicy, _cols(Ms=[np.ones((1, 1))] * 2), {"d_x": (2, 1)}),
    "DRCPolicy.act_ynat": Case(lambda **kw: DRCPolicy([np.ones((1, 1))] * 2, 2).act_ynat(**kw),
                               _cols(ynat=np.ones(1)), carries=("ynat",), shape=(1,)),
    "DRCPolicy.act_ynat_zero_blocks": Case(
        lambda **kw: DRCPolicy([np.zeros((1, 1))] * 2, 2).act_ynat(**kw),
        _cols(ynat=np.ones(1)), carries=("ynat",), shape=(1,)),
    "NaturesYTracker": Case(NaturesYTracker, {}, {"d_x": (2, 1)}),
    "natures_y_step": Case(
        lambda **kw: natures_y_step(NaturesYTracker(2), **kw),
        _cols(A_t=A, B_t=B, C_t=C, u_t=np.ones(1), y_t=np.ones(1))),
    "dac_from_linear": Case(dac_from_linear, {"A": (A, "col"), "B": (B, "row"), "K": (K, "col")},
                            {"h": (3, 0)}),
    "glc_from_ldc": Case(
        lambda **kw: glc_from_ldc(LDCPolicy(0.5 * np.eye(2), np.eye(2), np.ones((1, 2))), **kw),
        {}, {"h": (3, 0)}),
    "approximation_gap": Case(
        lambda **kw: approximation_gap(LinearPolicy(K), LinearPolicy(0.5 * K), SYSTEM,
                                       PerturbationSource.gaussian(0.1), COST, **kw),
        {}, {"T": (4, 1)}),
    "save_matrix": Case(lambda tmp_path, **kw: save_matrix(path=str(tmp_path / "M.txt"), **kw),
                        {"M": (A, "3d")}),
    "BlackBoxSystem": Case(_box, _cols(x0=np.ones(2))),
    "excite_and_record": Case(lambda **kw: excite_and_record(_box(), **kw), {},
                              {"k": (1, 1), "T0": (4, 1)}),
    "estimate_moments": Case(
        lambda **kw: estimate_moments(excite_and_record(_box(), 1, 4), **kw), {},
        {"k": (1, 0), "T0": (4, 1)}),
    "control_with_model": Case(
        lambda **kw: control_with_model(_box(), cost=COST, **kw),
        {"A_model": (A, "col"), "B_model": (B, "row"), "K": (K, "col")}, {"n_steps": (4, 0)}),
    "identify_then_control": Case(
        lambda **kw: identify_then_control(_box(), cost=COST, **kw), {},
        {"T": (40, 1), "k": (1, 1)}),
}

COST_Y = QuadraticCost(Q=np.eye(1), R=np.eye(1))

#: Cases that need more than a shape, finiteness or size check, by id prefix.
XFAIL: dict = {}


def _misshaped(value: np.ndarray, how: str) -> np.ndarray:
    if how == "col":
        return np.concatenate((value, np.ones(value.shape[:-1] + (1,))), axis=-1)
    if how == "row":
        return np.concatenate((value, np.ones((1,) + value.shape[1:])), axis=0)
    if how == "grow":
        return np.eye(len(value) + 1)
    if how == "flat":
        return value.ravel()
    if how == "3d":
        return value[None]
    return value[:, None]  # "2d"


def _poisoned(value: np.ndarray, entry: float) -> np.ndarray:
    value = np.array(value, dtype=float)
    value.flat[0] = entry
    return value


def _bad_arrays(case: Case):
    for name, (value, how) in case.arrays.items():
        for label, change in (("shape", lambda v: _misshaped(v, how)),
                              ("nan", lambda v: _poisoned(v, np.nan)),
                              ("inf", lambda v: _poisoned(v, np.inf))):
            if label == "shape" and how is None:
                continue
            bad = [change(value[0])] + list(value[1:]) if isinstance(value, list) else change(value)
            yield f"{name}-{label}", {name: bad}


def _bad_sizes(case: Case):
    for name, (value, minimum) in case.sizes.items():
        yield f"{name}-fraction", {name: value + 0.5}
        if minimum >= 1:
            yield f"{name}-zero", {name: 0}
        yield f"{name}-negative", {name: -1}


def _valid(case: Case) -> dict:
    kw = {name: value for name, (value, _) in case.arrays.items()}
    kw.update({name: value for name, (value, _) in case.sizes.items()})
    return kw


def _call(case: Case, kw: dict, tmp_path):
    if "tmp_path" in inspect.signature(case.call).parameters:
        return case.call(tmp_path=tmp_path, **kw)
    return case.call(**kw)


def _params():
    for key, case in CASES.items():
        for label, change in [*_bad_arrays(case), *_bad_sizes(case)]:
            case_id = f"{key}-{label}"
            marks = [pytest.mark.xfail(strict=True, reason=reason)
                     for prefix, reason in XFAIL.items() if case_id.startswith(prefix)]
            yield pytest.param(key, change, id=case_id, marks=marks)


def test_every_export_is_covered_or_exempt():
    exported = {name for name, value in vars(nscontrol).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    covered = {key.split(".")[0] for key in CASES}
    assert exported - covered - set(EXEMPT) == set()
    assert covered & set(EXEMPT) == set()
    assert (covered | set(EXEMPT)) - exported == set()


@pytest.mark.parametrize("key", CASES)
def test_valid_call_succeeds(key, tmp_path):
    case = CASES[key]
    _call(case, _valid(case), tmp_path)


@pytest.mark.parametrize("key, change", _params())
def test_malformed_argument_raises_a_typed_error(key, change, tmp_path):
    case = CASES[key]
    [(name, value)] = change.items()
    kw = {**_valid(case), **change}
    if name in case.carries and not np.isfinite(value).all():
        assert np.shape(_call(case, kw, tmp_path)) == case.shape
        return
    with np.errstate(all="ignore"), pytest.raises((ConfigurationError, EvaluationError)):
        _call(case, kw, tmp_path)


def test_non_finite_gains_records_x0_and_embeddings_are_configuration_errors():
    # Each of these was accepted: the rollout returned NaN costs, and the
    # config, the embedding and the recorded source carried the NaN into a run.
    nan_K = np.array([[np.nan, 0.0]])
    with pytest.raises(ConfigurationError, match="K contains non-finite entries"):
        dac_rollout_costs(SYSTEM, COST, nan_K, [K], W)
    with pytest.raises(ConfigurationError, match="x0 contains non-finite entries"):
        ScenarioConfig("nan", SYSTEM, COST, PerturbationSource.zero(), {"kind": "zero"}, 4,
                       x0=[np.nan, 0.0])
    with pytest.raises(ConfigurationError, match="noise embedding contains non-finite entries"):
        generate_perturbations(PerturbationSource.gaussian(), 4, 2, 0, np.diag([1.0, np.nan]))
    with pytest.raises(ConfigurationError, match="recorded sequence contains non-finite entries"):
        PerturbationSource.recorded(np.where(W > 0.5, np.nan, W))
