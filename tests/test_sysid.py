"""Tests for method-of-moments identification and identify-then-control.

Moment estimators are checked against hand expansions (exact cases at
``A = 0`` or ``B = 0``), Monte Carlo rates at frozen seeds, and the
1/sqrt(T0) error-halving law; recovery is checked for exactness on
noiseless moments; the pipeline is checked for bit-for-bit replay,
regret decay with the horizon, and the model-error sweep.  Block stepping
and the one-draw excitation are checked bit for bit against per-step loops.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nscontrol import harness
from nscontrol.errors import ConfigurationError, EvaluationError
from nscontrol.harness import component_seed
from nscontrol.lds_core import LinearSystem, PerturbationSource, QuadraticCost, simulate
from nscontrol.sysid import (
    STATE_GROWTH_LIMIT,
    BlackBoxSystem,
    ExcitationRecord,
    MomentEstimates,
    control_with_model,
    estimate_moments,
    excite_and_record,
    exploration_length,
    identification_summary,
    identify_then_control,
    recover_AB,
)
from test_lds_core import _sources  # every perturbation kind, clipping on or off

SCALAR = LinearSystem.time_invariant([[0.5]], [[1.0]])
UNIT_COST = QuadraticCost(Q=np.eye(1), R=np.eye(1))


# ---------------------------------------------------------------------------
# Black box
# ---------------------------------------------------------------------------


def test_blackbox_stepping_and_history():
    A = np.array([[0.5, 0.1], [0.0, 0.4]])
    B = np.array([[1.0], [0.5]])
    box = BlackBoxSystem(LinearSystem.time_invariant(A, B), x0=[1.0, -1.0])
    assert box.d_x == 2 and box.d_u == 1
    assert box.steps == 0
    x0 = box.read_state()
    assert np.array_equal(x0, [1.0, -1.0])
    x0[0] = 99.0  # the readout is a copy
    assert np.array_equal(box.read_state(), [1.0, -1.0])

    box.apply_control([2.0])
    expected = A @ np.array([1.0, -1.0]) + B @ np.array([2.0])
    assert np.allclose(box.read_state(), expected, atol=1e-15)
    assert box.steps == 1
    assert box.recorded_states.shape == (2, 2)
    assert box.recorded_controls.shape == (1, 1)
    assert np.array_equal(box.recorded_perturbations, np.zeros((1, 2)))

    try:
        box.apply_control([1.0, 2.0])
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_blackbox_noise_stream_is_seeded():
    source = PerturbationSource.gaussian(sigma=0.5)
    runs = []
    for _ in range(2):
        box = BlackBoxSystem(SCALAR, source, seed=3)
        for _ in range(10):
            box.apply_control([0.0])
        runs.append(box.recorded_states)
    assert np.array_equal(runs[0], runs[1])
    other = BlackBoxSystem(SCALAR, source, seed=4)
    for _ in range(10):
        other.apply_control([0.0])
    assert not np.array_equal(runs[0], other.recorded_states)


def test_blackbox_nonfinite_state_aborts():
    box = BlackBoxSystem(LinearSystem.time_invariant([[1e60]], [[1.0]]), x0=[1.0])
    try:
        for _ in range(20):
            box.apply_control([0.0])
        assert False, "expected EvaluationError"
    except EvaluationError:
        pass


def test_blackbox_state_bound_ends_the_record_before_the_state_past_it():
    # x' = 2 x from x0 = 1: the states are 2, 4, 8, 16; under the bound 10
    # the step to 16 raises, and the record ends at 8.  Lifting the bound
    # lets the box go on from there.
    box = BlackBoxSystem(LinearSystem.time_invariant([[2.0]], [[1.0]]), x0=[1.0])
    box._bound_states(10.0)
    with pytest.raises(EvaluationError, match="norm 16 at step 3 exceeds the state bound 10"):
        box.apply_controls(np.zeros((5, 1)))
    assert box.recorded_states.ravel().tolist() == [1.0, 2.0, 4.0, 8.0]
    box._bound_states(float("inf"))
    box.apply_control([0.0])
    assert box.read_state().tolist() == [16.0]


def test_blackbox_rejects_nonfinite_x0():
    for bad in ([np.nan], [np.inf]):
        with pytest.raises(ConfigurationError, match="x0 contains non-finite entries"):
            BlackBoxSystem(SCALAR, x0=bad)


def _in_place_provider(seed, d_x, d_u, d_y=None):
    """A time-varying provider that writes each step's matrices into the
    same buffers: ``(A_t, B_t)``, and ``C_t`` too when ``d_y`` is given."""
    rng = np.random.default_rng(seed)
    A0, A1 = 0.4 * rng.normal(size=(2, d_x, d_x))
    B0 = rng.normal(size=(d_x, d_u))
    A, B = np.empty((d_x, d_x)), np.empty((d_x, d_u))
    if d_y is not None:
        C0, C = rng.normal(size=(d_y, d_x)), np.empty((d_y, d_x))

    def provider(t):
        A[...] = A0 + np.sin(0.3 * t) * A1
        B[...] = np.cos(0.2 * t) * B0
        if d_y is None:
            return A, B
        C[...] = (1.0 + 0.5 * np.sin(0.1 * t)) * C0
        return A, B, C

    return provider


def _reference_steps(system, source, seed, x0, U):
    """The black box as a per-step loop: ``[A_t | B_t | I] [x; u; w_t]``,
    each factor concatenated afresh, with ``w_t`` sampled inside each step.
    Returns the states, perturbations and the message of the error that
    stopped it (None if none did)."""
    rng = np.random.default_rng(component_seed(seed, "blackbox"))
    x, states, ws = x0, [x0], []
    for t, u in enumerate(U):
        A_t, B_t, _ = system.matrices(t)
        try:
            w = source.sample(t, system.d_x, rng)
        except ConfigurationError as exc:
            return states, ws, str(exc)
        x = np.concatenate((A_t, B_t, np.eye(system.d_x)), axis=1).dot(np.concatenate((x, u, w)))
        states.append(x)
        ws.append(w)
    return states, ws, None


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 2),
    steps=st.integers(0, 700),
    seed=st.integers(0, 2**16),
    time_varying=st.booleans(),
)
def test_block_stepping_matches_per_step_reference(data, d_x, d_u, steps, seed, time_varying):
    # Random splits of the controls into blocks, one-row blocks sometimes
    # through apply_control, give the reference's states, controls and
    # perturbations bit for bit; a recorded sequence that runs out raises at
    # the same step with the same message and leaves the same histories.
    source = data.draw(_sources(d_x, steps))
    if source.kind == "recorded":  # it may end before the run does
        length = data.draw(st.integers(0, steps + 1))
        source = PerturbationSource.recorded(source.sequence[:length], source.clip_to_unit_ball)
    rng = np.random.default_rng(seed)
    if time_varying:
        system = LinearSystem.time_varying(_in_place_provider(seed, d_x, d_u), d_x, d_u)
    else:
        system = LinearSystem.time_invariant(0.4 * rng.normal(size=(d_x, d_x)), rng.normal(size=(d_x, d_u)))
    x0 = rng.normal(size=d_x)
    U = rng.normal(size=(steps, d_u))
    states, ws, error = _reference_steps(system, source, seed, x0, U)

    box = BlackBoxSystem(system, source, seed=seed, x0=x0)
    done, message = 0, None
    try:
        while done < steps:
            n = data.draw(st.integers(1, steps - done))
            if n == 1 and data.draw(st.booleans()):
                box.apply_control(U[done])
            else:
                reached = box.apply_controls(U[done : done + n])
                assert reached.tobytes() == np.array(states[done + 1 : done + n + 1]).tobytes()
            done += n
    except ConfigurationError as exc:
        message = str(exc)
    assert message == error
    taken = len(ws)
    assert box.steps == taken
    assert box.recorded_states.tobytes() == np.array(states).tobytes()
    assert box.recorded_controls.tobytes() == U[:taken].tobytes()
    assert box.recorded_perturbations.tobytes() == np.array(ws).reshape(taken, d_x).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    d_x=st.integers(1, 4),
    d_u=st.integers(1, 2),
    observed=st.booleans(),
    time_varying=st.booleans(),
    T=st.integers(0, 60),
    one_by_one=st.integers(0, 60),
)
def test_simulate_step_and_black_box_share_one_plant_step(seed, d_x, d_u, observed, time_varying,
                                                          T, one_by_one):
    # simulate, step (so replay_residual) and the black box all step by
    # [A_t | B_t | I] [x_t; u_t; w_t]: the replay residual of a run is
    # exactly 0, and a box fed the run's controls (some one at a time,
    # the rest in one block) and its perturbations as a recorded sequence
    # reaches the run's states bit for bit.  An in-place provider hands the
    # same buffers every step, so a step matrix kept across steps by the
    # provider's objects would go stale.
    rng = np.random.default_rng(seed)
    d_y = int(rng.integers(1, d_x + 1)) if observed else None
    if time_varying:
        system = LinearSystem.time_varying(_in_place_provider(seed, d_x, d_u, d_y), d_x, d_u, d_y)
    else:
        C = None if d_y is None else rng.normal(size=(d_y, d_x))
        system = LinearSystem.time_invariant(0.4 * rng.normal(size=(d_x, d_x)),
                                             rng.normal(size=(d_x, d_u)), C)
    K, x0 = 0.3 * rng.normal(size=(d_u, system.d_y)), rng.normal(size=d_x)

    def controller(t, x, y):
        return K @ y + np.sin(t + np.arange(d_u))

    cost = QuadraticCost(np.eye(d_x), np.eye(d_u))
    run = simulate(system, controller, PerturbationSource.gaussian(0.5), cost, T, seed=seed, x0=x0)
    assert run.replay_residual(system) == 0.0

    box = BlackBoxSystem(system, PerturbationSource.recorded(run.perturbations), seed=seed, x0=x0)
    split = min(one_by_one, T)
    for u in run.controls[:split]:
        box.apply_control(u)
    box.apply_controls(run.controls[split:])
    assert box.recorded_states.tobytes() == run.states.tobytes()
    assert box.recorded_controls.tobytes() == run.controls.tobytes()
    assert box.recorded_perturbations.tobytes() == run.perturbations.tobytes()


def test_apply_controls_validates_shape_and_handles_no_rows():
    box = BlackBoxSystem(LinearSystem.time_invariant(np.eye(2), np.ones((2, 1))))
    for bad in (np.zeros(3), np.zeros((3, 2)), np.zeros((2, 1, 1))):
        with pytest.raises(ConfigurationError, match="controls have shape"):
            box.apply_controls(bad)
    assert box.apply_controls(np.zeros((0, 1))).shape == (0, 2)
    assert box.steps == 0


def test_nonfinite_state_mid_block_names_its_step():
    # x_t = 1e100^t: x_2 = 1e200 overflows x.x but is finite and accepted;
    # x_4 = inf is emitted at step 3, inside the excitation's one block.
    box = BlackBoxSystem(LinearSystem.time_invariant([[1e100]], [[1.0]]), x0=[1.0])
    with pytest.raises(EvaluationError, match="non-finite state at step 3;"):
        excite_and_record(box, k=1, T0=20, seed=0)
    assert box.steps == 3
    assert box.recorded_states.shape == (4, 1) and box.recorded_controls.shape == (3, 1)
    assert np.isfinite(box.recorded_states).all()
    assert box.recorded_states[-1, 0] > 1e299


def test_histories_are_compact_and_end_at_a_provider_fault():
    # 50,000 steps keep their 250,001 numbers in buffers that at most double
    # them; a history of per-step arrays in lists held about ten times that.
    system = LinearSystem.time_invariant(0.5 * np.eye(2), np.ones((2, 1)))
    U = np.random.default_rng(3).choice([-1.0, 1.0], size=(50_000, 1))
    tracemalloc.start()
    try:
        box = BlackBoxSystem(system, PerturbationSource.gaussian(0.1), seed=1)
        for u in U[:100]:
            box.apply_control(u)
        for start in range(100, len(U), 4_000):
            box.apply_controls(U[start : start + 4_000])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert box.steps == len(U)
    assert held <= 2 * 8 * (2 * 50_001 + 50_000 + 2 * 50_000)
    states, ws, _ = _reference_steps(system, PerturbationSource.gaussian(0.1), 1, np.zeros(2), U)
    assert box.recorded_states.tobytes() == np.array(states).tobytes()
    assert box.recorded_perturbations.tobytes() == np.array(ws).tobytes()
    assert box.recorded_controls.tobytes() == U.tobytes()

    # A provider whose matrices turn non-finite at step 7 raises there, and
    # the histories hold the 7 steps before it.
    def provider(t):
        return np.full((2, 2), np.nan if t == 7 else 0.5), np.ones((2, 1))

    box = BlackBoxSystem(LinearSystem.time_varying(provider, 2, 1), seed=1)
    with pytest.raises(ConfigurationError, match="A_7 contains non-finite entries"):
        box.apply_controls(np.ones((20, 1)))
    assert box.steps == 7
    assert box.recorded_states.shape == (8, 2) and box.recorded_controls.shape == (7, 1)
    assert box.recorded_perturbations.shape == (7, 2)
    assert np.array_equal(box.read_state(), box.recorded_states[-1])


# ---------------------------------------------------------------------------
# Excitation
# ---------------------------------------------------------------------------


def test_excitation_controls_are_sign_vectors():
    box = BlackBoxSystem(
        LinearSystem.time_invariant(0.3 * np.eye(2), np.ones((2, 3)))
    )
    record = excite_and_record(box, k=2, T0=20, seed=0)
    assert record.controls.shape == (exploration_length(2, 20), 3)
    assert set(np.unique(record.controls)) == {-1.0, 1.0}
    assert record.states.shape[0] == record.controls.shape[0] + 1


def test_excitation_mean_near_zero():
    # CLT scale for the mean of T0 (k+1) signs is well under the 0.05 band
    # at T0 = 1e4.
    box = BlackBoxSystem(SCALAR)
    record = excite_and_record(box, k=1, T0=10_000, seed=3)
    assert np.all(np.abs(record.controls.mean(axis=0)) <= 0.05)


def test_excitation_replay_identical():
    source = PerturbationSource.gaussian(sigma=0.2)
    records = []
    for _ in range(2):
        box = BlackBoxSystem(SCALAR, source, seed=5)
        records.append(excite_and_record(box, k=2, T0=30, seed=9))
    assert np.array_equal(records[0].states, records[1].states)
    assert np.array_equal(records[0].controls, records[1].controls)


@settings(max_examples=30, deadline=None)
@given(d_u=st.integers(1, 4), k=st.integers(1, 3), T0=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_excitation_matches_per_step_draws(d_u, k, T0, seed):
    # One draw of all the signs equals a per-step draw of d_u signs, bit for
    # bit, with the generator left in the same state; so the records match
    # a per-step excitation loop.  This pins a property of numpy's bounded
    # integer draws that the excitation relies on.
    n = exploration_length(k, T0)
    block_rng, step_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    block = block_rng.integers(0, 2, size=(n, d_u))
    steps = [step_rng.integers(0, 2, size=d_u) for _ in range(n)]
    assert block.tobytes() == np.array(steps, dtype=block.dtype).reshape(n, d_u).tobytes()
    assert block_rng.bit_generator.state == step_rng.bit_generator.state

    system = LinearSystem.time_invariant(0.5 * np.eye(2), np.arange(2.0 * d_u).reshape(2, d_u))
    source = PerturbationSource.gaussian(0.3)
    record = excite_and_record(BlackBoxSystem(system, source, seed=seed), k, T0, seed=seed)
    box = BlackBoxSystem(system, source, seed=seed)
    rng = np.random.default_rng(seed)
    states, controls = [box.read_state()], []
    for _ in range(n):
        eta = rng.integers(0, 2, size=d_u).astype(float) * 2.0 - 1.0
        box.apply_control(eta)
        controls.append(eta)
        states.append(box.read_state())
    assert record.controls.tobytes() == np.array(controls).tobytes()
    assert record.states.tobytes() == np.array(states).tobytes()


def test_excitation_validation():
    box = BlackBoxSystem(SCALAR)
    for bad in ((0, 5), (1, 0)):
        try:
            excite_and_record(box, k=bad[0], T0=bad[1])
            assert False, "expected ConfigurationError"
        except ConfigurationError:
            pass
    try:
        ExcitationRecord(states=np.zeros((5, 1)), controls=np.zeros((5, 1)))
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


# ---------------------------------------------------------------------------
# Moment estimation
# ---------------------------------------------------------------------------


def test_moments_memoryless_dynamics_recover_B_exactly():
    # With A = 0, zero noise, and one control channel, x_{s+1} = B eta_s
    # and eta_s^2 = 1, so every anchor contributes exactly B and G_0 = B
    # bit-for-bit.
    B = np.array([[1.25], [-0.75]])
    box = BlackBoxSystem(LinearSystem.time_invariant(np.zeros((2, 2)), B))
    T0 = 37
    record = excite_and_record(box, k=1, T0=T0, seed=11)
    est = estimate_moments(record, k=1, T0=T0)
    assert np.array_equal(est.moments[0], B)


def test_moments_zero_control_matrix_gives_zero():
    box = BlackBoxSystem(
        LinearSystem.time_invariant(0.5 * np.eye(2), np.zeros((2, 1)))
    )
    record = excite_and_record(box, k=2, T0=25, seed=1)
    est = estimate_moments(record, k=2, T0=25)
    assert np.array_equal(est.moments, np.zeros((3, 2, 1)))


def test_moments_scalar_monte_carlo_rate():
    # Scalar a = 0.5, b = 1: the j-th moment targets 0.5^j; at T0 = 5e4 the
    # estimator noise (control cross-correlations) sits far inside 0.05.
    box = BlackBoxSystem(SCALAR, seed=0)
    T0 = 50_000
    record = excite_and_record(box, k=2, T0=T0, seed=1)
    est = estimate_moments(record, k=2, T0=T0)
    for j in range(3):
        assert abs(est.moments[j][0, 0] - 0.5**j) <= 0.05


def test_moments_record_length_validation():
    record = ExcitationRecord(states=np.zeros((7, 1)), controls=np.zeros((6, 1)))
    try:
        estimate_moments(record, k=2, T0=3)  # needs 9 controls
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass
    try:
        MomentEstimates(k=1, T0=1, moments=np.full((2, 1, 1), np.nan))
        assert False, "expected EvaluationError"
    except EvaluationError:
        pass


def test_error_halves_when_samples_quadruple():
    # 1/sqrt(T0) law: quadrupling the anchors should halve the moment
    # error, within +-50%, averaged over ten random stable systems.
    k, T0 = 1, 2000
    means = {}
    for n in (T0, 4 * T0):
        errors = []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            M = rng.standard_normal((2, 2))
            A = 0.7 * M / max(1.0, np.max(np.abs(np.linalg.eigvals(M))))
            B = rng.standard_normal((2, 1))
            system = LinearSystem.time_invariant(A, B)
            box = BlackBoxSystem(system, PerturbationSource.gaussian(0.3), seed=seed)
            record = excite_and_record(box, k, n, seed=seed)
            est = estimate_moments(record, k, n)
            errors.append(
                np.linalg.norm(est.moments[0] - B)
                + np.linalg.norm(est.moments[1] - A @ B)
            )
        means[n] = np.mean(errors)
    ratio = means[T0] / means[4 * T0]
    assert 1.0 <= ratio <= 3.0


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def test_recover_exact_moments_exact_matrices():
    A = np.array([[0.6, 0.2], [0.0, 0.4]])
    B = np.array([[1.0], [0.5]])
    moments = np.stack([B, A @ B, A @ A @ B])
    identified = recover_AB(MomentEstimates(k=2, T0=1, moments=moments))
    assert np.max(np.abs(identified.A_hat - A)) < 1e-10
    assert np.array_equal(identified.B_hat, B)
    assert identified.residual < 1e-10
    assert identified.sigma_min > 0.1


def test_recover_scalar_hand_case():
    moments = np.array([[[1.0]], [[0.5]]])
    identified = recover_AB(MomentEstimates(k=1, T0=1, moments=moments))
    assert abs(identified.A_hat[0, 0] - 0.5) < 1e-14
    assert identified.B_hat[0, 0] == 1.0


def test_recover_rank_deficient_warns():
    # B = e1 and A = I makes every moment the same column, so the stacked
    # block matrix has rank one.
    e1 = np.array([[1.0], [0.0]])
    moments = np.stack([e1, e1, e1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        identified = recover_AB(MomentEstimates(k=2, T0=1, moments=moments))
    assert any("rank-deficient" in str(w.message) for w in caught)
    assert identified.sigma_min < 1e-6

    try:
        recover_AB(MomentEstimates(k=0, T0=1, moments=e1[None]))
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_identification_summary_fields():
    A = np.array([[0.5]])
    B = np.array([[1.0]])
    moments = np.stack([B, A @ B])
    est = MomentEstimates(k=1, T0=10, moments=moments)
    identified = recover_AB(est)
    summary = identification_summary(
        est, identified, LinearSystem.time_invariant(A, B)
    )
    assert summary["k"] == 1 and summary["T0"] == 10
    assert summary["moment_error_0"] == 0.0
    assert summary["moment_error_1"] == 0.0
    assert summary["A_error"] < 1e-12
    assert summary["B_error"] == 0.0
    assert summary["residual"] < 1e-12
    assert summary["sigma_min"] == 1.0


# ---------------------------------------------------------------------------
# Identify-then-control
# ---------------------------------------------------------------------------


def test_pipeline_replay_is_bit_for_bit():
    # Re-running the exact same phases on a fresh box with the same seeds
    # must reproduce every state, control, and exploitation cost.
    system = LinearSystem.time_invariant(
        [[0.6, 0.1], [0.0, 0.5]], [[1.0], [0.3]]
    )
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1))
    box1 = BlackBoxSystem(system, seed=4)
    report = identify_then_control(
        box1, 400, cost, k=2, h=4, radius=2.0, step_size=0.1, seed=4
    )
    T0, n_explore = report.extras["T0"], report.extras["n_explore"]
    assert n_explore == exploration_length(2, T0)

    box2 = BlackBoxSystem(system, seed=4)
    record = excite_and_record(box2, 2, T0, seed=component_seed(4, "sysid"))
    identified = recover_AB(estimate_moments(record, 2, T0))
    exploit = control_with_model(
        box2,
        identified.A_hat,
        identified.B_hat,
        400 - n_explore,
        cost,
        h=4,
        radius=2.0,
        step_size=0.1,
    )
    assert np.array_equal(box1.recorded_states, box2.recorded_states)
    assert np.array_equal(box1.recorded_controls, box2.recorded_controls)
    assert np.array_equal(report.costs[n_explore:], exploit)
    # Zero noise and k = d_x: recovery is numerically exact, so the
    # residual vanishes.
    assert identified.residual < 1e-10


def test_pipeline_rolls_its_comparator_out_once():
    # The comparator's own rollout gives the report its costs.
    system = LinearSystem.time_invariant([[0.6, 0.1], [0.0, 0.5]], [[1.0], [0.3]])
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1))
    with mock.patch.object(harness, "_policy_rollout_costs",
                           wraps=harness._policy_rollout_costs) as rollouts:
        identify_then_control(BlackBoxSystem(system, seed=4), 400, cost, k=2, h=4, seed=4)
    assert rollouts.call_count == 1


def test_pipeline_average_regret_decreases_with_budget():
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    source = PerturbationSource.gaussian(0.3)
    results = {}
    for T in (1000, 8000):
        box = BlackBoxSystem(system, source, seed=7)
        report = identify_then_control(
            box, T, cost=UNIT_COST, k=1, h=5, radius=2.0, step_size=0.1, seed=7
        )
        assert report.horizon == T
        assert len(report.costs) == T
        assert report.extras["T0"] == (100 if T == 1000 else 400)
        assert (
            abs(
                report.extras["exploration_cost"]
                + report.extras["exploitation_cost"]
                - report.total_cost
            )
            < 1e-9
        )
        results[T] = report.final_avg_regret
    assert results[8000] < results[1000]


def test_pipeline_budget_too_small():
    box = BlackBoxSystem(SCALAR)
    try:
        identify_then_control(box, 10, UNIT_COST, k=3)
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_pipeline_aborts_on_deficient_excitation():
    # Zero control matrix, zero noise: nothing is excited, every moment is
    # exactly zero, and the pipeline must refuse to control the bogus model.
    box = BlackBoxSystem(LinearSystem.time_invariant(0.5 * np.eye(2), np.zeros((2, 1))))
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            identify_then_control(box, 500, cost, k=1)
            assert False, "expected EvaluationError"
        except EvaluationError:
            pass


def test_control_with_unstabilizable_model_fails():
    box = BlackBoxSystem(SCALAR)
    try:
        control_with_model(box, [[2.0]], [[0.0]], 10, UNIT_COST)
        assert False, "expected EvaluationError"
    except EvaluationError:
        pass


def test_injected_model_error_sweep():
    # Exploitation cost under a model perturbed by eps, with the projection
    # ball binding (sinusoidal disturbance wants a larger response than the
    # radius allows): increments over the true model grow monotonically and
    # the log-log slope over the sweep is linear-ish (measured ~1.3).
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    totals = {}
    for eps in (0.0, 0.001, 0.01, 0.05):
        box = BlackBoxSystem(system, PerturbationSource.sinusoidal(1.0, 1.0), seed=11)
        costs = control_with_model(
            box,
            [[0.9 + eps]],
            [[1.0 - eps]],
            3000,
            UNIT_COST,
            h=5,
            radius=1.0,
            step_size=0.1,
        )
        totals[eps] = costs.sum()
    inc = {eps: totals[eps] - totals[0.0] for eps in (0.001, 0.01, 0.05)}
    assert inc[0.001] > 0.0
    assert inc[0.01] > inc[0.001]
    assert inc[0.05] > inc[0.01]
    slope = np.log(inc[0.05] / inc[0.001]) / np.log(0.05 / 0.001)
    assert 0.5 <= slope <= 2.0


@pytest.mark.parametrize("n_steps", [0, 1, 300])
def test_control_with_model_returns_the_pointwise_costs_it_incurred(n_steps):
    # The costs are priced in one values() call on the box's record after
    # the loop; each must be the pointwise value(x_s, u_s) of the pair
    # played at step s of this phase, to rounding.
    system = LinearSystem.time_invariant([[0.6, 0.1], [0.0, 0.5]], [[1.0], [0.3]])
    cost = QuadraticCost(Q=np.diag([1.0, 2.0]), R=np.eye(1), target=[0.5, -0.25])
    box = BlackBoxSystem(system, PerturbationSource.gaussian(0.3), seed=2)
    box.apply_controls(np.ones((5, 1)))  # the phase starts mid-record
    costs = control_with_model(box, [[0.62, 0.1], [0.0, 0.5]], [[1.0], [0.3]], n_steps, cost,
                               h=3, radius=2.0, step_size=0.1)
    states, controls = box.recorded_states[5:], box.recorded_controls[5:]
    assert len(states) == n_steps + 1 and costs.shape == (n_steps,)
    expected = np.array([cost.value(x, u) for x, u in zip(states[:-1], controls)])
    assert np.abs(costs - expected).max(initial=0.0) <= 1e-12 * np.abs(expected).max(initial=0.0)


def _sysid_run(preset, T, seed, **learner):
    """identify_then_control on a preset's plant, as the CLI runs it."""
    config = harness.config_from_preset(preset, {}, T, seed=seed)
    box = BlackBoxSystem(config.system, config.perturbation, seed=seed, x0=config.x0)
    return identify_then_control(box, T, config.cost, k=config.system.d_x, seed=seed, **learner)


def test_pipeline_reports_its_state_guard():
    # The bound and the largest exploitation state norm over the largest
    # exploration one, from the box's record.
    config = harness.config_from_preset("scalar-0.9", {}, 1000, seed=1)
    box = BlackBoxSystem(config.system, config.perturbation, seed=1, x0=config.x0)
    report = identify_then_control(box, 1000, config.cost, k=1, seed=1, radius=2.0)
    norms = np.abs(box.recorded_states[:, 0])
    n_explore = report.extras["n_explore"]
    assert report.extras["state_ratio_bound"] == STATE_GROWTH_LIMIT == 1e3
    ratio = norms[n_explore + 1 :].max() / norms[: n_explore + 1].max()
    assert report.extras["max_state_ratio"] == pytest.approx(ratio, rel=1e-12)
    assert 0.0 < ratio < STATE_GROWTH_LIMIT


def test_pipeline_guard_stops_a_model_gain_that_does_not_stabilize_the_plant():
    # The double integrator's identified gain does not stabilize the true
    # plant, even with the learner held at M = 0: the state grows past 1e3
    # times the exploration phase's largest one, long before any number
    # overflows, and the run raises instead of reporting its regret.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EvaluationError, match="exceeds the state bound"):
            _sysid_run("double-integrator", 2000, 0, radius=0.0, step_size=0.0)


@pytest.mark.parametrize("preset", ["scalar-0.9", "double-integrator"])
@pytest.mark.parametrize("radius", [2.0, 10.0])
def test_default_step_sweep_stays_bounded_or_raises(preset, radius):
    # Under the default step, every seed gives a per-step regret of at most
    # 1e3 (scalar-0.9 stage costs are O(1)) or a typed numerical failure,
    # and no RuntimeWarning.  T is the CLI's sysid default.
    for seed in range(10):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                report = _sysid_run(preset, 2000, seed, radius=radius)
            except EvaluationError:
                continue
        assert report.final_avg_regret <= 1e3, (seed, report.final_avg_regret)
