"""Tests for the linear-dynamical-system core: stepping, observation,
diagnostics, linearization, and the simulation loop.

Expected values are produced by independent oracles (hand arithmetic,
explicit loops, geometric series) and frozen here.
"""

import time
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nscontrol.errors import ConfigurationError, EvaluationError
from nscontrol.harness import component_seed, generate_perturbations
from nscontrol.lds_core import (
    CallableCost,
    LinearSystem,
    PerturbationSource,
    QuadraticCost,
    controllability,
    linearize,
    lyapunov_certificate,
    observability_rank,
    observe,
    simulate,
    spectral_radius,
    step,
)


def matvec_oracle(A, x):
    """Dense matrix-vector product via explicit loops (independent of
    numpy's matmul path)."""
    out = np.zeros(A.shape[0])
    for i in range(A.shape[0]):
        acc = 0.0
        for j in range(A.shape[1]):
            acc += A[i, j] * x[j]
        out[i] = acc
    return out


# ---------------------------------------------------------------------------
# step / observe
# ---------------------------------------------------------------------------


def test_step_zero_fixed_point():
    sys2 = LinearSystem.time_invariant(np.eye(2), np.ones((2, 1)))
    out = step(sys2, [0, 0], [0], [0, 0], t=0)
    assert np.all(out == 0)


def test_step_double_integrator_hand_value():
    delta = 0.1
    sys2 = LinearSystem.time_invariant([[1, delta], [0, 1]], [[0], [1]])
    out = step(sys2, [1, 2], [3], [0, 0])
    # By hand: A x = [1 + 0.1*2, 2] = [1.2, 2]; B u = [0, 3]; sum = [1.2, 5].
    assert np.allclose(out, [1.2, 5.0], atol=1e-15)
    # Variant with the force integrated over the step (B = [0, delta]'):
    sys2b = LinearSystem.time_invariant([[1, delta], [0, 1]], [[0], [delta]])
    assert np.allclose(step(sys2b, [1, 2], [3], [0, 0]), [1.2, 2.3], atol=1e-15)


def test_step_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        w = rng.standard_normal(4)
        sys4 = LinearSystem.time_invariant(A, np.zeros((4, 1)))
        got = step(sys4, x, [0.0], w)
        want = matvec_oracle(A, x) + w
        assert np.max(np.abs(got - want)) < 1e-12


def test_step_dimension_mismatch_raises():
    sys2 = LinearSystem.time_invariant(np.eye(2), np.ones((2, 1)))
    with pytest.raises(ConfigurationError):
        step(sys2, [1, 2, 3], [0], [0, 0])
    with pytest.raises(ConfigurationError):
        step(sys2, [1, 2], [0, 0], [0, 0])


def test_observe_identity_and_projection():
    full = LinearSystem.time_invariant(np.eye(2), np.ones((2, 1)))
    assert np.array_equal(observe(full, [3, -1]), [3, -1])
    partial = LinearSystem.time_invariant(np.eye(2), np.ones((2, 1)), C=[[1, 0]])
    assert np.array_equal(observe(partial, [3, -1]), [3])


def test_observe_matches_loop_oracle():
    rng = np.random.default_rng(11)
    C = rng.standard_normal((3, 5))
    x = rng.standard_normal(5)
    sysp = LinearSystem.time_invariant(np.eye(5), np.ones((5, 1)), C=C)
    assert np.max(np.abs(observe(sysp, x) - matvec_oracle(C, x))) < 1e-12


def test_time_varying_provider():
    def provider(t):
        return np.eye(2) * (t + 1), np.ones((2, 1)), None

    sysv = LinearSystem.time_varying(provider, d_x=2, d_u=1)
    assert np.allclose(step(sysv, [1, 1], [0], [0, 0], t=2), [3, 3])


def _content(seed, d_x, d_u, d_y, with_C):
    """Matrices ``t -> (A_t, B_t[, C_t])`` of a random time-varying system."""
    rng = np.random.default_rng(seed)
    A0, A1, B0, C0 = (rng.standard_normal(shape) for shape in
                      [(d_x, d_x), (d_x, d_x), (d_x, d_u), (d_y, d_x)])
    content = [lambda t: A0 + np.sin(0.7 * t) * A1, lambda t: B0 * np.cos(0.4 * t)]
    if with_C:
        content.append(lambda t: (1.0 + t) * C0)
    return content


def _counted_provider(mode, content, calls, bad_at=None, fault=None):
    """``t -> matrices`` that appends ``t`` to ``calls``: fresh arrays, or
    (``"in-place"``) one set of buffers overwritten on every call.  At step
    ``bad_at`` A_t has the wrong shape or a non-finite entry."""
    buffers = [np.zeros_like(at(0)) for at in content]

    def provider(t):
        calls.append(t)
        out = [at(t) for at in content]
        if mode == "in-place":
            for buffer, M in zip(buffers, out):
                buffer[...] = M
            out = list(buffers)
        if t == bad_at:
            out[0] = np.ones((1, 3)) if fault == "shape" else np.full_like(out[0], np.nan)
        return tuple(out)

    return provider


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["fixed", "fresh", "in-place"]),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 2),
    d_y=st.integers(1, 3),
    with_C=st.booleans(),
    start=st.integers(0, 20),
    n=st.integers(1, 12),
)
def test_stacks_match_per_step_matrices(seed, mode, d_x, d_u, d_y, with_C, start, n):
    content = _content(seed, d_x, d_u, d_y, with_C)
    d_y = d_y if with_C else d_x
    if mode == "fixed":
        system = LinearSystem.time_invariant(*(at(3) for at in content))
    else:
        system = LinearSystem.time_varying(_counted_provider(mode, content, []), d_x, d_u, d_y)
    A, B, C = system.stacks(start, start + n)
    assert A.shape == (n, d_x, d_x) and B.shape == (n, d_x, d_u) and C.shape == (n, d_y, d_x)
    for k, t in enumerate(range(start, start + n)):
        A_t, B_t, C_t = system.matrices(t)
        assert np.array_equal(A[k], A_t) and np.array_equal(B[k], B_t)
        assert np.array_equal(C[k], np.eye(d_y, d_x) if C_t is None else C_t)


@pytest.mark.parametrize("with_C", [False, True])
def test_fixed_system_stacks_are_read_only(with_C):
    A_in, B_in = np.array([[0.5, 0.1], [0.0, 0.3]]), np.array([[0.0], [1.0]])
    C_in = np.array([[1.0, 2.0]]) if with_C else None
    system = LinearSystem.time_invariant(A_in, B_in, C_in)
    for M in system.stacks(0, 7):
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0, 0] = 1.0
    # The system holds copies: writes into the arrays it was built from do
    # not reach it, and the matrices it hands out are read-only.
    for M in (A_in, B_in) if C_in is None else (A_in, B_in, C_in):
        M[0, 0] = np.nan
    A, B, C = system.matrices(0)
    assert A[0, 0] == 0.5 and B[0, 0] == 0.0
    assert C is None if C_in is None else C[0, 0] == 1.0
    for M in (A, B) if C is None else (A, B, C):
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 1.0


@pytest.mark.parametrize("fault", ["shape", "non-finite"])
@pytest.mark.parametrize("accessor", ["stacks", "matrices"])
def test_provider_fault_mid_chunk_names_its_step(fault, accessor):
    content = _content(1, 2, 1, 1, True)
    provider = _counted_provider("in-place", content, [], bad_at=5, fault=fault)
    system = LinearSystem.time_varying(provider, 2, 1, 1)
    system.stacks(0, 5)
    with pytest.raises(ConfigurationError, match=r"(A_|t=)5\b"):
        system.stacks(2, 9) if accessor == "stacks" else system.matrices(5)


@pytest.mark.parametrize("mode", ["fresh", "in-place"])
def test_matrices_fetch_once_per_step_and_own_their_copies(mode):
    content = _content(2, 3, 2, 2, True)
    calls = []
    system = LinearSystem.time_varying(_counted_provider(mode, content, calls), 3, 2, 2)
    first = system.matrices(4)
    again = system.matrices(4)
    assert calls == [4]
    assert all(M is N for M, N in zip(first, again))
    system.matrices(5)  # an in-place provider overwrites its buffers here
    assert calls == [4, 5]
    for M, at in zip(first, content):
        assert np.array_equal(M, at(4))
        with pytest.raises(ValueError):
            M[0, 0] = 1.0


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------


def test_spectral_radius_nilpotent_identity_rotation():
    assert spectral_radius([[0, 1], [0, 0]]) == 0.0
    assert abs(spectral_radius(np.eye(3)) - 1.0) < 1e-14
    # Rotation matrix: characteristic polynomial lambda^2 + 1, roots +-i.
    assert abs(spectral_radius([[0, 1], [-1, 0]]) - 1.0) < 1e-12


def test_spectral_radius_power_property():
    rng = np.random.default_rng(5)
    for _ in range(10):
        M = 0.3 * rng.standard_normal((4, 4))
        rho = spectral_radius(M)
        for k in range(1, 6):
            assert abs(spectral_radius(np.linalg.matrix_power(M, k)) - rho**k) < 1e-8


def test_spectral_radius_power_iteration_crosscheck():
    # Power iteration on a symmetric matrix converges to the top |eigenvalue|;
    # written out by hand so the dense eigensolver has an independent check.
    rng = np.random.default_rng(13)
    for _ in range(5):
        M = rng.standard_normal((6, 6))
        S = (M + M.T) / 2.0
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        estimate = 0.0
        for _ in range(2000):
            Sv = S @ v
            estimate = np.linalg.norm(Sv)
            v = Sv / estimate
        assert abs(spectral_radius(S) - estimate) < 1e-6


def test_spectral_radius_rejects_nonsquare():
    with pytest.raises(ConfigurationError):
        spectral_radius(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Lyapunov certificate
# ---------------------------------------------------------------------------


def test_lyapunov_zero_matrix_gives_identity():
    P = lyapunov_certificate(np.zeros((3, 3)))
    assert np.allclose(P, np.eye(3), atol=1e-12)


def test_lyapunov_scalar_geometric_series():
    # Sum of 0.25^t = 1/(1 - 0.25) = 4/3.
    P = lyapunov_certificate([[0.5]])
    assert abs(P[0, 0] - 4.0 / 3.0) < 1e-9


def test_lyapunov_unstable_absent():
    assert lyapunov_certificate([[1.1]]) is None
    assert lyapunov_certificate(1.1 * np.eye(3)) is None


def test_lyapunov_iff_spectral_radius():
    rng = np.random.default_rng(3)
    for _ in range(10):
        M = rng.standard_normal((4, 4))
        rho = spectral_radius(M)
        stable = M * (0.6 / rho)
        unstable = M * (1.2 / rho)
        P = lyapunov_certificate(stable)
        assert P is not None
        # P >= I and P - A'PA > 0 (up to truncation tolerance).
        A = stable
        assert np.linalg.eigvalsh(P - np.eye(4)).min() > -1e-9
        assert np.linalg.eigvalsh(P - A.T @ P @ A).min() > 1e-3
        assert lyapunov_certificate(unstable) is None


def _lyapunov_series(A, tol=1e-12):
    # sum_t (A^t)' A^t term by term, until a term's norm falls below tol.
    P, power = np.eye(len(A)), np.eye(len(A))
    while True:
        power = power @ A
        term = power.T @ power
        if np.linalg.norm(term) < tol:
            return P
        P = P + term


@pytest.mark.parametrize("A", [
    np.diag([0.999, 0.5, -0.3, 0.9]),
    np.array([[0.999, 1.0, 0.0], [0.0, 0.99, 1.0], [0.0, 0.0, 0.9]]),
], ids=["rho-0.999", "non-normal"])
def test_lyapunov_certificate_doubles_to_the_series(A):
    # Near the unit circle the series needs thousands of terms; the doubling
    # gives the Stein solution P = I + A'PA in a few squarings, 10x faster.
    # The series stops about tol / (1 - rho^2) short of it.
    start = time.perf_counter()
    reference = _lyapunov_series(A)
    series_s = time.perf_counter() - start
    doubling_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        P = lyapunov_certificate(A)
        doubling_s = min(doubling_s, time.perf_counter() - start)
    exact = scipy.linalg.solve_discrete_lyapunov(A.T, np.eye(len(A)))
    assert np.abs(P - exact).max() <= 1e-12 * np.abs(exact).max()
    assert np.abs(P - reference).max() <= 1e-11 * np.abs(reference).max()
    assert np.array_equal(P, P.T)
    assert np.linalg.eigvalsh(P - np.eye(len(A))).min() > -1e-9
    assert np.linalg.eigvalsh(P - A.T @ P @ A).min() > 0.5
    assert 10.0 * doubling_s <= series_s
    # 2^10 terms do not reach tol at rho = 0.999.
    assert lyapunov_certificate(A, max_terms=1000) is None


# ---------------------------------------------------------------------------
# Controllability / observability
# ---------------------------------------------------------------------------


def test_controllability_examples():
    K, rank, _ = controllability(np.eye(2), [[1], [0]], r=2)
    assert rank == 1  # AB = B, so the matrix has a single independent column

    downshift = [[0, 0], [1, 0]]
    K2, rank2, kappa2 = controllability(downshift, [[1], [0]], r=2)
    assert np.allclose(K2, [[1, 0], [0, 1]])
    assert rank2 == 2
    assert abs(kappa2 - 1.0) < 1e-12

    _, rank0, kappa0 = controllability([[0.7]], [[0.0]], r=3)
    assert rank0 == 0
    assert kappa0 == float("inf")


def test_controllability_rank_monotone_and_stabilizes():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 1))
    ranks = [controllability(A, B, r)[1] for r in range(1, 8)]
    assert all(r2 >= r1 for r1, r2 in zip(ranks, ranks[1:]))
    # Once two consecutive ranks agree, the rank has stabilized for good.
    for i in range(len(ranks) - 1):
        if ranks[i] == ranks[i + 1]:
            assert all(r == ranks[i] for r in ranks[i + 1 :])
            break


def test_observability_examples_and_duality():
    assert observability_rank(np.eye(3) * 0.5, np.eye(3)) == 3
    assert observability_rank(np.eye(2), [[1, 0]]) == 1
    rng = np.random.default_rng(23)
    A = rng.standard_normal((4, 4))
    C = rng.standard_normal((2, 4))
    dual_rank = controllability(A.T, C.T, r=4)[1]
    assert observability_rank(A, C) == dual_rank


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------


def test_linearize_recovers_linear_system():
    rng = np.random.default_rng(29)
    A0 = rng.standard_normal((3, 3))
    B0 = rng.standard_normal((3, 2))

    def f(x, u):
        return A0 @ x + B0 @ u

    A, B = linearize(f, np.zeros(3), np.zeros(2), fd_step=1e-5)
    assert np.max(np.abs(A - A0)) < 1e-8
    assert np.max(np.abs(B - B0)) < 1e-8


def test_linearize_pendulum_gravity_entry():
    delta, g, ell, m = 0.1, 9.8, 1.0, 1.0

    def f(x, u):
        theta, theta_dot = x
        return np.array(
            [
                theta + delta * theta_dot,
                theta_dot + delta * (u[0] - m * g * ell * np.sin(theta)) / (m * ell**2),
            ]
        )

    A, _ = linearize(f, [0.0, 0.0], [0.0])
    # By hand: d(theta_dot')/d(theta) at theta=0 is -delta * g / ell = -0.98.
    assert abs(A[1, 0] - (-0.98)) < 1e-8


def test_linearize_pressure_map_hand_derivative():
    c0, c1, c2 = 2.0, 3.0, 3.0

    def f(v, u):
        return np.array([c0 + c1 * v[0] ** (-1.0 / 3.0) + c2 * v[0] ** (5.0 / 3.0)])

    A, _ = linearize(f, [1.0], [0.0])
    # By hand: dp/dv at v=1 is -c1/3 + 5*c2/3 = -1 + 5 = 4.
    assert abs(A[0, 0] - 4.0) < 1e-7


def test_linearize_nan_raises():
    def f(x, u):
        return np.array([float("nan")])

    with pytest.raises(EvaluationError):
        linearize(f, [0.0], [0.0])


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def zero_controller(t, x, y):
    return np.zeros(1)


def test_simulate_zero_everything():
    sys2 = LinearSystem.time_invariant(np.eye(2) * 0.5, [[0], [1]])
    cost = QuadraticCost(np.eye(2), np.eye(1))
    traj = simulate(sys2, zero_controller, PerturbationSource.zero(), cost, T=10, seed=0)
    assert np.all(traj.states == 0)
    assert traj.total_cost == 0.0
    assert traj.gamma == 0.0


def test_simulate_geometric_series():
    sys1 = LinearSystem.time_invariant([[0.5]], [[1.0]])
    cost = QuadraticCost(np.eye(1), np.eye(1))
    T = 60
    traj = simulate(sys1, zero_controller, PerturbationSource.constant([1.0]), cost, T=T)
    # x_T = sum_{i=0}^{T-1} 0.5^i = 2 (1 - 0.5^T); at T=60 that is 2 to 1e-15.
    assert abs(traj.states[-1, 0] - 2.0 * (1 - 0.5**T)) < 1e-12
    assert abs(traj.states[-1, 0] - 2.0) < 1e-12


def test_simulate_recorded_replay_is_bit_exact():
    sys2 = LinearSystem.time_invariant([[0.9, 0.1], [0.0, 0.8]], [[0.0], [1.0]])
    cost = QuadraticCost(np.eye(2), np.eye(1))

    def controller(t, x, y):
        return np.array([-0.3 * x[0]])

    first = simulate(sys2, controller, PerturbationSource.gaussian(0.5), cost, T=40, seed=42)
    replay = simulate(
        sys2, controller, PerturbationSource.recorded(first.perturbations), cost, T=40, seed=7
    )
    assert first.states.tobytes() == replay.states.tobytes()
    assert first.costs.tobytes() == replay.costs.tobytes()
    assert first.replay_residual(sys2) == 0.0


def test_simulate_same_seed_byte_identical():
    sys2 = LinearSystem.time_invariant([[0.9, 0.1], [0.0, 0.8]], [[0.0], [1.0]])
    cost = QuadraticCost(np.eye(2), np.eye(1))
    a = simulate(sys2, zero_controller, PerturbationSource.gaussian(1.0), cost, T=25, seed=5)
    b = simulate(sys2, zero_controller, PerturbationSource.gaussian(1.0), cost, T=25, seed=5)
    assert a.states.tobytes() == b.states.tobytes()
    assert a.perturbations.tobytes() == b.perturbations.tobytes()


def _reference_row(source, t, dim, rng):
    """``w_t`` from the per-step formulas, one row and one draw at a time:
    the oracle for the block draw."""
    if source.kind == "zero":
        w = np.zeros(dim)
    elif source.kind == "iid-gaussian":
        w = source.sigma * rng.standard_normal(dim)
    elif source.kind == "iid-uniform-ball":
        direction = rng.standard_normal(dim)
        direction /= max(np.linalg.norm(direction), 1e-300)
        w = direction * rng.random() ** (1.0 / dim)
    elif source.kind == "sinusoidal":
        phase = np.zeros(dim) if source.phase is None else source.phase
        w = source.amplitude * np.sin(source.omega * t + phase)
    elif source.kind == "recorded":
        w = source.sequence[t].copy()
    else:
        w = source.vector.copy()
    if source.clip_to_unit_ball:
        norm = np.linalg.norm(w)
        if norm > 1.0:
            w = w / norm
    return w


@st.composite
def _sources(draw, dim, length):
    """A perturbation source of every kind, emitting rows of ``dim`` whose
    norms fall on both sides of 1, with clipping on or off."""
    kind = draw(st.sampled_from(
        ["zero", "iid-gaussian", "iid-uniform-ball", "sinusoidal", "recorded", "constant"]
    ))
    clip = draw(st.booleans())
    scale = draw(st.floats(0.01, 3.0))
    values = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(length + 1, dim))
    if kind == "iid-gaussian":
        return PerturbationSource.gaussian(scale, clip_to_unit_ball=clip)
    if kind == "sinusoidal":
        phase = draw(st.sampled_from([None, values[-1]]))
        return PerturbationSource.sinusoidal(scale, draw(st.floats(-3.0, 3.0)), phase, clip)
    if kind == "recorded":
        return PerturbationSource.recorded(scale * values, clip_to_unit_ball=clip)
    if kind == "constant":
        return PerturbationSource.constant(scale * values[-1], clip_to_unit_ball=clip)
    return PerturbationSource(kind=kind, clip_to_unit_ball=clip)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dim=st.integers(1, 5), start=st.integers(0, 5), n=st.integers(0, 30),
       seed=st.integers(0, 2**16), embed=st.booleans())
def test_block_draw_matches_per_step_samples(data, dim, start, n, seed, embed):
    # The block draw, per-step sample() calls and the one-row-at-a-time
    # formulas consume the stream alike and give the same bytes, for every
    # kind; so does generate_perturbations, with and without an embedding.
    stop = start + n
    source = data.draw(_sources(dim, stop))
    streams = [np.random.default_rng(seed) for _ in range(3)]
    block = source.draw(start, stop, dim, streams[0])
    steps = [source.sample(t, dim, streams[1]) for t in range(start, stop)]
    reference = [_reference_row(source, t, dim, streams[2]) for t in range(start, stop)]
    assert block.shape == (n, dim)
    assert block.tobytes() == np.array(steps).tobytes() == np.array(reference).tobytes()
    assert all(row.shape == (dim,) for row in steps)

    d_x = dim + 1 if embed else dim
    embedding = np.random.default_rng(seed).normal(size=(d_x, dim)) if embed else None
    rng = np.random.default_rng(component_seed(seed, "perturbation"))
    expected = np.array([_reference_row(source, t, dim, rng) for t in range(stop)]).reshape(stop, dim)
    if embed:
        expected = expected @ embedding.T
    assert generate_perturbations(source, stop, d_x, seed, embedding).tobytes() == expected.tobytes()


def _reference_simulate(system, controller, source, cost, T, seed):
    """``simulate`` as a per-step loop that samples ``w_t`` inside each step."""
    rng = np.random.default_rng(seed)
    x = np.zeros(system.d_x)
    states, controls, noises, observations, costs = [x], [], [], [], []
    for t in range(T):
        A, B, C = system.matrices(t)
        y = x.copy() if C is None else C.dot(x)
        u = np.asarray(controller(t, x.copy(), y), dtype=float)
        w = source.sample(t, system.d_x, rng)
        costs.append(cost.value(x, u))
        x = A.dot(x) + B.dot(u) + w
        states.append(x)
        controls.append(u)
        noises.append(w)
        observations.append(y)
    return states, controls, noises, observations, costs


@pytest.mark.parametrize("kind", ["iid-gaussian", "recorded"])
def test_simulate_matches_a_per_step_loop(kind):
    rng = np.random.default_rng(3)
    A0, B, C = rng.normal(size=(3, 3)), rng.normal(size=(3, 2)), rng.normal(size=(2, 3))
    A0 *= 0.8 / spectral_radius(A0)
    system = LinearSystem.time_varying(
        lambda t: (A0 * (1.0 + 0.1 * np.sin(t)), B, C), d_x=3, d_u=2, d_y=2
    )
    gains = rng.normal(size=(7, 2, 2)) * 0.2
    cost = QuadraticCost(np.eye(3), 0.5 * np.eye(2), target=[0.1, 0.0, -0.2])
    T = 60
    source = PerturbationSource.gaussian(0.4, clip_to_unit_ball=True)
    if kind == "recorded":
        source = PerturbationSource.recorded(rng.normal(size=(T + 5, 3)))

    def controller(t, x, y):
        return gains[t % 7].dot(y)

    traj = simulate(system, controller, source, cost, T, seed=11)
    expected = _reference_simulate(system, controller, source, cost, T, seed=11)
    got = (traj.states, traj.controls, traj.perturbations, traj.observations, traj.costs)
    for array, rows in zip(got, expected):
        assert array.tobytes() == np.array(rows).tobytes()


def test_simulate_draws_before_the_first_step():
    # A recorded sequence too short for the horizon raises before the
    # controller is called, with the step at which it runs out.
    sys1 = LinearSystem.time_invariant([[0.5]], [[1.0]])
    calls = []

    def controller(t, x, y):
        calls.append(t)
        return np.zeros(1)

    short = PerturbationSource.recorded(np.ones((4, 1)))
    with pytest.raises(ConfigurationError, match="length 4 exhausted at t=4"):
        simulate(sys1, controller, short, QuadraticCost(np.eye(1), np.eye(1)), T=6)
    assert calls == []
    with pytest.raises(ConfigurationError, match="recorded w_0 must be a vector of dimension 1"):
        simulate(sys1, controller, PerturbationSource.recorded(np.ones((6, 2))),
                 QuadraticCost(np.eye(1), np.eye(1)), T=6)
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 4),
    d_u=st.integers(1, 3),
    T=st.integers(0, 40),
    kind=st.sampled_from(["quadratic", "target", "callable"]),
)
@example(seed=0, d_x=4, d_u=2, T=40, kind="target")
def test_simulate_costs_match_the_pointwise_value(seed, d_x, d_u, T, kind):
    # simulate prices the played pairs in one values() call after the loop;
    # each cost must be the pointwise value(x_t, u_t), to rounding (the
    # batched sums run in another order).
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d_x, d_x))
    A *= rng.uniform(0.1, 0.95) / max(spectral_radius(A), 1e-12)
    B, K = rng.normal(size=(d_x, d_u)), 0.1 * rng.normal(size=(d_u, d_x))
    LQ, LR = rng.normal(size=(d_x, d_x)), rng.normal(size=(d_u, d_u))
    target = rng.normal(size=d_x) if kind == "target" else None
    cost = QuadraticCost(LQ @ LQ.T, LR @ LR.T, target)
    if kind == "callable":
        cost = CallableCost(fn=lambda x, u: float(np.sum(x**4) + u @ u), gx=None, gu=None)

    def controller(t, x, y):
        return K @ x + np.sin(t + np.arange(d_u))

    traj = simulate(LinearSystem.time_invariant(A, B), controller, PerturbationSource.gaussian(0.5),
                    cost, T, seed=seed, x0=rng.normal(size=d_x))
    expected = np.array([cost.value(x, u) for x, u in zip(traj.states[:-1], traj.controls)])
    assert traj.costs.shape == (T,)
    assert np.abs(traj.costs - expected).max(initial=0.0) <= (
        1e-12 * np.abs(expected).max(initial=0.0))


def _diverging_run(cost, controller):
    """simulate ``x' = 1e100 x + u`` from x_0 = 1 under a zero control that
    ``controller(t, x)`` may replace; returns the states the controller saw
    and the EvaluationError raised."""
    seen = []

    def callback(t, x, y):
        seen.append(x)
        return controller(t, x)

    # numpy's overflow notices on the way are not what is tested.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(EvaluationError) as raised:
            simulate(LinearSystem.time_invariant([[1e100]], [[1.0]]), callback,
                     PerturbationSource.zero(), cost, T=10, x0=[1.0])
    return seen, str(raised.value)


def _gives_up_past_1e250(t, x):
    if abs(x[0]) > 1e250:
        raise EvaluationError("controller gave up")
    return np.zeros(1)


@pytest.mark.parametrize(
    "cost, controller, message, steps",
    [
        # x_2 = 1e200, so x^2 + u^2 is first non-finite at t=2; x_4 overflows.
        (QuadraticCost(np.eye(1), np.eye(1)), lambda t, x: np.zeros(1),
         "cost is non-finite at t=2", 4),
        # A controller that fails later does not hide the earlier cost.
        (QuadraticCost(np.eye(1), np.eye(1)), _gives_up_past_1e250,
         "cost is non-finite at t=2", 4),
        # A bounded cost stays finite: the state that left the floats is named.
        (CallableCost(fn=lambda x, u: float(np.tanh(x @ x)), gx=None, gu=None),
         lambda t, x: np.zeros(1), "state is non-finite at t=4", 4),
    ],
    ids=["quadratic", "controller-fails-later", "bounded-cost"],
)
def test_simulate_stops_a_diverging_plant_before_a_non_finite_state(cost, controller, message,
                                                                    steps):
    seen, raised = _diverging_run(cost, controller)
    assert raised == message
    assert len(seen) == steps and all(np.isfinite(x).all() for x in seen)


def test_simulate_nan_controller_aborts():
    sys1 = LinearSystem.time_invariant([[1.0]], [[1.0]])
    cost = QuadraticCost(np.eye(1), np.eye(1))

    def bad(t, x, y):
        return np.array([float("nan")])

    with pytest.raises(EvaluationError):
        simulate(sys1, bad, PerturbationSource.zero(), cost, T=3)


def test_perturbation_clipping_and_kinds():
    rng = np.random.default_rng(0)
    big = PerturbationSource.constant([3.0, 4.0], clip_to_unit_ball=True)
    w = big.sample(0, 2, rng)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12
    assert np.allclose(w, [0.6, 0.8])

    ball = PerturbationSource.uniform_ball()
    for t in range(50):
        assert np.linalg.norm(ball.sample(t, 3, rng)) <= 1.0 + 1e-12

    sine = PerturbationSource.sinusoidal(amplitude=2.0, omega=0.5, phase=[0.0, np.pi / 2])
    w0 = sine.sample(0, 2, rng)
    assert np.allclose(w0, [0.0, 2.0])


def test_quadratic_cost_validation():
    with pytest.raises(ConfigurationError):
        QuadraticCost([[1.0, 2.0], [0.0, 1.0]], np.eye(1))  # asymmetric
    with pytest.raises(ConfigurationError):
        QuadraticCost(-np.eye(2), np.eye(1))  # negative definite
    cost = QuadraticCost(2 * np.eye(2), np.eye(1), target=[1.0, 0.0])
    assert abs(cost.value([2.0, 0.0], [3.0]) - (2.0 + 9.0)) < 1e-14
    value, half_grad = cost.stage([2.0, 0.0], [3.0])
    assert abs(value - (2.0 + 9.0)) < 1e-14
    assert np.allclose(2.0 * half_grad, [4.0, 0.0, 6.0])


def _hand_stage(Q, R, x_star, Z, U):
    """Per-row ``(z - x*)' Q (z - x*) + u' R u`` and ``(Q (z - x*), R u)``."""
    values, half_grads = [], []
    for z, u in zip(Z, U):
        dz = z - x_star
        values.append(dz @ Q @ dz + u @ R @ u)
        half_grads.append(np.concatenate((Q @ dz, R @ u)))
    return np.array(values), np.array(half_grads)


def _fd_half_hessians(cost, Z, U, eps=1e-5):
    """Central differences of ``cost.stage``'s half gradients in ``(z, u)``,
    one matrix per row."""
    V, d_z = np.hstack((Z, U)), Z.shape[1]
    H = np.empty((len(V), V.shape[1], V.shape[1]))
    for j, bump in enumerate(eps * np.eye(V.shape[1])):
        up, down = (cost.stage(P[:, :d_z], P[:, d_z:])[1] for P in (V + bump, V - bump))
        H[:, :, j] = (up - down) / (2.0 * eps)
    return H


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_z=st.integers(1, 4),
    d_u=st.integers(1, 3),
    n=st.integers(1, 6),
    with_target=st.booleans(),
)
@example(seed=5, d_z=3, d_u=2, n=1, with_target=True)
def test_stage_cost_protocol_matches_hand_references(seed, d_z, d_u, n, with_target):
    # Both cost classes answer stage() and half_hessians() over n rows: the
    # values and half gradients match a per-row hand computation, a one-row
    # call is bitwise row k of the n-row call, and the half Hessians match
    # finite differences of the half gradients.  values() gives stage()'s
    # values bitwise without a gradient: a twin with no gradient functions
    # answers it.  Q and R are random PSD matrices of random rank.
    rng = np.random.default_rng(seed)
    LQ = rng.normal(size=(d_z, rng.integers(1, d_z + 1)))
    LR = rng.normal(size=(d_u, rng.integers(1, d_u + 1)))
    quadratic = QuadraticCost(LQ @ LQ.T, LR @ LR.T, rng.normal(size=d_z) if with_target else None)
    Q, R = quadratic.Q, quadratic.R
    x_star = np.zeros(d_z) if quadratic.target is None else quadratic.target
    twin = CallableCost(fn=lambda z, u: (z - x_star) @ Q @ (z - x_star) + u @ R @ u,
                        gx=lambda z, u: 2.0 * (Q @ (z - x_star)), gu=lambda z, u: 2.0 * (R @ u))
    Z, U = 3.0 * rng.normal(size=(n, d_z)), rng.normal(size=(n, d_u))
    d_v = d_z + d_u
    values_ref, half_ref = _hand_stage(Q, R, x_star, Z, U)
    value_scale = max(1.0, np.abs(values_ref).max())
    grad_scale = max(1.0, np.abs(half_ref).max())
    W = np.block([[Q, np.zeros((d_z, d_u))], [np.zeros((d_u, d_z)), R]])
    values_only = CallableCost(fn=twin.fn, gx=None, gu=None)
    for cost in (quadratic, twin):
        values, half_grads = cost.stage(Z, U)
        assert values.shape == (n,) and half_grads.shape == (n, d_v)
        assert np.array_equal(cost.values(Z, U), values)
        if cost is twin:
            assert np.array_equal(values_only.values(Z, U), values)
        assert np.allclose(values, values_ref, rtol=1e-12, atol=1e-12 * value_scale)
        assert np.allclose(half_grads, half_ref, rtol=1e-12, atol=1e-12 * grad_scale)
        H = np.broadcast_to(cost.half_hessians(Z, U), (n, d_v, d_v))
        assert np.allclose(H, _fd_half_hessians(cost, Z, U), rtol=1e-6, atol=1e-6 * grad_scale)
        assert np.allclose(H, W, rtol=1e-6, atol=1e-6 * grad_scale)
        for k in range(n):
            value_k, half_k = cost.stage(Z[k], U[k])
            assert value_k == values[k] and np.array_equal(half_k, half_grads[k])
            assert cost.values(Z[k], U[k]) == value_k
            assert np.array_equal(cost.half_hessians(Z[k], U[k]), H[k])
            assert cost.value(Z[k], U[k]) == pytest.approx(value_k, rel=1e-12,
                                                           abs=1e-12 * value_scale)
