import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_dense_gaussian, make_logistic, make_ridge
from _oracles import (
    CountingTarget,
    ZeroTarget,
    finite_diff_jacobian,
    gaussian_forward_blocks,
    momentum_jacobian_sum_form,
)
from hmclab.errors import ConvergenceError, DivergedTrajectory
from hmclab.leapfrog import (
    DIVERGENCE_LIMIT,
    PhaseState,
    Trajectory,
    continuous_flow,
    continuous_reference,
    forward_map,
    leapfrog_final,
    leapfrog_step,
    momentum_jacobian,
)
from hmclab.targets import GaussianTarget


def harmonic():
    return GaussianTarget.standard(1)


def state(q, p):
    return PhaseState(np.atleast_1d(np.asarray(q, float)), np.atleast_1d(np.asarray(p, float)))


def test_single_step_examples():
    out = leapfrog_step(harmonic(), state(1.0, 0.0), 0.1)
    assert_allclose(out.q, [0.995])
    assert_allclose(out.p, [-0.099750])

    free = leapfrog_step(ZeroTarget(1), state(2.0, 3.0), 0.5)
    assert_allclose(free.q, [3.5])
    assert_allclose(free.p, [3.0])

    out = leapfrog_step(harmonic(), state(1.0, 1.0), 0.5)
    assert_allclose(out.q, [1.375])
    assert_allclose(out.p, [0.40625])


def test_forward_map_matches_linear_map_blocks():
    a_qq, a_qp, _, _ = gaussian_forward_blocks(np.array([[1.0]]), 0.1, 2)
    traj = forward_map(harmonic(), state(1.0, 0.0), 2, 0.1)
    assert_allclose(traj.final.q, a_qq @ [1.0], atol=1e-15)
    # the first block column doubles as a positional regression value
    assert_allclose(traj.final.q, [0.98005], atol=1e-12)


def test_forward_map_free_flight():
    q0, p0 = np.array([1.0, -2.0]), np.array([0.5, 2.0])
    traj = forward_map(ZeroTarget(2), PhaseState(q0, p0), 3, 0.7)
    assert_allclose(traj.final.q, q0 + 3 * 0.7 * p0, atol=1e-15)
    assert_allclose(traj.final.p, p0, atol=1e-15)


def test_forward_map_k1_equals_single_step(rng):
    target = make_ridge(4, 3, seed=41)
    s = PhaseState(rng.standard_normal(3), rng.standard_normal(3))
    one = leapfrog_step(target, s, 0.13)
    traj = forward_map(target, s, 1, 0.13)
    assert_allclose(traj.final.q, one.q, atol=1e-16)
    assert_allclose(traj.final.p, one.p, atol=1e-16)


def test_forward_map_gradient_count(rng):
    inner = make_logistic(6, 3, seed=42)
    for K in (1, 3, 8):
        counting = CountingTarget(inner)
        forward_map(counting, PhaseState(rng.standard_normal(3), rng.standard_normal(3)), K, 0.05)
        assert counting.gradient_evals == K + 1


def test_trajectory_satisfies_recursion(rng):
    target = make_ridge(5, 4, seed=43)
    eta = 0.08
    traj = forward_map(target, PhaseState(rng.standard_normal(4), rng.standard_normal(4)), 6, eta)
    for k in range(traj.n_steps):
        s0, s1 = traj.states[k], traj.states[k + 1]
        g0, g1 = target.gradient(s0.q), target.gradient(s1.q)
        q_pred = s0.q + eta * s0.p - 0.5 * eta**2 * g0
        p_pred = s0.p - 0.5 * eta * (g0 + g1)
        scale = max(np.abs(s1.q).max(), np.abs(s1.p).max(), 1.0)
        assert np.abs(s1.q - q_pred).max() <= 1e-12 * scale
        assert np.abs(s1.p - p_pred).max() <= 1e-12 * scale


def test_reversibility(rng):
    for target in (make_dense_gaussian(4, 44), make_logistic(8, 4, 45)):
        q0, p0 = rng.standard_normal((2, 4))
        fwd = forward_map(target, PhaseState(q0, p0), 12, 0.05)
        back = forward_map(target, PhaseState(fwd.final.q, -fwd.final.p), 12, 0.05)
        assert np.linalg.norm(back.final.q - q0) <= 1e-10
        assert np.linalg.norm(back.final.p + p0) <= 1e-10


def test_volume_preservation_fd_logdet(rng):
    target = make_logistic(6, 3, seed=46)
    q0, p0 = rng.standard_normal((2, 3))
    K, eta = 5, 0.08

    def endpoint(z):
        traj = forward_map(target, PhaseState(z[:3], z[3:]), K, eta)
        return np.concatenate([traj.final.q, traj.final.p])

    jac = finite_diff_jacobian(endpoint, np.concatenate([q0, p0]), h=1e-4)
    _, logdet = np.linalg.slogdet(jac)
    assert abs(logdet) <= 1e-6


def test_momentum_jacobian_1d_examples():
    t = harmonic()
    assert_allclose(momentum_jacobian(t, np.zeros(1), np.ones(1), 1, 0.1), [[0.1]])
    assert_allclose(momentum_jacobian(t, np.zeros(1), np.ones(1), 2, 0.1), [[0.199]])


def test_momentum_jacobian_matches_finite_differences(rng):
    target = make_ridge(6, 4, seed=47)
    q0, p0 = rng.standard_normal((2, 4))
    K, eta = 5, 0.05
    jac = momentum_jacobian(target, q0, p0, K, eta)

    def final_pos(p):
        return forward_map(target, PhaseState(q0, p), K, eta).final.q

    fd = finite_diff_jacobian(final_pos, p0, h=1e-5)
    assert np.abs(jac - fd).max() <= 1e-6


def test_momentum_jacobian_lemma_bound(rng):
    target = make_dense_gaussian(4, seed=48)
    L = target.smoothness
    K = 6
    eta = 0.25 / (K * math.sqrt(L))  # K eta sqrt(L) = 1/4
    q0, p0 = rng.standard_normal((2, 4))
    jacs = momentum_jacobian(target, q0, p0, K, eta, return_all=True)
    for j, jac in enumerate(jacs, start=1):
        gap = np.linalg.norm(jac - j * eta * np.eye(4), 2)
        assert gap <= j**3 * eta**3 * L * (1.0 + 1e-12)
    assert np.linalg.norm(jacs[-1] - K * eta * np.eye(4), 2) <= K * eta / 16.0


def test_momentum_jacobian_matches_sum_form_oracle():
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies

    @hp.settings(derandomize=True, deadline=None)
    @hp.given(st.sampled_from(["logistic", "ridge"]), st.integers(1, 8),
              st.floats(0.01, 0.3), st.integers(0, 2**16))
    def check(family, K, eta, seed):
        maker = make_logistic if family == "logistic" else make_ridge
        target = maker(6, 3, seed=seed)
        q0, p0 = np.random.default_rng(seed).standard_normal((2, 3))
        jacs = momentum_jacobian(target, q0, p0, K, eta, return_all=True)
        oracle = momentum_jacobian_sum_form(target, q0, p0, K, eta)
        assert len(jacs) == K
        for jac, ref in zip(jacs, oracle):
            assert_allclose(jac, ref, rtol=1e-12, atol=1e-14)

    check()


@pytest.mark.parametrize("K", [1, 2, 5])
def test_momentum_jacobian_evaluation_counts(K):
    # grad f(q_K) is never read: K gradient rows and K - 1 Hessians per entry, which the
    # counting wrapper forms by the default `hessian`, d Hessian-vector rows each
    target = CountingTarget(make_logistic(6, 3, seed=K))
    q0, p0 = np.random.default_rng(K).standard_normal((2, 4, 3))
    jacs = momentum_jacobian(target, q0, p0, K, 0.2, return_all=True)
    assert target.gradient_evals == 4 * K
    assert target.hvp_rows == 4 * (K - 1) * 3
    for b in range(4):
        for jac, ref in zip(jacs, momentum_jacobian_sum_form(target.inner, q0[b], p0[b], K, 0.2)):
            assert_allclose(jac[b], ref, rtol=1e-12, atol=1e-14)


def test_momentum_jacobian_batch_consistency(rng):
    target = make_ridge(4, 3, seed=49)
    p0 = rng.standard_normal((5, 3))
    q0 = rng.standard_normal(3)
    batched = momentum_jacobian(target, q0, p0, 3, 0.07)
    assert batched.shape == (5, 3, 3)
    for i in range(5):
        single = momentum_jacobian(target, q0, p0[i], 3, 0.07)
        assert_allclose(batched[i], single, atol=1e-14)


def test_momentum_jacobian_dimension_cap():
    with pytest.raises(ValueError):
        momentum_jacobian(GaussianTarget.standard(100), np.zeros(100), np.zeros(100), 2, 0.1)


def test_position_map_lipschitz_bound(rng):
    # ||F_j(q, p) - F_j(q~, p~)|| <= 2 ||q - q~|| + 2 j eta ||p - p~|| at K eta sqrt(L) <= 1/2
    target = make_dense_gaussian(3, seed=50)
    K = 5
    eta = 0.5 / (K * math.sqrt(target.smoothness))
    for _ in range(20):
        q, qt, p, pt = rng.standard_normal((4, 3))
        ta = forward_map(target, PhaseState(q, p), K, eta)
        tb = forward_map(target, PhaseState(qt, pt), K, eta)
        for j in range(1, K + 1):
            lhs = np.linalg.norm(ta.states[j].q - tb.states[j].q)
            rhs = 2.0 * np.linalg.norm(q - qt) + 2.0 * j * eta * np.linalg.norm(p - pt)
            assert lhs <= rhs * (1.0 + 1e-12)


def test_continuous_reference_harmonic():
    out = continuous_reference(harmonic(), state(1.0, 0.0), math.pi / 2.0, 1e-10)
    assert np.abs(out.q - 0.0).max() <= 1e-8
    assert np.abs(out.p - (-1.0)).max() <= 1e-8
    out = continuous_reference(harmonic(), state(0.0, 1.0), math.pi, 1e-10)
    assert np.abs(out.q - 0.0).max() <= 1e-8
    assert np.abs(out.p - (-1.0)).max() <= 1e-8


def test_continuous_reference_free_flight():
    s = PhaseState(np.array([1.0, 2.0]), np.array([-0.5, 0.25]))
    out = continuous_reference(ZeroTarget(2), s, 3.7, 1e-12)
    assert_allclose(out.q, s.q + 3.7 * s.p, atol=1e-12)
    assert_allclose(out.p, s.p, atol=1e-15)


def test_continuous_reference_energy_drift(rng):
    target = make_logistic(6, 3, seed=51)
    s = PhaseState(rng.standard_normal(3), rng.standard_normal(3))
    tol = 1e-10

    def energy(st):
        return float(target.potential(st.q) + 0.5 * (st.p**2).sum())

    out = continuous_reference(target, s, 1.5, tol)
    assert abs(energy(out) - energy(s)) <= 10.0 * tol


@pytest.mark.parametrize("t", [-0.5, math.nan, math.inf])
def test_continuous_flow_rejects_a_bad_time(t):
    # nan and inf once ran every refinement round before failing to converge
    with pytest.raises(ValueError, match="time t"):
        continuous_flow(harmonic(), np.ones(1), np.ones(1), t, 1e-9)


def test_step_size_and_time_stop_at_the_divergence_limit():
    # a finite eta or t above ~1.3e154 once failed with a bare OverflowError: 0.5 * eta**2 in the
    # orbit, eta**6, eta**7 and t**3 in the bounds
    above = np.nextafter(DIVERGENCE_LIMIT, math.inf)
    forward_map(harmonic(), state(0.0, 0.0), 1, DIVERGENCE_LIMIT)
    with pytest.raises(ValueError, match="step-size eta"):
        forward_map(harmonic(), state(0.0, 0.0), 1, above)
    with pytest.raises(ValueError, match="time t"):
        continuous_flow(harmonic(), np.ones(1), np.ones(1), above, 1e-9)


def test_continuous_flow_no_convergence():
    with pytest.raises(ConvergenceError):
        continuous_flow(harmonic(), np.ones(1), np.ones(1), 2.0, 1e-16, max_refinements=2)


def test_discretization_error_slope_harmonic():
    # single-step gap q_cont - q_leap scales like t^3 for p0 != 0
    ts = np.geomspace(0.01, 0.3, 8)
    gaps = []
    for t in ts:
        cont = continuous_reference(harmonic(), state(1.0, 1.0), float(t), 1e-13)
        leap = forward_map(harmonic(), state(1.0, 1.0), 1, float(t)).final
        gaps.append(abs(float(cont.q[0] - leap.q[0])))
        closed = abs(1.0 * (math.cos(t) - 1.0 + t * t / 2.0) + 1.0 * (math.sin(t) - t))
        assert abs(gaps[-1] - closed) <= 1e-10
    slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
    assert abs(slope - 3.0) <= 0.3


def test_divergence_guard():
    with pytest.raises(DivergedTrajectory):
        forward_map(GaussianTarget.standard(1), state(1.0, 0.0), 200, 3.0)
    _, _, ok = leapfrog_final(GaussianTarget.standard(1), np.ones((4, 1)), np.zeros((4, 1)), 200, 3.0)
    assert not ok.any()


def test_phase_state_validation():
    with pytest.raises(ValueError):
        PhaseState(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        PhaseState(np.array([np.nan]), np.zeros(1))


def test_precondition_errors():
    with pytest.raises(ValueError):
        leapfrog_step(harmonic(), state(0.0, 0.0), -0.1)
    with pytest.raises(ValueError):
        forward_map(harmonic(), state(0.0, 0.0), 0, 0.1)


@pytest.mark.parametrize("K, eta", [(0, 0.1), (-2, 0.1), (2.5, 0.1), (2, 0.0), (2, -0.1),
                                    (2, np.nan), (2, np.inf), (2, -np.inf)])
def test_schedule_checks(K, eta):
    target = GaussianTarget.standard(2)
    q = np.zeros((3, 2))
    for call in (
        lambda: leapfrog_final(target, q, q, K, eta),
        lambda: forward_map(target, PhaseState(q[0], q[0]), K, eta),
        lambda: momentum_jacobian(target, q[0], q[0], K, eta),
    ):
        with pytest.raises(ValueError):
            call()


def test_batched_forward_matches_scalar(rng):
    target = make_logistic(5, 3, seed=53)
    q = rng.standard_normal((6, 3))
    p = rng.standard_normal((6, 3))
    qk, pk, ok = leapfrog_final(target, q, p, 4, 0.08)
    assert ok.all()
    for i in range(6):
        traj = forward_map(target, PhaseState(q[i], p[i]), 4, 0.08)
        assert_allclose(qk[i], traj.final.q, atol=1e-14)
        assert_allclose(pk[i], traj.final.p, atol=1e-14)
