import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_dense_gaussian, make_logistic, make_ridge
from _oracles import (
    CountingTarget,
    finite_diff_jacobian,
    gaussian_forward_blocks,
    gaussian_proposal_kl,
    gaussian_proposal_moments,
    hvp_recursion_jacobians,
    whole_batch_forward_logdet,
    whole_batch_invert,
)
from hmclab import bench, overlap
from hmclab.errors import ConvergenceError, SingularJacobian
from hmclab.leapfrog import PhaseState, forward_map, momentum_jacobian
from hmclab.overlap import (
    inverse_map,
    kl_between_proposals,
    kl_lemma_bound,
    proposal_log_density,
)
from hmclab.targets import GaussianTarget
from hmclab.tensors import third_derivative_tensor


def test_inverse_map_trivial_1d():
    t = GaussianTarget.standard(1)
    p = inverse_map(t, np.zeros(1), np.array([0.05]), 1, 0.1)
    assert_allclose(p, [0.5], atol=1e-12)


def test_inverse_map_round_trip(rng):
    for target in (make_ridge(5, 4, seed=71), make_logistic(8, 4, seed=72)):
        K = 3
        eta = 0.25 / (K * math.sqrt(target.smoothness))
        for _ in range(5):
            q0, p = rng.standard_normal((2, 4))
            y = forward_map(target, PhaseState(q0, p), K, eta).final.q
            p_hat = inverse_map(target, q0, y, K, eta, tol=1e-11)
            assert np.linalg.norm(p_hat - p) <= 1e-9


def test_inverse_map_round_trip_beyond_dense_cap(rng):
    # the fixed point forms no d x d matrix, so d = 256 inverts like d = 4
    target = make_logistic(64, 256, seed=78)
    K = 3
    eta = 0.25 / (K * math.sqrt(target.smoothness))
    q0 = rng.standard_normal(256)
    p = rng.standard_normal((4, 256))
    y = forward_map(target, PhaseState(np.broadcast_to(q0, p.shape), p), K, eta).final.q
    p_hat = inverse_map(target, q0, y, K, eta, tol=1e-11)
    assert np.abs(p_hat - p).max() <= 1e-9


def test_inverse_map_takes_no_hessian_products(rng):
    target = CountingTarget(make_logistic(8, 4, seed=72))
    K = 3
    eta = 0.25 / (K * math.sqrt(target.smoothness))
    q0, p = rng.standard_normal((2, 4))
    y = forward_map(target, PhaseState(q0, p), K, eta).final.q
    inverse_map(target, q0, y, K, eta)
    assert target.gradient_evals > 0
    assert target.hvp_rows == 0


def test_kl_hessian_rows_per_draw():
    # one Jacobian recursion per start: 2 (K - 1) Hessians per draw, which the counting
    # wrapper forms by the default `hessian`, d Hessian-vector rows each
    target = CountingTarget(make_logistic(8, 4, seed=79))
    K, n_mc = 3, 50
    eta = 0.25 / (K * math.sqrt(target.smoothness))
    q0 = np.zeros(4)
    kl_between_proposals(target, q0, q0 + K * eta / 64.0, K, eta, n_mc, np.random.default_rng(3))
    assert target.hvp_rows == 2 * (K - 1) * target.d * n_mc


def test_log_det_reads_the_fixed_point_orbit():
    # the density evaluates the gradient rows of the inverse map alone; its log-det adds
    # (K - 1) d Hessian-vector rows per row of y and no gradient row
    target = CountingTarget(make_logistic(32, 16, seed=82))
    K, eta, n = 4, 0.01, 300
    gen = np.random.default_rng(82)
    q0 = 0.3 * gen.standard_normal(16)
    y = q0 + K * eta * gen.standard_normal((n, 16))
    inverse_map(target, q0, y, K, eta)
    inverse_rows = target.gradient_evals
    target.gradient_evals = 0
    proposal_log_density(target, q0, y, K, eta)
    assert target.gradient_evals == inverse_rows
    assert target.hvp_rows == (K - 1) * 16 * n


def test_kl_runs_one_orbit_per_momentum():
    # equal starts: one orbit per chunk, grad f(q0) once and K - 1 rows per draw.  Apart, each
    # fixed-point step is one more such orbit, and the log-dets add no gradient row
    target = CountingTarget(make_logistic(32, 16, seed=83))
    K, eta, n_mc = 4, 0.01, 1000
    gen = np.random.default_rng(83)
    q0 = 0.3 * gen.standard_normal(16)
    with mock.patch.object(overlap, "KL_CHUNK", 400):  # chunks of 400, 400 and 200 draws
        kl_between_proposals(target, q0, q0, K, eta, n_mc, gen)
    assert target.gradient_evals == n_mc * (K - 1) + 3
    target.gradient_evals = 0
    q1 = q0 + K * eta / 64.0 * np.eye(16)[0]
    kl_between_proposals(target, q0, q1, K, eta, n_mc, gen)
    per_orbit = n_mc * (K - 1) + 1
    assert target.gradient_evals % per_orbit == 0 and target.gradient_evals >= 2 * per_orbit


def _overlap_target(family: str, d: int, seed: int):
    if family == "diagonal":
        return GaussianTarget.diagonal(np.linspace(0.5, 2.0, d))
    if family == "dense":
        return make_dense_gaussian(d, seed=seed)
    if family == "logistic":
        return make_logistic(40, d, seed=seed)
    return make_ridge(30, d, seed=seed)


def _check_blocks_match_whole_batch(dims, max_examples):
    # n draws on both sides of the one-, two- and three-block edges of the orbit's row blocks
    # (max(256, 16384 // d) rows) or of the Jacobian recursion's sub-blocks (16384 // d^2 rows);
    # the push-forward, the fixed point and the analyses built on them against whole-batch runs
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies

    @hp.settings(derandomize=True, deadline=None, max_examples=max_examples)
    @hp.given(st.sampled_from(dims), st.sampled_from(["orbit", "sub"]), st.integers(1, 3),
              st.integers(-2, 2), st.sampled_from(["diagonal", "dense", "logistic", "ridge"]),
              st.integers(1, 4), st.integers(0, 2**16))
    def check(d, layer, edge, offset, family, K, seed):
        rows = max(256, 16384 // d) if layer == "orbit" else max(1, 16384 // d**2)
        n = max(1, edge * rows + offset)
        target = _overlap_target(family, d, seed)
        eta = 0.25 / (K * math.sqrt(target.smoothness))
        gen = np.random.default_rng(seed)
        q0 = 0.3 * gen.standard_normal(d)
        q1 = q0 + K * eta / 64.0 * gen.standard_normal(d) / math.sqrt(d)
        p = gen.standard_normal((n, d))
        y = q0 + K * eta * gen.standard_normal((n, d))

        positions = overlap._positions(target, q0, p, K, eta)
        y_ref, ld_ref = whole_batch_forward_logdet(target, q0, p, K, eta)
        assert np.array_equal(positions[-1], y_ref)
        assert np.array_equal(overlap._logdet(target, positions, eta), ld_ref)
        (p_ours, orbit_ours), (p_ref, orbit_ref) = (
            invert(target, q1, y_ref, K, eta) for invert in (overlap._invert, whole_batch_invert))
        assert np.array_equal(p_ours, p_ref)
        assert all(np.array_equal(a, b) for a, b in zip(orbit_ours, orbit_ref, strict=True))

        def analyses():
            kl = kl_between_proposals(target, q0, q1, K, eta, n, np.random.default_rng(seed))
            return kl, proposal_log_density(target, q0, y, K, eta), \
                proposal_log_density(target, q0, y[0], K, eta)

        ours = analyses()
        with mock.patch.object(overlap, "_invert", whole_batch_invert):
            ref = analyses()
        assert ours[0] == ref[0]
        assert np.array_equal(ours[1], ref[1]) and ours[1].shape == (n,)
        assert ours[2] == ref[2] and np.ndim(ours[2]) == 0

    check()


def test_jacobian_row_blocks_match_whole_batch():
    _check_blocks_match_whole_batch([1, 2, 5, 16], max_examples=30)


def test_jacobian_row_blocks_match_whole_batch_d64():
    # MAX_JACOBIAN_DIM: 256-row orbit blocks, 4-draw sub-blocks
    _check_blocks_match_whole_batch([64], max_examples=6)


@pytest.mark.parametrize("family", ["diagonal", "dense", "logistic", "ridge"])
@pytest.mark.parametrize("d", [1, 2, 5, 16, 64])
def test_dense_hessian_recursion_matches_hessian_products(family, d):
    # D_K from dense Hessians and K - 2 d x d products against the recursion on K - 1
    # Hessian-matrix products of hessian_vec columns, at the regime bound K eta sqrt(L) = 1/4
    target = _overlap_target(family, d, seed=d)
    gen = np.random.default_rng(d)
    q0 = 0.3 * gen.standard_normal(d)
    p = gen.standard_normal((6, d))
    for K in range(1, 5):
        eta = 0.25 / (K * math.sqrt(target.smoothness))
        ref = hvp_recursion_jacobians(target, q0, p, K, eta)
        ld_ref = np.linalg.slogdet(ref[-1])[1]
        ld = overlap._logdet(target, overlap._positions(target, q0, p, K, eta), eta)
        assert np.abs(ld - ld_ref).max() <= 1e-14 * np.abs(ld_ref).max()
        jacs = momentum_jacobian(target, q0, p, K, eta, return_all=True)
        for jac, jac_ref in zip(jacs, ref, strict=True):
            assert np.abs(jac - jac_ref).max() <= 1e-14 * np.abs(jac_ref).max()


def test_forward_logdet_memory_is_bounded_by_sub_blocks():
    # 1000 draws at d = 16 are one orbit block; the recursion's 64-draw sub-blocks peak near
    # 2 MiB, where 333-draw Jacobian blocks peaked at 5.75 MiB
    target = make_logistic(32, 16, seed=80)
    gen = np.random.default_rng(80)
    q0, p = 0.3 * gen.standard_normal(16), gen.standard_normal((1000, 16))
    tracemalloc.start()
    try:
        overlap._logdet(target, overlap._positions(target, q0, p, 4, 0.01), 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_kl_memory_is_bounded_by_row_blocks():
    # the Jacobians of 4096 draws at d = 64 would take 128 MiB an array; 4-draw sub-blocks 128 KiB
    t = GaussianTarget.standard(64)
    K, eta = 2, 0.1
    q0 = np.zeros(64)
    q1 = q0 + K * eta / 64.0 * np.eye(64)[0]
    tracemalloc.start()
    try:
        kl_between_proposals(t, q0, q1, K, eta, 4096, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_kl_singular_jacobian():
    # on a 1-d standard Gaussian D_2 = 2 eta (1 - eta^2 / 2), negative for eta = 1.9
    t = GaussianTarget.standard(1)
    with pytest.raises(SingularJacobian):
        kl_between_proposals(t, np.zeros(1), np.zeros(1), 2, 1.9, 10, np.random.default_rng(0))


@pytest.mark.parametrize("eta, K", [(math.nan, 2), (-0.1, 2), (0.0, 2), (math.inf, 2), (0.1, 0),
                                    (0.1, 2.5)])
@pytest.mark.parametrize("offset", [0.0, 0.001], ids=["equal-starts", "distinct-starts"])
def test_kl_rejects_a_bad_schedule_before_drawing(eta, K, offset):
    # with equal starts no inverse map checked the schedule: eta = nan returned (nan, nan) and
    # eta = -0.1 returned (0.0, 0.0); with distinct starts the check came after the first draw
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match="step-size eta|leapfrog step"):
        kl_between_proposals(GaussianTarget.standard(2), np.zeros(2), np.full(2, offset), K, eta,
                             100, gen)
    assert gen.bit_generator.state == state


_BAD_POINTS = {"short": np.zeros(1), "nan": np.array([np.nan, 0.0, 0.0, 0.0]),
               "inf": np.array([0.0, np.inf, 0.0, 0.0])}


@pytest.mark.parametrize("bad", sorted(_BAD_POINTS))
@pytest.mark.parametrize("arg", ["q0", "q0_tilde"])
def test_kl_rejects_a_malformed_start_before_drawing(arg, bad):
    # a (1,) start was broadcast to every coordinate and returned a KL; a NaN start failed
    # as an inverse map that left the trusted region
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    starts = {"q0": np.zeros(4), "q0_tilde": np.full(4, 0.001), arg: _BAD_POINTS[bad]}
    with pytest.raises(ValueError, match=f"^{arg} must"):
        kl_between_proposals(GaussianTarget.standard(4), starts["q0"], starts["q0_tilde"], 2, 0.1,
                             100, gen)
    assert gen.bit_generator.state == state


@pytest.mark.parametrize("bad", sorted(_BAD_POINTS))
@pytest.mark.parametrize("arg", ["q0", "y"])
def test_density_and_inverse_map_reject_a_malformed_point(arg, bad):
    points = {"q0": np.zeros(4), "y": np.full((3, 4), 0.01), arg: _BAD_POINTS[bad]}
    for call in (proposal_log_density, inverse_map):
        with pytest.raises(ValueError, match=f"^{arg} must"):
            call(GaussianTarget.standard(4), points["q0"], points["y"], 2, 0.1)


@pytest.mark.parametrize("bad", sorted(_BAD_POINTS))
@pytest.mark.parametrize("arg", ["q0", "p0"])
def test_momentum_jacobian_rejects_a_malformed_point(arg, bad):
    # a (1,) momentum was broadcast to every coordinate and gave a 4 x 4 Jacobian
    points = {"q0": np.zeros(4), "p0": np.ones(4), arg: _BAD_POINTS[bad]}
    with pytest.raises(ValueError, match=f"^{arg} must"):
        momentum_jacobian(GaussianTarget.standard(4), points["q0"], points["p0"], 2, 0.1)


@pytest.mark.parametrize("bad", sorted(_BAD_POINTS))
@pytest.mark.parametrize("arg", ["q0", "direction"])
def test_overlap_report_rejects_a_malformed_point_before_drawing(arg, bad):
    # a (1,) direction reported separation 0.01 for starts 0.02 apart; an inf component
    # raised a RuntimeWarning, then failed as an inverse map that left the trusted region
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    points = {"q0": np.zeros(4), "direction": np.ones(4), arg: _BAD_POINTS[bad]}
    with pytest.raises(ValueError, match=f"^{arg} must"):
        bench.overlap_report(GaussianTarget.standard(4), points["q0"], points["direction"], 0.01,
                             2, 0.1, 100, gen)
    assert gen.bit_generator.state == state


def test_dense_analyses_capped_at_d64():
    t = GaussianTarget.standard(65)
    q = np.zeros(65)
    with pytest.raises(ValueError):
        kl_between_proposals(t, q, q + 0.01, 2, 0.1, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        proposal_log_density(t, q, q, 2, 0.1)
    with pytest.raises(ValueError):
        momentum_jacobian(t, q, q, 2, 0.1)
    with pytest.raises(ValueError):
        third_derivative_tensor(t, q)


def test_inverse_map_matches_linear_solve(rng):
    t = GaussianTarget.standard(1)
    K, eta = 2, 0.1
    a_qq, a_qp, _, _ = gaussian_forward_blocks(np.array([[1.0]]), eta, K)
    for q0, y in ((0.0, 0.3), (1.2, -0.4), (-0.5, 0.0)):
        expected = (y - a_qq[0, 0] * q0) / a_qp[0, 0]
        got = inverse_map(t, np.array([q0]), np.array([y]), K, eta)
        assert_allclose(got, [expected], atol=1e-10)


def test_inverse_map_no_convergence():
    target = make_logistic(8, 3, seed=73)
    with pytest.raises(ConvergenceError):
        inverse_map(target, np.zeros(3), np.full(3, 2.0), 3, 0.05, tol=1e-14, max_iter=1)


def test_inverse_map_outside_contraction_regime():
    # K eta sqrt(L) = 200: the iterates grow geometrically until the guard stops them
    t = GaussianTarget(np.diag([1e4, 1.0]))
    with pytest.raises(ConvergenceError, match="trusted region"):
        inverse_map(t, np.zeros(2), np.array([[0.3, 0.1], [-0.2, 0.4]]), 2, 1.0)


def test_proposal_log_density_hand_value():
    t = GaussianTarget.standard(1)
    value = proposal_log_density(t, np.zeros(1), np.array([0.05]), 1, 0.1)
    expected = -0.9189385332046727 - 0.125 + math.log(10.0)
    assert_allclose(value, expected, atol=1e-9)
    assert_allclose(value, 1.2586466, atol=1e-7)


def test_proposal_density_integrates_to_one():
    t = GaussianTarget.standard(1)
    K, eta = 2, 0.15
    q0 = np.array([0.4])
    ys = np.linspace(q0[0] - 6 * K * eta, q0[0] + 6 * K * eta, 4001)[:, None]
    # inverse_map and the log-density evaluate batched over rows of y
    log_density = proposal_log_density(t, q0, ys, K, eta)
    mass = np.trapezoid(np.exp(log_density), ys[:, 0])
    assert abs(mass - 1.0) <= 1e-4


def test_proposal_density_matches_gaussian_closed_form(rng):
    precision = make_dense_gaussian(2, seed=74).precision
    t = GaussianTarget(precision)
    K, eta = 3, 0.1
    q0 = rng.standard_normal(2)
    mean, cov = gaussian_proposal_moments(precision, q0, eta, K)
    cov_inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    for _ in range(5):
        y = mean + 0.5 * rng.standard_normal(2)
        expected = -0.5 * (y - mean) @ cov_inv @ (y - mean) - 0.5 * logdet - math.log(2 * math.pi)
        got = proposal_log_density(t, q0, y, K, eta)
        assert abs(got - expected) <= 1e-8


def test_kl_zero_at_equal_starts(rng):
    target = make_ridge(4, 3, seed=75)
    est, se = kl_between_proposals(target, np.ones(3), np.ones(3), 2, 0.08, 500, rng)
    assert est == 0.0 and se == 0.0


def test_kl_resolves_nearby_starts_far_from_origin():
    # starts 1e-5 apart in relative terms are distinct starts, not equal ones
    t = GaussianTarget.standard(2)
    K, eta = 4, 0.01
    q0 = np.full(2, 100.0)
    q1 = q0 + K * eta / 64.0 * np.array([1.0, 0.0])
    est, se = kl_between_proposals(t, q0, q1, K, eta, 20_000, np.random.default_rng(13))
    closed = gaussian_proposal_kl(np.eye(2), q0, q1, eta, K)
    assert se > 0.0
    assert abs(est - closed) <= 3.0 * se


def test_kl_matches_gaussian_closed_form_1d():
    t = GaussianTarget.standard(1)
    gen = np.random.default_rng(42)
    est, se = kl_between_proposals(t, np.zeros(1), np.array([0.01]), 1, 0.1, 100_000, gen)
    closed = 0.5 * (0.995 * 0.01) ** 2 / 0.01
    assert abs(est - closed) <= 3.0 * se
    assert est >= -3.0 * se


def test_kl_symmetry_to_first_order():
    precision = np.diag([1.0, 2.0])
    t = GaussianTarget(precision)
    K, eta = 2, 0.1
    q0 = np.zeros(2)
    q1 = np.array([0.004, -0.003])
    closed = gaussian_proposal_kl(precision, q0, q1, eta, K)
    fwd, se_f = kl_between_proposals(t, q0, q1, K, eta, 50_000, np.random.default_rng(7))
    rev, se_r = kl_between_proposals(t, q1, q0, K, eta, 50_000, np.random.default_rng(7))
    assert abs(fwd - closed) <= 3 * se_f
    assert abs(rev - closed) <= 3 * se_r


def test_kl_lemma_bound_on_hessian_lipschitz_target():
    # separation K eta / 64 keeps the KL below 1/64 + K^6 eta^6 gamma^2 L^3 / 4
    target = make_ridge(5, 3, seed=76)
    K = 2
    eta = 0.25 / (K * math.sqrt(target.smoothness))
    sep = K * eta / 64.0
    gen = np.random.default_rng(11)
    direction = gen.standard_normal(3)
    direction /= np.linalg.norm(direction)
    q0 = np.zeros(3)
    est, se = kl_between_proposals(target, q0, q0 + sep * direction, K, eta, 50_000, gen)
    bound = kl_lemma_bound(K, eta, target.gamma, target.smoothness)
    assert est <= bound + 3.0 * se


def test_jacobian_inverse_identity(rng):
    # D2F at (q, G(q, y)) is the matrix inverse of the FD derivative of G in y
    target = make_ridge(4, 3, seed=77)
    K = 3
    eta = 0.25 / (K * math.sqrt(target.smoothness))
    q0, p = rng.standard_normal((2, 3))
    y = forward_map(target, PhaseState(q0, p), K, eta).final.q

    def g_of_y(yy):
        return inverse_map(target, q0, yy, K, eta, tol=1e-12)

    fd_d2g = finite_diff_jacobian(g_of_y, y, h=1e-5)
    jac_f = momentum_jacobian(target, q0, g_of_y(y), K, eta)
    assert np.abs(jac_f @ fd_d2g - np.eye(3)).max() <= 1e-5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_d2g_eigenvalue_range(seed):
    gen = np.random.default_rng(100 + seed)
    target = make_dense_gaussian(4, seed=80 + seed) if seed % 2 else make_ridge(5, 4, seed=81 + seed)
    K = int(gen.integers(1, 5))
    eta = 0.25 / (K * math.sqrt(target.smoothness))
    q0, p0 = gen.standard_normal((2, 4))
    jac = momentum_jacobian(target, q0, p0, K, eta)
    eigs = np.linalg.eigvals(np.linalg.inv(jac))
    lo, hi = 16.0 / (17.0 * K * eta), 16.0 / (15.0 * K * eta)
    assert (np.abs(eigs) >= lo * (1 - 1e-12)).all()
    assert (np.abs(eigs) <= hi * (1 + 1e-12)).all()


def test_pinsker_tv_between_proposal_samples():
    # empirical TV of the 1D proposals is below sqrt(KL/2) + histogram tolerance
    t = GaussianTarget.standard(1)
    K, eta = 1, 0.1
    q0, q1 = np.zeros(1), np.array([0.02])
    gen = np.random.default_rng(5)
    est, _ = kl_between_proposals(t, q0, q1, K, eta, 50_000, gen)
    mean0, cov = gaussian_proposal_moments(np.array([[1.0]]), q0, eta, K)
    mean1, _ = gaussian_proposal_moments(np.array([[1.0]]), q1, eta, K)
    scale = math.sqrt(cov[0, 0])
    n = 200_000
    draws0 = mean0[0] + scale * gen.standard_normal(n)
    draws1 = mean1[0] + scale * gen.standard_normal(n)
    # TV between the two sample sets via a common histogram
    edges = np.linspace(-6 * scale, 6 * scale, 201)
    h0 = np.histogram(np.clip(draws0, edges[0], edges[-1]), bins=edges)[0] / n
    h1 = np.histogram(np.clip(draws1, edges[0], edges[-1]), bins=edges)[0] / n
    tv_emp = 0.5 * np.abs(h0 - h1).sum()
    assert tv_emp <= math.sqrt(max(est, 0.0) / 2.0) + 0.05


def test_common_random_numbers_reduce_variance():
    t = GaussianTarget.standard(2)
    est, se = kl_between_proposals(
        t, np.zeros(2), np.array([0.01, 0.0]), 2, 0.1, 20_000, np.random.default_rng(9)
    )
    closed = gaussian_proposal_kl(np.eye(2), np.zeros(2), np.array([0.01, 0.0]), 0.1, 2)
    # the integrand difference is tiny, so even modest n gives tight errors
    assert se <= 5e-4
    assert abs(est - closed) <= 3 * se
