import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_logistic, make_ridge
from _oracles import injective_norm_sphere_grid, loop_norm_injective_lower, norm_12_3_bruteforce
from hmclab import leapfrog
from hmclab.targets import (
    GaussianTarget,
    RidgeSeparableTarget,
    cubic_potential,
)
from hmclab.tensors import (
    estimate_gamma,
    norm_12_3,
    norm_frobenius_123,
    norm_injective_lower,
    symmetrize,
    tensor_report,
    third_derivative_tensor,
)


def rank_one(c, a, b, z):
    return c * np.einsum("i,j,k->ijk", a, b, z)


def test_frobenius_examples():
    a = rank_one(3.0, *np.eye(2)[[0, 0, 0]])
    assert norm_frobenius_123(a) == 3.0
    b = np.zeros((2, 2, 2))
    b[0, 0, 0], b[1, 1, 1] = 3.0, 4.0
    assert norm_frobenius_123(b) == 5.0
    assert norm_frobenius_123(np.zeros((3, 3, 3))) == 0.0


def test_norm_12_3_diagonal_example():
    a = np.zeros((2, 2, 2))
    a[0, 0, 0], a[1, 1, 1] = 3.0, 4.0
    assert_allclose(norm_12_3(a), 4.0)


def test_norm_12_3_rank_one(rng):
    a = rng.standard_normal(4)
    a /= np.linalg.norm(a)
    for c in (2.5, -1.75):
        assert_allclose(norm_12_3(rank_one(c, a, a, a)), abs(c), rtol=1e-12)
        assert_allclose(norm_frobenius_123(rank_one(c, a, a, a)), abs(c), rtol=1e-12)


def test_norm_12_3_against_random_direction_search():
    a = symmetrize(np.random.default_rng(3).standard_normal((4, 4, 4)))
    brute = norm_12_3_bruteforce(a, 10_000, np.random.default_rng(1003))
    exact = norm_12_3(a)
    assert brute <= exact * (1.0 + 1e-12)
    assert_allclose(exact, brute, rtol=1e-3)


def test_injective_rank_one(rng):
    e = np.eye(2)
    a = rank_one(5.0, e[0], e[1], e[0])
    assert_allclose(norm_injective_lower(a, restarts=20, rng=rng), 5.0, atol=1e-8)
    assert norm_injective_lower(np.zeros((2, 2, 2))) == 0.0


def _tensor(d, symmetric, seed, spike=0.0):
    """A Gaussian tensor, plus a unit rank-one term times spike, scaled by 1/d when spiked."""
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((d, d, d))
    if spike:
        u = gen.standard_normal((3, d))
        a = spike * rank_one(1.0, *(u / np.linalg.norm(u, axis=1, keepdims=True))) + a / d
    return symmetrize(a) if symmetric else a


@pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
@pytest.mark.parametrize("restarts", [1, 3, 20])
@pytest.mark.parametrize("d", [1, 2, 5, 16, 64])
def test_injective_block_matches_per_restart_loop(d, restarts, symmetric):
    # at d = 64 a spike makes the restarts converge in tens of sweeps, where a Gaussian
    # tensor runs most of them to the cap and the loop oracle takes seconds
    a = _tensor(d, symmetric, seed=100 * d + restarts, spike=4.0 if d == 64 else 0.0)
    block_rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
    value = norm_injective_lower(a, restarts=restarts, rng=block_rng)
    assert_allclose(value, loop_norm_injective_lower(a, restarts, loop_rng), rtol=1e-12, atol=0)
    # the same children were spawned and the generator itself drew nothing
    assert block_rng.standard_normal() == loop_rng.standard_normal()
    assert block_rng.spawn(1)[0].random() == loop_rng.spawn(1)[0].random()


def test_injective_zero_tensor_is_zero():
    for d in (1, 4):
        assert norm_injective_lower(np.zeros((d, d, d)), restarts=3) == 0.0
    report = tensor_report(np.zeros((3, 3, 3)), restarts=3)
    assert report.norm_1_2_3_lower == 0.0 and report.max_sweeps == 1
    assert report.capped_restarts == 0


@pytest.mark.parametrize("d", [1, 3, 16, 40])
def test_injective_restarts_run_together_equal_each_run_alone(d):
    # restart i climbs from the i-th child of the caller's generator; a generator that
    # has already spawned i children gives that child as its first
    a = _tensor(d, symmetric=False, seed=d)
    together = norm_injective_lower(a, restarts=7, rng=np.random.default_rng(5))
    alone = [
        norm_injective_lower(a, restarts=1, rng=np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(5, n_children_spawned=i))))
        for i in range(7)
    ]
    assert together == max(alone)


def test_injective_row_blocks_match_one_block(monkeypatch):
    # blocks of at least 3 rows at d = 5 split 7 restarts into two blocks, of 3 and 4; here
    # the largest sweep count is in the first block and the best value in the second
    a = _tensor(5, symmetric=False, seed=66)
    whole = tensor_report(a, restarts=7, rng=np.random.default_rng(3))
    monkeypatch.setattr(leapfrog, "_MIN_BLOCK_ROWS", 2)
    monkeypatch.setattr(leapfrog, "_BLOCK_DOUBLES", 3 * 5 * 5)
    assert [r.stop for r in leapfrog._row_blocks(7, 5 * 5)] == [3, 7]
    block_rng, loop_rng = np.random.default_rng(3), np.random.default_rng(3)
    blocked = tensor_report(a, restarts=7, rng=block_rng)
    assert blocked == whole
    assert_allclose(blocked.norm_1_2_3_lower, loop_norm_injective_lower(a, 7, loop_rng),
                    rtol=1e-12, atol=0)
    assert block_rng.spawn(1)[0].random() == loop_rng.spawn(1)[0].random()


def test_injective_reruns_are_bit_identical():
    a = _tensor(16, symmetric=True, seed=16)
    runs = [tensor_report(a, restarts=20, rng=np.random.default_rng(11)) for _ in range(2)]
    assert runs[0] == runs[1]


def test_injective_reports_capped_restarts():
    # a general d = 16 tensor where some restarts reach the 200-sweep cap unconverged
    a = _tensor(16, symmetric=False, seed=1620)
    report = tensor_report(a, restarts=20, rng=np.random.default_rng(7))
    assert report.max_sweeps == 200 and 0 < report.capped_restarts < 20
    # a rank-one tensor converges at once in every restart
    e = np.eye(3)
    report = tensor_report(rank_one(2.0, e[0], e[1], e[2]), restarts=5, rng=np.random.default_rng(0))
    assert report.capped_restarts == 0 and report.max_sweeps <= 3


def test_injective_rejects_no_restarts():
    with pytest.raises(ValueError, match="restart"):
        norm_injective_lower(np.ones((2, 2, 2)), restarts=0)


def test_injective_against_sphere_grid(rng):
    a = rng.standard_normal((3, 3, 3))
    grid = injective_norm_sphere_grid(a, ang_step=0.01)
    ascent = norm_injective_lower(a, restarts=50, rng=rng)
    assert ascent <= grid * (1.0 + 1e-2)
    assert_allclose(ascent, grid, rtol=1e-2)


def test_partition_ordering_on_random_tensors(rng):
    for i in range(100):
        d = int(rng.integers(2, 6))
        a = rng.standard_normal((d, d, d))
        if i % 2 == 0:
            a = symmetrize(a)
        lower = norm_injective_lower(a, restarts=5, rng=rng)
        mid = norm_12_3(a)
        full = norm_frobenius_123(a)
        assert lower <= mid * (1.0 + 1e-10) <= full * (1.0 + 1e-10) ** 2


def test_scale_equivariance(rng):
    a = rng.standard_normal((3, 3, 3))
    c = -3.7
    assert_allclose(norm_frobenius_123(c * a), abs(c) * norm_frobenius_123(a), rtol=1e-12)
    assert_allclose(norm_12_3(c * a), abs(c) * norm_12_3(a), rtol=1e-12)
    seed_a = np.random.default_rng(99)
    seed_b = np.random.default_rng(99)
    assert_allclose(
        norm_injective_lower(c * a, restarts=10, rng=seed_a),
        abs(c) * norm_injective_lower(a, restarts=10, rng=seed_b),
        rtol=1e-8,
    )


def test_symmetrize_output_is_symmetric(rng):
    a = symmetrize(rng.standard_normal((4, 4, 4)))
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert_allclose(a, np.transpose(a, perm), atol=1e-14)


def test_third_derivative_tensor_matches_contractions(rng):
    target = make_ridge(4, 3, seed=31)
    q = rng.standard_normal(3)
    tensor = third_derivative_tensor(target, q)
    for _ in range(5):
        u, v = rng.standard_normal((2, 3))
        assert_allclose(
            np.einsum("ijk,i,j->k", tensor, u, v),
            target.third_contract(q, u, v),
            atol=1e-12,
        )


def test_third_derivative_tensor_dimension_cap():
    with pytest.raises(ValueError):
        third_derivative_tensor(GaussianTarget.standard(128), np.zeros(128))


def test_estimate_gamma_gaussian_is_zero():
    target = GaussianTarget.standard(3)
    assert estimate_gamma(target, np.zeros((2, 3))) == 0.0


def test_estimate_gamma_rank_one_cubic():
    target = RidgeSeparableTarget(np.array([[1.0, 0.0]]), cubic_potential())
    assert_allclose(estimate_gamma(target, np.zeros((1, 2))), 1.0, rtol=1e-12)


def test_estimate_gamma_logistic_below_analytic_cap(rng):
    target = make_logistic(4, 3, seed=32)
    points = rng.standard_normal((10, 3))
    value = estimate_gamma(target, points)
    cap = target.n / target.smoothness**1.5  # n rho3 with rho3 <= 1
    assert 0.0 < value <= cap


def test_ridge_separable_derivative_bounds(rng):
    for seed in range(6):
        gen = np.random.default_rng(200 + seed)
        n = int(gen.integers(1, 11))
        d = int(gen.integers(2, 7))
        target = make_ridge(n, d, seed=300 + seed)
        theta = gen.standard_normal(d)
        tensor = third_derivative_tensor(target, theta)
        assert norm_frobenius_123(tensor) <= n * target.rho3 * (1.0 + 1e-9)
        hess = np.stack([target.hessian_vec(theta, e) for e in np.eye(d)])
        assert np.linalg.norm(hess, 2) <= n * target.rho2 * (1.0 + 1e-9)


def test_tensor_report_fields(rng):
    a = symmetrize(rng.standard_normal((3, 3, 3)))
    report = tensor_report(a, restarts=10, rng=rng)
    assert report.partition_ordering_ok
    assert report.norm_1_2_3_lower <= report.norm_12_3 <= report.norm_123
    payload = report.to_json()
    for key in ("norm_123", "norm_12_3", "norm_1_2_3_lower", "partition_ordering_ok",
                "max_sweeps", "capped_restarts"):
        assert key in payload
