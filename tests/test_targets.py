import math
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_dense_gaussian, make_logistic, make_ridge
from _oracles import finite_diff_gradient, sigmoid_masked
from hmclab.config import TARGET_KEYS, build_target
from hmclab.errors import UnsupportedCapability
from hmclab.targets import (
    GaussianTarget,
    LogisticPosteriorTarget,
    RidgeSeparableTarget,
    TargetDensity,
    TwoLayerNetTarget,
    cubic_potential,
    quadratic_potential,
    _TANH,
    _TANH_CAP,
    _sigmoid,
    sine_potential,
)


def test_sample_exact_unit_diagonal_is_the_standard_normal_draw():
    # a unit diagonal skips the divide: the draws are the stream's standard normals
    draws = GaussianTarget.standard(5).sample_exact(7, np.random.default_rng(3))
    assert draws.tobytes() == np.random.default_rng(3).standard_normal((7, 5)).tobytes()
    scales = np.array([1.0, 4.0, 1.0])
    draws = GaussianTarget.diagonal(scales).sample_exact(7, np.random.default_rng(3))
    expected = np.random.default_rng(3).standard_normal((7, 3)) / np.sqrt(scales)
    assert draws.tobytes() == expected.tobytes()


def test_unit_diagonal_potential_skips_the_multiply_bit_for_bit():
    q = 1e3 * np.random.default_rng(4).standard_normal((9, 6))
    q[0, 0], q[1, 1] = np.inf, np.nan
    for ones in (np.ones(6), np.ones(6) + np.eye(6)[2]):  # unit, and a diagonal with a 2
        expected = 0.5 * (ones * q * q).sum(axis=-1)
        assert GaussianTarget.diagonal(ones).potential(q).tobytes() == expected.tobytes()


def test_unit_diagonal_gradient_is_a_copy_of_q_bit_for_bit():
    q = 1e3 * np.random.default_rng(4).standard_normal((9, 6))
    q[0, 0], q[1, 1], q[2, 2] = np.inf, np.nan, -0.0
    g = GaussianTarget.standard(6).gradient(q)
    assert g.tobytes() == (np.ones(6) * q).tobytes() == q.tobytes()
    assert not np.shares_memory(g, q)  # the kernel carries the gradient while q moves on


def test_gaussian_potential_values():
    t = GaussianTarget.standard(2)
    assert t.potential(np.zeros(2)) == 0.0
    assert t.potential(np.array([1.0, 1.0])) == 1.0


def test_gaussian_gradient_values():
    assert_allclose(GaussianTarget.standard(2).gradient(np.array([1.0, 0.0])), [1.0, 0.0])
    t = GaussianTarget.diagonal([2.0, 3.0])
    assert_allclose(t.gradient(np.array([1.0, 1.0])), [2.0, 3.0])


def test_logistic_single_point_values():
    t = LogisticPosteriorTarget(np.array([[1.0, 0.0]]), np.array([1.0]), 1.0)
    assert_allclose(t.potential(np.zeros(2)), math.log(2.0))
    t0 = LogisticPosteriorTarget(np.array([[1.0, 0.0]]), np.array([1.0]), 0.0)
    assert_allclose(t0.gradient(np.zeros(2)), [-0.5, 0.0])


def test_gaussian_hessian_vec_is_precision_product(rng):
    t = make_dense_gaussian(3, seed=5)
    q = rng.standard_normal(3)
    v = rng.standard_normal(3)
    assert_allclose(t.hessian_vec(q, v), t.precision @ v)


def test_ridge_rank_one_hessian():
    t = RidgeSeparableTarget(np.array([[1.0, 0.0]]), quadratic_potential())
    q = np.array([0.3, -0.7])
    assert_allclose(t.hessian_vec(q, np.array([1.0, 0.0])), [1.0, 0.0])
    assert_allclose(t.hessian_vec(q, np.array([0.0, 1.0])), [0.0, 0.0])


def test_third_contract_examples():
    g = GaussianTarget.standard(2)
    assert_allclose(g.third_contract(np.ones(2), np.ones(2), np.ones(2)), np.zeros(2))
    t = RidgeSeparableTarget(np.array([[1.0, 0.0]]), cubic_potential())
    e1, e2 = np.eye(2)
    assert_allclose(t.third_contract(np.zeros(2), e1, e1), e1)
    assert_allclose(t.third_contract(np.zeros(2), e1, e2), np.zeros(2))


def test_missing_capability_raises():
    class GradOnly(TargetDensity):
        d = 1
        smoothness = 1.0

        def potential(self, q):
            return (q**4).sum(axis=-1)

        def gradient(self, q):
            return 4.0 * q**3

    t = GradOnly()
    assert not t.has_third
    with pytest.raises(UnsupportedCapability):
        t.hessian_vec(np.zeros(1), np.zeros(1))
    with pytest.raises(UnsupportedCapability):
        t.third_contract(np.zeros(1), np.zeros(1), np.zeros(1))


def _all_targets():
    return [
        ("gaussian", make_dense_gaussian(4, seed=11)),
        ("ridge", make_ridge(5, 4, seed=12)),
        ("ridge-sine", make_ridge(6, 3, seed=13, potential=sine_potential())),
        ("logistic", make_logistic(8, 4, seed=14)),
        ("two-layer", TwoLayerNetTarget.synthetic(3, 4, 3, np.random.default_rng(15))),
    ]


@pytest.mark.parametrize("name,target", _all_targets())
def test_gradient_matches_finite_differences(name, target):
    gen = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(20):
        q = gen.standard_normal(target.d)
        g = target.gradient(q)
        fd = finite_diff_gradient(target.potential, q)
        assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("name,target", _all_targets())
def test_hessian_vec_matches_gradient_differences(name, target):
    gen = np.random.default_rng(zlib.crc32((name + "h").encode()))
    h = 1e-5
    for _ in range(20):
        q = gen.standard_normal(target.d)
        v = gen.standard_normal(target.d)
        v /= np.linalg.norm(v)
        hv = target.hessian_vec(q, v)
        fd = (target.gradient(q + h * v) - target.gradient(q - h * v)) / (2.0 * h)
        assert_allclose(hv, fd, rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("name,target", _all_targets())
def test_third_contract_matches_hessian_differences(name, target):
    gen = np.random.default_rng(zlib.crc32((name + "t").encode()))
    h = 1e-5
    for _ in range(20):
        q = gen.standard_normal(target.d)
        u = gen.standard_normal(target.d)
        u /= np.linalg.norm(u)
        v = gen.standard_normal(target.d)
        tc = target.third_contract(q, u, v)
        fd = (target.hessian_vec(q + h * u, v) - target.hessian_vec(q - h * u, v)) / (2.0 * h)
        assert_allclose(tc, fd, rtol=1e-3, atol=1e-5)


@pytest.mark.parametrize("name,target", _all_targets())
def test_third_contract_symmetric_in_uv(name, target):
    gen = np.random.default_rng(zlib.crc32((name + "s").encode()))
    q, u, v = gen.standard_normal((3, target.d))
    assert_allclose(target.third_contract(q, u, v), target.third_contract(q, v, u), atol=1e-12)


def _power_iteration_lmax(target, q, iters=200):
    gen = np.random.default_rng(0)
    v = gen.standard_normal(target.d)
    for _ in range(iters):
        w = target.hessian_vec(q, v)
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
    return float(abs(v @ target.hessian_vec(q, v)))


@pytest.mark.parametrize("name,target", _all_targets())
def test_declared_smoothness_bounds_hessian(name, target):
    gen = np.random.default_rng(zlib.crc32((name + "L").encode()))
    for _ in range(5):
        q = gen.standard_normal(target.d)
        assert _power_iteration_lmax(target, q) <= target.smoothness * (1.0 + 1e-6)


@pytest.mark.parametrize("name,target", _all_targets())
def test_declared_trace_bound_holds(name, target):
    gen = np.random.default_rng(zlib.crc32((name + "tr").encode()))
    basis = np.eye(target.d)
    for _ in range(5):
        q = gen.standard_normal(target.d)
        trace = sum(float(basis[i] @ target.hessian_vec(q, basis[i])) for i in range(target.d))
        assert trace <= target.trace_bound * (1.0 + 1e-6)


def test_batched_evaluators_match_loops(rng):
    for target in (make_dense_gaussian(3, 1), make_logistic(6, 3, 2), make_ridge(4, 3, 3)):
        q = rng.standard_normal((5, 7, target.d))
        v = rng.standard_normal((5, 7, target.d))
        pot = target.potential(q)
        grad = target.gradient(q)
        hv = target.hessian_vec(q, v)
        assert pot.shape == (5, 7) and grad.shape == q.shape
        for i in range(5):
            for j in range(7):
                assert_allclose(pot[i, j], target.potential(q[i, j]))
                assert_allclose(grad[i, j], target.gradient(q[i, j]), atol=1e-13)
                assert_allclose(hv[i, j], target.hessian_vec(q[i, j], v[i, j]), atol=1e-13)


def _hessian_target(family, d, n, seed, potential):
    if family == "dense-gaussian":
        return make_dense_gaussian(d, seed=seed)
    cfg = {"gaussian": {"precision": list(np.linspace(0.5, 2.0, d)) if d > 1 else None, "dim": d},
           "ridge": {"dim": d, "n": n, "directions_seed": seed, "potential": potential},
           "logistic": {"dim": d, "n": n, "alpha2": 0.5, "data_seed": seed},
           "two-layer": {"m": n % 3 + 1, "n": n, "dprime": d, "data_seed": seed}}[family]
    return build_target({"family": family, **cfg})


def test_dense_hessian_matches_hessian_vec_columns():
    # every family's hessian(q) is the symmetric matrix whose columns hessian_vec gives, at
    # any leading shape; the data families form it from a table of row outer products
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies

    @hp.settings(derandomize=True, deadline=None, max_examples=60)
    @hp.given(st.sampled_from(sorted(TARGET_KEYS) + ["dense-gaussian"]), st.integers(1, 7),
              st.integers(1, 12), st.integers(0, 2**16),
              st.sampled_from(["logcosh", "sine", "quadratic"]),
              st.sampled_from([(), (3,), (2, 3)]))
    def check(family, d, n, seed, potential, lead):
        target = _hessian_target(family, d, n, seed, potential)
        q = np.random.default_rng(seed).standard_normal(lead + (target.d,))
        h = target.hessian(q)
        cols = np.stack([target.hessian_vec(q, e) for e in np.eye(target.d)], axis=-1)
        scale = max(1.0, float(np.abs(cols).max()))
        assert h.shape == lead + (target.d, target.d)
        assert np.abs(h - cols).max() <= 1e-12 * scale
        assert np.abs(h - np.swapaxes(h, -1, -2)).max() <= 1e-12 * scale

    check()


def test_logistic_hessian_memory_is_bounded_by_table_chunks():
    # 4096 data rows at d = 64: a table of every row's outer product would take 128 MiB; it is
    # built in 1 MiB chunks, so 12 Hessians take at most 4 MiB beyond their 384 KiB output
    target = make_logistic(4096, 64, seed=16)
    q = np.random.default_rng(16).standard_normal((12, 64))
    tracemalloc.start()
    try:
        h = target.hessian(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - h.nbytes <= 4 * 2**20
    ref = np.stack([target.hessian_vec(q, e) for e in np.eye(64)], axis=-1)
    assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()


def test_logistic_is_convex(rng):
    t = make_logistic(10, 4, seed=21)
    for _ in range(20):
        q = 3.0 * rng.standard_normal(4)
        v = rng.standard_normal(4)
        assert float(v @ t.hessian_vec(q, v)) >= 0.0


def test_sigmoid_bit_identical_to_masked_branches(rng):
    edges = [0.0, -0.0, math.inf, -math.inf, 800.0, -800.0, 745.2, -745.2, 709.8, -709.8,
             36.8, -36.8, 1e-310, -1e-310, 5e-324, -5e-324, 1e300, -1e300]
    z = np.concatenate([edges, 40.0 * rng.standard_normal(4000)]).reshape(2, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours, oracle = _sigmoid(z), sigmoid_masked(z)
    assert ours.shape == z.shape
    assert np.array_equal(ours.view(np.uint64), oracle.view(np.uint64))
    assert np.isnan(_sigmoid(np.array([math.nan]))).all()


def test_logistic_csv_roundtrip(tmp_path):
    t = make_logistic(6, 3, seed=8)
    path = tmp_path / "data.csv"
    rows = np.hstack([t.x, t.y[:, None]])
    np.savetxt(path, rows, delimiter=",")
    loaded = LogisticPosteriorTarget.from_csv(str(path), alpha2=t.alpha2)
    q = np.array([0.2, -0.4, 1.0])
    assert_allclose(loaded.potential(q), t.potential(q))
    assert_allclose(loaded.gradient(q), t.gradient(q))


def test_constructor_validation():
    with pytest.raises(ValueError):
        GaussianTarget(np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussianTarget(np.diag([1.0, -1.0]))  # not PD
    with pytest.raises(ValueError):
        RidgeSeparableTarget(np.array([[2.0, 0.0]]), quadratic_potential())  # not unit
    with pytest.raises(ValueError):
        LogisticPosteriorTarget(np.array([[1.0, 0.0]]), np.array([2.0]), 1.0)  # bad label
    with pytest.raises(ValueError):
        TwoLayerNetTarget(np.array([1.5]), np.array([[1.0]]), np.array([0.0]))  # |w| > 1


def test_two_layer_net_derivative_tensor_bounds():
    # C m n c^2 and C m sqrt(m) n c^2 with the recorded constant C
    from hmclab.tensors import norm_frobenius_123, third_derivative_tensor

    C = 1.0  # worst measured ratios at these sizes are ~0.36
    for seed in range(8):
        gen = np.random.default_rng(700 + seed)
        m, n, dp = (int(gen.integers(2, 7)) for _ in range(3))
        target = TwoLayerNetTarget.synthetic(m, n, dp, gen)
        c = _TANH_CAP
        theta = gen.standard_normal(target.d)
        hess = np.stack([target.hessian_vec(theta, e) for e in np.eye(target.d)])
        assert np.linalg.norm(hess, 2) <= C * m * n * c**2
        t123 = norm_frobenius_123(third_derivative_tensor(target, theta))
        assert t123 <= C * m * math.sqrt(m) * n * c**2


def test_tanh_activation_caps():
    z = np.linspace(-20, 20, 20001)
    for fn in _TANH:
        assert np.abs(fn(z)).max() <= _TANH_CAP + 1e-12
    # derivative consistency by finite differences
    h = 1e-6
    for fn, dfn in zip(_TANH, _TANH[1:]):
        zs = np.linspace(-3, 3, 41)
        assert_allclose(dfn(zs), (fn(zs + h) - fn(zs - h)) / (2 * h), atol=1e-7)
