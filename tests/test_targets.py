import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_dense_gaussian, make_logistic, make_mixed_ridge, make_ridge
from _oracles import finite_diff_gradient, sigmoid_masked
from hmclab.errors import UnsupportedCapability
from hmclab.targets import (
    GaussianTarget,
    LogisticPosteriorTarget,
    RidgeSeparableTarget,
    TargetDensity,
    TwoLayerNetTarget,
    cubic_potential,
    eval_gradient,
    eval_hessian_vec,
    eval_potential,
    eval_third_contract,
    quadratic_potential,
    _sigmoid,
    tanh_activation,
)


def test_gaussian_potential_values():
    t = GaussianTarget.standard(2)
    assert eval_potential(t, np.zeros(2)) == 0.0
    assert eval_potential(t, np.array([1.0, 1.0])) == 1.0


def test_gaussian_gradient_values():
    assert_allclose(eval_gradient(GaussianTarget.standard(2), np.array([1.0, 0.0])), [1.0, 0.0])
    t = GaussianTarget.diagonal([2.0, 3.0])
    assert_allclose(eval_gradient(t, np.array([1.0, 1.0])), [2.0, 3.0])


def test_logistic_single_point_values():
    t = LogisticPosteriorTarget(np.array([[1.0, 0.0]]), np.array([1.0]), 1.0)
    assert_allclose(eval_potential(t, np.zeros(2)), math.log(2.0))
    t0 = LogisticPosteriorTarget(np.array([[1.0, 0.0]]), np.array([1.0]), 0.0)
    assert_allclose(eval_gradient(t0, np.zeros(2)), [-0.5, 0.0])


def test_gaussian_hessian_vec_is_precision_product(rng):
    t = make_dense_gaussian(3, seed=5)
    q = rng.standard_normal(3)
    v = rng.standard_normal(3)
    assert_allclose(eval_hessian_vec(t, q, v), t.precision @ v)


def test_ridge_rank_one_hessian():
    t = RidgeSeparableTarget(np.array([[1.0, 0.0]]), quadratic_potential())
    q = np.array([0.3, -0.7])
    assert_allclose(eval_hessian_vec(t, q, np.array([1.0, 0.0])), [1.0, 0.0])
    assert_allclose(eval_hessian_vec(t, q, np.array([0.0, 1.0])), [0.0, 0.0])


def test_third_contract_examples():
    g = GaussianTarget.standard(2)
    assert_allclose(eval_third_contract(g, np.ones(2), np.ones(2), np.ones(2)), np.zeros(2))
    t = RidgeSeparableTarget(np.array([[1.0, 0.0]]), cubic_potential())
    e1, e2 = np.eye(2)
    assert_allclose(eval_third_contract(t, np.zeros(2), e1, e1), e1)
    assert_allclose(eval_third_contract(t, np.zeros(2), e1, e2), np.zeros(2))


def test_eval_potential_rejects_bad_input():
    t = GaussianTarget.standard(2)
    with pytest.raises(ValueError):
        eval_potential(t, np.zeros(3))
    with pytest.raises(ValueError):
        eval_potential(t, np.full(2, 1e200))  # overflows to inf


def test_missing_capability_raises():
    class GradOnly(TargetDensity):
        d = 1
        smoothness = 1.0

        def potential(self, q):
            return (q**4).sum(axis=-1)

        def gradient(self, q):
            return 4.0 * q**3

    t = GradOnly()
    assert not t.has_hessian and not t.has_third
    with pytest.raises(UnsupportedCapability):
        eval_hessian_vec(t, np.zeros(1), np.zeros(1))
    with pytest.raises(UnsupportedCapability):
        eval_third_contract(t, np.zeros(1), np.zeros(1), np.zeros(1))


def _all_targets():
    return [
        ("gaussian", make_dense_gaussian(4, seed=11)),
        ("ridge", make_ridge(5, 4, seed=12)),
        ("ridge-mixed", make_mixed_ridge(6, 3, seed=13)),
        ("logistic", make_logistic(8, 4, seed=14)),
        ("two-layer", TwoLayerNetTarget.synthetic(3, 4, 3, np.random.default_rng(15))),
    ]


@pytest.mark.parametrize("name,target", _all_targets())
def test_gradient_matches_finite_differences(name, target):
    gen = np.random.default_rng(hash(name) % 2**32)
    for _ in range(20):
        q = gen.standard_normal(target.d)
        g = target.gradient(q)
        fd = finite_diff_gradient(target.potential, q)
        assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("name,target", _all_targets())
def test_hessian_vec_matches_gradient_differences(name, target):
    gen = np.random.default_rng(hash(name + "h") % 2**32)
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
    gen = np.random.default_rng(hash(name + "t") % 2**32)
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
    gen = np.random.default_rng(hash(name + "s") % 2**32)
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
    gen = np.random.default_rng(hash(name + "L") % 2**32)
    for _ in range(5):
        q = gen.standard_normal(target.d)
        assert _power_iteration_lmax(target, q) <= target.smoothness * (1.0 + 1e-6)


@pytest.mark.parametrize("name,target", _all_targets())
def test_declared_trace_bound_holds(name, target):
    gen = np.random.default_rng(hash(name + "tr") % 2**32)
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
        c = target.activation.cap
        theta = gen.standard_normal(target.d)
        hess = np.stack([target.hessian_vec(theta, e) for e in np.eye(target.d)])
        assert np.linalg.norm(hess, 2) <= C * m * n * c**2
        t123 = norm_frobenius_123(third_derivative_tensor(target, theta))
        assert t123 <= C * m * math.sqrt(m) * n * c**2


def test_tanh_activation_caps():
    act = tanh_activation()
    z = np.linspace(-20, 20, 20001)
    for fn in (act.value, act.d1, act.d2, act.d3):
        assert np.abs(fn(z)).max() <= act.cap + 1e-12
    # derivative consistency by finite differences
    h = 1e-6
    for fn, dfn in ((act.value, act.d1), (act.d1, act.d2), (act.d2, act.d3)):
        zs = np.linspace(-3, 3, 41)
        assert_allclose(dfn(zs), (fn(zs + h) - fn(zs - h)) / (2 * h), atol=1e-7)
