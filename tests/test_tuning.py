import math

import pytest
from numpy.testing import assert_allclose

from hmclab.tuning import (
    TheoryParams,
    TunedParams,
    best_hmc_params,
    check_theorem_constraints,
    d_ell,
    ell_for,
    mala_step_size,
)


def tp(L=1.0, gamma=0.0, d=16, M=math.e, epsilon=1.0 / math.e, **kw):
    return TheoryParams(L=L, gamma=gamma, d=d, M=M, epsilon=epsilon, **kw)


def test_ell_for_examples():
    # M / eps = e^2
    assert ell_for(math.e, 1.0 / math.e) == 4
    # M / eps = e^0.1
    assert ell_for(math.exp(0.05), math.exp(-0.05)) == 2
    assert ell_for(10.0, 0.01) == 14  # 2 * ceil(ln 1000)


def test_ell_for_floor_and_preconditions():
    assert ell_for(1.0, 0.9999) == 2
    with pytest.raises(ValueError):
        ell_for(0.5, 0.1)
    with pytest.raises(ValueError):
        ell_for(2.0, 1.5)


@pytest.mark.parametrize("kw, field", [
    ({"c_prime": -3.0}, "c_prime"), ({"c_prime": 0.0}, "c_prime"), ({"c_prime": math.nan}, "c_prime"),
    ({"M": math.inf}, "M"), ({"M": math.nan}, "M"),
])
def test_ell_for_rejects_a_bad_constant(kw, field):
    # c' = -3 and c' = 0 once gave ell = 2; the others failed converting NaN or inf to int
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ell_for(**{"M": 2.0, "epsilon": 0.5, **kw})


def test_d_ell():
    assert d_ell(16, 2) == 18
    assert d_ell(100, 2) == 102


def test_best_hmc_closed_form_example():
    # L=1, gamma=0, d=256, M/eps=e, c=c'=1: eta^2 = 1/sqrt(257), K = 2
    params = tp(d=256, M=math.sqrt(math.e), epsilon=1.0 / math.sqrt(math.e), c_prime=1.0)
    tuned = best_hmc_params(params)
    assert_allclose(tuned.eta**2, 1.0 / math.sqrt(257.0), rtol=1e-12)
    assert_allclose(tuned.eta, 0.249756, atol=1e-6)
    assert tuned.K == 2
    assert tuned.ell == 2
    assert tuned.d_ell == 258


def test_best_hmc_quarter_power_in_d():
    # with log(M/eps) = 1, scaling d + log by 16 halves eta exactly
    m, eps = math.sqrt(math.e), 1.0 / math.sqrt(math.e)
    small = best_hmc_params(tp(d=15, M=m, epsilon=eps))
    large = best_hmc_params(tp(d=255, M=m, epsilon=eps))
    assert_allclose(small.eta**2, 0.25, rtol=1e-12)
    assert_allclose(large.eta, small.eta / 2.0, rtol=1e-12)


def test_best_hmc_smoothness_scaling():
    a = best_hmc_params(tp(L=1.0, d=100))
    b = best_hmc_params(tp(L=4.0, d=100))
    assert_allclose(b.eta, a.eta / 2.0, rtol=1e-12)
    assert a.K == b.K  # eta sqrt(L) invariant fixes K


def test_mala_closed_form_example():
    # L=1, d + log(M/eps) = 128 with log(M/eps) = 1: eta^2 = 128^(-3/7) = 1/8... (2^(-3))
    params = tp(d=127, M=math.sqrt(math.e), epsilon=math.exp(0.5) / math.e)
    assert_allclose(params.log_ratio, 1.0, atol=1e-12)
    tuned = mala_step_size(params)
    assert_allclose(tuned.eta**2, 128.0 ** (-3.0 / 7.0), rtol=1e-12)
    assert_allclose(tuned.eta, 0.35355, atol=2e-5)
    assert tuned.K == 1


def test_mala_exponent_scalings():
    base = tp(d=127, M=math.sqrt(math.e), epsilon=math.exp(0.5) / math.e)
    scaled = tp(d=(127 + 1) * 2**7 - 1, M=base.M, epsilon=base.epsilon)
    a, b = mala_step_size(base), mala_step_size(scaled)
    assert_allclose(b.eta**2, a.eta**2 * 2.0 ** (-3.0), rtol=1e-12)
    c4 = mala_step_size(tp(d=127, M=base.M, epsilon=base.epsilon, c=4.0))
    assert_allclose(c4.eta, 2.0 * a.eta, rtol=1e-12)


def test_constraint_check_examples():
    ok, (m1, _) = check_theorem_constraints(0.2, 2, tp(gamma=1.0, d=4), ell=2)
    assert m1 >= 0.0  # 0.4 <= 0.5
    assert_allclose(m1, 0.5 - 0.4, atol=1e-12)

    ok, (m1, m2) = check_theorem_constraints(1e-6, 2, tp(gamma=1.0, d=4), ell=2)
    assert ok and m1 > 0 and m2 > 0

    ok, (_, m2) = check_theorem_constraints(1.0, 10, tp(d=100), ell=2)
    assert not ok and m2 < 0
    dl = 102.0
    lhs = 10.0 * (dl**0.5 + dl + dl**1.5)
    assert_allclose(m2, 1.0 / 2.0**1.5 - lhs, rtol=1e-12)


@pytest.mark.parametrize("eta, ell", [(math.nan, 2), (math.inf, 2), (0.1, math.nan), (0.1, math.inf)])
def test_constraint_check_rejects_a_non_finite_step_size_or_order(eta, ell):
    # eta = nan once returned (False, (nan, nan)) as if the schedule had been checked
    with pytest.raises(ValueError, match="must be finite"):
        check_theorem_constraints(eta, 2, tp(), ell)


def test_gamma_zero_first_constraint_vacuous():
    ok, (m1, _) = check_theorem_constraints(10.0, 100, tp(gamma=0.0, d=2), ell=2)
    assert m1 == math.inf


def test_best_hmc_satisfies_constraints_for_small_c():
    # sweep c over {1, 0.5, 0.1} and record the largest passing value per grid point
    grid = [(d, L, g) for d in (4, 64, 1024) for L in (0.5, 2.0) for g in (0.0, 0.5, 2.0)]
    for d, L, g in grid:
        largest = None
        for c in (1.0, 0.5, 0.1):
            params = tp(L=L, gamma=g, d=d, c=c)
            tuned = best_hmc_params(params)
            ok, _ = check_theorem_constraints(tuned.eta, tuned.K, params, tuned.ell)
            if ok and largest is None:
                largest = c
        assert largest is not None, f"no c passed at grid point {(d, L, g)}"


def test_eta_monotonicity():
    eta = lambda **kw: best_hmc_params(tp(**kw)).eta
    assert eta(d=16) > eta(d=64) > eta(d=1024)
    assert eta(L=0.5, d=64) > eta(L=1.0, d=64) > eta(L=8.0, d=64)
    assert eta(gamma=0.0, d=64) > eta(gamma=1.0, d=64) > eta(gamma=4.0, d=64)
    assert eta(M=2.0, d=64) > eta(M=50.0, d=64) > eta(M=5000.0, d=64)


def test_k_eta_product_dimension_free():
    # K eta only depends on L and gamma, up to integer rounding of K
    etas = {}
    for d in (16, 256, 4096):
        tuned = best_hmc_params(tp(d=d, c_prime=4.0))
        etas[d] = tuned.K * tuned.eta
    target_value = 4.0 / 2.0
    for d, val in etas.items():
        assert abs(val - target_value) <= best_hmc_params(tp(d=d, c_prime=4.0)).eta / 2.0


def test_predicted_complexity_and_json():
    tuned = best_hmc_params(tp(d=64, psi=0.5))
    assert tuned.predicted_gradient_complexity == tuned.K * tuned.predicted_mixing_steps
    payload = tuned.to_json()
    for key in ("eta", "K", "ell", "d_ell", "predicted_mixing_steps", "universal constant"):
        assert key in payload
    assert isinstance(tuned, TunedParams)


def test_theory_params_validation():
    with pytest.raises(ValueError):
        tp(L=-1.0)
    with pytest.raises(ValueError):
        tp(gamma=-0.1)
    with pytest.raises(ValueError):
        tp(d=0)
    with pytest.raises(ValueError):
        TheoryParams(L=1, gamma=0, d=4, M=2.0, epsilon=0.5, psi=-1.0)
