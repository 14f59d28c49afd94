import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from conftest import make_dense_gaussian, make_logistic, make_ridge
from _oracles import (
    CountingTarget,
    ZeroTarget,
    chi2_moment,
    gaussian_energy_error_norm,
    hamiltonian,
    loop_chaos_moments,
    loop_dynamics_diffs,
    loop_energy_error_moment,
    loop_grad_norm_moment,
    loop_gradhp_moment,
    loop_php_moment,
)
from hmclab.leapfrog import PhaseState, forward_map
from hmclab.moments import (
    MomentAccumulator,
    _log_sum,
    chain_stationary_sampler,
    check_chaos_moments,
    check_dynamics_diffs,
    check_grad_norm_moment,
    check_gradhp_moment,
    check_php_moment,
    d_ell,
    energy_error_bound,
    energy_error_moment,
    exact_gaussian_sampler,
    upsilon_ell,
)
from hmclab.targets import GaussianTarget, RidgeSeparableTarget, TwoLayerNetTarget, cubic_potential


def test_upsilon_and_d_ell():
    t = GaussianTarget.standard(4)
    assert upsilon_ell(t, 1) == 4.0
    assert upsilon_ell(t, 2) == 6.0
    assert d_ell(4, 2) == 6


class TestAccumulator:
    def test_matches_direct_computation(self, rng):
        x = rng.standard_normal(5000)
        acc = MomentAccumulator(power=2, root=2)
        acc.add(x[:2000])
        acc.add(x[2000:])
        norm, se = acc.norm_and_se()
        m = np.mean(x**2)
        assert_allclose(norm, math.sqrt(m), rtol=1e-12)
        direct_se = np.std(x**2) / math.sqrt(x.size) * 0.5 * m ** (-0.5)
        assert_allclose(se, direct_se, rtol=1e-2)

    def test_signed_values(self):
        acc = MomentAccumulator(power=3, root=3)
        acc.add(np.array([-2.0, -2.0]))
        norm, _ = acc.norm_and_se()
        assert_allclose(norm, -2.0, rtol=1e-12)

    def test_log_space_survives_huge_values(self):
        acc = MomentAccumulator(power=14, root=14)
        acc.add(np.full(10, 1e30))  # 1e420 in linear space
        norm, _ = acc.norm_and_se()
        assert_allclose(norm, 1e30, rtol=1e-10)

    def test_zeros(self):
        acc = MomentAccumulator(power=2, root=2)
        acc.add(np.zeros(10))
        norm, se = acc.norm_and_se()
        assert norm == 0.0 and se == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_input(self, bad):
        acc = MomentAccumulator(power=2, root=2)
        acc.add(np.array([1.0, -3.0]))
        with pytest.raises(ValueError, match="non-finite"):
            acc.add(np.array([2.0, bad]))
        assert acc.n == 2
        assert_allclose(acc.norm_and_se()[0], math.sqrt(5.0), rtol=1e-12)


@pytest.fixture(scope="module")
def hp():
    return pytest.importorskip("hypothesis")


def _scaled_input(hp, one_signed: bool):
    """Strategy for (x, power, expected) with |x| anywhere in 1e-300..1e300.

    x = sign * u * 10**e with u in [0.5, 2], so the exact moment norm
    [mean x^power]^(1/power) is 10**e (mean u^power)^(1/power), negated for
    negative input at odd power.  Signs are mixed only at even powers unless
    `one_signed`, since odd powers of mixed signs cancel.
    """
    st = hp.strategies

    @st.composite
    def draw_input(draw):
        power = draw(st.integers(1, 16))
        e = draw(st.integers(-300, 300))
        u = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=30)))
        if one_signed or power % 2:
            signs = np.full(u.size, draw(st.sampled_from([-1.0, 1.0])))
        else:
            signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                           min_size=u.size, max_size=u.size)))
        expected = 10.0**e * np.mean(u**power) ** (1.0 / power)
        if power % 2:
            expected *= signs[0]
        return signs * u * 10.0**e, power, expected

    return draw_input()


class TestAccumulatorProperties:
    """Extreme magnitudes, where a single-sign input once turned the
    opposite-sign log sum into NaN."""

    def test_extreme_magnitudes_keep_value_and_sign(self, hp):
        @hp.settings(derandomize=True, deadline=None)
        @hp.given(_scaled_input(hp, one_signed=False))
        def check(case):
            x, power, expected = case
            acc = MomentAccumulator(power=power, root=power)
            acc.add(x)
            norm, se = acc.norm_and_se()
            assert math.copysign(1.0, norm) == math.copysign(1.0, expected)
            assert_allclose(norm, expected, rtol=1e-10)
            assert math.isfinite(se)

        check()

    def test_splitting_across_adds_changes_only_rounding(self, hp):
        st = hp.strategies

        @hp.settings(derandomize=True, deadline=None)
        @hp.given(_scaled_input(hp, one_signed=True), st.lists(st.integers(0, 30), max_size=5))
        def check(case, cuts):
            x, power, _ = case
            whole = MomentAccumulator(power=power, root=power)
            whole.add(x)
            split = MomentAccumulator(power=power, root=power)
            for chunk in np.split(x, sorted(c for c in cuts if c <= x.size)):
                split.add(chunk)
            assert split.n == whole.n
            assert_allclose(split.norm_and_se()[0], whole.norm_and_se()[0],
                            rtol=1e-12, equal_nan=False)

        check()

    def test_all_zero_input(self, hp):
        st = hp.strategies

        @hp.settings(derandomize=True, deadline=None)
        @hp.given(st.integers(1, 16), st.integers(1, 50))
        def check(power, n):
            acc = MomentAccumulator(power=power, root=power)
            acc.add(np.zeros(n))
            assert acc.norm_and_se() == (0.0, 0.0)

        check()


class TestLogSum:
    """moments._log_sum is SciPy's logsumexp algorithm in numpy alone."""

    def test_matches_scipy_logsumexp(self, hp):
        st = hp.strategies

        @st.composite
        def log_terms(draw):
            # |values| stop at 1e4: older SciPy releases round the largest ones differently
            x = np.array(draw(st.lists(st.one_of(st.floats(-1e4, 1e4), st.just(-math.inf)),
                                       min_size=1, max_size=300)))
            ties = draw(st.lists(st.integers(0, x.size - 1), max_size=x.size))
            x[ties] = x.max()
            return x

        @hp.settings(derandomize=True, deadline=None)
        @hp.given(log_terms())
        def check(x):
            expected = logsumexp(x)
            got = _log_sum(x)
            if expected == -math.inf:
                assert got == -math.inf
            else:
                assert abs(got - expected) <= 2 * np.spacing(abs(expected))

        check()

    @pytest.mark.parametrize("x", [np.array([]), np.full(5, -math.inf)])
    def test_empty_and_all_minus_inf_give_minus_inf_silently(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _log_sum(x) == -math.inf


def test_grad_norm_moment_gaussian_equality_case():
    t = GaussianTarget.standard(6)
    sampler = exact_gaussian_sampler(t, np.random.default_rng(1))
    rep = check_grad_norm_moment(t, 1, 100_000, sampler)
    assert abs(rep.empirical - 6.0) <= 4.0 * rep.std_error
    assert rep.bound == 6.0
    assert not rep.violated


def test_grad_norm_moment_gaussian_ell2():
    t = GaussianTarget.standard(2)
    sampler = exact_gaussian_sampler(t, np.random.default_rng(2))
    rep = check_grad_norm_moment(t, 2, 100_000, sampler)
    assert abs(rep.empirical - math.sqrt(8.0)) <= 4.0 * rep.std_error
    assert rep.bound == 4.0 and not rep.violated


def test_grad_norm_moment_zero_target():
    t = ZeroTarget(3)
    rep = check_grad_norm_moment(t, 2, 100, lambda n: np.zeros((n, 3)))
    assert rep.empirical == 0.0 and rep.bound == 0.0 and not rep.violated


def test_grad_norm_moment_rejects_nan_draws():
    # a NaN must raise, not become a report that reads as "bound holds"
    t = GaussianTarget.standard(2)
    with pytest.raises(ValueError, match="non-finite"):
        check_grad_norm_moment(t, 1, 10, lambda n: np.full((n, 2), np.nan))


def test_php_moment_identity_hessian():
    t = GaussianTarget.standard(2)
    gen = np.random.default_rng(3)
    rep1 = check_php_moment(t, np.zeros(2), 1, 100_000, gen)
    assert abs(rep1.empirical - 2.0) <= 4 * rep1.std_error  # tight case
    rep2 = check_php_moment(t, np.zeros(2), 2, 100_000, gen)
    assert abs(rep2.empirical - math.sqrt(8.0)) <= 4 * rep2.std_error
    assert rep2.bound == 4.0
    rep0 = check_php_moment(ZeroTarget(2), np.zeros(2), 2, 1000, gen)
    assert rep0.empirical == 0.0


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_php_chi_square_scaling(ell):
    d = 5
    t = GaussianTarget.standard(d)
    rep = check_php_moment(t, np.zeros(d), ell, 200_000, np.random.default_rng(40 + ell))
    closed = chi2_moment(d, ell) ** (1.0 / ell)
    assert abs(rep.empirical - closed) <= 3.0 * max(rep.std_error, 1e-12)


def test_gradhp_moment_gaussian():
    d = 6
    t = GaussianTarget.standard(d)
    gen = np.random.default_rng(4)
    sampler = exact_gaussian_sampler(t, gen)
    rep = check_gradhp_moment(t, 2, 200_000, sampler, gen)
    assert abs(rep.empirical - math.sqrt(d)) <= 4 * rep.std_error  # E (q' p)^2 = d
    assert_allclose(rep.bound, math.sqrt(2.0) * math.sqrt(d + 2.0), rtol=1e-12)
    assert not rep.violated


def test_gradhp_moment_scaled_gaussian():
    t = GaussianTarget(2.0 * np.eye(2))
    gen = np.random.default_rng(5)
    rep = check_gradhp_moment(t, 2, 200_000, exact_gaussian_sampler(t, gen), gen)
    # grad f = 2q with q ~ N(0, I/2); E (grad' 2 p)^2 = 4 * 2 * E||q||^2... checked vs bound
    assert rep.empirical <= rep.bound
    assert rep.bound == math.sqrt(2.0) * 2.0 * math.sqrt(4.0 + 2.0 * 2.0)


def test_gradhp_requires_even_ell():
    t = GaussianTarget.standard(2)
    gen = np.random.default_rng(6)
    with pytest.raises(ValueError):
        check_gradhp_moment(t, 3, 100, exact_gaussian_sampler(t, gen), gen)


def test_chaos_moments_gaussian_zero():
    t = GaussianTarget.standard(3)
    r1, r2 = check_chaos_moments(t, np.zeros(3), 2, 1000, np.random.default_rng(7))
    assert r1.empirical == 0.0 and r2.empirical == 0.0


def test_chaos_moments_rank_one_cubic():
    t = RidgeSeparableTarget(np.eye(2)[:1], cubic_potential())
    gen = np.random.default_rng(8)
    r1, r2 = check_chaos_moments(t, np.zeros(2), 2, 400_000, gen)
    # T[p,p,p] = p_1^3: [E p^6]^(1/2) = sqrt(15)
    assert abs(r1.empirical - math.sqrt(15.0)) <= 3 * r1.std_error
    assert_allclose(r1.bound, 2.0**1.5 + math.sqrt(2.0 * 2.0), rtol=1e-12)
    r2b = check_chaos_moments(t, np.zeros(2), 1, 400_000, gen)[1]
    # ||T[p,p,.]||^2 = p_1^4 with mean 3
    assert abs(r2b.empirical - 3.0) <= 3 * r2b.std_error


def test_dynamics_diffs_time_zero():
    t = GaussianTarget.standard(2)
    gen = np.random.default_rng(9)
    r1, r2, r3 = check_dynamics_diffs(
        t, 0.0, 2, 2000, exact_gaussian_sampler(t, gen), gen
    )
    assert r1.empirical == 0.0 and r2.empirical == 0.0 and r3.empirical == 0.0


def test_dynamics_diffs_harmonic_closed_form():
    t = GaussianTarget.standard(1)
    gen = np.random.default_rng(10)
    ts = 0.25
    a = math.cos(ts) - 1.0 + ts**2 / 2.0
    b = math.sin(ts) - ts
    _, _, r3 = check_dynamics_diffs(
        t, ts, 1, 100_000, exact_gaussian_sampler(t, gen), gen, tol=1e-12
    )
    closed = math.sqrt(a * a + b * b)  # [E (a q0 + b p0)^2]^(1/2)
    assert abs(r3.empirical - closed) <= 3 * max(r3.std_error, 1e-12)
    assert r3.empirical <= r3.bound


def test_dynamics_diffs_position_gap_slope():
    t = GaussianTarget.standard(4)
    gen = np.random.default_rng(11)
    sampler = exact_gaussian_sampler(t, gen)
    ts = np.geomspace(0.01, 0.3, 6)
    values = []
    for s in ts:
        _, _, r3 = check_dynamics_diffs(t, float(s), 1, 4000, sampler, gen, tol=1e-11)
        values.append(r3.empirical)
    slope = np.polyfit(np.log(ts), np.log(values), 1)[0]
    assert abs(slope - 3.0) <= 0.3


def test_dynamics_diffs_bounds_hold_on_hessian_lipschitz_target():
    target = make_ridge(5, 3, seed=90)
    gen = np.random.default_rng(12)
    sampler = chain_stationary_sampler(target, gen, eta=0.15, warmup=500, n_chains=64)
    r1, r2, r3 = check_dynamics_diffs(target, 0.1, 2, 20_000, sampler, gen, tol=1e-9)
    for rep in (r1, r2, r3):
        assert not rep.violated, rep.to_json()


def test_energy_error_zero_target():
    t = ZeroTarget(3)
    gen = np.random.default_rng(13)
    rep = energy_error_moment(t, 0.3, 2, 1000, lambda n: np.zeros((n, 3)), gen)
    assert rep.empirical == 0.0


class _OnesMomentum:
    """Duck-typed generator pinning p0 = 1 to isolate a single phase point."""

    @staticmethod
    def standard_normal(shape):
        return np.ones(shape)


def test_energy_error_single_point_contribution():
    # the (1, 1) start at eta = 0.5 contributes exactly -0.0278320... to the average
    t = GaussianTarget.standard(1)
    rep = energy_error_moment(t, 0.5, 2, 1, lambda n: np.ones((n, 1)), _OnesMomentum())
    assert_allclose(rep.empirical, 0.02783203125, atol=1e-14)
    traj = forward_map(t, PhaseState(np.array([1.0]), np.array([1.0])), 1, 0.5)
    dh = float(hamiltonian(t, traj.states[0]) - hamiltonian(t, traj.final))
    assert_allclose(dh, -0.02783203125, atol=1e-14)


def test_energy_error_requires_even_ell():
    t = GaussianTarget.standard(1)
    with pytest.raises(ValueError):
        energy_error_moment(t, 0.1, 3, 10, lambda n: np.zeros((n, 1)), np.random.default_rng(0))


class _NoDraws:
    def __call__(self, n):
        raise AssertionError("a draw came before the bound")

    standard_normal = __call__


_CHECKS = {
    "grad_norm": lambda t, s, ell, n: check_grad_norm_moment(t, ell, n, s),
    "php": lambda t, s, ell, n: check_php_moment(t, np.zeros(3), ell, n, s),
    "gradhp": lambda t, s, ell, n: check_gradhp_moment(t, ell, n, s, s),
    "chaos": lambda t, s, ell, n: check_chaos_moments(t, np.zeros(3), ell, n, s),
    "dynamics": lambda t, s, ell, n: check_dynamics_diffs(t, 0.1, ell, n, s, s),
    "energy": lambda t, s, ell, n: energy_error_moment(t, 0.1, ell, n, s, s),
}
_MISSING = {"grad_norm": "trace_bound", "php": "trace_bound", "gradhp": "trace_bound",
            "dynamics": "trace_bound", "energy": "gamma"}
_FAILURES = [  # (check, attribute set to None, ell, n_mc, error match)
    *((name, attr, 2, 100, "declares no") for name, attr in _MISSING.items()),
    *((name, None, 2, n_mc, "n_mc") for name in _CHECKS for n_mc in (0, -5)),
    *((name, None, ell, 100, "ell") for name in _CHECKS for ell in (0, -1)),
]


@pytest.mark.parametrize("name, missing, ell, n_mc, match", _FAILURES, ids=[
    name if missing else f"{name}-{'n_mc' if n_mc < 1 else 'ell'}={min(ell, n_mc)}"
    for name, missing, ell, n_mc, _ in _FAILURES])
def test_moment_checks_fail_before_sampling(name, missing, ell, n_mc, match):
    # a bound the target cannot state, or an empty or meaningless pass, raises
    # before any draw or evaluator call
    target = CountingTarget(GaussianTarget.standard(3))
    if missing:
        setattr(target, missing, None)
    with pytest.raises(ValueError, match=match):
        _CHECKS[name](target, _NoDraws(), ell, n_mc)
    assert target.gradient_evals == target.potential_evals == target.hvp_rows == 0


_BAD_STEPS = [("energy", eta, "step-size eta") for eta in (0.0, -0.1, math.nan, math.inf)]
_BAD_STEPS += [("dynamics", t, "time t") for t in (-0.1, math.nan, math.inf)]


@pytest.mark.parametrize("name, value, match", _BAD_STEPS)
def test_moment_checks_reject_a_bad_step_size_or_time_before_sampling(name, value, match):
    # eta = 0 once gave a bound of 0 reported as violated; t = nan ran 16 rounds of
    # RK4 refinement after the draws before failing
    target = CountingTarget(GaussianTarget.standard(3))
    gen = np.random.default_rng(0)
    before = gen.bit_generator.state
    sampler = exact_gaussian_sampler(target, gen)
    with pytest.raises(ValueError, match=match):
        if name == "energy":
            energy_error_moment(target, value, 2, 100, sampler, gen)
        else:
            check_dynamics_diffs(target, value, 2, 100, sampler, gen)
    assert gen.bit_generator.state == before
    assert target.gradient_evals == target.potential_evals == target.hvp_rows == 0
    if name == "energy":
        with pytest.raises(ValueError, match=match):
            energy_error_bound(target, value, 2)


def test_energy_error_moment_below_bound_gaussian():
    t = GaussianTarget.standard(16)
    gen = np.random.default_rng(15)
    rep = energy_error_moment(t, 0.1, 2, 50_000, exact_gaussian_sampler(t, gen), gen)
    assert rep.empirical <= rep.bound
    assert rep.bound == energy_error_bound(t, 0.1, 2)
    assert rep.slack_ratio > 1.0


@pytest.mark.parametrize("d, eta", [(64, 0.02), (64, 0.2), (16, 0.05), (1024, 0.05)])
def test_energy_error_moment_matches_gaussian_closed_form(d, eta):
    # on N(0, I_d) one leapfrog step has [E dH^2]^(1/2) in closed form; seed 0 at every point
    t = GaussianTarget.standard(d)
    gen = np.random.default_rng(0)
    rep = energy_error_moment(t, eta, 2, 20_000, exact_gaussian_sampler(t, gen), gen)
    assert abs(rep.empirical - gaussian_energy_error_norm(d, eta)) <= 4.0 * rep.std_error


def _loop_streams(target, seed: int):
    """(sampler, rng) sharing one stream, so a changed draw order changes every report."""
    gen = np.random.default_rng(seed)
    if isinstance(target, GaussianTarget):
        return exact_gaussian_sampler(target, gen), gen
    return (lambda n: 0.5 * gen.standard_normal((n, target.d))), gen


def _six_checks(target, seed: int, n_mc: int, checks) -> list:
    grad_norm, php, gradhp, chaos, dynamics, energy = checks
    sampler, gen = _loop_streams(target, seed)
    x = np.full(target.d, 0.3)
    return [grad_norm(target, 3, n_mc, sampler), php(target, x, 3, n_mc, gen),
            gradhp(target, 2, n_mc, sampler, gen), *chaos(target, x, 3, n_mc, gen, 1.3, 0.7),
            *dynamics(target, 0.05, 3, n_mc, sampler, gen), energy(target, 0.1, 2, n_mc, sampler, gen)]


def _two_layer():
    target = TwoLayerNetTarget.synthetic(2, 3, 2, np.random.default_rng(3))
    target.gamma = 1.0  # the family declares none; the energy and drift checks need one
    return target


_LOOP_TARGETS = {
    "gaussian": lambda: make_dense_gaussian(3, seed=30),
    "logistic": lambda: make_logistic(6, 3, seed=31),
    "ridge": lambda: make_ridge(5, 3, seed=32),
    "two-layer": _two_layer,
}


@pytest.mark.parametrize("n_mc", [1, 9_999, 10_000, 10_001, 25_000])
@pytest.mark.parametrize("family", _LOOP_TARGETS)
def test_one_pass_matches_six_chunk_loops_bit_for_bit(family, n_mc):
    # the sizes cross the 10,000-draw chunk edge, where a changed chunk rule
    # or number of adds would change the rounding
    target = _LOOP_TARGETS[family]()
    new = _six_checks(target, 7, n_mc, (
        check_grad_norm_moment, check_php_moment, check_gradhp_moment, check_chaos_moments,
        check_dynamics_diffs, energy_error_moment))
    old = _six_checks(target, 7, n_mc, (
        loop_grad_norm_moment, loop_php_moment, loop_gradhp_moment, loop_chaos_moments,
        loop_dynamics_diffs, loop_energy_error_moment))
    assert [astuple(r) for r in new] == [astuple(r) for r in old]
    assert all(r.n_samples == n_mc for r in new)


def test_trajectory_energy_error_telescopes(rng):
    target = make_logistic(6, 3, seed=91)
    q0, p0 = rng.standard_normal((2, 3))
    traj = forward_map(target, PhaseState(q0, p0), 6, 0.08)
    energies = [float(hamiltonian(target, s)) for s in traj.states]
    per_step = [energies[k] - energies[k + 1] for k in range(6)]
    total = energies[0] - energies[-1]
    assert abs(sum(per_step) - total) <= 1e-12 * max(1.0, abs(total))


def test_chain_stationary_sampler_deterministic_and_shaped():
    target = make_logistic(6, 3, seed=92)
    a = chain_stationary_sampler(target, np.random.default_rng(1), eta=0.2, warmup=100, n_chains=16)(50)
    b = chain_stationary_sampler(target, np.random.default_rng(1), eta=0.2, warmup=100, n_chains=16)(50)
    assert a.shape == (50, 3)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("counts, match", [({"warmup": -5}, "^warmup"),
                                           ({"n_chains": 0}, "^n_chains")])
def test_chain_stationary_sampler_rejects_bad_counts_before_drawing(counts, match):
    # warmup = -5 once ran no warm-up, and n_chains = 0 failed with a bare ZeroDivisionError
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match=match):
        chain_stationary_sampler(GaussianTarget.standard(2), gen, eta=0.1, **counts)(4)
    assert gen.bit_generator.state == state


def test_calibration_constants_stable_across_dimension_sweep():
    # the empirical/bound ratio per lemma stays within a factor 2 over d in {4, 16, 64}
    from _oracles import CubicFormTarget
    from hmclab.tensors import norm_12_3 as n12_3, norm_frobenius_123 as n123, symmetrize

    ratios = {"energy": [], "php_drift": [], "hp_drift": [], "gap": [], "ppp": [], "pp_norm": []}
    for d in (4, 16, 64):
        t = GaussianTarget.standard(d)
        gen = np.random.default_rng(1000 + d)
        sampler = exact_gaussian_sampler(t, gen)
        rep = energy_error_moment(t, 0.1, 2, 40_000, sampler, gen)
        ratios["energy"].append(rep.empirical / rep.bound)
        r1, r2, r3 = check_dynamics_diffs(t, 0.1, 2, 20_000, sampler, gen, tol=1e-9)
        ratios["php_drift"].append(r1.empirical / r1.bound)
        ratios["hp_drift"].append(r2.empirical / r2.bound)
        ratios["gap"].append(r3.empirical / r3.bound)
        a = symmetrize(np.random.default_rng(d).standard_normal((d, d, d)))
        ct = CubicFormTarget(a)
        c1, c2 = check_chaos_moments(
            ct, np.zeros(d), 2, 40_000, np.random.default_rng(50 + d),
            norm_123=n123(a), norm_12_3=n12_3(a),
        )
        ratios["ppp"].append(c1.empirical / c1.bound)
        ratios["pp_norm"].append(c2.empirical / c2.bound)
    for name, values in ratios.items():
        assert max(values) <= 1.0, f"{name}: empirical exceeded the constant-1 bound"
        assert max(values) / min(values) <= 2.0, f"{name}: calibration drifts {values}"


def test_report_violation_flag_logic():
    from hmclab.moments import MomentReport

    good = MomentReport("x", 2, empirical=1.0, std_error=0.01, bound=1.5, n_samples=10)
    assert not good.violated
    bad = MomentReport("x", 2, empirical=2.0, std_error=0.01, bound=1.5, n_samples=10)
    assert bad.violated
    borderline = MomentReport("x", 2, empirical=1.0, std_error=0.2, bound=0.9, n_samples=10)
    assert not borderline.violated  # within 3 relative standard errors
    payload = bad.to_json()
    for key in ("quantity", "empirical", "bound", "slack_ratio", "violated"):
        assert key in payload
