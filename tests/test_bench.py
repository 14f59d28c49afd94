import dataclasses
import json
import math
import os
import platform
import subprocess
import threading
from importlib import metadata

import numpy as np
import pytest
import scipy
from numpy.testing import assert_allclose
from scipy.special import ndtr
from scipy.stats import norm

from _oracles import CountingTarget, loop_lemma_reports
from conftest import make_dense_gaussian, make_logistic, make_ridge, run_python
from hmclab import bench, config
from hmclab.bench import (
    ExperimentConfig,
    WarmStartSpec,
    _mean_acceptance,
    corollary_schedule,
    fit_loglog_slope,
    gaussian_projected_std,
    run_experiment,
    write_csv,
)
from hmclab.cli import main as cli_main
from hmclab.config import EXPERIMENTS, OPTIONS
from hmclab.diagnostics import (
    _TV_EDGES,
    _ndtr,
    _tv_bin_probs,
    effective_sample_size,
    integrated_autocorr_time,
    tv_histogram,
    tv_projection_estimate,
)
from hmclab.errors import BudgetExhausted
from hmclab.targets import GaussianTarget
from hmclab.tuning import TheoryParams, best_hmc_params


def test_iact_iid_series(rng):
    tau = integrated_autocorr_time(rng.standard_normal(20000))
    assert abs(tau - 1.0) <= 0.2
    ess = effective_sample_size(rng.standard_normal(20000))
    assert 15000 <= ess <= 25000


def test_iact_of_a_constant_series_is_infinite():
    # a chain that never moved has no effective samples
    assert integrated_autocorr_time(np.full(50, 0.1)) == math.inf
    assert effective_sample_size(np.full(50, 0.1)) == 0.0


@pytest.mark.parametrize("x", [[], [1.5]])
def test_iact_needs_two_values(x):
    with pytest.raises(ValueError, match="at least 2 values"):
        integrated_autocorr_time(np.array(x))


def test_iact_floor_is_stans_ess_cap():
    # a non-constant 2-value series has rho(1) = -1/2 and a Geyer sum of 0; ESS <= n log10(n)
    assert integrated_autocorr_time(np.array([0.3, -1.2])) == 1.0 / math.log10(2)


def test_mala_vs_hmc_smallest_budget_gives_a_finite_ratio():
    # budget 9 at d = 16: HMC (K = 3) runs 2 transitions, MALA 4
    cfg = ExperimentConfig(name="mala-vs-hmc", dims=(16,), seeds=(0,),
                           options={"grad_budget": 9, "n_rep": 4})
    _, _, summary = run_experiment(cfg)
    for ratio in summary["median_cost_ratio_mala_over_hmc"].values():
        assert math.isfinite(ratio) and ratio < 1e3


def test_iact_ar1_series(rng):
    rho = 0.9
    n = 400_000
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0]
    for i in range(1, n):
        x[i] = rho * x[i - 1] + math.sqrt(1 - rho * rho) * eps[i]
    tau = integrated_autocorr_time(x)
    expected = (1 + rho) / (1 - rho)  # 19
    assert abs(tau - expected) / expected <= 0.15


def test_tv_histogram_calibrated(rng):
    z = rng.standard_normal(100_000)
    assert tv_histogram(z) <= 0.03  # binning noise only
    shifted = z + 3.0
    big = tv_histogram(shifted)
    exact = 1.0 - 2.0 * norm.cdf(-1.5)  # TV between N(0,1) and N(3,1)
    assert abs(big - exact) <= 0.05


def test_tv_bin_probs_are_computed_once():
    cdf = ndtr(_TV_EDGES)
    inline = np.diff(cdf)
    inline[0] += cdf[0]
    inline[-1] += 1.0 - cdf[-1]
    probs = _tv_bin_probs()
    assert probs is _tv_bin_probs()
    assert probs.tobytes() == inline.tobytes()
    assert not probs.flags.writeable
    assert abs(probs.sum() - 1.0) <= 1e-15


def test_tv_estimates_load_no_scipy():
    # the bin probabilities come from diagnostics._ndtr: importing scipy.special would cost
    # a fresh interpreter about 0.3 s and 24 MB of max RSS at its first TV estimate
    code = ("import sys, numpy, hmclab.diagnostics as d\n"
            "from hmclab.bench import ExperimentConfig, run_mixing_estimate\n"
            "d.tv_histogram(numpy.zeros(8))\n"
            "run_mixing_estimate(ExperimentConfig(name='mixing-estimate', dims=(4,), seeds=(0,),\n"
            "    options={'epsilon': 0.1, 'n_chains': 1024, 'warm_start': 'exact'}))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(code).strip() == "[]"


#: where _ndtr's branches meet: |x|/sqrt(2) = 1 (erf or erfc) and 8 (P/Q or R/S rationals)
_NDTR_BRANCH_POINTS = [s * k * math.sqrt(2.0) for s in (1.0, -1.0) for k in (1.0, 8.0)]


def _assert_ndtr_bits(x: float) -> None:
    assert np.float64(_ndtr(x)).tobytes() == np.float64(ndtr(x)).tobytes(), x


def test_ndtr_matches_scipy_bit_for_bit():
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies
    near_branches = [st.floats(b - 1e-6, b + 1e-6) for b in _NDTR_BRANCH_POINTS]

    # all finite doubles and +-inf; [-45, -36] holds the subnormal results and the underflow to 0
    @hp.settings(derandomize=True, deadline=None, max_examples=1000)
    @hp.given(st.one_of(st.floats(allow_nan=False), st.floats(-40.0, 40.0),
                        st.floats(-45.0, -36.0), *near_branches))
    def check(x):
        _assert_ndtr_bits(x)

    check()
    for b in _NDTR_BRANCH_POINTS:
        below = above = b
        for _ in range(8):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            _assert_ndtr_bits(below)
            _assert_ndtr_bits(above)
        _assert_ndtr_bits(b)
    for x in (math.inf, -math.inf, 0.0, -0.0, -38.0, -37.5, -40.0, 5e-324, -1e308):
        _assert_ndtr_bits(x)
    assert math.isnan(_ndtr(math.nan))


@pytest.mark.parametrize("samples, match", [([], "at least one sample"),
                                            ([0.5, math.nan, -0.5, 1.0], "NaN")])
def test_tv_histogram_rejects_empty_and_nan_samples(samples, match):
    # np.histogram would drop NaN samples silently, and an empty input would read nan
    with pytest.raises(ValueError, match=match):
        tv_histogram(np.array(samples))


def test_tv_histogram_folds_infinities_into_the_end_bins(rng):
    z = rng.standard_normal(1000)
    z[:3], z[3:5] = math.inf, -math.inf
    assert tv_histogram(z) == tv_histogram(np.clip(z, -8.0, 8.0))


def test_tv_projection_estimate_near_zero_at_stationarity(rng):
    t = GaussianTarget.standard(8)
    samples = t.sample_exact(16384, rng)
    est = tv_projection_estimate(samples, gaussian_projected_std(t), rng)
    assert est <= 0.05


def test_gaussian_projected_std(rng):
    t = GaussianTarget.diagonal([1.0, 4.0])
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert_allclose(gaussian_projected_std(t)(dirs), [1.0, 0.5])


def test_warm_start_warmness_closed_form():
    spec = WarmStartSpec("scaled-covariance", 0.5)
    assert_allclose(spec.warmness(16), 0.5 ** (-8.0))
    assert WarmStartSpec("exact").warmness(4) == 1.0
    assert WarmStartSpec("point-mass").warmness(4) == math.inf
    assert WarmStartSpec("scaled-covariance", 1.5).warmness(4) == math.inf


def test_warmness_matches_density_ratio_supremum():
    # numeric sup over a fine grid of the 1D density ratio N(0, s) / N(0, 1)
    for s in (0.3, 0.7, 1.0):
        xs = np.linspace(-10, 10, 200_001)
        ratio = norm.pdf(xs, scale=math.sqrt(s)) / norm.pdf(xs)
        assert_allclose(ratio.max(), WarmStartSpec("scaled-covariance", s).warmness(1), rtol=1e-6)


def test_warm_start_draws(rng):
    t = GaussianTarget.standard(3)
    exact = WarmStartSpec("exact").draw(t, 50_000, rng)
    assert abs(exact.var() - 1.0) <= 0.02
    scaled = WarmStartSpec("scaled-covariance", 0.25).draw(t, 50_000, rng)
    assert abs(scaled.var() - 0.25) <= 0.01
    point = WarmStartSpec("point-mass").draw(t, 10, rng)
    assert not point.any()


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(name="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(name="mala-vs-hmc", dims=())
    with pytest.raises(ValueError):
        ExperimentConfig(name="mala-vs-hmc", dims=(64, 16))
    with pytest.raises(ValueError):
        ExperimentConfig(name="mala-vs-hmc", schedule="magic")
    a = ExperimentConfig(name="mala-vs-hmc", dims=(16,))
    b = ExperimentConfig(name="mala-vs-hmc", dims=(16,))
    assert a.config_hash() == b.config_hash()
    c = ExperimentConfig(name="mala-vs-hmc", dims=(32,))
    assert a.config_hash() != c.config_hash()


def test_mala_vs_hmc_rejects_several_dims():
    # dims = 16, 64 once ran d = 64 alone, and nothing in its output showed that 16 was dropped
    with pytest.raises(ValueError, match="dims = 16, 64"):
        ExperimentConfig(name="mala-vs-hmc", dims=(16, 64))


# each sampling experiment at sizes that keep it to a fraction of a second
_SAMPLING_CONFIGS = {
    "acceptance-scaling": ExperimentConfig(
        name="acceptance-scaling", dims=(4, 8), options={"accept_constant": 1.0, "n_chains": 8,
                                                         "n_steps": 2}),
    "energy-scaling": ExperimentConfig(
        name="energy-scaling", dims=(4, 8), options={"n_mc": 200, "etas": [0.05, 0.1]}),
    "mixing-estimate": ExperimentConfig(
        name="mixing-estimate", dims=(4, 8), options={"epsilon": 0.5, "n_chains": 256}),
    "mala-vs-hmc": ExperimentConfig(
        name="mala-vs-hmc", dims=(4,), options={"grad_budget": 200, "n_rep": 2}),
}


@pytest.mark.parametrize("name", ["acceptance-scaling", "energy-scaling", "mala-vs-hmc"])
def test_sampling_experiments_run_on_a_ridge_target(name):
    # they once ran the standard Gaussian alone and rejected every other target
    ridge = {"family": "ridge", "n": 3}
    cfg = dataclasses.replace(_SAMPLING_CONFIGS[name], dims=(4,), target=ridge)
    _, rows, _ = run_experiment(cfg)
    d_column = [r[1] if name == "energy-scaling" else r[0] for r in rows]
    # d comes from dims, and the eta-sweep runs at d = 64
    assert d_column == {"acceptance-scaling": [4], "energy-scaling": [64, 64, 4],
                        "mala-vs-hmc": [4] * 4}[name]
    assert all(math.isfinite(v) for r in rows for v in r if isinstance(v, float))
    gaussian = dataclasses.replace(cfg, target={"family": "gaussian"})
    assert run_experiment(gaussian)[1] != rows


def test_mixing_estimate_rejects_a_non_gaussian_target_by_family(monkeypatch, tmp_path):
    # its TV reference is the Gaussian's exact projected std
    monkeypatch.setattr(bench, "_map_units", lambda fn, units: pytest.fail("a unit ran"))
    path = tmp_path / "mixing.cfg"
    path.write_text("dims = 4\ntarget.family = logistic\nn_chains = 64\n")
    out = tmp_path / "mixing.csv"
    with pytest.raises(ValueError, match="target family 'logistic'"):
        cli_main(["mixing-estimate", "--config", str(path), "--out", str(out)])
    assert not out.exists()
    # every Gaussian is accepted, a diagonal one included
    ExperimentConfig(name="mixing-estimate", target={"family": "gaussian", "precision": [1.0, 2.0]})


# each way a target sets its own d, and the key that the rejection names
_OWN_D = {"dim": ({"family": "gaussian", "dim": 4}, "target.dim"),
          "data": ({"family": "logistic", "data": "rows.csv"}, "target.data"),
          "precision-list": ({"family": "gaussian", "precision": [1.0, 2.0]}, "target.precision"),
          "precision-file": ({"family": "gaussian", "precision": "p.csv"}, "target.precision"),
          "two-layer": ({"family": "two-layer"}, "target.family")}


@pytest.mark.parametrize("name, target, key", [
    pytest.param(name, *_OWN_D[case], id=f"{name}-{case}")
    for name in ("acceptance-scaling", "energy-scaling", "mixing-estimate") for case in _OWN_D
    if name != "mixing-estimate" or _OWN_D[case][0]["family"] == "gaussian"])
def test_several_dims_with_a_target_that_sets_its_own_d_are_rejected(name, target, key):
    # the target would run once per entry of dims, the same target each time
    with pytest.raises(ValueError, match=f"dims = 4, 8: {key} sets its d"):
        ExperimentConfig(name=name, dims=(4, 8), target=target)
    assert ExperimentConfig(name=name, dims=(4,), target=target).target == target
    # a scalar precision scales the identity of size dim, so d still comes from dims
    ExperimentConfig(name=name, dims=(4, 8), target={"family": "gaussian", "precision": 2.0})


@pytest.mark.parametrize("target", [{"family": "gaussian"},
                                    {"family": "gaussian", "precision": 1.0}],
                         ids=["family", "precision"])
@pytest.mark.parametrize("name", sorted(_SAMPLING_CONFIGS))
def test_an_explicit_standard_gaussian_gives_the_default_bytes(name, target):
    # every experiment builds its target on one path, the default config's included
    default = _SAMPLING_CONFIGS[name]
    assert run_experiment(dataclasses.replace(default, target=target)) == run_experiment(default)


def test_energy_scaling_rejects_a_target_without_gamma_before_any_unit(monkeypatch, tmp_path):
    # the two-layer net declares no gamma; its first unit once failed in a worker
    monkeypatch.setattr(bench, "_map_units", lambda fn, units: pytest.fail("a unit ran"))
    cfg = ExperimentConfig(name="energy-scaling", dims=(4,), target={"family": "two-layer"},
                           options={"n_mc": 100})
    with pytest.raises(ValueError, match="needs gamma; two-layer declares none"):
        run_experiment(cfg, out=str(tmp_path / "energy.csv"))
    assert not (tmp_path / "energy.csv").exists()


@pytest.mark.parametrize("options", [{}, {"accept_constant": 1.0}], ids=["calibrated", "given"])
def test_acceptance_scaling_rejects_mala_schedule(options):
    # acceptance-scaling has no MALA schedule, whether or not the constant a is given
    with pytest.raises(ValueError, match="not corollary-mala"):
        ExperimentConfig(name="acceptance-scaling", dims=(4,), schedule="corollary-mala",
                         options=options)


# Each (experiment, count option) pair and the option's least value
_LEAST = {
    ("acceptance-scaling", "n_chains"): 2,  # its CI is a between-chain spread
    ("acceptance-scaling", "n_steps"): 1, ("acceptance-scaling", "K"): 1,
    ("energy-scaling", "ell"): 1, ("energy-scaling", "n_mc"): 1,
    ("mixing-estimate", "n_chains"): 1, ("mixing-estimate", "K"): 1,
    ("mixing-estimate", "step_cap"): 32,  # the first checkpoint
    ("overlap-check", "K"): 1, ("overlap-check", "n_mc"): 2,  # the KL needs a variance
    ("lemma-suite", "ells"): 1, ("lemma-suite", "n_mc"): 1, ("lemma-suite", "sampler_warmup"): 0,
    ("tensor-report", "n_points"): 1, ("tensor-report", "restarts"): 1,
    ("mala-vs-hmc", "grad_budget"): 1, ("mala-vs-hmc", "n_rep"): 1,
}
_ONE_DIMENSION = ("overlap-check", "lemma-suite", "tensor-report", "mala-vs-hmc")


def test_every_count_option_declares_its_least_value():
    declared = {(name, key) for name, (*_, least) in config._READS.items() for key in least}
    assert declared == set(_LEAST)
    assert sum(len(defaults) for defaults in OPTIONS.values()) == 29


@pytest.mark.parametrize("bad", ["below", "fraction", "bool"])
@pytest.mark.parametrize("name, key", sorted(_LEAST))
def test_a_count_below_its_least_value_or_not_an_integer_is_rejected(name, key, bad):
    least = _LEAST[(name, key)]
    value = {"below": least - 1, "fraction": least + 0.5, "bool": True}[bad]
    with pytest.raises(ValueError, match=f"{key} >= {least}"):
        ExperimentConfig(name=name, options={key: value})


@pytest.mark.parametrize("name, key", sorted(_LEAST))
def test_a_count_at_its_least_value_is_accepted(name, key):
    least = _LEAST[(name, key)]
    assert ExperimentConfig(name=name, options={key: least}).option(key) == least
    assert ExperimentConfig(name=name, options={key: float(least)}).option(key) == least


@pytest.mark.parametrize("key, value, least", [
    ("dims", (4.7,), 1), ("dims", (0,), 1), ("dims", (True,), 1), ("dims", ("4",), 1),
    ("seeds", (1.9,), 0), ("seeds", (-1,), 0), ("seeds", (True,), 0), ("seeds", (0, 2.5), 0),
])
def test_dims_and_seeds_follow_the_count_rule(key, value, least):
    # dims = 4.7 and seeds = 1.9 once ran d = 4 and seed 1
    with pytest.raises(ValueError, match=f"{key} >= {least}"):
        ExperimentConfig(name="mixing-estimate", **{key: value})


def test_integral_float_dims_and_seeds_read_as_their_integers():
    cfg = ExperimentConfig(name="mixing-estimate", dims=(8.0, np.int64(16)), seeds=(1.0, 0))
    assert (cfg.dims, cfg.seeds) == ((8, 16), (1, 0))
    assert all(type(v) is int for v in cfg.dims + cfg.seeds)
    assert cfg.config_hash() == ExperimentConfig(name="mixing-estimate", dims=(8, 16),
                                                 seeds=(1, 0)).config_hash()


@pytest.mark.parametrize("epsilon", [-1.0, 0.0, 1.0, 1.5, math.nan])
def test_mixing_estimate_rejects_epsilon_outside_the_unit_interval_before_any_unit(
        monkeypatch, epsilon):
    # epsilon = -1 once ran every checkpoint up to step_cap and then raised BudgetExhausted
    def no_units(fn, units):
        raise AssertionError("a unit ran")

    monkeypatch.setattr(bench, "_map_units", no_units)
    cfg = ExperimentConfig(name="mixing-estimate", dims=(4,), options={"epsilon": epsilon})
    with pytest.raises(ValueError, match="epsilon"):
        run_experiment(cfg)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_only_multi_dimension_experiments_accept_several_dims(name):
    if name in _ONE_DIMENSION:
        with pytest.raises(ValueError, match="dims = 16, 32"):
            ExperimentConfig(name=name, dims=(16, 32))
    else:
        assert ExperimentConfig(name=name, dims=(16, 32)).dims == (16, 32)


@pytest.mark.parametrize("q0", [0.5, [0.0, 0.0]], ids=["scalar", "wrong-length"])
def test_overlap_check_rejects_q0_of_wrong_shape(q0):
    cfg = ExperimentConfig(name="overlap-check", dims=(3,), options={"q0": q0, "n_mc": 100})
    with pytest.raises(ValueError, match=r"q0 must have shape \(3,\)"):
        run_experiment(cfg)


@pytest.mark.parametrize("separation", [math.nan, math.inf, -1.0])
def test_overlap_report_rejects_a_bad_separation_before_drawing(separation):
    # nan and inf once failed as "inverse map iterate left the trusted region", and -1.0 ran and
    # reported separation -1.0
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match="separation"):
        bench.overlap_report(GaussianTarget.standard(2), np.zeros(2), None, separation, 2, 0.1, 100,
                             gen)
    assert gen.bit_generator.state == state


def test_overlap_report_at_zero_separation():
    report = bench.overlap_report(GaussianTarget.standard(2), np.zeros(2), None, 0.0, 2, 0.1, 100,
                                  np.random.default_rng(0))
    assert (report["separation"], report["kl"], report["std_error"]) == (0.0, 0.0, 0.0)


def test_corollary_schedules():
    target = GaussianTarget.standard(256)
    cfg = ExperimentConfig(name="mixing-estimate", options={"eta": 0.33, "K": 5})
    eta_h, K_h = corollary_schedule("corollary-hmc", target, cfg)
    assert K_h > 1 and 0 < eta_h < 1
    eta_m, K_m = corollary_schedule("corollary-mala", target, cfg)
    assert K_m == 1 and eta_m > eta_h
    eta_f, K_f = corollary_schedule("fixed", target, cfg)
    assert (eta_f, K_f) == (0.33, 5)


def test_corollary_schedule_reads_the_targets_constants():
    cfg = ExperimentConfig(name="mala-vs-hmc")
    standard = corollary_schedule("corollary-hmc", GaussianTarget.standard(64), cfg)
    # the standard Gaussian's L = 1 and gamma = 0, with M = e, epsilon = 1/e, psi = c = 1, c' = 2
    tp = TheoryParams(L=1.0, gamma=0.0, d=64, M=math.e, epsilon=1.0 / math.e, c_prime=2.0)
    assert standard == (best_hmc_params(tp).eta, best_hmc_params(tp).K)
    stiff = corollary_schedule("corollary-hmc", GaussianTarget(4.0 * np.eye(64)), cfg)
    assert stiff[0] == pytest.approx(standard[0] / 2.0, rel=1e-12)  # eta^2 ~ 1 / L
    undeclared = GaussianTarget.standard(4)
    undeclared.gamma = None
    with pytest.raises(ValueError, match="declares no gamma"):
        corollary_schedule("corollary-mala", undeclared, cfg)


@pytest.mark.parametrize("key", ["n_chain", "pilot_target", "L", "c_prime"])
def test_experiment_config_rejects_undeclared_option(key):
    # a misspelt or retired key would otherwise run the defaults silently
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(name="acceptance-scaling", options={key: 2, "accept_constant": 1.0})


def test_option_defaults_come_from_the_table():
    cfg = ExperimentConfig(name="acceptance-scaling", options={"n_steps": 8, "n_mc": 5})
    assert cfg.option("n_steps") == 8
    assert cfg.option("n_chains") == OPTIONS["acceptance-scaling"]["n_chains"] == 160
    with pytest.raises(KeyError, match="n_mc"):
        cfg.option("n_mc")  # declared by other experiments, so allowed in the file, never read here
    assert EXPERIMENTS == tuple(OPTIONS)


@pytest.mark.parametrize("name", ["energy-scaling", "overlap-check", "lemma-suite",
                                  "tensor-report", "mala-vs-hmc"])
@pytest.mark.parametrize("schedule", ["fixed", "corollary-mala"])
def test_experiments_without_a_schedule_reject_one(name, schedule):
    with pytest.raises(ValueError, match=f"would ignore '{schedule}'"):
        ExperimentConfig(name=name, schedule=schedule)
    ExperimentConfig(name=name, schedule="corollary-hmc")


def test_fit_loglog_slope():
    x = np.geomspace(0.01, 1.0, 9)
    assert_allclose(fit_loglog_slope(x, 5.0 * x**3), 3.0, rtol=1e-10)


def test_mean_acceptance_gradient_accounting():
    inner = GaussianTarget.standard(4)
    counting = CountingTarget(inner)
    gen = np.random.default_rng(0)
    start = inner.sample_exact(32, gen)
    _, _, grads = _mean_acceptance(counting, start, 0.3, 3, 10, gen)
    assert grads == 32 * 10 * 4  # the paper's (K+1) model, as the grad_evals column reports it
    # the chains carry grad f: one row per chain at the start, then K per transition
    assert counting.gradient_evals == 32 * (1 + 10 * 3)


def test_acceptance_scaling_single_dimension_row():
    cfg = ExperimentConfig(
        name="acceptance-scaling", dims=(16,), seeds=(0,),
        options={"accept_constant": 1.0, "n_chains": 32, "n_steps": 8},
    )
    header, rows, _ = run_experiment(cfg)
    assert len(rows) == 1
    assert header[0] == "d" and rows[0][0] == 16


def test_mixing_estimate_exact_start_hits_first_checkpoint(tmp_path):
    cfg = ExperimentConfig(
        name="mixing-estimate", dims=(4,), seeds=(0,),
        options={"epsilon": 0.1, "n_chains": 8192, "warm_start": "exact"},
    )
    _, rows, summary = run_experiment(cfg)
    assert summary["mixing_steps"][4] == 32
    assert rows[0][2] <= 0.1


def test_mixing_estimate_monotone_in_epsilon():
    steps = {}
    for eps in (0.1, 0.2, 0.3):
        cfg = ExperimentConfig(
            name="mixing-estimate", dims=(8,), seeds=(1,), schedule="fixed",
            options={
                "epsilon": eps, "eta": 0.1, "K": 1, "n_chains": 4096,
                "warm_start": "scaled-covariance", "warm_s": 0.25, "step_cap": 4096,
            },
        )
        _, _, summary = run_experiment(cfg)
        steps[eps] = summary["mixing_steps"][8]
    assert steps[0.1] >= steps[0.2] >= steps[0.3]
    assert steps[0.1] > steps[0.3]


def test_mixing_estimate_seed_agreement_within_factor_two():
    steps = []
    for seed in (1, 2):
        cfg = ExperimentConfig(
            name="mixing-estimate", dims=(8,), seeds=(seed,), schedule="fixed",
            options={
                "epsilon": 0.15, "eta": 0.1, "K": 1, "n_chains": 4096,
                "warm_start": "scaled-covariance", "warm_s": 0.25, "step_cap": 4096,
            },
        )
        _, _, summary = run_experiment(cfg)
        steps.append(summary["mixing_steps"][8])
    hi, lo = max(steps), min(steps)
    assert hi <= 2 * lo


def test_mixing_estimate_leaves_no_worker_thread():
    # 8192 chains at d = 4 span two row blocks, so each checkpoint's run prefetches its draws
    cfg = ExperimentConfig(
        name="mixing-estimate", dims=(4,), seeds=(0,),
        options={"epsilon": 0.1, "n_chains": 8192, "lazy": True},
    )
    before = threading.active_count()
    _, rows, _ = run_experiment(cfg)
    assert threading.active_count() == before
    assert rows == run_experiment(cfg)[1]


def test_mixing_estimate_budget_exhausted():
    cfg = ExperimentConfig(
        name="mixing-estimate", dims=(8,), seeds=(1,), schedule="fixed",
        options={
            "epsilon": 0.01, "eta": 0.05, "K": 1, "n_chains": 512,
            "warm_start": "scaled-covariance", "warm_s": 0.25, "step_cap": 64,
        },
    )
    with pytest.raises(BudgetExhausted):
        run_experiment(cfg)


@pytest.mark.parametrize("budget", [1, 3, 5])
def test_mala_vs_hmc_rejects_budget_below_two_transitions(budget):
    # at d = 16 HMC runs K = 3: budget // 4 < 2 transitions; MALA (K = 1) needs budget >= 4
    cfg = ExperimentConfig(name="mala-vs-hmc", dims=(16,), seeds=(0,),
                           options={"grad_budget": budget, "n_rep": 2})
    with pytest.raises(ValueError, match=f"grad_budget = {budget} "):
        run_experiment(cfg)


def test_acceptance_scaling_rejects_single_chain():
    with pytest.raises(ValueError, match="n_chains >= 2"):
        ExperimentConfig(name="acceptance-scaling", dims=(16,), seeds=(0,),
                         options={"accept_constant": 1.0, "n_chains": 1, "n_steps": 8})


def test_mala_vs_hmc_identical_seeds_identical_iact():
    opts = {"grad_budget": 8000, "n_rep": 2}
    cfg = ExperimentConfig(name="mala-vs-hmc", dims=(16,), seeds=(3,), options=opts)
    _, rows_a, _ = run_experiment(cfg)
    _, rows_b, _ = run_experiment(cfg)
    assert rows_a == rows_b


def test_mala_vs_hmc_seed_block_matches_single_seed_runs():
    opts = {"grad_budget": 4000, "n_rep": 3}
    cfg = ExperimentConfig(name="mala-vs-hmc", dims=(16,), seeds=(0, 1, 2), options=opts)
    _, rows, summary = run_experiment(cfg)
    singles = [run_experiment(ExperimentConfig(name="mala-vs-hmc", dims=(16,), seeds=(seed,),
                                               options=opts)) for seed in cfg.seeds]
    assert rows == [row for _, seed_rows, _ in singles for row in seed_rows]
    ratios = summary["median_cost_ratio_mala_over_hmc"]
    for stat in ("q1", "qnorm2"):
        per_seed = [s["median_cost_ratio_mala_over_hmc"][stat] for _, _, s in singles]
        assert ratios[stat] == float(np.median(per_seed))


def test_energy_scaling_rows_and_summary():
    cfg = ExperimentConfig(
        name="energy-scaling", dims=(16, 64), seeds=(0,),
        options={"n_mc": 4000, "etas": [0.05, 0.1, 0.2]},
    )
    header, rows, summary = run_experiment(cfg)
    assert len(rows) == 5
    assert abs(summary["eta_slope"] - 3.0) <= 0.4
    assert all(r[4] <= r[6] for r in rows)  # empirical below bound


def test_overlap_check_and_lemma_suite_and_tensor_report(tmp_path):
    cfg = ExperimentConfig(
        name="overlap-check", dims=(3,), seeds=(0,), options={"K": 2, "eta": 0.1, "n_mc": 4000}
    )
    header, rows, summary = run_experiment(cfg, out=str(tmp_path / "ov.csv"))
    assert rows[0][4] >= -3 * rows[0][5]  # kl >= -3 se
    assert (tmp_path / "ov.csv.json").exists()

    cfg = ExperimentConfig(
        name="lemma-suite", dims=(4,), seeds=(0,), options={"n_mc": 4000, "ells": [2]}
    )
    _, rows, summary = run_experiment(cfg)
    assert summary["n_violated"] == 0

    cfg = ExperimentConfig(
        name="tensor-report", dims=(3,), seeds=(0,),
        options={"n_points": 2, "restarts": 5},
    )
    _, rows, summary = run_experiment(cfg, out=str(tmp_path / "tensor.csv"))
    assert summary["all_orderings_ok"]
    # the ascent's convergence, per point, in the sidecar; the CSV columns stay
    sidecar = json.loads((tmp_path / "tensor.csv.json").read_text())["summary"]
    assert len(sidecar["max_sweeps"]) == len(sidecar["capped_restarts"]) == len(rows) == 2
    assert all(1 <= n <= 200 for n in sidecar["max_sweeps"])
    assert all(0 <= n <= 5 for n in sidecar["capped_restarts"])
    assert (tmp_path / "tensor.csv").read_text().splitlines()[0] == (
        "point,norm_123,norm_12_3,norm_1_2_3_lower,partition_ordering_ok")


@pytest.mark.parametrize("name, options", [
    ("n_points", {"n_points": 0, "restarts": 5}),
    ("n_points", {"n_points": -1, "restarts": 5}),
    ("restarts", {"n_points": 2, "restarts": 0}),
])
def test_tensor_report_rejects_empty_sizes_before_drawing(monkeypatch, name, options):
    # n_points = 0 once wrote a header-only CSV summarised as "all_orderings_ok": true,
    # and restarts = 0 failed only after the first tensor was built
    def drawing(*args):
        raise AssertionError("tensor-report drew before checking its sizes")

    monkeypatch.setattr(bench, "chain_rng", drawing)
    with pytest.raises(ValueError, match=name):
        run_experiment(ExperimentConfig(name="tensor-report", dims=(3,), seeds=(0,), options=options))


def test_write_csv_and_sidecar_bit_identical(tmp_path):
    cfg = ExperimentConfig(
        name="acceptance-scaling", dims=(8, 16), seeds=(5,),
        options={"accept_constant": 1.0, "n_chains": 16, "n_steps": 4},
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(cfg, out=str(out_a))
    run_experiment(cfg, out=str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    sidecar = json.loads((tmp_path / "a.csv.json").read_text())
    for key in ("config_hash", "git_describe", "wall_time_s"):
        assert key in sidecar
    assert sidecar["config_hash"] == cfg.config_hash()
    assert sidecar["versions"] == {"python": platform.python_version(), "numpy": np.__version__,
                                   "scipy": scipy.__version__}


def test_sidecar_records_a_missing_scipy_as_null(tmp_path, monkeypatch):
    # SciPy is a test dependency only: its version is read from the installed metadata, once
    def not_installed(name):
        calls.append(name)
        raise metadata.PackageNotFoundError(name)

    calls = []
    monkeypatch.setattr(metadata, "version", not_installed)
    cfg = ExperimentConfig(
        name="acceptance-scaling", dims=(8,), seeds=(5,),
        options={"accept_constant": 1.0, "n_chains": 4, "n_steps": 2},
    )
    bench._scipy_version.cache_clear()
    try:
        for name in ("a.csv", "b.csv"):
            run_experiment(cfg, out=str(tmp_path / name))
    finally:
        bench._scipy_version.cache_clear()
    assert calls == ["scipy"]
    for name in ("a.csv", "b.csv"):
        assert json.loads((tmp_path / f"{name}.json").read_text())["versions"]["scipy"] is None


def test_sidecar_describes_hmclab_checkout_once_per_process(tmp_path, monkeypatch):
    # run from another directory: git describe runs once, in hmclab's own package directory
    calls = []

    def fake_run(args, **kwargs):
        calls.append((args, kwargs.get("cwd")))
        return subprocess.CompletedProcess(args, 0, stdout="abc1234\n", stderr="")

    cfg = ExperimentConfig(
        name="acceptance-scaling", dims=(8,), seeds=(5,),
        options={"accept_constant": 1.0, "n_chains": 4, "n_steps": 2},
    )
    run_experiment(cfg, out=str(tmp_path / "ref.csv"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    bench._git_describe.cache_clear()
    try:
        for name in ("a.csv", "b.csv"):
            run_experiment(cfg, out=str(tmp_path / name))
    finally:
        bench._git_describe.cache_clear()
    assert calls == [(["git", "describe", "--always", "--dirty"], os.path.dirname(bench.__file__))]
    for name in ("a.csv", "b.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert json.loads((tmp_path / f"{name}.json").read_text())["git_describe"] == "abc1234"


def test_write_csv_formats(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(str(path), ["a", "b", "c"], [(1, 0.5, True), (2, 1.0 / 3.0, False)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.5,1"
    assert lines[2] == f"2,{1.0 / 3.0!r},0"


@pytest.mark.parametrize("ell, n_mc, name", [(1, 0, "n_mc"), (0, 100, "ell"), (-1, 100, "ell")])
def test_lemma_reports_check_sizes_before_sampling(ell, n_mc, name):
    # a bad size raises before the logistic sampler's 2,000-step warmup and first draw
    target = CountingTarget(make_logistic(64, 16, seed=5))
    with pytest.raises(ValueError, match=name):
        bench.lemma_reports(target, [2, ell], 0.1, n_mc, np.random.default_rng(0))
    assert target.gradient_evals == target.potential_evals == target.hvp_rows == 0


@pytest.mark.parametrize("eta, t, match", [(0.0, None, "step-size eta"),
                                            (math.nan, None, "step-size eta"),
                                            (0.1, math.nan, "time t"), (0.1, math.inf, "time t"),
                                            (0.1, -0.1, "time t")])
def test_lemma_reports_check_step_size_and_time_before_sampling(eta, t, match):
    # t = nan once hung in the drift check's RK4 refinement after the sampler's warmup
    target = CountingTarget(make_logistic(64, 16, seed=5))
    gen = np.random.default_rng(0)
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match=match):
        bench.lemma_reports(target, [2], eta, 100, gen, t=t)
    assert gen.bit_generator.state == before
    assert target.gradient_evals == target.potential_evals == target.hvp_rows == 0


_SUITE_TARGETS = {
    "gaussian": lambda: make_dense_gaussian(3, seed=40),
    "logistic": lambda: make_logistic(6, 3, seed=41),  # drawn by the chain sampler
    "ridge": lambda: make_ridge(5, 3, seed=42),
}


@pytest.mark.parametrize("t", [None, 0.05])
@pytest.mark.parametrize("family", _SUITE_TARGETS)
def test_lemma_reports_match_one_chunk_loop_bit_for_bit(family, t):
    # 10,001 draws span two chunks; every order's reports read the same draws
    target = _SUITE_TARGETS[family]()
    new = bench.lemma_reports(target, (1, 2, 4), 0.1, 10_001, np.random.default_rng(3), t=t,
                              sampler_warmup=50)
    old = loop_lemma_reports(target, (1, 2, 4), 0.1, 10_001, np.random.default_rng(3), t=t,
                             sampler_warmup=50)
    assert [dataclasses.astuple(r) for r in new] == [dataclasses.astuple(r) for r in old]
    assert len(new) == 3 * (6 if t is None else 9)
    assert all(r.n_samples == 10_001 for r in new)


def test_lemma_reports_do_not_depend_on_the_other_orders():
    target = make_logistic(6, 3, seed=41)

    def run(ells, t):
        return bench.lemma_reports(target, ells, 0.1, 500, np.random.default_rng(4), t=t,
                                   sampler_warmup=20)

    both, drift = run((2, 4), None), run((4,), 0.05)
    assert both[len(both) // 2:] == drift[:len(both) // 2]


def test_lemma_reports_evaluate_each_gradient_row_once_for_every_order():
    # 500 warm-up steps, 4 for x and 4 x 32 harvest steps of 64 chains (40,448 rows), one
    # gradient per run start (3 x 64), and per draw grad f(q) and grad f(q_eta) (2 x 2000)
    counts = []
    for ells in [(2,), (2, 4)]:
        target = CountingTarget(make_logistic(32, 16, seed=5))
        bench.lemma_reports(target, ells, 0.05, 2000, np.random.default_rng(0), sampler_warmup=500)
        counts.append(target.gradient_evals)
    assert counts == [44_640, 44_640]


def test_lemma_reports_evaluate_the_hessian_momentum_product_once_per_draw():
    # grad^2 f(q) p feeds grad_hessian_p and the drift checks' hp0: 2000 rows, plus 2000 for
    # p'Hp at x and 2000 for the drift checks at the flow's end (8000 when each check made its own)
    target = CountingTarget(make_logistic(32, 16, seed=5))
    bench.lemma_reports(target, [2], 0.05, 2000, np.random.default_rng(0), t=0.05,
                        sampler_warmup=200)
    assert target.hvp_rows == 6000


@pytest.mark.parametrize("etas", [[0.0, 0.1], [0.1, -0.05], [0.1, math.nan], [math.inf]])
def test_energy_scaling_checks_etas_before_any_unit(monkeypatch, etas):
    # an eta <= 0 once ran every point and failed only in the slope fit's SVD
    def no_units(fn, units):
        raise AssertionError("a unit ran")

    monkeypatch.setattr(bench, "_map_units", no_units)
    cfg = ExperimentConfig(name="energy-scaling", dims=(16,), options={"n_mc": 100, "etas": etas})
    with pytest.raises(ValueError, match="etas"):
        bench.run_energy_scaling(cfg)


# each multi-unit runner, at sizes that keep its units to a fraction of a second
MULTI_UNIT_CONFIGS = {
    "acceptance-scaling": ExperimentConfig(
        name="acceptance-scaling", dims=(8, 16), seeds=(5,),
        options={"n_chains": 16, "n_steps": 4}),
    "energy-scaling": ExperimentConfig(
        name="energy-scaling", dims=(16, 64), seeds=(0,),
        options={"n_mc": 2000, "etas": [0.05, 0.1]}),
    "mixing-estimate": ExperimentConfig(
        name="mixing-estimate", dims=(4, 8), seeds=(0,),
        options={"epsilon": 0.2, "n_chains": 2048, "warm_start": "exact"}),
    "mala-vs-hmc": ExperimentConfig(
        name="mala-vs-hmc", dims=(16,), seeds=(0, 1), options={"grad_budget": 2000, "n_rep": 2}),
}


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_map_units_runs_units_in_workers_in_unit_order(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    pids = bench._map_units(os.getpid, [(), (), ()])
    assert os.getpid() not in pids and len(set(pids)) <= 2
    assert bench._map_units(divmod, [(7, 2), (9, 4), (5, 5)]) == [(3, 1), (2, 1), (1, 0)]


@pytest.mark.parametrize("case", ["one unit", "one cpu", "no fork", "no affinity", "daemonic"])
def test_map_units_runs_in_process_where_no_pool_can_run(monkeypatch, case):
    import multiprocessing

    units = [(), ()]
    _usable_cpus(monkeypatch, 2)
    if case == "one unit":
        units = [()]
    elif case == "one cpu":
        _usable_cpus(monkeypatch, 1)
    elif case == "no fork":
        monkeypatch.delattr(os, "fork")
    elif case == "no affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    else:  # a daemonic process may not have children
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: type("Daemon", (), {"daemon": True})())
    assert bench._map_units(os.getpid, units) == [os.getpid()] * len(units)


@pytest.mark.parametrize("name", sorted(MULTI_UNIT_CONFIGS))
def test_pooled_runners_equal_serial_runs_bit_for_bit(monkeypatch, name):
    cfg = MULTI_UNIT_CONFIGS[name]
    _usable_cpus(monkeypatch, 2)
    pooled = run_experiment(cfg)
    _usable_cpus(monkeypatch, 1)
    serial = run_experiment(cfg)
    assert repr(pooled) == repr(serial)
    assert pooled == serial


def test_pooled_run_raises_the_first_failing_units_error(monkeypatch):
    # both dims exhaust the step cap; a serial run raises at d = 8 and never reaches d = 16
    cfg = ExperimentConfig(
        name="mixing-estimate", dims=(8, 16), seeds=(1,), schedule="fixed",
        options={
            "epsilon": 0.01, "eta": 0.05, "K": 1, "n_chains": 512,
            "warm_start": "scaled-covariance", "warm_s": 0.25, "step_cap": 64,
        },
    )
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(BudgetExhausted, match=r"TV stayed above 0\.01 within 64 steps at d=8$"):
        run_experiment(cfg)


def test_pooled_run_leaves_no_process_or_thread(monkeypatch):
    import multiprocessing

    _usable_cpus(monkeypatch, 2)
    before = threading.active_count()
    run_experiment(MULTI_UNIT_CONFIGS["mala-vs-hmc"])
    assert multiprocessing.active_children() == []
    assert threading.active_count() == before


def test_sample_and_single_unit_runs_load_no_multiprocessing(tmp_path):
    cfg = tmp_path / "target.cfg"
    cfg.write_text("family = gaussian\ndim = 2\n")
    code = ("import sys, hmclab.cli\n"
            "from hmclab.bench import ExperimentConfig, run_experiment\n"
            "cfg, out = sys.argv[1:]\n"
            "hmclab.cli.main(['sample', '--config', cfg, '--eta', '0.3', '--K', '2',\n"
            "                 '--out', out])\n"
            "run_experiment(ExperimentConfig(name='mixing-estimate', dims=(4,), seeds=(0,),\n"
            "    options={'epsilon': 0.2, 'n_chains': 8192, 'warm_start': 'exact',\n"
            "             'lazy': True}))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'\n"
            "             or m == 'concurrent.futures.process'))")
    out = run_python(code, str(cfg), str(tmp_path / "trace.csv"))
    assert out.strip().splitlines()[-1] == "[]"


def test_sidecar_records_max_rss_of_the_run_and_its_workers(tmp_path, monkeypatch):
    cfg = MULTI_UNIT_CONFIGS["acceptance-scaling"]
    _usable_cpus(monkeypatch, 1)
    run_experiment(cfg, out=str(tmp_path / "serial.csv"))
    _usable_cpus(monkeypatch, 2)
    run_experiment(cfg, out=str(tmp_path / "pooled.csv"))
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    max_rss = json.loads((tmp_path / "pooled.csv.json").read_text())["max_rss_mb"]
    assert set(max_rss) == {"self", "children"}
    assert max_rss["self"] > 0 and max_rss["children"] > 0
