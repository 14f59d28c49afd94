import json
import math
import platform

import numpy as np
import pytest
import scipy
from numpy.testing import assert_allclose
from scipy.stats import norm

from _oracles import CountingTarget
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
from hmclab.diagnostics import (
    effective_sample_size,
    integrated_autocorr_time,
    tv_histogram,
    tv_projection_estimate,
)
from hmclab.errors import BudgetExhausted
from hmclab.targets import GaussianTarget


def test_iact_iid_series(rng):
    tau = integrated_autocorr_time(rng.standard_normal(20000))
    assert abs(tau - 1.0) <= 0.2
    ess = effective_sample_size(rng.standard_normal(20000))
    assert 15000 <= ess <= 25000


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


@pytest.mark.parametrize(
    "name", ["acceptance-scaling", "energy-scaling", "mixing-estimate", "mala-vs-hmc"]
)
def test_standard_gaussian_experiments_reject_target_keys(name):
    with pytest.raises(ValueError, match="would ignore target"):
        ExperimentConfig(name=name, target={"family": "ridge", "n": 3, "dim": 4})
    ExperimentConfig(name=name, target={"family": "gaussian"})


@pytest.mark.parametrize("q0", [0.5, [0.0, 0.0]], ids=["scalar", "wrong-length"])
def test_overlap_check_rejects_q0_of_wrong_shape(q0):
    cfg = ExperimentConfig(name="overlap-check", dims=(3,), options={"q0": q0, "n_mc": 100})
    with pytest.raises(ValueError, match=r"q0 must have shape \(3,\)"):
        run_experiment(cfg)


def test_corollary_schedules():
    eta_h, K_h = corollary_schedule("corollary-hmc", 256, {})
    assert K_h > 1 and 0 < eta_h < 1
    eta_m, K_m = corollary_schedule("corollary-mala", 256, {})
    assert K_m == 1 and eta_m > eta_h
    eta_f, K_f = corollary_schedule("fixed", 256, {"eta": 0.33, "K": 5})
    assert (eta_f, K_f) == (0.33, 5)


def test_fit_loglog_slope():
    x = np.geomspace(0.01, 1.0, 9)
    assert_allclose(fit_loglog_slope(x, 5.0 * x**3), 3.0, rtol=1e-10)


def test_mean_acceptance_gradient_accounting():
    inner = GaussianTarget.standard(4)
    counting = CountingTarget(inner)
    gen = np.random.default_rng(0)
    start = inner.sample_exact(32, gen)
    _, _, grads = _mean_acceptance(counting, start, 0.3, 3, 10, gen)
    assert grads == 32 * 10 * 4
    assert counting.gradient_evals == grads


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
    _, rows, summary = run_experiment(cfg)
    assert summary["all_orderings_ok"]


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


def test_write_csv_formats(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(str(path), ["a", "b", "c"], [(1, 0.5, True), (2, 1.0 / 3.0, False)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.5,1"
    assert lines[2] == f"2,{1.0 / 3.0!r},0"
