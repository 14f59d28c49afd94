"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with -s to see them as they finish).
"""

import math
import time

import numpy as np
import pytest

from conftest import make_dense_gaussian, make_logistic, make_ridge
from _oracles import (
    exact_gaussian_acceptance,
    finite_diff_jacobian,
    gaussian_leapfrog_matrix,
    gaussian_proposal_kl,
)
from hmclab import bench
from hmclab.cli import main
from hmclab.kernel import batch_transition
from hmclab.leapfrog import PhaseState, forward_map, momentum_jacobian
from hmclab.moments import (
    chain_stationary_sampler,
    check_grad_norm_moment,
    check_php_moment,
    exact_gaussian_sampler,
)
from hmclab.overlap import kl_between_proposals
from hmclab.targets import GaussianTarget
from hmclab.tensors import (
    norm_12_3,
    norm_frobenius_123,
    norm_injective_lower,
    symmetrize,
    third_derivative_tensor,
)


def _finish(num: int, desc: str, ok: bool, t0: float, budget: float):
    elapsed = time.monotonic() - t0
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.1f}s / {budget:.0f}s budget) {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


def test_criterion_01_integrator_exactness():
    t0 = time.monotonic()
    ok = True
    cases = [
        (GaussianTarget.standard(1), 32, 0.1),
        (make_dense_gaussian(4, seed=1), 7, 0.2),
        (GaussianTarget.diagonal(np.linspace(0.5, 2.0, 64)), 32, 0.05),
    ]
    gen = np.random.default_rng(11)
    for target, K, eta in cases:
        d = target.d
        q0, p0 = gen.standard_normal((2, d))
        traj = forward_map(target, PhaseState(q0, p0), K, eta)
        m = np.linalg.matrix_power(gaussian_leapfrog_matrix(target.precision, eta), K)
        zK = m @ np.concatenate([q0, p0])
        ok &= np.abs(traj.final.q - zK[:d]).max() <= 1e-12
        ok &= np.abs(traj.final.p - zK[d:]).max() <= 1e-12
        back = forward_map(target, PhaseState(traj.final.q, -traj.final.p), K, eta)
        ok &= np.linalg.norm(back.final.q - q0) <= 1e-10
        ok &= np.linalg.norm(back.final.p + p0) <= 1e-10
    # volume preservation through the finite-difference Jacobian at d <= 6
    for target, K, eta in ((make_logistic(10, 6, seed=2), 6, 0.05), (make_ridge(6, 4, seed=3), 4, 0.1)):
        q0, p0 = gen.standard_normal((2, target.d))

        def endpoint(z, target=target, K=K, eta=eta):
            traj = forward_map(target, PhaseState(z[: target.d], z[target.d :]), K, eta)
            return np.concatenate([traj.final.q, traj.final.p])

        jac = finite_diff_jacobian(endpoint, np.concatenate([q0, p0]), h=1e-4)
        ok &= abs(np.linalg.slogdet(jac)[1]) <= 1e-6
    _finish(1, "leapfrog = explicit linear map; reversible; volume preserving", ok, t0, 10.0)


def test_criterion_02_jacobian_recursion():
    t0 = time.monotonic()
    gen = np.random.default_rng(22)
    ok = True
    for i in range(20):
        d = int(gen.integers(2, 9))
        K = int(gen.integers(1, 9))
        kind = i % 3
        if kind == 0:
            target = make_dense_gaussian(d, seed=100 + i)
        elif kind == 1:
            target = make_ridge(int(gen.integers(2, 7)), d, seed=200 + i)
        else:
            target = make_logistic(int(gen.integers(4, 12)), d, seed=300 + i)
        L = target.smoothness
        eta = 0.25 / (K * math.sqrt(L)) * float(gen.uniform(0.5, 1.0))
        q0, p0 = gen.standard_normal((2, d))
        jacs = momentum_jacobian(target, q0, p0, K, eta, return_all=True)

        def final_pos(p, target=target, q0=q0, K=K, eta=eta):
            return forward_map(target, PhaseState(q0, p), K, eta).final.q

        fd = finite_diff_jacobian(final_pos, p0, h=1e-5)
        ok &= np.abs(jacs[-1] - fd).max() <= 1e-6
        for j, jac in enumerate(jacs, start=1):
            gap = np.linalg.norm(jac - j * eta * np.eye(d), 2)
            ok &= gap <= j**3 * eta**3 * L * (1.0 + 1e-9)
    _finish(2, "momentum Jacobian matches finite differences and the cubic bound", ok, t0, 30.0)


def test_criterion_03_detailed_balance():
    t0 = time.monotonic()
    target = GaussianTarget.standard(1)
    gen = np.random.default_rng(101)
    n_chains, n_steps = 2000, 500  # 1e6 transitions
    q = target.sample_exact(n_chains, gen)
    edges = np.linspace(-4.1, 4.1, 42)
    counts = np.zeros((41, 41))
    for _ in range(n_steps):
        step = batch_transition(target, q, 0.35, 2, gen)
        before = np.clip(q[:, 0], -4.1, 4.1)
        after = np.clip(step.positions[:, 0], -4.1, 4.1)
        counts += np.histogram2d(before, after, bins=(edges, edges))[0]
        q = step.positions
    asym = np.abs(counts - counts.T)
    total = counts + counts.T
    tested = (total >= 100) & ~np.eye(41, dtype=bool)
    ok = tested.sum() > 100 and bool((asym[tested] <= 3.0 * np.sqrt(total[tested])).all())
    _finish(3, "binned transition counts are symmetric at 3 sigma (1e6 transitions)", ok, t0, 60.0)


def test_criterion_04_overlap_oracle():
    t0 = time.monotonic()
    gen = np.random.default_rng(2024)
    ok = True
    for i in range(10):
        d = int(gen.integers(1, 9))
        K = int(gen.integers(1, 5))
        if i % 3 == 0:
            target = GaussianTarget.standard(d)
        elif i % 3 == 1:
            target = GaussianTarget.diagonal(gen.uniform(0.5, 3.0, size=d))
        else:
            target = make_dense_gaussian(d, seed=400 + i)
        eta = 0.25 / (K * math.sqrt(target.smoothness)) * float(gen.uniform(0.6, 1.0))
        q0 = 0.5 * gen.standard_normal(d)
        direction = gen.standard_normal(d)
        direction /= np.linalg.norm(direction)
        q1 = q0 + 0.3 * K * eta * direction
        closed = gaussian_proposal_kl(target.precision, q0, q1, eta, K)
        est, se = kl_between_proposals(target, q0, q1, K, eta, 100_000, gen)
        ok &= abs(est - closed) <= 3.0 * max(se, 1e-12)
        zero_est, zero_se = kl_between_proposals(target, q0, q0, K, eta, 100, gen)
        ok &= zero_est == 0.0 and zero_se == 0.0
        # inverse-map Jacobian eigenvalues stay in the lemma's interval
        jac = momentum_jacobian(target, q0, gen.standard_normal(d), K, eta)
        eigs = np.abs(np.linalg.eigvals(np.linalg.inv(jac)))
        lo, hi = 16.0 / (17.0 * K * eta), 16.0 / (15.0 * K * eta)
        ok &= bool((eigs >= lo * (1 - 1e-12)).all() and (eigs <= hi * (1 + 1e-12)).all())
    _finish(4, "Monte Carlo proposal KL matches the closed form within 3 SE", ok, t0, 300.0)


def test_criterion_05_constant_free_moment_lemmas():
    t0 = time.monotonic()
    ok = True
    n_mc = 100_000
    gauss = GaussianTarget.standard(8)
    gen = np.random.default_rng(32)
    sampler = exact_gaussian_sampler(gauss, gen)
    for ell in (1, 2, 4):
        rep = check_grad_norm_moment(gauss, ell, n_mc, sampler)
        ok &= not rep.violated
        rep = check_php_moment(gauss, np.zeros(8), ell, n_mc, gen)
        ok &= not rep.violated
        closed = np.prod([8.0 + 2 * j for j in range(ell)]) ** (1.0 / ell)
        ok &= abs(rep.empirical - closed) <= 3.0 * max(rep.std_error, 1e-12)
    logistic = make_logistic(12, 6, seed=5, alpha2=1.0)
    gen_l = np.random.default_rng(31)
    sampler_l = chain_stationary_sampler(logistic, gen_l, eta=0.15, K=2, warmup=3000, n_chains=64)
    x0 = sampler_l(1)[0]
    for ell in (1, 2, 4):
        ok &= not check_grad_norm_moment(logistic, ell, n_mc, sampler_l).violated
        ok &= not check_php_moment(logistic, x0, ell, n_mc, gen_l).violated
    _finish(5, "gradient-norm and p'Hp moment bounds hold as hard assertions", ok, t0, 120.0)


def test_criterion_06_energy_error_scaling():
    t0 = time.monotonic()
    cfg = bench.ExperimentConfig(
        name="energy-scaling",
        dims=(16, 32, 64, 128, 256, 512, 1024),
        seeds=(0,),
        options={"n_mc": 100_000, "ell": 2, "etas": list(np.geomspace(0.02, 0.2, 7))},
    )
    _, rows, summary = bench.run_experiment(cfg)
    ok = abs(summary["eta_slope"] - 3.0) <= 0.3
    ok &= abs(summary["d_slope"] - 0.5) <= 0.15
    ok &= all(r[4] <= r[6] for r in rows)  # empirical below the (gamma+1)-form bound
    _finish(6, f"energy-error slopes eta {summary['eta_slope']:.3f}, d {summary['d_slope']:.3f}", ok, t0, 600.0)


@pytest.fixture(scope="module")
def criterion_07_runs():
    """Criterion 7's corollary-schedule and fixed-control rows, and the time they started."""
    t0 = time.monotonic()
    dims = (16, 64, 256, 1024, 4096)
    a = bench.calibrate_acceptance_constant(GaussianTarget.standard(dims[0]), seed=0,
                                            target_accept=0.9)
    cfg = bench.ExperimentConfig(
        name="acceptance-scaling", dims=dims, seeds=(0,),
        options={"accept_constant": a, "n_chains": 160, "n_steps": 32},
    )
    _, rows, summary = bench.run_experiment(cfg)
    control = bench.ExperimentConfig(
        name="acceptance-scaling", dims=dims, seeds=(0,), schedule="fixed",
        options={"eta": 0.4, "K": 1, "n_chains": 160, "n_steps": 32},
    )
    _, crows, _ = bench.run_experiment(control)
    return t0, rows, summary, crows


def test_criterion_07_acceptance_flatness(criterion_07_runs):
    t0, rows, summary, crows = criterion_07_runs
    ok = summary["acceptance_range"] <= 0.15
    ok &= all(r[4] <= 0.02 for r in rows)  # CI half-widths
    means = [r[3] for r in crows]
    ok &= all(means[i] > means[i + 1] for i in range(len(means) - 1))
    ok &= all(r[4] <= 0.02 for r in crows)
    _finish(
        7,
        f"corollary-schedule acceptance flat (range {summary['acceptance_range']:.3f}), fixed control decreasing",
        ok, t0, 1200.0,
    )


def test_criterion_07_rows_match_exact_gaussian_acceptance(criterion_07_runs):
    # each row's mean acceptance within two of its 95% CI half-widths of the exact value.  Over
    # both configs at seeds 0-9 (100 rows), (mean - exact) / half-width had mean +0.02, standard
    # deviation 0.51 (1 / 1.96 for a calibrated CI) and largest magnitude 1.07
    _, rows, _, crows = criterion_07_runs
    for d, eta, K, mean, ci, _ in [*rows, *crows]:
        exact = exact_gaussian_acceptance(d, eta, K)
        assert abs(mean - exact) <= 2.0 * ci, f"d={d} eta={eta} K={K}: {mean} +- {ci}, exact {exact}"


def test_criterion_08_mala_vs_hmc():
    t0 = time.monotonic()
    cfg = bench.ExperimentConfig(
        name="mala-vs-hmc", dims=(256,), seeds=(0, 1, 2),
        options={"grad_budget": 60_000, "n_rep": 4},
    )
    _, _, summary = bench.run_experiment(cfg)
    ratios = summary["median_cost_ratio_mala_over_hmc"]
    ok = ratios["q1"] >= 1.5 and ratios["qnorm2"] >= 1.5
    _finish(
        8,
        f"grad evals per ESS favor HMC by {ratios['q1']:.2f}x (q1), {ratios['qnorm2']:.2f}x (|q|^2)",
        ok, t0, 1200.0,
    )


def test_criterion_09_tensor_norms():
    t0 = time.monotonic()
    gen = np.random.default_rng(99)
    ok = True
    for i in range(100):
        d = int(gen.integers(2, 6))
        a = gen.standard_normal((d, d, d))
        if i % 2 == 0:
            a = symmetrize(a)
        lower = norm_injective_lower(a, restarts=5, rng=gen)
        mid = norm_12_3(a)
        ok &= lower <= mid * (1.0 + 1e-10) <= norm_frobenius_123(a) * (1.0 + 1e-10) ** 2
    for i in range(10):
        target = make_ridge(int(gen.integers(1, 11)), int(gen.integers(2, 7)), seed=500 + i)
        theta = gen.standard_normal(target.d)
        bound = target.n * target.rho3
        ok &= norm_12_3(third_derivative_tensor(target, theta)) <= bound * (1.0 + 1e-9)
    for i in range(10):
        target = make_logistic(int(gen.integers(4, 17)), int(gen.integers(2, 9)), seed=600 + i,
                               alpha2=float(gen.uniform(0.5, 2.0)))
        theta = gen.standard_normal(target.d)
        ok &= norm_12_3(third_derivative_tensor(target, theta)) <= target.n * (1.0 + 1e-9)
    diag = np.zeros((2, 2, 2))
    diag[0, 0, 0], diag[1, 1, 1] = 3.0, 4.0
    ok &= norm_frobenius_123(diag) == 5.0
    ok &= abs(norm_12_3(diag) - 4.0) <= 1e-12
    ok &= abs(norm_injective_lower(diag, restarts=20, rng=gen) - 4.0) <= 1e-10
    _finish(9, "partition ordering, derivative-tensor bounds, diagonal examples", ok, t0, 120.0)


def _run_cli_twice(args_factory, tmp_path, name):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{name}-{tag}.csv"
        rc = main(args_factory(str(out)))
        assert rc == 0
        outs.append(out.read_bytes())
    return outs[0] == outs[1]


def test_criterion_10_reproducibility(tmp_path, capsys):
    t0 = time.monotonic()
    target_cfg = tmp_path / "gauss.cfg"
    target_cfg.write_text("family = gaussian\ndim = 3\n")
    ridge_cfg = tmp_path / "exp-ridge.cfg"
    ridge_cfg.write_text(
        "dims = 3\ntarget.family = ridge\ntarget.n = 3\ntarget.dim = 3\n"
        "n_points = 2\nrestarts = 5\nn_mc = 2000\nells = 2\nK = 2\neta = 0.1\n"
    )
    small = {
        "acceptance-scaling": "dims = 8, 16\naccept_constant = 1.0\nn_chains = 16\nn_steps = 4\n",
        "energy-scaling": "dims = 8, 16\nn_mc = 2000\netas = 0.05, 0.1, 0.2\n",
        "mixing-estimate": "dims = 4\nepsilon = 0.2\nn_chains = 2048\nwarm_start = exact\n",
        "mala-vs-hmc": "dims = 16\ngrad_budget = 6000\nn_rep = 2\nseeds = 0, 1\n",
        "overlap-check": "dims = 3\nK = 2\neta = 0.1\nn_mc = 3000\n",
        "lemma-suite": "dims = 4\nn_mc = 3000\nells = 2\n",
    }
    ok = True
    for name, body in small.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"experiment = {name}\n{body}")
        ok &= _run_cli_twice(
            lambda out, name=name, cfg=cfg: [name, "--config", str(cfg), "--out", out, "--seed", "0"],
            tmp_path, name,
        )
    ok &= _run_cli_twice(
        lambda out: ["tensor-report", "--config", str(ridge_cfg), "--out", out, "--seed", "0"],
        tmp_path, "tensor-report",
    )
    ok &= _run_cli_twice(
        lambda out: ["sample", "--config", str(target_cfg), "--eta", "0.3", "--K", "2",
                     "--n-steps", "50", "--n-chains", "2", "--seed", "3", "--out", out],
        tmp_path, "sample",
    )
    with capsys.disabled():
        _finish(10, "every CLI experiment output is bit-identical under a fixed seed", ok, t0, 300.0)
