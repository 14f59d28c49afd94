"""Experiment runners reproducing the scaling behaviour at desk scale.

Each experiment consumes an ExperimentConfig, derives one RNG stream per
grid point from (seed, point index) so results do not depend on execution
order, and emits CSV rows plus a JSON summary sidecar carrying the config
hash, git description, Python, numpy and scipy versions, and wall time.
Outputs are bit-identical across reruns with a fixed seed.  `overlap_report`,
`lemma_reports` and `tensors.tensor_report` compute the analyses that both
the runners and the `hmclab overlap|lemmas|tensor` commands print.
"""

from __future__ import annotations

import json
import math
import platform
import subprocess
import time
from dataclasses import dataclass

import numpy as np
import scipy

from .config import ExperimentConfig, build_target
from .errors import BudgetExhausted
from .diagnostics import integrated_autocorr_time, tv_projection_estimate
from .kernel import batch_transition
from .moments import (
    MomentReport,
    chain_stationary_sampler,
    check_chaos_moments,
    check_dynamics_diffs,
    check_grad_norm_moment,
    check_gradhp_moment,
    check_php_moment,
    energy_error_moment,
    exact_gaussian_sampler,
)
from .overlap import kl_between_proposals, kl_lemma_bound, kl_proof_form_bound
from .targets import GaussianTarget, TargetDensity
from .tensors import tensor_report, third_derivative_tensor
from .tuning import TheoryParams, best_hmc_params, mala_step_size

Array = np.ndarray


@dataclass(frozen=True)
class WarmStartSpec:
    """Initial distribution with its implied warmness M.

    kind "exact" draws from the target itself (M = 1); "scaled-covariance"
    shrinks the covariance by a factor s in (0, 1], giving M = s^(-d/2) for
    Gaussian targets (the density-ratio supremum, attained at the mode, and
    infinite for s > 1); "point-mass" starts at the mode and is not warm.
    """

    kind: str = "exact"
    s: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exact", "scaled-covariance", "point-mass"):
            raise ValueError(f"unknown warm start kind {self.kind!r}")
        if self.kind == "scaled-covariance" and self.s <= 0:
            raise ValueError("covariance factor must be positive")

    def warmness(self, d: int) -> float:
        if self.kind == "exact":
            return 1.0
        if self.kind == "scaled-covariance":
            return self.s ** (-d / 2.0) if self.s <= 1.0 else math.inf
        return math.inf

    def draw(self, target: GaussianTarget, n: int, rng: np.random.Generator) -> Array:
        if self.kind == "exact":
            return target.sample_exact(n, rng)
        if self.kind == "scaled-covariance":
            return math.sqrt(self.s) * target.sample_exact(n, rng)
        return np.zeros((n, target.d))


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_sidecar(path: str, cfg: ExperimentConfig, summary: dict, wall_time: float) -> None:
    payload = {
        "config_hash": cfg.config_hash(),
        "git_describe": _git_describe(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "wall_time_s": wall_time,
        "summary": summary,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple, np.ndarray)) else [value]


def fit_loglog_slope(x, y) -> float:
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    if x.size < 2:
        return math.nan
    return float(np.polyfit(x, y, 1)[0])


def gaussian_projected_std(target: GaussianTarget):
    """Exact std of the target along unit directions (rows)."""

    def stds(directions: Array) -> Array:
        solved = np.linalg.solve(target.precision, directions.T)
        return np.sqrt(np.einsum("nd,dn->n", directions, solved))

    return stds


def corollary_schedule(schedule: str, d: int, options: dict) -> tuple[float, int]:
    """(eta, K) for one grid point under the requested parameter schedule."""
    if schedule == "fixed":
        return float(options.get("eta", 0.4)), int(options.get("K", 1))
    tp = TheoryParams(
        L=float(options.get("L", 1.0)),
        gamma=float(options.get("gamma", 0.0)),
        d=d,
        M=float(options.get("M", math.e)),
        epsilon=float(options.get("epsilon_theory", 1.0 / math.e)),
        psi=float(options.get("psi", 1.0)),
        c=float(options.get("c", 1.0)),
        c_prime=float(options.get("c_prime", 2.0)),
    )
    if schedule == "corollary-mala":
        tuned = mala_step_size(tp)
    else:
        tuned = best_hmc_params(tp)
    return tuned.eta, tuned.K


def _mean_acceptance(
    target: TargetDensity,
    start: Array,
    eta: float,
    K: int,
    n_steps: int,
    rng: np.random.Generator,
) -> tuple[float, float, int]:
    """Mean acceptance, its 95% CI half-width from between-chain spread, and
    the gradient evaluations spent."""
    q = start
    flags = np.empty((n_steps, start.shape[0]), dtype=bool)
    for i in range(n_steps):
        step = batch_transition(target, q, eta, K, rng)
        q = step.positions
        flags[i] = step.accepted
    chain_means = flags.mean(axis=0)
    n_chains = start.shape[0]
    ci = 1.96 * float(chain_means.std(ddof=1)) / math.sqrt(n_chains)
    return float(flags.mean()), ci, n_steps * n_chains * (K + 1)


def calibrate_acceptance_constant(
    d: int,
    seed: int,
    target_accept: float = 0.85,
    n_chains: int = 64,
    n_steps: int = 16,
) -> float:
    """Pilot bisection for a in eta = a d^(-1/4): acceptance falls as a grows."""
    lo, hi = 0.2, 2.0
    target_g = GaussianTarget.standard(d)
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        rng = _rng(seed, 999, int(mid * 1e6) % (2**31))
        start = target_g.sample_exact(n_chains, rng)
        acc, _, _ = _mean_acceptance(
            target_g, start, mid * d**-0.25, math.ceil(d**0.25), n_steps, rng
        )
        if acc > target_accept:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def run_acceptance_scaling(cfg: ExperimentConfig):
    """Mean acceptance across dimensions under eta = a d^(-1/4), K = ceil(d^(1/4)),
    or under a fixed (eta, K) control."""
    opts = cfg.options
    seed = cfg.seeds[0]
    n_chains = int(opts.get("n_chains", 160))
    n_steps = int(opts.get("n_steps", 32))
    a = opts.get("accept_constant")
    if a is None and cfg.schedule == "corollary-hmc":
        a = calibrate_acceptance_constant(
            cfg.dims[0], seed, float(opts.get("pilot_target", 0.85))
        )
    rows = []
    for idx, d in enumerate(cfg.dims):
        if cfg.schedule == "fixed":
            eta, K = float(opts.get("eta", 0.4)), int(opts.get("K", 1))
        else:
            eta, K = float(a) * d**-0.25, math.ceil(d**0.25)
        rng = _rng(seed, idx)
        target = GaussianTarget.standard(d)
        start = target.sample_exact(n_chains, rng)
        acc, ci, grads = _mean_acceptance(target, start, eta, K, n_steps, rng)
        rows.append((d, eta, K, acc, ci, grads))
    header = ["d", "eta", "K", "accept_mean", "accept_ci", "grad_evals"]
    summary = {
        "accept_constant": a,
        "acceptance_range": max(r[3] for r in rows) - min(r[3] for r in rows),
    }
    return header, rows, summary


def run_mixing_estimate(cfg: ExperimentConfig):
    """Projected-TV decay along the chain from a warm start.

    Rows record the TV estimate at geometric checkpoints; the summary holds
    the first checkpoint at which the estimate fell below epsilon.  The
    estimator is biased upward by binning; it is a diagnostic, not a
    certificate.
    """
    opts = cfg.options
    seed = cfg.seeds[0]
    epsilon = float(opts.get("epsilon", 0.1))
    n_chains = int(opts.get("n_chains", 16384))
    step_cap = int(opts.get("step_cap", 1024))
    lazy = bool(opts.get("lazy", False))
    warm = WarmStartSpec(opts.get("warm_start", "scaled-covariance"), float(opts.get("warm_s", 0.5)))
    rows = []
    summary = {"epsilon": epsilon, "mixing_steps": {}, "warmness_M": {}}
    for idx, d in enumerate(cfg.dims):
        eta, K = corollary_schedule(cfg.schedule, d, opts)
        rng = _rng(seed, idx)
        target = GaussianTarget.standard(d)
        q = warm.draw(target, n_chains, rng)
        stds = gaussian_projected_std(target)
        checkpoints = []
        n = 32
        while n <= step_cap:
            checkpoints.append(n)
            n *= 2
        done_steps = 0
        grads = 0
        hit = None
        for ckpt in checkpoints:
            for _ in range(ckpt - done_steps):
                step = batch_transition(target, q, eta, K, rng, lazy=lazy)
                q = step.positions
                grads += int((~step.holds).sum()) * (K + 1)
            done_steps = ckpt
            tv = tv_projection_estimate(q, stds, rng)
            rows.append((d, ckpt, tv, grads))
            if tv <= epsilon:
                hit = ckpt
                break
        if hit is None:
            raise BudgetExhausted(
                f"TV stayed above {epsilon} within {step_cap} steps at d={d}"
            )
        summary["mixing_steps"][d] = hit
        summary["warmness_M"][d] = warm.warmness(d)
    header = ["d", "n_steps", "tv_estimate", "grad_evals"]
    return header, rows, summary


def _iact_rows(target, eta, K, n_iters, n_rep, streams, method, d, seeds):
    """IACT rows of n_rep chains per seed, all run as one block; seeds[i] draws from streams[i].

    Returns one list of rows per seed.
    """
    q = np.concatenate([target.sample_exact(n_rep, rng) for rng in streams])
    series_q1 = np.empty((n_iters, q.shape[0]))
    series_qq = np.empty((n_iters, q.shape[0]))
    for i in range(n_iters):
        step = batch_transition(target, q, eta, K, streams)
        q = step.positions
        series_q1[i] = q[:, 0]
        series_qq[i] = (q * q).sum(axis=1)
    rows = []
    for j, seed in enumerate(seeds):
        chains = range(j * n_rep, (j + 1) * n_rep)
        rows.append([])
        for stat, series in (("q1", series_q1), ("qnorm2", series_qq)):
            iact = float(np.mean([integrated_autocorr_time(series[:, r]) for r in chains]))
            rows[-1].append((d, method, stat, eta, K, iact, (K + 1) * iact, seed))
    return rows


def run_mala_vs_hmc(cfg: ExperimentConfig):
    """Gradient evaluations per effective sample at matched budgets.

    The K > 1 schedule comes from the HMC corollary and the K = 1 control
    from the MALA corollary; the free constants c, c' are the calibrated
    defaults recorded in the summary.  Each method runs the chains of every
    seed as one block.
    """
    opts = cfg.options
    d = cfg.dims[-1]
    target = GaussianTarget.standard(d)
    budget = int(opts.get("grad_budget", 120_000))
    n_rep = int(opts.get("n_rep", 4))
    eta_h, K_h = corollary_schedule("corollary-hmc", d, opts)
    eta_m, K_m = corollary_schedule("corollary-mala", d, opts)
    hmc = _iact_rows(target, eta_h, K_h, budget // (K_h + 1), n_rep,
                     [_rng(seed, 0) for seed in cfg.seeds], "hmc", d, cfg.seeds)
    mala = _iact_rows(target, eta_m, K_m, budget // (K_m + 1), n_rep,
                      [_rng(seed, 1) for seed in cfg.seeds], "mala", d, cfg.seeds)
    rows = [row for h, m in zip(hmc, mala) for row in h + m]  # seed-major, hmc then mala
    header = ["d", "method", "statistic", "eta", "K", "iact", "grad_evals_per_ess", "seed"]
    ratios = {}
    for stat in ("q1", "qnorm2"):
        per_seed = []
        for seed in cfg.seeds:
            cost = {
                r[1]: r[6] for r in rows if r[7] == seed and r[2] == stat
            }
            per_seed.append(cost["mala"] / cost["hmc"])
        ratios[stat] = float(np.median(per_seed))
    summary = {
        "hmc": {"eta": eta_h, "K": K_h},
        "mala": {"eta": eta_m, "K": K_m},
        "median_cost_ratio_mala_over_hmc": ratios,
    }
    return header, rows, summary


def run_energy_scaling(cfg: ExperimentConfig):
    """Single-leapfrog energy-error moment against step-size and dimension."""
    opts = cfg.options
    seed = cfg.seeds[0]
    ell = int(opts.get("ell", 2))
    n_mc = int(opts.get("n_mc", 100_000))
    etas = [float(e) for e in _as_list(opts.get("etas", np.geomspace(0.02, 0.2, 7)))]
    eta_fixed = float(opts.get("eta_fixed", 0.05))
    d_fixed = int(opts.get("d_fixed", 64))
    rows = []
    point = 0
    for eta in etas:
        target = GaussianTarget.standard(d_fixed)
        rng = _rng(seed, point)
        rep = energy_error_moment(
            target, eta, ell, n_mc, exact_gaussian_sampler(target, rng), rng
        )
        rows.append(("eta-sweep", d_fixed, eta, ell, rep.empirical, rep.std_error, rep.bound))
        point += 1
    for d in cfg.dims:
        target = GaussianTarget.standard(d)
        rng = _rng(seed, point)
        rep = energy_error_moment(
            target, eta_fixed, ell, n_mc, exact_gaussian_sampler(target, rng), rng
        )
        rows.append(("d-sweep", d, eta_fixed, ell, rep.empirical, rep.std_error, rep.bound))
        point += 1
    header = ["sweep", "d", "eta", "ell", "empirical", "std_error", "bound"]
    eta_rows = [r for r in rows if r[0] == "eta-sweep"]
    d_rows = [r for r in rows if r[0] == "d-sweep"]
    summary = {
        "eta_slope": fit_loglog_slope([r[2] for r in eta_rows], [r[4] for r in eta_rows]),
        "d_slope": fit_loglog_slope([r[1] for r in d_rows], [r[4] for r in d_rows]),
    }
    return header, rows, summary


def _analysis_target(cfg: ExperimentConfig) -> TargetDensity:
    """The target named by cfg.target, with `dim` defaulting to dims[0]."""
    return build_target({"dim": cfg.dims[0], **cfg.target})


def overlap_report(target: TargetDensity, q0, direction, separation, K: int, eta: float,
                   n_mc: int, rng: np.random.Generator) -> dict:
    """KL between the proposals from q0 and q0 + separation * unit direction,
    with the Pinsker TV and both lemma bounds.  A None direction is drawn
    from rng; a None separation is K eta / 64."""
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (target.d,):
        raise ValueError(f"q0 must have shape ({target.d},), got {q0.shape}")
    if direction is None:
        direction = rng.standard_normal(target.d)
    norm = np.linalg.norm(direction)
    if not norm > 0:
        raise ValueError("direction must be a nonzero vector")
    direction = direction / norm
    sep = K * eta / 64.0 if separation is None else float(separation)
    kl, se = kl_between_proposals(target, q0, q0 + sep * direction, K, eta, n_mc, rng)
    gamma = target.gamma if target.gamma is not None else 0.0
    return {
        "kl": kl,
        "std_error": se,
        "pinsker_tv": math.sqrt(max(kl, 0.0) / 2.0),
        "lemma_bound": kl_lemma_bound(K, eta, gamma, target.smoothness),
        "lemma_bound_proof_form": kl_proof_form_bound(K, eta, gamma, target.smoothness),
        "separation": sep,
    }


def run_overlap_check(cfg: ExperimentConfig):
    """KL between proposals from two nearby starts, with the lemma bounds."""
    opts = cfg.options
    target = _analysis_target(cfg)
    K, eta = int(opts.get("K", 2)), float(opts.get("eta", 0.1))
    rep = overlap_report(target, opts.get("q0", np.zeros(target.d)), None, opts.get("separation"),
                         K, eta, int(opts.get("n_mc", 20_000)), _rng(cfg.seeds[0], 0))
    header = ["d", "K", "eta", "separation", "kl", "std_error",
              "pinsker_tv", "lemma_bound", "lemma_bound_proof_form"]
    row = (target.d, K, eta, *(rep[h] for h in header[3:]))
    return header, [row], {"kl": rep["kl"], "std_error": rep["std_error"]}


def lemma_reports(target: TargetDensity, ells, eta: float, n_mc: int, rng: np.random.Generator,
                  t: float | None = None, sampler_eta: float = 0.1,
                  sampler_warmup: int = 2000) -> list[MomentReport]:
    """Every moment check at each order in ells, in report order.  Draws are
    exact for Gaussian targets and come from HMC runs at sampler_eta
    otherwise; the continuous-drift checks run when t is given."""
    if isinstance(target, GaussianTarget):
        sampler = exact_gaussian_sampler(target, rng)
    else:
        sampler = chain_stationary_sampler(target, rng, eta=sampler_eta, warmup=sampler_warmup)
    x = sampler(1)[0]
    reports = []
    for ell in ells:
        even = ell + ell % 2
        reports += [
            check_grad_norm_moment(target, ell, n_mc, sampler),
            check_php_moment(target, x, ell, n_mc, rng),
            check_gradhp_moment(target, even, n_mc, sampler, rng),
            energy_error_moment(target, eta, even, n_mc, sampler, rng),
        ]
        if target.has_third and target.d <= 16:
            reports += check_chaos_moments(target, x, ell, n_mc, rng)
        if t is not None:
            reports += check_dynamics_diffs(target, t, ell, n_mc, sampler, rng)
    return reports


def run_lemma_suite(cfg: ExperimentConfig):
    """All moment checks at the configured orders, one row per report."""
    opts = cfg.options
    reports = lemma_reports(
        _analysis_target(cfg), [int(e) for e in _as_list(opts.get("ells", (2, 4)))],
        float(opts.get("eta", 0.05)), int(opts.get("n_mc", 50_000)), _rng(cfg.seeds[0], 0),
        t=float(opts["t"]) if "t" in opts else None,
        sampler_eta=float(opts.get("sampler_eta", 0.1)),
        sampler_warmup=int(opts.get("sampler_warmup", 2000)),
    )
    header = ["quantity", "ell", "empirical", "std_error",
              "bound", "slack_ratio", "violated", "calibration"]
    rows = [tuple(getattr(rep, h) for h in header) for rep in reports]
    n_violated = sum(1 for r in rows if r[6])
    return header, rows, {"n_reports": len(rows), "n_violated": n_violated}


def run_tensor_report(cfg: ExperimentConfig):
    """Tensor-norm reports of the third derivative at sampled points."""
    opts = cfg.options
    target = _analysis_target(cfg)
    n_points = int(opts.get("n_points", 4))
    scale = float(opts.get("point_scale", 1.0))
    restarts = int(opts.get("restarts", 20))
    rng = _rng(cfg.seeds[0], 0)
    rows = []
    for i in range(n_points):
        q = scale * rng.standard_normal(target.d)
        rep = tensor_report(third_derivative_tensor(target, q), restarts=restarts, rng=rng)
        rows.append(
            (i, rep.norm_123, rep.norm_12_3, rep.norm_1_2_3_lower, rep.partition_ordering_ok)
        )
    header = ["point", "norm_123", "norm_12_3", "norm_1_2_3_lower", "partition_ordering_ok"]
    ok = all(r[4] for r in rows)
    return header, rows, {"all_orderings_ok": ok}


_RUNNERS = {
    "acceptance-scaling": run_acceptance_scaling,
    "energy-scaling": run_energy_scaling,
    "mixing-estimate": run_mixing_estimate,
    "overlap-check": run_overlap_check,
    "lemma-suite": run_lemma_suite,
    "tensor-report": run_tensor_report,
    "mala-vs-hmc": run_mala_vs_hmc,
}


def run_experiment(cfg: ExperimentConfig, out: str | None = None):
    """Dispatch an experiment; write CSV and sidecar when out is given."""
    started = time.monotonic()
    header, rows, summary = _RUNNERS[cfg.name](cfg)
    if out is not None:
        write_csv(out, header, rows)
        write_sidecar(out + ".json", cfg, summary, time.monotonic() - started)
    return header, rows, summary
