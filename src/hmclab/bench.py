"""Experiment runners reproducing the scaling behaviour at desk scale.

Each experiment consumes an ExperimentConfig, derives one RNG stream per
grid point from (seed, point index) through `kernel.chain_rng`, so results
do not depend on execution order, and emits CSV rows plus a JSON summary
sidecar with the config hash, git description, Python, numpy and SciPy
versions (SciPy's is null when it is not installed), wall time and max
RSS.  Outputs are bit-identical across reruns with a fixed seed.

The multi-point runners split their work into independent units, which
`_map_units` runs in forked worker processes, one per usable core:
acceptance-scaling runs one unit per d (after the acceptance constant is
calibrated in the caller), energy-scaling one per (sweep, d, eta) point,
mixing-estimate one per d, and mala-vs-hmc one for the HMC block and one for
the MALA block.  The pool runs only with at least two units and two usable
cores, on platforms with `os.fork` and `os.sched_getaffinity` (so not on
macOS or Windows), and not inside a daemonic process; otherwise the units run
in the caller.  Rows and summaries are assembled in unit order and each unit
draws only from its own streams, so outputs are the same bytes either way.
The single-unit runners (overlap-check, lemma-suite, tensor-report) run in
the caller.  `overlap_report`, `lemma_reports` and `tensors.tensor_report`
compute the analyses that the runners and `hmclab overlap|lemmas|tensor`
print.  Every runner builds its target from cfg.target through `_target`,
and every stationary draw comes from `moments._stationary_sampler`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from .config import TARGET_KEYS, ExperimentConfig, build_target, target_family
from .errors import BudgetExhausted
from .diagnostics import integrated_autocorr_time, tv_projection_estimate
from .kernel import _drive, chain_rng
from .leapfrog import _check_points, _check_schedule, _check_time
from .moments import (
    MomentReport,
    _chaos_check,
    _dynamics_check,
    _energy_check,
    _grad_norm_check,
    _gradhp_check,
    _monte_carlo,
    _php_check,
    _require_sizes,
    _stationary_sampler,
    energy_error_moment,
)
from .overlap import kl_between_proposals, kl_lemma_bound, kl_proof_form_bound
from .targets import GaussianTarget, TargetDensity
from .tensors import tensor_report, third_derivative_tensor
from .tuning import COROLLARY_CONSTANTS, TheoryParams, best_hmc_params, mala_step_size

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


def _target(cfg: ExperimentConfig, d: int) -> TargetDensity:
    """The target named by cfg.target, with `dim` defaulting to the grid point's d
    when its family declares `dim` (two-layer does not)."""
    dim = {"dim": d} if "dim" in TARGET_KEYS[target_family(cfg.target)] else {}
    return build_target({**dim, **cfg.target})


def _map_units(fn, units) -> list:
    """[fn(*u) for u in units], in unit order, on every usable core.

    With two units or more and two usable cores or more, the units run in a
    pool of forked worker processes, one per core up to one per unit; a
    worker starts from a copy of this process, so it needs no imports and
    computes what the caller would, bit for bit.  fn must be a module-level
    function and the units and results picklable.  The exception of the
    first failing unit in unit order is raised here, as a serial run would
    raise it, and the units not yet handed to a worker are cancelled.  Platforms without
    fork or CPU affinity (macOS, Windows) and daemonic processes, which may
    not have children, run the units in this process.
    """
    n_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    # a daemonic process was started by multiprocessing, so the module is loaded there
    mp = sys.modules.get("multiprocessing")
    if (len(units) < 2 or n_cpus < 2 or not hasattr(os, "fork")
            or (mp is not None and mp.current_process().daemon)):
        return [fn(*u) for u in units]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(len(units), n_cpus),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(fn, *u) for u in units]
        try:
            return [f.result() for f in futures]
        finally:
            for f in futures:
                f.cancel()


@functools.cache
def _git_describe() -> str:
    """`git describe` of the checkout hmclab runs from, once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, cwd=os.path.dirname(__file__),
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


def _max_rss_mb() -> dict | None:
    """Max RSS in MB of this process and of the largest of its finished children
    (the units' workers among them), or None where `resource` does not exist."""
    try:
        import resource
    except ImportError:
        return None
    per_mb = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0  # ru_maxrss in B or kB
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / per_mb,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / per_mb}


@functools.cache
def _scipy_version() -> str | None:
    """SciPy's installed version, once per process without importing it; None when
    SciPy is not installed (hmclab runs without it)."""
    from importlib import metadata

    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return None


def write_sidecar(path: str, cfg: ExperimentConfig, summary: dict, wall_time: float) -> None:
    payload = {
        "config_hash": cfg.config_hash(),
        "git_describe": _git_describe(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": _scipy_version()},
        "wall_time_s": wall_time,
        "summary": summary,
    }
    max_rss = _max_rss_mb()
    if max_rss is not None:
        payload["max_rss_mb"] = max_rss
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)


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


def corollary_schedule(schedule: str, target: TargetDensity,
                       cfg: ExperimentConfig) -> tuple[float, int]:
    """(eta, K) for one grid point: cfg's eta and K under the fixed schedule, else
    the HMC or MALA corollary at the target's dimension and declared L and gamma."""
    if schedule == "fixed":
        return float(cfg.option("eta")), int(cfg.option("K"))
    if target.gamma is None:
        raise ValueError("target declares no gamma; estimate it first")
    tp = TheoryParams(L=target.smoothness, gamma=target.gamma, d=target.d,
                      **COROLLARY_CONSTANTS)
    tuned = mala_step_size(tp) if schedule == "corollary-mala" else best_hmc_params(tp)
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
    the gradient evaluations of the paper's (K+1) cost model; the chains
    run non-lazily from a copy of start, so they evaluate n_chains *
    (1 + n_steps * K) gradient rows."""
    n_chains = start.shape[0]
    flags = np.array([s.accepted for s in
                      _drive(target, np.array(start, dtype=float), eta, K, [rng], False, n_steps)])
    chain_means = flags.mean(axis=0)
    ci = 1.96 * float(chain_means.std(ddof=1)) / math.sqrt(n_chains)
    return float(flags.mean()), ci, n_steps * n_chains * (K + 1)


def calibrate_acceptance_constant(target: TargetDensity, seed: int,
                                  target_accept: float = 0.85) -> float:
    """Pilot bisection for a in eta = a d^(-1/4) on target: acceptance falls as a grows.
    Each of its 12 rounds runs 64 chains from stationary starts for 16 transitions."""
    lo, hi = 0.2, 2.0
    d = target.d
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        rng = chain_rng(seed, 999, int(mid * 1e6) % (2**31))
        start = _stationary_sampler(target, rng)(64)
        acc, _, _ = _mean_acceptance(target, start, mid * d**-0.25, math.ceil(d**0.25), 16, rng)
        if acc > target_accept:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _acceptance_point(cfg: ExperimentConfig, a, idx: int) -> tuple:
    """The acceptance-scaling row of grid point idx, from its own stream."""
    target = _target(cfg, cfg.dims[idx])
    d = target.d
    if cfg.schedule == "fixed":
        eta, K = corollary_schedule("fixed", target, cfg)
    else:
        eta, K = float(a) * d**-0.25, math.ceil(d**0.25)
    rng = chain_rng(cfg.seeds[0], idx)
    start = _stationary_sampler(target, rng)(int(cfg.option("n_chains")))
    acc, ci, grads = _mean_acceptance(target, start, eta, K, int(cfg.option("n_steps")), rng)
    return d, eta, K, acc, ci, grads


def run_acceptance_scaling(cfg: ExperimentConfig):
    """Mean acceptance across dimensions under eta = a d^(-1/4), K = ceil(d^(1/4)),
    or under a fixed (eta, K) control."""
    a = cfg.option("accept_constant")
    if a is None and cfg.schedule == "corollary-hmc":
        a = calibrate_acceptance_constant(_target(cfg, cfg.dims[0]), cfg.seeds[0])
    rows = _map_units(_acceptance_point, [(cfg, a, idx) for idx in range(len(cfg.dims))])
    header = ["d", "eta", "K", "accept_mean", "accept_ci", "grad_evals"]
    summary = {
        "accept_constant": a,
        "acceptance_range": max(r[3] for r in rows) - min(r[3] for r in rows),
    }
    return header, rows, summary


def _mixing_point(cfg: ExperimentConfig, idx: int) -> tuple[list, int]:
    """Grid point idx's mixing-estimate rows and its first checkpoint with the TV
    estimate at most epsilon; BudgetExhausted when no checkpoint up to step_cap
    reaches it."""
    epsilon = float(cfg.option("epsilon"))
    step_cap = int(cfg.option("step_cap"))
    lazy = bool(cfg.option("lazy"))
    warm = WarmStartSpec(cfg.option("warm_start"), float(cfg.option("warm_s")))
    target = _target(cfg, cfg.dims[idx])
    d = target.d
    eta, K = corollary_schedule(cfg.schedule, target, cfg)
    rng = chain_rng(cfg.seeds[0], idx)
    q = warm.draw(target, int(cfg.option("n_chains")), rng)
    stds = gaussian_projected_std(target)
    done_steps = 0
    grads = 0
    rows = []
    ckpt = 32
    while ckpt <= step_cap:  # checkpoints at 32, 64, 128, ... steps
        # the run steps q in place and draws only its own steps from rng, so the TV
        # projections keep their draws; no step outlives the sum
        grads += (K + 1) * sum(int((~s.holds).sum()) for s in
                               _drive(target, q, eta, K, [rng], lazy, ckpt - done_steps))
        done_steps = ckpt
        tv = tv_projection_estimate(q, stds, rng)
        rows.append((d, ckpt, tv, grads))
        if tv <= epsilon:
            return rows, ckpt
        ckpt *= 2
    raise BudgetExhausted(f"TV stayed above {epsilon} within {step_cap} steps at d={d}")


def run_mixing_estimate(cfg: ExperimentConfig):
    """Projected-TV decay along the chain from a warm start.

    Rows record the TV estimate at geometric checkpoints; the summary holds
    the first checkpoint at which the estimate fell below epsilon.  The
    estimator is biased upward by binning; it is a diagnostic, not a
    certificate.
    """
    epsilon = float(cfg.option("epsilon"))
    if not 0 < epsilon < 1:  # before any unit runs; NaN fails too
        raise ValueError(f"mixing-estimate needs epsilon in (0, 1), got {epsilon}")
    warm = WarmStartSpec(cfg.option("warm_start"), float(cfg.option("warm_s")))
    rows = []
    summary = {"epsilon": epsilon, "mixing_steps": {}, "warmness_M": {}}
    results = _map_units(_mixing_point, [(cfg, idx) for idx in range(len(cfg.dims))])
    for d_rows, hit in results:
        d = d_rows[0][0]  # the built target's d
        rows += d_rows
        summary["mixing_steps"][d] = hit
        summary["warmness_M"][d] = warm.warmness(d)
    header = ["d", "n_steps", "tv_estimate", "grad_evals"]
    return header, rows, summary


def _iact_rows(cfg: ExperimentConfig, method, eta, K, n_iters, key):
    """One list per seed of the IACT rows of n_rep chains on cfg's target at dims[0], all
    run as one block from stationary starts; seed i draws from the stream (seeds[i], key)."""
    target, n_rep = _target(cfg, cfg.dims[0]), int(cfg.option("n_rep"))
    streams = [chain_rng(seed, key) for seed in cfg.seeds]
    q = np.concatenate([_stationary_sampler(target, rng)(n_rep) for rng in streams])
    series_q1 = np.empty((n_iters, q.shape[0]))
    series_qq = np.empty((n_iters, q.shape[0]))
    for i, _ in enumerate(_drive(target, q, eta, K, streams, False, n_iters)):  # steps q
        series_q1[i] = q[:, 0]
        series_qq[i] = (q * q).sum(axis=1)
    rows = []
    for j, seed in enumerate(cfg.seeds):
        chains = range(j * n_rep, (j + 1) * n_rep)
        rows.append([])
        for stat, series in (("q1", series_q1), ("qnorm2", series_qq)):
            iact = float(np.mean([integrated_autocorr_time(series[:, r]) for r in chains]))
            rows[-1].append((target.d, method, stat, eta, K, iact, (K + 1) * iact, seed))
    return rows


def run_mala_vs_hmc(cfg: ExperimentConfig):
    """Gradient evaluations per effective sample at matched budgets.

    The K > 1 schedule comes from the HMC corollary and the K = 1 control
    from the MALA corollary, both at `COROLLARY_CONSTANTS` (c = 1, c' = 2);
    the summary records each method's (eta, K).  Each method runs the chains
    of every seed as one block.
    """
    target = _target(cfg, cfg.dims[0])
    budget = int(cfg.option("grad_budget"))
    eta_h, K_h = corollary_schedule("corollary-hmc", target, cfg)
    eta_m, K_m = corollary_schedule("corollary-mala", target, cfg)
    for method, K in (("hmc", K_h), ("mala", K_m)):
        if budget // (K + 1) < 2:
            raise ValueError(f"grad_budget = {budget} gives {method} (K = {K}) fewer than "
                             f"2 transitions; IACT needs at least 2")
    hmc, mala = _map_units(_iact_rows, [
        (cfg, "hmc", eta_h, K_h, budget // (K_h + 1), 0),
        (cfg, "mala", eta_m, K_m, budget // (K_m + 1), 1),
    ])
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


def _energy_point(cfg: ExperimentConfig, point: int, sweep: str, d: int, eta: float) -> tuple:
    """The energy-scaling row of grid point `point`, from its own stream."""
    target, ell = _target(cfg, d), int(cfg.option("ell"))
    rng = chain_rng(cfg.seeds[0], point)
    rep = energy_error_moment(target, eta, ell, int(cfg.option("n_mc")),
                              _stationary_sampler(target, rng), rng)
    return sweep, target.d, eta, ell, rep.empirical, rep.std_error, rep.bound


def run_energy_scaling(cfg: ExperimentConfig):
    """Single-leapfrog energy-error moment against step-size and dimension."""
    etas = [float(e) for e in np.atleast_1d(cfg.option("etas"))]
    for eta in etas:  # before any unit runs; the slope fit would be the first to fail
        if not 0 < eta < math.inf:  # NaN fails both comparisons
            raise ValueError(f"energy-scaling needs every entry of etas positive and finite, "
                             f"got {eta}")
    eta_fixed, d_fixed = 0.05, 64  # the d-sweep's step size, the eta-sweep's dimension
    if _target(cfg, d_fixed).gamma is None:  # the bound's gamma, before any unit runs
        raise ValueError(f"energy-scaling needs gamma; {target_family(cfg.target)} declares none")
    points = [("eta-sweep", d_fixed, eta) for eta in etas]
    points += [("d-sweep", d, eta_fixed) for d in cfg.dims]
    rows = _map_units(_energy_point, [(cfg, point, *p) for point, p in enumerate(points)])
    header = ["sweep", "d", "eta", "ell", "empirical", "std_error", "bound"]
    eta_rows = [r for r in rows if r[0] == "eta-sweep"]
    d_rows = [r for r in rows if r[0] == "d-sweep"]
    summary = {
        "eta_slope": fit_loglog_slope([r[2] for r in eta_rows], [r[4] for r in eta_rows]),
        "d_slope": fit_loglog_slope([r[1] for r in d_rows], [r[4] for r in d_rows]),
    }
    return header, rows, summary


def overlap_report(target: TargetDensity, q0, direction, separation, K: int, eta: float,
                   n_mc: int, rng: np.random.Generator) -> dict:
    """KL between the proposals from q0 and q0 + separation * unit direction,
    with the Pinsker TV and both lemma bounds.  A None direction is drawn
    from rng; a None separation is K eta / 64."""
    q0 = np.asarray(q0, dtype=float)
    points = {"q0": q0} if direction is None else {"q0": q0, "direction": direction}
    for name, x in points.items():
        if np.shape(x) != (target.d,):
            raise ValueError(f"{name} must have shape ({target.d},), got {np.shape(x)}")
    _check_points(target.d, **points)
    if separation is not None and not 0 <= separation < math.inf:  # NaN fails both
        raise ValueError(f"separation must be finite and non-negative, got {separation}")
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
    target = _target(cfg, cfg.dims[0])
    K, eta = int(cfg.option("K")), float(cfg.option("eta"))
    q0 = cfg.option("q0")
    rep = overlap_report(target, np.zeros(target.d) if q0 is None else q0, None, None,
                         K, eta, int(cfg.option("n_mc")), chain_rng(cfg.seeds[0], 0))
    header = ["d", "K", "eta", "separation", "kl", "std_error",
              "pinsker_tv", "lemma_bound", "lemma_bound_proof_form"]
    row = (target.d, K, eta, *(rep[h] for h in header[3:]))
    return header, [row], {"kl": rep["kl"], "std_error": rep["std_error"]}


def lemma_reports(target: TargetDensity, ells, eta: float, n_mc: int, rng: np.random.Generator,
                  t: float | None = None, sampler_warmup: int = 2000) -> list[MomentReport]:
    """Every moment check at each order in ells, in report order, from one
    Monte Carlo pass: every check and every order reads the same n_mc draws
    of (q, p), and grad f(q) is evaluated once per draw.  Draws are exact for
    Gaussian targets and come from HMC runs at eta = 0.1 otherwise; the fixed
    point x of the p'Hp and chaos checks is the sampler's first draw.  The
    energy-error check, and the continuous-drift checks when t is given, need
    the target's gamma and run only when it declares one.  n_mc, every ell,
    eta and t are checked before the sampler warms up or draws."""
    for ell in ells:
        _require_sizes(ell, n_mc)
    _check_schedule(eta, 1)  # the energy-error check's one leapfrog step
    if t is not None:
        _check_time(t)
    sampler = _stationary_sampler(target, rng, sampler_warmup)
    x = sampler(1)[0]
    checks = [_grad_norm_check(target), _php_check(target, x), _gradhp_check(target)]
    if target.gamma is not None:
        checks.append(_energy_check(target, eta))
    if target.has_third and target.d <= 16:
        checks.append(_chaos_check(target, x))
    if t is not None and target.gamma is not None:
        checks.append(_dynamics_check(target, t))
    return list(_monte_carlo(target, ells, n_mc, sampler, rng, checks))


def run_lemma_suite(cfg: ExperimentConfig):
    """All moment checks at the configured orders, one row per report."""
    t = cfg.option("t")
    reports = lemma_reports(
        _target(cfg, cfg.dims[0]), [int(e) for e in np.atleast_1d(cfg.option("ells"))],
        float(cfg.option("eta")), int(cfg.option("n_mc")), chain_rng(cfg.seeds[0], 0),
        t=None if t is None else float(t), sampler_warmup=int(cfg.option("sampler_warmup")),
    )
    header = list(MomentReport.COLUMNS)
    rows = [tuple(getattr(rep, h) for h in header) for rep in reports]
    n_violated = sum(1 for rep in reports if rep.violated)
    return header, rows, {"n_reports": len(rows), "n_violated": n_violated}


def run_tensor_report(cfg: ExperimentConfig):
    """Tensor-norm reports of the third derivative at sampled points."""
    restarts = int(cfg.option("restarts"))
    target = _target(cfg, cfg.dims[0])
    rng = chain_rng(cfg.seeds[0], 0)
    reports = []
    for _ in range(int(cfg.option("n_points"))):
        q = rng.standard_normal(target.d)
        reports.append(tensor_report(third_derivative_tensor(target, q), restarts=restarts, rng=rng))
    header = ["point", "norm_123", "norm_12_3", "norm_1_2_3_lower", "partition_ordering_ok"]
    rows = [(i, *(getattr(rep, h) for h in header[1:])) for i, rep in enumerate(reports)]
    ok = all(rep.partition_ordering_ok for rep in reports)
    return header, rows, {"all_orderings_ok": ok,
                          "max_sweeps": [rep.max_sweeps for rep in reports],
                          "capped_restarts": [rep.capped_restarts for rep in reports]}


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
