"""Monte Carlo verification of the moment bounds behind the acceptance-rate
analysis, including the single-leapfrog Hamiltonian-error moment.

Each check draws from (approximately) the stationary coupling mu x N(0, I),
estimates an ell-th moment norm [E X^power]^(1/root) with a delta-method
standard error, and reports it next to the corresponding theoretical bound.
The dimension-like constants are

    Upsilon_ell = Upsilon + 2 (ell - 1) L      (Upsilon = Hessian trace bound)
    d_ell       = d + 2 (ell - 1).

Bounds stated without a universal constant (gradient-norm, quadratic-form
moments) are hard.  The rest are stated here with their universal constant
c = 1, recorded as each report's calibration, and the report's slack ratio
is the measurement.

Every check needs n_mc >= 1 and ell >= 1 and is one chunked pass,
`_monte_carlo`: per chunk of 10,000 draws it takes the sampler's positions,
then the momenta, and makes one `add` per accumulator.  Each check's reports,
and so the energy-scaling CSV bytes, depend on this order.  The lemma suite
(`bench.lemma_reports`) runs every check at every order in one such pass:
all its reports read the same draws, and grad f(q), and grad^2 f(q) p when a
check reads it, are evaluated once per draw, so a report does not depend on
which other checks or orders run.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .kernel import _drive
from .leapfrog import _check_schedule, _check_time, _orbit, continuous_flow
from .targets import TargetDensity
from .tuning import d_ell

Array = np.ndarray


def upsilon_ell(target: TargetDensity, ell: int) -> float:
    if target.trace_bound is None:
        raise ValueError("target declares no Hessian trace bound")
    return target.trace_bound + 2.0 * (ell - 1) * target.smoothness


def _log_sum(log_terms: Array) -> float:
    """log sum exp(log_terms) of a 1-D array, with -inf for an empty selection.

    SciPy 1.17's logsumexp algorithm, bit for bit, without importing SciPy:
    the m entries equal to the maximum a are kept out of the shifted sum s,
    and the result is log1p(s / m) + log(m) + a, or log(sum exp) when that
    is not finite (every entry -inf, or an overflow).
    """
    if not log_terms.size:
        return -math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = log_terms.max()
        at_top = log_terms == top
        count = np.float64(np.count_nonzero(at_top))
        rest = np.exp(np.where(at_top, -np.inf, log_terms) - top).sum() / count
        out = np.log1p(rest) + np.log(count) + top
        if not np.isfinite(out):
            out = np.log(np.exp(log_terms).sum())
    return float(out)


class MomentAccumulator:
    """Streaming estimate of [E X^power]^(1/root) in log space.

    Accumulates log sums of X^power separately for the positive and the
    negative terms (powers of signed quantities stay exact) plus the second
    moment needed for the standard error.  Splitting the input across `add`
    calls changes the result only by rounding.  Non-finite input is rejected.
    """

    def __init__(self, power: int, root: int):
        self.power = power
        self.root = root
        self.n = 0
        self._log_pos = -math.inf
        self._log_neg = -math.inf
        self._log_sq = -math.inf

    def add(self, x: Array) -> None:
        x = np.asarray(x, dtype=float).ravel()
        if not np.isfinite(x).all():
            raise ValueError("moment input contains non-finite values")
        with np.errstate(divide="ignore"):
            log_term = self.power * np.log(np.abs(x))
        sign = np.sign(x) ** self.power
        self._log_pos = np.logaddexp(self._log_pos, _log_sum(log_term[sign > 0]))
        self._log_neg = np.logaddexp(self._log_neg, _log_sum(log_term[sign < 0]))
        self._log_sq = np.logaddexp(self._log_sq, _log_sum(2.0 * log_term))
        self.n += x.size

    def _log_mean_power(self) -> tuple[float, float]:
        """(sign, log |E[X^power]|); sign 0 encodes an exactly zero mean."""
        hi = max(self._log_pos, self._log_neg)
        if hi == -math.inf:
            return 0.0, -math.inf
        net = math.exp(self._log_pos - hi) - math.exp(self._log_neg - hi)
        if net == 0.0:
            return 0.0, -math.inf
        return math.copysign(1.0, net), hi + math.log(abs(net)) - math.log(self.n)

    def norm_and_se(self) -> tuple[float, float]:
        sign, log_m = self._log_mean_power()
        if sign == 0.0:
            return 0.0, 0.0
        norm = sign * math.exp(log_m / self.root)
        # var(mean) = (E[X^2 power] - m^2) / n, all handled in log space
        log_second = self._log_sq - math.log(self.n)
        ratio = math.exp(min(2.0 * log_m - log_second, 0.0))
        if ratio >= 1.0:
            return norm, 0.0
        log_var = log_second + math.log1p(-ratio) - math.log(self.n)
        log_se = 0.5 * log_var - math.log(self.root) + (1.0 / self.root - 1.0) * log_m
        return norm, math.exp(log_se)


@dataclass(frozen=True)
class MomentReport:
    quantity: str
    ell: int
    empirical: float
    std_error: float
    bound: float
    n_samples: int
    #: universal constant in the bound: every check states its bound with c = 1
    calibration = 1.0
    #: a report's columns, in the order `to_json` and the lemma-suite CSV write them
    COLUMNS = ("quantity", "ell", "empirical", "std_error", "bound", "slack_ratio", "violated",
               "calibration")

    @property
    def slack_ratio(self) -> float:
        return self.bound / self.empirical if self.empirical > 0 else math.inf

    @property
    def violated(self) -> bool:
        """Empirical exceeds the bound by more than 3 relative standard errors."""
        if self.empirical <= 0.0:
            return False
        # bool(): a numpy bound makes the comparison a numpy.bool_, which json cannot write
        return bool(self.empirical > self.bound * (1.0 + 3.0 * self.std_error / self.empirical))

    def to_json(self) -> str:
        payload = {key: getattr(self, key) for key in self.COLUMNS}
        return json.dumps({**payload, "n_samples": self.n_samples}, indent=2)


def exact_gaussian_sampler(target, rng: np.random.Generator):
    """Exact stationary draws; only Gaussian targets support this."""
    return lambda n: target.sample_exact(n, rng)


def chain_stationary_sampler(
    target: TargetDensity,
    rng: np.random.Generator,
    eta: float,
    K: int = 1,
    warmup: int = 2000,
    n_chains: int = 64,
):
    """Approximate stationary draws from long Metropolized HMC runs.

    Runs n_chains coupled-seed chains from the origin past `warmup`, then
    harvests every 4th state.  The draws are correlated and only
    approximately stationary; checks using them say so in their
    documentation.  Bad counts are rejected before any draw.
    """
    for name, value, least in (("warmup", warmup, 0), ("n_chains", n_chains, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    state = np.zeros((n_chains, target.d))  # stepped in place by every run
    for _ in _drive(target, state, eta, K, [rng], False, warmup):
        pass

    def sample(n: int) -> Array:
        out = np.empty((n, target.d))
        # one run per call: callers draw from rng between calls, never during one
        for i, _ in enumerate(_drive(target, state, eta, K, [rng], False, 4 * -(-n // n_chains))):
            if i % 4 == 3:
                filled = i // 4 * n_chains
                out[filled : filled + n_chains] = state[: n - filled]
        return out

    return sample


def _stationary_sampler(target: TargetDensity, rng: np.random.Generator, warmup: int = 2000):
    """Exact draws where the target has `sample_exact`, else HMC draws at eta = 0.1."""
    if hasattr(target, "sample_exact"):
        return exact_gaussian_sampler(target, rng)
    return chain_stationary_sampler(target, rng, eta=0.1, warmup=warmup)


_CHUNK = 10_000


def _require_sizes(ell: int, n_mc: int) -> None:
    """Every check needs n_mc >= 1 and ell >= 1; tested before its bound or any draw."""
    for name, value in (("n_mc", n_mc), ("ell", ell)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _monte_carlo(target, ells, n_mc, sampler, rng, checks) -> tuple[MomentReport, ...]:
    """The one Monte Carlo pass behind every check and the lemma suite, in chunks
    of at most _CHUNK draws: q = sampler(b), then p = rng.standard_normal((b, d)),
    each None when its source is, and g = grad f(q) when q is drawn.  A check is
    (rows, specs): rows(q, p, g, hp) maps each of its quantities' names to that
    chunk's rows, where hp() is grad^2 f(q) p, evaluated once per chunk and only
    when a check reads it, and specs(ell) lists one (name, ell, power, root, bound) per
    report.  Each report, per ell in ells and then per check, has its own
    accumulator, which takes one `add` of its quantity per chunk.  Every spec,
    so every bound and the checks it makes, is built before the first draw."""
    specs = [spec for ell in ells for _, at in checks for spec in at(ell)]
    accs = [MomentAccumulator(power, root) for _, _, power, root, _ in specs]
    for done in range(0, n_mc, _CHUNK):
        b = min(_CHUNK, n_mc - done)
        q = None if sampler is None else sampler(b)
        p = None if rng is None else rng.standard_normal((b, target.d))
        g = None if q is None else target.gradient(q)
        hp = functools.cache(lambda: target.hessian_vec(q, p))
        values = {name: x for rows, _ in checks for name, x in rows(q, p, g, hp).items()}
        for (name, *_), acc in zip(specs, accs):
            acc.add(values[name])
    return tuple(MomentReport(name, ell, *acc.norm_and_se(), bound, acc.n)
                 for (name, ell, _, _, bound), acc in zip(specs, accs))


# Each check as (rows, specs) for _monte_carlo; the public checks and the lemma
# suite build their passes from these.  The signed checks (grad_hessian_p and
# the energy error) report at the even order ell + ell % 2.

def _grad_norm_check(target):
    return (lambda q, p, g, hp: {"grad_norm": np.linalg.norm(g, axis=-1)},
            lambda ell: [("grad_norm", ell, 2 * ell, ell, upsilon_ell(target, ell))])


def _php_check(target, x):
    return (lambda q, p, g, hp: {"p_hessian_p": (p * target.hessian_vec(x, p)).sum(axis=-1)},
            lambda ell: [("p_hessian_p", ell, ell, ell, upsilon_ell(target, ell))])


def _gradhp_check(target):
    def specs(ell):
        ell += ell % 2
        bound = math.sqrt(ell) * target.smoothness * math.sqrt(upsilon_ell(target, ell))
        return [("grad_hessian_p", ell, ell, ell, bound)]

    return (lambda q, p, g, hp: {"grad_hessian_p": (g * hp()).sum(axis=-1)}, specs)


def _chaos_check(target, x, norm_123=None, norm_12_3=None):
    """Tensor norms at x are computed here, once, when not supplied (small d only)."""
    if norm_123 is None or norm_12_3 is None:
        from .tensors import norm_12_3 as _n12_3, norm_frobenius_123 as _n123
        from .tensors import third_derivative_tensor

        tensor = third_derivative_tensor(target, x)
        norm_123 = _n123(tensor) if norm_123 is None else norm_123
        norm_12_3 = _n12_3(tensor) if norm_12_3 is None else norm_12_3

    def rows(q, p, g, hp):
        contraction = target.third_contract(x, p, p)
        return {"third_ppp": (contraction * p).sum(axis=-1),
                "third_pp_norm_sq": np.linalg.norm(contraction, axis=-1)}

    def specs(ell):
        b1 = ell**1.5 * norm_123 + math.sqrt(ell * target.d) * norm_12_3
        b2 = ell**2 * norm_123**2 + ell**2 * target.d * norm_12_3**2
        return [("third_ppp", ell, ell, ell, b1), ("third_pp_norm_sq", ell, 2 * ell, ell, b2)]

    return rows, specs


def _dynamics_check(target, t, tol=1e-9):
    L, g1 = target.smoothness, target.gamma + 1.0

    def rows(q0, p0, g, hp):
        qc, pc = continuous_flow(target, q0, p0, t, tol)
        hp0 = hp()
        hpc = target.hessian_vec(qc, pc)
        q_leap, _, _ = next(_orbit(target, q0, p0, 1, t, g))
        return {"php_drift": (pc * hpc).sum(axis=-1) - (p0 * hp0).sum(axis=-1),
                "hp_drift": np.linalg.norm(hpc - hp0, axis=-1),
                "leapfrog_position_gap": np.linalg.norm(qc - q_leap, axis=-1)}

    def specs(ell):
        dl = d_ell(target.d, ell)
        return [
            ("php_drift", ell, ell, ell, t * g1 * ell**1.5 * L**1.5 * math.sqrt(dl)),
            ("hp_drift", ell, 2 * ell, 2 * ell, t * g1 * math.sqrt(ell) * L**1.5 * math.sqrt(dl)),
            ("leapfrog_position_gap", ell, 2 * ell, 2 * ell,
             t**3 * math.sqrt(L) * math.sqrt(upsilon_ell(target, ell))),
        ]

    return rows, specs


def _energy_check(target, eta):
    def rows(q0, p0, g, hp):
        h0 = target.potential(q0) + 0.5 * (p0 * p0).sum(axis=-1)
        q1, p1, _ = next(_orbit(target, q0, p0, 1, eta, g))
        return {"leapfrog_energy_error": h0 - target.potential(q1) - 0.5 * (p1 * p1).sum(axis=-1)}

    def specs(ell):
        ell += ell % 2
        return [("leapfrog_energy_error", ell, ell, ell, energy_error_bound(target, eta, ell))]

    return rows, specs


def check_grad_norm_moment(target: TargetDensity, ell: int, n_mc: int, sampler) -> MomentReport:
    """[E ||grad f(q)||^(2 ell)]^(1/ell) against Upsilon_ell; constant-free."""
    _require_sizes(ell, n_mc)
    return _monte_carlo(target, [ell], n_mc, sampler, None, [_grad_norm_check(target)])[0]


def check_php_moment(
    target: TargetDensity, x: Array, ell: int, n_mc: int, rng: np.random.Generator
) -> MomentReport:
    """[E (p' H p)^ell]^(1/ell) at fixed x against Upsilon_ell; constant-free."""
    _require_sizes(ell, n_mc)
    x = np.asarray(x, dtype=float)
    return _monte_carlo(target, [ell], n_mc, None, rng, [_php_check(target, x)])[0]


def check_gradhp_moment(
    target: TargetDensity, ell: int, n_mc: int, sampler, rng: np.random.Generator
) -> MomentReport:
    """[E (grad f(q)' H_q p)^ell]^(1/ell) against sqrt(ell) L sqrt(Upsilon_ell).

    Constant-free; even ell only (the quantity is signed).
    """
    _require_sizes(ell, n_mc)
    if ell % 2 != 0:
        raise ValueError("the moment norm of this signed quantity needs even ell")
    return _monte_carlo(target, [ell], n_mc, sampler, rng, [_gradhp_check(target)])[0]


def check_chaos_moments(
    target: TargetDensity,
    x: Array,
    ell: int,
    n_mc: int,
    rng: np.random.Generator,
    norm_123: float | None = None,
    norm_12_3: float | None = None,
) -> tuple[MomentReport, MomentReport]:
    """Gaussian-chaos moments of the third derivative at x.

    Checks [E (T[p,p,p])^ell]^(1/ell) against
    ell^(3/2) ||T||_{123} + ell^(1/2) d^(1/2) ||T||_{12}{3} and
    [E ||T[p,p,.]||^(2 ell)]^(1/ell) against
    ell^2 ||T||_{123}^2 + ell^2 d ||T||_{12}{3}^2, that is, with the
    universal constant c = 1.  Tensor norms are computed here when not
    supplied (small d only).
    """
    _require_sizes(ell, n_mc)
    x = np.asarray(x, dtype=float)
    return _monte_carlo(target, [ell], n_mc, None, rng,
                        [_chaos_check(target, x, norm_123, norm_12_3)])


def check_dynamics_diffs(
    target: TargetDensity, t: float, ell: int, n_mc: int, sampler, rng: np.random.Generator,
    tol: float = 1e-9,
) -> tuple[MomentReport, MomentReport, MomentReport]:
    """Drift of Hessian quadratic forms along the flow, and the
    discrete-versus-continuous position gap after one leapfrog step of size t.

    Reports, in order:
      (i)   [E (p_t' H p_t - p_0' H p_0)^ell]^(1/ell)
                vs c t (gamma+1) ell^(3/2) L^(3/2) d_ell^(1/2);
      (ii)  [E ||H_t p_t - H_0 p_0||^(2 ell)]^(1/(2 ell))
                vs c t (gamma+1) ell^(1/2) L^(3/2) d_ell^(1/2);
      (iii) [E ||q_cont - q_leap||^(2 ell)]^(1/(2 ell))
                vs t^3 L^(1/2) Upsilon_ell^(1/2)   (constant-free),
    with the universal constant c = 1 in (i) and (ii).
    """
    _require_sizes(ell, n_mc)
    _check_time(t)
    if target.gamma is None:
        raise ValueError("target declares no gamma; estimate it first")
    return _monte_carlo(target, [ell], n_mc, sampler, rng, [_dynamics_check(target, t, tol)])


def energy_error_bound(target: TargetDensity, eta: float, ell: int) -> float:
    """(gamma+1) (eta^3 ell^(3/2) L^(3/2) d_ell^(1/2) + eta^5 ell^(1/2)
    L^(5/2) d_ell + eta^7 L^(7/2) d_ell^(3/2))."""
    _check_schedule(eta, 1)  # one leapfrog step of size eta
    if target.gamma is None:
        raise ValueError("target declares no gamma; estimate it first")
    L = target.smoothness
    dl = d_ell(target.d, ell)
    return (target.gamma + 1.0) * (
        eta**3 * ell**1.5 * L**1.5 * math.sqrt(dl)
        + eta**5 * math.sqrt(ell) * L**2.5 * dl
        + eta**7 * L**3.5 * dl**1.5
    )


def energy_error_moment(
    target: TargetDensity, eta: float, ell: int, n_mc: int, sampler, rng: np.random.Generator
) -> MomentReport:
    """Moment norm of the Hamiltonian error of one leapfrog step of size eta.

    [E (H(q0, p0) - H(q_eta, p_eta))^ell]^(1/ell) over the stationary
    coupling, against energy_error_bound, the bound with c = 1.  The bound
    uses the gamma+1 form, which stays informative at gamma=0.
    """
    _require_sizes(ell, n_mc)
    if ell % 2 != 0:
        raise ValueError("the energy error is signed; use even ell")
    return _monte_carlo(target, [ell], n_mc, sampler, rng, [_energy_check(target, eta)])[0]
