"""Monte Carlo verification of the moment bounds behind the acceptance-rate
analysis, including the single-leapfrog Hamiltonian-error moment.

Each check draws from (approximately) the stationary coupling mu x N(0, I),
estimates an ell-th moment norm [E X^power]^(1/root) with a delta-method
standard error, and reports it next to the corresponding theoretical bound.
The dimension-like constants are

    Upsilon_ell = Upsilon + 2 (ell - 1) L      (Upsilon = Hessian trace bound)
    d_ell       = d + 2 (ell - 1).

Bounds stated without a universal constant (gradient-norm, quadratic-form
moments) are hard; the rest carry a recorded calibration constant and the
report's slack ratio is the measurement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .kernel import batch_transition
from .leapfrog import _orbit, continuous_flow
from .targets import TargetDensity
from .tuning import d_ell

Array = np.ndarray


def upsilon_ell(target: TargetDensity, ell: int) -> float:
    if target.trace_bound is None:
        raise ValueError("target declares no Hessian trace bound")
    return target.trace_bound + 2.0 * (ell - 1) * target.smoothness


def _log_sum(log_terms: Array) -> float:
    """log sum exp(log_terms), with -inf for an empty selection."""
    return logsumexp(log_terms) if log_terms.size else -math.inf


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

    def mean_power(self) -> float:
        """Signed E[X^power]; may overflow for extreme inputs, prefer norm_and_se."""
        sign, log_m = self._log_mean_power()
        return sign * math.exp(log_m) if sign else 0.0

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
    calibration: float = 1.0  # constant applied to the bound, 1 when constant-free

    @property
    def slack_ratio(self) -> float:
        return self.bound / self.empirical if self.empirical > 0 else math.inf

    @property
    def violated(self) -> bool:
        """Empirical exceeds the bound by more than 3 relative standard errors."""
        if self.empirical <= 0.0:
            return False
        return self.empirical > self.bound * (1.0 + 3.0 * self.std_error / self.empirical)

    def to_json(self) -> str:
        return json.dumps(
            {
                "quantity": self.quantity,
                "ell": self.ell,
                "empirical": self.empirical,
                "std_error": self.std_error,
                "bound": self.bound,
                "slack_ratio": self.slack_ratio,
                "violated": self.violated,
                "calibration": self.calibration,
                "n_samples": self.n_samples,
            },
            indent=2,
        )


def _make_report(name, ell, acc, bound, calibration=1.0) -> MomentReport:
    norm, se = acc.norm_and_se()
    return MomentReport(name, ell, norm, se, calibration * bound, acc.n, calibration)


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
    thin: int = 4,
    q0: Array | None = None,
):
    """Approximate stationary draws from long Metropolized HMC runs.

    Runs n_chains coupled-seed chains past `warmup`, then harvests every
    `thin`-th state.  The draws are correlated and only approximately
    stationary; checks using them say so in their documentation.
    """
    state = np.zeros((n_chains, target.d)) if q0 is None else np.tile(q0, (n_chains, 1))
    for _ in range(warmup):
        state = batch_transition(target, state, eta, K, rng).positions

    def sample(n: int) -> Array:
        nonlocal state
        out = np.empty((n, target.d))
        filled = 0
        while filled < n:
            for _ in range(thin):
                state = batch_transition(target, state, eta, K, rng).positions
            take = min(n_chains, n - filled)
            out[filled : filled + take] = state[:take]
            filled += take
        return out

    return sample


_CHUNK = 10_000


def _chunks(n_total: int):
    done = 0
    while done < n_total:
        b = min(_CHUNK, n_total - done)
        yield b
        done += b


def check_grad_norm_moment(
    target: TargetDensity, ell: int, n_mc: int, sampler
) -> MomentReport:
    """[E ||grad f(q)||^(2 ell)]^(1/ell) against Upsilon_ell; constant-free."""
    acc = MomentAccumulator(power=2 * ell, root=ell)
    for b in _chunks(n_mc):
        q = sampler(b)
        acc.add(np.linalg.norm(target.gradient(q), axis=-1))
    return _make_report("grad_norm", ell, acc, upsilon_ell(target, ell))


def check_php_moment(
    target: TargetDensity, x: Array, ell: int, n_mc: int, rng: np.random.Generator
) -> MomentReport:
    """[E (p' H p)^ell]^(1/ell) at fixed x against Upsilon_ell; constant-free."""
    x = np.asarray(x, dtype=float)
    acc = MomentAccumulator(power=ell, root=ell)
    for b in _chunks(n_mc):
        p = rng.standard_normal((b, target.d))
        acc.add((p * target.hessian_vec(x, p)).sum(axis=-1))
    return _make_report("p_hessian_p", ell, acc, upsilon_ell(target, ell))


def check_gradhp_moment(
    target: TargetDensity, ell: int, n_mc: int, sampler, rng: np.random.Generator
) -> MomentReport:
    """[E (grad f(q)' H_q p)^ell]^(1/ell) against sqrt(ell) L sqrt(Upsilon_ell).

    Constant-free; even ell only (the quantity is signed).
    """
    if ell % 2 != 0:
        raise ValueError("the moment norm of this signed quantity needs even ell")
    acc = MomentAccumulator(power=ell, root=ell)
    for b in _chunks(n_mc):
        q = sampler(b)
        p = rng.standard_normal((b, target.d))
        acc.add((target.gradient(q) * target.hessian_vec(q, p)).sum(axis=-1))
    bound = math.sqrt(ell) * target.smoothness * math.sqrt(upsilon_ell(target, ell))
    return _make_report("grad_hessian_p", ell, acc, bound)


def check_chaos_moments(
    target: TargetDensity,
    x: Array,
    ell: int,
    n_mc: int,
    rng: np.random.Generator,
    norm_123: float | None = None,
    norm_12_3: float | None = None,
    calibration: float = 1.0,
) -> tuple[MomentReport, MomentReport]:
    """Gaussian-chaos moments of the third derivative at x.

    Checks [E (T[p,p,p])^ell]^(1/ell) against
    c (ell^(3/2) ||T||_{123} + ell^(1/2) d^(1/2) ||T||_{12}{3}) and
    [E ||T[p,p,.]||^(2 ell)]^(1/ell) against
    c (ell^2 ||T||_{123}^2 + ell^2 d ||T||_{12}{3}^2), with the calibration
    constant c recorded in the reports.  Tensor norms are computed here when
    not supplied (small d only).
    """
    x = np.asarray(x, dtype=float)
    if norm_123 is None or norm_12_3 is None:
        from .tensors import (
            norm_12_3 as _n12_3,
            norm_frobenius_123 as _n123,
            third_derivative_tensor,
        )

        tensor = third_derivative_tensor(target, x)
        norm_123 = _n123(tensor) if norm_123 is None else norm_123
        norm_12_3 = _n12_3(tensor) if norm_12_3 is None else norm_12_3
    acc_ppp = MomentAccumulator(power=ell, root=ell)
    acc_ppn = MomentAccumulator(power=2 * ell, root=ell)
    for b in _chunks(n_mc):
        p = rng.standard_normal((b, target.d))
        contraction = target.third_contract(x, p, p)
        acc_ppp.add((contraction * p).sum(axis=-1))
        acc_ppn.add(np.linalg.norm(contraction, axis=-1))
    b1 = ell**1.5 * norm_123 + math.sqrt(ell * target.d) * norm_12_3
    b2 = ell**2 * norm_123**2 + ell**2 * target.d * norm_12_3**2
    return (
        _make_report("third_ppp", ell, acc_ppp, b1, calibration),
        _make_report("third_pp_norm_sq", ell, acc_ppn, b2, calibration),
    )


def check_dynamics_diffs(
    target: TargetDensity,
    t: float,
    ell: int,
    n_mc: int,
    sampler,
    rng: np.random.Generator,
    tol: float = 1e-9,
    calibration: float = 1.0,
) -> tuple[MomentReport, MomentReport, MomentReport]:
    """Drift of Hessian quadratic forms along the flow, and the
    discrete-versus-continuous position gap after one leapfrog step of size t.

    Reports, in order:
      (i)   [E (p_t' H p_t - p_0' H p_0)^ell]^(1/ell)
                vs c t (gamma+1) ell^(3/2) L^(3/2) d_ell^(1/2);
      (ii)  [E ||H_t p_t - H_0 p_0||^(2 ell)]^(1/(2 ell))
                vs c t (gamma+1) ell^(1/2) L^(3/2) d_ell^(1/2);
      (iii) [E ||q_cont - q_leap||^(2 ell)]^(1/(2 ell))
                vs t^3 L^(1/2) Upsilon_ell^(1/2)   (constant-free).
    """
    if target.gamma is None:
        raise ValueError("target declares no gamma; estimate it first")
    acc1 = MomentAccumulator(power=ell, root=ell)
    acc2 = MomentAccumulator(power=2 * ell, root=2 * ell)
    acc3 = MomentAccumulator(power=2 * ell, root=2 * ell)
    for b in _chunks(n_mc):
        q0 = sampler(b)
        p0 = rng.standard_normal((b, target.d))
        qc, pc = continuous_flow(target, q0, p0, t, tol)
        hp0 = target.hessian_vec(q0, p0)
        hpc = target.hessian_vec(qc, pc)
        acc1.add((pc * hpc).sum(axis=-1) - (p0 * hp0).sum(axis=-1))
        acc2.add(np.linalg.norm(hpc - hp0, axis=-1))
        q_leap, _, _ = next(_orbit(target, q0, p0, 1, t))
        acc3.add(np.linalg.norm(qc - q_leap, axis=-1))
    L, g1 = target.smoothness, target.gamma + 1.0
    dl = d_ell(target.d, ell)
    b1 = t * g1 * ell**1.5 * L**1.5 * math.sqrt(dl)
    b2 = t * g1 * math.sqrt(ell) * L**1.5 * math.sqrt(dl)
    b3 = t**3 * math.sqrt(L) * math.sqrt(upsilon_ell(target, ell))
    return (
        _make_report("php_drift", ell, acc1, b1, calibration),
        _make_report("hp_drift", ell, acc2, b2, calibration),
        _make_report("leapfrog_position_gap", ell, acc3, b3),
    )


def energy_error_bound(target: TargetDensity, eta: float, ell: int) -> float:
    """(gamma+1) (eta^3 ell^(3/2) L^(3/2) d_ell^(1/2) + eta^5 ell^(1/2)
    L^(5/2) d_ell + eta^7 L^(7/2) d_ell^(3/2))."""
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
    target: TargetDensity,
    eta: float,
    ell: int,
    n_mc: int,
    sampler,
    rng: np.random.Generator,
    calibration: float = 1.0,
) -> MomentReport:
    """Moment norm of the Hamiltonian error of one leapfrog step of size eta.

    [E (H(q0, p0) - H(q_eta, p_eta))^ell]^(1/ell) over the stationary
    coupling, against energy_error_bound with the calibration recorded.
    The bound uses the gamma+1 form, which stays informative at gamma=0.
    """
    if ell % 2 != 0:
        raise ValueError("the energy error is signed; use even ell")
    acc = MomentAccumulator(power=ell, root=ell)
    for b in _chunks(n_mc):
        q0 = sampler(b)
        p0 = rng.standard_normal((b, target.d))
        h0 = target.potential(q0) + 0.5 * (p0 * p0).sum(axis=-1)
        q1, p1, _ = next(_orbit(target, q0, p0, 1, eta))
        acc.add(h0 - target.potential(q1) - 0.5 * (p1 * p1).sum(axis=-1))
    bound = energy_error_bound(target, eta, ell)
    return _make_report("leapfrog_energy_error", ell, acc, bound, calibration)
