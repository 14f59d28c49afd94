"""Theory-driven parameter selection and constraint checking.

Implements the closed-form step-size/step-count choices for Metropolized
HMC and for MALA, plus the two inequalities the mixing-time theorem places
on (K, eta).  The theory's universal constants are exposed as the knobs c
and c_prime; predicted step counts are therefore "up to a universal
constant".  Natural logarithms throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

#: The corollaries' free constants, shared by the experiments' schedules and `hmclab tune`:
#: warmness M and tolerance epsilon (ln(M / epsilon) = 2), the isoperimetric coefficient psi
#: and the universal constants c and c'.
COROLLARY_CONSTANTS = {"M": math.e, "epsilon": 1.0 / math.e, "psi": 1.0, "c": 1.0, "c_prime": 2.0}


@dataclass(frozen=True)
class TheoryParams:
    L: float
    gamma: float
    d: int
    M: float
    epsilon: float
    psi: float = 1.0
    c: float = 1.0
    c_prime: float = 1.0

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("smoothness L must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.d < 1:
            raise ValueError("dimension must be a positive integer")
        if self.M < 1:
            raise ValueError("warmness M must be at least 1")
        if not 0 < self.epsilon < 1:
            raise ValueError("error tolerance must lie in (0, 1)")
        if self.psi <= 0:
            raise ValueError("isoperimetric coefficient must be positive")

    @property
    def log_ratio(self) -> float:
        return math.log(self.M / self.epsilon)


@dataclass(frozen=True)
class TunedParams:
    eta: float
    K: int
    ell: int
    d_ell: int
    predicted_mixing_steps: float  # up to a universal constant
    predicted_gradient_complexity: float

    def to_json(self) -> str:
        payload = asdict(self)
        payload["note"] = "predicted step counts hold up to a universal constant"
        return json.dumps(payload, indent=2)


def ell_for(M: float, epsilon: float, c_prime: float = 1.0) -> int:
    """Even moment order 2 * ceil(c' * ln(M / eps)), never below 2."""
    if M < 1:
        raise ValueError("warmness M must be at least 1")
    if not 0 < epsilon < 1:
        raise ValueError("error tolerance must lie in (0, 1)")
    return max(2, 2 * math.ceil(c_prime * math.log(M / epsilon)))


def d_ell(d: int, ell: int) -> int:
    """Moment-inflated dimension d + 2(ell - 1)."""
    return d + 2 * (ell - 1)


def best_hmc_params(tp: TheoryParams) -> TunedParams:
    """Step-size and leapfrog count that give the d^(1/4)-type schedule.

    eta^2 = c / (L (d + ln(M/eps))^(1/2) (gamma+1)^(2/3) ln^(3/2)(M/eps)),
    K = c' / (2 sqrt(L) (gamma+1)^(1/3) eta), rounded to an integer >= 1.
    """
    log_ratio = tp.log_ratio
    eta_sq = tp.c / (
        tp.L
        * (tp.d + log_ratio) ** 0.5
        * (tp.gamma + 1.0) ** (2.0 / 3.0)
        * log_ratio**1.5
    )
    eta = math.sqrt(eta_sq)
    K = max(1, round(tp.c_prime / (2.0 * math.sqrt(tp.L) * (tp.gamma + 1.0) ** (1.0 / 3.0) * eta)))
    return _schedule(tp, eta_sq, K)


def mala_step_size(tp: TheoryParams) -> TunedParams:
    """Single-step schedule: eta^2 = c / (L (d + ln(M/eps))^(3/7) ln^(3/7)(M/eps))."""
    log_ratio = tp.log_ratio
    eta_sq = tp.c / (tp.L * (tp.d + log_ratio) ** (3.0 / 7.0) * log_ratio ** (3.0 / 7.0))
    return _schedule(tp, eta_sq, 1)


def _schedule(tp: TheoryParams, eta_sq: float, K: int) -> TunedParams:
    """The schedule (sqrt(eta_sq), K), its moment order, and its predicted costs:
    ln(M/eps) / (K^2 eta^2 psi^2) mixing steps of K gradients each.  MALA is K = 1."""
    ell = ell_for(tp.M, tp.epsilon, tp.c_prime)
    mixing = tp.log_ratio / (K**2 * eta_sq * tp.psi**2)
    return TunedParams(eta=math.sqrt(eta_sq), K=K, ell=ell, d_ell=d_ell(tp.d, ell),
                       predicted_mixing_steps=mixing, predicted_gradient_complexity=K * mixing)


def check_theorem_constraints(
    eta: float, K: int, tp: TheoryParams, ell: int
) -> tuple[bool, tuple[float, float]]:
    """Evaluate both theorem conditions; returns (ok, (margin1, margin2)).

    Condition 1:  K eta sqrt(L) <= 1 / (2 gamma^(1/3))   (vacuous at gamma=0).
    Condition 2:  K (eta^3 L^(3/2) d_ell^(1/2) + eta^5 L^(5/2) d_ell
                     + eta^7 L^(7/2) d_ell^(3/2)) <= 1 / (c (gamma+1) ell^(3/2)).
    Margins are bound minus left-hand side.
    """
    if eta <= 0 or K < 1 or ell < 1:
        raise ValueError("eta, K and ell must be positive")
    dl = d_ell(tp.d, ell)
    lhs1 = K * eta * math.sqrt(tp.L)
    bound1 = math.inf if tp.gamma == 0 else 1.0 / (2.0 * tp.gamma ** (1.0 / 3.0))
    lhs2 = K * (
        eta**3 * tp.L**1.5 * dl**0.5
        + eta**5 * tp.L**2.5 * dl
        + eta**7 * tp.L**3.5 * dl**1.5
    )
    bound2 = 1.0 / (tp.c * (tp.gamma + 1.0) * ell**1.5)
    ok = lhs1 <= bound1 and lhs2 <= bound2
    return ok, (bound1 - lhs1, bound2 - lhs2)
