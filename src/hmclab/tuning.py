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
        if self.d < 1:
            raise ValueError("dimension d must be a positive integer")
        for name in ("L", "psi", "c"):
            _require(name, getattr(self, name), 0.0)
        _require("gamma", self.gamma, 0.0, strict=False)
        ell_for(self.M, self.epsilon, self.c_prime)  # checks M, epsilon and c_prime

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


def _require(name: str, value: float, low: float, strict: bool = True) -> None:
    """Raise naming `name` unless value is finite and > low (>= low when not strict)."""
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} {low:g}, "
                         f"got {value!r}")


def ell_for(M: float, epsilon: float, c_prime: float = 1.0) -> int:
    """Even moment order 2 * ceil(c' * ln(M / eps)), never below 2."""
    _require("M", M, 1.0, strict=False)
    if not 0 < epsilon < 1:  # NaN fails both comparisons
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    _require("c_prime", c_prime, 0.0)
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
    if not (0 < eta < math.inf and K >= 1 and 1 <= ell < math.inf):  # NaN fails each test
        raise ValueError(f"eta and ell must be finite, eta > 0, K >= 1 and ell >= 1, "
                         f"got eta={eta!r}, K={K!r}, ell={ell!r}")
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
