"""Leapfrog integration of Hamiltonian dynamics and its momentum Jacobian.

The discrete update with step-size eta is

    q' = q + eta p - (eta^2 / 2) grad f(q)
    p' = p - (eta / 2) (grad f(q) + grad f(q'))

so a K-step trajectory costs K+1 gradient evaluations when the gradient at
the current position is carried from step to step, or K when the gradient
at its start is known.  `_orbit` is the one K-step loop; every trajectory,
endpoint and transition is read off it.

The derivative D_j of the j-step position map with respect to the initial
momentum obeys the Stormer-Verlet three-term recursion (Hairer, Lubich and
Wanner, Geometric Numerical Integration)

    D_{j+1} = 2 D_j - D_{j-1} - eta^2 H(q_j) D_j,      D_0 = 0,  D_1 = eta I,

which `jacobian_orbit` runs alongside the trajectory with dense matrices:
K-1 Hessian-matrix products and O(d^2) memory per batch entry.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DivergedTrajectory
from .targets import TargetDensity

Array = np.ndarray

#: trajectories whose position or momentum norm exceeds this are flagged diverged
DIVERGENCE_LIMIT = 1e8

#: dense momentum Jacobians are small-dimension analysis objects
MAX_JACOBIAN_DIM = 64


@dataclass
class PhaseState:
    """Position/momentum pair; both arrays of shape (..., d)."""

    q: Array
    p: Array

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.q.shape != self.p.shape:
            raise ValueError("position and momentum must have equal shapes")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise ValueError("phase state must be finite")


@dataclass
class Trajectory:
    """States 0..K of a leapfrog run at fixed step-size."""

    states: list[PhaseState]
    eta: float

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    @property
    def final(self) -> PhaseState:
        return self.states[-1]

    def positions(self) -> Array:
        return np.stack([s.q for s in self.states])

    def momenta(self) -> Array:
        return np.stack([s.p for s in self.states])

    def to_csv(self, path: str) -> None:
        """Debug dump with columns k, q_1..q_d, p_1..p_d (single states only)."""
        if self.states[0].q.ndim != 1:
            raise ValueError("CSV dump supports unbatched trajectories only")
        d = self.states[0].q.shape[0]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["k"] + [f"q_{i + 1}" for i in range(d)] + [f"p_{i + 1}" for i in range(d)]
            )
            for k, s in enumerate(self.states):
                writer.writerow([k] + [repr(float(v)) for v in s.q] + [repr(float(v)) for v in s.p])


def _check_schedule(eta: float, K: int) -> None:
    if eta <= 0:
        raise ValueError("step-size must be positive")
    if K < 1:
        raise ValueError("need at least one leapfrog step")


def _orbit(target: TargetDensity, q: Array, p: Array, K: int, eta: float, g: Array | None = None):
    """Yield (q_j, p_j, grad f(q_j)) for j = 1..K.

    K+1 gradient evaluations in all, or K when g = grad f(q) is given.
    """
    if g is None:
        g = target.gradient(q)
    for _ in range(K):
        q = q + eta * p - 0.5 * eta**2 * g
        g_prev, g = g, target.gradient(q)
        p = p - 0.5 * eta * (g_prev + g)
        yield q, p, g


def _in_bounds(q: Array, p: Array) -> Array:
    """Per batch entry: finite and inside the divergence guard; run under errstate."""
    limit = DIVERGENCE_LIMIT**2
    return ((q * q).sum(axis=-1) <= limit) & ((p * p).sum(axis=-1) <= limit)


def leapfrog_step(target: TargetDensity, s: PhaseState, eta: float) -> PhaseState:
    """A single leapfrog step of length eta."""
    return forward_map(target, s, 1, eta).final


def forward_map(
    target: TargetDensity, s0: PhaseState, K: int, eta: float
) -> Trajectory:
    """K leapfrog steps from s0; exactly K+1 gradient evaluations."""
    _check_schedule(eta, K)
    states = [s0]
    with np.errstate(over="ignore", invalid="ignore"):
        for q, p, _ in _orbit(target, s0.q, s0.p, K, eta):
            if not _in_bounds(q, p).all():
                raise DivergedTrajectory("leapfrog trajectory left the trusted region")
            states.append(PhaseState(q, p))
    return Trajectory(states, eta)


def _endpoint(
    target: TargetDensity, q: Array, p: Array, K: int, eta: float, g: Array | None = None
):
    """(q_K, p_K, ok, grad f(q_K)) of `_orbit`, for an already checked schedule."""
    with np.errstate(over="ignore", invalid="ignore"):
        for q, p, g in _orbit(target, q, p, K, eta, g):
            pass
        return q, p, _in_bounds(q, p), g


def leapfrog_final(target: TargetDensity, q: Array, p: Array, K: int, eta: float):
    """Batched endpoint of K leapfrog steps.

    Returns (q_K, p_K, ok) where ok flags batch entries that stayed finite
    and inside the divergence guard; diverged entries hold garbage.
    """
    _check_schedule(eta, K)
    return _endpoint(target, q, p, K, eta)[:3]


def _hessian_mat(target: TargetDensity, q: Array, m: Array) -> Array:
    """H(q) @ m for m of shape (..., d, d), batched over leading axes."""
    cols = target.hessian_vec(q[..., None, :], np.swapaxes(m, -1, -2))
    return np.swapaxes(cols, -1, -2)


def jacobian_orbit(target: TargetDensity, q: Array, p: Array, K: int, eta: float):
    """Yield (q_j, p_j, D_j) for j = 1..K, batched over the leading axes.

    D_j is the dense (..., d, d) derivative of q_j with respect to the
    initial momentum, from the three-term recursion in the module docstring;
    no Hessian product is taken after the last step.
    """
    q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    eye = np.broadcast_to(np.eye(target.d), q.shape[:-1] + (target.d, target.d))
    # the recursion runs on E_j = D_j - j eta I, which obeys it too with
    # E_0 = E_1 = 0, so the large identity part is never rounded into it
    prev = dev = 0.0
    jac = eta * eye
    for j, (q, p, _) in enumerate(_orbit(target, q, p, K, eta), start=1):
        yield q, p, jac
        if j < K:
            prev, dev = dev, 2.0 * dev - prev - eta**2 * _hessian_mat(target, q, jac)
            jac = (j + 1) * eta * eye + dev


def momentum_jacobian(
    target: TargetDensity,
    q0: Array,
    p0: Array,
    K: int,
    eta: float,
    return_all: bool = False,
) -> Array | list[Array]:
    """Derivative of the K-step position w.r.t. the initial momentum.

    Dense (..., d, d) output; intended for overlap analysis at small d
    (raises beyond MAX_JACOBIAN_DIM).  With return_all, gives [D_1, ..., D_K].
    """
    _check_schedule(eta, K)
    if target.d > MAX_JACOBIAN_DIM:
        raise ValueError(f"dense momentum Jacobian capped at d <= {MAX_JACOBIAN_DIM}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = [jac for _, _, jac in jacobian_orbit(target, q0, p0, K, eta)]
    if not np.all(np.isfinite(out[-1])):
        raise DivergedTrajectory("Jacobian recursion left the trusted region")
    return out if return_all else out[-1]


def _rk4(target: TargetDensity, q: Array, p: Array, t: float, n: int):
    h = t / n
    for _ in range(n):
        k1q, k1p = p, -target.gradient(q)
        k2q, k2p = p + 0.5 * h * k1p, -target.gradient(q + 0.5 * h * k1q)
        k3q, k3p = p + 0.5 * h * k2p, -target.gradient(q + 0.5 * h * k2q)
        k4q, k4p = p + h * k3p, -target.gradient(q + h * k3q)
        q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return q, p


def continuous_flow(
    target: TargetDensity,
    q: Array,
    p: Array,
    t: float,
    tol: float,
    max_refinements: int = 16,
):
    """Batched continuous Hamiltonian dynamics at time t.

    Classic fourth-order Runge-Kutta, doubling the step count until two
    successive refinements agree to within tol (sup norm over the batch).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if t == 0:
        return np.array(q, dtype=float), np.array(p, dtype=float)
    n = 8
    prev = _rk4(target, q, p, t, n)
    for _ in range(max_refinements):
        n *= 2
        cur = _rk4(target, q, p, t, n)
        err = max(np.abs(cur[0] - prev[0]).max(), np.abs(cur[1] - prev[1]).max())
        if err <= tol:
            return cur
        prev = cur
    raise ConvergenceError("step halving hit its floor before meeting tol")


def continuous_reference(
    target: TargetDensity, s0: PhaseState, t: float, tol: float
) -> PhaseState:
    """High-accuracy reference solution of the continuous dynamics."""
    q, p = continuous_flow(target, s0.q, s0.p, t, tol)
    return PhaseState(q, p)
