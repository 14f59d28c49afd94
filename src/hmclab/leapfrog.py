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

which `_jacobians` runs on the positions q_1..q_{K-1} of an `_orbit`: K
gradient rows, K-1 dense Hessians from one `hessian` call, K-2 d x d
products and O(K d^2) memory per batch entry.  The orbit's gradients are
2-D matrix products, whose rows BLAS rounds as in the whole batch only from
`_MIN_BLOCK_ROWS` rows up, so batched orbits run in `_row_blocks`.  The
recursion's Hessians and products are stacked per-entry matrix products,
which have no such floor (one 2-D product of every entry's Hessian rows
would round a row by the row count of its call): the overlap analysis runs
the recursion in L2-sized sub-blocks of max(1, 16384 // d^2) entries, since
floored blocks make megabytes of temporaries per step that the heap hands
back to the OS and faults in again on the next.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DivergedTrajectory
from .targets import TargetDensity

Array = np.ndarray

#: trajectories whose position or momentum norm exceeds this are flagged diverged
DIVERGENCE_LIMIT = 1e8

#: dense momentum Jacobians are small-dimension analysis objects
MAX_JACOBIAN_DIM = 64

#: doubles in one row block of a batched array, 128 KiB: a block's ~15
#: working arrays fit a 2 MiB L2 cache
_BLOCK_DOUBLES = 16384
#: fewest rows in a row block; BLAS rounds the rows of small-M products differently
_MIN_BLOCK_ROWS = 256


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


def _block_rows(row_doubles: int) -> int:
    """Fewest rows of a row block whose rows hold row_doubles doubles each."""
    return max(_MIN_BLOCK_ROWS, _BLOCK_DOUBLES // row_doubles)


def _row_blocks(n: int, row_doubles: int) -> Iterator[slice]:
    """Near-equal slices covering rows 0..n-1, each at least `_block_rows` long.

    Fewer than two blocks' worth of rows make one block.  The transition
    kernel blocks its (rows, d) arrays this way, and the overlap analysis
    its leapfrog orbits.
    """
    n_blocks = max(1, n // _block_rows(row_doubles))
    for i in range(n_blocks):
        yield slice(n * i // n_blocks, n * (i + 1) // n_blocks)


def _check_schedule(eta: float, K: int) -> None:
    if not 0 < eta <= DIVERGENCE_LIMIT:  # NaN fails both; longer steps leave the guard at |p| >= 1
        raise ValueError(f"step-size eta must be in (0, {DIVERGENCE_LIMIT:g}], got {eta}")
    if not isinstance(K, numbers.Integral) or K < 1:
        raise ValueError(f"the number of leapfrog steps K must be an integer >= 1, got {K!r}")


def _check_time(t: float) -> None:
    if not 0 <= t <= DIVERGENCE_LIMIT:  # NaN fails both comparisons
        raise ValueError(f"time t must be in [0, {DIVERGENCE_LIMIT:g}], got {t}")


def _check_points(d: int, **points: Array) -> None:
    """Each named point has last axis d and finite entries; the ValueError names it."""
    for name, x in points.items():
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (d,):
            raise ValueError(f"{name} must have last axis {d}, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite")


def _orbit(
    target: TargetDensity, q: Array, p: Array, K: int, eta: float, g: Array | None = None,
    last_gradient: bool = True,
):
    """Yield (q_j, p_j, grad f(q_j)) for j = 1..K.

    K+1 gradient evaluations in all, or K when g = grad f(q) is given.
    Without last_gradient the last yield is (q_K, None, None): p_K needs
    grad f(q_K), which is then not evaluated, one evaluation fewer.
    """
    if g is None:
        g = target.gradient(q)
    for j in range(1, K + 1):
        q = q + eta * p - 0.5 * eta**2 * g
        if j == K and not last_gradient:
            yield q, None, None
            return
        g_prev, g = g, target.gradient(q)
        p = p - 0.5 * eta * (g_prev + g)
        yield q, p, g


def _in_bounds(q: Array, p_norm2: Array) -> Array:
    """Per batch entry: finite and inside the divergence guard; run under errstate.

    p_norm2 is |p|^2 per entry, which the transition kernel shares with its
    kinetic energy.
    """
    limit = DIVERGENCE_LIMIT**2
    return ((q * q).sum(axis=-1) <= limit) & (p_norm2 <= limit)


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
            if not _in_bounds(q, (p * p).sum(axis=-1)).all():
                raise DivergedTrajectory("leapfrog trajectory left the trusted region")
            states.append(PhaseState(q, p))
    return Trajectory(states, eta)


def leapfrog_final(target: TargetDensity, q: Array, p: Array, K: int, eta: float):
    """Batched endpoint of K leapfrog steps.

    Returns (q_K, p_K, ok) where ok flags batch entries that stayed finite
    and inside the divergence guard; diverged entries hold garbage.
    """
    _check_schedule(eta, K)
    with np.errstate(over="ignore", invalid="ignore"):
        for q, p, _ in _orbit(target, q, p, K, eta):
            pass
        return q, p, _in_bounds(q, (p * p).sum(axis=-1))


def _jacobians(target: TargetDensity, positions: Array, eta: float):
    """Yield D_1..D_K from the orbit positions q_1..q_{K-1}, stacked per entry as (..., K-1, d).

    D_j is the dense (..., d, d) derivative of q_j with respect to the
    initial momentum, from the three-term recursion in the module docstring.
    It never reads H(q_K): an entry costs one `hessian` call's K-1 Hessians,
    the K-2 products H(q_j) D_j after the first step and, with the positions
    from `_orbit(..., last_gradient=False)`, K gradient rows.  Both are stacked
    per-entry matrix products, so an entry's bits do not depend on its batch.
    """
    eye = np.eye(target.d)
    jac = eta * np.broadcast_to(eye, positions.shape[:-2] + eye.shape)
    yield jac
    if positions.shape[-2] == 0:  # K = 1
        return
    scaled = eta**2 * target.hessian(positions)
    # the recursion runs on E_j = D_j - j eta I, which obeys it too with E_0 = E_1 = 0,
    # so the large identity part is never rounded into it; step 1 takes no product
    prev = dev = 0.0
    for j, h in enumerate(np.moveaxis(scaled, -3, 0), start=1):
        prev, dev = dev, 2.0 * dev - prev - (h @ jac if j > 1 else eta * h)
        jac = (j + 1) * eta * eye + dev
        yield jac


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
    _check_points(target.d, q0=q0, p0=p0)
    q0, p0 = np.broadcast_arrays(np.asarray(q0, dtype=float), np.asarray(p0, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        orbit = [q for q, _, _ in _orbit(target, q0, p0, K, eta, last_gradient=False)]
        out = list(_jacobians(target, np.stack(orbit, axis=-2)[..., :-1, :], eta))
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
    _check_time(t)
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
