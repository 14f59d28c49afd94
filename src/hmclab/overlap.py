"""Proposal density via the inverse momentum map, and proposal-overlap KL.

For a start q0, the HMC proposal is the push-forward of p ~ N(0, I) through
the K-step position map F(q0, .).  In the regime K eta sqrt(L) <= 1/4 the
momentum derivative D = D2F stays within K eta / 16 of K eta I, so the map
is invertible and its inverse G(q0, y) is the fixed point of

    p <- p - (F(q0, p) - y) / (K eta),

a contraction that shrinks the residual at least 16-fold per step and needs
only position orbits, no Jacobian.  The proposal log-density at y is

    log rho(y) = log phi(G(q0, y)) - log det D2F(q0, G(q0, y)),

using det D2G = 1 / det D2F, read off the orbit that confirmed G(q0, y): the
one place dense d x d matrices are formed, an L2-sized sub-block at a time,
as K-1 Hessians from one `hessian` call and K-2 d x d products.
The KL divergence between proposals launched from q0 and from a nearby start
is estimated by Monte Carlo over p after the same change of variables.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, SingularJacobian
from .leapfrog import (
    _BLOCK_DOUBLES, MAX_JACOBIAN_DIM, _check_points, _check_schedule, _in_bounds, _jacobians, _orbit,
    _row_blocks,
)
from .targets import TargetDensity

Array = np.ndarray

#: Monte Carlo draws per batch of KL work; batches merge by streaming moments
KL_CHUNK = 20_000


def _check_dim(target: TargetDensity) -> None:
    """Density and KL work forms dense momentum Jacobians; small d only."""
    if target.d > MAX_JACOBIAN_DIM:
        raise ValueError(f"overlap analysis is capped at d <= {MAX_JACOBIAN_DIM}")


def _positions(target: TargetDensity, q0: Array, p: Array, K: int, eta: float) -> list[Array]:
    """The orbit positions q_1..q_K of F(q0, .) per row of p, in the kernel's row blocks.

    grad f(q0) is evaluated once, at q0's shape: one gradient row per start, K-1 per draw.
    """
    g0 = target.gradient(q0)
    q0, g0, p = np.broadcast_arrays(q0, g0, p)
    positions = [np.empty(p.shape) for _ in range(K)]
    blocks = _row_blocks(p.shape[0], target.d) if p.ndim > 1 else [...]  # (d,): one block
    for block in blocks:
        orbit = _orbit(target, q0[block], p[block], K, eta, g0[block], last_gradient=False)
        for out, (q, _, _) in zip(positions, orbit):
            out[block] = q
    return positions


def _logdet(target: TargetDensity, positions: list[Array], eta: float) -> Array:
    """log det D2F_K per draw from `_positions`' orbit, in L2-sized sub-blocks of draws.

    Memory is O(sub-block K d max(d, m)) with m data rows; each draw's bits are those of
    one whole-batch recursion.  Raises SingularJacobian on a non-positive determinant.
    """
    logdet = np.empty(positions[0].shape[:-1])
    step = max(1, _BLOCK_DOUBLES // target.d**2)
    subs = [...] if logdet.ndim == 0 else [slice(i, i + step) for i in range(0, len(logdet), step)]
    stacked = np.stack(positions, axis=-2)[..., :-1, :]  # q_1..q_{K-1} of each draw
    for sub in subs:
        for jac in _jacobians(target, stacked[sub], eta):
            pass
        sign, logdet[sub] = np.linalg.slogdet(jac)
        if np.any(sign <= 0):
            raise SingularJacobian("momentum Jacobian has non-positive determinant")
    return logdet


def _invert(target: TargetDensity, q0: Array, y: Array, K: int, eta: float, tol: float = 1e-10,
            max_iter: int = 50) -> tuple[Array, list[Array]]:
    """`inverse_map`'s p, with the orbit positions of F(q0, p) that confirmed it."""
    _check_schedule(eta, K)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    q0 = np.asarray(q0, dtype=float)
    scale = K * eta
    p = (y - q0) / scale
    for _ in range(max_iter):
        with np.errstate(over="ignore", invalid="ignore"):
            positions = _positions(target, q0, p, K, eta)
            if not _in_bounds(positions[-1], p_norm2=0.0).all():  # p_K is not formed
                raise ConvergenceError("inverse map iterate left the trusted region")
        r = positions[-1] - y
        if np.all(np.linalg.norm(r, axis=-1) <= tol):
            return p, positions
        p = p - r / scale
    raise ConvergenceError(
        f"inverse map did not reach tol={tol} within {max_iter} fixed-point steps"
    )


def inverse_map(
    target: TargetDensity,
    q0: Array,
    y: Array,
    K: int,
    eta: float,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> Array:
    """The momentum p with ||F_K(q0, p) - y|| <= tol, batched over rows of y.

    Fixed-point iteration p <- p - (F(q0, p) - y) / (K eta) from
    p = (y - q0) / (K eta); each step runs one position orbit: K-1 gradient
    rows per draw, one per start, and no Hessian products.  Raises
    ConvergenceError when a row's residual is still above tol after
    max_iter steps or an iterate's q_K leaves the trusted region.
    """
    _check_points(target.d, q0=q0, y=y)
    return _invert(target, q0, y, K, eta, tol, max_iter)[0]


def proposal_log_density(
    target: TargetDensity,
    q0: Array,
    y: Array,
    K: int,
    eta: float,
) -> Array:
    """log of the K-step proposal density for a chain at q0, one value per row of y.

    y of shape (d,) gives one value, and (n, d) gives n values.
    """
    _check_dim(target)
    _check_points(target.d, q0=q0, y=y)
    p, positions = _invert(target, q0, y, K, eta)
    log_phi = -0.5 * (p * p).sum(axis=-1) - 0.5 * target.d * math.log(2.0 * math.pi)
    return log_phi - _logdet(target, positions, eta)


def kl_between_proposals(
    target: TargetDensity,
    q0: Array,
    q0_tilde: Array,
    K: int,
    eta: float,
    n_mc: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of KL(P_q0 || P_q0_tilde) with its standard error.

    Each draw p ~ N(0, I) is pushed through F(q0, .) and pulled back through
    the inverse map at the other start, so the same draws serve both starts
    (common random numbers); chunks are merged by streaming mean/variance.
    """
    if n_mc < 2:
        raise ValueError("need at least two Monte Carlo draws")
    _check_schedule(eta, K)  # equal starts run no inverse map, which checks it too
    _check_dim(target)
    _check_points(target.d, q0=q0, q0_tilde=q0_tilde)
    q0 = np.asarray(q0, dtype=float)
    n_done, mean, m2 = 0, 0.0, 0.0
    while n_done < n_mc:
        b = min(KL_CHUNK, n_mc - n_done)
        p = rng.standard_normal((b, target.d))
        positions = _positions(target, q0, p, K, eta)
        ld0 = _logdet(target, positions, eta)
        if np.array_equal(q0, q0_tilde):
            p_t, ld_t = p, ld0
        else:
            p_t, positions = _invert(target, q0_tilde, positions[-1], K, eta)
            ld_t = _logdet(target, positions, eta)
        vals = 0.5 * ((p_t * p_t).sum(axis=-1) - (p * p).sum(axis=-1)) - ld0 + ld_t
        # Chan et al. pairwise merge of (count, mean, M2)
        b_mean = float(vals.mean())
        b_m2 = float(((vals - b_mean) ** 2).sum())
        delta = b_mean - mean
        total = n_done + b
        mean += delta * b / total
        m2 += b_m2 + delta**2 * n_done * b / total
        n_done = total
    variance = m2 / (n_done - 1)
    return mean, math.sqrt(variance / n_done)


def kl_lemma_bound(K: int, eta: float, gamma: float, L: float) -> float:
    """Stated overlap bound 1/64 + K^6 eta^6 gamma^2 L^3 / 4.

    Valid for starts separated by at most K eta / 64.  The proof's looser
    conclusion is kl_proof_form_bound.
    """
    return 1.0 / 64.0 + 0.25 * K**6 * eta**6 * gamma**2 * L**3


def kl_proof_form_bound(K: int, eta: float, gamma: float, L: float) -> float:
    """Proof-final form 1/4 + 4 K^6 eta^6 gamma^2 L^3, for separation <= K eta / 4."""
    return 0.25 + 4.0 * K**6 * eta**6 * gamma**2 * L**3
