"""Independent oracles used by the tests.

Everything here is deliberately computed by a different route than the
library: explicit linear maps for quadratic potentials, finite differences,
quadrature, and brute-force searches.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from hmclab.kernel import BatchTransition, chain_rng
from hmclab.leapfrog import _endpoint, leapfrog_final
from hmclab.targets import TargetDensity


def gaussian_leapfrog_matrix(precision: np.ndarray, eta: float) -> np.ndarray:
    """One leapfrog step on f = q' P q / 2 as a (2d, 2d) linear map."""
    p = np.atleast_2d(precision)
    d = p.shape[0]
    eye = np.eye(d)
    top = np.hstack([eye - 0.5 * eta**2 * p, eta * eye])
    bottom = np.hstack([-eta * p @ (eye - 0.25 * eta**2 * p), eye - 0.5 * eta**2 * p])
    return np.vstack([top, bottom])


def gaussian_forward_blocks(precision: np.ndarray, eta: float, K: int):
    """Blocks (A_qq, A_qp, A_pq, A_pp) of the K-step map."""
    m = np.linalg.matrix_power(gaussian_leapfrog_matrix(precision, eta), K)
    d = np.atleast_2d(precision).shape[0]
    return m[:d, :d], m[:d, d:], m[d:, :d], m[d:, d:]


def gaussian_proposal_moments(precision, q0, eta: float, K: int):
    """Exact mean and covariance of the K-step proposal from q0."""
    a_qq, a_qp, _, _ = gaussian_forward_blocks(precision, eta, K)
    return a_qq @ q0, a_qp @ a_qp.T


def gaussian_proposal_kl(precision, q0, q0_tilde, eta: float, K: int) -> float:
    """KL between the equal-covariance Gaussian proposals from two starts."""
    a_qq, a_qp, _, _ = gaussian_forward_blocks(precision, eta, K)
    delta = a_qq @ (np.asarray(q0) - np.asarray(q0_tilde))
    cov = a_qp @ a_qp.T
    return 0.5 * float(delta @ np.linalg.solve(cov, delta))


def hermite_mean_acceptance(precision_1d: float, eta: float, K: int, nodes: int = 200) -> float:
    """E min(1, exp(delta H)) over (q, p) ~ N(0, I_2) for a 1D Gaussian target.

    Two-dimensional Gauss-Hermite quadrature under the exact linear leapfrog
    map; the probabilists' rule needs a 1/sqrt(2 pi) weight normalization.
    """
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / np.sqrt(2.0 * np.pi)
    m = np.linalg.matrix_power(
        gaussian_leapfrog_matrix(np.array([[precision_1d]]), eta), K
    )
    q0, p0 = np.meshgrid(x, x, indexing="ij")
    qk = m[0, 0] * q0 + m[0, 1] * p0
    pk = m[1, 0] * q0 + m[1, 1] * p0
    delta_h = 0.5 * (precision_1d * q0**2 + p0**2 - precision_1d * qk**2 - pk**2)
    accept = np.minimum(1.0, np.exp(delta_h))
    return float(w @ accept @ w)


def momentum_jacobian_sum_form(target, q0, p0, K: int, eta: float) -> list[np.ndarray]:
    """[D_1, ..., D_K] from the closed-sum recursion, O(K^2) products.

    D_j = j eta I - eta^2 sum_{l<j} (j - l) H(q_l) D_l, with the leapfrog
    positions q_l stepped here without the library's integrator and each
    H(q_l) D_l taken column by column through hessian_vec.
    """
    d = q0.shape[-1]
    q, p = np.array(q0, dtype=float), np.array(p0, dtype=float)
    g = target.gradient(q)
    jacs = [eta * np.eye(d)]
    products = []  # H(q_l) D_l for l = 1..j-1
    for j in range(2, K + 1):
        q = q + eta * p - 0.5 * eta**2 * g
        g_next = target.gradient(q)
        p = p - 0.5 * eta * (g + g_next)
        g = g_next
        products.append(
            np.stack([target.hessian_vec(q, jacs[-1][:, i]) for i in range(d)], axis=1)
        )
        acc = sum((j - l) * prod for l, prod in enumerate(products, start=1))
        jacs.append(j * eta * np.eye(d) - eta**2 * acc)
    return jacs


def sigmoid_masked(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid by masked gathers and scatters, one branch per sign of z."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def traces_to_csv_rows(traces, path: str, thin: int = 1) -> None:
    """Chain traces to CSV through csv.writer, one row and one boxed value at a time."""
    d = traces[0].positions.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["chain", "step", "accepted", "delta_H"] + [f"q_{i + 1}" for i in range(d)]
        )
        for c, trace in enumerate(traces):
            for i in range(0, trace.n_steps, thin):
                writer.writerow(
                    [c, i + 1, int(trace.accepted[i]), repr(float(trace.delta_h[i]))]
                    + [repr(float(v)) for v in trace.positions[i + 1]]
                )


def unblocked_step(target, q, eta: float, K: int, streams: list, lazy: bool, carry=None):
    """One transition of all moving rows at once, each pass over the full batch.

    The kernel's step before it integrated in row blocks: the same draws, the
    same evaluator rows and the same carry, as whole-batch arrays.
    """
    n_chains = q.shape[0]
    rows = n_chains // len(streams)
    draws = [(s.random(rows if lazy else 0), s.standard_normal((rows, target.d)), s.random(rows))
             for s in streams]
    coins, p, u = draws[0] if len(draws) == 1 else (np.concatenate(x) for x in zip(*draws))
    holds = coins < 0.5 if lazy else np.zeros(n_chains, dtype=bool)
    gather = lazy and holds.any()
    move = np.flatnonzero(~holds) if gather else slice(None)
    p, u = p[move], u[move]
    if gather:
        out = BatchTransition(q.copy(), np.zeros(n_chains, dtype=bool), np.full(n_chains, math.nan),
                              holds, np.zeros(n_chains, dtype=bool))
        if not move.size:
            return out, None
    q0 = q[move]
    if carry is None:
        f0 = target.potential(q0)
        q1, p1, ok = leapfrog_final(target, q0, p, K, eta)
    else:
        f0, g0 = carry
        q1, p1, ok, g1 = _endpoint(target, q0, p, K, eta, g0)
    h0 = f0 + 0.5 * (p * p).sum(axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):
        f1 = target.potential(q1)
        delta_h = h0 - f1 - 0.5 * (p1 * p1).sum(axis=-1)
        delta_h = np.where(ok, delta_h, math.nan)
        accept_prob = np.exp(np.minimum(delta_h, 0.0))
    accepted = u < accept_prob
    new_q = np.where(accepted[:, None], q1, q0)
    if not gather:
        if carry is not None:
            carry = np.where(accepted, f1, f0), np.where(accepted[:, None], g1, g0)
        return BatchTransition(new_q, accepted, delta_h, holds, ~ok), carry
    out.positions[move] = new_q
    out.accepted[move] = accepted
    out.delta_h[move] = delta_h
    out.diverged[move] = ~ok
    return out, None


def unblocked_run_chains(target, config, q0, n_steps: int, n_chains: int) -> list:
    """The steps of `run_chains` through `unblocked_step`, with the same carry schedule."""
    q = np.broadcast_to(np.asarray(q0, dtype=float), (n_chains, target.d))
    streams = [chain_rng(config.seed, c) for c in range(n_chains)]
    steps, carry = [], None
    for _ in range(n_steps):
        if carry is None and not config.lazy and q.flags.c_contiguous:
            carry = target.potential(q), target.gradient(q)
        step, carry = unblocked_step(target, q, config.eta, config.K, streams, config.lazy, carry)
        steps.append(step)
        q = step.positions
    return steps


def finite_diff_gradient(f, q: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.empty_like(q, dtype=float)
    for i in range(q.size):
        e = np.zeros_like(q)
        e[i] = h
        g[i] = (f(q + e) - f(q - e)) / (2.0 * h)
    return g


def finite_diff_jacobian(fun, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a vector function, columns by columns."""
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((fun(x + e) - fun(x - e)) / (2.0 * h))
    return np.stack(cols, axis=1)


def chi2_moment(d: int, ell: int) -> float:
    """E (chi^2_d)^ell = d (d+2) ... (d + 2 ell - 2)."""
    out = 1.0
    for j in range(ell):
        out *= d + 2 * j
    return out


def norm_12_3_bruteforce(a: np.ndarray, n_dirs: int, rng: np.random.Generator) -> float:
    """max over random unit z of ||A[., ., z]||_F."""
    z = rng.standard_normal((n_dirs, a.shape[0]))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    contracted = np.einsum("ijk,nk->nij", a, z)
    return float(np.sqrt((contracted**2).sum(axis=(1, 2))).max())


def injective_norm_sphere_grid(a: np.ndarray, ang_step: float = 0.01) -> float:
    """Injective norm of a d=3 tensor by gridding the third unit sphere.

    For fixed unit z the sup over unit x, y of A[x, y, z] is the top
    singular value of the contracted matrix, so a grid over z alone is
    exhaustive up to the angular resolution.
    """
    if a.shape != (3, 3, 3):
        raise ValueError("sphere-grid oracle is for d=3 tensors")
    thetas = np.arange(0.0, np.pi + ang_step, ang_step)
    best = 0.0
    for theta in thetas:
        phis = np.arange(0.0, 2.0 * np.pi, ang_step)
        z = np.stack(
            [
                np.sin(theta) * np.cos(phis),
                np.sin(theta) * np.sin(phis),
                np.full_like(phis, np.cos(theta)),
            ],
            axis=1,
        )
        contracted = np.einsum("ijk,nk->nij", a, z)
        svals = np.linalg.svd(contracted, compute_uv=False)[:, 0]
        best = max(best, float(svals.max()))
    return best


class CountingTarget(TargetDensity):
    """Wrapper counting per-point evaluator calls (batch rows count singly)."""

    def __init__(self, inner: TargetDensity):
        self.inner = inner
        self.d = inner.d
        self.smoothness = inner.smoothness
        self.trace_bound = inner.trace_bound
        self.gamma = inner.gamma
        self.gradient_evals = 0
        self.potential_evals = 0
        self.hvp_rows = 0

    @staticmethod
    def _rows(q) -> int:
        return int(np.prod(q.shape[:-1])) if q.ndim > 1 else 1

    def potential(self, q):
        self.potential_evals += self._rows(q)
        return self.inner.potential(q)

    def gradient(self, q):
        self.gradient_evals += self._rows(q)
        return self.inner.gradient(q)

    def hessian_vec(self, q, v):
        self.hvp_rows += int(np.prod(np.broadcast_shapes(q.shape, v.shape)[:-1]))
        return self.inner.hessian_vec(q, v)

    def third_contract(self, q, u, v):
        return self.inner.third_contract(q, u, v)


class CubicFormTarget(TargetDensity):
    """f(q) = A[q, q, q] / 6 for a fixed symmetric tensor: grad^3 f = A everywhere.

    Unbounded below, so only fixed-point checks (p ~ N at a given x) use it.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.d = a.shape[0]
        self.smoothness = 1.0
        self.trace_bound = None
        self.gamma = None

    def potential(self, q):
        return np.einsum("ijk,...i,...j,...k->...", self.a, q, q, q) / 6.0

    def gradient(self, q):
        return 0.5 * np.einsum("ijk,...j,...k->...i", self.a, q, q)

    def hessian_vec(self, q, v):
        return np.einsum("ijk,...j,...k->...i", self.a, q, v)

    def third_contract(self, q, u, v):
        out = np.einsum("ijk,...i,...j->...k", self.a, u, v)
        shape = np.broadcast_shapes(q.shape, u.shape, v.shape)
        return np.broadcast_to(out, shape).copy()


class ZeroTarget(TargetDensity):
    """Constant potential: zero gradient everywhere (free flight)."""

    def __init__(self, d: int):
        self.d = d
        self.smoothness = 0.0
        self.trace_bound = 0.0
        self.gamma = 0.0

    def potential(self, q):
        return np.zeros(q.shape[:-1])

    def gradient(self, q):
        return np.zeros_like(q)

    def hessian_vec(self, q, v):
        return np.zeros(np.broadcast_shapes(q.shape, v.shape))

    def third_contract(self, q, u, v):
        return np.zeros(np.broadcast_shapes(q.shape, u.shape, v.shape))
