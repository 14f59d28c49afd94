"""Multi-index norms of order-3 tensors and derivative-tensor analysis.

Three partition norms of a dense tensor A in R^(d x d x d) are supported:

    {123}    Frobenius norm, sqrt of the sum of squared entries;
    {12}{3}  sup over unit z of ||A[., ., z]||_F, computed exactly as the
             largest singular value of the (d^2, d) unfolding;
    {1}{2}{3}  the injective norm sup A[x, y, z] over unit x, y, z, which is
             NP-hard in general and is reported as a multistart lower bound.

They are ordered: {1}{2}{3} <= {12}{3} <= {123}.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass

import numpy as np

from .leapfrog import _row_blocks
from .targets import TargetDensity

Array = np.ndarray

#: dense third-derivative tensors hold d^3 entries; small-dimension analysis only
MAX_TENSOR_DIM = 64
_MAX_SWEEPS = 200  # per injective-norm restart


def as_tensor3(a: Array) -> Array:
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or len(set(a.shape)) != 1:
        raise ValueError("expected a dense tensor of shape (d, d, d)")
    if not np.all(np.isfinite(a)):
        raise ValueError("tensor entries must be finite")
    return a


def symmetrize(a: Array) -> Array:
    """Average over the 6 index permutations."""
    a = as_tensor3(a)
    return sum(np.transpose(a, perm) for perm in itertools.permutations(range(3))) / 6.0


def norm_frobenius_123(a: Array) -> float:
    return float(np.sqrt((as_tensor3(a) ** 2).sum()))


def norm_12_3(a: Array) -> float:
    a = as_tensor3(a)
    d = a.shape[0]
    return float(np.linalg.svd(a.reshape(d * d, d), compute_uv=False)[0])


def norm_injective_lower(
    a: Array,
    restarts: int = 20,
    rng: np.random.Generator | None = None,
) -> float:
    """Best value of A[x, y, z] over unit vectors found by alternating ascent.

    Each restart draws fresh unit vectors from its own substream and
    cyclically replaces x, y, z by the normalized partial contraction, which
    never decreases the value, for at most 200 sweeps or until a sweep gains
    less than 1e-12 relative.  The restarts climb together as one block, in
    row blocks of `leapfrog._row_blocks` so memory stays O(block d^2); each
    contraction is one matrix product per restart, so a restart's value does
    not depend on the others, and a converged restart leaves the block.  A
    certified lower bound on the injective norm.
    """
    return _injective_ascent(a, restarts, rng)[0]


def _injective_ascent(a: Array, restarts: int, rng: np.random.Generator | None):
    """(best value, largest sweep count, restarts stopped at the sweep cap)."""
    a = as_tensor3(a)
    if restarts < 1:
        raise ValueError("need at least one restart")
    if rng is None:
        rng = np.random.default_rng(0)
    d = a.shape[0]
    by_z = np.ascontiguousarray(np.moveaxis(a, 2, 0)).reshape(d, d * d)  # rows k, columns (i, j)
    best, max_sweeps, capped = 0.0, 0, 0
    for rows in _row_blocks(restarts, d * d):
        starts = np.stack([sub.standard_normal((3, d)) for sub in rng.spawn(rows.stop - rows.start)])
        x, y, z = np.moveaxis(starts / np.linalg.norm(starts, axis=2, keepdims=True), 1, 0).copy()
        value = np.zeros(len(starts))
        for sweep in range(1, _MAX_SWEEPS + 1):
            m = (z[:, None, :] @ by_z).reshape(-1, d, d)  # A[., ., z]
            x = _rows_normalized((m @ y[:, :, None])[:, :, 0], x)
            y = _rows_normalized((x[:, None, :] @ m)[:, 0], y)
            v = ((x[:, :, None] * y[:, None, :]).reshape(-1, 1, d * d) @ by_z.T)[:, 0]
            z = _rows_normalized(v, z)
            new_value = np.abs((v * z).sum(axis=1))
            done = new_value - value <= 1e-12 * np.maximum(1.0, new_value)
            value = new_value
            if done.any():
                best = max(best, float(value[done].max()))
                max_sweeps = max(max_sweeps, sweep)
                x, y, z, value = x[~done], y[~done], z[~done], value[~done]  # frozen rows leave
                if not value.size:
                    break
        else:
            best = max(best, float(value.max()))
            max_sweeps, capped = _MAX_SWEEPS, capped + value.size
    return best, max_sweeps, capped


def _rows_normalized(v: Array, fallback: Array) -> Array:
    """Each row of v over its norm, written over fallback; a zero row keeps fallback's row."""
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return np.divide(v, norms, out=fallback, where=norms > 0)


@dataclass(frozen=True)
class TensorNormReport:
    norm_123: float
    norm_12_3: float
    norm_1_2_3_lower: float
    partition_ordering_ok: bool
    max_sweeps: int  # the injective-norm ascent's largest sweep count over its restarts
    capped_restarts: int  # restarts stopped at the sweep cap before converging

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def tensor_report(
    a: Array, restarts: int = 20, rng: np.random.Generator | None = None
) -> TensorNormReport:
    n123 = norm_frobenius_123(a)
    n12_3 = norm_12_3(a)
    lower, max_sweeps, capped = _injective_ascent(a, restarts, rng)
    ok = lower <= n12_3 * (1.0 + 1e-10) and n12_3 <= n123 * (1.0 + 1e-10)
    return TensorNormReport(n123, n12_3, lower, ok, max_sweeps, capped)


def third_derivative_tensor(target: TargetDensity, q: Array) -> Array:
    """Dense grad^3 f at q, built entrywise from contraction evaluations.

    Fills A[i, j, :] = (grad^3 f)[e_i, e_j, .] over all basis pairs in one
    batched call and symmetrizes; raises beyond MAX_TENSOR_DIM.
    """
    if target.d > MAX_TENSOR_DIM:
        raise ValueError(f"dense third-derivative tensors capped at d <= {MAX_TENSOR_DIM}")
    q = np.asarray(q, dtype=float)
    basis = np.eye(target.d)
    u = np.broadcast_to(basis[:, None, :], (target.d, target.d, target.d))
    v = np.broadcast_to(basis[None, :, :], (target.d, target.d, target.d))
    a = target.third_contract(q[None, None, :], u, v)
    return symmetrize(a)


def estimate_gamma(target: TargetDensity, sample_points: Array) -> float:
    """Empirical lower bound on the Hessian-Lipschitz coefficient gamma.

    Maximizes ||grad^3 f||_{12}{3} / L^(3/2) over the supplied points.
    """
    if target.smoothness <= 0:
        raise ValueError("target must declare positive smoothness")
    points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    scale = target.smoothness**1.5
    return max(norm_12_3(third_derivative_tensor(target, q)) / scale for q in points)
