"""Target densities mu ~ exp(-f) and their derivative evaluators.

Every evaluator broadcasts over leading batch axes: positions have shape
(..., d), potentials come back with shape (...,) and gradients with shape
(..., d).  Second and third derivatives are exposed as contraction
evaluators (Hessian-vector products and third-derivative contractions);
the one dense evaluator, `hessian`, feeds the Jacobian recursion at d <= 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import UnsupportedCapability

Array = np.ndarray


class TargetDensity:
    """A potential f with derivative evaluators and declared regularity constants.

    Attributes:
        d: dimension of the position space.
        smoothness: L, an upper bound on the largest Hessian eigenvalue.
        trace_bound: Upsilon, an upper bound on trace of the Hessian
            (None when not declared; must satisfy Upsilon <= L*d).
        gamma: coefficient such that f is gamma * L^(3/2)-strongly Hessian
            Lipschitz (None when unknown; estimate empirically instead).
    """

    d: int
    smoothness: float
    trace_bound: float | None = None
    gamma: float | None = None

    def potential(self, q: Array) -> Array:
        raise NotImplementedError

    def gradient(self, q: Array) -> Array:
        raise NotImplementedError

    def hessian_vec(self, q: Array, v: Array) -> Array:
        raise UnsupportedCapability(
            f"{type(self).__name__} has no second-derivative evaluator"
        )

    def hessian(self, q: Array) -> Array:
        """The dense Hessian at q, shape (..., d, d): hessian_vec on the identity's columns."""
        return self.hessian_vec(q[..., None, :], np.eye(self.d))

    def third_contract(self, q: Array, u: Array, v: Array) -> Array:
        raise UnsupportedCapability(
            f"{type(self).__name__} has no third-derivative evaluator"
        )

    @property
    def has_third(self) -> bool:
        return type(self).third_contract is not TargetDensity.third_contract


class GaussianTarget(TargetDensity):
    """f(q) = q' Lambda q / 2 for a symmetric positive-definite precision Lambda."""

    def __init__(self, precision: Array):
        precision = np.atleast_2d(np.asarray(precision, dtype=float))
        if precision.shape[0] != precision.shape[1]:
            raise ValueError("precision matrix must be square")
        if not np.allclose(precision, precision.T):
            raise ValueError("precision matrix must be symmetric")
        self.precision = precision
        self.d = precision.shape[0]
        # diagonal precisions get elementwise evaluators; high dimensions
        # stay cheap and construction skips the dense factorizations
        diag = np.diagonal(precision)
        self._diag = diag.copy() if np.count_nonzero(precision - np.diag(diag)) == 0 else None
        # 1.0 * x is x bit for bit: a unit diagonal skips its multiplies and divides
        self._unit = self._diag is not None and bool((diag == 1.0).all())
        if self._diag is not None:
            if np.any(diag <= 0):
                raise ValueError("precision matrix must be positive definite")
            self.smoothness = float(diag.max())
            self._chol = None
        else:
            eigvals = np.linalg.eigvalsh(precision)
            if eigvals[0] <= 0:
                raise ValueError("precision matrix must be positive definite")
            self.smoothness = float(eigvals[-1])
            # lower Cholesky of Lambda; exact sampling uses cov = Lambda^-1
            self._chol = np.linalg.cholesky(precision)
        self.trace_bound = float(np.trace(precision))
        self.gamma = 0.0

    @classmethod
    def standard(cls, d: int) -> "GaussianTarget":
        return cls(np.eye(d))

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "GaussianTarget":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def potential(self, q: Array) -> Array:
        if self._unit:
            return 0.5 * (q * q).sum(axis=-1)
        if self._diag is not None:
            return 0.5 * (self._diag * q * q).sum(axis=-1)
        return 0.5 * np.einsum("...i,ij,...j->...", q, self.precision, q)

    def gradient(self, q: Array) -> Array:
        if self._unit:  # a fresh array: the carried gradient must not alias q
            return np.array(q, dtype=float)
        if self._diag is not None:
            return self._diag * q
        return q @ self.precision

    def hessian_vec(self, q: Array, v: Array) -> Array:
        hv = self._diag * v if self._diag is not None else v @ self.precision
        return np.broadcast_arrays(q, hv)[1].copy()

    def hessian(self, q: Array) -> Array:
        return np.broadcast_to(self.precision, q.shape[:-1] + (self.d, self.d)).copy()

    def third_contract(self, q: Array, u: Array, v: Array) -> Array:
        shape = np.broadcast_shapes(q.shape, u.shape, v.shape)
        return np.zeros(shape)

    def sample_exact(self, n: int, rng: np.random.Generator) -> Array:
        """n exact draws from N(0, Lambda^-1)."""
        z = rng.standard_normal((n, self.d))
        if self._diag is not None:
            return z if self._unit else z / np.sqrt(self._diag)
        # one solve for all n right-hand sides; C order, since matmul rounds rows by layout
        return np.ascontiguousarray(np.linalg.solve(self._chol.T, z.T).T)


@dataclass(frozen=True)
class UnivariatePotential:
    """A scalar potential u with elementwise derivative callables and caps.

    rho2 and rho3 bound |u''| and |u'''| on the region the target is used;
    they feed the declared L, Upsilon, gamma of ridge-separable targets.
    """

    value: Callable[[Array], Array]
    d1: Callable[[Array], Array]
    d2: Callable[[Array], Array]
    d3: Callable[[Array], Array]
    rho2: float
    rho3: float


def quadratic_potential() -> UnivariatePotential:
    return UnivariatePotential(
        value=lambda z: 0.5 * z**2,
        d1=lambda z: z,
        d2=lambda z: np.ones_like(z),
        d3=lambda z: np.zeros_like(z),
        rho2=1.0,
        rho3=0.0,
    )


def cubic_potential() -> UnivariatePotential:
    # unbounded u''; caps are valid on |z| <= 1 where tests evaluate it
    return UnivariatePotential(
        value=lambda z: z**3 / 6.0,
        d1=lambda z: 0.5 * z**2,
        d2=lambda z: z,
        d3=lambda z: np.ones_like(z),
        rho2=1.0,
        rho3=1.0,
    )


def logcosh_potential() -> UnivariatePotential:
    # u'' = sech^2 <= 1, |u'''| = |2 sech^2 tanh| <= 4/(3 sqrt 3)
    return UnivariatePotential(
        value=lambda z: np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - np.log(2.0),
        d1=np.tanh,
        d2=lambda z: 1.0 / np.cosh(z) ** 2,
        d3=lambda z: -2.0 * np.tanh(z) / np.cosh(z) ** 2,
        rho2=1.0,
        rho3=4.0 / (3.0 * math.sqrt(3.0)),
    )


def sine_potential() -> UnivariatePotential:
    return UnivariatePotential(
        value=np.sin,
        d1=np.cos,
        d2=lambda z: -np.sin(z),
        d3=lambda z: -np.cos(z),
        rho2=1.0,
        rho3=1.0,
    )


_POTENTIALS = {
    "quadratic": quadratic_potential,
    "cubic": cubic_potential,
    "logcosh": logcosh_potential,
    "sine": sine_potential,
}


def named_potential(name: str) -> UnivariatePotential:
    try:
        return _POTENTIALS[name]()
    except KeyError:
        raise ValueError(f"unknown univariate potential {name!r}") from None


def _sigmoid(z: Array) -> Array:
    """1 / (1 + exp(-z)), as exp(-|z|) / (1 + exp(-|z|)) for z < 0, so exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logistic_loss(y: Array) -> UnivariatePotential:
    """u(z) = log(1 + exp(-z)) + (1 - y) z, the loss of labels y in {0, 1} on z's last axis.

    Overflow-safe as log1p(exp(-|z|)) + max(-z, 0) + (1 - y) z; u'' = s (1 - s)
    is e / (1 + e)^2 with e = exp(-|z|), exact to rounding at every |z|.  The
    declared caps are rho2 = rho3 = 1 (u'' <= 1/4 is tighter).
    """
    return UnivariatePotential(
        value=lambda z: np.log1p(np.exp(-np.abs(z))) + np.maximum(-z, 0.0) + (1.0 - y) * z,
        d1=lambda z: _sigmoid(z) - y,
        d2=lambda z: (e := np.exp(-np.abs(z))) / (1.0 + e) ** 2,
        d3=lambda z: (s := _sigmoid(z)) * (1.0 - s) * (1.0 - 2.0 * s),
        rho2=1.0,
        rho3=1.0,
    )


def _outer_sum(w: Array, rows: Array) -> Array:
    """sum_i w[..., i] r_i r_i' over the rows r_i of an (n, d) matrix, shape (..., d, d).

    The table of outer products is built per call, 2^17 / d^2 rows (1 MiB) at a time,
    and each chunk's sum is one matrix product."""
    d = rows.shape[1]
    step = max(1, 2**17 // d**2)
    table = lambda r: (r[:, :, None] * r[:, None, :]).reshape(-1, d * d)
    out = w[..., :step] @ table(rows[:step])
    for i in range(step, len(rows), step):
        out += w[..., i:i + step] @ table(rows[i:i + step])
    return out.reshape(w.shape[:-1] + (d, d))


class RidgeSeparableTarget(TargetDensity):
    """f(theta) = sum_i u(a_i' theta) + (alpha^2 / 2) ||theta||^2 with unit direction vectors
    a_i and one potential u; alpha2 is 0, and adds no term, unless a subclass sets it.

    With |u''| <= rho2 and |u'''| <= rho3 the Hessian operator norm is at most
    n*rho2 + alpha^2, its trace at most n*rho2 + d*alpha^2, and the third
    derivative's {12}{3}- and {123}-norms are at most n*rho3, which fixes the
    declared constants.
    """

    alpha2 = 0.0

    def __init__(self, directions: Array, potential: UnivariatePotential):
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        if not np.allclose(np.linalg.norm(directions, axis=1), 1.0, atol=1e-9):
            raise ValueError("ridge directions (data rows) must have unit norm")
        self.directions = directions
        self.n, self.d = directions.shape
        self._u = potential
        self.rho2, self.rho3 = potential.rho2, potential.rho3
        self.smoothness = self.n * self.rho2 + self.alpha2
        self.trace_bound = self.n * self.rho2 + self.d * self.alpha2
        cap = self.n * self.rho3
        self.gamma = cap / self.smoothness**1.5 if self.smoothness > 0 else None

    def _apply(self, which: str, q: Array) -> Array:
        return getattr(self._u, which)(q @ self.directions.T)

    def potential(self, q: Array) -> Array:
        f = self._apply("value", q).sum(axis=-1)
        return f + 0.5 * self.alpha2 * (q * q).sum(axis=-1) if self.alpha2 else f

    def gradient(self, q: Array) -> Array:
        g = self._apply("d1", q) @ self.directions
        return g + self.alpha2 * q if self.alpha2 else g

    def hessian_vec(self, q: Array, v: Array) -> Array:
        hv = (self._apply("d2", q) * (v @ self.directions.T)) @ self.directions
        return hv + self.alpha2 * v if self.alpha2 else hv

    def hessian(self, q: Array) -> Array:
        h = _outer_sum(self._apply("d2", q), self.directions)
        if self.alpha2:  # the prior on the diagonal
            h.reshape(h.shape[:-2] + (self.d**2,))[..., :: self.d + 1] += self.alpha2
        return h

    def third_contract(self, q: Array, u: Array, v: Array) -> Array:
        w = self._apply("d3", q) * (u @ self.directions.T) * (v @ self.directions.T)
        return w @ self.directions


class LogisticPosteriorTarget(RidgeSeparableTarget):
    """Bayesian logistic regression posterior: the ridge-separable target on covariate rows
    x_i with the labelled loss `logistic_loss(y)` and a Gaussian prior of precision alpha^2.

    The loss caps give L = n + alpha^2 and gamma = n / L^1.5; the trace bound
    n/4 + d alpha^2 reads loss'' <= 1/4.
    """

    def __init__(self, x: Array, y: Array, alpha2: float):
        y = np.asarray(y, dtype=float).ravel()
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        if alpha2 < 0:
            raise ValueError("prior precision must be nonnegative")
        self.alpha2 = float(alpha2)
        super().__init__(x, logistic_loss(y))
        if self.n != y.shape[0]:
            raise ValueError("data matrix and labels disagree on n")
        self.x, self.y = self.directions, y
        self.trace_bound = 0.25 * self.n + self.d * self.alpha2

    @classmethod
    def from_csv(cls, path: str, alpha2: float) -> "LogisticPosteriorTarget":
        """Rows are x_1, ..., x_d, y."""
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(data[:, :-1], data[:, -1], alpha2)

    @classmethod
    def synthetic(
        cls, n: int, d: int, alpha2: float, rng: np.random.Generator
    ) -> "LogisticPosteriorTarget":
        x = random_unit_rows(n, d, rng)
        theta = rng.standard_normal(d)
        y = (rng.random(n) < _sigmoid(x @ theta)).astype(float)
        return cls(x, y, alpha2)


def _sech2(z: Array) -> Array:
    return 1.0 / np.cosh(z) ** 2


# tanh and its first three derivatives: |tanh| <= 1, |sech^2| <= 1,
# |tanh''| <= 4/(3 sqrt 3), |tanh'''| <= 2; the cap 2 covers all four
_TANH = (
    np.tanh,
    _sech2,
    lambda z: -2.0 * np.tanh(z) * _sech2(z),
    lambda z: _sech2(z) * (4.0 * np.tanh(z) ** 2 - 2.0 * _sech2(z)),
)
_TANH_CAP = 2.0


class TwoLayerNetTarget(TargetDensity):
    """Squared-error risk of a two-layer tanh network with fixed outer weights.

    f(theta) = sum_i (y_i - sum_j w_j tanh(theta_j' x_i))^2 over parameters
    theta = (theta_1, ..., theta_m) flattened to R^(m * dp).  tanh and its
    first three derivatives are bounded by the cap c = 2, which fixes the
    declared constants.
    """

    def __init__(self, weights: Array, x: Array, y: Array):
        self.w = np.asarray(weights, dtype=float).ravel()
        if np.any(np.abs(self.w) > 1.0 + 1e-12):
            raise ValueError("outer-layer weights must satisfy |w_j| <= 1")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if not np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-9):
            raise ValueError("data rows must have unit norm")
        self.x = x
        self.y = np.asarray(y, dtype=float).ravel()
        self.m = self.w.size
        self.n, self.dp = x.shape
        c = _TANH_CAP
        if np.any(np.abs(self.y) > self.m * c + 1e-12):
            raise ValueError("labels must satisfy |y_i| <= m * cap")
        self.d = self.m * self.dp
        # explicit-constant versions of the O(m n c^2) Hessian bound
        self.smoothness = 6.0 * self.m * self.n * c**2
        self.trace_bound = 6.0 * self.n * self.m**2 * c**2
        self.gamma = None  # estimate empirically via tensor analysis

    @classmethod
    def synthetic(
        cls, m: int, n: int, dp: int, rng: np.random.Generator
    ) -> "TwoLayerNetTarget":
        w = rng.uniform(-1.0, 1.0, size=m)
        x = rng.standard_normal((n, dp))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = rng.uniform(-m * _TANH_CAP, m * _TANH_CAP, size=n)
        return cls(w, x, y)

    def _blocks(self, q: Array) -> Array:
        return q.reshape(q.shape[:-1] + (self.m, self.dp))

    def _residual(self, z: Array) -> Array:
        # z has shape (..., m, n); returns y_i - f_NN(x_i), shape (..., n)
        return self.y - np.einsum("j,...jn->...n", self.w, _TANH[0](z))

    def potential(self, q: Array) -> Array:
        z = self._blocks(q) @ self.x.T
        r = self._residual(z)
        return (r * r).sum(axis=-1)

    def gradient(self, q: Array) -> Array:
        z = self._blocks(q) @ self.x.T
        r = self._residual(z)
        coef = -2.0 * self.w[:, None] * _TANH[1](z) * r[..., None, :]
        return (coef @ self.x).reshape(q.shape)

    def hessian_vec(self, q: Array, v: Array) -> Array:
        q, v = np.broadcast_arrays(q, v)
        z = self._blocks(q) @ self.x.T
        r = self._residual(z)
        s1 = _TANH[1](z)
        pv = self._blocks(v) @ self.x.T
        g = np.einsum("j,...jn,...jn->...n", self.w, s1, pv)
        coef = self.w[:, None] * (
            s1 * g[..., None, :] - _TANH[2](z) * pv * r[..., None, :]
        )
        return 2.0 * (coef @ self.x).reshape(q.shape)

    def third_contract(self, q: Array, u: Array, v: Array) -> Array:
        q, u, v = np.broadcast_arrays(q, u, v)
        z = self._blocks(q) @ self.x.T
        r = self._residual(z)
        s1, s2, s3 = (fn(z) for fn in _TANH[1:])
        a = self._blocks(u) @ self.x.T
        b = self._blocks(v) @ self.x.T
        g_u = np.einsum("j,...jn,...jn->...n", self.w, s1, a)
        g_v = np.einsum("j,...jn,...jn->...n", self.w, s1, b)
        f2 = np.einsum("j,...jn,...jn,...jn->...n", self.w, s2, a, b)
        coef = self.w[:, None] * (
            g_u[..., None, :] * s2 * b
            + g_v[..., None, :] * s2 * a
            + f2[..., None, :] * s1
            - r[..., None, :] * s3 * a * b
        )
        return 2.0 * (coef @ self.x).reshape(q.shape)


def random_unit_rows(n: int, d: int, rng: np.random.Generator) -> Array:
    """n random unit vectors in R^d, rows of the returned matrix."""
    a = rng.standard_normal((n, d))
    return a / np.linalg.norm(a, axis=1, keepdims=True)
