"""Target densities mu ~ exp(-f) and their derivative evaluators.

Every evaluator broadcasts over leading batch axes: positions have shape
(..., d), potentials come back with shape (...,) and gradients with shape
(..., d).  Second and third derivatives are exposed as contraction
evaluators (Hessian-vector products and third-derivative contractions),
never as materialized d^2 / d^3 arrays.
"""

from __future__ import annotations

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

    def third_contract(self, q: Array, u: Array, v: Array) -> Array:
        raise UnsupportedCapability(
            f"{type(self).__name__} has no third-derivative evaluator"
        )

    @property
    def has_hessian(self) -> bool:
        return type(self).hessian_vec is not TargetDensity.hessian_vec

    @property
    def has_third(self) -> bool:
        return type(self).third_contract is not TargetDensity.third_contract


def eval_potential(target: TargetDensity, q: Array) -> Array:
    """f(q); raises ValueError on dimension mismatch or non-finite result."""
    q = _check_point(target, q)
    with np.errstate(over="ignore", invalid="ignore"):
        value = target.potential(q)
    if not np.all(np.isfinite(value)):
        raise ValueError("potential overflowed to a non-finite value")
    return value


def eval_gradient(target: TargetDensity, q: Array) -> Array:
    """grad f(q); raises ValueError on non-finite entries."""
    q = _check_point(target, q)
    with np.errstate(over="ignore", invalid="ignore"):
        g = target.gradient(q)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient has non-finite entries")
    return g


def eval_hessian_vec(target: TargetDensity, q: Array, v: Array) -> Array:
    """Hessian-vector product (grad^2 f at q) v."""
    q = _check_point(target, q)
    v = _check_point(target, v)
    return target.hessian_vec(q, v)


def eval_third_contract(target: TargetDensity, q: Array, u: Array, v: Array) -> Array:
    """Third-derivative contraction (grad^3 f at q)[u, v, .], symmetric in (u, v)."""
    q = _check_point(target, q)
    return target.third_contract(q, _check_point(target, u), _check_point(target, v))


def _check_point(target: TargetDensity, q: Array) -> Array:
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (target.d,):
        raise ValueError(f"expected trailing dimension {target.d}, got shape {q.shape}")
    return q


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
        if self._diag is not None:
            return 0.5 * (self._diag * q * q).sum(axis=-1)
        return 0.5 * np.einsum("...i,ij,...j->...", q, self.precision, q)

    def gradient(self, q: Array) -> Array:
        if self._diag is not None:
            return self._diag * q
        return q @ self.precision

    def hessian_vec(self, q: Array, v: Array) -> Array:
        hv = self._diag * v if self._diag is not None else v @ self.precision
        return np.broadcast_arrays(q, hv)[1].copy()

    def third_contract(self, q: Array, u: Array, v: Array) -> Array:
        shape = np.broadcast_shapes(q.shape, u.shape, v.shape)
        return np.zeros(shape)

    def sample_exact(self, n: int, rng: np.random.Generator) -> Array:
        """n exact draws from N(0, Lambda^-1)."""
        z = rng.standard_normal((n, self.d))
        if self._diag is not None:
            return z / np.sqrt(self._diag)
        return np.linalg.solve(self._chol.T[None], z[..., None])[..., 0]


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
    name: str = "custom"


def quadratic_potential() -> UnivariatePotential:
    return UnivariatePotential(
        value=lambda z: 0.5 * z**2,
        d1=lambda z: z,
        d2=lambda z: np.ones_like(z),
        d3=lambda z: np.zeros_like(z),
        rho2=1.0,
        rho3=0.0,
        name="quadratic",
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
        name="cubic",
    )


def logcosh_potential() -> UnivariatePotential:
    # u'' = sech^2 <= 1, |u'''| = |2 sech^2 tanh| <= 4/(3 sqrt 3)
    return UnivariatePotential(
        value=lambda z: np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - np.log(2.0),
        d1=np.tanh,
        d2=lambda z: 1.0 / np.cosh(z) ** 2,
        d3=lambda z: -2.0 * np.tanh(z) / np.cosh(z) ** 2,
        rho2=1.0,
        rho3=4.0 / (3.0 * np.sqrt(3.0)),
        name="logcosh",
    )


def sine_potential() -> UnivariatePotential:
    return UnivariatePotential(
        value=np.sin,
        d1=np.cos,
        d2=lambda z: -np.sin(z),
        d3=lambda z: -np.cos(z),
        rho2=1.0,
        rho3=1.0,
        name="sine",
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


class RidgeSeparableTarget(TargetDensity):
    """f(theta) = sum_i u_i(a_i' theta) with unit direction vectors a_i.

    With |u''| <= rho2 and |u'''| <= rho3 the Hessian operator norm is at
    most n*rho2 and the third derivative's {12}{3}- and {123}-norms are at
    most n*rho3, which fixes the declared constants.
    """

    def __init__(
        self,
        directions: Array,
        potentials: UnivariatePotential | Sequence[UnivariatePotential],
        smoothness: float | None = None,
    ):
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        norms = np.linalg.norm(directions, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("ridge directions must have unit norm")
        self.directions = directions
        self.n, self.d = directions.shape
        if isinstance(potentials, UnivariatePotential):
            self._shared = potentials
            self._potentials = [potentials] * self.n
        else:
            potentials = list(potentials)
            if len(potentials) != self.n:
                raise ValueError("need one univariate potential per direction")
            self._shared = potentials[0] if len(set(map(id, potentials))) == 1 else None
            self._potentials = potentials
        self.rho2 = max(u.rho2 for u in self._potentials)
        self.rho3 = max(u.rho3 for u in self._potentials)
        self.smoothness = float(smoothness if smoothness is not None else self.n * self.rho2)
        self.trace_bound = self.n * self.rho2
        cap = self.n * self.rho3
        self.gamma = cap / self.smoothness**1.5 if self.smoothness > 0 else None

    def _z(self, q: Array) -> Array:
        return q @ self.directions.T

    def _apply(self, which: str, z: Array) -> Array:
        if self._shared is not None:
            return getattr(self._shared, which)(z)
        out = np.empty_like(z)
        for i, u in enumerate(self._potentials):
            out[..., i] = getattr(u, which)(z[..., i])
        return out

    def potential(self, q: Array) -> Array:
        return self._apply("value", self._z(q)).sum(axis=-1)

    def gradient(self, q: Array) -> Array:
        return self._apply("d1", self._z(q)) @ self.directions

    def hessian_vec(self, q: Array, v: Array) -> Array:
        w = self._apply("d2", self._z(q)) * (v @ self.directions.T)
        return w @ self.directions

    def third_contract(self, q: Array, u: Array, v: Array) -> Array:
        w = self._apply("d3", self._z(q)) * (u @ self.directions.T) * (v @ self.directions.T)
        return w @ self.directions


def _sigmoid(z: Array) -> Array:
    """1 / (1 + exp(-z)), as exp(-|z|) / (1 + exp(-|z|)) for z < 0, so exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class LogisticPosteriorTarget(TargetDensity):
    """Bayesian logistic regression posterior potential.

    f(theta) = sum_i loss(theta' x_i, y_i) + (alpha^2 / 2) ||theta||^2 with
    loss(z, 1) = log(1 + exp(-z)) and loss(z, 0) = z + log(1 + exp(-z)),
    computed in the overflow-safe form log1p(exp(-|z|)) + max(-z, 0).
    """

    def __init__(self, x: Array, y: Array, alpha2: float):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("data matrix and labels disagree on n")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        norms = np.linalg.norm(x, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("covariate rows must have unit norm")
        if alpha2 < 0:
            raise ValueError("prior precision must be nonnegative")
        self.x = x
        self.y = y
        self.alpha2 = float(alpha2)
        self.n, self.d = x.shape
        # the data Hessian has spectral norm <= n (|loss''| <= 1); adding the
        # prior gives the declared bound n + alpha^2
        self.smoothness = self.n + self.alpha2
        # trace <= n * max loss'' + d * alpha^2, with loss'' <= 1/4
        self.trace_bound = 0.25 * self.n + self.d * self.alpha2
        self.gamma = self.n / self.smoothness**1.5 if self.smoothness > 0 else None

    @classmethod
    def from_csv(cls, path: str, alpha2: float) -> "LogisticPosteriorTarget":
        """Rows are x_1, ..., x_d, y."""
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(data[:, :-1], data[:, -1], alpha2)

    @classmethod
    def synthetic(
        cls, n: int, d: int, alpha2: float, rng: np.random.Generator
    ) -> "LogisticPosteriorTarget":
        x = rng.standard_normal((n, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        theta = rng.standard_normal(d)
        y = (rng.random(n) < _sigmoid(x @ theta)).astype(float)
        return cls(x, y, alpha2)

    def potential(self, q: Array) -> Array:
        z = q @ self.x.T
        loss = np.log1p(np.exp(-np.abs(z))) + np.maximum(-z, 0.0) + (1.0 - self.y) * z
        return loss.sum(axis=-1) + 0.5 * self.alpha2 * (q * q).sum(axis=-1)

    def gradient(self, q: Array) -> Array:
        z = q @ self.x.T
        return (_sigmoid(z) - self.y) @ self.x + self.alpha2 * q

    def hessian_vec(self, q: Array, v: Array) -> Array:
        s = _sigmoid(q @ self.x.T)
        w = s * (1.0 - s)
        return (w * (v @ self.x.T)) @ self.x + self.alpha2 * v

    def third_contract(self, q: Array, u: Array, v: Array) -> Array:
        s = _sigmoid(q @ self.x.T)
        w = s * (1.0 - s) * (1.0 - 2.0 * s)
        prior = np.zeros(np.broadcast_shapes(u.shape, v.shape, q.shape))
        return (w * (u @ self.x.T) * (v @ self.x.T)) @ self.x + prior


@dataclass(frozen=True)
class Activation:
    """Bounded activation with derivatives up to third order, all |.| <= cap."""

    value: Callable[[Array], Array]
    d1: Callable[[Array], Array]
    d2: Callable[[Array], Array]
    d3: Callable[[Array], Array]
    cap: float
    name: str = "custom"


def tanh_activation() -> Activation:
    # |tanh| <= 1, |sech^2| <= 1, |sigma''| <= 4/(3 sqrt 3), |sigma'''| <= 2;
    # cap 2 covers all four
    sech2 = lambda z: 1.0 / np.cosh(z) ** 2
    return Activation(
        value=np.tanh,
        d1=sech2,
        d2=lambda z: -2.0 * np.tanh(z) * sech2(z),
        d3=lambda z: sech2(z) * (4.0 * np.tanh(z) ** 2 - 2.0 * sech2(z)),
        cap=2.0,
        name="tanh",
    )


class TwoLayerNetTarget(TargetDensity):
    """Squared-error risk of a two-layer network with fixed outer weights.

    f(theta) = sum_i (y_i - sum_j w_j sigma(theta_j' x_i))^2 over parameters
    theta = (theta_1, ..., theta_m) flattened to R^(m * dp).
    """

    def __init__(
        self,
        weights: Array,
        x: Array,
        y: Array,
        activation: Activation | None = None,
    ):
        self.activation = activation if activation is not None else tanh_activation()
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
        c = self.activation.cap
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
        act = tanh_activation()
        w = rng.uniform(-1.0, 1.0, size=m)
        x = rng.standard_normal((n, dp))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = rng.uniform(-m * act.cap, m * act.cap, size=n)
        return cls(w, x, y, act)

    def _blocks(self, q: Array) -> Array:
        return q.reshape(q.shape[:-1] + (self.m, self.dp))

    def _residual(self, z: Array) -> Array:
        # z has shape (..., m, n); returns y_i - f_NN(x_i), shape (..., n)
        return self.y - np.einsum("j,...jn->...n", self.w, self.activation.value(z))

    def potential(self, q: Array) -> Array:
        z = self._blocks(q) @ self.x.T
        r = self._residual(z)
        return (r * r).sum(axis=-1)

    def gradient(self, q: Array) -> Array:
        z = self._blocks(q) @ self.x.T
        r = self._residual(z)
        coef = -2.0 * self.w[:, None] * self.activation.d1(z) * r[..., None, :]
        return (coef @ self.x).reshape(q.shape)

    def hessian_vec(self, q: Array, v: Array) -> Array:
        q, v = np.broadcast_arrays(q, v)
        z = self._blocks(q) @ self.x.T
        r = self._residual(z)
        s1 = self.activation.d1(z)
        pv = self._blocks(v) @ self.x.T
        g = np.einsum("j,...jn,...jn->...n", self.w, s1, pv)
        coef = self.w[:, None] * (
            s1 * g[..., None, :] - self.activation.d2(z) * pv * r[..., None, :]
        )
        return 2.0 * (coef @ self.x).reshape(q.shape)

    def third_contract(self, q: Array, u: Array, v: Array) -> Array:
        q, u, v = np.broadcast_arrays(q, u, v)
        z = self._blocks(q) @ self.x.T
        r = self._residual(z)
        s1, s2, s3 = (getattr(self.activation, k)(z) for k in ("d1", "d2", "d3"))
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
