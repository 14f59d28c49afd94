"""Independent oracles used by the tests.

Everything here is deliberately computed by a different route than the
library: explicit linear maps for quadratic potentials, finite differences,
quadrature, and brute-force searches.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from hmclab.errors import ConvergenceError, SingularJacobian
from hmclab.kernel import BatchTransition, _drive, chain_rng
from hmclab.leapfrog import PhaseState, _block_rows, _in_bounds, _orbit, continuous_flow, leapfrog_final
from hmclab.moments import (
    MomentAccumulator,
    MomentReport,
    chain_stationary_sampler,
    energy_error_bound,
    exact_gaussian_sampler,
    upsilon_ell,
)
from hmclab.targets import GaussianTarget, LogisticPosteriorTarget, TargetDensity, logistic_loss
from hmclab.tensors import norm_12_3, norm_frobenius_123, third_derivative_tensor
from hmclab.tuning import d_ell


def hamiltonian(target: TargetDensity, s: PhaseState) -> np.ndarray:
    """H(q, p) = f(q) + ||p||^2 / 2."""
    return target.potential(s.q) + 0.5 * (s.p * s.p).sum(axis=-1)


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


def exact_gaussian_acceptance(d: int, eta: float, K: int) -> float:
    """Stationary E min(1, exp(delta H)) of K leapfrog steps on N(0, I_d), by 1-D quadrature.

    Each coordinate's (q_i, p_i) ~ N(0, I_2) moves by the same 2x2 matrix M,
    so delta H = sum_i z_i' (I - M'M) z_i / 2 = a U - b V with U and V
    independent chi^2_d, where 2a >= 0 >= -2b are the eigenvalues of
    I - M'M (det M = 1 gives one of each sign, and a < 1/2).  Given V = v,
    delta H >= 0 has probability Q(d/2, b v / 2a), and
    E[exp(a U); a U < b v] = (1 - 2a)^(-d/2) P(d/2, (1 - 2a) b v / 2a), with
    P and Q the regularized incomplete gamma functions.  The outer
    expectation over V is a quadrature over the chi^2_d quantile.
    """
    from scipy import integrate, special, stats

    m = np.linalg.matrix_power(gaussian_leapfrog_matrix(np.eye(1), eta), K)
    mu_minus, mu_plus = np.linalg.eigvalsh(np.eye(2) - m.T @ m)
    a, b, half = mu_plus / 2.0, -mu_minus / 2.0, d / 2.0

    def given_v(t):
        bv = b * stats.chi2.ppf(t, d)
        below = math.exp(-bv - half * math.log1p(-2.0 * a)) * special.gammainc(
            half, (1.0 - 2.0 * a) * bv / (2.0 * a))
        return special.gammaincc(half, bv / (2.0 * a)) + below

    return integrate.quad(given_v, 0.0, 1.0, epsabs=1e-12, limit=200)[0]


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


def whole_batch_forward_logdet(target, q0, p, K: int, eta: float):
    """(F_K(q0, p), log det D2F_K(q0, p)) from one dense recursion over all rows of p.

    The analysis's arithmetic without its sub-blocks: the K-1 Hessians of every
    row from one `hessian` call on the whole batch's stacked orbit positions,
    the recursion on E_j = D_j - j eta I with one product H_j D_j per step
    after the first, over an (n, d, d) batch, then `slogdet` with the
    positive-sign check.  grad f(q0) is evaluated once, at q0's own shape, as
    the analysis does.
    """
    g0 = target.gradient(np.asarray(q0, dtype=float))
    q0, p = np.broadcast_arrays(np.asarray(q0, dtype=float), np.asarray(p, dtype=float))
    positions = [q for q, _, _ in _orbit(target, q0, p, K, eta, g0, last_gradient=False)]
    eye = np.eye(target.d)
    jac = eta * np.broadcast_to(eye, q0.shape[:-1] + eye.shape)
    dev = prev = 0.0
    if K > 1:
        scaled = eta**2 * target.hessian(np.stack(positions[:-1], axis=-2))
        for j in range(1, K):
            h = scaled[..., j - 1, :, :]
            prev, dev = dev, 2.0 * dev - prev - (eta * h if j == 1 else h @ jac)
            jac = (j + 1) * eta * eye + dev
    sign, logdet = np.linalg.slogdet(jac)
    if np.any(sign <= 0):
        raise SingularJacobian("momentum Jacobian has non-positive determinant")
    return positions[-1], logdet


def hvp_recursion_jacobians(target, q0, p, K: int, eta: float) -> list[np.ndarray]:
    """[D_1, ..., D_K] from the recursion as it ran on Hessian-matrix products.

    D_{j+1} = 2 D_j - D_{j-1} - eta^2 H(q_j) D_j on E_j = D_j - j eta I, each
    H(q_j) D_j taken as d stacked `hessian_vec` columns of D_j, over all rows of
    p at once; the accuracy reference for the dense-Hessian recursion.
    """
    g0 = target.gradient(np.asarray(q0, dtype=float))
    q0, p = np.broadcast_arrays(np.asarray(q0, dtype=float), np.asarray(p, dtype=float))
    eye = np.broadcast_to(np.eye(target.d), q0.shape[:-1] + (target.d, target.d))
    prev = dev = 0.0
    jacs = [eta * eye]
    for j, (q, _, _) in enumerate(_orbit(target, q0, p, K, eta, g0, last_gradient=False), start=1):
        if j < K:
            cols = target.hessian_vec(q[..., None, :], np.swapaxes(jacs[-1], -1, -2))
            prev, dev = dev, 2.0 * dev - prev - eta**2 * np.swapaxes(cols, -1, -2)
            jacs.append((j + 1) * eta * eye + dev)
    return jacs


def whole_batch_invert(target, q0, y, K: int, eta: float, tol: float = 1e-10, max_iter: int = 50):
    """(p, [q_1, ..., q_K]): the inverse momentum map and the orbit of F(q0, p), whole-batch.

    The fixed point as it ran before the analysis blocked its orbits: each
    step one `leapfrog_final` over all rows of y, p_K and its guard
    included; the converged p's positions come from one more whole-batch
    orbit with grad f(q0) at q0's own shape.
    """
    q0, y = np.asarray(q0, dtype=float), np.asarray(y, dtype=float)
    scale = K * eta
    p = (y - q0) / scale
    for _ in range(max_iter):
        f, _, ok = leapfrog_final(target, q0, p, K, eta)
        if not ok.all():
            raise ConvergenceError("inverse map iterate left the trusted region")
        r = f - y
        if np.all(np.linalg.norm(r, axis=-1) <= tol):
            orbit = _orbit(target, q0, p, K, eta, target.gradient(q0), last_gradient=False)
            return p, [q for q, _, _ in orbit]
        p = p - r / scale
    raise ConvergenceError(f"inverse map did not reach tol={tol} within {max_iter} steps")


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
    same evaluator rows and the same carry (f(q), grad f(q)), as whole-batch
    arrays.  Each stream draws its rows' coins (if lazy), then momenta and
    uniforms for its moving rows only, each draw a fresh array.  Without a
    carry it evaluates f and grad f afresh at the moving rows, the recompute
    reference for one-step runs.
    """
    n_chains = q.shape[0]
    rows = n_chains // len(streams)
    draws = []
    for s in streams:  # each stream: its coins, then momenta and uniforms for its moving rows
        coins = s.random(rows if lazy else 0)
        moving = rows - int((coins < 0.5).sum())  # no coins, no holds when not lazy
        draws.append((coins, s.standard_normal((moving, target.d)), s.random(moving)))
    coins, p, u = (np.concatenate(x) for x in zip(*draws))  # p and u in moving-row order
    holds = coins < 0.5 if lazy else np.zeros(n_chains, dtype=bool)
    gather = lazy and holds.any()
    move = np.flatnonzero(~holds) if gather else slice(None)
    if gather:
        out = BatchTransition(q.copy(), np.zeros(n_chains, dtype=bool), np.full(n_chains, math.nan),
                              holds, np.zeros(n_chains, dtype=bool))
        if not move.size:
            return out, carry
    q0 = q[move]
    if carry is None:
        f0 = target.potential(q0)
        q1, p1, ok = leapfrog_final(target, q0, p, K, eta)
    else:
        f0, g0 = carry[0][move], carry[1][move]
        with np.errstate(invalid="ignore", over="ignore"):
            for q1, p1, g1 in _orbit(target, q0, p, K, eta, g0):
                pass
            ok = _in_bounds(q1, (p1 * p1).sum(axis=-1))
    h0 = f0 + 0.5 * (p * p).sum(axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):
        f1 = target.potential(q1)
        delta_h = h0 - f1 - 0.5 * (p1 * p1).sum(axis=-1)
        delta_h = np.where(ok, delta_h, math.nan)
        accept_prob = np.exp(np.minimum(delta_h, 0.0))
    accepted = u < accept_prob
    new_q = np.where(accepted[:, None], q1, q0)
    if carry is not None:
        f, g = carry[0].copy(), carry[1].copy()
        f[move], g[move] = np.where(accepted, f1, f0), np.where(accepted[:, None], g1, g0)
        carry = f, g
    if not gather:
        return BatchTransition(new_q, accepted, delta_h, holds, ~ok), carry
    out.positions[move] = new_q
    out.accepted[move] = accepted
    out.delta_h[move] = delta_h
    out.diverged[move] = ~ok
    return out, carry


def unblocked_run_chains(target, config, q0, n_steps: int, n_chains: int) -> list:
    """The steps of `run_chains` through `unblocked_step`, with the same carry schedule."""
    q = np.tile(np.asarray(q0, dtype=float), (n_chains, 1))
    streams = [chain_rng(config.seed, c) for c in range(n_chains)]
    steps = []
    carry = target.potential(q), target.gradient(q)
    for _ in range(n_steps):
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


def _chunk_sizes(n_total: int):
    done = 0
    while done < n_total:
        b = min(10_000, n_total - done)
        yield b
        done += b


def _loop_report(name, ell, acc, bound) -> MomentReport:
    norm, se = acc.norm_and_se()
    return MomentReport(name, ell, norm, se, bound, acc.n)


# The six moment checks as they were before they shared one Monte Carlo pass:
# each its own chunk loop of 10,000 draws, positions then momenta per chunk.

def loop_grad_norm_moment(target, ell, n_mc, sampler):
    bound = upsilon_ell(target, ell)
    acc = MomentAccumulator(power=2 * ell, root=ell)
    for b in _chunk_sizes(n_mc):
        q = sampler(b)
        acc.add(np.linalg.norm(target.gradient(q), axis=-1))
    return _loop_report("grad_norm", ell, acc, bound)


def loop_php_moment(target, x, ell, n_mc, rng):
    x = np.asarray(x, dtype=float)
    bound = upsilon_ell(target, ell)
    acc = MomentAccumulator(power=ell, root=ell)
    for b in _chunk_sizes(n_mc):
        p = rng.standard_normal((b, target.d))
        acc.add((p * target.hessian_vec(x, p)).sum(axis=-1))
    return _loop_report("p_hessian_p", ell, acc, bound)


def loop_gradhp_moment(target, ell, n_mc, sampler, rng):
    bound = math.sqrt(ell) * target.smoothness * math.sqrt(upsilon_ell(target, ell))
    acc = MomentAccumulator(power=ell, root=ell)
    for b in _chunk_sizes(n_mc):
        q = sampler(b)
        p = rng.standard_normal((b, target.d))
        acc.add((target.gradient(q) * target.hessian_vec(q, p)).sum(axis=-1))
    return _loop_report("grad_hessian_p", ell, acc, bound)


def loop_chaos_moments(target, x, ell, n_mc, rng, norm_123, norm_12_3):
    x = np.asarray(x, dtype=float)
    acc_ppp = MomentAccumulator(power=ell, root=ell)
    acc_ppn = MomentAccumulator(power=2 * ell, root=ell)
    for b in _chunk_sizes(n_mc):
        p = rng.standard_normal((b, target.d))
        contraction = target.third_contract(x, p, p)
        acc_ppp.add((contraction * p).sum(axis=-1))
        acc_ppn.add(np.linalg.norm(contraction, axis=-1))
    b1 = ell**1.5 * norm_123 + math.sqrt(ell * target.d) * norm_12_3
    b2 = ell**2 * norm_123**2 + ell**2 * target.d * norm_12_3**2
    return (
        _loop_report("third_ppp", ell, acc_ppp, b1),
        _loop_report("third_pp_norm_sq", ell, acc_ppn, b2),
    )


def loop_dynamics_diffs(target, t, ell, n_mc, sampler, rng, tol=1e-9):
    L, g1 = target.smoothness, target.gamma + 1.0
    dl = d_ell(target.d, ell)
    b1 = t * g1 * ell**1.5 * L**1.5 * math.sqrt(dl)
    b2 = t * g1 * math.sqrt(ell) * L**1.5 * math.sqrt(dl)
    b3 = t**3 * math.sqrt(L) * math.sqrt(upsilon_ell(target, ell))
    acc1 = MomentAccumulator(power=ell, root=ell)
    acc2 = MomentAccumulator(power=2 * ell, root=2 * ell)
    acc3 = MomentAccumulator(power=2 * ell, root=2 * ell)
    for b in _chunk_sizes(n_mc):
        q0 = sampler(b)
        p0 = rng.standard_normal((b, target.d))
        qc, pc = continuous_flow(target, q0, p0, t, tol)
        hp0 = target.hessian_vec(q0, p0)
        hpc = target.hessian_vec(qc, pc)
        acc1.add((pc * hpc).sum(axis=-1) - (p0 * hp0).sum(axis=-1))
        acc2.add(np.linalg.norm(hpc - hp0, axis=-1))
        q_leap, _, _ = next(_orbit(target, q0, p0, 1, t))
        acc3.add(np.linalg.norm(qc - q_leap, axis=-1))
    return (
        _loop_report("php_drift", ell, acc1, b1),
        _loop_report("hp_drift", ell, acc2, b2),
        _loop_report("leapfrog_position_gap", ell, acc3, b3),
    )


def loop_energy_error_moment(target, eta, ell, n_mc, sampler, rng):
    bound = energy_error_bound(target, eta, ell)
    acc = MomentAccumulator(power=ell, root=ell)
    for b in _chunk_sizes(n_mc):
        q0 = sampler(b)
        p0 = rng.standard_normal((b, target.d))
        h0 = target.potential(q0) + 0.5 * (p0 * p0).sum(axis=-1)
        q1, p1, _ = next(_orbit(target, q0, p0, 1, eta))
        acc.add(h0 - target.potential(q1) - 0.5 * (p1 * p1).sum(axis=-1))
    return _loop_report("leapfrog_energy_error", ell, acc, bound)


def loop_lemma_reports(target, ells, eta, n_mc, rng, t=None, sampler_warmup=2000, tol=1e-9):
    """The lemma suite as one chunk loop over the public evaluators: x, then per
    chunk of 10,000 draws q, then p, every quantity once, and one accumulator
    per report; the leapfrog steps are written out."""
    if isinstance(target, GaussianTarget):
        sampler = exact_gaussian_sampler(target, rng)
    else:
        sampler = chain_stationary_sampler(target, rng, eta=0.1, warmup=sampler_warmup)
    x = sampler(1)[0]
    energy = target.gamma is not None
    chaos = target.has_third and target.d <= 16
    drift = t is not None and energy
    if chaos:
        tensor = third_derivative_tensor(target, x)
        n123, n12_3 = norm_frobenius_123(tensor), norm_12_3(tensor)
    d, L = target.d, target.smoothness
    reports = []  # (quantity, reported ell, power, root, bound)
    for ell in ells:
        even = ell + ell % 2
        reports += [
            ("grad_norm", ell, 2 * ell, ell, upsilon_ell(target, ell)),
            ("p_hessian_p", ell, ell, ell, upsilon_ell(target, ell)),
            ("grad_hessian_p", even, even, even,
             math.sqrt(even) * L * math.sqrt(upsilon_ell(target, even))),
        ]
        if energy:
            reports.append(("leapfrog_energy_error", even, even, even,
                            energy_error_bound(target, eta, even)))
        if chaos:
            reports += [
                ("third_ppp", ell, ell, ell, ell**1.5 * n123 + math.sqrt(ell * d) * n12_3),
                ("third_pp_norm_sq", ell, 2 * ell, ell, ell**2 * n123**2 + ell**2 * d * n12_3**2),
            ]
        if drift:
            g1, dl = target.gamma + 1.0, d_ell(d, ell)
            reports += [
                ("php_drift", ell, ell, ell, t * g1 * ell**1.5 * L**1.5 * math.sqrt(dl)),
                ("hp_drift", ell, 2 * ell, 2 * ell, t * g1 * math.sqrt(ell) * L**1.5 * math.sqrt(dl)),
                ("leapfrog_position_gap", ell, 2 * ell, 2 * ell,
                 t**3 * math.sqrt(L) * math.sqrt(upsilon_ell(target, ell))),
            ]
    accs = [MomentAccumulator(power, root) for _, _, power, root, _ in reports]

    def leapfrog(q, p, g, step):
        q1 = q + step * p - 0.5 * step**2 * g
        g_1 = target.gradient(q1)
        return q1, p - 0.5 * step * (g + g_1)

    for b in _chunk_sizes(n_mc):
        q = sampler(b)
        p = rng.standard_normal((b, d))
        g = target.gradient(q)
        hp = target.hessian_vec(q, p)
        values = {
            "grad_norm": np.linalg.norm(g, axis=-1),
            "p_hessian_p": (p * target.hessian_vec(x, p)).sum(axis=-1),
            "grad_hessian_p": (g * hp).sum(axis=-1),
        }
        if energy:
            q1, p1 = leapfrog(q, p, g, eta)
            values["leapfrog_energy_error"] = (target.potential(q) + 0.5 * (p * p).sum(axis=-1)
                                               - target.potential(q1) - 0.5 * (p1 * p1).sum(axis=-1))
        if chaos:
            contraction = target.third_contract(x, p, p)
            values["third_ppp"] = (contraction * p).sum(axis=-1)
            values["third_pp_norm_sq"] = np.linalg.norm(contraction, axis=-1)
        if drift:
            qc, pc = continuous_flow(target, q, p, t, tol)
            hpc = target.hessian_vec(qc, pc)
            values["php_drift"] = (pc * hpc).sum(axis=-1) - (p * hp).sum(axis=-1)
            values["hp_drift"] = np.linalg.norm(hpc - hp, axis=-1)
            values["leapfrog_position_gap"] = np.linalg.norm(qc - leapfrog(q, p, g, t)[0], axis=-1)
        for (name, *_), acc in zip(reports, accs):
            acc.add(values[name])
    return [_loop_report(name, ell, acc, bound)
            for (name, ell, _, _, bound), acc in zip(reports, accs)]


def gaussian_energy_error_norm(d: int, eta: float) -> float:
    """[E dH^2]^(1/2) of one leapfrog step of size eta on N(0, I_d), in closed form.

    With a = 1 - eta^2/2 the step maps q to q' = a q + eta p and
    dH = (eta^2 / 8) sum_i (q_i^2 - q_i'^2).  Each term has mean 1 - s and
    variance 2 + 2 s^2 - 4 a^2, where s = a^2 + eta^2 = E q_i'^2, and the d
    terms are independent.
    """
    a = 1.0 - 0.5 * eta**2
    s = a * a + eta**2
    return eta**2 / 8.0 * math.sqrt(d * (2.0 + 2.0 * s * s - 4.0 * a * a) + d * d * (1.0 - s) ** 2)


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
        # A[u, v, .] as a (rows, d^2) @ (d^2, d) matmul, 1024 rows at a time to bound memory
        d = self.d
        uv_shape = np.broadcast_shapes(u.shape, v.shape)
        u, v = (np.broadcast_to(w, uv_shape).reshape(-1, d) for w in (u, v))
        a = self.a.reshape(d * d, d)
        out = np.concatenate([(u[i:i + 1024, :, None] * v[i:i + 1024, None, :]).reshape(-1, d * d)
                              @ a for i in range(0, u.shape[0], 1024)])
        shape = np.broadcast_shapes(q.shape, uv_shape)
        return np.broadcast_to(out.reshape(uv_shape), shape).copy()


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


def loop_norm_injective_lower(a: np.ndarray, restarts: int = 20, rng=None) -> float:
    """Alternating ascent one restart and one vector at a time.

    Each restart draws three unit vectors from its own `rng.spawn` child and
    replaces x, y, z by the normalized contractions (einsum) for at most 200
    sweeps, or until a sweep gains at most 1e-12 relative; a zero contraction
    keeps the previous vector.  Returns the best value over the restarts.
    """
    if rng is None:
        rng = np.random.default_rng(0)

    def normalized(v, fallback):
        norm = np.linalg.norm(v)
        return v / norm if norm > 0 else fallback

    best = 0.0
    for sub in rng.spawn(restarts):
        vecs = sub.standard_normal((3, a.shape[0]))
        x, y, z = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        value = 0.0
        for _ in range(200):
            x = normalized(np.einsum("ijk,j,k->i", a, y, z), x)
            y = normalized(np.einsum("ijk,i,k->j", a, x, z), y)
            v = np.einsum("ijk,i,j->k", a, x, y)
            z = normalized(v, z)
            new_value = float(abs(v @ z))
            if new_value - value <= 1e-12 * max(1.0, new_value):
                value = new_value
                break
            value = new_value
        best = max(best, value)
    return best


class RowLabelLogisticTarget(LogisticPosteriorTarget):
    """A logistic posterior with one label vector per chain: y has shape (B, n), and row b of
    a (B, d) batch reads y[b].

    The evaluators read the labels from the labelled loss, which broadcasts
    over y unchanged, so a block of B chains samples B posteriors
    p(theta | x, y[b]) at once.  Each evaluation must see all B rows, in
    order: a non-lazy step of fewer than two row blocks' worth of rows,
    which `_step` runs as one block.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, alpha2: float):
        y = np.asarray(y, dtype=float)
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        super().__init__(x, y[0], alpha2)
        self.y = y
        self._u = logistic_loss(y)


def geweke_logistic_prior_draws(x: np.ndarray, alpha2: float, eta: float, K: int,
                                n_chains: int, n_iter: int, steps: int, seed: int) -> np.ndarray:
    """theta (n_chains, d) after Geweke's successive-conditional simulator on a logistic model.

    Each chain draws theta from the prior N(0, I / alpha2), then n_iter times
    draws labels y ~ p(y | x, theta) and runs `steps` non-lazy kernel steps on
    the posterior p(theta | x, y), all chains as one `_drive` block.  If the
    kernel leaves every posterior invariant, theta keeps the prior's law at
    every iteration (Geweke 2004, "Getting it right").
    """
    d = x.shape[1]
    if n_chains >= 2 * _block_rows(d):  # a wider step splits rows from their labels
        raise ValueError(f"{n_chains} chains span two row blocks at d = {d}")
    labels, kernel = chain_rng(seed, 0), chain_rng(seed, 1)
    theta = labels.standard_normal((n_chains, d)) / math.sqrt(alpha2)
    for _ in range(n_iter):
        z = theta @ x.T
        y = (labels.random(z.shape) * (1.0 + np.exp(-z)) < 1.0).astype(float)  # P(y = 1) = sigmoid
        target = RowLabelLogisticTarget(x, y, alpha2)
        for step in _drive(target, theta, eta, K, [kernel], False, steps):
            pass
        theta = step.positions
    return theta
