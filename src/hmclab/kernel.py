"""Metropolized HMC transition kernel, lazy variant, and chain drivers.

The energy difference is recorded with the fixed sign convention

    delta_h = -H(proposal) + H(start),

so positive values mean the proposal lowered the energy and the acceptance
probability is min{1, exp(delta_h)}.  MALA is the K=1 special case.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .leapfrog import PhaseState, _check_schedule, leapfrog_final
from .targets import TargetDensity

Array = np.ndarray


@dataclass(frozen=True)
class HmcConfig:
    eta: float
    K: int
    lazy: bool = False
    seed: int = 0

    def __post_init__(self):
        _check_schedule(self.eta, self.K)


def chain_rng(seed: int, chain_index: int = 0) -> np.random.Generator:
    """Stream for one chain, split from (seed, chain-index).

    Streams for distinct chain indices are statistically independent and do
    not depend on how chains are scheduled across workers.  Each transition
    draws a chain's coin (if lazy), momentum and uniform from its stream, also
    when the chain holds or its proposal diverges.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_index,)))


def hamiltonian(target: TargetDensity, s: PhaseState) -> Array:
    """H(q, p) = f(q) + ||p||^2 / 2."""
    return target.potential(s.q) + 0.5 * (s.p * s.p).sum(axis=-1)


def acceptance_prob(delta_h: float) -> float:
    """min{1, exp(delta_h)}; NaN is treated as certain rejection."""
    if math.isnan(delta_h):
        return 0.0
    return math.exp(min(delta_h, 0.0))


@dataclass(frozen=True)
class TransitionResult:
    position: Array
    accepted: bool
    delta_h: float
    lazy_hold: bool = False
    diverged: bool = False


def hmc_transition(
    target: TargetDensity, config: HmcConfig, q: Array, rng: np.random.Generator
) -> TransitionResult:
    """One (possibly lazy) Metropolized HMC transition from position q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (target.d,):
        raise ValueError(f"position must have shape ({target.d},)")
    s = batch_transition(target, q[None], config.eta, config.K, [rng], lazy=config.lazy)
    return TransitionResult(s.positions[0], bool(s.accepted[0]), float(s.delta_h[0]),
                            bool(s.holds[0]), bool(s.diverged[0]))


@dataclass
class ChainTrace:
    """Per-step record of one chain; positions include the start state."""

    positions: Array  # (n_steps + 1, d)
    accepted: Array  # (n_steps,) bool
    lazy_holds: Array  # (n_steps,) bool
    diverged: Array  # (n_steps,) bool
    delta_h: Array  # (n_steps,), NaN on lazy holds
    grad_evals: int
    config: HmcConfig = field(repr=False, default=None)

    @property
    def n_steps(self) -> int:
        return self.accepted.shape[0]

    @property
    def n_attempts(self) -> int:
        return int((~self.lazy_holds).sum())

    @property
    def acceptance_rate(self) -> float:
        """Mean acceptance over proposal attempts; lazy holds excluded."""
        attempts = ~self.lazy_holds
        if not attempts.any():
            return math.nan
        return float(self.accepted[attempts].mean())


def _run_block(
    target: TargetDensity, config: HmcConfig, starts: Array, n_steps: int, streams: list
) -> list[ChainTrace]:
    """n_steps transitions of the chains at starts (B, d); chain c draws from streams[c]."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    n_chains = starts.shape[0]
    positions = np.empty((n_chains, n_steps + 1, target.d))
    positions[:, 0] = starts
    flags = np.empty((3, n_chains, n_steps), dtype=bool)  # accepted, lazy holds, diverged
    delta_h = np.empty((n_chains, n_steps))
    q = starts
    for i in range(n_steps):
        step = batch_transition(target, q, config.eta, config.K, streams, lazy=config.lazy)
        q = positions[:, i + 1] = step.positions
        flags[:, :, i] = step.accepted, step.holds, step.diverged
        delta_h[:, i] = step.delta_h
    grad_evals = (n_steps - flags[1].sum(axis=1)) * (config.K + 1)
    return [
        ChainTrace(positions[c], *flags[:, c], delta_h[c], int(grad_evals[c]), config)
        for c in range(n_chains)
    ]


def run_chain(
    target: TargetDensity,
    config: HmcConfig,
    q0: Array,
    n_steps: int,
    rng: np.random.Generator | None = None,
) -> ChainTrace:
    """n_steps transitions from q0; rng defaults to chain_rng(config.seed)."""
    rng = chain_rng(config.seed) if rng is None else rng
    return _run_block(target, config, np.asarray(q0, dtype=float)[None], n_steps, [rng])[0]


def run_chains(
    target: TargetDensity,
    config: HmcConfig,
    q0: Array,
    n_steps: int,
    n_chains: int,
) -> list[ChainTrace]:
    """Independent chains, run as one block, with per-chain streams split from config.seed."""
    starts = np.broadcast_to(np.asarray(q0, dtype=float), (n_chains, target.d))
    streams = [chain_rng(config.seed, c) for c in range(n_chains)]
    return _run_block(target, config, starts, n_steps, streams)


@dataclass(frozen=True)
class BatchTransition:
    positions: Array  # (B, d)
    accepted: Array  # (B,) bool, False on holds
    delta_h: Array  # (B,), NaN on holds and diverged proposals
    holds: Array  # (B,) bool lazy holds
    diverged: Array  # (B,) bool


def batch_transition(
    target: TargetDensity,
    q: Array,
    eta: float,
    K: int,
    rng: np.random.Generator | Sequence[np.random.Generator],
    lazy: bool = False,
) -> BatchTransition:
    """One (possibly lazy) transition of a block of chains at positions q, shape (B, d).

    rng is one Generator or a sequence of G Generators, where G divides B;
    stream g serves rows g*B/G to (g+1)*B/G - 1.  For its rows each stream
    draws the hold coins (if lazy), then the momenta, then the acceptance
    uniforms, whether or not a row holds or diverges, so a group's path does
    not depend on the block it runs in.  One Generator is the block stream;
    B of them give each chain its own.  Held chains are not integrated.
    Diverged proposals count as rejections.  Results are reproducible for
    fixed seeds.
    """
    _check_schedule(eta, K)
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != target.d:
        raise ValueError(f"positions must have shape (B, {target.d})")
    n_chains = q.shape[0]
    streams = list(rng) if isinstance(rng, Sequence) else [rng]
    if not all(isinstance(s, np.random.Generator) for s in streams):
        raise TypeError("each random stream must be a numpy Generator")
    if not streams or n_chains % len(streams):
        raise ValueError(f"{len(streams)} random streams cannot serve {n_chains} chains evenly")
    rows = n_chains // len(streams)
    draws = [(s.random(rows if lazy else 0), s.standard_normal((rows, target.d)), s.random(rows))
             for s in streams]  # coins (none unless lazy), momenta, uniforms
    coins, p, u = draws[0] if len(draws) == 1 else (np.concatenate(x) for x in zip(*draws))
    del draws  # frees the full momentum array once the moving rows are gathered
    holds = coins < 0.5 if lazy else np.zeros(n_chains, dtype=bool)
    gather = lazy and holds.any()  # without holds every row moves: no gather or scatter
    move = np.flatnonzero(~holds) if gather else slice(None)
    p, u = p[move], u[move]
    if gather:
        out = BatchTransition(q.copy(), np.zeros(n_chains, dtype=bool), np.full(n_chains, math.nan),
                              holds, np.zeros(n_chains, dtype=bool))
        if not move.size:  # every chain holds
            return out
    q0 = q[move]
    h0 = target.potential(q0) + 0.5 * (p * p).sum(axis=-1)
    q1, p1, ok = leapfrog_final(target, q0, p, K, eta)
    with np.errstate(invalid="ignore", over="ignore"):
        delta_h = h0 - target.potential(q1) - 0.5 * (p1 * p1).sum(axis=-1)
        delta_h = np.where(ok, delta_h, math.nan)
        accept_prob = np.exp(np.minimum(delta_h, 0.0))  # NaN: no uniform falls below it
    accepted = u < accept_prob
    new_q = np.where(accepted[:, None], q1, q0)
    if not gather:
        return BatchTransition(new_q, accepted, delta_h, holds, ~ok)
    out.positions[move] = new_q
    out.accepted[move] = accepted
    out.delta_h[move] = delta_h
    out.diverged[move] = ~ok
    return out


def traces_to_csv(traces: list[ChainTrace], path: str, thin: int = 1) -> None:
    """Columns: chain, step, accepted, delta_H, q_1..q_d."""
    if thin < 1:
        raise ValueError("thinning stride must be >= 1")
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
