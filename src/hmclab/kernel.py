"""Metropolized HMC transition kernel, lazy variant, and chain drivers.

The energy difference is recorded with the fixed sign convention

    delta_h = -H(proposal) + H(start),

so positive values mean the proposal lowered the energy and the acceptance
probability is min{1, exp(delta_h)}.  MALA is the K=1 special case.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .leapfrog import PhaseState, _check_schedule, _endpoint, leapfrog_final
from .targets import TargetDensity

Array = np.ndarray

#: doubles in one (rows, d) array of a transition's row block, 128 KiB: the
#: block's ~15 working arrays fit a 2 MiB L2 cache
_BLOCK_DOUBLES = 16384
#: fewest rows in a row block; BLAS rounds the rows of small-M products differently
_MIN_BLOCK_ROWS = 256


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
    """Per-step record of one chain; positions include the start state.

    grad_evals follows the paper's cost model, K+1 gradient rows per proposal
    attempt.  A non-lazy block of B chains evaluates B gradient rows once and
    then K per attempt, since it carries grad f from step to step.
    """

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
    """n_steps transitions of the chains at starts (B, d); chain c draws from streams[c].

    The input is checked once, before the first step.  A non-lazy run carries
    f and grad f at each chain's position from step to step, so it evaluates
    B potential and gradient rows at the start, then K gradient rows and one
    potential row per chain and step.  A start that is not C-ordered takes its
    first step without the carry, so that no value computed on it is reused.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    _check_schedule(config.eta, config.K)
    q, streams = _check_block(target, starts, streams)
    n_chains = q.shape[0]
    positions = np.empty((n_chains, n_steps + 1, target.d))
    positions[:, 0] = q
    flags = np.empty((3, n_chains, n_steps), dtype=bool)  # accepted, lazy holds, diverged
    delta_h = np.empty((n_chains, n_steps))
    carry = None
    for i in range(n_steps):
        if carry is None and not config.lazy and q.flags.c_contiguous:
            # not before: matmul rounds other layouts (run_chains' stride-0 start) differently
            carry = target.potential(q), target.gradient(q)
        step, carry = _step(target, q, config.eta, config.K, streams, config.lazy, carry)
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
    """Independent chains from the shared start q0, shape (d,), run as one block.

    Chain c draws from chain_rng(config.seed, c).
    """
    if n_chains < 1:
        raise ValueError("need at least one chain")
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (target.d,):
        raise ValueError(f"positions must have shape (B, {target.d})")
    starts = np.broadcast_to(q0, (n_chains, target.d))
    streams = [chain_rng(config.seed, c) for c in range(n_chains)]
    return _run_block(target, config, starts, n_steps, streams)


@dataclass(frozen=True)
class BatchTransition:
    positions: Array  # (B, d)
    accepted: Array  # (B,) bool, False on holds
    delta_h: Array  # (B,), NaN on holds and diverged proposals
    holds: Array  # (B,) bool lazy holds
    diverged: Array  # (B,) bool


def _check_block(target: TargetDensity, q: Array, rng) -> tuple[Array, list]:
    """Positions (B, d) as floats and the list of streams, of a count that divides B."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != target.d:
        raise ValueError(f"positions must have shape (B, {target.d})")
    streams = list(rng) if isinstance(rng, Sequence) else [rng]
    if not all(isinstance(s, np.random.Generator) for s in streams):
        raise TypeError("each random stream must be a numpy Generator")
    if not streams or q.shape[0] % len(streams):
        raise ValueError(f"{len(streams)} random streams cannot serve {q.shape[0]} chains evenly")
    return q, streams


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
    B of them give each chain its own.  All draws come before any
    integration.  Held chains are not integrated; the moving rows are
    integrated in row blocks of at least max(256, 16384 // d) rows (see
    `_step`).
    Diverged proposals count as rejections.  Results are reproducible for
    fixed seeds.
    """
    _check_schedule(eta, K)
    q, streams = _check_block(target, q, rng)
    return _step(target, q, eta, K, streams, lazy)[0]


def _step(
    target: TargetDensity, q: Array, eta: float, K: int, streams: list, lazy: bool,
    carry: tuple[Array, Array] | None = None,
) -> tuple[BatchTransition, tuple[Array, Array] | None]:
    """`batch_transition` on checked input, and the carry for the next step.

    Every draw of the step comes first, in the order `batch_transition`
    documents.  The moving rows are then split into near-equal row blocks of
    at least max(256, 16384 // d) rows, and each block runs its whole
    pipeline (gather, f0, the K leapfrog steps, the divergence guard, f1,
    delta_h and the accept test) before the next starts, so a block's working
    arrays stay in an L2-sized cache; fewer than two blocks' worth of rows
    run as one block.  The 256-row floor keeps matrix products off BLAS's
    small-M paths, which round rows differently from the full product; with
    it, blocked steps equal whole-batch ones bit for bit on OpenBLAS 0.3.31.

    carry, for non-lazy steps only, is (f(q), grad f(q)); with it the step
    evaluates K gradient rows and one potential row per chain instead of
    K+1 and two, and returns the carry at the new positions.  Without it the
    step returns None in its place.
    """
    n_chains, d = q.shape
    rows = n_chains // len(streams)
    draws = [(s.random(rows if lazy else 0), s.standard_normal((rows, d)), s.random(rows))
             for s in streams]  # coins (none unless lazy), momenta, uniforms
    coins, p, u = draws[0] if len(draws) == 1 else (np.concatenate(x) for x in zip(*draws))
    del draws  # with G streams, frees the per-stream pieces of the concatenated draws
    holds = coins < 0.5 if lazy else np.zeros(n_chains, dtype=bool)
    gather = lazy and holds.any()  # without holds every row moves: blocks are slices
    if gather:  # held rows keep their positions, with no acceptance and NaN delta_h
        move = np.flatnonzero(~holds)
        out = BatchTransition(q.copy(), np.zeros(n_chains, dtype=bool), np.full(n_chains, math.nan),
                              holds, np.zeros(n_chains, dtype=bool))
        if not move.size:  # every chain holds
            return out, None
    else:  # the blocks write every row
        out = BatchTransition(np.empty((n_chains, d)), np.empty(n_chains, dtype=bool),
                              np.empty(n_chains), holds, np.empty(n_chains, dtype=bool))
    n = move.size if gather else n_chains
    if carry is not None:  # (f, grad f) at q in, at the new positions out
        (f_q, g_q), carry = carry, (np.empty(n_chains), np.empty((n_chains, d)))
    n_blocks = max(1, n // max(_MIN_BLOCK_ROWS, _BLOCK_DOUBLES // d))
    for i in range(n_blocks):
        a, b = n * i // n_blocks, n * (i + 1) // n_blocks
        block = move[a:b] if gather else slice(a, b)
        q0, p0, u0 = q[block], p[block], u[block]
        if carry is None:  # through the public endpoint, which perfbench's tracer times
            f0 = target.potential(q0)
            q1, p1, ok = leapfrog_final(target, q0, p0, K, eta)
        else:
            f0, g0 = f_q[block], g_q[block]
            q1, p1, ok, g1 = _endpoint(target, q0, p0, K, eta, g0)
        h0 = f0 + 0.5 * (p0 * p0).sum(axis=-1)
        with np.errstate(invalid="ignore", over="ignore"):
            f1 = target.potential(q1)
            delta_h = h0 - f1 - 0.5 * (p1 * p1).sum(axis=-1)
            delta_h = np.where(ok, delta_h, math.nan)
            accept_prob = np.exp(np.minimum(delta_h, 0.0))  # NaN: no uniform falls below it
        accepted = u0 < accept_prob
        out.positions[block] = np.where(accepted[:, None], q1, q0)
        out.accepted[block] = accepted
        out.delta_h[block] = delta_h
        out.diverged[block] = ~ok
        if carry is not None:
            carry[0][block] = np.where(accepted, f1, f0)
            carry[1][block] = np.where(accepted[:, None], g1, g0)
    return out, carry


def traces_to_csv(traces: list[ChainTrace], path: str, thin: int = 1) -> None:
    """Columns: chain, step, accepted, delta_H, q_1..q_d; reprs, no quoting, CRLF rows."""
    if thin < 1:
        raise ValueError("thinning stride must be >= 1")
    d = traces[0].positions.shape[1]
    header = ["chain", "step", "accepted", "delta_H"] + [f"q_{i + 1}" for i in range(d)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for c, trace in enumerate(traces):
            steps = range(1, trace.n_steps + 1, thin)
            accepted = trace.accepted[::thin].astype(int).tolist()
            delta_h = trace.delta_h[::thin].astype(float).tolist()
            positions = trace.positions[1::thin].astype(float).tolist()
            fh.writelines(
                f"{c},{step},{a},{h!r},{','.join(map(repr, row))}\r\n"
                for step, a, h, row in zip(steps, accepted, delta_h, positions)
            )
