"""Metropolized HMC transition kernel, lazy variant, and chain drivers.

The energy difference is recorded with the fixed sign convention

    delta_h = -H(proposal) + H(start),

so positive values mean the proposal lowered the energy and the acceptance
probability is min{1, exp(delta_h)}.  MALA is the K=1 special case.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .leapfrog import _block_rows, _check_schedule, _in_bounds, _orbit, _row_blocks
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


def chain_rng(seed: int, *key: int) -> np.random.Generator:
    """Stream split from (seed, *key); no key means chain 0, the stream of a lone chain.

    This is hmclab's one recipe from a seed to a stream: chain c of a run
    draws from chain_rng(seed, c), and the experiment runners key their
    streams by grid point.  Streams for distinct keys are statistically
    independent and do not depend on how chains are scheduled across
    workers.  Each transition draws the chain's momentum and uniform from
    its stream, also when its proposal diverges; a lazy transition first
    draws the chain's coin, and a chain that holds draws nothing more.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key or (0,)))


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
    attempt.  A block of B chains evaluates B gradient rows once and then K
    per attempt, since it carries grad f from step to step.
    """

    positions: Array  # (n_steps + 1, d)
    accepted: Array  # (n_steps,) bool
    lazy_holds: Array  # (n_steps,) bool
    diverged: Array  # (n_steps,) bool
    delta_h: Array  # (n_steps,), NaN on lazy holds
    grad_evals: int

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

    The chains are stepped by `_drive` on a copy of starts, so a run
    evaluates B potential and gradient rows at the start, then K gradient
    rows and one potential row per proposal attempt.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    q, streams = _check_block(target, np.array(starts, dtype=float, order="C"), streams)
    n_chains = q.shape[0]
    positions = np.empty((n_chains, n_steps + 1, target.d))
    positions[:, 0] = q
    flags = np.empty((3, n_chains, n_steps), dtype=bool)  # accepted, lazy holds, diverged
    delta_h = np.empty((n_chains, n_steps))
    for i, step in enumerate(_drive(target, q, config.eta, config.K, streams, config.lazy,
                                    n_steps)):
        positions[:, i + 1] = step.positions
        flags[:, :, i] = step.accepted, step.holds, step.diverged
        delta_h[:, i] = step.delta_h
    grad_evals = (n_steps - flags[1].sum(axis=1)) * (config.K + 1)
    return [ChainTrace(positions[c], *flags[:, c], delta_h[c], int(grad_evals[c]))
            for c in range(n_chains)]


def _check_start(target: TargetDensity, q0: Array) -> Array:
    """The shared start q0 as a float array of shape (d,)."""
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (target.d,):
        raise ValueError(f"start q0 must have shape ({target.d},), got {q0.shape}")
    return q0


def run_chain(
    target: TargetDensity,
    config: HmcConfig,
    q0: Array,
    n_steps: int,
    rng: np.random.Generator | None = None,
) -> ChainTrace:
    """n_steps transitions from q0; rng defaults to chain_rng(config.seed)."""
    rng = chain_rng(config.seed) if rng is None else rng
    return _run_block(target, config, _check_start(target, q0)[None], n_steps, [rng])[0]


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
    starts = np.broadcast_to(_check_start(target, q0), (n_chains, target.d))
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
    """C-ordered finite positions (B, d) as floats and the list of streams, of a count that
    divides B.

    q comes back as is when it already is such an array, else as a copy.
    matmul rounds rows of other layouts (a stride-0 broadcast start) differently,
    so a chain's path would depend on the layout of its start.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != target.d:
        raise ValueError(f"positions must have shape (B, {target.d})")
    if not np.isfinite(q).all():
        raise ValueError("positions must be finite")
    streams = list(rng) if isinstance(rng, Sequence) else [rng]
    if not all(isinstance(s, np.random.Generator) for s in streams):
        raise TypeError("each random stream must be a numpy Generator")
    if not streams or q.shape[0] % len(streams):
        raise ValueError(f"{len(streams)} random streams cannot serve {q.shape[0]} chains evenly")
    return np.ascontiguousarray(q), streams


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
    stream g serves rows g*B/G to (g+1)*B/G - 1.  Non-lazy, each stream
    draws the momenta and then the acceptance uniforms of its rows, whether
    or not a row's proposal diverges.  Lazy, each stream draws its rows'
    hold coins, then momenta and then uniforms for its moving rows only, in
    row order: a held row draws its coin alone.  Either way a group's path
    does not depend on the block it runs in.  One Generator is the block
    stream; B of them give each chain its own.  All draws come before any
    integration.  Held chains are not integrated; the moving rows are
    integrated in row blocks of at least max(256, 16384 // d) rows (see
    `_step`).  This is a one-step `_drive` run on a copy of q, which is left
    as it was: B potential and gradient rows at q, then K gradient rows and
    one potential row per moving chain.  Diverged proposals count as
    rejections.  Results are reproducible for fixed seeds.
    """
    return next(_drive(target, np.array(q, dtype=float, order="C"), eta, K, rng, lazy, 1))


def _draw_buffers(n_chains: int, d: int, lazy: bool) -> tuple:
    """Empty (coins, momenta, uniforms) for one step of n_chains chains; no coins unless lazy."""
    return np.empty(n_chains) if lazy else None, np.empty((n_chains, d)), np.empty(n_chains)


def _draw(streams: list, lazy: bool, buffers: tuple) -> tuple:
    """Fill buffers (from `_draw_buffers`) in the kernel's order and return them;
    see `batch_transition`.

    Stream g serves rows g*B/G to (g+1)*B/G - 1.  Lazy, it first fills
    those rows of the coins.  It then fills momenta and uniforms for its
    moving rows (all its rows when not lazy), packed after those of streams
    0..g-1, so the moving rows' momenta and uniforms fill the front of
    their buffers in row order.
    """
    coins, p, u = buffers
    rows = u.shape[0] // len(streams)
    start = 0
    for g, s in enumerate(streams):
        end = start + rows
        if lazy:
            c = coins[g * rows:(g + 1) * rows]
            s.random(out=c)
            end = start + np.count_nonzero(c >= 0.5)
        s.standard_normal(out=p[start:end])
        s.random(out=u[start:end])
        start = end
    return buffers


def _drive(target: TargetDensity, q: Array, eta: float, K: int, streams, lazy: bool,
           n_steps: int) -> Iterator[BatchTransition]:
    """Generator of n_steps transitions of the chains at q (B, d): the one chain loop.

    It yields each step's `BatchTransition`.  Its positions are the live
    array, stepped in place: q itself when q is a C-ordered float array (else
    a copy).  So a caller hands over an array it no longer needs, copies what
    it keeps of each step, and draws nothing from the streams inside its loop.
    A step's other arrays are its own and stay as they are.  The input is
    checked at the first `next()`.  Every run, lazy or not, evaluates
    (f, grad f) at q, rejects a start where either is not finite, and carries
    them from step to step.

    The run owns the streams for its n_steps steps and draws nothing beyond
    them, so callers may draw from them between runs.  When a step spans two
    row blocks or more, one worker thread, alive for this run only, fills
    step i+1's draws into the second of two buffers while step i integrates.
    Narrower steps draw on the caller's thread: the hand-off costs more than
    it hides, and a 12-chain, d = 256 run was slower with a draw thread.
    A run closed early joins that worker, and its streams have then drawn at
    most one step ahead.  A step's draws depend on nothing but its streams
    (a lazy step's count of moving rows comes from its own coins), so every
    stream yields the values, in the order, of one-step runs.  Reruns are
    bit-identical.  Non-lazy runs, and lazy runs on elementwise targets
    (Gaussian), equal successive one-step runs bit for bit.  A lazy run on a
    matmul target (logistic, ridge, two-layer) carries grad f rows evaluated
    in moving-row blocks of another size, which small-M BLAS rounds
    differently, so it can differ from one-step runs in the last bits.
    """
    _check_schedule(eta, K)
    q, streams = _check_block(target, q, streams)
    n_chains, d = q.shape
    with np.errstate(over="ignore", invalid="ignore"):
        carry = target.potential(q), target.gradient(q)
    if not (np.isfinite(carry[0]).all() and np.isfinite(carry[1]).all()):
        raise ValueError("the potential or its gradient is not finite at the start positions")
    prefetch = n_steps > 1 and n_chains >= 2 * _block_rows(d)
    if prefetch:  # a wide step: draws are worth a thread hand-off
        from concurrent.futures import ThreadPoolExecutor
    buffers = [_draw_buffers(n_chains, d, lazy) for _ in range(2 if prefetch else 1)]
    with ThreadPoolExecutor(max_workers=1) if prefetch else contextlib.nullcontext() as pool:
        ahead = None  # step i's draws in flight on the worker
        for i in range(n_steps):
            draws = _draw(streams, lazy, buffers[0]) if ahead is None else ahead.result()
            ahead = (pool.submit(_draw, streams, lazy, buffers[(i + 1) % 2])
                     if prefetch and i + 1 < n_steps else None)
            yield _step(target, q, eta, K, draws, lazy, carry)


def _step(
    target: TargetDensity, q: Array, eta: float, K: int, draws: tuple, lazy: bool,
    carry: tuple[Array, Array],
) -> BatchTransition:
    """One transition of the chains at q (B, d), C-ordered, with the step's draws made.

    carry is (f(q), grad f(q)).  q and the carry are updated in place, and
    the result's positions are q itself.  draws are the step's (coins,
    momenta, uniforms) from `_draw`; a lazy step's momenta and uniforms are
    packed, the moving rows' in row order at the front, so a block of
    moving rows reads them as slices.  The moving rows are split into
    near-equal row blocks of at least max(256, 16384 // d) rows, and each
    block runs its whole pipeline (gather, the K leapfrog steps of `_orbit`
    from the carried grad f, the divergence guard, f1, delta_h and the
    accept test) before the next starts, so a block's working arrays stay in
    an L2-sized cache; fewer than two blocks' worth of rows run as one block.
    The 256-row floor keeps matrix products off BLAS's small-M paths, which
    round rows differently from the full product; with it, blocked steps
    equal whole-batch ones bit for bit on OpenBLAS 0.3.31.  A moving chain
    costs K gradient rows and one potential row; a held chain costs none.

    The step runs under one errstate, and |p_K|^2 is summed once, for both
    the divergence guard and delta_h.  A block accepts in place: np.copyto
    writes the accepted rows of q and of the carry.  A lazy step with holds
    gathers its moving rows and writes them back.  The blocks' accepted,
    delta_h and diverged arrays are joined once after the loop (one block's
    are used as they are); with holds they are then scattered into
    full-length arrays that read False, NaN and False on the held rows.  A
    step where every chain holds runs one empty block.
    """
    coins, p, u = draws
    f, g = carry
    n_chains, d = q.shape
    holds = coins < 0.5 if lazy else np.zeros(n_chains, dtype=bool)
    move = np.flatnonzero(~holds) if lazy and holds.any() else None  # else blocks are slices
    parts = []
    with np.errstate(invalid="ignore", over="ignore"):
        for rows in _row_blocks(n_chains if move is None else move.size, d):
            block = rows if move is None else move[rows]
            # views of q's and the carry's rows unless gathered; the draws are packed
            q0, f0, g0, p0, u0 = q[block], f[block], g[block], p[rows], u[rows]
            for q1, p1, g1 in _orbit(target, q0, p0, K, eta, g0):
                pass
            p1_norm2 = (p1 * p1).sum(axis=-1)
            diverged = ~_in_bounds(q1, p1_norm2)
            f1 = target.potential(q1)
            delta_h = f0 + 0.5 * (p0 * p0).sum(axis=-1) - f1 - 0.5 * p1_norm2
            np.copyto(delta_h, math.nan, where=diverged)
            accepted = u0 < np.exp(np.minimum(delta_h, 0.0))  # NaN: no uniform falls below it
            take = accepted[:, None]
            np.copyto(q0, q1, where=take)
            np.copyto(f0, f1, where=accepted)
            np.copyto(g0, g1, where=take)
            if move is not None:
                q[block], f[block], g[block] = q0, f0, g0
            parts.append((accepted, delta_h, diverged))
    joined = parts[0] if len(parts) == 1 else [np.concatenate(x) for x in zip(*parts)]
    if move is not None:  # held rows keep their positions, with no acceptance and NaN delta_h
        full = (np.zeros(n_chains, dtype=bool), np.full(n_chains, math.nan),
                np.zeros(n_chains, dtype=bool))
        for out, part in zip(full, joined):
            out[move] = part
        joined = full
    accepted, delta_h, diverged = joined
    return BatchTransition(q, accepted, delta_h, holds, diverged)


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
