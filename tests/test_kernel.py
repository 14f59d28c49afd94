import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_dense_gaussian, make_logistic, make_ridge
from _oracles import (
    CountingTarget,
    ZeroTarget,
    hermite_mean_acceptance,
    traces_to_csv_rows,
    unblocked_run_chains,
    unblocked_step,
)
from hmclab.diagnostics import integrated_autocorr_time
from hmclab.kernel import (
    ChainTrace,
    HmcConfig,
    _run_block,
    acceptance_prob,
    batch_transition,
    chain_rng,
    hamiltonian,
    run_chain,
    run_chains,
    traces_to_csv,
)
from hmclab.leapfrog import PhaseState, forward_map
from hmclab.targets import GaussianTarget, cubic_potential


def test_hamiltonian_values():
    t = GaussianTarget.standard(2)
    assert hamiltonian(t, PhaseState(np.zeros(2), np.ones(2))) == 1.0
    assert hamiltonian(t, PhaseState(np.ones(2), np.zeros(2))) == 1.0
    assert hamiltonian(ZeroTarget(2), PhaseState(np.ones(2), np.zeros(2))) == 0.0


def test_acceptance_prob_values():
    assert acceptance_prob(0.0) == 1.0
    assert_allclose(acceptance_prob(-math.log(4.0)), 0.25)
    assert_allclose(acceptance_prob(-0.0278320), 0.972552, atol=5e-7)
    assert acceptance_prob(12.3) == 1.0
    assert acceptance_prob(math.nan) == 0.0


def test_harmonic_single_step_delta_h():
    # the (1, 1) start with eta = 0.5 forces delta H = -0.0278320
    t = GaussianTarget.standard(1)
    traj = forward_map(t, PhaseState(np.array([1.0]), np.array([1.0])), 1, 0.5)
    dh = float(
        hamiltonian(t, traj.states[0]) - hamiltonian(t, traj.final)
    )
    assert_allclose(dh, -0.02783203125, atol=1e-12)


def test_zero_gradient_always_accepts(rng):
    target = ZeroTarget(3)
    config = HmcConfig(eta=0.3, K=4, seed=7)
    trace = run_chain(target, config, np.zeros(3), 500)
    assert trace.accepted.all()
    assert_allclose(trace.delta_h, 0.0, atol=1e-14)


def test_mean_acceptance_matches_hermite_quadrature():
    # 1e5 stationary transitions vs 2D Gauss-Hermite under the exact linear map
    target = GaussianTarget.standard(1)
    config = HmcConfig(eta=0.2, K=3, seed=11)
    gen = chain_rng(11)
    q0 = target.sample_exact(1, gen)[0]
    trace = run_chain(target, config, q0, 100_000, rng=gen)
    oracle = hermite_mean_acceptance(1.0, 0.2, 3, nodes=200)
    assert abs(trace.acceptance_rate - oracle) <= 0.01


def test_fixed_seed_bit_identical():
    target = make_logistic(6, 3, seed=61)
    config = HmcConfig(eta=0.15, K=3, lazy=True, seed=123)
    a = run_chain(target, config, np.zeros(3), 300)
    b = run_chain(target, config, np.zeros(3), 300)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.accepted, b.accepted)
    assert np.array_equal(a.delta_h, b.delta_h, equal_nan=True)


def test_n_steps_precondition():
    with pytest.raises(ValueError):
        run_chain(GaussianTarget.standard(1), HmcConfig(eta=0.1, K=1), np.zeros(1), 0)


def test_stationary_moments_d10():
    target = GaussianTarget.standard(10)
    config = HmcConfig(eta=0.3, K=3, seed=5)
    gen = chain_rng(5)
    q0 = target.sample_exact(1, gen)[0]
    n = 200_000
    trace = run_chain(target, config, q0, n, rng=gen)
    xs = trace.positions[1:]
    for j in range(10):
        series = xs[:, j]
        tau = integrated_autocorr_time(series)
        n_eff = n / tau
        assert abs(series.mean()) <= 4.0 * series.std() / math.sqrt(n_eff)
        assert abs(series.var() - 1.0) <= 0.1


def test_lazy_hold_fraction():
    target = GaussianTarget.standard(1)
    config = HmcConfig(eta=0.2, K=2, lazy=True, seed=17)
    trace = run_chain(target, config, np.zeros(1), 100_000)
    frac = trace.lazy_holds.mean()
    assert abs(frac - 0.5) <= 0.01
    # holds leave the state unchanged and are excluded from acceptance stats
    held = np.nonzero(trace.lazy_holds)[0]
    assert np.array_equal(trace.positions[held], trace.positions[held + 1])
    assert np.isnan(trace.delta_h[held]).all()
    assert trace.n_attempts == 100_000 - held.size


def test_chain_never_moves_on_rejection(rng):
    target = make_ridge(5, 3, seed=62)
    config = HmcConfig(eta=0.9, K=4, seed=3)  # coarse enough to reject often
    trace = run_chain(target, config, rng.standard_normal(3), 2000)
    rejected = np.nonzero(~trace.accepted)[0]
    assert rejected.size > 0
    assert np.array_equal(trace.positions[rejected], trace.positions[rejected + 1])
    moved = np.nonzero(trace.accepted)[0]
    assert (np.abs(trace.positions[moved + 1] - trace.positions[moved]).max(axis=1) > 0).all()


def test_gradient_accounting(rng):
    inner = make_logistic(5, 3, seed=63)
    target = CountingTarget(inner)
    config = HmcConfig(eta=0.1, K=4, lazy=True, seed=29)
    trace = run_chain(target, config, np.zeros(3), 400)
    assert trace.grad_evals == trace.n_attempts * (config.K + 1)
    assert target.gradient_evals == trace.grad_evals


def test_proposal_reversibility_delta_h(rng):
    for target in (make_ridge(4, 3, seed=64), make_logistic(6, 3, seed=65)):
        for K, eta in ((1, 0.2), (5, 0.07)):
            q0, p0 = rng.standard_normal((2, 3))
            fwd = forward_map(target, PhaseState(q0, p0), K, eta)
            dh_fwd = float(hamiltonian(target, fwd.states[0]) - hamiltonian(target, fwd.final))
            back = forward_map(target, PhaseState(fwd.final.q, -fwd.final.p), K, eta)
            dh_back = float(hamiltonian(target, back.states[0]) - hamiltonian(target, back.final))
            assert abs(dh_fwd + dh_back) <= 1e-10


def test_mala_special_case_proposal_moments():
    # K = 1 proposals are N(q - (eta^2/2) grad f(q), eta^2 I)
    target = make_logistic(6, 3, seed=66)
    gen = np.random.default_rng(8)
    q0 = gen.standard_normal(3)
    eta = 0.25
    n = 100_000
    p = gen.standard_normal((n, 3))
    g = target.gradient(q0)
    proposals = q0 + eta * p - 0.5 * eta**2 * g
    expected_mean = q0 - 0.5 * eta**2 * g
    assert np.abs(proposals.mean(axis=0) - expected_mean).max() <= 4 * eta / math.sqrt(n)
    cov = np.cov(proposals.T)
    assert np.abs(cov - eta**2 * np.eye(3)).max() <= 4.0 * eta**2 * math.sqrt(2.0 / n)


def test_batch_transition_matches_single_chain_statistics():
    target = GaussianTarget.standard(2)
    gen = np.random.default_rng(3)
    q = target.sample_exact(512, gen)
    accept = []
    for _ in range(40):
        step = batch_transition(target, q, 0.4, 2, gen)
        q = step.positions
        accept.append(step.accepted.mean())
    config = HmcConfig(eta=0.4, K=2, seed=77)
    gen2 = chain_rng(77)
    trace = run_chain(target, config, target.sample_exact(1, gen2)[0], 20_000, rng=gen2)
    assert abs(np.mean(accept) - trace.acceptance_rate) <= 0.02


def test_batch_transition_lazy_holds():
    target = GaussianTarget.standard(2)
    gen = np.random.default_rng(4)
    q = target.sample_exact(4096, gen)
    step = batch_transition(target, q, 0.3, 2, gen, lazy=True)
    frac = step.holds.mean()
    assert abs(frac - 0.5) <= 0.03
    assert np.array_equal(step.positions[step.holds], q[step.holds])
    assert np.isnan(step.delta_h[step.holds]).all()


def test_run_chains_streams_are_independent():
    target = GaussianTarget.standard(2)
    config = HmcConfig(eta=0.4, K=2, seed=9)
    traces = run_chains(target, config, np.zeros(2), 50, n_chains=3)
    assert len(traces) == 3
    assert not np.array_equal(traces[0].positions, traces[1].positions)
    again = run_chains(target, config, np.zeros(2), 50, n_chains=3)
    for a, b in zip(traces, again):
        assert np.array_equal(a.positions, b.positions)


@pytest.mark.parametrize(
    "target, config, diverges",
    [
        (make_logistic(8, 3, seed=68), HmcConfig(eta=0.5, K=3, lazy=True, seed=31), False),
        # unbounded below: some proposals diverge
        (make_ridge(3, 2, seed=1, potential=cubic_potential()),
         HmcConfig(eta=1.2, K=4, lazy=True, seed=3), True),
    ],
)
def test_run_chains_match_single_chain_runs(target, config, diverges):
    # each chain's stream fixes its path, whatever block it runs in
    traces = run_chains(target, config, np.zeros(target.d), 100, n_chains=3)
    assert sum(t.accepted.sum() for t in traces) > 0
    assert sum(t.lazy_holds.sum() for t in traces) > 0
    for c, trace in enumerate(traces):
        alone = run_chain(target, config, np.zeros(target.d), 100, rng=chain_rng(config.seed, c))
        assert np.array_equal(trace.accepted, alone.accepted)
        assert np.array_equal(trace.lazy_holds, alone.lazy_holds)
        assert np.array_equal(trace.diverged, alone.diverged)
        assert np.array_equal(np.isnan(trace.delta_h), np.isnan(alone.delta_h))
        assert_allclose(trace.positions, alone.positions, rtol=0, atol=1e-12)
    assert (sum(t.diverged.sum() for t in traces) > 0) == diverges


@pytest.mark.parametrize("per_chain", [False, True])
def test_held_chains_are_not_integrated(per_chain):
    target = CountingTarget(make_logistic(6, 3, seed=67))
    n_chains, K = 64, 3
    q = np.random.default_rng(12).standard_normal((n_chains, 3))
    rng = [chain_rng(12, c) for c in range(n_chains)] if per_chain else np.random.default_rng(12)
    step = batch_transition(target, q, 0.1, K, rng, lazy=True)
    moving = int((~step.holds).sum())
    assert 0 < moving < n_chains
    assert target.gradient_evals == moving * (K + 1)
    assert np.array_equal(step.positions[step.holds], q[step.holds])
    if not per_chain:  # the block stream still draws coins, momenta and uniforms for all chains
        ref = np.random.default_rng(12)
        ref.random(n_chains), ref.standard_normal((n_chains, 3)), ref.random(n_chains)
        assert rng.random() == ref.random()
    else:  # each chain's stream draws a coin, momentum and uniform, held or not
        for c, stream in enumerate(rng):
            ref = chain_rng(12, c)
            ref.random(), ref.standard_normal(3), ref.random()
            assert stream.random() == ref.random()


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize(
    "target, eta, K, exact, diverges",
    [
        (GaussianTarget.standard(3), 0.5, 3, True, False),
        (make_logistic(8, 3, seed=68), 0.5, 3, False, False),
        # unbounded below: some proposals diverge
        (make_ridge(3, 2, seed=1, potential=cubic_potential()), 1.2, 4, False, True),
    ],
    ids=["gaussian", "logistic", "cubic-ridge"],
)
def test_stream_groups_match_block_calls(target, eta, K, exact, diverges, lazy):
    # stream j serves rows 4j..4j+3 exactly as a block stream serves a block of those rows
    q = np.random.default_rng(5).standard_normal((12, target.d))
    streams = [np.random.default_rng(40 + j) for j in range(3)]
    alone = [np.random.default_rng(40 + j) for j in range(3)]
    q_alone, rejected, diverged = q.copy(), 0, 0
    for _ in range(30):
        step = batch_transition(target, q, eta, K, streams, lazy=lazy)
        parts = [batch_transition(target, q_alone[4 * j:4 * j + 4], eta, K, alone[j], lazy=lazy)
                 for j in range(3)]
        for name in ("accepted", "holds", "diverged"):
            assert np.array_equal(getattr(step, name),
                                  np.concatenate([getattr(s, name) for s in parts]))
        assert np.array_equal(np.isnan(step.delta_h),
                              np.concatenate([np.isnan(s.delta_h) for s in parts]))
        q, q_alone = step.positions, np.concatenate([s.positions for s in parts])
        if exact:
            assert np.array_equal(q, q_alone)
        else:
            assert_allclose(q, q_alone, rtol=0, atol=1e-12)
        rejected += int((~step.accepted & ~step.holds).sum())
        diverged += int(step.diverged.sum())
    assert rejected > 0
    assert (diverged > 0) == diverges


@pytest.mark.parametrize("K, eta", [(0, 0.1), (-1, 0.1), (2, 0.0), (2, -0.1)])
def test_batch_transition_rejects_bad_schedule(K, eta):
    with pytest.raises(ValueError):
        batch_transition(GaussianTarget.standard(2), np.zeros((3, 2)), eta, K,
                         np.random.default_rng(0))


@pytest.mark.parametrize("shape", [(2,), (3, 3), (3, 1), (1, 3, 2)])
def test_batch_transition_rejects_bad_positions(shape):
    with pytest.raises(ValueError, match="shape"):
        batch_transition(GaussianTarget.standard(2), np.zeros(shape), 0.1, 2,
                         np.random.default_rng(0))


def test_batch_transition_needs_one_stream_per_chain():
    target = GaussianTarget.standard(2)
    for n_streams, n_chains in [(2, 3), (0, 3), (3, 2)]:
        with pytest.raises(ValueError, match="stream"):
            batch_transition(target, np.zeros((n_chains, 2)), 0.1, 2,
                             [chain_rng(0, c) for c in range(n_streams)])
    step = batch_transition(target, np.zeros((4, 2)), 0.1, 2, [chain_rng(0, c) for c in range(2)])
    assert step.positions.shape == (4, 2)


@pytest.mark.parametrize("rng", [None, [None, None], [chain_rng(0), 7]])
def test_batch_transition_rejects_non_generator_streams(rng):
    with pytest.raises(TypeError, match="Generator"):
        batch_transition(GaussianTarget.standard(2), np.zeros((2, 2)), 0.1, 2, rng)


def test_traces_to_csv(tmp_path):
    target = GaussianTarget.standard(2)
    config = HmcConfig(eta=0.3, K=2, seed=1)
    traces = run_chains(target, config, np.zeros(2), 10, n_chains=2)
    path = tmp_path / "trace.csv"
    traces_to_csv(traces, str(path), thin=2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "chain,step,accepted,delta_H,q_1,q_2"
    assert len(lines) == 1 + 2 * 5


def _special_values_trace() -> ChainTrace:
    # signed zeros, subnormals, extremes, infinities and NaN, as a chain may record them
    values = [0.0, -0.0, 5e-324, -1e-310, 1e300, -1.7976931348623157e308, math.inf, -math.inf,
              math.nan, 0.1, 1 / 3, -2.5]
    positions = np.array([np.roll(values, k) for k in range(8)])
    steps = positions.shape[0] - 1
    flags = np.arange(steps) % 2 == 0
    return ChainTrace(positions, flags, ~flags, np.zeros(steps, dtype=bool),
                      np.array(values[:steps]), 0)


@pytest.mark.parametrize("thin", [1, 3, 7])
@pytest.mark.parametrize("case", ["lazy-logistic", "diverging-cubic-ridge", "special-values"])
def test_traces_to_csv_matches_csv_writer(tmp_path, case, thin):
    if case == "lazy-logistic":  # NaN delta_H on holds
        traces = run_chains(make_logistic(8, 3, seed=68), HmcConfig(eta=0.5, K=3, lazy=True, seed=2),
                            np.full(3, 0.3), 40, n_chains=3)
        assert any(t.lazy_holds.any() for t in traces)
    elif case == "diverging-cubic-ridge":  # NaN delta_H on diverged proposals
        traces = run_chains(make_ridge(3, 2, seed=1, potential=cubic_potential()),
                            HmcConfig(eta=1.6, K=4, seed=1), np.zeros(2), 50, n_chains=2)
        assert any(t.diverged.any() for t in traces)
    else:
        traces = [_special_values_trace()] * 2
    ours, rows = tmp_path / "ours.csv", tmp_path / "rows.csv"
    traces_to_csv(traces, str(ours), thin=thin)
    traces_to_csv_rows(traces, str(rows), thin=thin)
    assert ours.read_bytes() == rows.read_bytes()
    if case == "special-values":
        assert b"-0.0," in ours.read_bytes() and b"nan" in ours.read_bytes()


@pytest.mark.parametrize(
    "target, config, q0",
    [
        # off the origin, where matmul's rounding depends on the layout of its input
        (make_logistic(64, 32, seed=32), HmcConfig(eta=0.6, K=4, seed=2),
         np.random.default_rng(1).standard_normal(32)),
        (GaussianTarget.standard(3), HmcConfig(eta=1.2, K=3, seed=4), np.ones(3)),
        # unbounded below: some proposals diverge
        (make_ridge(3, 2, seed=1, potential=cubic_potential()), HmcConfig(eta=1.2, K=4, seed=3),
         np.zeros(2)),
    ],
    ids=["logistic", "gaussian", "cubic-ridge"],
)
@pytest.mark.parametrize("n_chains", [1, 8])
def test_non_lazy_chains_match_public_transitions(target, config, q0, n_chains):
    # the driver carries f and grad f; a loop of public transitions evaluates them afresh
    n_steps = 30
    traces = run_chains(target, config, q0, n_steps, n_chains)
    q = np.broadcast_to(q0, (n_chains, target.d))
    streams = [chain_rng(config.seed, c) for c in range(n_chains)]
    for i in range(n_steps):
        step = batch_transition(target, q, config.eta, config.K, streams)
        q = step.positions
        assert np.array_equal(q, [t.positions[i + 1] for t in traces])
        assert np.array_equal(step.accepted, [t.accepted[i] for t in traces])
        assert np.array_equal(step.diverged, [t.diverged[i] for t in traces])
        assert np.array_equal(step.delta_h, [t.delta_h[i] for t in traces], equal_nan=True)
    assert any(not t.accepted.all() for t in traces)  # rejected chains carry their values


def test_non_lazy_chain_gradient_accounting():
    target = CountingTarget(make_logistic(5, 3, seed=63))
    config = HmcConfig(eta=0.3, K=4, seed=29)
    n_steps = 200
    trace = run_chain(target, config, np.full(3, 0.5), n_steps)
    assert 0 < trace.accepted.sum() < n_steps
    # f and grad f are evaluated once at the start and then carried
    assert target.gradient_evals == 1 + n_steps * config.K
    assert target.potential_evals == 1 + n_steps
    assert trace.grad_evals == n_steps * (config.K + 1)  # the paper's cost model


def test_run_chains_stride_zero_start_accounting():
    # the shared start is a stride-0 view: the first step evaluates afresh, then the carry starts
    target = CountingTarget(make_logistic(5, 3, seed=63))
    config = HmcConfig(eta=0.3, K=4, seed=29)
    n_chains, n_steps = 4, 50
    run_chains(target, config, np.full(3, 0.5), n_steps, n_chains)
    assert target.gradient_evals == n_chains * (2 + n_steps * config.K)
    assert target.potential_evals == n_chains * (2 + n_steps)


@pytest.mark.parametrize("q0", [0.5, np.zeros(2), np.zeros((2, 3))], ids=["scalar", "length", "2d"])
def test_run_chain_rejects_bad_start(q0):
    with pytest.raises(ValueError, match=r"positions must have shape \(B, 3\)"):
        run_chain(GaussianTarget.standard(3), HmcConfig(eta=0.5, K=5), q0, 5)


@pytest.mark.parametrize("n_chains", [0, -1])
def test_run_chains_needs_a_chain(n_chains):
    with pytest.raises(ValueError, match="need at least one chain"):
        run_chains(GaussianTarget.standard(3), HmcConfig(eta=0.5, K=5), np.zeros(3), 5, n_chains)


@pytest.mark.parametrize("q0", [0.5, np.zeros(2), np.zeros((2, 3))], ids=["scalar", "length", "2d"])
def test_run_chains_rejects_bad_start(q0):
    with pytest.raises(ValueError, match=r"positions must have shape \(B, 3\)"):
        run_chains(GaussianTarget.standard(3), HmcConfig(eta=0.5, K=5), q0, 5, 2)


def _block_rows(d: int) -> int:
    """Rows per block of the kernel's row blocking: max(256, 16384 // d)."""
    return max(256, 16384 // d)


def _assert_same_step(ours, ref):
    for name in ("positions", "accepted", "holds", "diverged"):
        assert np.array_equal(getattr(ours, name), getattr(ref, name)), name
    assert np.array_equal(ours.delta_h, ref.delta_h, equal_nan=True)


def test_row_blocks_match_unblocked_step_gaussian():
    # B on both sides of the one-, two- and three-block edges of the moving rows
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies

    @hp.settings(derandomize=True, deadline=None, max_examples=60)
    @hp.given(st.sampled_from([8, 16, 32, 64, 100]), st.integers(1, 4), st.integers(-2, 2),
              st.integers(1, 4), st.booleans(), st.sampled_from([1, 2, 3]), st.integers(0, 2**16))
    def check(d, edge, offset, K, lazy, groups, seed):
        n_chains = edge * _block_rows(d) + offset
        n_streams = math.gcd(n_chains, groups)  # one block stream, or G that divide B
        target = GaussianTarget.diagonal(np.linspace(0.5, 2.0, d))
        q = np.random.default_rng(seed).standard_normal((n_chains, d))
        ours = [np.random.default_rng(seed + j) for j in range(n_streams)]
        ref = [np.random.default_rng(seed + j) for j in range(n_streams)]
        q_ref = q
        for _ in range(2):
            step = batch_transition(target, q, 0.4, K, ours if n_streams > 1 else ours[0], lazy)
            expected, _ = unblocked_step(target, q_ref, 0.4, K, ref, lazy)
            _assert_same_step(step, expected)
            q, q_ref = step.positions, expected.positions
        assert all(a.random() == b.random() for a, b in zip(ours, ref))

    check()


_WIDE_TARGETS = [
    pytest.param(make_logistic(40, 16, seed=16), 0.3, 3, False, id="logistic-16"),
    pytest.param(make_logistic(40, 32, seed=32), 0.3, 3, False, id="logistic-32"),
    pytest.param(make_logistic(40, 256, seed=256), 0.1, 3, False, id="logistic-256"),
    pytest.param(make_dense_gaussian(24, seed=24), 0.3, 3, False, id="dense-gaussian"),
    # unbounded below: some proposals diverge
    pytest.param(make_ridge(6, 16, seed=1, potential=cubic_potential()), 1.0, 4, True,
                 id="cubic-ridge"),
]


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("target, eta, K, diverges", _WIDE_TARGETS)
def test_wide_batch_transition_matches_unblocked_step(target, eta, K, diverges, lazy):
    rows = _block_rows(target.d)
    n_chains = max(2048, 5 * rows)
    q = 0.5 * np.random.default_rng(7).standard_normal((n_chains, target.d))
    rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    q_ref, accepted, diverged = q, 0, 0
    for _ in range(3):
        step = batch_transition(target, q, eta, K, rng, lazy=lazy)
        expected, _ = unblocked_step(target, q_ref, eta, K, [rng_ref], lazy)
        _assert_same_step(step, expected)
        assert (~step.holds).sum() >= 2 * rows  # two row blocks or more
        q, q_ref = step.positions, expected.positions
        accepted += int(step.accepted.sum())
        diverged += int(step.diverged.sum())
    assert accepted > 0
    assert (diverged > 0) == diverges


@pytest.mark.parametrize("target, eta, K, diverges", _WIDE_TARGETS)
def test_wide_carried_chains_match_unblocked_steps(target, eta, K, diverges):
    config = HmcConfig(eta=eta, K=K, seed=5)
    q0 = np.full(target.d, 0.3)
    n_steps, n_chains = 3, max(2048, 2 * _block_rows(target.d))
    traces = run_chains(target, config, q0, n_steps, n_chains)
    for i, expected in enumerate(unblocked_run_chains(target, config, q0, n_steps, n_chains)):
        assert np.array_equal(np.array([t.positions[i + 1] for t in traces]), expected.positions)
        assert np.array_equal([t.accepted[i] for t in traces], expected.accepted)
        assert np.array_equal([t.diverged[i] for t in traces], expected.diverged)
        assert np.array_equal([t.delta_h[i] for t in traces], expected.delta_h, equal_nan=True)
    assert any(t.diverged.any() for t in traces) == diverges


def test_wide_block_accounting():
    # moving rows span at least three row blocks; counts are rows, whatever the blocking
    inner = make_logistic(20, 64, seed=64)
    K, n_chains = 3, 2048
    q = np.random.default_rng(4).standard_normal((n_chains, 64))
    target = CountingTarget(inner)
    step = batch_transition(target, q, 0.5, K, np.random.default_rng(4), lazy=True)
    moving = int((~step.holds).sum())
    assert moving >= 3 * _block_rows(64)
    assert target.gradient_evals == moving * (K + 1)
    assert target.potential_evals == 2 * moving
    assert np.array_equal(step.positions[step.holds], q[step.holds])
    assert 0 < step.accepted.sum() < moving
    # the carried path: f and grad f once at the start, then K gradient rows and one potential row
    target = CountingTarget(inner)
    n_steps = 4
    config = HmcConfig(eta=0.5, K=K, seed=4)
    streams = [np.random.default_rng(4)]
    _run_block(target, config, q, n_steps, streams)
    assert target.gradient_evals == n_chains * (1 + n_steps * K)
    assert target.potential_evals == n_chains * (1 + n_steps)


def test_detailed_balance_binned_small():
    # module-scale version of the acceptance check: 41 bins, 2e5 transitions
    target = GaussianTarget.standard(1)
    gen = np.random.default_rng(15)
    n_chains, n_steps = 2000, 100
    q = target.sample_exact(n_chains, gen)
    edges = np.linspace(-4.1, 4.1, 42)
    counts = np.zeros((41, 41))
    for _ in range(n_steps):
        step = batch_transition(target, q, 0.35, 2, gen)
        before = np.clip(q[:, 0], -4.1, 4.1)
        after = np.clip(step.positions[:, 0], -4.1, 4.1)
        counts += np.histogram2d(before, after, bins=(edges, edges))[0]
        q = step.positions
    asym = counts - counts.T
    scale = np.sqrt(counts + counts.T + 1e-12)
    tested = (counts + counts.T >= 100) & ~np.eye(41, dtype=bool)
    assert tested.sum() > 50
    assert (np.abs(asym[tested]) <= 3.2 * scale[tested]).all()
