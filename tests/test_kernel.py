import concurrent.futures
import math
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from conftest import make_dense_gaussian, make_logistic, make_ridge
from _oracles import (
    CountingTarget,
    ZeroTarget,
    exact_gaussian_acceptance,
    geweke_logistic_prior_draws,
    hamiltonian,
    hermite_mean_acceptance,
    traces_to_csv_rows,
    unblocked_run_chains,
    unblocked_step,
)
from hmclab.diagnostics import integrated_autocorr_time
from hmclab.kernel import (
    BatchTransition,
    ChainTrace,
    HmcConfig,
    _drive,
    _run_block,
    batch_transition,
    chain_rng,
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


@pytest.mark.parametrize("eta, K", [(0.2, 3), (0.5, 1), (0.9, 3), (1.2, 1)])
def test_exact_gaussian_acceptance_matches_hermite_quadrature_at_d1(eta, K):
    # the Gauss-Hermite rule meets the kink of min(1, exp(delta H)) and is the looser of the two:
    # the polar form (1/2pi) int min(1, 1 / (1 - 2 g(theta))) dtheta agrees with the exact
    # oracle to 5e-12 at these points, and the 200-node rule to 1.4e-5
    assert abs(exact_gaussian_acceptance(1, eta, K) - hermite_mean_acceptance(1.0, eta, K)) <= 5e-5


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


def test_lazy_chains_keep_the_gaussian_moments():
    # 64 lazy chains from exact draws of N(0, I_4): each coordinate's mean, |q|^2 / d and the
    # hold fraction stay within 5 batch-means standard errors of 0, 1 and 1/2.  Over seeds
    # 0-19 the 120 standardized errors had a spread of 1.12 and a largest |z| of 3.44
    target, n_chains, n_steps, batch = GaussianTarget.standard(4), 64, 2000, 100
    config = HmcConfig(eta=0.5, K=3, lazy=True, seed=0)
    starts = target.sample_exact(n_chains, np.random.default_rng(0))
    streams = [chain_rng(config.seed, c) for c in range(n_chains)]
    traces = _run_block(target, config, starts, n_steps, streams)  # run_chains' block of chains
    x = np.stack([t.positions[1:] for t in traces])
    series = [x[..., j] for j in range(4)] + [(x * x).sum(axis=-1) / 4,
                                              np.stack([t.lazy_holds for t in traces])]
    for values, expected in zip(series, [0.0] * 4 + [1.0, 0.5]):
        means = values.reshape(n_chains, n_steps // batch, batch).mean(axis=-1).ravel()
        se = means.std(ddof=1) / math.sqrt(means.size)
        assert abs(means.mean() - expected) <= 5.0 * se


def _lazy_group_acceptance(d, eta, K, n_streams, n_chains, n_steps, seed):
    """Acceptance over attempts of a lazy `_drive` run of n_streams streams from exact
    N(0, I_d) starts, and its 95% CI half-width (a ratio estimator's, from between-chain
    spread)."""
    target = GaussianTarget.standard(d)
    q = target.sample_exact(n_chains, chain_rng(seed))
    streams = [chain_rng(seed, 1, g) for g in range(n_streams)]
    accepted, holds = (np.array(x) for x in zip(*(
        (s.accepted, s.holds) for s in _drive(target, q, eta, K, streams, True, n_steps))))
    hits, attempts = accepted.sum(axis=0), (~holds).sum(axis=0)
    mean = hits.sum() / attempts.sum()
    se = (hits - mean * attempts).std(ddof=1) / (math.sqrt(n_chains) * attempts.mean())
    return mean, 1.96 * se


@pytest.mark.parametrize("d, eta, K, n_streams, n_chains", [
    (8, 0.8, 2, 4, 64),  # one row block: the caller's thread draws
    (64, 0.45, 3, 3, 600),  # two row blocks: the worker thread draws the next step
])
def test_lazy_stream_groups_hold_the_exact_gaussian_acceptance(d, eta, K, n_streams, n_chains):
    # each stream packs its moving rows' momenta and uniforms after those of the streams before
    # it; from stationary starts the acceptance over attempts is the exact stationary value, held
    # within two 95% CI half-widths.  Over seeds 0-19 of both cases, (mean - exact) / half-width
    # had mean +0.02, standard deviation 0.44 and largest magnitude 1.02
    mean, ci = _lazy_group_acceptance(d, eta, K, n_streams, n_chains, 200, seed=0)
    exact = exact_gaussian_acceptance(d, eta, K)
    assert abs(mean - exact) <= 2.0 * ci, f"{mean} +- {ci}, exact {exact}"


def test_kernel_keeps_the_prior_under_the_geweke_logistic_simulator():
    # Geweke's successive-conditional simulator: 8000 chains as one non-lazy block of d = 4
    # (below two row blocks, so each row meets its own labels) alternate labels y ~ p(y | theta)
    # with 6 steps on p(theta | y); an invariant kernel keeps theta ~ N(0, I / alpha2).  At
    # eta = 1.4 near the leapfrog's stability edge, a KS test of alpha2 |theta|^2 against chi^2_4
    # had p of at least 0.0010 over seeds 0-59, and the per-coordinate z of the means (largest
    # 2.3) and the variances (largest 2.9) stayed below 3 over seeds 0-29.  A kernel that forgets
    # the accepted f, skips the Metropolis test, kicks with 0.9 g_prev + 1.1 g, or takes
    # min(1, exp(1.1 dH)) gave p below 1e-9 at seeds 0-2
    d, n, alpha2, n_chains = 4, 8, 1.0, 8000
    x = chain_rng(17).standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    theta = geweke_logistic_prior_draws(x, alpha2, eta=1.4, K=3, n_chains=n_chains, n_iter=30,
                                        steps=6, seed=0)
    assert stats.kstest(alpha2 * (theta * theta).sum(axis=1), "chi2", args=(d,)).pvalue >= 1e-5
    z_mean = theta.mean(axis=0) * math.sqrt(n_chains * alpha2)
    z_var = (alpha2 * theta.var(axis=0, ddof=1) - 1.0) / math.sqrt(2.0 / (n_chains - 1))
    assert np.abs(z_mean).max() <= 5.0 and np.abs(z_var).max() <= 5.0, (z_mean, z_var)


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
    assert trace.grad_evals == trace.n_attempts * (config.K + 1)  # the paper's cost model
    # f and grad f are evaluated once at the start and then carried, also by a lazy chain
    assert target.gradient_evals == 1 + trace.n_attempts * config.K
    assert target.potential_evals == 1 + trace.n_attempts


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
    # every row once at the start, then only the moving rows are integrated
    assert target.gradient_evals == n_chains + moving * K
    assert target.potential_evals == n_chains + moving
    assert np.array_equal(step.positions[step.holds], q[step.holds])
    if not per_chain:  # the block stream draws every coin, then momenta and uniforms of movers
        _assert_lazy_draws(rng, np.random.default_rng(12), n_chains, moving, 3)
    else:  # each chain's stream draws its coin, then a momentum and uniform if it moves
        for c, stream in enumerate(rng):
            _assert_lazy_draws(stream, chain_rng(12, c), 1, int(not step.holds[c]), 3)


def _assert_lazy_draws(stream, ref, rows, moving, d):
    """stream has drawn one lazy step for `rows` rows of which `moving` move, as ref does here."""
    ref.random(rows), ref.standard_normal((moving, d)), ref.random(moving)
    assert stream.random() == ref.random()


@pytest.mark.parametrize("hold", [True, False], ids=["every-chain-holds", "no-chain-holds"])
def test_lazy_step_draws_momenta_for_moving_rows_only(hold):
    # three streams of four rows whose first four coins all fall on one side of 1/2
    seeds = [s for s in range(1000)
             if ((np.random.default_rng(s).random(4) < 0.5) == hold).all()][:3]
    target = CountingTarget(make_logistic(6, 3, seed=67))
    q = np.random.default_rng(12).standard_normal((12, 3))
    streams = [np.random.default_rng(s) for s in seeds]
    step = batch_transition(target, q, 0.3, 3, streams, lazy=True)
    assert np.array_equal(step.holds, np.full(12, hold))
    assert target.gradient_evals == 12 + (0 if hold else 12 * 3)
    refs = [np.random.default_rng(s) for s in seeds]
    for ref in refs:
        ref.random(4)  # the coins
    if hold:  # coins only: nothing moves and nothing else is drawn
        assert np.array_equal(step.positions, q)
        assert np.isnan(step.delta_h).all() and not step.accepted.any()
        oracle = [np.random.default_rng(s) for s in seeds]
        _assert_same_step(step, unblocked_step(make_logistic(6, 3, seed=67), q, 0.3, 3, oracle,
                                               True)[0])
    else:  # coins, then the draws of a non-lazy step
        _assert_same_step(step, batch_transition(make_logistic(6, 3, seed=67), q, 0.3, 3, refs))
        assert step.accepted.any()
    for stream, ref in zip(streams, refs):
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
        # a diverged row is never accepted, and its delta_h is NaN
        assert not (step.accepted & step.diverged).any()
        assert np.isnan(step.delta_h[step.diverged]).all()
        rejected += int((~step.accepted & ~step.holds).sum())
        diverged += int(step.diverged.sum())
    assert rejected > 0
    assert (diverged > 0) == diverges


@pytest.mark.parametrize("K, eta", [(0, 0.1), (-1, 0.1), (2.5, 0.1), (2.0, 0.1), (2, 0.0),
                                    (2, -0.1), (2, math.nan), (2, math.inf), (2, -math.inf)])
def test_batch_transition_rejects_bad_schedule(K, eta):
    # a NaN step-size once ran and marked every proposal diverged, with NaN delta_h;
    # a float K was accepted by HmcConfig and failed later inside the run
    match = "leapfrog step" if eta == 0.1 else "step-size eta"
    with pytest.raises(ValueError, match=match):
        batch_transition(GaussianTarget.standard(2), np.zeros((3, 2)), eta, K,
                         np.random.default_rng(0))
    with pytest.raises(ValueError, match=match):
        HmcConfig(eta=eta, K=K)


def test_numpy_integer_step_count_is_accepted():
    config = HmcConfig(eta=0.3, K=np.int64(2))
    trace = run_chain(GaussianTarget.standard(2), config, np.zeros(2), 3)
    assert trace.n_steps == 3


def _positions(*values):
    q = np.zeros((3, 2))
    q[1, :len(values)] = values
    return q


@pytest.mark.parametrize("q, match", [
    *(pytest.param(np.zeros(shape), "shape", id=f"shape{i}")
      for i, shape in enumerate([(2,), (3, 3), (3, 1), (1, 3, 2)])),
    pytest.param(_positions(math.nan), "finite", id="nan"),
    pytest.param(_positions(0.0, math.inf), "finite", id="inf"),
    pytest.param(_positions(-math.inf), "finite", id="-inf"),
])
def test_batch_transition_rejects_bad_positions(q, match):
    for lazy in (False, True):
        with pytest.raises(ValueError, match=match):
            batch_transition(GaussianTarget.standard(2), q, 0.1, 2, np.random.default_rng(0),
                             lazy)


@pytest.mark.parametrize("lazy", [False, True], ids=["non-lazy", "lazy"])
@pytest.mark.parametrize("q0", [[1e200, 0.0, 0.0], [0.0, -1e300, 0.0]])
def test_run_rejects_a_start_without_finite_energy(q0, lazy):
    # f(q0) overflows: the start carry is checked, with no overflow warning raised in its place;
    # a lazy run once skipped the check and recorded the bad start as diverged steps and holds
    target = GaussianTarget.standard(3)
    config = HmcConfig(eta=0.3, K=2, lazy=lazy)
    with pytest.raises(ValueError, match="not finite at the start"):
        run_chain(target, config, q0, 5)
    with pytest.raises(ValueError, match="not finite at the start"):
        run_chains(target, config, q0, 5, 2)
    with pytest.raises(ValueError, match="not finite at the start"):
        batch_transition(target, np.array([q0]), 0.3, 2, np.random.default_rng(0), lazy)


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
        # lazy chains carry grad f rows evaluated on their moving rows; only an elementwise
        # target rounds those rows as a whole-block evaluation does
        (GaussianTarget.standard(3), HmcConfig(eta=1.2, K=3, lazy=True, seed=4), np.ones(3)),
    ],
    ids=["logistic", "gaussian", "cubic-ridge", "gaussian-lazy"],
)
@pytest.mark.parametrize("n_chains", [1, 8])
def test_non_lazy_chains_match_public_transitions(target, config, q0, n_chains):
    # the driver carries f and grad f; a loop of public transitions evaluates them afresh
    n_steps = 30
    traces = run_chains(target, config, q0, n_steps, n_chains)
    q = np.broadcast_to(q0, (n_chains, target.d))
    streams = [chain_rng(config.seed, c) for c in range(n_chains)]
    for i in range(n_steps):
        step = batch_transition(target, q, config.eta, config.K, streams, config.lazy)
        q = step.positions
        assert np.array_equal(q, [t.positions[i + 1] for t in traces])
        assert np.array_equal(step.accepted, [t.accepted[i] for t in traces])
        assert np.array_equal(step.holds, [t.lazy_holds[i] for t in traces])
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
    # the shared start is copied to C order, so the carry starts at the first step
    target = CountingTarget(make_logistic(5, 3, seed=63))
    config = HmcConfig(eta=0.3, K=4, seed=29)
    n_chains, n_steps = 4, 50
    run_chains(target, config, np.full(3, 0.5), n_steps, n_chains)
    assert target.gradient_evals == n_chains * (1 + n_steps * config.K)
    assert target.potential_evals == n_chains * (1 + n_steps)


@pytest.mark.parametrize("q0", [0.5, np.zeros(2), np.zeros((2, 3))], ids=["scalar", "length", "2d"])
def test_run_chain_rejects_bad_start(q0):
    with pytest.raises(ValueError, match=r"q0 must have shape \(3,\)"):
        run_chain(GaussianTarget.standard(3), HmcConfig(eta=0.5, K=5), q0, 5)


@pytest.mark.parametrize("n_chains", [0, -1])
def test_run_chains_needs_a_chain(n_chains):
    with pytest.raises(ValueError, match="need at least one chain"):
        run_chains(GaussianTarget.standard(3), HmcConfig(eta=0.5, K=5), np.zeros(3), 5, n_chains)


@pytest.mark.parametrize("q0", [0.5, np.zeros(2), np.zeros((2, 3))], ids=["scalar", "length", "2d"])
def test_run_chains_rejects_bad_start(q0):
    with pytest.raises(ValueError, match=r"q0 must have shape \(3,\)"):
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
    assert target.gradient_evals == n_chains + moving * K
    assert target.potential_evals == n_chains + moving
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


_DRIVE_TARGETS = [GaussianTarget.diagonal(np.linspace(0.5, 2.0, 64)), make_logistic(40, 16, seed=16)]


def test_drive_matches_public_transitions():
    # B within one row block (steps draw in line) and across two or more (the worker prefetches);
    # the reference is the whole-batch oracle with the same carry, since batch_transition is _drive
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies

    @hp.settings(derandomize=True, deadline=None, max_examples=40)
    @hp.given(st.sampled_from(range(len(_DRIVE_TARGETS))), st.booleans(), st.integers(0, 3),
              st.integers(1, 3), st.booleans(), st.sampled_from([1, 2, 3]), st.integers(1, 4),
              st.integers(0, 2**16))
    def check(which, wide, extra, K, lazy, n_streams, n_steps, seed):
        target = _DRIVE_TARGETS[which]
        rows = _block_rows(target.d)
        per_stream = (-(-2 * rows // n_streams) if wide else 1 + seed % 40) + extra
        n_chains = n_streams * per_stream
        assert (n_chains >= 2 * rows) == wide
        q = 0.5 * np.random.default_rng(seed).standard_normal((n_chains, target.d))
        ours = [np.random.default_rng(seed + j) for j in range(n_streams)]
        ref = [np.random.default_rng(seed + j) for j in range(n_streams)]
        final = q.copy()
        steps = [BatchTransition(s.positions.copy(), s.accepted, s.delta_h, s.holds, s.diverged)
                 for s in _drive(target, final, 0.3, K, ours if n_streams > 1 else ours[0],
                                 lazy, n_steps)]
        assert len(steps) == n_steps
        q_ref = q
        carry = target.potential(q), target.gradient(q)
        for step in steps:
            expected, carry = unblocked_step(target, q_ref, 0.3, K, ref, lazy, carry)
            _assert_same_step(step, expected)
            q_ref = expected.positions
        assert np.array_equal(final, q_ref)
        assert all(a.random() == b.random() for a, b in zip(ours, ref))

    check()


class _CountingPool(concurrent.futures.ThreadPoolExecutor):
    made: list = []

    def __init__(self, max_workers=None, **kwargs):
        _CountingPool.made.append(max_workers)
        super().__init__(max_workers, **kwargs)


@pytest.fixture
def counted_pools(monkeypatch):
    _CountingPool.made = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _CountingPool)
    return _CountingPool.made


@pytest.mark.parametrize("n_chains, n_steps, pools", [(512, 3, [1]), (511, 3, []), (512, 1, [])])
def test_drive_prefetches_only_wide_runs_of_several_steps(counted_pools, n_chains, n_steps, pools):
    target = GaussianTarget.standard(64)  # two row blocks are 512 rows
    q = np.zeros((n_chains, 64))
    for _ in _drive(target, q, 0.3, 2, [np.random.default_rng(0)], True, n_steps):
        pass
    assert counted_pools == pools  # one worker thread at most, and only where it pays


@pytest.mark.parametrize("consumed", [True, False], ids=["to-the-end", "closed-after-one"])
def test_drive_joins_its_worker(consumed):
    target = GaussianTarget.standard(64)
    before = threading.active_count()
    steps = _drive(target, np.zeros((512, 64)), 0.3, 2, [np.random.default_rng(0)], True, 4)
    next(steps)
    assert threading.active_count() == before + 1  # the prefetch worker
    if consumed:
        assert len(list(steps)) == 3
    else:
        steps.close()
    assert threading.active_count() == before


def test_drive_steps_its_array_in_place():
    target = GaussianTarget.standard(3)
    q = np.random.default_rng(1).standard_normal((4, 3))
    assert all(s.positions is q for s in _drive(target, q, 0.5, 2, [np.random.default_rng(1)],
                                                False, 3))
    # any other layout or dtype is stepped on a C-ordered float copy
    q_f = np.asfortranarray(np.random.default_rng(1).standard_normal((4, 3)))
    start = q_f.copy()
    for step in _drive(target, q_f, 0.5, 2, [np.random.default_rng(1)], False, 3):
        assert step.positions is not q_f and step.positions.flags.c_contiguous
    assert np.array_equal(q_f, start)


@pytest.mark.parametrize("lazy", [False, True])
def test_callers_start_is_left_alone(lazy):
    target = GaussianTarget.standard(3)
    config = HmcConfig(eta=0.5, K=2, lazy=lazy, seed=3)
    q0 = np.array([0.5, -1.0, 2.0])
    block = np.tile(q0, (4, 1))
    run_chain(target, config, q0, 5)
    run_chains(target, config, q0, 5, 4)
    step = batch_transition(target, block, 0.5, 2, np.random.default_rng(3), lazy)
    assert np.array_equal(q0, [0.5, -1.0, 2.0])
    assert np.array_equal(block, np.tile(q0, (4, 1)))
    assert not np.shares_memory(step.positions, block)


@pytest.mark.parametrize("n_chains, d", [(4, 3), (512, 64)], ids=["one-block", "two-blocks"])
@pytest.mark.parametrize("lazy", [False, True], ids=["non-lazy", "lazy"])
def test_kept_steps_are_not_overwritten(n_chains, d, lazy):
    # each step's flags and delta_h stay as yielded while the run goes on
    target = GaussianTarget.diagonal(np.linspace(0.5, 2.0, d))
    q = np.random.default_rng(7).standard_normal((n_chains, d))
    fields = ("accepted", "delta_h", "holds", "diverged")
    kept, copies = [], []
    for step in _drive(target, q, 1.2, 3, [np.random.default_rng(7)], lazy, 6):
        kept.append(step)
        copies.append([getattr(step, name).copy() for name in fields])
    assert any(s.accepted.any() for s in kept) and any((~s.accepted & ~s.holds).any() for s in kept)
    for step, copy in zip(kept, copies):
        for name, before in zip(fields, copy):
            assert np.array_equal(getattr(step, name), before, equal_nan=True), name


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
