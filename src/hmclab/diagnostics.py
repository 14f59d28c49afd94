"""Chain diagnostics: autocorrelation times and projected TV estimates."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

Array = np.ndarray


def autocorrelation(x: Array, max_lag: int | None = None) -> Array:
    """Normalized autocorrelation of a scalar series, via FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if max_lag is None:
        max_lag = n - 1
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, n=size)
    acov = np.fft.irfft(f * np.conj(f), n=size)[: max_lag + 1]
    if acov[0] <= 0:
        return np.zeros(max_lag + 1)
    return acov / acov[0]


def integrated_autocorr_time(x: Array) -> float:
    """IACT by Geyer's initial-positive-sequence truncation.

    Sums pair blocks rho(2m) + rho(2m+1) while they stay positive; for an
    uncorrelated series the result is about 1.
    """
    rho = autocorrelation(x)
    if rho.size % 2 == 1:
        rho = rho[:-1]
    blocks = rho[0::2] + rho[1::2]
    negative = np.nonzero(blocks <= 0)[0]
    cutoff = negative[0] if negative.size else blocks.size
    tau = -1.0 + 2.0 * float(blocks[:cutoff].sum())
    return max(tau, 1e-12)


def effective_sample_size(x: Array) -> float:
    return x.size / integrated_autocorr_time(x)


def tv_histogram(
    samples: Array,
    cdf=ndtr,
    lo: float = -8.0,
    hi: float = 8.0,
    bins: int = 200,
) -> float:
    """Half L1 distance between a histogram of samples and an exact law.

    Samples are clipped into [lo, hi] so tail mass lands in the end bins,
    and the exact bin probabilities absorb the tails the same way.  This is
    a biased (upward, by binning noise) estimator, not a certificate.
    """
    samples = np.clip(np.asarray(samples, dtype=float).ravel(), lo, hi)
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    probs = np.diff(cdf(edges))
    probs[0] += cdf(edges[0])
    probs[-1] += 1.0 - cdf(edges[-1])
    return 0.5 * float(np.abs(counts / samples.size - probs).sum())


def random_directions(n: int, d: int, rng: np.random.Generator) -> Array:
    a = rng.standard_normal((n, d))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def tv_projection_estimate(
    samples: Array,
    projected_std,
    rng: np.random.Generator,
    n_projections: int = 64,
    bins: int = 200,
) -> float:
    """Average histogram-TV over random 1D projections against exact marginals.

    projected_std(directions) must return the exact standard deviation of
    the target along each unit direction; each projection is standardized
    and compared against N(0, 1).
    """
    samples = np.asarray(samples, dtype=float)
    dirs = random_directions(n_projections, samples.shape[1], rng)
    stds = np.asarray(projected_std(dirs), dtype=float)
    projected = samples @ dirs.T / stds
    return float(np.mean([tv_histogram(projected[:, j], bins=bins) for j in range(n_projections)]))
