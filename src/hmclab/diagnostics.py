"""Chain diagnostics: autocorrelation times and projected TV estimates."""

from __future__ import annotations

import functools
import math

import numpy as np

from .targets import random_unit_rows

Array = np.ndarray


def autocorrelation(x: Array) -> Array:
    """Normalized autocorrelation of a scalar series at lags 0..n-1, via FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, n=size)
    acov = np.fft.irfft(f * np.conj(f), n=size)[:n]
    if acov[0] <= 0:
        return np.zeros(n)
    return acov / acov[0]


def integrated_autocorr_time(x: Array) -> float:
    """IACT by Geyer's initial-positive-sequence truncation.

    Sums pair blocks rho(2m) + rho(2m+1) while they stay positive; for an
    uncorrelated series the result is about 1.  Like Stan, it caps the
    effective sample size at n log10(n), so tau >= 1 / log10(n): a
    non-constant 2-value series gives tau = 0 before the cap.  A constant
    series (a chain that never moved) has no effective samples: its IACT is
    inf.  Fewer than 2 values raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError(f"IACT needs at least 2 values, got {x.size}")
    if (x == x[0]).all():
        return math.inf
    rho = autocorrelation(x)
    if rho.size % 2 == 1:
        rho = rho[:-1]
    blocks = rho[0::2] + rho[1::2]
    negative = np.nonzero(blocks <= 0)[0]
    cutoff = negative[0] if negative.size else blocks.size
    tau = -1.0 + 2.0 * float(blocks[:cutoff].sum())
    return max(tau, 1.0 / math.log10(x.size))


def effective_sample_size(x: Array) -> float:
    return x.size / integrated_autocorr_time(x)


#: histogram TV: 200 equal bins on [-8, 8], the tails folded into the end bins
_TV_EDGES = np.linspace(-8.0, 8.0, 201)


@functools.cache
def _tv_bin_probs() -> Array:
    """N(0, 1) probability of each _TV_EDGES bin, tails folded into the end bins.

    Computed once per process, read-only.  scipy.special loads here, on the
    first TV estimate, so importing hmclab loads no SciPy module.
    """
    from scipy.special import ndtr

    cdf = ndtr(_TV_EDGES)
    probs = np.diff(cdf)
    probs[0] += cdf[0]
    probs[-1] += 1.0 - cdf[-1]
    probs.flags.writeable = False
    return probs


def tv_histogram(samples: Array) -> float:
    """Half L1 distance between a histogram of samples and N(0, 1).

    Samples are clipped into [-8, 8] so tail mass lands in the end bins,
    and the exact bin probabilities absorb the tails the same way.  This is
    a biased (upward, by binning noise) estimator, not a certificate.
    """
    samples = np.clip(np.asarray(samples, dtype=float).ravel(), _TV_EDGES[0], _TV_EDGES[-1])
    counts, _ = np.histogram(samples, bins=_TV_EDGES)
    return 0.5 * float(np.abs(counts / samples.size - _tv_bin_probs()).sum())


def tv_projection_estimate(samples: Array, projected_std, rng: np.random.Generator) -> float:
    """Average histogram-TV over 64 random 1D projections against exact marginals.

    projected_std(directions) must return the exact standard deviation of
    the target along each unit direction; each projection is standardized
    and compared against N(0, 1).
    """
    samples = np.asarray(samples, dtype=float)
    dirs = random_unit_rows(64, samples.shape[1], rng)
    stds = np.asarray(projected_std(dirs), dtype=float)
    projected = samples @ dirs.T / stds
    return float(np.mean([tv_histogram(column) for column in projected.T]))
