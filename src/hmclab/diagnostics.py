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


# Cephes ndtr, erf and erfc (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), the form SciPy's ndtr evaluates: the same
# coefficients, Horner order, branches and libm exp give the same bits.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log(2**1024): exp(-x*x) underflows beyond it


def _polevl(x: float, coefs) -> float:
    """coefs[0] x^n + ... + coefs[n] by Horner's rule."""
    y = coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _p1evl(x: float, coefs) -> float:
    """x^n + coefs[0] x^(n-1) + ... + coefs[n-1]: a leading coefficient of 1."""
    y = x + coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:  # exp(z) underflows
        return 2.0 if a < 0.0 else 0.0
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _p1evl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _p1evl(x, _ERFC_S)
    # math.exp is libm's, as in Cephes; numpy's SIMD exp may round differently
    y = math.exp(z) * p / q
    return 2.0 - y if a < 0.0 else y


def _ndtr(a: float) -> float:
    """N(0, 1) CDF at a, bit for bit SciPy's special.ndtr (Cephes)."""
    x = a * math.sqrt(0.5)
    z = abs(x)
    if z < 1.0:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


#: histogram TV: 200 equal bins on [-8, 8], the tails folded into the end bins
_TV_EDGES = np.linspace(-8.0, 8.0, 201)


@functools.cache
def _tv_bin_probs() -> Array:
    """N(0, 1) probability of each _TV_EDGES bin, tails folded into the end bins.

    Computed once per process from _ndtr, read-only; the bytes equal the
    same arithmetic on SciPy's special.ndtr(_TV_EDGES), and no SciPy module loads.
    """
    cdf = np.array([_ndtr(e) for e in _TV_EDGES.tolist()])
    probs = np.diff(cdf)
    probs[0] += cdf[0]
    probs[-1] += 1.0 - cdf[-1]
    probs.flags.writeable = False
    return probs


def tv_histogram(samples: Array) -> float:
    """Half L1 distance between a histogram of samples and N(0, 1).

    Samples are clipped into [-8, 8] so tail mass (+-inf included) lands in
    the end bins, and the exact bin probabilities absorb the tails the same
    way.  Empty or NaN input raises ValueError.  This is a biased (upward, by
    binning noise) estimator, not a certificate.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("tv_histogram needs at least one sample")
    if np.isnan(samples).any():
        raise ValueError("tv_histogram got NaN samples")
    samples = np.clip(samples, _TV_EDGES[0], _TV_EDGES[-1])
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
