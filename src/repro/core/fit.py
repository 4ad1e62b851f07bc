"""Distribution fitting and model selection for workload samples.

The paper's conclusion announces a search for the "best-fit" load model
as future work; this module provides it for the workload side: maximum-
likelihood fits of the standard candidates (exponential, lognormal,
Weibull, bounded Pareto), Kolmogorov-Smirnov goodness-of-fit, and
AIC-based model selection. The fitted shapes can be fed straight back
into :mod:`repro.core.distributions` (the sampling toolkit used by
:mod:`repro.synth`) to close the loop between characterization and
synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    BoundedPareto,
    Distribution,
    Exponential,
    LogNormal,
)

__all__ = [
    "FittedModel",
    "fit_exponential",
    "fit_lognormal",
    "fit_weibull",
    "fit_bounded_pareto",
    "fit_best",
    "ks_statistic",
    "CANDIDATE_FAMILIES",
]


@dataclass(frozen=True)
class FittedModel:
    """One fitted candidate distribution.

    Attributes
    ----------
    family:
        Model family name ("exponential", "lognormal", ...).
    params:
        Fitted parameters, family-specific.
    log_likelihood:
        Total log-likelihood at the fit.
    aic:
        Akaike information criterion (lower is better).
    ks:
        Kolmogorov-Smirnov distance between sample and fitted CDF.
    distribution:
        Sampleable :class:`~repro.core.distributions.Distribution`
        equivalent, when the family maps onto the synthesis toolkit
        (None for Weibull).
    """

    family: str
    params: dict[str, float]
    log_likelihood: float
    aic: float
    ks: float
    distribution: Distribution | None


def _check_sample(sample: np.ndarray) -> np.ndarray:
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size < 2:
        raise ValueError("need at least two samples to fit")
    if np.any(~np.isfinite(sample)) or np.any(sample <= 0):
        raise ValueError("samples must be finite and positive")
    return sample


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """Two-sided KS distance between an empirical sample and a CDF."""
    sample = np.sort(np.asarray(sample, dtype=np.float64))
    n = sample.size
    theo = np.asarray(cdf(sample), dtype=np.float64)
    upper = np.arange(1, n + 1) / n - theo
    lower = theo - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def fit_exponential(sample: np.ndarray) -> FittedModel:
    """MLE exponential fit: rate = 1/mean."""
    sample = _check_sample(sample)
    mean = float(sample.mean())
    loglik = float(-sample.size * np.log(mean) - sample.sum() / mean)
    ks = ks_statistic(sample, lambda x: 1.0 - np.exp(-x / mean))
    return FittedModel(
        family="exponential",
        params={"mean": mean},
        log_likelihood=loglik,
        aic=2 * 1 - 2 * loglik,
        ks=ks,
        distribution=Exponential(mean),
    )


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF over an array; NumPy has no ``erf``."""
    return 0.5 * _erfc(-z / math.sqrt(2.0)).astype(np.float64)


def fit_lognormal(sample: np.ndarray) -> FittedModel:
    """MLE lognormal fit in log space."""
    sample = _check_sample(sample)
    logs = np.log(sample)
    mu = float(logs.mean())
    sigma = float(logs.std())
    if sigma <= 0:
        sigma = 1e-9
    loglik = float(
        -logs.sum()
        - sample.size * np.log(sigma * np.sqrt(2 * np.pi))
        - ((logs - mu) ** 2).sum() / (2 * sigma**2)
    )
    median = float(np.exp(mu))
    ks = ks_statistic(sample, lambda x: _normal_cdf(np.log(x / median) / sigma))
    return FittedModel(
        family="lognormal",
        params={"median": median, "sigma": sigma},
        log_likelihood=loglik,
        aic=2 * 2 - 2 * loglik,
        ks=ks,
        distribution=LogNormal(median=median, sigma=sigma),
    )


def _weibull_shape(logs: np.ndarray) -> float:
    """Root of the Weibull profile score in the shape ``k``.

    ``g(k) = 1/k + mean(log x) - sum(x^k log x) / sum(x^k)`` falls
    strictly from +inf to ``mean(log x) - max(log x) < 0``, so its root
    is the unique MLE. Newton steps start from the moment estimate and
    stay inside a bracket that every evaluation shrinks; a step that
    leaves it is replaced by bisection, so the loop ends at the latest
    when the bracket holds no float between its ends. The weights
    ``x^k`` are taken relative to the largest sample, so they never
    overflow.
    """
    d = logs - logs.max()
    if not d.any():
        raise ValueError("Weibull MLE needs samples that differ")
    mean_d = float(d.mean())
    lo, hi = 0.0, math.inf
    k = math.pi / (math.sqrt(6.0) * float(d.std()))
    while True:
        w = np.exp(k * d)
        total = float(w.sum())
        m1 = float(w @ d) / total
        var = max(float(w @ (d * d)) / total - m1 * m1, 0.0)
        g = 1.0 / k + mean_d - m1
        if g > 0:
            lo = k
        elif g < 0:
            hi = k
        else:
            return k
        nxt = k + g / (1.0 / (k * k) + var)
        if not lo < nxt < hi:
            # A step up from ``lo`` can only pass a finite ``hi``.
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return k
        if abs(nxt - k) <= 4 * np.finfo(float).eps * k:
            return nxt
        k = nxt


def fit_weibull(sample: np.ndarray) -> FittedModel:
    """MLE Weibull fit with location fixed at 0.

    Raises :class:`ValueError` on a sample of one repeated value, which
    has no MLE (the likelihood grows without bound in the shape).
    """
    sample = _check_sample(sample)
    logs = np.log(sample)
    shape = _weibull_shape(logs)
    # scale = mean(x^k)^(1/k), with x^k taken relative to the largest x.
    top = float(logs.max())
    mean_pow = float(np.exp(shape * (logs - top)).mean())
    scale = math.exp(top + math.log(mean_pow) / shape)
    loglik = float(
        sample.size * (math.log(shape) - shape * math.log(scale))
        + (shape - 1.0) * logs.sum()
        - ((sample / scale) ** shape).sum()
    )
    ks = ks_statistic(sample, lambda x: -np.expm1(-((x / scale) ** shape)))
    return FittedModel(
        family="weibull",
        params={"shape": shape, "scale": scale},
        log_likelihood=loglik,
        aic=2 * 2 - 2 * loglik,
        ks=ks,
        distribution=None,
    )


def fit_bounded_pareto(sample: np.ndarray) -> FittedModel:
    """MLE bounded-Pareto fit with bounds at the sample extremes.

    The bounds are pinned to ``[min(sample), max(sample)]`` (their MLE)
    and alpha maximized over ``[1e-6, 20]`` — the textbook estimator
    for truncated power laws. With ``c = log(high/low)``, the
    log-likelihood is concave in alpha and its derivative per sample,
    ``1/alpha - mean(log(x/low)) - c/expm1(c*alpha)``, falls, so
    bisecting it to adjacent floats finds the maximum; when it keeps
    one sign over the interval, the maximum is that end.
    """
    sample = _check_sample(sample)
    low = float(sample.min())
    high = float(sample.max())
    if high <= low:
        raise ValueError("sample must span a positive range")
    logs = np.log(sample)
    n = sample.size
    c = math.log(high / low)
    spread = float(logs.mean()) - math.log(low)

    def slope(alpha: float) -> float:
        # c/expm1(c*alpha), written so that a wide range cannot overflow.
        return 1.0 / alpha - spread + c * math.exp(-c * alpha) / math.expm1(-c * alpha)

    lo, hi = 1e-6, 20.0
    if slope(lo) <= 0:
        alpha = lo
    elif slope(hi) >= 0:
        alpha = hi
    else:
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if slope(mid) > 0:
                lo = mid
            else:
                hi = mid
        alpha = lo
    loglik = float(
        n * (math.log(alpha) - alpha * spread - math.log(-math.expm1(-c * alpha)))
        - logs.sum()
    )

    def cdf(x: np.ndarray) -> np.ndarray:
        x = np.clip(x, low, high)
        return np.expm1(-alpha * np.log(x / low)) / math.expm1(-c * alpha)

    ks = ks_statistic(sample, cdf)
    return FittedModel(
        family="bounded_pareto",
        params={"alpha": alpha, "low": low, "high": high},
        log_likelihood=loglik,
        aic=2 * 3 - 2 * loglik,
        ks=ks,
        distribution=BoundedPareto(alpha=alpha, low=low, high=high),
    )


CANDIDATE_FAMILIES = {
    "exponential": fit_exponential,
    "lognormal": fit_lognormal,
    "weibull": fit_weibull,
    "bounded_pareto": fit_bounded_pareto,
}


def fit_best(
    sample: np.ndarray, families: tuple[str, ...] | None = None
) -> list[FittedModel]:
    """Fit all candidate families, best (lowest AIC) first.

    Families that fail to fit (degenerate samples) are skipped; at
    least one fit must succeed.
    """
    names = families if families is not None else tuple(CANDIDATE_FAMILIES)
    fits: list[FittedModel] = []
    for name in names:
        try:
            fitter = CANDIDATE_FAMILIES[name]
        except KeyError:
            raise KeyError(
                f"unknown family {name!r}; available: "
                f"{sorted(CANDIDATE_FAMILIES)}"
            ) from None
        try:
            fits.append(fitter(sample))
        except (ValueError, FloatingPointError):
            continue
    if not fits:
        raise ValueError("no candidate family could be fitted")
    return sorted(fits, key=lambda f: f.aic)
