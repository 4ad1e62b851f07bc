"""Distribution fitting and model selection for workload samples.

The paper's conclusion announces a search for the "best-fit" load model
as future work; this module provides it for the workload side: maximum-
likelihood fits of the standard candidates (exponential, lognormal,
Weibull, bounded Pareto), Kolmogorov-Smirnov goodness-of-fit, and
AIC-based model selection. The fitted shapes can be fed straight back
into :mod:`repro.core.distributions` (the sampling toolkit used by
:mod:`repro.synth`) to close the loop between characterization and
synthesis.

SciPy is imported inside the three fitters that call it, so processes
that import :mod:`repro.core` but never fit (entry processes, block
workers, ``repro-lint``) do not pay for importing it.
"""

from __future__ import annotations

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


def fit_lognormal(sample: np.ndarray) -> FittedModel:
    """MLE lognormal fit in log space."""
    from scipy import stats

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
    dist = stats.lognorm(s=sigma, scale=np.exp(mu))
    ks = ks_statistic(sample, dist.cdf)
    return FittedModel(
        family="lognormal",
        params={"median": float(np.exp(mu)), "sigma": sigma},
        log_likelihood=loglik,
        aic=2 * 2 - 2 * loglik,
        ks=ks,
        distribution=LogNormal(median=float(np.exp(mu)), sigma=sigma),
    )


def fit_weibull(sample: np.ndarray) -> FittedModel:
    """MLE Weibull fit via scipy (location fixed at 0)."""
    from scipy import stats

    sample = _check_sample(sample)
    shape, _loc, scale = stats.weibull_min.fit(sample, floc=0.0)
    dist = stats.weibull_min(c=shape, scale=scale)
    loglik = float(dist.logpdf(sample).sum())
    ks = ks_statistic(sample, dist.cdf)
    return FittedModel(
        family="weibull",
        params={"shape": float(shape), "scale": float(scale)},
        log_likelihood=loglik,
        aic=2 * 2 - 2 * loglik,
        ks=ks,
        distribution=None,
    )


def fit_bounded_pareto(sample: np.ndarray) -> FittedModel:
    """MLE bounded-Pareto fit with bounds at the sample extremes.

    The bounds are pinned to ``[min(sample), max(sample)]`` (their MLE)
    and alpha maximized numerically — the textbook estimator for
    truncated power laws.
    """
    from scipy import optimize

    sample = _check_sample(sample)
    low = float(sample.min())
    high = float(sample.max())
    if high <= low:
        raise ValueError("sample must span a positive range")
    logs = np.log(sample)
    n = sample.size
    log_l, log_h = np.log(low), np.log(high)

    def neg_loglik(alpha: float) -> float:
        if alpha <= 1e-9:
            return np.inf
        norm = 1.0 - (low / high) ** alpha
        return -(
            n * np.log(alpha)
            + n * alpha * log_l
            - (alpha + 1.0) * logs.sum()
            - n * np.log(norm)
        )

    result = optimize.minimize_scalar(
        neg_loglik, bounds=(1e-6, 20.0), method="bounded"
    )
    alpha = float(result.x)
    loglik = -float(result.fun)

    def cdf(x: np.ndarray) -> np.ndarray:
        x = np.clip(x, low, high)
        la, ha = low**alpha, high**alpha
        return (1.0 - la / x**alpha) / (1.0 - la / ha)

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
