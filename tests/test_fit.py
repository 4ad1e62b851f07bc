"""Unit tests for distribution fitting and model selection.

SciPy is the oracle here: the fitters are NumPy only, and each is
checked against SciPy's fit or CDF for the same family.
"""

import numpy as np
import pytest
from scipy import optimize, stats

from repro.core.distributions import BoundedPareto
from repro.core.fit import (
    CANDIDATE_FAMILIES,
    fit_best,
    fit_bounded_pareto,
    fit_exponential,
    fit_lognormal,
    fit_weibull,
    ks_statistic,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestKsStatistic:
    def test_perfect_fit_small_ks(self, rng):
        sample = rng.uniform(0, 1, 5000)
        ks = ks_statistic(sample, lambda x: np.clip(x, 0, 1))
        assert ks < 0.03

    def test_wrong_model_large_ks(self, rng):
        sample = rng.uniform(0, 1, 5000)
        ks = ks_statistic(sample, lambda x: np.clip(x, 0, 1) ** 4)
        assert ks > 0.3


class TestExponentialFit:
    def test_recovers_mean(self, rng):
        sample = rng.exponential(50.0, 20000)
        fit = fit_exponential(sample)
        assert fit.params["mean"] == pytest.approx(50.0, rel=0.05)
        assert fit.ks < 0.02
        assert fit.distribution is not None

    def test_rejects_bad_sample(self):
        with pytest.raises(ValueError):
            fit_exponential(np.array([1.0]))
        with pytest.raises(ValueError):
            fit_exponential(np.array([1.0, -1.0]))


class TestLognormalFit:
    def test_recovers_params(self, rng):
        sample = rng.lognormal(np.log(100.0), 1.2, 20000)
        fit = fit_lognormal(sample)
        assert fit.params["median"] == pytest.approx(100.0, rel=0.08)
        assert fit.params["sigma"] == pytest.approx(1.2, abs=0.05)
        assert fit.ks < 0.02

    def test_ks_matches_scipy_cdf(self, rng):
        sample = rng.lognormal(np.log(100.0), 1.2, 20000)
        fit = fit_lognormal(sample)
        dist = stats.lognorm(s=fit.params["sigma"], scale=fit.params["median"])
        assert fit.ks == pytest.approx(ks_statistic(sample, dist.cdf), abs=1e-12)


def _tight_fmin(func, x0, args=(), disp=0):
    # SciPy's default Nelder-Mead tolerances (1e-4) leave its own shape
    # up to ~1e-5 relative from the MLE, the size of the bound checked.
    return optimize.fmin(func, x0, args=args, xtol=1e-10, ftol=1e-10, disp=disp)


class TestWeibullFit:
    def test_recovers_shape(self, rng):
        sample = stats.weibull_min(c=1.5, scale=10.0).rvs(
            20000, random_state=rng
        )
        fit = fit_weibull(sample)
        assert fit.params["shape"] == pytest.approx(1.5, abs=0.1)
        assert fit.ks < 0.02

    @pytest.mark.parametrize("shape", [0.4, 0.7, 1.5, 3.0, "lognormal"])
    def test_matches_scipy_mle(self, rng, shape):
        if shape == "lognormal":
            sample = rng.lognormal(2.0, 1.5, 20000)
        else:
            sample = stats.weibull_min(c=shape, scale=10.0).rvs(
                20000, random_state=rng
            )
        fit = fit_weibull(sample)
        c, _loc, scale = stats.weibull_min.fit(
            sample, floc=0, optimizer=_tight_fmin
        )
        assert fit.params["shape"] == pytest.approx(c, rel=1e-5)
        assert fit.params["scale"] == pytest.approx(scale, rel=1e-5)
        loglik = stats.weibull_min(c=c, scale=scale).logpdf(sample).sum()
        assert fit.log_likelihood >= loglik - 1e-9 * abs(loglik)
        dist = stats.weibull_min(c=fit.params["shape"], scale=fit.params["scale"])
        assert fit.ks == pytest.approx(ks_statistic(sample, dist.cdf), abs=1e-12)


def _scipy_bounded_pareto(sample):
    """SciPy's bounded scalar search over the same likelihood: (alpha, ll)."""
    low, high = sample.min(), sample.max()
    logs = np.log(sample)
    n = sample.size

    def neg_loglik(alpha):
        return -(
            n * np.log(alpha)
            + n * alpha * np.log(low)
            - (alpha + 1.0) * logs.sum()
            - n * np.log(1.0 - (low / high) ** alpha)
        )

    result = optimize.minimize_scalar(
        neg_loglik, bounds=(1e-6, 20.0), method="bounded"
    )
    return float(result.x), -float(result.fun)


class TestBoundedParetoFit:
    def test_recovers_alpha(self, rng):
        true = BoundedPareto(alpha=0.6, low=1.0, high=1e5)
        sample = true.sample(rng, 50000)
        fit = fit_bounded_pareto(sample)
        assert fit.params["alpha"] == pytest.approx(0.6, abs=0.05)
        assert fit.ks < 0.02
        assert fit.params["alpha"] == pytest.approx(
            _scipy_bounded_pareto(sample)[0], abs=2e-5
        )

    def test_wide_range_matches_scipy(self):
        # The sample spans about 1e19, so expm1(c * alpha) with
        # c = log(high/low) would overflow at alpha = 20.
        true = BoundedPareto(alpha=0.1, low=1e-10, high=1e10)
        sample = true.sample(np.random.default_rng(1), 20000)
        alpha, loglik = _scipy_bounded_pareto(sample)
        fit = fit_bounded_pareto(sample)
        assert fit.params["alpha"] == pytest.approx(alpha, abs=2e-5)
        assert fit.log_likelihood >= loglik - 1e-9 * abs(loglik)

    def test_optimum_on_lower_bound(self):
        # Logs leaning to the top of their range make the likelihood
        # fall over all of [1e-6, 20]: the constrained MLE is the bound.
        sample = np.exp(np.random.default_rng(0).triangular(3, 14, 14, 5000))
        fit = fit_bounded_pareto(sample)
        assert fit.params["alpha"] == 1e-6
        assert fit.log_likelihood > _scipy_bounded_pareto(sample)[1]

    def test_degenerate_rejected(self):
        constant = np.full(10, 5.0)
        with pytest.raises(ValueError):
            fit_bounded_pareto(constant)
        with pytest.raises(ValueError):
            fit_weibull(constant)
        assert {f.family for f in fit_best(constant)} == {
            "lognormal",
            "exponential",
        }


class TestModelSelection:
    def test_selects_true_family(self, rng):
        cases = {
            "exponential": rng.exponential(10.0, 8000),
            "lognormal": rng.lognormal(2.0, 1.5, 8000),
        }
        for family, sample in cases.items():
            fits = fit_best(sample)
            assert fits[0].family == family, (
                f"expected {family}, got {[f.family for f in fits]}"
            )

    def test_results_sorted_by_aic(self, rng):
        fits = fit_best(rng.lognormal(0, 1, 2000))
        aics = [f.aic for f in fits]
        assert aics == sorted(aics)

    def test_unknown_family_rejected(self, rng):
        with pytest.raises(KeyError):
            fit_best(rng.exponential(1.0, 100), families=("bogus",))

    def test_families_registry_complete(self):
        assert set(CANDIDATE_FAMILIES) == {
            "exponential",
            "lognormal",
            "weibull",
            "bounded_pareto",
        }

    def test_closes_loop_with_synthesis(self, rng):
        """Fitted models are sampleable and reproduce the shape."""
        sample = rng.lognormal(np.log(300.0), 1.0, 10000)
        best = fit_best(sample)[0]
        assert best.distribution is not None
        resampled = best.distribution.sample(rng, 10000)
        assert np.median(resampled) == pytest.approx(
            np.median(sample), rel=0.1
        )

    def test_google_task_lengths_are_not_exponential(self, rng):
        """The paper's heavy-tailed task lengths reject the memoryless fit."""
        from repro.synth.presets import GOOGLE_TASK_LENGTH

        sample = GOOGLE_TASK_LENGTH.sample(rng, 20000)
        fits = {f.family: f for f in fit_best(sample)}
        assert fits["exponential"].ks > 3 * fits["lognormal"].ks
