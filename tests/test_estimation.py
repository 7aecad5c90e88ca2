import math
from dataclasses import astuple

import numpy as np
import pytest

from clutterstats import distributions as dist
from clutterstats.estimation import (EmpiricalLogStats, FitOptions,
                                     NonFiniteSamplesError, NoSolutionError,
                                     OutOfRangeError,
                                     TooFewSamplesError, ZeroSamplesError,
                                     empirical_log_stats, fit_molc,
                                     invert_polygamma, texture_log_cumulants)
from clutterstats.mellin import LogStats
from clutterstats.sampling import sample
from clutterstats.specfun import digamma, polygamma

TRIGAMMA_1 = polygamma(1, 1.0)


class TestEmpiricalLogStats:
    def test_all_ones_give_zero_stats(self):
        stats = empirical_log_stats(np.ones(100), 4)
        assert stats.log_moments == (0.0, 0.0, 0.0, 0.0)
        assert stats.log_cumulants == (0.0, 0.0, 0.0, 0.0)
        assert stats.n_samples == 100

    def test_exponential_draws_match_polygamma(self):
        batch = sample(dist.GammaPower(1.0, 1.0), 10**6, 31)
        stats = empirical_log_stats(batch, 2)
        assert abs(stats.log_cumulants[0] - digamma(1.0)) <= \
            3.0 * stats.std_errors[0]
        assert abs(stats.log_cumulants[1] - TRIGAMMA_1) <= \
            3.0 * stats.std_errors[1]

    def test_zero_samples_rejected_with_count(self):
        values = np.ones(50)
        values[[3, 7]] = 0.0
        values[9] = -1.0
        with pytest.raises(ZeroSamplesError) as info:
            empirical_log_stats(values)
        assert info.value.count == 3

    def test_non_finite_samples_rejected_with_count(self):
        values = np.ones(50)
        values[[2, 5]] = math.inf
        values[8] = math.nan
        values[11] = -math.inf
        with pytest.raises(NonFiniteSamplesError) as info:
            empirical_log_stats(values)
        assert info.value.count == 4

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            empirical_log_stats(np.ones(29))

    def test_accepts_batch_or_array(self):
        batch = sample(dist.Weibull(1.0, 2.0), 1000, 5)
        a = empirical_log_stats(batch, 2)
        b = empirical_log_stats(batch.values, 2)
        assert a == b

    def test_order_validation(self):
        with pytest.raises(ValueError):
            empirical_log_stats(np.ones(50), 5)


class TestInvertPolygamma:
    def test_trigamma_at_one(self):
        assert invert_polygamma(1, math.pi**2 / 6.0) == pytest.approx(
            1.0, rel=1e-9)

    def test_trigamma_at_two(self):
        assert invert_polygamma(1, math.pi**2 / 6.0 - 1.0) == pytest.approx(
            2.0, rel=1e-9)

    def test_negative_target_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            invert_polygamma(1, -1.0)
        with pytest.raises(OutOfRangeError):
            invert_polygamma(2, 0.5)   # psi'' < 0 everywhere

    def test_round_trip_grid(self):
        for m in (1, 2, 3):
            for x in np.logspace(math.log10(0.05), 2.0, 25):
                back = invert_polygamma(m, polygamma(m, x))
                assert back == pytest.approx(x, rel=1e-9), (m, x)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            invert_polygamma(0, 1.0)


NOISELESS_CASES = [
    ("gamma", dist.GammaPower(4.0, 1.0)), ("gamma", dist.GammaPower(0.5, 3.0)),
    ("gamma", dist.GammaPower(12.0, 0.2)),
    ("nakagami", dist.Nakagami(1.0, 1.0)), ("nakagami", dist.Nakagami(6.0, 2.5)),
    ("maxwell", dist.Maxwell(0.5)), ("maxwell", dist.Maxwell(4.0)),
    ("weibull", dist.Weibull(1.0, 2.0)), ("weibull", dist.Weibull(2.5, 0.8)),
    ("rayleigh", dist.Rayleigh(0.7)), ("rayleigh", dist.Rayleigh(3.0)),
    ("k", dist.KAmplitude(2.0, 1.0)), ("k", dist.KAmplitude(0.5, 4.0)),
    ("k", dist.KAmplitude(9.0, 0.3)),
    ("ggamma", dist.GammaGamma(4.0, 2.0, 1.0)),
    ("ggamma", dist.GammaGamma(1.0, 8.0, 2.0)),
    ("ggamma", dist.GammaGamma(3.0, 3.0, 0.5)),
    ("ggamma", dist.GammaGamma(0.5, 12.0, 1.0)),
    ("fisher", dist.Fisher(3.0, 4.0, 1.0)), ("fisher", dist.Fisher(1.0, 2.5, 2.0)),
    ("fisher", dist.Fisher(5.0, 5.0, 0.5)), ("fisher", dist.Fisher(8.0, 2.0, 1.0)),
    ("wnak", dist.WeibullNakagami(2.0, 2.0, 1.0)),
    ("wnak", dist.WeibullNakagami(0.9, 4.0, 2.0)),
    ("wnak", dist.WeibullNakagami(3.5, 0.8, 0.5)),
    ("wnak", dist.WeibullNakagami(1.3, 1.3, 2.0)),
]


def canonical_params(tag: str, spec) -> np.ndarray:
    params = np.array(astuple(spec))
    if tag == "ggamma":
        params = np.array([min(params[0], params[1]),
                           max(params[0], params[1]), params[2]])
    return params


class TestNoiselessRoundTrips:
    @pytest.mark.parametrize("tag,spec", NOISELESS_CASES,
                             ids=[f"{t}-{i}" for i, (t, s)
                                  in enumerate(NOISELESS_CASES)])
    def test_recovers_parameters(self, tag, spec):
        stats = LogStats.from_cumulants(dist.log_cumulants_analytic(spec, 4))
        fit = fit_molc(tag, stats)
        assert fit.converged
        got = canonical_params(tag, fit.spec)
        want = canonical_params(tag, spec)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-6

    def test_wnak_with_known_speckle_shape(self):
        spec = dist.WeibullNakagami(2.0, 3.0, 1.5)
        stats = LogStats.from_cumulants(dist.log_cumulants_analytic(spec, 2))
        fit = fit_molc("wnak", stats, FitOptions(c_known=2.0))
        assert fit.spec.alpha == pytest.approx(3.0, rel=1e-8)
        assert fit.spec.b == pytest.approx(1.5, rel=1e-8)

    def test_weibull_spec_example(self):
        # k2 = pi^2/24 inverts to b = 2
        stats = LogStats.from_cumulants([0.1, math.pi**2 / 24.0])
        fit = fit_molc("weibull", stats)
        assert fit.spec.b == pytest.approx(2.0, rel=1e-12)


class TestInfeasibleConditions:
    def test_k_at_rayleigh_boundary(self):
        stats = LogStats.from_cumulants([0.0, TRIGAMMA_1 / 4.0])
        with pytest.raises(NoSolutionError, match="Rayleigh"):
            fit_molc("k", stats)

    def test_negative_log_variance(self):
        stats = LogStats.from_cumulants([0.0, -0.5])
        for tag in ("gamma", "nakagami", "weibull", "k"):
            with pytest.raises(NoSolutionError):
                fit_molc(tag, stats)

    def test_ggamma_needs_negative_k3(self):
        stats = LogStats.from_cumulants([0.0, 1.0, 0.2])
        with pytest.raises(NoSolutionError):
            fit_molc("ggamma", stats)

    def test_ggamma_k3_beyond_symmetric_bound(self):
        # less negative than the symmetric extremum: infeasible
        x_sym = invert_polygamma(1, 0.5)
        k3 = 2.0 * polygamma(2, x_sym) * 0.5
        stats = LogStats.from_cumulants([0.0, 1.0, k3])
        with pytest.raises(NoSolutionError):
            fit_molc("ggamma", stats)

    def test_fisher_k3_outside_band(self):
        bound = abs(polygamma(2, invert_polygamma(1, 1.0)))
        stats = LogStats.from_cumulants([0.0, 1.0, -1.5 * bound])
        with pytest.raises(NoSolutionError):
            fit_molc("fisher", stats)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            fit_molc("cauchy", LogStats.from_cumulants([0.0, 1.0]))

    def test_insufficient_orders(self):
        with pytest.raises(ValueError, match="order"):
            fit_molc("ggamma", LogStats.from_cumulants([0.0, 1.0]))


class TestTextureLogCumulants:
    def test_noiseless_ggamma_extraction_is_exact(self):
        compound = dist.GammaGamma(4.0, 2.0, 1.5)
        speckle, texture = dist.components(compound)
        data = LogStats.from_cumulants(
            dist.log_cumulants_analytic(compound, 4))
        extracted = texture_log_cumulants(data, speckle)
        want = dist.log_cumulants_analytic(texture, 4)
        for a, b in zip(extracted.log_cumulants, want):
            assert a == pytest.approx(b, abs=1e-12)

    def test_speckle_equal_to_data_gives_zero(self):
        speckle = dist.GammaPower(4.0, 1.0)
        data = LogStats.from_cumulants(dist.log_cumulants_analytic(speckle, 4))
        extracted = texture_log_cumulants(data, speckle)
        assert max(abs(v) for v in extracted.log_cumulants) <= 1e-14

    def test_statistical_extraction_matches_polygamma(self):
        batch = sample(dist.GammaGamma(4.0, 2.0, 1.0), 10**6, 57)
        stats = empirical_log_stats(batch, 4)
        tex = texture_log_cumulants(stats, dist.GammaPower(4.0, 1.0))
        assert isinstance(tex, EmpiricalLogStats)
        assert abs(tex.log_cumulants[1] - polygamma(1, 2.0)) <= \
            3.0 * tex.std_errors[1]
        # psi'''(2) = psi'''(1) - 6 = pi^4/15 - 6
        want_k4 = math.pi**4 / 15.0 - 6.0
        assert polygamma(3, 2.0) == pytest.approx(want_k4, rel=1e-12)
        assert abs(tex.log_cumulants[3] - want_k4) <= 3.0 * tex.std_errors[3]

    def test_compound_speckle_rejected(self):
        data = LogStats.from_cumulants([0.0, 1.0])
        with pytest.raises(ValueError, match="simple family"):
            texture_log_cumulants(data, dist.GammaGamma(4.0, 2.0, 1.0))


class TestStatisticalRoundTrips:
    @pytest.mark.parametrize("tag,spec,n_max,limit", [
        ("gamma", dist.GammaPower(4.0, 1.0), 2, 0.05),
        ("weibull", dist.Weibull(1.0, 2.0), 2, 0.05),
        ("k", dist.KAmplitude(2.0, 1.0), 2, 0.05),
        ("ggamma", dist.GammaGamma(4.0, 2.0, 1.0), 4, 0.10),
        ("fisher", dist.Fisher(3.0, 4.0, 1.0), 4, 0.10),
        ("wnak", dist.WeibullNakagami(2.0, 2.0, 1.0), 4, 0.10),
    ])
    def test_million_sample_recovery(self, tag, spec, n_max, limit):
        stats = empirical_log_stats(sample(spec, 10**6, 1), n_max)
        fit = fit_molc(tag, stats)
        got = canonical_params(tag, fit.spec)
        want = canonical_params(tag, spec)
        assert np.max(np.abs(got - want) / np.abs(want)) <= limit
