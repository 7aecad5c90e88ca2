import math
import sys
import time
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clutterstats import distributions as dist
from clutterstats import estimation, specfun, verify
from clutterstats.estimation import (EmpiricalLogStats, EstimationError,
                                     NonFiniteSamplesError, NoSolutionError,
                                     OutOfRangeError,
                                     SolverNonConvergenceError,
                                     TooFewSamplesError, ZeroSamplesError,
                                     _entries, _invert_trigamma, _layout,
                                     _root, empirical_log_stats, fit_molc,
                                     known_speckle, texture_log_cumulants)
from clutterstats.mellin import LogStats, mellin_table, moments_to_cumulants
from clutterstats.sampling import sample
from clutterstats.specfun import MAX_ORDER, digamma, polygamma

TRIGAMMA_1 = polygamma(1, 1.0)


@pytest.fixture(scope="module")
def ggamma_draws():
    return sample(dist.GammaGamma(4.0, 2.0, 1.0), 10**5 + 7, 5).values


class TestEmpiricalLogStats:
    def test_all_ones_give_zero_stats(self):
        stats = empirical_log_stats(np.ones(100), 4)
        assert stats.log_moments == (0.0, 0.0, 0.0, 0.0)
        assert stats.log_cumulants == (0.0, 0.0, 0.0, 0.0)
        assert stats.n_samples == 100

    def test_exponential_draws_match_polygamma(self):
        batch = sample(dist.GammaPower(1.0, 1.0), 10**6, 31)
        stats = empirical_log_stats(batch.values, 2)
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

    def test_split_cumulants_match_one_call_per_split(self):
        # all the draws and the 10 splits run as one stacked call; the
        # per-split calls it replaced are the reference
        x = sample(dist.KAmplitude(2.0, 1.0), 10**4 + 7, 3).values
        stats = empirical_log_stats(x, MAX_ORDER)
        powers = np.stack([np.log(x) ** n for n in range(1, MAX_ORDER + 1)])
        chunk = x.size // 10
        split_k = np.array([moments_to_cumulants(
            powers[:, i * chunk:(i + 1) * chunk].mean(axis=1))
            for i in range(10)])
        moments = tuple(float(v) for v in powers.mean(axis=1))
        assert stats.log_moments == moments
        assert stats.log_cumulants == tuple(moments_to_cumulants(moments))
        assert stats.std_errors == tuple(
            float(v) for v in split_k.std(axis=0, ddof=1) / math.sqrt(10))

    @pytest.mark.parametrize("n", [30, 31, 10**5 + 7])
    @pytest.mark.parametrize("n_max", range(1, MAX_ORDER + 1))
    def test_one_power_buffer_matches_the_stacked_powers(self, ggamma_draws,
                                                         n, n_max):
        # ggamma logs are about 64 % negative, so orders past 2 take
        # numpy's slower pow path; the stacked formula is the reference
        x = ggamma_draws[:n]
        logs = np.log(x)
        powers = np.stack([logs ** k for k in range(1, n_max + 1)])
        chunk = n // 10
        means = np.stack([powers.mean(axis=1)]
                         + [powers[:, i * chunk:(i + 1) * chunk].mean(axis=1)
                            for i in range(10)])
        all_k = moments_to_cumulants(means)
        want = (means[0], all_k[0],
                all_k[1:].std(axis=0, ddof=1) / math.sqrt(10))
        stats = empirical_log_stats(x, n_max)
        got = (stats.log_moments, stats.log_cumulants, stats.std_errors)
        for g, w in zip(got, want):
            assert [v.hex() for v in g] == [float(v).hex() for v in w]

    def test_order_validation(self):
        # no silent truncation: 2.9 is not order 2 and True is not order 1
        for bad in (2.9, True, MAX_ORDER + 1):
            with pytest.raises(ValueError, match="unsupported order"):
                empirical_log_stats(np.ones(50), bad)


def invert_trigamma(target: float) -> float:
    """``_invert_trigamma`` on one target: the root as a float."""
    return float(_invert_trigamma(target)[0][0])


class TestInvertTrigamma:
    def test_trigamma_at_one(self):
        assert invert_trigamma(math.pi**2 / 6.0) == pytest.approx(
            1.0, rel=1e-9)

    def test_trigamma_at_two(self):
        assert invert_trigamma(math.pi**2 / 6.0 - 1.0) == pytest.approx(
            2.0, rel=1e-9)

    def test_negative_target_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            invert_trigamma(-1.0)

    def test_round_trip_grid(self):
        for x in np.logspace(math.log10(0.05), 2.0, 25):
            back = invert_trigamma(polygamma(1, x))
            assert back == pytest.approx(x, rel=1e-9), x

    @pytest.mark.parametrize("target, root", [
        (1e-300, 1e300),               # a root near the largest double
        (1e308, 1e-154),               # a target near the largest double
    ])
    def test_roots_near_the_ends_of_the_doubles(self, target, root):
        x = invert_trigamma(target)
        assert x == pytest.approx(root, rel=1e-7)
        assert abs(polygamma(1, x) - target) <= 1e-12 * target

    def test_root_past_the_largest_double_is_out_of_range(self):
        # psi'(x) ~ 1/x, so the root of psi'(x) = 1e-310 is about 1e310
        with pytest.raises(OutOfRangeError, match="outside the double range"):
            invert_trigamma(1e-310)

    def test_the_root_is_in_the_bracket(self):
        # max(1/x, 1/x^2) <= psi'(x) <= 1/x + 1/x^2 puts the root of
        # psi'(x) = y in [r, 2r] for r = max(1/y, 1/sqrt(y))
        y = np.logspace(-300.0, 300.0, 2001)
        x, _ = _invert_trigamma(y)
        r = np.maximum(1.0 / y, 1.0 / np.sqrt(y))
        assert np.all(r * (1.0 - 1e-12) <= x)
        assert np.all(x <= 2.0 * r * (1.0 + 1e-12))

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(log10_x=st.floats(-300.0, 300.0))
    def test_round_trip_over_the_doubles(self, log10_x):
        x = 10.0 ** log10_x
        target = polygamma(1, x)
        if target == 0.0 or math.isinf(target):
            with pytest.raises(OutOfRangeError):
                invert_trigamma(target)
            return
        back = invert_trigamma(target)
        if target >= sys.float_info.min:
            assert back == pytest.approx(x, rel=1e-9)
        else:                          # a subnormal target has few digits
            assert abs(polygamma(1, back) - target) <= 1e-10 * target


class TestRoot:
    """The one bracketed root finder of the trigamma inversion and of the
    two-shape scan."""

    def never(self, x):
        raise AssertionError(f"evaluated at {x}")

    def root(self, f, lo, hi, f_lo, f_hi, tol):
        """``_root`` on one bracket with f on floats: the root and the
        evaluations as a float and an int."""
        roots, steps = _root(lambda x, lanes: np.array([f(float(x[0]))]),
                             *(np.array([v]) for v in (lo, hi, f_lo, f_hi)),
                             tol)
        return float(roots[0]), int(steps[0])

    def test_an_end_at_zero_is_the_root(self):
        assert self.root(self.never, 0.5, 2.0, 0.0, -1.0, 0.0) == (0.5, 0)
        assert self.root(self.never, 0.5, 2.0, 3.0, 0.0, 0.0) == (2.0, 0)

    def test_smooth_root(self):
        root, steps = self.root(lambda x: x * x - 2.0, 0.0, 2.0, -2.0, 2.0,
                                1e-15)
        assert root == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert steps <= 12

    def test_infinite_end(self):
        f = lambda u: math.inf if u < -1.0 else -u
        root, _ = self.root(f, -5.0, 5.0, math.inf, -5.0, 1e-14)
        assert abs(root) <= 1e-14

    def test_jump_ends_once_the_bracket_collapses(self):
        # no x has |f| <= tol: the bracket closes on the jump at 0.3
        step = lambda x: 1.0 if x < 0.3 else -1.0
        root, _ = self.root(step, 0.0, 1.0, 1.0, -1.0, 0.0)
        assert root == pytest.approx(0.3, rel=1e-14)

    def test_the_step_cap_ends_a_bracket_that_cannot_close(self):
        # f is nan inside: every step bisects towards the end at 0, and
        # [0, 1e300] would need about 1000 halvings to close
        with pytest.raises(SolverNonConvergenceError):
            self.root(lambda x: math.nan, 0.0, 1e300, 1.0, -1.0, 0.0)


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
        # a known c is a known Weibull(1, c) speckle: its log-cumulants
        # come off, and the Nakagami texture has L = alpha, L / mu^2 = b
        spec = dist.WeibullNakagami(2.0, 3.0, 1.5)
        stats = LogStats.from_cumulants(dist.log_cumulants_analytic(spec, 2))
        texture = texture_log_cumulants(stats, dist.Weibull(1.0, 2.0))
        fit = fit_molc("nakagami", texture)
        assert fit.spec.L == pytest.approx(3.0, rel=1e-8)
        assert fit.spec.L / fit.spec.mu ** 2 == pytest.approx(1.5, rel=1e-8)

    def test_weibull_spec_example(self):
        # k2 = pi^2/24 inverts to b = 2
        stats = LogStats.from_cumulants([0.1, math.pi**2 / 24.0])
        fit = fit_molc("weibull", stats)
        assert fit.spec.b == pytest.approx(2.0, rel=1e-12)


class TestScanCost:
    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("tag, spec", [
        ("wnak", dist.WeibullNakagami(1.5, 2.0, 1.0)),
        ("fisher", dist.Fisher(3.0, 4.0, 1.0)),
    ])
    def test_two_shape_fit_makes_few_polygamma_calls(self, monkeypatch, tag,
                                                     spec, order):
        # the k_2 curve's 601 points go through polygamma as arrays; one
        # call per point made thousands of calls a fit
        stats = LogStats.from_cumulants(
            dist.log_cumulants_analytic(spec, order))
        calls = []
        for module in (estimation, specfun):
            def counted(m, x, original=module.polygamma):
                calls.append(m)
                return original(m, x)
            monkeypatch.setattr(module, "polygamma", counted)
        fit = fit_molc(tag, stats)
        assert fit.converged and fit.iterations > 601
        assert len(calls) <= 100


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


SHAPE, SCALE = log_uniform(0.05, 200.0), log_uniform(1e-3, 1e3)
SPEC_BOX = {
    "gamma": st.builds(dist.GammaPower, SHAPE, SCALE),
    "nakagami": st.builds(dist.Nakagami, SHAPE, SCALE),
    "maxwell": st.builds(dist.Maxwell, SCALE),
    "weibull": st.builds(dist.Weibull, SCALE, SHAPE),
    "rayleigh": st.builds(dist.Rayleigh, SCALE),
    "ggamma": st.builds(dist.GammaGamma, SHAPE, SHAPE, SCALE),
    "k": st.builds(dist.KAmplitude, SHAPE, SCALE),
    "wnak": st.builds(dist.WeibullNakagami, log_uniform(0.1, 30.0), SHAPE,
                      SCALE),
    "fisher": st.builds(dist.Fisher, SHAPE, SHAPE, SCALE),
}
SPECS = st.one_of(*SPEC_BOX.values())


class TestFormLayout:
    def test_box_covers_every_family(self):
        assert set(SPEC_BOX) == set(dist.FAMILY_TAGS)

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(spec=SPECS)
    def test_probed_monomials_reproduce_the_form(self, spec):
        # every form entry is a monomial in the fields: the exponents read
        # off the probes at 1 and 2 must give the form at any fields
        layout = _layout(type(spec))
        values = np.array([getattr(spec, n) for n in layout.names])
        got = np.array(layout.ref) * np.prod(values ** layout.powers, axis=1)
        want = _entries(dist._mellin_form(spec))
        assert got == pytest.approx(want, rel=1e-12)

    def test_known_speckle(self):
        # the fields that enter only the scale are 1 unless given
        assert known_speckle("gamma", {"L": 4.0}) == dist.GammaPower(4.0, 1.0)
        assert known_speckle("gamma", {"L": 4.0, "mu": 2.0}) \
            == dist.GammaPower(4.0, 2.0)
        assert known_speckle("nakagami", {"L": 2.0}) == dist.Nakagami(2.0, 1.0)
        assert known_speckle("weibull", {"b": 2.0}) == dist.Weibull(1.0, 2.0)
        assert known_speckle("rayleigh", {}) == dist.Rayleigh(1.0)
        assert known_speckle("maxwell", {}) == dist.Maxwell(1.0)
        # a compound family is refused before its fields are asked for
        with pytest.raises(ValueError,
                           match="^speckle must be a simple family, got k$"):
            known_speckle("k", {})

    @pytest.mark.parametrize("spec", [
        spec for specs in verify.PARAM_GRID.values() for spec in specs
        if dist.components(spec) is not None], ids=repr)
    def test_known_speckle_is_the_speckle_of_components(self, spec):
        # --speckle and components share one unit-scale convention: the
        # speckle's shape fields alone give the speckle components builds
        speckle = dist.components(spec)[0]
        shapes = {"gamma": ["L"], "rayleigh": [], "weibull": ["b"]}
        tag = dist.family_tag(speckle)
        given = {name: getattr(speckle, name) for name in shapes[tag]}
        assert known_speckle(tag, given) == speckle


class TestNoiselessRoundTripProperty:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(spec=SPECS)
    @example(spec=dist.Fisher(144.16900544972452, 0.05351329171480351,
                              0.08971882502112954))
    @example(spec=dist.GammaGamma(78.83441545440931, 0.08032018192328283,
                                  42.76045557872201))
    # two wnak roots within one grid cell of the k_2 curve
    @example(spec=dist.WeibullNakagami(2.1479633003997756, 1.2782849383492045,
                                       0.05225735631042213))
    def test_every_family_recovers_its_fields(self, spec):
        tag = dist.family_tag(spec)
        stats = LogStats.from_cumulants(dist.log_cumulants_analytic(spec, 4))
        fit = fit_molc(tag, stats)
        assert fit.converged
        got = canonical_params(tag, fit.spec)
        want = canonical_params(tag, spec)
        assert np.max(np.abs(got - want) / want) <= 1e-6, fit


class TestOracleTailBound:
    """The quadrature oracle over the same box: past +-200 in t the
    integral is dropped, and the table's bound counts what it drops."""

    @settings(deadline=None, derandomize=True, database=None)
    @given(spec=SPECS)
    # a shape of 0.05 decays like e^(0.05 t) on the left, past t = -200;
    # the Fisher integrand at s = 1.5 like e^(-0.01 t) on the right
    @example(spec=dist.GammaPower(0.05, 1.0))
    @example(spec=dist.Fisher(2.0, 0.51, 1.0))
    @example(spec=dist.Weibull(1.0, 0.05))
    @example(spec=dist.GammaGamma(0.05, 3.0, 1.0))
    def test_a_bound_within_the_gate_holds(self, spec):
        lo, hi = dist.strip(spec)
        grid = [s for s in verify.GRID_S if lo < s < hi]
        table = mellin_table(lambda x: dist.pdf(spec, x), grid)
        for s in grid:
            value, bound = table.at(s)
            analytic = dist.chf2_analytic(spec, s)
            err = abs(value - analytic) / analytic
            relative = bound / abs(value) if value else math.inf
            assert relative > verify.AGREEMENT_GATE \
                or err <= verify.AGREEMENT_GATE, (s, err, relative)


class TestIdentifiability:
    def test_wnak_roots_surface_as_alternatives(self):
        spec = dist.WeibullNakagami(1.5, 2.0, 1.0)
        k = dist.log_cumulants_analytic(spec, 4)
        fit3 = fit_molc("wnak", LogStats.from_cumulants(k[:3]))
        assert len(fit3.alternatives) == 1
        other = fit3.alternatives[0]
        assert other.c == pytest.approx(2.3008040904, rel=1e-8)
        assert dist.log_cumulants_analytic(other, 3) == pytest.approx(
            k[:3], rel=1e-10)
        fit4 = fit_molc("wnak", LogStats.from_cumulants(k))
        assert np.array(astuple(fit4.spec)) == pytest.approx(
            astuple(spec), rel=1e-10)
        assert len(fit4.alternatives) == 1

    def test_single_root_families_have_none(self):
        for tag, spec in (("fisher", dist.Fisher(3.0, 4.0, 1.0)),
                          ("ggamma", dist.GammaGamma(4.0, 2.0, 1.0)),
                          ("k", dist.KAmplitude(2.0, 1.0))):
            stats = LogStats.from_cumulants(
                dist.log_cumulants_analytic(spec, 4))
            assert fit_molc(tag, stats).alternatives == ()

    @pytest.mark.parametrize("tag, k, field", [
        # the shape is about 1e-150, so the log scale is about 1e150
        ("gamma", [0.0, 1e300], "GammaPower.mu"),
        # the fitted log rate is about -2e5
        ("k", [0.0, 1e10], "KAmplitude.b"),
    ])
    def test_field_outside_the_doubles_is_out_of_range(self, tag, k, field):
        with pytest.raises(OutOfRangeError,
                           match=rf"{field} .* outside the double range"):
            fit_molc(tag, LogStats.from_cumulants(k))

    def test_fitted_law_past_the_doubles_is_out_of_range(self, monkeypatch):
        # log_cumulants_analytic raises OverflowError for a fitted law whose
        # k_n leaves the doubles; no catalog fit is known to get there, so
        # a stand-in raises it
        def past_the_doubles(spec, n_max):
            raise OverflowError(f"log_cumulants_analytic: k_2 of {spec!r} "
                                "is outside the double range")
        monkeypatch.setattr(dist, "log_cumulants_analytic", past_the_doubles)
        with pytest.raises(OutOfRangeError,
                           match=r"^gamma fit: .* k_2 of GammaPower"):
            fit_molc("gamma", LogStats.from_cumulants([0.0, 1.0]))

    def test_fitted_form_scale_past_the_doubles_is_out_of_range(self):
        # every field is finite, but the canonical scale 1 / (L M) of the
        # fitted law (L about 1e200, M about 1e209) rounds to 0
        stats = LogStats.from_cumulants([0.0, 1e-200, 0.0])
        with pytest.raises(OutOfRangeError,
                           match=r"ggamma fit: .* canonical scale 0"):
            fit_molc("ggamma", stats)

    @pytest.mark.parametrize("tag", ["ggamma", "fisher"])
    def test_scan_entry_past_the_doubles_is_out_of_range(self, tag):
        # a shape lim / tau of the k_2 curve rounds to inf (once polygamma's
        # plain ValueError), and the curve's finite points need a second
        # shape past the doubles
        stats = LogStats.from_cumulants([0.0, 1e-300, 0.0])
        with pytest.raises(OutOfRangeError, match="outside the double range"):
            fit_molc(tag, stats)

    @pytest.mark.parametrize("tag, k2", [("fisher", 1e-170),
                                         ("wnak", 1e-250),
                                         ("ggamma", 1e-160)])
    def test_no_roots_in_rounding_noise(self, tag, k2):
        # the k_3 terms are subnormal on the whole k_2 curve, and every
        # sign change of their rounding noise once counted as a root
        # (fisher: 599 alternatives after several seconds), as did every
        # dip of it (ggamma: 5 alternatives)
        stats = LogStats.from_cumulants([0.0, k2, 0.0])
        start = time.perf_counter()
        try:
            fit = fit_molc(tag, stats)
        except EstimationError:
            pass
        else:
            assert fit.alternatives == ()
        assert time.perf_counter() - start < 1.0


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
        x_sym = invert_trigamma(0.5)
        k3 = 2.0 * polygamma(2, x_sym) * 0.5
        stats = LogStats.from_cumulants([0.0, 1.0, k3])
        with pytest.raises(NoSolutionError):
            fit_molc("ggamma", stats)

    def test_fisher_k3_outside_band(self):
        bound = abs(polygamma(2, invert_trigamma(1.0)))
        stats = LogStats.from_cumulants([0.0, 1.0, -1.5 * bound])
        with pytest.raises(NoSolutionError):
            fit_molc("fisher", stats)

    def test_two_shape_scan_past_the_doubles_has_no_solution(self):
        # a k_3 term overflows on the k_2 curve: numpy's overflow warning
        # (an error under -W error) became NoSolutionError
        stats = LogStats.from_cumulants([0.0, 1e210, 1e300])
        with pytest.raises(NoSolutionError, match="no wnak law"):
            fit_molc("wnak", stats)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tag, k, error", [
        ("nakagami", [0.0, sys.float_info.max / 2], OutOfRangeError),
        ("k", [0.0, sys.float_info.max / 2], OutOfRangeError),
        ("wnak", [0.0, sys.float_info.max / 2, 0.0], OutOfRangeError),
        ("fisher", [0.0, 1e300, sys.float_info.max], NoSolutionError),
    ])
    def test_cumulants_near_the_doubles_raise_without_a_warning(self, tag, k,
                                                                 error):
        # k_2 / c^2 overflows, and fisher's k_3 terms of inf and -inf sum
        # to nan: numpy must not warn on the way to the typed error
        with pytest.raises(error):
            fit_molc(tag, LogStats.from_cumulants(k))

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
        stats = empirical_log_stats(batch.values, 4)
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

    def test_compound_speckle_message(self):
        data = LogStats.from_cumulants([0.0, 1.0])
        with pytest.raises(ValueError) as info:
            texture_log_cumulants(data, dist.Fisher(3.0, 4.0, 1.0))
        assert str(info.value) == "speckle must be a simple family, got fisher"


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
        stats = empirical_log_stats(sample(spec, 10**6, 1).values, n_max)
        fit = fit_molc(tag, stats)
        got = canonical_params(tag, fit.spec)
        want = canonical_params(tag, spec)
        assert np.max(np.abs(got - want) / np.abs(want)) <= limit
