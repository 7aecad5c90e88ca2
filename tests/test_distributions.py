import math
import re
import sys

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clutterstats import _quad, verify
from clutterstats import distributions as dist
from clutterstats._quad import adaptive_quad, log_latent_integral
from clutterstats.distributions import (Fisher, GammaGamma, GammaPower,
                                        InverseGamma, KAmplitude, Maxwell,
                                        MomentDoesNotExistError, Nakagami,
                                        Rayleigh, StripError, Weibull,
                                        WeibullNakagami)
from clutterstats.sampling import sample
from clutterstats.specfun import MAX_ORDER, digamma, polygamma

GOLDEN = json.loads((Path(__file__).parent / "golden" /
                     "specfun_golden.json").read_text())

# parameter kinds per family: shapes are drawn from [0.05, 100] and
# scales (rates for k and wnak) from [1e-6, 1e6]
FAMILY_FIELDS = {
    "gamma": (GammaPower, ("shape", "scale")),
    "nakagami": (Nakagami, ("shape", "scale")),
    "maxwell": (Maxwell, ("scale",)),
    "weibull": (Weibull, ("scale", "shape")),
    "rayleigh": (Rayleigh, ("scale",)),
    "ggamma": (GammaGamma, ("shape", "shape", "scale")),
    "k": (KAmplitude, ("shape", "scale")),
    "wnak": (WeibullNakagami, ("shape", "shape", "scale")),
    "fisher": (Fisher, ("shape", "shape", "scale")),
    "invgamma": (InverseGamma, ("shape", "scale")),
}


COMPOUND_FAMILIES = sorted(
    family for family, (cls, kinds) in FAMILY_FIELDS.items()
    if dist.components(cls(*[2.0] * len(kinds))) is not None)


def box_spec(family, shapes, log10_scale):
    """A ``family`` spec whose shape fields take ``shapes`` in turn and
    whose scale field is 10^log10_scale."""
    cls, kinds = FAMILY_FIELDS[family]
    shape_iter = iter(shapes)
    return cls(*(next(shape_iter) if kind == "shape" else 10.0 ** log10_scale
                 for kind in kinds))


ALL_SPECS = [
    GammaPower(4.0, 1.0), GammaPower(0.3, 2.0), GammaPower(1.0, 1.0),
    Nakagami(1.0, 1.0), Nakagami(5.5, 2.0),
    Maxwell(1.0), Maxwell(0.4),
    Weibull(1.0, 2.0), Weibull(2.0, 0.8),
    Rayleigh(1.0), Rayleigh(3.0),
    GammaGamma(4.0, 2.0, 1.0), GammaGamma(1.5, 1.5, 2.0),
    KAmplitude(2.0, 1.0), KAmplitude(0.6, 3.0),
    WeibullNakagami(2.0, 2.0, 1.0), WeibullNakagami(1.2, 0.9, 2.0),
    Fisher(3.0, 4.0, 1.0), Fisher(1.0, 2.5, 2.0),
    InverseGamma(3.0, 2.0),
]

SMOOTH_SHAPE_SPECS = [
    GammaPower(4.0, 1.0), GammaPower(1.0, 2.5), Nakagami(1.0, 1.0),
    Nakagami(5.5, 2.0), Maxwell(1.0), Weibull(1.0, 2.0), Weibull(1.5, 1.0),
    Rayleigh(2.0), GammaGamma(4.0, 2.0, 1.0), GammaGamma(1.0, 6.0, 2.0),
    KAmplitude(2.0, 1.0), KAmplitude(1.0, 0.5),
    WeibullNakagami(2.0, 2.0, 1.0), WeibullNakagami(1.0, 3.0, 0.7),
    Fisher(3.0, 4.0, 1.0), Fisher(1.0, 3.0, 1.0), InverseGamma(2.0, 3.0),
]


class TestSpecValidation:
    def test_positive_finite_required(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                GammaPower(bad, 1.0)
            with pytest.raises(ValueError):
                Weibull(1.0, bad)

    def test_make_spec(self):
        spec = dist.make_spec("ggamma", {"L": 4.0, "M": 2.0, "mu": 1.0})
        assert spec == GammaGamma(4.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="unknown family"):
            dist.make_spec("nope", {})
        with pytest.raises(ValueError, match="missing parameter"):
            dist.make_spec("gamma", {"L": 1.0})
        with pytest.raises(ValueError, match="unknown parameter"):
            dist.make_spec("gamma", {"L": 1.0, "mu": 1.0, "q": 2.0})

    def test_family_tag_of_every_spec_class(self):
        specs = {"gamma": GammaPower(1.0, 1.0), "nakagami": Nakagami(1.0, 1.0),
                 "maxwell": Maxwell(1.0), "weibull": Weibull(1.0, 1.0),
                 "rayleigh": Rayleigh(1.0), "ggamma": GammaGamma(1.0, 1.0, 1.0),
                 "k": KAmplitude(1.0, 1.0),
                 "wnak": WeibullNakagami(1.0, 1.0, 1.0),
                 "fisher": Fisher(1.0, 3.0, 1.0),
                 "invgamma": InverseGamma(1.0, 1.0)}
        assert {tag: dist.family_tag(spec)
                for tag, spec in specs.items()} == {t: t for t in specs}
        for not_a_spec in (None, 1.0, (1.0, 1.0), GammaPower):
            with pytest.raises(TypeError, match="not a distribution spec"):
                dist.family_tag(not_a_spec)

    @pytest.mark.parametrize("call", [
        lambda: sample("x", 10, 1), lambda: dist.pdf("x", 1.0),
        lambda: dist.check_simple("x", "speckle"),
        lambda: dist.components("x")],
        ids=["sample", "pdf", "check_simple", "components"])
    def test_every_entry_point_names_a_non_spec_alike(self, call):
        with pytest.raises(TypeError,
                           match=r"^not a distribution spec: 'x'$"):
            call()

    def test_canonical_scale_outside_double_range(self):
        # mu / L underflows to 0 and sqrt(2) sigma overflows: each spec is
        # refused where it is made, its message naming its family
        for tag, cls, args in (("gamma", GammaPower, (1e300, 1e-300)),
                               ("maxwell", Maxwell, (1.7e308,)),
                               ("ggamma", GammaGamma, (1e300, 1.0, 1e-300))):
            with pytest.raises(ValueError, match=rf"^{tag}: canonical scale "
                               r".* is outside the double range$"):
                cls(*args)

    @pytest.mark.parametrize("cls, args, message", [
        # a Weibull shape below about 5.6e-309 has c = 1/b = inf
        (Weibull, (1.0, 1e-309), "weibull: canonical exponent inf of "
         "Weibull(z=1.0, b=1e-309) is outside the double range"),
        (WeibullNakagami, (1e-309, 2.0, 1.0), "wnak: a component of "
         "WeibullNakagami(c=1e-309, alpha=2.0, b=1.0) is outside the double "
         "range: weibull: canonical exponent inf of Weibull(z=1.0, "
         "b=1e-309) is outside the double range"),
    ], ids=["weibull", "wnak"])
    def test_canonical_exponent_outside_double_range(self, cls, args,
                                                     message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(*args)

    @pytest.mark.parametrize("tag, params, message", [
        # sqrt(alpha / b) underflows to 0 and overflows to inf
        ("k", {"alpha": 1e-300, "b": 1e300}, "k: a component of "
         "KAmplitude(alpha=1e-300, b=1e+300) is outside the double range: "
         "Nakagami.mu must be a positive finite number, got 0.0"),
        ("k", {"alpha": 1e300, "b": 1e-300}, "k: a component of "
         "KAmplitude(alpha=1e+300, b=1e-300) is outside the double range: "
         "Nakagami.mu must be a positive finite number, got inf"),
        # the texture GammaPower(M, mu) has the scale mu / M = inf
        ("ggamma", {"L": 2.0, "M": 1e-300, "mu": 1e300}, "ggamma: a "
         "component of GammaGamma(L=2.0, M=1e-300, mu=1e+300) is outside "
         "the double range: gamma: canonical scale inf of GammaPower("
         "L=1e-300, mu=1e+300) is outside the double range"),
        # the texture's scale M mu overflows
        ("fisher", {"L": 1.0, "M": 1e300, "mu": 1e300}, "fisher: a "
         "component of Fisher(L=1.0, M=1e+300, mu=1e+300) is outside the "
         "double range: InverseGamma.scale must be a positive finite "
         "number, got inf"),
    ], ids=["k-under", "k-over", "ggamma", "fisher"])
    def test_a_component_past_the_doubles_names_the_spec(self, tag, params,
                                                         message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dist.make_spec(tag, params)


@pytest.fixture
def mixture_quad(monkeypatch):
    """The engine's settings for the two mixture-integral references."""
    monkeypatch.setattr(_quad, "REL_TOL", 1e-10)
    monkeypatch.setattr(_quad, "ABS_TOL", 1e-306)
    monkeypatch.setattr(_quad, "MAX_PANELS", 1000)


class TestPdf:
    def test_exponential_at_origin(self):
        assert dist.pdf(GammaPower(1.0, 2.0), 0.0) == 0.5

    def test_rayleigh_value(self):
        assert dist.pdf(Rayleigh(1.0), 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-12)

    def test_k_amplitude_closed_form(self):
        # 4 K_1(2) for alpha=2, b=1 at x=1; the reference is mpmath's
        assert dist.pdf(KAmplitude(2.0, 1.0), 1.0) == pytest.approx(
            0.55946352726608970914, rel=1e-12)

    @pytest.mark.usefixtures("mixture_quad")
    def test_k_amplitude_mixture_integral(self):
        # Rayleigh-with-gamma-mean-square mixture, integrated over log z
        alpha, b = 2.0, 1.0
        for r in (0.3, 1.0, 2.5):
            def integrand(u):
                z = np.exp(u)
                return (2.0 * r / z) * np.exp(-r * r / z) \
                    * b**alpha * z**alpha * np.exp(-b * z) / math.gamma(alpha)
            # z-integral of the conditional Rayleigh against the gamma texture
            (oracle,), _ = adaptive_quad(lambda u: integrand(u)[None, :],
                                         np.linspace(-40.0, 40.0, 81))
            assert dist.pdf(KAmplitude(alpha, b), r) == pytest.approx(
                oracle, rel=1e-8)

    @pytest.mark.usefixtures("mixture_quad")
    def test_wn_pdf_vs_direct_integral(self):
        c, alpha, b = 2.0, 2.0, 1.0
        spec = WeibullNakagami(c, alpha, b)
        for r in (0.4, 1.0, 2.0):
            def integrand(u):
                z = np.exp(u)
                return (2.0 * c * b**alpha / math.gamma(alpha) * r**(c - 1)
                        * z**(2 * alpha - c) * np.exp(-(r / z)**c - b * z * z)
                        / z) * z    # measure dz = z du
            (oracle,), _ = adaptive_quad(lambda u: integrand(u)[None, :],
                                         np.linspace(-40.0, 40.0, 81))
            assert dist.pdf(spec, r) == pytest.approx(oracle, rel=1e-7)

    def test_wn_pdf_golden_table(self):
        for c, alpha, b, r, ref in GOLDEN["wnak_pdf"]:
            got = dist.pdf(WeibullNakagami(c, alpha, b), r)
            assert abs(got - ref) <= 1e-12 * ref, (c, alpha, b, r)

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(alpha=st.floats(0.2, 20.0), log10_b=st.floats(-2.0, 2.0),
           log10_q=st.floats(-3.0, 1.0))
    def test_wn_at_c_two_is_k(self, alpha, log10_b, log10_q):
        # wnak at c = 2 has the K form: both densities are the same latent
        # integral at q = 1
        b = 10.0 ** log10_b
        r = 10.0 ** log10_q * math.sqrt(alpha / b)
        k = dist.pdf(KAmplitude(alpha, b), r)
        assert dist.pdf(WeibullNakagami(2.0, alpha, b), r) == k

    def test_k_pdf_golden_table(self):
        # mpmath's Bessel-K law over the box of test_wn_at_c_two_is_k
        for alpha, b, r, ref in GOLDEN["k_pdf"]:
            got = dist.pdf(KAmplitude(alpha, b), r)
            assert abs(got - ref) <= 1e-12 * ref, (alpha, b, r)

    @pytest.mark.parametrize("q", [0.5, 1.0, 10.0])
    def test_latent_integral_far_left(self, q):
        # slope k = 0: p(w) = -exp(T - q w) - exp(w) is flat between walls at
        # w = T/q and w = 0, and its integral is -T/q - gamma (1 + 1/q) up
        # to terms of order e^(T min(1, 1/q)).  At T = -2000 both
        # exponentials at the peak lie below e^-700.
        big_t = -2000.0
        value = log_latent_integral(1.0, 1.0, q, q, np.array([big_t]))
        euler = 0.5772156649015329
        want = math.log(-big_t / q - euler * (1.0 + 1.0 / q))
        assert value[0] - big_t == pytest.approx(want, rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(c=st.floats(0.05, 50.0), alpha=st.floats(0.05, 100.0),
           log10_b=st.floats(-6.0, 6.0), log10_x=st.floats(-300.0, 300.0))
    def test_latent_densities_finite_over_box(self, c, alpha, log10_b,
                                              log10_x):
        b, x = 10.0 ** log10_b, 10.0 ** log10_x
        for spec in (WeibullNakagami(c, alpha, b), KAmplitude(alpha, b)):
            value = dist.pdf(spec, x)
            assert math.isfinite(value) and value >= 0.0, spec

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(family=st.sampled_from(sorted(FAMILY_FIELDS, key=str)),
           shapes=st.lists(st.floats(0.05, 100.0), min_size=3, max_size=3),
           log10_scale=st.floats(-6.0, 6.0),
           log10_x=st.one_of(st.none(), st.floats(-323.3, 308.23)))
    @example(family="k", shapes=[2.0] * 3, log10_scale=6.0,
             log10_x=-323.3)
    @example(family="k", shapes=[2.0] * 3, log10_scale=6.0,
             log10_x=308.23)
    @example(family="k", shapes=[1.01] * 3, log10_scale=-6.0,
             log10_x=-323.3)
    @example(family="wnak", shapes=[1.0, 0.5, 1.0], log10_scale=-6.0,
             log10_x=-323.3)
    @example(family="wnak", shapes=[0.05, 100.0, 1.0], log10_scale=6.0,
             log10_x=308.23)
    def test_every_family_finite_over_box(self, family, shapes, log10_scale,
                                          log10_x):
        cls, kinds = FAMILY_FIELDS[family]
        shape_iter = iter(shapes)
        spec = cls(*(next(shape_iter) if kind == "shape"
                     else 10.0 ** log10_scale for kind in kinds))
        x = 0.0 if log10_x is None else 10.0 ** log10_x
        value = dist.pdf(spec, x)
        assert not math.isnan(value) and value >= 0.0, (spec, x)

    @pytest.mark.parametrize("spec, log_reference", [
        (GammaPower(0.3, 2.0), lambda x: (
            0.3 * math.log(0.15) - math.lgamma(0.3) - 0.7 * math.log(x)
            - 0.15 * x)),
        (GammaPower(4.0, 1.0), lambda x: (
            4.0 * math.log(4.0) - math.lgamma(4.0) + 3.0 * math.log(x)
            - 4.0 * x)),
        (Nakagami(5.5, 2.0), lambda x: (
            math.log(2.0) + 5.5 * math.log(5.5 / 4.0) - math.lgamma(5.5)
            + 10.0 * math.log(x) - 5.5 * x * x / 4.0)),
        (Maxwell(0.4), lambda x: (
            0.5 * math.log(2.0 / math.pi) - 3.0 * math.log(0.4)
            + 2.0 * math.log(x) - x * x / (2.0 * 0.16))),
        (Weibull(2.0, 0.8), lambda x: (
            math.log(0.4) - 0.2 * math.log(x / 2.0) - (x / 2.0) ** 0.8)),
        (Rayleigh(3.0), lambda x: (
            math.log(2.0 * x / 9.0) - x * x / 9.0)),
        (InverseGamma(3.0, 2.0), lambda x: (
            3.0 * math.log(2.0) - math.lgamma(3.0) - 4.0 * math.log(x)
            - 2.0 / x)),
        (Fisher(3.0, 4.0, 1.0), lambda x: (
            math.lgamma(7.0) - math.lgamma(3.0) - math.lgamma(4.0)
            + math.log(0.75) + 2.0 * math.log(0.75 * x)
            - 7.0 * math.log1p(0.75 * x))),
    ])
    def test_textbook_densities(self, spec, log_reference):
        for x in np.logspace(-3.0, 3.0, 61):
            log_want = log_reference(float(x))
            if log_want < -700.0:
                continue
            assert dist.pdf(spec, x) == pytest.approx(math.exp(log_want),
                                                      rel=1e-12), (spec, x)

    def test_fisher_at_smallest_subnormal(self):
        # lam = L x / (M mu) underflows; the density itself is ~1.7e161
        x = 5e-324
        log_want = (math.lgamma(2.5) - math.lgamma(0.5) - math.lgamma(2.0)
                    + 0.5 * math.log(0.25) - 0.5 * math.log(x))
        assert dist.pdf(Fisher(0.5, 2.0, 1.0), x) == pytest.approx(
            math.exp(log_want), rel=1e-12)

    def test_zero_limits(self):
        assert dist.pdf(Weibull(2.0, 1.0), 0.0) == 0.5
        assert dist.pdf(Weibull(1.0, 0.5), 0.0) == math.inf
        assert dist.pdf(KAmplitude(0.5, 4.0), 0.0) == pytest.approx(4.0)
        assert dist.pdf(Maxwell(1.0), 0.0) == 0.0
        assert dist.pdf(Fisher(1.0, 3.0, 2.0), 0.0) == 0.5
        # GammaGamma limit at the L=1 boundary agrees with nearby evaluation
        spec = GammaGamma(1.0, 2.0, 2.0)
        limit = dist.pdf(spec, 0.0)
        assert limit == pytest.approx(1.0)
        assert dist.pdf(spec, 1e-9) == pytest.approx(limit, rel=1e-3)
        # boundary shapes where the rightmost pole of Phi sits at s = 0
        assert dist.pdf(GammaGamma(1.0, 1.0, 2.0), 0.0) == math.inf
        boundary = [
            (GammaGamma(1.0, 2.0, 3.0), 2.0 / 3.0),
            (KAmplitude(0.5, 1.0), 2.0),
            (WeibullNakagami(1.0, 2.5, 3.0),
             math.sqrt(3.0) * math.gamma(2.0) / math.gamma(2.5)),
            (Fisher(1.0, 2.0, 4.0), 0.25),
            (Nakagami(0.5, 2.0), math.sqrt(2.0 / math.pi) / 2.0),
        ]
        for spec, want in boundary:
            limit = dist.pdf(spec, 0.0)
            assert limit == pytest.approx(want, rel=1e-12), spec
            assert dist.pdf(spec, 1e-9) == pytest.approx(limit, rel=1e-3), spec

    def test_array_and_scalar_agree(self):
        xs = np.array([0.0, 0.5, 1.0, 3.0])
        for spec in (GammaPower(4.0, 1.0), KAmplitude(2.0, 1.0)):
            arr = dist.pdf(spec, xs)
            assert arr.shape == xs.shape
            for x, v in zip(xs, arr):
                assert dist.pdf(spec, float(x)) == pytest.approx(v, rel=1e-12,
                                                                 abs=1e-300)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dist.pdf(GammaPower(1.0, 1.0), -0.1)


class TestChf2:
    def test_normalized_at_one_exactly(self):
        for spec in ALL_SPECS:
            assert dist.chf2_analytic(spec, 1.0) == 1.0
            assert dist.log_chf2_analytic(spec, 1.0) == 0.0

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(family=st.sampled_from(sorted(FAMILY_FIELDS, key=str)),
           shapes=st.lists(st.floats(0.05, 100.0), min_size=3, max_size=3),
           log10_scale=st.floats(-6.0, 6.0))
    def test_normalized_at_one_over_box(self, family, shapes, log10_scale):
        spec = box_spec(family, shapes, log10_scale)
        assert dist.chf2_analytic(spec, 1.0) == 1.0
        assert dist.log_chf2_analytic(spec, 1.0) == 0.0

    def test_gamma_mean(self):
        assert dist.chf2_analytic(GammaPower(4.0, 3.0), 2.0) == 3.0

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_s_is_refused(self, s):
        with pytest.raises(ValueError,
                           match="transform variable must be finite"):
            dist.chf2_analytic(GammaPower(4.0, 3.0), s)

    def test_log_gamma_ratio_past_exp_range_against_mpmath(self):
        # ln Gamma(1010.5) - ln Gamma(10) is past 708, where exp of the
        # Stirling rest would overflow: Phi is kept as mantissa and exponent
        import mpmath
        spec = GammaPower(10.0, 1.0)
        with mpmath.workdps(40):
            want = (mpmath.loggamma(mpmath.mpf(1010.5)) - mpmath.loggamma(10)
                    + 1000.5 * mpmath.log(mpmath.mpf(0.1)))
        got = dist.log_chf2_analytic(spec, 1001.5)
        assert abs(got / want - 1) <= 1e-13
        with pytest.raises(OverflowError, match="^chf2_analytic: Phi"
                           r"\(s=1001.5\) of gamma exceeds the double range"):
            dist.chf2_analytic(spec, 1001.5)

    def test_weibull_example(self):
        assert dist.chf2_analytic(Weibull(1.0, 2.0), 3.0) == 1.0

    def test_ggamma_log_example(self):
        # (mu/LM) Gamma(5)Gamma(3) / (Gamma(4)Gamma(2)) = 1 at s=2
        assert abs(dist.log_chf2_analytic(GammaGamma(4.0, 2.0, 1.0), 2.0)) \
            <= 1e-12

    def test_fisher_log_example(self):
        assert dist.log_chf2_analytic(Fisher(1.0, 3.0, 1.0), 2.0) == \
            pytest.approx(math.log(1.5), rel=1e-12)

    def test_exp_of_log_form_matches(self):
        for spec in ALL_SPECS:
            lo, hi = dist.strip(spec)
            for s in (0.5, 1.0, 1.7, 2.5, 3.0):
                if not lo < s < hi:
                    continue
                phi = dist.chf2_analytic(spec, s)
                assert math.exp(dist.log_chf2_analytic(spec, s)) == \
                    pytest.approx(phi, rel=1e-12)

    def test_large_shape_gamma_ratio_against_mpmath(self):
        # Phi(1.5) of GammaPower(a, 1) is a^(-1/2) Gamma(a + 1/2) / Gamma(a)
        # = 1 - 1/(8a) + ...; log Gamma(a) needs 320 digits at a = 1e300
        import mpmath
        with mpmath.workdps(340):
            for a in np.logspace(0.0, 300.0, 61):
                spec = GammaPower(float(a), 1.0)
                x = mpmath.mpf(float(a))
                want = mpmath.exp(mpmath.loggamma(x + 0.5)
                                  - mpmath.loggamma(x)) / mpmath.sqrt(x)
                got = dist.chf2_analytic(spec, 1.5)
                assert abs(got / want - 1) <= 1e-13, a
                assert abs(dist.log_chf2_analytic(spec, 1.5)
                           - mpmath.log(want)) <= 1e-13, a

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(family=st.sampled_from(sorted(FAMILY_FIELDS, key=str)),
           log_shapes=st.lists(st.floats(math.log(0.05), math.log(1e300)),
                               min_size=3, max_size=3),
           log10_scale=st.floats(-6.0, 6.0), t=st.floats(0.0, 1.0))
    def test_exp_of_log_form_matches_over_box(self, family, log_shapes,
                                              log10_scale, t):
        cls, kinds = FAMILY_FIELDS[family]
        shape_iter = iter(log_shapes)
        try:
            spec = cls(*(math.exp(next(shape_iter)) if kind == "shape"
                         else 10.0 ** log10_scale for kind in kinds))
            form = dist._mellin_form(spec)
        except ValueError:
            assume(False)              # canonical scale past the double range
        lo, hi = dist.strip(spec)
        s = max(lo, -10.0) + t * (min(hi, 10.0) - max(lo, -10.0))
        assume(lo < s < hi)
        try:
            phi = dist.chf2_analytic(spec, s)
        except (OverflowError, StripError):   # s - 1 rounded onto a pole
            assume(False)
        assume(phi >= sys.float_info.min)
        # the log form sums pieces of this size, each good to its ulp
        delta = s - 1.0
        size = 1.0 + abs(delta * math.log(form.scale)) + sum(
            abs(c * delta) * (1.0 + abs(math.log(a))) for a, c in form.terms)
        assert abs(dist.log_chf2_analytic(spec, s) - math.log(phi)) \
            <= 1e-15 * size

    def test_rounding_onto_a_pole_is_a_strip_error(self):
        # s lies inside (0, 2), but s - 1 rounds to -1: Gamma(L - 1) at L = 1
        with pytest.raises(StripError):
            dist.chf2_analytic(Fisher(1.0, 1.0, 1.0), 3.4451751940012274e-159)

    def test_large_shapes_stay_finite(self):
        spec = GammaGamma(1e4, 1e4, 1.0)
        value = dist.log_chf2_analytic(spec, 3.0)
        assert math.isfinite(value)

    def test_past_the_double_range(self):
        # Phi(500) = prod_j (1 + j/1e4), j < 499: an in-range value whose
        # scale power underflows and whose gamma ratio overflows
        want = math.exp(math.fsum(math.log1p(j / 1e4) for j in range(499)))
        assert dist.chf2_analytic(GammaPower(1e4, 1.0), 500.0) == \
            pytest.approx(want, rel=1e-10)
        with pytest.raises(OverflowError, match=r"s=3\b.*gamma"):
            dist.chf2_analytic(GammaPower(1.0, 1e300), 3.0)
        assert dist.chf2_analytic(GammaPower(1.0, 1e-300), 3.0) == 0.0

    def test_strip_errors(self):
        with pytest.raises(StripError, match="strip"):
            dist.chf2_analytic(GammaPower(0.5, 1.0), 0.3)
        err = None
        try:
            dist.chf2_analytic(Fisher(1.0, 3.0, 1.0), 4.5)
        except StripError as exc:
            err = exc
        assert err is not None and err.hi == 4.0 and err.lo == 0.0

    def test_fisher_strip_is_two_sided(self):
        lo, hi = dist.strip(Fisher(2.0, 3.0, 1.0))
        assert lo == -1.0 and hi == 4.0


class TestClassicalMoments:
    def test_m0_is_one(self):
        for spec in ALL_SPECS:
            assert dist.classical_moment(spec, 0) == 1.0

    # every field 10^U(-323.3, 300), down to the least subnormal; below
    # about 5.6e-309 a Weibull shape has c = 1/b = inf, which is refused
    @settings(deadline=None, derandomize=True, database=None)
    @given(cls=st.sampled_from([*dist.FAMILY_TAGS.values(), InverseGamma]),
           exponents=st.lists(st.floats(-323.3, 300.0), min_size=3,
                              max_size=3))
    @example(cls=GammaPower, exponents=[-17.0, 0.0, 0.0])
    @example(cls=Weibull, exponents=[0.0, -17.0, 0.0])
    @example(cls=Fisher, exponents=[-300.0, -300.0, 0.0])
    @example(cls=Weibull, exponents=[0.0, -308.0, 0.0])
    @example(cls=Weibull, exponents=[0.0, -309.0, 0.0])
    @example(cls=Weibull, exponents=[0.0, -323.3, 0.0])
    @example(cls=WeibullNakagami, exponents=[-308.0, 0.0, 0.0])
    @example(cls=WeibullNakagami, exponents=[-309.0, 0.0, 0.0])
    @example(cls=WeibullNakagami, exponents=[-323.3, 0.0, 0.0])
    def test_every_spec_made_has_phi_1_and_m_0(self, cls, exponents):
        # a pole 1 - a/c that rounds onto s = 1 once refused these
        try:
            spec = cls(*(10.0 ** e for e in exponents[:len(fields(cls))]))
        except ValueError:
            return                     # its form is past the doubles
        assert dist.chf2_analytic(spec, 1.0) == 1.0
        assert dist.classical_moment(spec, 0) == 1.0

    def test_exponential_moments_exact(self):
        for mu in (1.0, 2.0, 3.5):
            spec = GammaPower(1.0, mu)
            for n in range(7):
                assert dist.classical_moment(spec, n) == \
                    mu**n * math.factorial(n)

    def test_huge_shape_moment(self):
        # (mu/L)^6 underflows and L^6 overflows; their product is ~1
        assert dist.classical_moment(GammaPower(1e60, 1.0), 6) == \
            pytest.approx(1.0, rel=1e-14)

    def test_rayleigh_m2(self):
        assert dist.classical_moment(Rayleigh(1.0), 2) == 1.0

    def test_maxwell_m1(self):
        assert dist.classical_moment(Maxwell(1.0), 1) == pytest.approx(
            2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_fisher_existence_bound(self):
        with pytest.raises(MomentDoesNotExistError, match="n < 3"):
            dist.classical_moment(Fisher(1.0, 3.0, 1.0), 3)
        assert dist.classical_moment(Fisher(1.0, 3.0, 1.0), 2) > 0.0

    def test_matches_chf2_bitwise(self):
        for spec in ALL_SPECS:
            _, hi = dist.strip(spec)
            for n in range(4):
                if n + 1 >= hi:
                    continue
                assert dist.classical_moment(spec, n) == \
                    dist.chf2_analytic(spec, n + 1.0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            dist.classical_moment(GammaPower(1.0, 1.0), -1)
        with pytest.raises(ValueError):
            dist.classical_moment(GammaPower(1.0, 1.0), 1.5)


def finite_difference_log_cumulants(spec, n_max=4):
    """Richardson-extrapolated central differences of the log transform.

    Step sizes grow with the order: the fourth-order stencil divides by h^4,
    so h = 1e-3 would put double-precision roundoff (~1e-14 in the stencil
    numerator) three orders of magnitude above the 1e-5 agreement gate.
    """
    psi = lambda s: dist.log_chf2_analytic(spec, s)

    def d_n(n, h):
        if n == 1:
            return (psi(1 + h) - psi(1 - h)) / (2 * h)
        if n == 2:
            return (psi(1 + h) - 2 * psi(1.0) + psi(1 - h)) / h**2
        if n == 3:
            return (psi(1 + 2 * h) - 2 * psi(1 + h) + 2 * psi(1 - h)
                    - psi(1 - 2 * h)) / (2 * h**3)
        return (psi(1 + 2 * h) - 4 * psi(1 + h) + 6 * psi(1.0)
                - 4 * psi(1 - h) + psi(1 - 2 * h)) / h**4

    out = []
    for n in range(1, n_max + 1):
        h = 1e-3 if n <= 2 else 2e-2
        out.append((4.0 * d_n(n, h / 2) - d_n(n, h)) / 3.0)
    return out


class TestLogCumulants:
    def test_exponential_first_orders(self):
        k = dist.log_cumulants_analytic(GammaPower(1.0, 1.0), 2)
        assert k[0] == pytest.approx(-0.5772156649, abs=1e-9)
        assert k[1] == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    def test_fisher_symmetric_k2(self):
        k = dist.log_cumulants_analytic(Fisher(1.0, 1.0, 1.0), 2)
        assert k[1] == pytest.approx(math.pi**2 / 3.0, rel=1e-12)

    def test_nakagami_third_order(self):
        k = dist.log_cumulants_analytic(Nakagami(1.0, 1.0), 3)
        assert k[2] == pytest.approx(polygamma(2, 1.0) / 8.0, rel=1e-12)
        assert k[2] == pytest.approx(-0.3005, abs=1e-4)

    def test_finite_difference_agreement(self):
        for spec in SMOOTH_SHAPE_SPECS:
            analytic = dist.log_cumulants_analytic(spec, 4)
            fd = finite_difference_log_cumulants(spec, 4)
            for n in range(4):
                assert analytic[n] == pytest.approx(fd[n], abs=1e-5), \
                    (spec, n + 1)

    def test_compound_additivity(self):
        for spec in ALL_SPECS:
            comps = dist.components(spec)
            if comps is None:
                continue
            speckle, texture = comps
            k_total = dist.log_cumulants_analytic(spec, 4)
            k_u = dist.log_cumulants_analytic(speckle, 4)
            k_z = dist.log_cumulants_analytic(texture, 4)
            for n in range(4):
                assert abs(k_total[n] - k_u[n] - k_z[n]) <= 1e-10, (spec, n)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(family=st.sampled_from(COMPOUND_FAMILIES),
           shapes=st.lists(st.floats(0.05, 100.0), min_size=3, max_size=3),
           log10_scale=st.floats(-6.0, 6.0))
    def test_compound_additivity_over_box(self, family, shapes, log10_scale):
        spec = box_spec(family, shapes, log10_scale)
        speckle, texture = dist.components(spec)
        k_total = dist.log_cumulants_analytic(spec, MAX_ORDER)
        k_u = dist.log_cumulants_analytic(speckle, MAX_ORDER)
        k_z = dist.log_cumulants_analytic(texture, MAX_ORDER)
        for n in range(MAX_ORDER):
            assert abs(k_total[n] - k_u[n] - k_z[n]) \
                <= 1e-14 * (1.0 + abs(k_u[n]) + abs(k_z[n])), n + 1

    def test_order_validation(self):
        for bad in (0, 2.9, True, MAX_ORDER + 1):
            with pytest.raises(ValueError):
                dist.log_cumulants_analytic(GammaPower(1.0, 1.0), bad)

    @pytest.mark.parametrize("spec, order", [
        # speckle and texture terms overflow with opposite signs: k_2 is
        # inf + inf and k_3 -inf + inf, once returned as inf and nan
        (Fisher(1e-200, 1e-200, 1.0), 2),
        (GammaPower(1e-200, 1.0), 2),
        # psi''(1e-120) = -2e360 while psi'(1e-120) = 1e240 still holds
        (GammaGamma(1e-120, 4.0, 1.0), 3),
    ])
    def test_order_past_the_doubles_raises(self, spec, order):
        assert all(map(math.isfinite,
                       dist.log_cumulants_analytic(spec, order - 1)))
        with pytest.raises(OverflowError,
                           match=rf"k_{order} of {type(spec).__name__}\("):
            dist.log_cumulants_analytic(spec, MAX_ORDER)

    @pytest.mark.parametrize("spec", [
        *(spec for specs in verify.PARAM_GRID.values() for spec in specs),
        *verify.MC_SPECS], ids=repr)
    def test_the_mellin_formula_bit_for_bit(self, spec):
        # k_1 = log(scale) + sum_i c_i psi(a_i),
        # k_n = sum_i c_i^n psi^(n-1)(a_i), written out once more here
        form = dist._mellin_form(spec)
        want = [math.log(form.scale)
                + sum(c * digamma(a) for a, c in form.terms)]
        want += [sum(c ** n * polygamma(n - 1, a) for a, c in form.terms)
                 for n in range(2, 7)]
        got = dist.log_cumulants_analytic(spec, 6)
        assert [v.hex() for v in got] == [v.hex() for v in want]


class TestRayleighWeibullIdentity:
    def test_all_operations_match(self):
        z = 1.7
        ray, wei = Rayleigh(z), Weibull(z, 2.0)
        xs = np.linspace(0.0, 6.0, 25)
        assert np.max(np.abs(dist.pdf(ray, xs) - dist.pdf(wei, xs))) <= 1e-14
        for s in (0.5, 1.0, 2.0, 3.0):
            assert abs(dist.chf2_analytic(ray, s)
                       - dist.chf2_analytic(wei, s)) <= 1e-14
        for n in range(5):
            assert abs(dist.classical_moment(ray, n)
                       - dist.classical_moment(wei, n)) <= \
                1e-14 * dist.classical_moment(wei, n)
        k_r = dist.log_cumulants_analytic(ray, 4)
        k_w = dist.log_cumulants_analytic(wei, 4)
        assert max(abs(a - b) for a, b in zip(k_r, k_w)) <= 1e-14


class TestComponents:
    def test_ggamma_factorization(self):
        speckle, texture = dist.components(GammaGamma(4.0, 2.0, 1.0))
        assert speckle == GammaPower(4.0, 1.0)
        assert texture == GammaPower(2.0, 1.0)

    def test_simple_families_have_none(self):
        for spec in (GammaPower(2.0, 1.0), Weibull(1.0, 2.0), Maxwell(1.0),
                     Rayleigh(1.0), Nakagami(2.0, 1.0), InverseGamma(2.0, 1.0)):
            assert dist.components(spec) is None

    def test_k_speckle_is_unit_rayleigh(self):
        speckle, texture = dist.components(KAmplitude(2.0, 1.0))
        assert speckle == Rayleigh(1.0)
        # unit mean square for the speckle factor
        assert dist.classical_moment(speckle, 2) == 1.0
        assert texture == Nakagami(2.0, math.sqrt(2.0))

    def test_factor_transforms_multiply(self):
        for spec in (GammaGamma(4.0, 2.0, 1.0), KAmplitude(2.0, 1.0),
                     WeibullNakagami(2.0, 2.0, 1.0), Fisher(3.0, 4.0, 1.0)):
            speckle, texture = dist.components(spec)
            for s in (1.0, 1.5, 2.0, 2.5):
                product = (dist.chf2_analytic(speckle, s)
                           * dist.chf2_analytic(texture, s))
                assert dist.chf2_analytic(spec, s) == pytest.approx(
                    product, rel=1e-12)
