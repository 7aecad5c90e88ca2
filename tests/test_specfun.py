import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clutterstats.specfun import (MAX_ORDER, digamma, ln_gamma,
                                  log_bessel_k_batch, polygamma)

GOLDEN = json.loads((Path(__file__).parent / "golden" /
                     "specfun_golden.json").read_text())

EULER_GAMMA = 0.57721566490153286060


def trigamma_series_oracle() -> float:
    # brute force: sum 1/k^2 plus an Euler-Maclaurin tail
    n = 10000
    s = sum(1.0 / (k * k) for k in range(1, n + 1))
    return s + 1.0 / n - 1.0 / (2 * n**2) + 1.0 / (6 * n**3) - 1.0 / (30 * n**5)


def tetragamma_series_oracle() -> float:
    # psi''(1) = -2 zeta(3), zeta(3) by series with tail
    n = 10000
    s = sum(1.0 / k**3 for k in range(1, n + 1))
    zeta3 = s + 1.0 / (2 * n**2) - 1.0 / (2 * n**3) + 1.0 / (4 * n**4)
    return -2.0 * zeta3


class TestLnGamma:
    def test_at_one(self):
        assert abs(ln_gamma(1.0)) <= 1e-12

    def test_at_half(self):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)),
                                              rel=1e-12)

    def test_at_ten(self):
        assert ln_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-12)

    def test_golden_table(self):
        for x, ref in GOLDEN["ln_gamma"]:
            err = abs(ln_gamma(x) - ref) / max(1.0, abs(ref))
            assert err <= 1e-12, (x, ref)

    def test_reflection(self):
        for x in (0.1, 0.25, 0.4, 0.6, 0.85):
            lhs = ln_gamma(x) + ln_gamma(1.0 - x)
            rhs = math.log(math.pi / math.sin(math.pi * x))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ln_gamma(bad)


class TestDigamma:
    def test_euler_constant(self):
        assert abs(digamma(1.0) - (-0.5772156649)) <= 1e-10

    def test_recurrence_from_one(self):
        assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-12)
        assert digamma(2.0) == pytest.approx(0.4227843351, abs=1e-9)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2.0),
                                             abs=1e-12)

    def test_golden_table(self):
        for x, ref in GOLDEN["digamma"]:
            assert abs(digamma(x) - ref) <= 1e-10 * max(1.0, abs(ref)), (x, ref)

    def test_recurrence_grid(self):
        for x in np.logspace(-2, 4, 60):
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-10

    def test_reflection(self):
        for x in (0.1, 0.25, 0.4, 0.45):
            lhs = digamma(1.0 - x) - digamma(x)
            assert lhs == pytest.approx(math.pi / math.tan(math.pi * x),
                                        rel=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(-0.5)


# ln_gamma and digamma as float.hex on both sides of the shift threshold
# (10): below it the upward recurrence runs, at and past it the series alone
SHIFT_BITS = [
    (1e-3, "0x1.ba0f3807161a8p+2", "-0x1.f449ac574fcf8p+9"),
    (0.37, "0x1.c0ff2c6c099c0p-1", "-0x1.65cc6fc71e6a6p+1"),
    (9.999, "0x1.99961ff24365dp+3", "0x1.2035fb8982c09p+1"),
    (10.0, "0x1.99a8921a7f7d0p+3", "0x1.20396dc85cc96p+1"),
    (42.0, "0x1.c8230869ca104p+6", "0x1.dce4509d95f8ap+1"),
    (1e5, "0x1.00a97b57f4c2ep+20", "0x1.7069d82dcebc1p+3"),
]


@pytest.mark.parametrize("x, ln_gamma_bits, digamma_bits", SHIFT_BITS)
def test_the_shift_keeps_its_bits(x, ln_gamma_bits, digamma_bits):
    assert ln_gamma(x).hex() == ln_gamma_bits
    assert digamma(x).hex() == digamma_bits


class TestPolygamma:
    def test_trigamma_at_one_series(self):
        assert polygamma(1, 1.0) == pytest.approx(trigamma_series_oracle(),
                                                  abs=1e-10)
        assert abs(polygamma(1, 1.0) - math.pi**2 / 6.0) <= 1e-10

    def test_tetragamma_at_one_series(self):
        assert polygamma(2, 1.0) == pytest.approx(tetragamma_series_oracle(),
                                                  abs=1e-9)
        assert polygamma(2, 1.0) == pytest.approx(-2.4041138063, abs=1e-9)

    def test_trigamma_recurrence_value(self):
        assert polygamma(1, 2.0) == pytest.approx(polygamma(1, 1.0) - 1.0,
                                                  rel=1e-12)
        assert polygamma(1, 2.0) == pytest.approx(0.6449340668, abs=1e-9)

    def test_golden_table(self):
        for m, x, ref in GOLDEN["polygamma"]:
            err = abs(polygamma(int(m), x) - ref) / abs(ref)
            assert err <= 1e-9, (m, x, ref)

    def test_sign_alternation(self):
        for m in range(1, 6):
            sign = 1.0 if m % 2 == 1 else -1.0
            for x in (0.05, 0.7, 3.0, 42.0):
                assert sign * polygamma(m, x) > 0.0

    def test_recurrence_grid(self):
        for m in (1, 2, 3, 4):
            fact = math.factorial(m)
            for x in np.logspace(-2, 3, 40):
                lhs = polygamma(m, x + 1.0) - polygamma(m, x)
                rhs = (-1.0) ** m * fact / x ** (m + 1)
                assert abs(lhs - rhs) <= 1e-9 * abs(polygamma(m, x))

    def test_huge_argument_underflows(self):
        # y**m would overflow; the leading term (m-1)!/x^m is all there is
        assert polygamma(1, 1e300) == pytest.approx(1e-300, rel=1e-15)
        assert polygamma(2, 1e100) == pytest.approx(-1e-200, rel=1e-15)
        assert polygamma(2, 1e300) == 0.0
        assert polygamma(5, 1e300) == 0.0

    def test_high_order_golden_table(self):
        # orders 6 to 8 about x = 10, where the series needs a shift past
        # y = 10
        for m, x, ref in GOLDEN["polygamma_high_order"]:
            assert abs(polygamma(int(m), x) - ref) <= 1e-14 * abs(ref), (m, x)

    def test_past_the_double_range_is_infinite(self):
        assert polygamma(1, 1e-200) == math.inf
        assert polygamma(2, 1e-110) == -math.inf
        assert polygamma(8, 1e-40) == -math.inf

    def test_every_order_finite_or_signed_infinity(self):
        for m in range(1, MAX_ORDER + 1):
            sign = 1.0 if m % 2 == 1 else -1.0
            for x in np.logspace(-300, 300, 61):
                value = polygamma(m, x)
                assert not math.isnan(value), (m, x)
                assert value == 0.0 or math.copysign(1.0, value) == sign

    def test_trigamma_strictly_decreasing(self):
        grid = np.logspace(-2, 3, 80)
        values = [polygamma(1, x) for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            polygamma(0, 1.0)
        with pytest.raises(ValueError):
            polygamma(1, 0.0)
        with pytest.raises(ValueError):
            polygamma(1.5, 1.0)

    # the float path's values, as float.hex, where the plain floats hold,
    # below and past the shift threshold, scaled and past the doubles: the
    # sweep CSV and the verify goldens print them
    FLOAT_BITS = [
        (1, 1e-3, "0x1.e848348fa1c6dp+19"), (1, 0.37, "0x1.0b890068aec11p+3"),
        (1, 9.999, "0x1.aece7bc0e27eap-4"), (1, 10.0, "0x1.aec2e54649b86p-4"),
        (1, 1e5, "0x1.4f8bc681cdfb6p-17"),
        (1, 1e300, "0x1.56e1fc2f8f359p-997"),
        (2, 0.05, "-0x1.f410dd81f3f86p+13"), (2, 3.7, "-0x1.86bd3b32e5397p-4"),
        (2, 1e100, "-0x1.87e92154ef7acp-665"),
        (3, 1.5, "0x1.68ba30a420962p+0"), (3, 42.0, "0x1.d554d34691559p-16"),
        (3, 1e70, "0x1.50a6110d6a9b6p-697"),
        (4, 14.0, "-0x1.791c5f3a20e68p-13"), (4, 0.3, "-0x1.34dbbf9a063f6p+13"),
        (4, 1e70, "-0x1.5c8503b6d70a2p-928"),
        (5, 0.7, "0x1.005503c118edep+10"), (5, 1e50, "0x1.12eef8639e1b7p-826"),
        (6, 13.0, "-0x1.04f75fd87b403p-15"),
        (6, 1e45, "-0x1.fb29a9fa1000ep-891"),
        (7, 25.0, "0x1.22ae298416b90p-23"), (7, 2.5, "0x1.c859aa304c704p+1"),
        (7, 1e40, "0x1.46bcb37b69998p-921"),
        (8, 19.5, "-0x1.3c042864894dfp-22"),
        (8, 0.9, "-0x1.9708ebf5152adp+16"),
        (8, 1e36, "-0x1.7fb8c3e66f68ap-945"), (2, 1e-110, "-inf"),
    ]

    @pytest.mark.parametrize("m, x, bits", FLOAT_BITS)
    def test_float_call_keeps_its_bits(self, m, x, bits):
        for arg in (x, np.float64(x), np.array(x)):
            value = polygamma(m, arg)
            assert type(value) is float
            assert value.hex() == bits

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(m=st.integers(1, MAX_ORDER),
           log10_x=st.lists(st.floats(-300.0, 300.0), min_size=1,
                            max_size=64))
    def test_array_call_matches_the_float_calls(self, m, log10_x):
        # an array of any length runs every lane at once in numpy, whose **
        # may round apart from the float call's pow
        x = 10.0 ** np.array(log10_x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = polygamma(m, x)
            grid = polygamma(m, x.reshape(-1, 1))
        want = np.array([polygamma(m, v) for v in x.tolist()])
        assert np.array_equal(grid.ravel(), got) and grid.shape == (x.size, 1)
        inf = np.isinf(want)
        assert np.array_equal(got[inf], want[inf])
        assert np.all(np.abs(got[~inf] - want[~inf])
                      <= 8.0 * np.spacing(np.abs(want[~inf])))

    def test_array_domain(self):
        with pytest.raises(ValueError):
            polygamma(1, np.full(32, 0.0))
        with pytest.raises(ValueError):
            polygamma(1, np.full(32, np.inf))

    @pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
    def test_an_element_does_not_depend_on_its_call(self, m):
        # every slice of a call, called on its own, and the same elements
        # in another shape keep the bits of the one full call
        x = np.logspace(-3.0, 3.0, 2000)
        full = polygamma(m, x)
        assert np.array_equal(polygamma(m, x.reshape(40, 50)).ravel(), full)
        for lanes in (1, 2, 3, 31, 32, 33, 601):
            for start in range(0, x.size, lanes):
                part = slice(start, start + lanes)
                assert np.array_equal(polygamma(m, x[part]), full[part]), \
                    (lanes, start)

    @pytest.mark.parametrize("shape", [(2,), (31,), (32,), (41,), (6, 7)],
                             ids=["2", "31", "32", "41", "6x7"])
    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -2.0])
    def test_one_domain_message_at_every_length(self, shape, bad):
        x = np.ones(shape)
        x.flat[x.size // 2] = bad
        message = f"polygamma requires a positive finite argument, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            polygamma(1, x)


def bessel_k_integral_oracle(nu: float, x: float) -> float:
    # direct fine-grid Simpson evaluation of the cosh-integral representation
    t_hi = 1.0
    while x * math.cosh(t_hi) - abs(nu) * t_hi < 60.0:
        t_hi *= 1.5
    t = np.linspace(0.0, t_hi, 120001)
    y = np.exp(-x * np.cosh(t)) * np.cosh(nu * t)
    h = t[1] - t[0]
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                            + 2.0 * y[2:-1:2].sum()))


def log_k(nu: float, x: float) -> float:
    """log K_nu(x) at one point, from the batch form."""
    return float(log_bessel_k_batch(nu, x))


def k_of(nu: float, x: float) -> float:
    return math.exp(log_k(nu, x))


class TestBesselK:
    def test_half_order_closed_form(self):
        assert k_of(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)
        assert k_of(0.5, 1.0) == pytest.approx(0.4610685044, abs=1e-9)

    def test_three_halves_closed_form(self):
        x = 2.0
        want = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1.0 + 1.0 / x)
        assert k_of(1.5, x) == pytest.approx(want, rel=1e-12)

    def test_symmetry(self):
        assert k_of(2.0, 1.0) == k_of(-2.0, 1.0)
        assert k_of(3.5, 0.7) == k_of(-3.5, 0.7)

    def test_golden_table(self):
        for nu, x, ref in GOLDEN["bessel_k"]:
            assert abs(k_of(nu, x) - ref) / abs(ref) <= 1e-8, (nu, x)

    def test_integral_representation_grid(self):
        for nu in (0.0, 0.5, 1.0, 2.3, 3.0):
            for x in (0.5, 1.0, 2.5, 5.0):
                oracle = bessel_k_integral_oracle(nu, x)
                assert abs(k_of(nu, x) - oracle) / oracle <= 1e-8

    def test_positive(self):
        for nu in (0.0, 1.0, 7.7, 20.0):
            for x in (1e-4, 0.3, 10.0, 50.0):
                assert k_of(nu, x) > 0.0

    def test_log_value_survives_overflow_region(self):
        assert log_k(20.0, 1e-15) > 700.0

    def test_domain(self):
        with pytest.raises(ValueError):
            k_of(1.0, 0.0)
        with pytest.raises(ValueError):
            k_of(1.0, -2.0)
        with pytest.raises(ValueError):
            k_of(math.nan, 1.0)

    def test_batch_matches_scalar(self):
        rng = np.random.RandomState(3)
        for nu in (0.0, 0.5, 1.0, 4.2, 19.0):
            xs = np.exp(rng.uniform(math.log(1e-10), math.log(100.0), 200))
            batch = log_bessel_k_batch(nu, xs)
            # one point at a time
            scalar = np.array([log_k(nu, float(v)) for v in xs])
            assert np.max(np.abs(batch - scalar)) <= 1e-10

    def test_log_golden_table(self):
        # orders and abscissas where K leaves the double range
        for nu, x, ref in GOLDEN["log_bessel_k"]:
            err = abs(log_k(nu, x) - ref) / max(1.0, abs(ref))
            assert err <= 1e-12, (nu, x)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(nu=st.floats(1.0, 20.0), log10_x=st.floats(-6.0, 3.0))
    def test_recurrence_over_box(self, nu, log10_x):
        # K_(nu+1) = K_(nu-1) + (2 nu / x) K_nu, all terms positive; each
        # log K is good to about 4e-13, so three of them to about 1.3e-12
        x = 10.0 ** log10_x
        lhs = log_k(nu + 1.0, x)
        rhs = np.logaddexp(log_k(nu - 1.0, x),
                           math.log(2.0 * nu / x) + log_k(nu, x))
        assert abs(lhs - rhs) <= 2e-12 * max(1.0, abs(lhs))

    def test_subnormal_arguments_match_leading_term(self):
        # K_nu(x) ~ Gamma(nu) 2^(nu-1) x^-nu; the next term is O(x^2)
        nu = 5.0
        xs = np.array([1e-310, 5e-324])
        got = log_bessel_k_batch(nu, xs)
        for x, value in zip(xs, got):
            want = (math.lgamma(nu) + (nu - 1.0) * math.log(2.0)
                    - nu * math.log(x))
            assert abs(value - want) <= 1e-12 * abs(want), x

    def test_small_order_at_subnormal_argument(self):
        # K_0(x) = -log(x/2) - gamma + O(x^2 log x); for small nu the
        # second power of the series, Gamma(-nu) (x/2)^nu / 2, still counts
        x = 5e-324
        log_half_x = math.log(x) - math.log(2.0)
        k0 = -log_half_x - 0.5772156649015329
        assert log_bessel_k_batch(0.0, [x])[0] == pytest.approx(
            math.log(k0), rel=1e-13)
        nu = 0.01
        series = 0.5 * (math.gamma(nu) * math.exp(-nu * log_half_x)
                        + math.gamma(-nu) * math.exp(nu * log_half_x))
        assert log_bessel_k_batch(nu, [x])[0] == pytest.approx(
            math.log(series), rel=1e-12)

    def test_batch_domain(self):
        with pytest.raises(ValueError):
            log_bessel_k_batch(1.0, np.array([1.0, 0.0]))
