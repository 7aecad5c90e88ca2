import math
import re
import warnings

import numpy as np
import pytest

from clutterstats import _quad, mellin, verify
from clutterstats import distributions as dist
from clutterstats.mellin import (LogStats, NonConvergenceError,
                                 central_log_moments,
                                 cumulants_to_moments, log_moments_numeric,
                                 mellin_numeric, mellin_table,
                                 moments_to_cumulants)
from clutterstats.specfun import MAX_ORDER, digamma, polygamma


def exp1_density(x):
    return np.exp(-x)


class TestMellinNumeric:
    def test_exponential_normalization(self):
        assert mellin_numeric(exp1_density, 1.0) == pytest.approx(1.0,
                                                                  abs=1e-9)

    def test_exponential_mean(self):
        assert mellin_numeric(exp1_density, 2.0) == pytest.approx(1.0,
                                                                  abs=1e-9)

    def test_rayleigh_second_moment(self):
        f = lambda x: dist.pdf(dist.Rayleigh(1.0), x)
        assert mellin_numeric(f, 3.0) == pytest.approx(1.0, abs=1e-9)

    def test_window_auto_widens(self):
        # mass near x = e^45 sits outside the default [-40, 40] window
        spec = dist.GammaPower(4.0, math.exp(45.0))
        f = lambda x: dist.pdf(spec, x)
        assert mellin_numeric(f, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_non_convergence_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(_quad, "REL_TOL", 1e-15)
        monkeypatch.setattr(_quad, "ABS_TOL", 1e-300)
        monkeypatch.setattr(_quad, "MAX_PANELS", 20)
        f = lambda x: dist.pdf(dist.Weibull(1.0, 0.7), x)
        with pytest.raises(NonConvergenceError) as info:
            mellin_numeric(f, 1.0)
        assert info.value.estimate == pytest.approx(1.0, abs=1e-3)
        assert info.value.error_bound > 0.0

    def test_bit_for_bit_reproducible(self):
        f = lambda x: dist.pdf(dist.KAmplitude(2.0, 1.0), x)
        for s in (1.0, 2.5):
            assert mellin_numeric(f, s) == mellin_numeric(f, s)

    def test_a_table_needs_an_s(self):
        with pytest.raises(ValueError, match="at least one s"):
            mellin.mellin_table(exp1_density, [])

    def test_a_table_holds_only_its_s(self):
        table = mellin.mellin_table(exp1_density, [1.0, 2.0])
        assert table.at(2.0)[0] == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(KeyError, match=r"s = 3.0 is not in the table"):
            table.at(3.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_s_is_rejected(self, s):
        # nan once read as an all-zero integrand: values (0.0,), bound 0
        with pytest.raises(ValueError, match=rf"s = {s!r} is not finite"):
            mellin.mellin_table(exp1_density, [1.0, s])

    def test_an_s_past_the_doubles_raises_without_a_warning(self):
        # Gamma(5000) is about 1e16322; the scan once warned of overflow in
        # exp, then failed with an IndexError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError,
                               match=r"s = 5000.0 is outside the double"):
                mellin.mellin_table(exp1_density, [1.0, 5000.0])

    def test_an_all_zero_density(self):
        table = mellin.mellin_table(np.zeros_like, [1.0])
        assert table.values == table.error_bounds == (0.0,)

    @pytest.mark.parametrize("density, message", [
        (lambda x: np.full(np.shape(x), np.nan), "e^-40.0 is nan"),
        (lambda x: np.where((x > math.exp(0.5)) & (x < math.exp(1.5)),
                            np.nan, np.exp(-x)), "e^0.625 is nan"),
        (lambda x: np.exp(-x) - 0.5, "e^40.0 is -0.5")],
        ids=["nan", "nan-on-a-band", "negative"])
    def test_a_nan_or_negative_density_is_refused(self, density, message):
        # each once integrated as 0 where it was not positive: Phi = 0 with
        # bound 0, 0.819 with bound 6.6e-10, the positive part alone
        match = f"^the density at x = {re.escape(message)}, not a number >= 0$"
        with pytest.raises(ValueError, match=match):
            mellin.mellin_table(density, [1.0])
        with pytest.raises(ValueError, match=match):
            mellin.log_moments_numeric(density, 2)

    def test_agreement_below_s_equal_one(self):
        # the strip extends below s = 1 for every catalog family
        for spec in (dist.GammaPower(4.0, 1.0), dist.Weibull(1.0, 2.0),
                     dist.KAmplitude(2.0, 1.0), dist.Fisher(3.0, 4.0, 1.0)):
            f = lambda x: dist.pdf(spec, x)
            analytic = dist.chf2_analytic(spec, 0.5)
            assert mellin_numeric(f, 0.5) == pytest.approx(analytic, rel=1e-6)


class TestLogMomentsNumeric:
    def test_exponential_first_log_moment(self):
        stats = log_moments_numeric(exp1_density, 1)
        assert stats.log_moments[0] == pytest.approx(digamma(1.0), abs=1e-9)

    def test_exponential_log_variance(self):
        stats = log_moments_numeric(exp1_density, 2)
        assert stats.log_cumulants[1] == pytest.approx(polygamma(1, 1.0),
                                                       abs=1e-8)

    def test_narrow_spike_log_moments_vanish(self):
        # Nakagami with shape 1e4 approximates a point mass at x = 1
        spec = dist.Nakagami(1e4, 1.0)
        f = lambda x: dist.pdf(spec, x)
        stats = log_moments_numeric(f, 2)
        analytic = dist.log_cumulants_analytic(spec, 2)
        assert abs(stats.log_moments[0]) <= 1e-4
        assert abs(stats.log_moments[1]) <= 1e-4
        assert stats.log_cumulants[0] == pytest.approx(analytic[0], abs=1e-9)
        assert stats.log_cumulants[1] == pytest.approx(analytic[1], rel=1e-4)

    def test_matches_analytic_cumulants_across_catalog(self):
        specs = [dist.GammaPower(4.0, 1.0), dist.Weibull(1.0, 2.0),
                 dist.Maxwell(1.0), dist.GammaGamma(4.0, 2.0, 1.0),
                 dist.KAmplitude(2.0, 1.0), dist.Fisher(3.0, 4.0, 1.0),
                 dist.InverseGamma(3.0, 2.0)]
        for spec in specs:
            f = lambda x: dist.pdf(spec, x)
            stats = log_moments_numeric(f, 4)
            analytic = dist.log_cumulants_analytic(spec, 4)
            for n in range(4):
                gate = max(1e-6, 1e-4 * abs(analytic[n]))
                assert abs(stats.log_cumulants[n] - analytic[n]) <= gate, \
                    (spec, n + 1)

    def test_sixth_order(self):
        # the log of a unit exponential has k_n = psi^(n-1)(1)
        stats = log_moments_numeric(exp1_density, MAX_ORDER)
        assert stats.log_cumulants[0] == pytest.approx(digamma(1.0), abs=1e-9)
        for n in range(2, MAX_ORDER + 1):
            assert stats.log_cumulants[n - 1] == pytest.approx(
                polygamma(n - 1, 1.0), rel=1e-7), n

    def test_order_validation(self):
        for bad in (2.9, True, MAX_ORDER + 1):
            with pytest.raises(ValueError, match="unsupported order"):
                log_moments_numeric(exp1_density, bad)


class TestCumulantAlgebra:
    def test_first_order_passthrough(self):
        assert moments_to_cumulants([0.37]) == [0.37]

    def test_gaussian_fourth_cumulant_vanishes(self):
        assert moments_to_cumulants((0.0, 1.0, 0.0, 3.0)) == [0.0, 1.0, 0.0, 0.0]

    def test_worked_example(self):
        # hand-computed: k4 = 24 - 4*6 - 3*4 + 12*2 - 6 = 6
        assert moments_to_cumulants((1.0, 2.0, 6.0, 24.0)) == [1.0, 1.0, 2.0, 6.0]
        assert cumulants_to_moments((1.0, 1.0, 2.0, 6.0)) == [1.0, 2.0, 6.0, 24.0]

    def test_printed_fourth_identity_is_central_moment(self):
        assert central_log_moments((1.0, 2.0, 6.0, 24.0)) == [1.0, 1.0, 2.0, 9.0]
        # central fourth moment = cumulant + 3 k2^2
        m = (0.3, 1.7, 2.9, 11.0)
        k = moments_to_cumulants(m)
        c = central_log_moments(m)
        assert c[3] == pytest.approx(k[3] + 3.0 * k[1] ** 2, rel=1e-12)

    def test_zeros_fixed_point(self):
        assert cumulants_to_moments((0.0, 0.0, 0.0, 0.0)) == [0.0, 0.0, 0.0, 0.0]

    def test_sixth_order_pins(self):
        gauss = (0.0, 1.0, 0.0, 3.0, 0.0, 15.0)
        assert moments_to_cumulants(gauss) == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        assert cumulants_to_moments((0.0, 1.0, 0.0, 0.0, 0.0, 0.0)) == \
            list(gauss)
        assert central_log_moments(gauss) == list(gauss)
        # Poisson(1): raw moments are the Bell numbers, every cumulant is 1
        bell = (1.0, 2.0, 5.0, 15.0, 52.0, 203.0)
        assert moments_to_cumulants(bell) == [1.0] * 6
        assert cumulants_to_moments([1.0] * 6) == list(bell)
        # Poisson(1) central moments: mu_4 = 1 + 3, mu_5 = 1 + 10,
        # mu_6 = 1 + 25 + 15
        assert central_log_moments(bell) == [1.0, 1.0, 1.0, 4.0, 11.0, 41.0]

    def test_written_out_formulas_bit_for_bit(self):
        # up to order 4 the partition sums round exactly as these formulas
        # do; the seeded sweep CSV depends on it
        def cumulants(m):
            return [m[0], m[1] - m[0] ** 2,
                    m[2] - 3.0 * m[0] * m[1] + 2.0 * m[0] ** 3,
                    m[3] - 4.0 * m[0] * m[2] - 3.0 * m[1] ** 2
                    + 12.0 * m[0] ** 2 * m[1] - 6.0 * m[0] ** 4]

        def moments(k):
            return [k[0], k[1] + k[0] ** 2,
                    k[2] + 3.0 * k[0] * k[1] + k[0] ** 3,
                    k[3] + 4.0 * k[0] * k[2] + 3.0 * k[1] ** 2
                    + 6.0 * k[0] ** 2 * k[1] + k[0] ** 4]

        rng = np.random.RandomState(13)
        for scale in (1e-3, 1.0, 10.0, 1e3):
            for x in rng.uniform(-scale, scale, size=(2000, 4)).tolist():
                for n in range(1, 5):
                    assert moments_to_cumulants(x[:n]) == cumulants(x)[:n]
                    assert cumulants_to_moments(x[:n]) == moments(x)[:n]

    def test_non_finite_entry_named_by_order(self):
        with pytest.raises(ValueError, match="order-1 entry is nan"):
            moments_to_cumulants([math.nan, 1.0])
        with pytest.raises(ValueError, match="order-3 entry is -inf"):
            cumulants_to_moments([0.0, 1.0, -math.inf, math.nan])
        with pytest.raises(ValueError, match="order-2 entry is inf"):
            central_log_moments([0.0, math.inf])

    @pytest.mark.parametrize("values, order, power", [
        ([1e200, 1.0], 2, "entry 1 to the power 2"),
        ([1e100, 1.0, 1.0, 1.0], 4, "entry 1 to the power 4"),
        ([0.0, 1e160, 0.0, 1.0], 4, "entry 2 to the power 2"),
        ([[0.0, 1.0], [-1e200, 1.0]], 2, "entry 1 to the power 2"),
    ])
    def test_power_past_the_doubles_is_named_by_order(self, values, order,
                                                      power):
        # a bare OverflowError: (34, 'Numerical result out of range') once
        with pytest.raises(OverflowError,
                           match=f"^cumulants_to_moments: order {order} "
                                 f"takes {power}, which is outside the "
                                 "double range$"):
            cumulants_to_moments(values)

    @pytest.mark.parametrize("values,order", [
        ([1e200, 1.0], 2),
        ([1e100, 1.0, 1.0, 1.0], 4),
        ([[0.0, 1.0], [-1e200, 1.0]], 2),
    ])
    def test_central_shift_past_the_doubles_is_named_by_order(self, values,
                                                              order):
        # a bare OverflowError: (34, 'Numerical result out of range') once
        with pytest.raises(OverflowError,
                           match=f"^central_log_moments: order {order} takes "
                                 f"entry 1 to the power {order}, which is "
                                 "outside the double range$"):
            central_log_moments(values)

    def test_round_trip_random(self):
        rng = np.random.RandomState(11)
        for order in range(1, MAX_ORDER + 1):
            for _ in range(1000):
                m = rng.uniform(-10.0, 10.0, size=order)
                k = np.array(moments_to_cumulants(m))
                back = np.array(cumulants_to_moments(k))
                scale = max(1.0, float(np.abs(m).max()),
                            float(np.abs(k).max()))
                assert np.max(np.abs(back - m)) <= 1e-12 * scale, order

    def test_batched_equals_row_by_row_bit_for_bit(self):
        # the scalar loop over Python floats (libm `pow` for every power)
        # is the reference; the stack runs as one pass
        def row_by_row(row, table):
            x = [float(v) for v in row]
            out = []
            for n, terms in enumerate(table[:len(x)]):
                acc = x[n]
                for coef, factors in terms:
                    for p, e in factors:
                        coef *= x[p - 1] ** e
                    acc += coef
                out.append(acc)
            return out

        vectors = np.random.RandomState(1).uniform(
            -10.0, 10.0, size=(verify.ROUND_TRIP_VECTORS, MAX_ORDER))
        for order in range(1, MAX_ORDER + 1):
            stack = vectors[:, :order]
            for algebra, table in ((moments_to_cumulants,
                                    mellin._bell_terms(True)),
                                   (cumulants_to_moments,
                                    mellin._bell_terms(False))):
                batched = algebra(stack)
                assert batched.shape == stack.shape
                want = np.array([row_by_row(row, table) for row in stack])
                assert batched.tobytes() == want.tobytes(), order
                for row, expect in zip(stack[:200], want):
                    one = algebra(row)
                    assert isinstance(one, list)
                    assert np.array(one).tobytes() == expect.tobytes()

    def test_stack_keeps_its_leading_shape(self):
        stack = np.arange(24.0).reshape(2, 3, 4) / 7.0
        got = moments_to_cumulants(stack)
        assert got.shape == (2, 3, 4)
        assert got[1, 2].tolist() == moments_to_cumulants(stack[1, 2])

    def test_non_finite_entry_in_a_stack_named_by_row(self):
        stack = np.zeros((3, 4))
        stack[1, 1] = math.nan
        with pytest.raises(ValueError,
                           match="row 1, the order-2 entry is nan"):
            moments_to_cumulants(stack)
        with pytest.raises(ValueError, match="unsupported order"):
            cumulants_to_moments(np.zeros((5, 9)))

    def test_central_moments_of_a_stack_equal_the_loop_bit_for_bit(self):
        # the binomial shift written out per vector, as a 1-D call has
        # always computed it
        def central(m):
            m = [1.0, *m]
            return [m[1]] + [sum(math.comb(n, j) * m[j] * (-m[1]) ** (n - j)
                                 for j in range(n + 1))
                             for n in range(2, len(m))]

        rng = np.random.RandomState(1)
        for order in range(1, MAX_ORDER + 1):
            stack = rng.standard_normal((200, order)) * 3.0
            stack[:5] = 0.0
            stack[5:10] *= 1e-3
            got = central_log_moments(stack)
            want = np.array([central(row) for row in stack.tolist()])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for row, out in zip(stack[:20], got[:20]):
                assert central_log_moments(row) == out.tolist()

    def test_central_moments_keep_the_stack_shape_and_name_a_bad_row(self):
        assert central_log_moments(np.zeros((3, 4))).tolist() == \
            [[0.0] * 4] * 3
        assert central_log_moments(np.ones((2, 3, 4))).shape == (2, 3, 4)
        stack = np.ones((3, 4))
        stack[2, 3] = math.inf
        with pytest.raises(ValueError, match="central_log_moments: row 2, "
                                             "the order-4 entry is inf"):
            central_log_moments(stack)

    def test_round_trip_check_reads_the_recorded_error(self):
        # the float the verify report prints as 3.142e-14
        outcome = verify.cumulant_algebra_checks()[0]
        assert outcome.name == "cumulant-round-trip"
        assert outcome.max_error == float.fromhex("0x1.1af9ce361776ap-45")

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="unsupported order"):
            moments_to_cumulants([1.0] * 9)
        with pytest.raises(ValueError, match="unsupported order"):
            cumulants_to_moments([])


class TestLogStats:
    def test_from_moments_consistency(self):
        stats = LogStats.from_moments((1.0, 2.0, 6.0, 24.0))
        assert stats.order == 4
        assert stats.log_cumulants == (1.0, 1.0, 2.0, 6.0)

    def test_from_cumulants_consistency(self):
        stats = LogStats.from_cumulants((1.0, 1.0, 2.0, 6.0))
        assert stats.log_moments == (1.0, 2.0, 6.0, 24.0)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            LogStats((1.0, 2.0), (1.0,))
        with pytest.raises(ValueError):
            LogStats((), ())

    def test_sixth_order_supported(self):
        stats = LogStats.from_cumulants([1.0] * MAX_ORDER)
        assert stats.order == MAX_ORDER
        with pytest.raises(ValueError, match="unsupported order"):
            LogStats.from_cumulants([1.0] * (MAX_ORDER + 1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="order-1 entry is inf"):
            LogStats.from_cumulants([math.inf, 1.0])
        with pytest.raises(ValueError, match="order-2 entry is nan"):
            LogStats.from_moments([1.0, math.nan])

    @pytest.mark.parametrize("moments, cumulants", [
        ((math.nan,) * 3, (math.nan,) * 3),
        ((0.0, 1.0), (0.0, math.inf)),
    ], ids=["nan", "inf-cumulant"])
    def test_direct_construction_rejects_non_finite(self, moments,
                                                    cumulants):
        # a nan LogStats once reached fit_molc, which blamed k_2's sign
        with pytest.raises(ValueError, match=r"^LogStats: the order-\d "
                                             r"entry is (nan|inf)"):
            LogStats(moments, cumulants)


def convolution_error(spec) -> float:
    """The verify comparison on a table of its own, one engine pass."""
    table = mellin_table(lambda x: dist.pdf(spec, x), verify.CONVOLUTION_S)
    return verify._convolution_error(spec, table)


class TestVerifyConvolution:
    def test_ggamma(self):
        assert convolution_error(dist.GammaGamma(4.0, 2.0, 1.0)) <= 1e-5

    def test_k_amplitude(self):
        assert convolution_error(dist.KAmplitude(2.0, 1.0)) <= 1e-5

    def test_checks_read_the_recorded_errors(self):
        # the floats verify prints as 4.774e-15, 4.942e-15, 8.533e-14 and
        # 6.023e-15; any change to the comparison's order of operations
        # moves their last bits
        got = {o.target: o.max_error for o in verify.convolution_checks(
            verify.transform_tables(["ggamma", "k", "wnak", "fisher"]))}
        assert got == {
            "ggamma": float.fromhex("0x1.5800000000000p-48"),
            "k": float.fromhex("0x1.641460c2bc0f5p-48"),
            "wnak": float.fromhex("0x1.804d1a4ae4301p-44"),
            "fisher": float.fromhex("0x1.b200000000000p-48"),
        }
