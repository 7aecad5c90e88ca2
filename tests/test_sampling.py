import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from clutterstats import distributions as dist
from clutterstats._quad import gk15
from clutterstats.estimation import empirical_log_stats
from clutterstats import sampling
from clutterstats.sampling import (SampleBatch, SplitMix64, TEXTURE_SEED_XOR,
                                   sample, sample_compound)

GOLDEN = json.loads((Path(__file__).parent / "golden" /
                     "specfun_golden.json").read_text())
STREAM_PINS = json.loads((Path(__file__).parent / "golden" /
                          "sample_streams.json").read_text())

MC_FAMILY_SPECS = [
    dist.GammaPower(4.0, 1.0), dist.Nakagami(3.0, 2.0), dist.Maxwell(1.5),
    dist.Weibull(1.0, 2.0), dist.Rayleigh(2.0), dist.GammaGamma(4.0, 2.0, 1.0),
    dist.KAmplitude(2.0, 1.0), dist.WeibullNakagami(2.0, 2.0, 1.0),
    dist.Fisher(3.0, 5.0, 1.0), dist.InverseGamma(4.0, 2.0),
]
MC_BASE_SEED = 2000   # KS uses MC_BASE_SEED + 500 (= 2500 block)
# one spec per family tag, the inverse gamma, a gamma boosted from
# shape < 1 and a gamma at shape 1, where about 0.7 % of the
# Marsaglia-Tsang trials have v <= 0: the specs whose streams
# sample_streams.json pins
STREAM_SPECS = {
    **{dist.family_tag(spec): spec for spec in MC_FAMILY_SPECS},
    "gamma_shape_below_1": dist.GammaPower(0.5, 2.0),
    "gamma_shape_1": dist.GammaPower(1.0, 1.0),
}


class TestSplitMix64:
    def test_reference_vectors(self):
        for key, seed in (("seed_0", 0), ("seed_42", 42),
                          ("seed_2**64-1", 2**64 - 1)):
            want = [int(v, 16) for v in GOLDEN["splitmix64"][key]]
            got = [int(v) for v in SplitMix64(seed).raw(len(want))]
            assert got == want, key

    def test_stream_position_advances(self):
        stream = SplitMix64(9)
        first = stream.raw(5)
        second = stream.raw(5)
        combined = SplitMix64(9).raw(10)
        assert np.array_equal(np.concatenate([first, second]), combined)

    def test_uniform_open_interval(self):
        u = SplitMix64(123).uniform_open(10**5)
        assert float(u.min()) > 0.0
        assert float(u.max()) < 1.0
        assert abs(float(u.mean()) - 0.5) < 0.01

    def test_normals_moments(self):
        z = SplitMix64(5).normals(10**6)
        assert abs(float(z.mean())) < 0.005
        assert abs(float(z.std()) - 1.0) < 0.005

    def test_gamma_shape_below_one_uses_boost(self):
        g = SplitMix64(17).gammas(0.5, 10**5)
        assert float(g.min()) > 0.0
        assert abs(float(g.mean()) - 0.5) < 0.02

    def test_seed_wraps_to_64_bits(self):
        a = SplitMix64(2**64 + 3).raw(4)
        b = SplitMix64(3).raw(4)
        assert np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            SplitMix64(1.5)

    @pytest.mark.parametrize("shape", [math.nan, math.inf, -0.5, 0.0])
    def test_gamma_shape_must_be_positive_and_finite(self, shape):
        # nan and inf never accepted a trial; -0.5 gave positive draws and
        # 0.0 a bare ZeroDivisionError
        stream = SplitMix64(1)
        with pytest.raises(ValueError, match="shape must be positive"):
            stream.gammas(shape, 3)
        assert stream.position == 0

    @pytest.mark.parametrize("method", ["raw", "uniform_open", "normals",
                                        "gammas"])
    @pytest.mark.parametrize("count", [-4, 2.5, True, "3"])
    def test_count_must_be_a_nonnegative_integer(self, method, count):
        stream = SplitMix64(1)
        args = (2.0, count) if method == "gammas" else (count,)
        with pytest.raises(ValueError, match="count must be an integer"):
            getattr(stream, method)(*args)
        assert stream.position == 0

    def test_zero_count_draws_nothing(self):
        stream = SplitMix64(1)
        for draws in (stream.raw(0), stream.uniform_open(0),
                      stream.normals(0), stream.gammas(0.5, 0)):
            assert draws.size == 0
        assert stream.position == 0


class TestTheStreamRule:
    """The module docstring's rule, computed one value at a time with
    ``math`` from the raw words, anchors the samplers without the recorded
    digests.  ``uniform_open`` is exact arithmetic of the rule and must
    agree bit for bit.  numpy's ``log``, ``cos`` and ``power`` may round
    apart from the C library's by an ulp (ROADMAP item 8), so the normals
    and the gammas agree to 1e-14 relative, and their streams end at the
    same position."""

    N = 500

    @staticmethod
    def uniforms(seed, m):
        words = [int(w) for w in SplitMix64(seed).raw(m)]
        return [((w >> 11) + 0.5) * 2.0**-53 for w in words]

    @staticmethod
    def normal(u1, u2):
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gammas(self, seed, shape, n):
        """n draws and the words they took, by the rule."""
        if shape < 1.0:
            base, used = self.gammas(seed, shape + 1.0, n)
            boost = self.uniforms(seed, used + n)[used:]
            return [g * u ** (1.0 / shape) for g, u in zip(base, boost)], \
                used + n
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        # 2n trials, where n draws take about 1.05n
        words = self.uniforms(seed, 6 * n)
        draws, used = [], 0
        while len(draws) < n:
            u1, u2, u = words[used:used + 3]
            used += 3
            x = self.normal(u1, u2)
            v = (c * x + 1.0) ** 3
            if v > 0.0 and (math.log(u) < x ** 2 * 0.5 + d - v * d
                            + math.log(v) * d):
                draws.append(v * d)
        return draws, used

    @pytest.mark.parametrize("seed", [1, 2])
    def test_uniforms_are_the_rule_bit_for_bit(self, seed):
        stream = SplitMix64(seed)
        got = stream.uniform_open(self.N)
        assert [u.hex() for u in got.tolist()] == \
            [u.hex() for u in self.uniforms(seed, self.N)]
        assert stream.position == self.N

    @pytest.mark.parametrize("seed", [1, 2])
    def test_normals_follow_the_rule(self, seed):
        stream = SplitMix64(seed)
        got = stream.normals(self.N)
        u = self.uniforms(seed, 2 * self.N)
        want = [self.normal(u1, u2) for u1, u2 in zip(u[0::2], u[1::2])]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert stream.position == 2 * self.N

    @pytest.mark.parametrize("shape", [1.0, 4.0, 0.5])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_gammas_follow_the_rule(self, seed, shape):
        stream = SplitMix64(seed)
        got = stream.gammas(shape, self.N)
        want, used = self.gammas(seed, shape, self.N)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert stream.position == used


def _stream_digest(batch) -> str:
    digest = hashlib.sha256(batch.values.tobytes())
    if batch.texture is not None:
        digest.update(batch.texture.tobytes())
    return digest.hexdigest()


def _drawn(n):
    """Every sampler's draws, with the stream position after each."""
    stream, out = SplitMix64(3), []
    for draw in (lambda: stream.gammas(4.0, n), lambda: stream.gammas(0.5, n),
                 lambda: stream.normals(n), lambda: stream.uniform_open(n)):
        out.append((draw().tobytes(), stream.position))
    out += [_stream_digest(sample(spec, n, 5)) for spec in STREAM_SPECS.values()]
    return out


class TestBlockedStreams:
    """The samplers run in blocks of sampling._BLOCK; no block size may
    move a value or the stream position."""

    @pytest.mark.parametrize("name", list(STREAM_SPECS))
    def test_streams_match_the_recorded_digests(self, name):
        block = sampling._BLOCK
        for n in (1, block - 1, block, block + 1, 3 * block + 7):
            batch = sample(STREAM_SPECS[name], n, STREAM_PINS["seed"])
            assert _stream_digest(batch) == \
                STREAM_PINS["digests"][f"{name}/{n}"], n

    @pytest.mark.parametrize("block, n", [(1, 300), (7, 2000),
                                          (2**20, 3 * 16384 + 7)])
    def test_block_size_moves_nothing(self, monkeypatch, block, n):
        want = _drawn(n)
        monkeypatch.setattr(sampling, "_BLOCK", block)
        assert _drawn(n) == want

    def test_gamma_position_is_three_words_per_trial(self):
        # trial j reads words 3j..3j+2 and the call stops at the n-th
        # acceptance, whatever the blocks
        stream = SplitMix64(3)
        stream.gammas(4.0, 1000)
        assert stream.position == 3030
        stream = SplitMix64(3)
        stream.gammas(0.5, 1000)   # 3096 words at shape 1.5, then 1000
        assert stream.position == 4096


class TestSampleDeterminism:
    def test_identical_batches(self):
        for spec in (dist.GammaPower(4.0, 1.0), dist.KAmplitude(2.0, 1.0)):
            one = sample(spec, 500, 7)
            two = sample(spec, 500, 7)
            assert np.array_equal(one.values, two.values)
            if one.texture is not None:
                assert np.array_equal(one.texture, two.texture)

    def test_prefix_property(self):
        spec = dist.GammaGamma(4.0, 2.0, 1.0)
        short = sample(spec, 100, 3)
        long = sample(spec, 1000, 3)
        assert np.array_equal(short.values, long.values[:100])

    def test_batches_are_read_only(self):
        batch = sample(dist.GammaPower(1.0, 1.0), 10, 1)
        with pytest.raises(ValueError):
            batch.values[0] = 0.0

    def test_a_shorter_texture_is_refused(self):
        with pytest.raises(ValueError,
                           match="texture must match values in length"):
            SampleBatch(np.ones(3), np.ones(2))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample(dist.GammaPower(1.0, 1.0), 0, 1)
        with pytest.raises(ValueError):
            sample_compound(dist.GammaPower(1.0, 1.0),
                            dist.GammaPower(2.0, 1.0), 0, 1)


class TestLawsPastTheDoubles:
    """A law the sampler cannot draw is refused, and nothing warns."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fields", [(1e-320, 1.0), (1e-10, 1e300)])
    def test_a_form_past_the_doubles_is_refused(self, fields):
        # these once wrote nan draws; such a spec is refused where it is
        # made, so no sampler is given one
        with pytest.raises(ValueError, match=r"^gamma: canonical scale inf "
                           r".* is outside the double range$"):
            dist.GammaPower(*fields)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec, bad", [
        (dist.Maxwell(1e308), 2), (dist.Fisher(1.0, 1e-320, 1.0), 5)])
    def test_a_non_finite_draw_is_refused(self, spec, bad):
        # these wrote inf draws
        with pytest.raises(OverflowError, match=rf"^{bad} of 5 draws are "
                           r"outside the double range \(0, inf or nan\)$"):
            sample(spec, 5, 1)

    @pytest.mark.parametrize("scale, zeros", [(1.0, 66), (1e-300, 55_880)])
    def test_a_draw_that_rounds_to_0_is_refused(self, scale, zeros):
        # these wrote zeros, which estimate refuses
        with pytest.raises(OverflowError, match=rf"^{zeros} of 100000 draws"):
            sample(dist.GammaPower(0.01, scale), 10**5, 1)

    @pytest.mark.filterwarnings("error")
    def test_a_non_finite_product_is_refused(self):
        # each factor is finite, their product is not
        with pytest.raises(OverflowError, match="^5 of 5 draws"):
            sample_compound(dist.GammaPower(1.0, 1e300),
                            dist.GammaPower(1.0, 1e300), 5, 1)


class TestProductModel:
    def test_reconstruction_exact(self):
        for spec in (dist.GammaGamma(4.0, 2.0, 1.0),
                     dist.KAmplitude(2.0, 1.0),
                     dist.WeibullNakagami(2.0, 2.0, 1.0),
                     dist.Fisher(3.0, 4.0, 1.0)):
            speckle, texture = dist.components(spec)
            batch = sample(spec, 2000, 11)
            u = sample(speckle, 2000, 11).values
            z = sample(texture, 2000, 11 ^ TEXTURE_SEED_XOR).values
            assert np.array_equal(batch.values, u * z)
            assert np.array_equal(batch.texture, z)

    def test_compound_component_rejected(self):
        with pytest.raises(ValueError, match="simple family"):
            sample_compound(dist.GammaGamma(4.0, 2.0, 1.0),
                            dist.GammaPower(2.0, 1.0), 10, 1)

    @pytest.mark.parametrize("speckle,texture,message", [
        (dist.GammaGamma(4.0, 2.0, 1.0), dist.GammaPower(2.0, 1.0),
         "speckle component must be a simple family, got ggamma"),
        (dist.GammaPower(2.0, 1.0), dist.KAmplitude(2.0, 1.0),
         "texture component must be a simple family, got k"),
    ], ids=["speckle", "texture"])
    def test_compound_component_message(self, speckle, texture, message):
        with pytest.raises(ValueError) as info:
            sample_compound(speckle, texture, 10, 1)
        assert str(info.value) == message

    def test_degenerate_texture_reduces_to_speckle(self):
        # texture concentrated at 1 leaves the speckle log-variance
        speckle = dist.GammaPower(4.0, 1.0)
        texture = dist.Nakagami(1e4, 1.0)
        batch = sample_compound(speckle, texture, 10**5, 29)
        stats = empirical_log_stats(batch.values, 2)
        want = dist.log_cumulants_analytic(speckle, 2)[1]
        assert stats.log_cumulants[1] == pytest.approx(
            want, abs=4.0 * stats.std_errors[1] + 1e-4)

    def test_ggamma_mean_is_mu(self):
        batch = sample(dist.GammaGamma(4.0, 2.0, 1.0), 10**6, 101)
        se = float(batch.values.std()) / math.sqrt(batch.values.size)
        assert abs(float(batch.values.mean()) - 1.0) <= 3.0 * se


class TestMomentAgreement:
    @pytest.mark.parametrize("spec", MC_FAMILY_SPECS,
                             ids=[dist.family_tag(s) for s in MC_FAMILY_SPECS])
    def test_classical_moments_within_4se(self, spec):
        n = 10**6
        seed = MC_BASE_SEED + MC_FAMILY_SPECS.index(spec)
        x = sample(spec, n, seed).values
        for order in (1, 2):
            if isinstance(spec, dist.Fisher) and order == 2 and spec.M <= 2:
                continue
            want = dist.classical_moment(spec, order)
            powers = x ** order
            se = float(powers.std()) / math.sqrt(n)
            assert abs(float(powers.mean()) - want) <= 4.0 * se, order

    def test_fisher_heavy_tail_skip_rule(self):
        # with M <= 2 the second moment diverges; the rule is to skip it,
        # while the first moment still converges
        spec = dist.Fisher(3.0, 1.5, 1.0)
        x = sample(spec, 10**6, 77).values
        want = dist.classical_moment(spec, 1)
        se = float(x.std()) / math.sqrt(x.size)
        assert abs(float(x.mean()) - want) <= 4.0 * se
        with pytest.raises(dist.MomentDoesNotExistError):
            dist.classical_moment(spec, 2)

    @pytest.mark.parametrize("spec", MC_FAMILY_SPECS,
                             ids=[dist.family_tag(s) for s in MC_FAMILY_SPECS])
    def test_log_cumulants_within_4se(self, spec):
        # the decisive arbitration: empirical log-cumulants side with the
        # full-derivative analytic forms for every family
        seed = MC_BASE_SEED + 100 + MC_FAMILY_SPECS.index(spec)
        stats = empirical_log_stats(sample(spec, 10**6, seed).values, 4)
        analytic = dist.log_cumulants_analytic(spec, 4)
        for i in range(4):
            z = abs(stats.log_cumulants[i] - analytic[i]) / stats.std_errors[i]
            assert z <= 4.0, (i + 1, z)


def quadrature_cdf(spec, xs):
    """CDF at sorted sample points by panel-integrating the density."""
    lo, hi = float(xs[0]), float(xs[-1])
    edges = np.concatenate([[0.0], np.geomspace(max(lo, 1e-12), hi, 1200)])
    f = lambda t: dist.pdf(spec, t)
    masses = np.array([gk15(f, a, b)[0] for a, b in zip(edges[:-1], edges[1:])])
    grid_cdf = np.concatenate([[0.0], np.cumsum(masses)])
    return np.interp(xs, edges, grid_cdf)


class TestKolmogorovSmirnov:
    @pytest.mark.parametrize("spec", MC_FAMILY_SPECS,
                             ids=[dist.family_tag(s) for s in MC_FAMILY_SPECS])
    def test_ks_below_one_percent_critical(self, spec):
        n = 10**5
        seed = MC_BASE_SEED + 500 + MC_FAMILY_SPECS.index(spec)
        x = np.sort(sample(spec, n, seed).values)
        cdf = quadrature_cdf(spec, x)
        ranks = np.arange(1, n + 1)
        statistic = max(float(np.max(ranks / n - cdf)),
                        float(np.max(cdf - (ranks - 1) / n)))
        critical = 1.6276 / math.sqrt(n)   # asymptotic 1% point
        assert statistic < critical, statistic
