"""Seeded, reproducible random generation for every catalog family.

The raw generator is splitmix64, implemented here rather than taken from a
library so the exact stream is pinned by this file alone and reproducible
in any language:

    state_k = seed + (k+1) * 0x9E3779B97F4A7C15      (mod 2^64)
    out_k   = mix(state_k)
    mix(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
             z ^= z >> 27;  z *= 0x94D049BB133111EB
             z ^= z >> 31

Because output k is a pure function of (seed, k) the whole stream
vectorizes; test vectors live in tests/golden/specfun_golden.json
(seed 0 starts e220a8397b1dcdaf, 6e789e6aa1b965f4, ...).

Derived variates consume the raw stream in a fixed documented order:

* uniform:  1 raw word, ((raw >> 11) + 0.5) * 2^-53, strictly inside (0, 1)
* normal:   2 raw words (Box-Muller, cosine branch only)
* gamma shape >= 1: Marsaglia-Tsang trials; trial j consumes exactly the
  raw words 3j, 3j+1, 3j+2 (normal from the first two, acceptance uniform
  from the third) and the outputs are the accepted subsequence, so the
  draw sequence is independent of internal batching
* gamma shape < 1: all n draws at shape+1 first, then n boost uniforms

Every sampler works in blocks of at most ``_BLOCK`` values (Marsaglia-Tsang
trials for the gammas), so its temporaries stay cache-sized whatever n is.
Since each raw word is a pure function of its index and every derived
variate is elementwise, the block size moves neither the values nor the
stream position.

How a block computes is not part of the stream rule, and the rule above is
unchanged by it: each block mixes its counters in place, forms its
uniforms in the raw words' own buffer, and runs the Marsaglia-Tsang test
on every trial, rejecting those with ``v <= 0`` after it.  Every value,
and the words each trial reads, are those of the rule.

Compound families draw speckle from the stream seeded with ``seed`` and
texture from the stream seeded with ``seed XOR TEXTURE_SEED_XOR``, so the
component batches can be reproduced standalone with those seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .specfun import check_integer

__all__ = ["SplitMix64", "SampleBatch", "sample", "sample_compound",
           "SPLITMIX64_GAMMA", "TEXTURE_SEED_XOR"]

SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
# arbitrary fixed odd constant splitting speckle and texture streams
TEXTURE_SEED_XOR = 0x5851F42D4C957F2D
_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi
_BLOCK = 16384   # values (or gamma trials) per block: about 128 KiB a temporary


def _fill(n: int, draw) -> np.ndarray:
    """n values in order from ``draw(k)``, called with k = min(_BLOCK, the
    values still wanted) until n are in; each call returns at most k values,
    the next ones of the stream it reads, so no draw needs its position."""
    out = np.empty(n)
    start = 0
    while start < n:
        got = draw(min(_BLOCK, n - start))
        out[start:start + got.size] = got
        start += got.size
    return out


class SplitMix64:
    """Counter-based splitmix64 stream over numpy uint64."""

    def __init__(self, seed: int):
        self.seed = check_integer(seed, "seed") & _MASK64
        self.position = 0

    def raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words."""
        n = check_integer(n, "count", 0)
        z = np.arange(self.position + 1, self.position + n + 1,
                      dtype=np.uint64)
        self.position += n
        # the mix, in place on the counters with one shift buffer
        z *= np.uint64(SPLITMIX64_GAMMA)
        z += np.uint64(self.seed)
        shifted = np.empty_like(z)
        for shift, factor in ((30, 0xBF58476D1CE4E5B9),
                              (27, 0x94D049BB133111EB)):
            z ^= np.right_shift(z, np.uint64(shift), out=shifted)
            z *= np.uint64(factor)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        return z

    @staticmethod
    def _to_uniform(raw: np.ndarray) -> np.ndarray:
        """The uniforms of fresh raw words, formed in their buffer."""
        raw >>= np.uint64(11)
        u = np.add(raw, 0.5, out=raw.view(np.float64))
        u *= _INV_2_53
        return u

    def uniform_open(self, n: int) -> np.ndarray:
        """n uniforms strictly inside (0, 1)."""
        return _fill(check_integer(n, "count", 0),
                     lambda k: self._to_uniform(self.raw(k)))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals; consumes 2n raw words."""
        def draw(k):
            u = self._to_uniform(self.raw(2 * k))
            return np.sqrt(-2.0 * np.log(u[0::2])) * np.cos(_TWO_PI * u[1::2])
        return _fill(check_integer(n, "count", 0), draw)

    def gammas(self, shape: float, n: int) -> np.ndarray:
        """n gamma(shape, scale=1) draws."""
        if not (0.0 < shape < math.inf):
            raise ValueError(f"gamma shape must be positive and finite, "
                             f"got {shape!r}")
        n = check_integer(n, "count", 0)
        if shape < 1.0:
            # boost transform: draw at shape+1, times U^(1/shape) in place
            base = self.gammas(shape + 1.0, n)
            power = 1.0 / shape
            for start in range(0, n, _BLOCK):
                k = min(_BLOCK, n - start)
                base[start:start + k] *= self._to_uniform(self.raw(k)) ** power
            return base
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)

        def trials(k):
            # one row per word of a trial, so each variate is contiguous
            u1, u2, u = self._to_uniform(self.raw(3 * k).reshape(k, 3).T
                                         .copy())
            w = np.multiply(u2, _TWO_PI)
            np.cos(w, out=w)
            x = np.log(u1)
            x *= -2.0
            np.sqrt(x, out=x)
            x *= w
            v = c * x
            v += 1.0
            v **= 3
            # log u < x^2 / 2 + d - d v + d log v on every trial; one with
            # v <= 0 gets nan or -inf from log v and is rejected after it
            x **= 2
            x *= 0.5
            x += d
            x -= np.multiply(v, d, out=w)
            with np.errstate(invalid="ignore", divide="ignore"):
                np.log(v, out=w)
            w *= d
            x += w
            accept = np.log(u, out=w) < x
            accept &= v > 0.0
            v = v[accept]
            v *= d
            return v
        return _fill(n, trials)


@dataclass(frozen=True)
class SampleBatch:
    """Generated observations plus, for compound draws, the hidden texture."""
    values: np.ndarray
    texture: np.ndarray | None = None

    def __post_init__(self):
        self.values.flags.writeable = False
        if self.texture is not None:
            self.texture.flags.writeable = False
            if self.texture.shape != self.values.shape:
                raise ValueError("texture must match values in length")


def _draw_simple(spec: dist.DistributionSpec, stream: SplitMix64,
                 n: int) -> np.ndarray:
    """Callers pass only simple specs (``sample`` asks ``components`` and
    ``sample_compound`` runs ``check_simple``); the match covers all six."""
    # each fresh draw is scaled in place, so a batch holds one array of n
    match spec:
        case dist.GammaPower(L=L, mu=mu):
            g = stream.gammas(L, n)
            g *= mu / L
            return g
        case dist.Nakagami(L=L, mu=mu):
            g = stream.gammas(L, n)
            g /= L
            np.sqrt(g, out=g)
            g *= mu
            return g
        case dist.Maxwell(sigma=sigma):
            def draw(k):
                z = stream.normals(3 * k)
                return sigma * np.sqrt(z[0::3] ** 2 + z[1::3] ** 2
                                       + z[2::3] ** 2)
            return _fill(n, draw)
        case dist.Weibull(z=z, b=b):
            return _fill(n, lambda k: z * (-np.log(
                stream.uniform_open(k))) ** (1.0 / b))
        case dist.Rayleigh(z=z):
            return _draw_simple(dist.Weibull(z, 2.0), stream, n)
        case dist.InverseGamma(shape=a, scale=scale):
            g = stream.gammas(a, n)
            return np.divide(scale, g, out=g)


def _finite(values: np.ndarray) -> np.ndarray:
    """``values``, or OverflowError counting those outside the doubles:
    draws are >= 0, and inf and nan are nonzero, so none counts twice."""
    bad = (2 * values.size - np.count_nonzero(np.isfinite(values))
           - np.count_nonzero(values))
    if bad:
        raise OverflowError(f"{bad} of {values.size} draws are outside the "
                            "double range (0, inf or nan)")
    return values


def sample(spec: dist.DistributionSpec, n: int, seed: int) -> SampleBatch:
    """n independent draws; deterministic for fixed (spec, n, seed).

    Compound families draw hidden texture z and speckle u on split streams
    and return x = u * z with the texture retained in the batch.  A batch
    with a draw of 0, inf or nan raises OverflowError.
    """
    n = check_integer(n, "sample count", 1)
    comps = dist.components(spec)
    if comps is not None:
        return sample_compound(*comps, n, seed)
    with np.errstate(all="ignore"):
        values = _draw_simple(spec, SplitMix64(seed), n)
    return SampleBatch(_finite(values))


def sample_compound(speckle: dist.DistributionSpec,
                    texture: dist.DistributionSpec,
                    n: int, seed: int) -> SampleBatch:
    """Product-model draws x_i = u_i * z_i from two simple component families.

    The speckle stream is seeded with ``seed`` and the texture stream with
    ``seed XOR TEXTURE_SEED_XOR``, so each factor batch is reproducible on
    its own.  Each component must be simple (``check_simple``), and an
    x of 0, inf or nan (so also such a z) is refused, as in ``sample``.
    """
    n = check_integer(n, "sample count", 1)
    dist.check_simple(speckle, "speckle component")
    dist.check_simple(texture, "texture component")
    speckle_stream = SplitMix64(seed)
    texture_stream = SplitMix64(speckle_stream.seed ^ TEXTURE_SEED_XOR)
    with np.errstate(all="ignore"):
        u = _draw_simple(speckle, speckle_stream, n)
        z = _draw_simple(texture, texture_stream, n)
        u *= z   # x = u * z, formed in the speckle draw's own array
    return SampleBatch(_finite(u), z)
