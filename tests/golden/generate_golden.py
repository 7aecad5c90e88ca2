#!/usr/bin/env python3
"""Regenerate specfun_golden.json.

Reference values are computed with mpmath at 50 significant digits and
rounded to the nearest double.  Before writing anything, the script
cross-checks mpmath against brute-force series / closed forms / direct
quadrature, so a regression in mpmath itself would be caught here rather
than silently poisoning the golden table.

Run from the repository root:

    python tests/golden/generate_golden.py

The output file is committed; tests never import mpmath.
"""

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50

OUT_PATH = Path(__file__).with_name("specfun_golden.json")

SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64_outputs(seed: int, count: int) -> list[int]:
    """Pure-integer splitmix64, independent of the numpy implementation."""
    out = []
    state = seed & _MASK
    for _ in range(count):
        state = (state + SPLITMIX64_GAMMA) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def check_reference_sanity() -> None:
    # trigamma(1) against the brute-force series sum_k 1/k^2 with an
    # Euler-Maclaurin tail, all in 50-digit arithmetic
    n = 20000
    s = mp.fsum(mp.mpf(1) / (k * k) for k in range(1, n + 1))
    tail = mp.mpf(1) / n - 1 / (2 * mp.mpf(n) ** 2) + 1 / (6 * mp.mpf(n) ** 3) \
        - 1 / (30 * mp.mpf(n) ** 5) + 1 / (42 * mp.mpf(n) ** 7)
    assert abs(s + tail - mp.polygamma(1, 1)) < mp.mpf(10) ** -35
    # tetragamma(1) = -2 zeta(3), same style of series check
    s3 = mp.fsum(mp.mpf(1) / (k ** 3) for k in range(1, n + 1))
    tail3 = 1 / (2 * mp.mpf(n) ** 2) - 1 / (2 * mp.mpf(n) ** 3) + 1 / (4 * mp.mpf(n) ** 4) \
        - 1 / (12 * mp.mpf(n) ** 6)
    assert abs(-2 * (s3 + tail3) - mp.polygamma(2, 1)) < mp.mpf(10) ** -35
    # digamma(1) = -Euler constant, loggamma(1/2) = log sqrt(pi)
    assert abs(mp.digamma(1) + mp.euler) < mp.mpf(10) ** -45
    assert abs(mp.loggamma(mp.mpf(1) / 2) - mp.log(mp.sqrt(mp.pi))) < mp.mpf(10) ** -45
    # besselk against the integral representation and the half-order closed form;
    # t = 25 already puts the integrand far below the working precision, and a
    # finite window keeps tanh-sinh from probing cosh at astronomical t
    for nu, x in [(0.0, 1.0), (2.7, 0.3), (8.0, 12.0)]:
        direct = mp.quad(lambda t: mp.exp(-x * mp.cosh(t)) * mp.cosh(nu * t), [0, 25])
        assert abs(direct - mp.besselk(nu, x)) / mp.besselk(nu, x) < mp.mpf(10) ** -35
    for x in [0.05, 1.0, 9.0]:
        closed = mp.sqrt(mp.pi / (2 * mp.mpf(x))) * mp.exp(-mp.mpf(x))
        assert abs(closed - mp.besselk(mp.mpf(1) / 2, x)) / closed < mp.mpf(10) ** -45
    # the Weibull-Nakagami integral at c = 2 is the K density
    # 4 b^((alpha+1)/2) r^alpha K_(alpha-1)(2 sqrt(b) r) / Gamma(alpha)
    for alpha, b, r in [(0.6, 0.5, 0.3), (2.5, 2.0, 1.7), (7.0, 1.0, 4.0)]:
        want = k_pdf(alpha, b, r)
        assert abs(wnak_pdf(2, alpha, b, r) - want) / want < mp.mpf(10) ** -35


def k_pdf(alpha, b, r):
    """K amplitude density 4 b^((alpha+1)/2) r^alpha K_(alpha-1)(2 sqrt(b) r)
    / Gamma(alpha)."""
    alpha, b, r = mp.mpf(alpha), mp.mpf(b), mp.mpf(r)
    return 4 * b ** ((alpha + 1) / 2) * r ** alpha \
        * mp.besselk(alpha - 1, 2 * mp.sqrt(b) * r) / mp.gamma(alpha)


def wnak_pdf(c, alpha, b, r):
    """Weibull-Nakagami density: the Weibull(z, c) density at r mixed over
    a Nakagami texture z (z^2 gamma with shape alpha and rate b), written as
    an integral over u = log z.  The integral runs between the points where
    the integrand fell by e^-200 on each side of its peak, split at powers
    of two times the peak's width."""
    c, alpha, b, r = (mp.mpf(v) for v in (c, alpha, b, r))
    log_r = mp.log(r)

    def p(u):
        return (2 * alpha - c) * u - mp.exp(c * (log_r - u)) - b * mp.exp(2 * u)

    def dp(u):
        return (2 * alpha - c) + c * mp.exp(c * (log_r - u)) - 2 * b * mp.exp(2 * u)

    start = (c * log_r + mp.log(c / (2 * b))) / (c + 2)
    span = mp.mpf(1)
    while dp(start - span) <= 0 or dp(start + span) >= 0:
        span *= 2
    peak = mp.findroot(dp, (start - span, start + span), solver="illinois",
                       verify=False)
    width = 1 / mp.sqrt(c * c * mp.exp(c * (log_r - peak)) + 4 * b * mp.exp(2 * peak))
    p_max = p(peak)
    edges = [peak]
    for side in (-1, 1):
        k = 1
        while p(peak + side * k * width) - p_max > -200:
            edges.append(peak + side * k * width)
            k *= 2
        edges.append(peak + side * k * width)
    mass = mp.quad(lambda u: mp.exp(p(u) - p_max), sorted(edges))
    return 2 * c * b ** alpha / mp.gamma(alpha) * r ** (c - 1) * mp.exp(p_max) * mass


def build_tables() -> dict:
    lg_points = [1e-3, 0.01, 0.05, 0.123, 0.25, 0.5, 0.75, 1.25, 1.4616, 1.5,
                 2.5, 3.7, 5.0, 8.0, 10.0, 14.5, 42.5, 1e2, 317.0, 1e3,
                 4321.0, 1e4, 1e5, 1e6]
    dg_points = [1e-3, 0.01, 0.05, 0.123, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5,
                 2.0, 2.5, 3.7, 5.0, 8.0, 10.0, 14.5, 42.5, 1e2, 317.0,
                 1e3, 1e4, 1e5, 1e6]
    pg_x = [1e-3, 0.05, 0.5, 1.0, 2.5, 7.3, 10.0, 55.0, 1e3, 1e6]
    bk_pairs = [
        (0.0, 1e-4), (0.0, 0.1), (0.0, 1.0), (0.0, 10.0), (0.0, 50.0),
        (0.3, 0.01), (0.3, 2.0), (0.5, 1.0), (0.5, 30.0),
        (1.0, 1e-3), (1.0, 0.5), (1.0, 5.0), (1.5, 2.0),
        (2.0, 1.0), (2.7, 0.05), (2.7, 3.0), (4.0, 0.2),
        (5.0, 1.0), (5.0, 20.0), (8.5, 0.5), (8.5, 15.0),
        (12.0, 0.01), (12.0, 4.0), (12.0, 50.0),
        (20.0, 1e-4), (20.0, 1.0), (20.0, 12.0), (20.0, 50.0),
    ]
    # log K where K itself leaves the double range or the kernel's grid
    # runs widest: x from 1e-90 to 1e18, including a near-zero order; then
    # x up to the top of the double range, where x cosh t overflows
    log_bk_pairs = [
        (0.01, 1e-18), (0.01, 1e17), (0.0, 1e-90), (3.05, 1.6),
        (20.0, 1e-90), (60.0, 1e-90), (60.0, 1e18),
    ] + [(nu, x) for nu in (0.0, 20.0) for x in (1e250, 2e304, 1e307, 1.7e308)]
    # the last point has its peak far from where the two exponentials of
    # the integrand balance (small c, large alpha)
    wn_points = [(c, alpha, b, r) for c in (0.8, 1.0, 3.0)
                 for alpha, b in ((0.6, 0.5), (2.5, 2.0))
                 for r in (0.05, 0.5, 1.5, 4.0)] + [(0.05, 100.0, 1e-6, 1.0)]
    # the K amplitude density 4 b^((alpha+1)/2) r^alpha K_(alpha-1)(2 sqrt(b) r)
    # / Gamma(alpha) from 1e-3 to 10 times its RMS amplitude sqrt(alpha / b)
    k_points = [(alpha, b, q * (alpha / b) ** 0.5)
                for alpha in (0.2, 0.7, 1.0, 2.5, 7.0, 20.0)
                for b in (0.01, 1.0, 100.0) for q in (1e-3, 0.05, 1.0, 3.0, 10.0)]
    # polygamma at the orders past the table above that the package takes
    # (to MAX_ORDER = 8, the cap on every order) about x = 10, where the
    # asymptotic series needs a shift past y = 10
    pg_high = [(m, x) for m in range(6, 9) for x in (9.5, 10.0, 10.5)]
    tables = {
        "_generated_by": "tests/golden/generate_golden.py (mpmath, 50 digit working precision)",
        "ln_gamma": [[x, float(mp.loggamma(mp.mpf(x)))] for x in lg_points],
        "digamma": [[x, float(mp.digamma(mp.mpf(x)))] for x in dg_points],
        "polygamma": [[m, x, float(mp.polygamma(m, mp.mpf(x)))]
                      for m in range(1, 6) for x in pg_x],
        "bessel_k": [[nu, x, float(mp.besselk(nu, mp.mpf(x)))] for nu, x in bk_pairs],
        "log_bessel_k": [[nu, x, float(mp.log(mp.besselk(nu, mp.mpf(x))))]
                         for nu, x in log_bk_pairs],
        "wnak_pdf": [[c, alpha, b, r, float(wnak_pdf(c, alpha, b, r))]
                     for c, alpha, b, r in wn_points],
        "k_pdf": [[alpha, b, r, float(k_pdf(alpha, b, r))]
                  for alpha, b, r in k_points],
        "polygamma_high_order": [
            [m, x, float(v)] for m, x in pg_high
            for v in [mp.polygamma(m, mp.mpf(x))] if 1e-300 < abs(v) < 1e300],
        "splitmix64": {
            "seed_0": [hex(v) for v in splitmix64_outputs(0, 8)],
            "seed_42": [hex(v) for v in splitmix64_outputs(42, 8)],
            "seed_2**64-1": [hex(v) for v in splitmix64_outputs((1 << 64) - 1, 8)],
        },
    }
    return tables


def main() -> None:
    check_reference_sanity()
    tables = build_tables()
    OUT_PATH.write_text(json.dumps(tables, indent=1) + "\n")
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
