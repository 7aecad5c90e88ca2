"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
per-criterion lines immediately).
"""

import time
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from clutterstats import distributions as dist
from clutterstats import verify
from clutterstats.cli import main as cli_main
from clutterstats.estimation import empirical_log_stats, fit_molc
from clutterstats.mellin import LogStats
from clutterstats.sampling import sample
from clutterstats.sweep import texture_sweep


def report(criterion: str, passed: bool, detail: str, elapsed: float,
           budget: float | None = None) -> None:
    status = "PASS" if passed else "FAIL"
    budget_note = f" (budget {budget:.0f}s)" if budget else ""
    print(f"[{status}] {criterion}: {detail}  [{elapsed:.1f}s{budget_note}]")


def run_outcomes(criterion, outcomes, started, budget):
    elapsed = time.time() - started
    worst = max(outcomes, key=lambda o: o.max_error / max(o.threshold, 1e-300))
    ok = all(o.passed for o in outcomes) and elapsed < budget
    report(criterion, ok,
           f"{sum(o.passed for o in outcomes)}/{len(outcomes)} checks, "
           f"worst {worst.name}/{worst.target} err={worst.max_error:.2e} "
           f"gate={worst.threshold:.0e}", elapsed, budget)
    assert all(o.passed for o in outcomes), [o.line() for o in outcomes
                                             if not o.passed]
    assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"


@pytest.fixture(scope="module")
def tables():
    """The transform tables of every PARAM_GRID spec, built once for the
    three quadrature criteria."""
    return verify.transform_tables()


def test_criterion_1_normalization(tables):
    t0 = time.time()
    outcomes = verify.normalization_checks(tables)
    assert len(outcomes) == 9
    assert {o.threshold for o in outcomes} == {1e-6}
    assert all(len(verify.PARAM_GRID[f]) >= 5 for f in verify.PARAM_GRID)
    run_outcomes("A1 normalization", outcomes, t0, 30.0)


def test_criterion_2_transform_agreement(tables):
    t0 = time.time()
    outcomes = verify.transform_agreement_checks(tables)
    assert len(outcomes) == 9
    assert {o.threshold for o in outcomes} == {1e-6}
    run_outcomes("A2 transform agreement", outcomes, t0, 120.0)


def test_criterion_3_convolution_product(tables):
    t0 = time.time()
    outcomes = verify.convolution_checks(tables)
    assert sorted(o.target for o in outcomes) == ["fisher", "ggamma", "k",
                                                  "wnak"]
    assert {o.threshold for o in outcomes} == {1e-5}
    run_outcomes("A3 convolution product", outcomes, t0, 120.0)


def test_criterion_4_cumulant_algebra():
    t0 = time.time()
    outcomes = verify.cumulant_algebra_checks()
    assert outcomes[0].target == "10000 vectors"
    assert [o.threshold for o in outcomes] == [1e-12, 0.0, 0.0]
    run_outcomes("A4 cumulant algebra", outcomes, t0, 60.0)


def test_criterion_5_monte_carlo_agreement():
    t0 = time.time()
    outcomes = verify.monte_carlo_checks()
    assert len(outcomes) == 5
    assert {o.threshold for o in outcomes} == {4.0}
    run_outcomes("A5 Monte-Carlo cumulants", outcomes, t0, 120.0)


def test_criterion_6_known_constants():
    t0 = time.time()
    outcomes = verify.known_constant_checks()
    assert [o.threshold for o in outcomes] == [1e-10, 1e-10, 0.0]
    run_outcomes("A6 known constants", outcomes, t0, 10.0)


NOISELESS_GRID = [
    ("gamma", dist.GammaPower(4.0, 1.0)), ("gamma", dist.GammaPower(0.5, 3.0)),
    ("nakagami", dist.Nakagami(3.0, 2.0)), ("maxwell", dist.Maxwell(1.5)),
    ("weibull", dist.Weibull(1.0, 2.0)), ("weibull", dist.Weibull(2.0, 0.8)),
    ("rayleigh", dist.Rayleigh(2.0)),
    ("k", dist.KAmplitude(2.0, 1.0)), ("k", dist.KAmplitude(0.75, 3.0)),
    ("ggamma", dist.GammaGamma(4.0, 2.0, 1.0)),
    ("ggamma", dist.GammaGamma(1.0, 6.0, 2.0)),
    ("fisher", dist.Fisher(3.0, 4.0, 1.0)), ("fisher", dist.Fisher(1.0, 2.5, 2.0)),
    ("wnak", dist.WeibullNakagami(2.0, 2.0, 1.0)),
    ("wnak", dist.WeibullNakagami(0.9, 4.0, 2.0)),
]

STATISTICAL_GRID = [
    ("gamma", dist.GammaPower(4.0, 1.0), 2, 0.05),
    ("nakagami", dist.Nakagami(3.0, 2.0), 2, 0.05),
    ("maxwell", dist.Maxwell(1.5), 1, 0.05),
    ("weibull", dist.Weibull(1.0, 2.0), 2, 0.05),
    ("rayleigh", dist.Rayleigh(2.0), 1, 0.05),
    ("k", dist.KAmplitude(2.0, 1.0), 2, 0.05),
    ("ggamma", dist.GammaGamma(4.0, 2.0, 1.0), 4, 0.10),
    ("fisher", dist.Fisher(3.0, 4.0, 1.0), 4, 0.10),
    ("wnak", dist.WeibullNakagami(2.0, 2.0, 1.0), 4, 0.10),
]


def _canonical(tag, spec):
    params = np.array(astuple(spec))
    if tag == "ggamma":
        params = np.array([min(params[0], params[1]),
                           max(params[0], params[1]), params[2]])
    return params


def test_criterion_7_molc_round_trips():
    t0 = time.time()
    worst_noiseless = 0.0
    for tag, spec in NOISELESS_GRID:
        stats = LogStats.from_cumulants(dist.log_cumulants_analytic(spec, 4))
        fit = fit_molc(tag, stats)
        rel = float(np.max(np.abs(_canonical(tag, fit.spec)
                                  - _canonical(tag, spec))
                           / np.abs(_canonical(tag, spec))))
        worst_noiseless = max(worst_noiseless, rel)
    noiseless_ok = worst_noiseless <= 1e-6

    worst_statistical = 0.0
    statistical_ok = True
    for seed in (1, 2, 3):
        for tag, spec, n_max, limit in STATISTICAL_GRID:
            stats = empirical_log_stats(sample(spec, 10**6, seed).values,
                                        n_max)
            fit = fit_molc(tag, stats)
            rel = float(np.max(np.abs(_canonical(tag, fit.spec)
                                      - _canonical(tag, spec))
                               / np.abs(_canonical(tag, spec))))
            worst_statistical = max(worst_statistical, rel / limit)
            statistical_ok &= rel <= limit
    elapsed = time.time() - t0
    ok = noiseless_ok and statistical_ok and elapsed < 180.0
    report("A7 MoLC round trips", ok,
           f"noiseless worst rel={worst_noiseless:.2e} (gate 1e-6); "
           f"statistical worst rel/limit={worst_statistical:.2f} "
           "(seeds 1..3, 5%/10% gates)", elapsed, 180.0)
    assert noiseless_ok and statistical_ok
    assert elapsed < 180.0


def _spearman(a, b) -> float:
    rank_a = np.argsort(np.argsort(a)).astype(float)
    rank_b = np.argsort(np.argsort(b)).astype(float)
    return float(np.corrcoef(rank_a, rank_b)[0, 1])


def test_criterion_8_texture_sweep_properties():
    t0 = time.time()
    rows = texture_sweep()   # documented defaults
    by_order = {2: sorted((r for r in rows if r.order == 2),
                          key=lambda r: r.M),
                4: sorted((r for r in rows if r.order == 4),
                          key=lambda r: r.M)}

    # decay of the texture cumulants toward zero over M in [1, 20]
    tail2 = [r for r in by_order[2] if r.M >= 1.0]
    tail4 = [r for r in by_order[4] if r.M >= 1.0]
    rho2 = _spearman(np.array([r.M for r in tail2]),
                     np.array([r.logcumulant_texture_est for r in tail2]))
    rho4 = _spearman(np.array([r.M for r in tail4]),
                     np.array([abs(r.logcumulant_texture_est) for r in tail4]))

    z_max = max(abs(r.logcumulant_texture_est
                    - r.logcumulant_texture_analytic) / r.stderr
                for r in rows)

    half = min(by_order[2], key=lambda r: abs(r.M - 0.5))
    top = by_order[2][-1]
    ratio = half.logcumulant_texture_est / top.logcumulant_texture_est

    elapsed = time.time() - t0
    ok = rho2 < -0.95 and rho4 < -0.95 and z_max <= 3.0 and ratio >= 10.0 \
        and elapsed < 300.0
    report("A8 texture sweep", ok,
           f"spearman(k2)={rho2:.3f} spearman(|k4|)={rho4:.3f} "
           f"max|z|={z_max:.2f} spike ratio={ratio:.0f}", elapsed, 300.0)
    assert rho2 < -0.95 and rho4 < -0.95
    assert z_max <= 3.0
    assert ratio >= 10.0
    assert elapsed < 300.0


# `clutterstats verify` stdout at the default seed 411
VERIFY_GOLDEN = Path(__file__).parent / "golden" / "verify_seed411.txt"


def test_criterion_9_verify_command_exits_zero(capsys):
    """The default suite passes, and its stdout is byte-identical to the
    recorded run.  Like the stream pins in ``test_sampling``, the record
    assumes numpy's AVX-512 (X86_V4) kernels, which round some elementwise
    functions differently from libm: with them switched off the last
    digits of several quadrature ``max_err`` values move."""
    t0 = time.time()
    code = cli_main(["verify"])
    out = capsys.readouterr().out
    elapsed = time.time() - t0
    report("A9 verify command", code == 0,
           f"exit code {code}; {out.strip().splitlines()[-1]}", elapsed)
    assert code == 0
    assert "[FAIL]" not in out
    assert out == VERIFY_GOLDEN.read_text()
