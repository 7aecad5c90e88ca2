"""Command-line surface.

Subcommands: ``table`` (analytic moments and log-cumulants), ``verify``
(oracle suite), ``sample`` (seeded CSV generation), ``estimate`` (MoLC fit
from a CSV), ``simulate`` (texture sweep with CSV and optional SVG).

Exit codes: 0 pass, 1 verification failure, 2 usage or I/O error,
3 estimation failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields

import numpy as np

from . import distributions as dist
from . import estimation, verify
from .sampling import sample
from .sweep import (default_m_grid, render_sweep_svg, texture_sweep,
                    write_sweep_csv)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_ESTIMATION = 3


class UsageError(ValueError):
    pass


def _parse_params(text: str) -> tuple[dict[str, float], str | None]:
    """'L=4,mu=1' -> ({'L': 4.0, 'mu': 1.0}, None); a family=... key is
    split off for the --speckle grammar."""
    params: dict[str, float] = {}
    family = None
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key == "family":
            family = value.strip()
            continue
        try:
            params[key] = float(value)
        except ValueError:
            raise UsageError(f"parameter {key!r} needs a numeric value, "
                             f"got {value!r}") from None
    return params, family


def _build_spec(family: str, params_text: str) -> dist.DistributionSpec:
    params, extra_family = _parse_params(params_text)
    if extra_family is not None:
        raise UsageError("family= belongs in --family, not --params")
    return dist.make_spec(family, params)


def _parse_m_grid(text: str) -> list[float]:
    parts = text.split(":")
    log_spaced = False
    if len(parts) == 4:
        if parts[3] != "log":
            raise UsageError(f"grid suffix must be 'log', got {parts[3]!r}")
        log_spaced = True
        parts = parts[:3]
    if len(parts) != 3:
        raise UsageError("--M-grid must be start:stop:count[:log]")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"bad --M-grid {text!r}") from None
    if not (0.0 < start < stop) or count < 2:
        raise UsageError("--M-grid needs 0 < start < stop and count >= 2")
    if log_spaced:
        return default_m_grid(start, stop, count)
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _read_csv_values(path: str) -> np.ndarray:
    """Values from a CSV file: the 'x' column when a header is present,
    otherwise the first column."""
    with open(path, "r", newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise UsageError(f"{path}: empty input")
    column = 0
    first_fields = lines[0].split(",")
    start = 0
    try:
        float(first_fields[min(1, len(first_fields) - 1)])
    except ValueError:
        names = [f.strip().lower() for f in first_fields]
        if "x" in names:
            column = names.index("x")
        start = 1
    values = []
    for ln in lines[start:]:
        parts = ln.split(",")
        try:
            values.append(float(parts[column]))
        except (ValueError, IndexError):
            raise UsageError(f"{path}: bad row {ln!r}") from None
    return np.asarray(values)


def _spec_text(spec: dist.DistributionSpec) -> str:
    inner = ", ".join(f"{f.name}={v:.12g}"
                      for f, v in zip(fields(spec), astuple(spec)))
    return f"{dist.family_tag(spec)}({inner})"


# subcommands ----------------------------------------------------------------

def _cmd_table(args) -> int:
    spec = _build_spec(args.family, args.params)
    orders = args.orders
    if not 1 <= orders <= 6:
        raise UsageError(f"--orders must be in [1, 6], got {orders}")
    print(f"family: {_spec_text(spec)}")
    print(f"{'n':>2s}  {'m_n':>20s}  {'ktilde_n':>20s}")
    cumulants = dist.log_cumulants_analytic(spec, min(orders, 4))
    for n in range(1, orders + 1):
        try:
            moment = f"{dist.classical_moment(spec, n):.12g}"
        except dist.MomentDoesNotExistError:
            moment = "undefined (n >= M)"
        except OverflowError:
            moment = "overflow"
        cumulant = f"{cumulants[n - 1]:.12g}" if n <= len(cumulants) else ""
        print(f"{n:2d}  {moment:>20s}  {cumulant:>20s}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    families = args.families.split(",") if args.families else None
    outcomes = verify.run_all(families=families, tolerance=args.tolerance,
                              seed=args.seed)
    for outcome in outcomes:
        print(outcome.line())
    failed = [o for o in outcomes if not o.passed]
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} checks passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_sample(args) -> int:
    spec = _build_spec(args.family, args.params)
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    batch = sample(spec, args.n, args.seed)
    lines = []
    if batch.texture is None:
        lines.append("index,x")
        for i, v in enumerate(batch.values):
            lines.append(f"{i},{v:.17g}")
    else:
        lines.append("index,x,z")
        for i, (v, z) in enumerate(zip(batch.values, batch.texture)):
            lines.append(f"{i},{v:.17g},{z:.17g}")
    try:
        with open(args.out, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from None
    print(f"wrote {args.n} draws of {_spec_text(spec)} to {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    values = _read_csv_values(args.input)
    stats = estimation.empirical_log_stats(values, n_max=args.orders)
    used = stats
    if args.speckle:
        params, speckle_family = _parse_params(args.speckle)
        speckle_family = speckle_family or "gamma"
        # unit mean-scale convention for the known speckle factor
        defaults = {"gamma": {"mu": 1.0}, "nakagami": {"mu": 1.0},
                    "weibull": {"z": 1.0}, "rayleigh": {"z": 1.0}}
        for key, value in defaults.get(speckle_family, {}).items():
            params.setdefault(key, value)
        speckle = dist.make_spec(speckle_family, params)
        used = estimation.texture_log_cumulants(stats, speckle)
        print(f"speckle: {_spec_text(speckle)} (log-cumulants subtracted)")
    options = estimation.FitOptions(c_known=args.c_known)
    fit = estimation.fit_molc(args.family, used, options)
    print(f"estimate: {_spec_text(fit.spec)}")
    print(f"iterations: {fit.iterations}")
    print(f"residual: {fit.residual:.6e}")
    print(f"converged: {'yes' if fit.converged else 'no'}")
    se = ", ".join(f"{v:.6g}" for v in stats.std_errors)
    print(f"input log-cumulant standard errors: {se}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    grid = _parse_m_grid(args.m_grid)
    if args.samples < 10**4:
        raise UsageError(f"--samples must be >= 10^4, got {args.samples}")
    rows = texture_sweep(L=args.L, mu=args.mu, m_grid=grid, n=args.samples,
                         seed=args.seed)
    try:
        write_sweep_csv(rows, args.out)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from None
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    if args.plot:
        try:
            render_sweep_svg(rows, args.plot)
        except OSError as exc:
            raise UsageError(f"cannot write {args.plot}: {exc}") from None
        print(f"wrote plot to {args.plot}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clutterstats",
        description="Second-kind (Mellin) statistics for radar clutter "
                    "families: tables, oracle verification, sampling, "
                    "estimation, texture sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    family_help = f"one of {{{','.join(dist.FAMILY_TAGS)}}}"

    p = sub.add_parser("table", help="print analytic moments and log-cumulants")
    p.add_argument("--family", required=True, help=family_help)
    p.add_argument("--params", required=True, help="k=v comma list, e.g. L=4,mu=1")
    p.add_argument("--orders", type=int, default=4,
                   help="max order (moments up to 6; log-cumulants cap at 4)")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the transform-agreement gate (default 1e-6)")
    p.add_argument("--families", default=None,
                   help="comma list restricting the family checks")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_MC_SEED,
                   help="Monte-Carlo seed")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", help="write seeded draws to CSV")
    p.add_argument("--family", required=True, help=family_help)
    p.add_argument("--params", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="method-of-log-cumulants fit from CSV")
    p.add_argument("--family", required=True, help=family_help)
    p.add_argument("--input", required=True, help="CSV with positive values")
    p.add_argument("--speckle", default=None,
                   help="known speckle factor, e.g. L=4 or family=weibull,b=2; "
                        "its log-cumulants are subtracted before the fit")
    p.add_argument("--orders", type=int, default=4)
    p.add_argument("--c-known", type=float, default=None,
                   help="wnak only: fix the speckle shape c")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="texture log-cumulant sweep over M")
    p.add_argument("--L", type=float, default=4.0, help="speckle shape")
    p.add_argument("--mu", type=float, default=1.0, help="texture mean")
    p.add_argument("--M-grid", dest="m_grid", default="0.25:20:40:log",
                   help="start:stop:count[:log]")
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--out", required=True)
    p.add_argument("--plot", default=None, help="optional SVG path")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, dist.StripError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (estimation.ZeroSamplesError, estimation.NonFiniteSamplesError,
            estimation.TooFewSamplesError, estimation.NoSolutionError,
            estimation.OutOfRangeError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except estimation.SolverNonConvergenceError as exc:
        print(f"estimation error: {exc}; last iterate {exc.last_iterate}, "
              f"residual {exc.residual:.3e}", file=sys.stderr)
        return EXIT_ESTIMATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
