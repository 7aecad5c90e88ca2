"""Command-line surface.

Subcommands: ``table`` (analytic moments and log-cumulants), ``verify``
(oracle suite), ``sample`` (seeded CSV generation), ``estimate`` (MoLC fit
from a CSV; its ``--speckle`` is ``estimation.known_speckle``'s spec),
``simulate`` (texture sweep with CSV and optional SVG).

Building and parsing the command line imports no numerical code (the
parser reads ``_catalog``), so ``--help`` and a usage error load no numpy.
Each command imports what it runs: ``table`` the catalog
(``distributions``, with ``specfun`` and ``_quad``); ``verify`` the oracle
(``verify``, which loads ``mellin``, ``estimation`` and ``sampling``);
``sample`` the samplers and the CSV writer; ``estimate`` the CSV reader
and the fit (``estimation``, with ``mellin``); ``simulate`` the sweep
(``sweep``, which loads the samplers, the log statistics and the CSV
writer).  An option left out takes the library's own default, read when
the command runs.  The commands call ``sample``, ``texture_sweep``,
``write_sweep_csv`` and ``render_sweep_svg`` through this module's names,
bound at import to forwarders that import their module on the first
call, so a caller may rebind them.

Exit codes: 0 pass, 1 verification failure, 2 usage or I/O error (out
of memory too), 3 estimation failure, 141 stdout closed by its reader
(128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys

from ._catalog import FAMILY_TAGS, MAX_ORDER

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_ESTIMATION = 3
EXIT_BROKEN_PIPE = 128 + 13   # SIGPIPE, as a shell reports it


def _forward(module: str, name: str):
    """A stand-in for ``module.name``: a call imports the module (the
    first one loads it) and calls through it."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__),
                       name)(*args, **kwargs)
    return call


sample = _forward("sampling", "sample")
texture_sweep = _forward("sweep", "texture_sweep")
write_sweep_csv = _forward("sweep", "write_sweep_csv")
render_sweep_svg = _forward("sweep", "render_sweep_svg")


def _parse_params(text: str) -> tuple[dict[str, float], str | None]:
    """'L=4,mu=1' -> ({'L': 4.0, 'mu': 1.0}, None); a family=... key is
    split off for the --speckle grammar.  A key given twice is an error."""
    params: dict[str, float] = {}
    family = None
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key in params or key == "family" and family is not None:
            raise ValueError(f"parameter {key!r} is given more than once")
        if key == "family":
            family = value.strip()
            continue
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"parameter {key!r} needs a numeric value, "
                             f"got {value!r}") from None
    return params, family


def _build_spec(family: str, params_text: str):
    """``make_spec``'s spec of ``family`` from ``--params``; unannotated,
    as this module imports ``distributions`` only when a command runs."""
    from .distributions import make_spec
    params, extra_family = _parse_params(params_text)
    if extra_family is not None:
        raise ValueError("family= belongs in --family, not --params")
    return make_spec(family, params)


def _parse_m_grid(text: str) -> list[float]:
    parts = text.split(":")
    log_spaced = False
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError(f"grid suffix must be 'log', got {parts[3]!r}")
        log_spaced = True
        parts = parts[:3]
    if len(parts) != 3:
        raise ValueError("--M-grid must be start:stop:count[:log]")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"bad --M-grid {text!r}") from None
    if not (0.0 < start < stop < math.inf) or count < 2:
        raise ValueError("--M-grid needs 0 < start < stop < inf, count >= 2")
    if log_spaced:
        from .sweep import default_m_grid
        return default_m_grid(start, stop, count)
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _spec_text(spec) -> str:
    from dataclasses import astuple, fields

    from .distributions import family_tag
    inner = ", ".join(f"{f.name}={v:.12g}"
                      for f, v in zip(fields(spec), astuple(spec)))
    return f"{family_tag(spec)}({inner})"


def _given(**options) -> dict:
    """The options given on the command line; one left out (None) takes
    the library's own default."""
    return {name: value for name, value in options.items()
            if value is not None}


def _estimation_error() -> type:
    """``main``'s exit-3 class, imported only when an error reaches it."""
    from .estimation import EstimationError
    return EstimationError


def _write(path: str, write) -> None:
    """Run ``write()``; its OSError is the usage error for every output."""
    try:
        write()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


# subcommands ----------------------------------------------------------------

def _cmd_table(args) -> int:
    from . import distributions as dist
    from .specfun import check_order
    spec = _build_spec(args.family, args.params)
    orders = check_order(args.orders, "--orders")
    print(f"family: {_spec_text(spec)}")
    print(f"{'n':>2s}  {'m_n':>20s}  {'ktilde_n':>20s}")
    for n in range(1, orders + 1):
        try:
            moment = f"{dist.classical_moment(spec, n):.12g}"
        except dist.MomentDoesNotExistError:
            moment = "undefined (n >= M)"
        except OverflowError:
            moment = "overflow"
        try:
            cumulant = f"{dist.log_cumulants_analytic(spec, n)[-1]:.12g}"
        except OverflowError:
            cumulant = "overflow"
        print(f"{n:2d}  {moment:>20s}  {cumulant:>20s}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify
    families = None if args.families is None else args.families.split(",")
    outcomes = verify.run_all(families=families, **_given(seed=args.seed))
    failed = [o for o in outcomes if not o.passed]
    if args.json:
        import json
        from dataclasses import asdict
        # JSON has no inf or nan: a non-finite number prints as null
        print(json.dumps([
            {k: None if isinstance(v, float) and not math.isfinite(v) else v
             for k, v in asdict(o).items()} for o in outcomes], indent=1))
        return EXIT_VERIFY_FAILED if failed else EXIT_OK
    for outcome in outcomes:
        print(outcome.line())
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} checks passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_sample(args) -> int:
    from . import _csv
    spec = _build_spec(args.family, args.params)
    batch = sample(spec, args.n, args.seed)
    header, columns = "index,x", [range(args.n), batch.values]
    if batch.texture is not None:
        header, columns = "index,x,z", columns + [batch.texture]
    _write(args.out, lambda: _csv.write_csv(args.out, header, columns))
    print(f"wrote {args.n} draws of {_spec_text(spec)} to {args.out}")
    return EXIT_OK


def _read_column(path: str):
    from . import _csv
    try:
        return _csv.read_column(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_estimate(args) -> int:
    from . import distributions as dist
    from . import estimation
    from .specfun import check_order
    # the arguments are checked before the file is read
    orders = check_order(args.orders, "--orders")
    speckle = None
    if args.speckle is not None:
        params, speckle_family = _parse_params(args.speckle)
        speckle = estimation.known_speckle(
            "gamma" if speckle_family is None else speckle_family, params)
        dist.log_cumulants_analytic(speckle, orders)   # k_1..k_orders finite
    estimation.check_fit(args.family, orders)
    # the column is only an argument, so it is freed once its logs exist
    stats = estimation.empirical_log_stats(_read_column(args.input),
                                           n_max=orders)
    used = stats
    if speckle is not None:
        used = estimation.texture_log_cumulants(stats, speckle)
        print(f"speckle: {_spec_text(speckle)} (log-cumulants subtracted)")
    fit = estimation.fit_molc(args.family, used)
    print(f"estimate: {_spec_text(fit.spec)}")
    print(f"iterations: {fit.iterations}")
    print(f"residual: {fit.residual:.6e}")
    print(f"converged: {'yes' if fit.converged else 'no'}")
    if fit.alternatives:
        others = ", ".join(_spec_text(spec) for spec in fit.alternatives)
        if used.order >= 4:
            gap, next_gap = (
                abs(dist.log_cumulants_analytic(spec, 4)[3]
                    - used.log_cumulants[3])
                for spec in (fit.spec, fit.alternatives[0]))
            k4_se = stats.std_errors[3]
            margin = (next_gap - gap) / k4_se if k4_se > 0.0 else math.inf
            choice = (f"k_4 picked the estimate by {margin:.2f} standard "
                      "errors of k_4 over the next law (a separation under "
                      "2 is not significant)")
        else:
            choice = ("without k_4 the estimate is the one with the "
                      "smallest speckle shape; --orders 4 lets k_4 pick")
        print(f"warning: the fit is not identifiable; the same "
              f"log-cumulants fit {others}; {choice}", file=sys.stderr)
    se = ", ".join(f"{v:.6g}" for v in stats.std_errors)
    print(f"input log-cumulant standard errors: {se}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    grid = None if args.m_grid is None else _parse_m_grid(args.m_grid)
    rows = texture_sweep(**_given(L=args.L, mu=args.mu, m_grid=grid,
                                  n=args.samples, seed=args.seed))
    _write(args.out, lambda: write_sweep_csv(rows, args.out))
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    if args.plot:
        _write(args.plot, lambda: render_sweep_svg(rows, args.plot))
        print(f"wrote plot to {args.plot}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clutterstats",
        description="Second-kind (Mellin) statistics for radar clutter "
                    "families: tables, oracle verification, sampling, "
                    "estimation, texture sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    family_help = f"one of {{{','.join(FAMILY_TAGS)}}}"

    p = sub.add_parser("table", help="print analytic moments and log-cumulants")
    p.add_argument("--family", required=True, help=family_help)
    p.add_argument("--params", required=True, help="k=v comma list, e.g. L=4,mu=1")
    p.add_argument("--orders", type=int, default=4,
                   help=f"max order of moments and log-cumulants, 1 to "
                        f"{MAX_ORDER}")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    p.add_argument("--families", default=None,
                   help="comma list restricting the family checks")
    p.add_argument("--seed", type=int, help="Monte-Carlo seed")
    p.add_argument("--json", action="store_true",
                   help="print the outcomes as one JSON array")
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
    p.add_argument("--orders", type=int, default=4,
                   help=f"highest log-cumulant order estimated, 1 to "
                        f"{MAX_ORDER} (k_4 ranks non-identifiable fits)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="texture log-cumulant sweep over M")
    p.add_argument("--L", type=float, help="speckle shape")
    p.add_argument("--mu", type=float, help="texture mean")
    p.add_argument("--M-grid", dest="m_grid", help="start:stop:count[:log]")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--plot", default=None, help="optional SVG path")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:   # `| head -1`: devnull takes the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _estimation_error() as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
