"""The benchmark tracer (bench/tracing.py) wraps package functions at the
names their callers look up; it must find every one of them and put every
binding back."""

import sys
from pathlib import Path

from clutterstats import (_quad, cli, distributions, estimation, mellin,
                          sampling, specfun, sweep, verify)

BENCH = Path(__file__).resolve().parent.parent / "bench"
NAMESPACES = (_quad, cli, distributions, estimation, mellin, sampling,
              specfun, sweep, verify, sampling.SplitMix64)


def test_instrument_then_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    before = [(ns, name, value) for ns in NAMESPACES
              for name, value in vars(ns).items()]
    fit = estimation.fit_molc
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        assert estimation.fit_molc is not fit
    finally:
        tracer.restore()
    assert [name for ns, name, value in before
            if vars(ns).get(name) is not value] == []
    assert len({ns for ns, _, _ in before}) == len(NAMESPACES)
