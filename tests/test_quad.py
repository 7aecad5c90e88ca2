"""The Gauss-Kronrod engine with vector-valued integrands, and the one
pass per spec that the oracle builds on it."""

import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clutterstats import _quad, verify
from clutterstats import distributions as dist
from clutterstats._quad import NonConvergenceError, adaptive_quad, gk15

# every pdf point of one default verify ran 428,592 before the tables;
# a third of that is the budget of one pass per spec
PDF_POINT_BUDGET = 428_592 // 3


def bump(x):
    return np.exp(-(x - 0.3) ** 2 / 0.01) + 0.5 * np.cos(3.0 * x)


class TestVectorEngine:
    def test_a_scalar_integrand_is_refused(self):
        # values of shape (m,) have no component axis
        with pytest.raises(ValueError):
            adaptive_quad(bump, [-1.0, 0.1, 0.45, 0.9, 2.0])

    @pytest.mark.parametrize("edges", [
        [1.0, 1.0], [2.0, 1.0], [1.0], [0.0, math.nan, 1.0],
        [-math.inf, 0.0], [0.0, 1.0, math.inf]],
        ids=["equal", "decreasing", "one-edge", "nan", "inf-left",
             "inf-right"])
    def test_an_empty_interval_is_refused(self, edges):
        with pytest.raises(ValueError, match="finite, strictly increasing "
                           + re.escape(f"edges, got {edges!r}")):
            adaptive_quad(lambda x: np.vstack([x]), edges)

    def test_a_narrow_peak_given_as_an_edge_is_found(self):
        # the peak falls between the nodes of the one panel [-5, 5]
        c, w = 1.6875, 0.0546875

        def rows(x):
            return 1e-6 * (np.exp(-((x - c) / w) ** 2)
                           + 0.1 * np.sin(x) ** 2)[None, :]

        exact = 1e-6 * (w * math.sqrt(math.pi) / 2
                        * (math.erf((5 - c) / w) - math.erf((-5 - c) / w))
                        + 0.1 * (5 - math.sin(10) / 2))
        (value,), (bound,) = adaptive_quad(rows, [-5.0, c, 5.0])
        assert abs(value - exact) <= bound

    def test_gk15_scalar_panel_keeps_floats(self):
        value, err = gk15(np.exp, 0.0, 1.0)
        assert isinstance(value, float) and isinstance(err, float)
        assert value == pytest.approx(np.e - 1.0, rel=1e-14)
        values, errs = gk15(lambda x: np.vstack([np.exp(x), x]), 0.0, 1.0)
        assert values.shape == errs.shape == (2,)
        assert values[0] == value and values[1] == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(centres=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4),
           widths=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
           exponents=st.lists(st.floats(-6.0, 0.0), min_size=4, max_size=4),
           rel_tol=st.sampled_from([1e-6, 1e-9, 1e-11]))
    def test_each_component_meets_its_own_tolerance(self, centres, widths,
                                                    exponents, rel_tol):
        # smooth rows whose scales span up to 1e6
        k = len(centres)
        scales = 10.0 ** np.array([0.0, -6.0, *exponents[2:k]])
        widths = np.array(widths[:k])[:, None]
        centres = np.array(centres)[:, None]

        def rows(x):
            return scales[:, None] * (np.exp(-((x - centres) / widths) ** 2)
                                      + 0.1 * np.sin(x) ** 2)

        # the peaks are edges: the engine's one guard against missing one
        edges = np.unique([-5.0, *centres[:, 0], 5.0])
        with mock.patch.multiple(_quad, REL_TOL=rel_tol, ABS_TOL=1e-300):
            values, bounds = adaptive_quad(rows, edges)
            for j in range(k):
                (alone,), _ = adaptive_quad(lambda x: rows(x)[j:j + 1], edges)
                tol = rel_tol * abs(alone)
                assert bounds[j] <= rel_tol * abs(values[j])
                assert abs(values[j] - alone) <= tol, (j, values[j], alone)

    def test_non_convergence_carries_arrays(self):
        def rows(x):
            return np.vstack([np.abs(x - 0.1234) ** 0.5, np.ones_like(x)])

        with mock.patch.multiple(_quad, REL_TOL=1e-15, ABS_TOL=1e-300,
                                 MAX_PANELS=8), \
                pytest.raises(NonConvergenceError) as info:
            adaptive_quad(rows, [0.0, 1.0])
        estimate, bound = info.value.estimate, info.value.error_bound
        assert isinstance(estimate, np.ndarray) and estimate.shape == (2,)
        assert isinstance(bound, np.ndarray) and bound.shape == (2,)
        assert estimate[1] == pytest.approx(1.0, rel=1e-14)
        assert bound[0] > 0.0


def count_pdf_points(monkeypatch):
    """Wrap the density the oracle reads; returns the running count."""
    seen = [0]
    pdf = dist.pdf

    def counting(spec, x):
        seen[0] += np.size(x)
        return pdf(spec, x)

    monkeypatch.setattr(dist, "pdf", counting)
    return seen


class TestOnePassPerSpec:
    def test_param_grid_within_a_third_of_the_points(self, monkeypatch):
        seen = count_pdf_points(monkeypatch)
        first = verify.transform_tables()
        counted = seen[0]
        assert counted == sum(t.evaluations for t in first.values())
        assert counted <= PDF_POINT_BUDGET
        assert len(first) == sum(map(len, verify.PARAM_GRID.values()))
        verify.transform_tables()
        assert seen[0] == 2 * counted   # the count repeats exactly

    def test_tables_hold_every_s_the_checks_read(self):
        tables = verify.transform_tables()
        assert {dist.family_tag(spec) for spec in tables} \
            == set(verify.PARAM_GRID)
        for table in tables.values():
            assert table.s == verify.GRID_S

    def test_grid_s_lies_inside_every_strip(self):
        # the tables are built at GRID_S with no per-spec filter, so every
        # s the checks read must be inside every spec's strip
        assert 1.0 in verify.GRID_S
        assert set(verify.CONVOLUTION_S) <= set(verify.GRID_S)
        for spec in (spec for family in verify.PARAM_GRID.values()
                     for spec in family):
            lo, hi = dist.strip(spec)
            assert lo < min(verify.GRID_S) and max(verify.GRID_S) < hi, spec

    def test_no_table_outlives_a_run(self, monkeypatch):
        seen = count_pdf_points(monkeypatch)
        verify.run_all(families=["wnak"])
        first = seen[0]
        verify.run_all(families=["wnak"])
        assert first > 0 and seen[0] == 2 * first


class TestBoundInTheGate:
    def test_outcomes_carry_bound_and_count(self):
        tables = verify.transform_tables(["k"])
        (outcome,) = verify.transform_agreement_checks(tables)
        assert outcome.passed
        assert outcome.evaluations == sum(t.evaluations
                                          for t in tables.values())
        assert 0.0 < outcome.error_bound <= 1e-9
        assert f"bound={outcome.error_bound:.1e}" in outcome.detail

    def test_a_bound_over_the_gate_fails_the_check(self):
        # the errors stay far under 1e-6; a relative bound of 1e-5 alone
        # must fail the check
        tables = verify.transform_tables(["gamma"])
        spec = verify.PARAM_GRID["gamma"][0]
        tables[spec] = replace(tables[spec], error_bounds=tuple(
            1e-5 * abs(v) for v in tables[spec].values))
        (outcome,) = verify.transform_agreement_checks(tables)
        assert outcome.max_error <= outcome.threshold
        assert outcome.error_bound > outcome.threshold
        assert not outcome.passed

    def test_a_nan_transform_fails_the_check(self):
        # a nan error must not slip past a `worst so far` scan
        tables = verify.transform_tables(["gamma"])
        spec = verify.PARAM_GRID["gamma"][0]
        tables[spec] = replace(tables[spec],
                               values=(math.nan,) * len(tables[spec].s))
        (outcome,) = verify.normalization_checks(tables)
        assert not outcome.passed
