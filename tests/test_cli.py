import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clutterstats
from clutterstats import cli, estimation, sweep, verify
from clutterstats.cli import main
from clutterstats.specfun import polygamma
from clutterstats.sweep import SWEEP_CSV_HEADER

COMPOUND = ("ggamma", "k", "wnak", "fisher")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_exponential_third_moment(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "gamma",
                           "--params", "L=1,mu=2", "--orders", "3")
        assert code == 0
        row = [ln for ln in out.splitlines() if ln.strip().startswith("3")][0]
        assert "48" in row.split()

    def test_rayleigh_second_moment(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "rayleigh",
                           "--params", "z=1", "--orders", "2")
        assert code == 0
        row = [ln for ln in out.splitlines() if ln.strip().startswith("2")][0]
        assert "1" in row.split()

    def test_fisher_undefined_moment(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "fisher",
                           "--params", "L=1,M=3,mu=1", "--orders", "3")
        assert code == 0
        assert "undefined (n >= M)" in out

    def test_moment_past_double_range_prints_overflow(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "gamma",
                           "--params", "L=1,mu=1e300", "--orders", "3")
        assert code == 0
        rows = [ln.split() for ln in out.splitlines()[2:]]
        assert rows[0][1] == "1e+300"
        assert [r[1] for r in rows[1:]] == ["overflow", "overflow"]

    def test_log_cumulant_past_double_range_prints_overflow(self, capsys):
        # the speckle and texture terms of k_2..k_4 overflow with opposite
        # signs, which once printed inf, nan, inf
        code, out, _ = run(capsys, "table", "--family", "fisher", "--params",
                           "L=1e-300,M=1e-300,mu=1", "--orders", "4")
        assert code == 0
        rows = [ln.split() for ln in out.splitlines()[2:]]
        assert math.isfinite(float(rows[0][-1]))
        assert [r[-1] for r in rows[1:]] == ["overflow"] * 3

    def test_huge_shape_prints_defined_cells(self, capsys):
        # polygamma(n, 1e300) underflows instead of overflowing y**n
        code, out, _ = run(capsys, "table", "--family", "gamma",
                           "--params", "L=1e300,mu=1", "--orders", "4")
        assert code == 0
        rows = [ln.split() for ln in out.splitlines()[2:]]
        assert [float(r[1]) for r in rows] == pytest.approx([1.0] * 4)
        assert [abs(float(r[2])) for r in rows[1:]] == \
            pytest.approx([1e-300, 0.0, 0.0], rel=1e-12, abs=1e-320)

    def test_sixth_order_cumulants(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "gamma",
                           "--params", "L=2,mu=1", "--orders", "6")
        assert code == 0
        rows = [ln.split() for ln in out.splitlines()[2:]]
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "6"]
        assert rows[4][2] == f"{polygamma(4, 2.0):.12g}"
        assert rows[5][2] == f"{polygamma(5, 2.0):.12g}"

    def test_eighth_order_moment(self, capsys):
        # Maxwell's m_8 is 3 * 5 * 7 * 9
        code, out, _ = run(capsys, "table", "--family", "maxwell",
                           "--params", "sigma=1", "--orders", "8")
        assert code == 0
        assert out.splitlines()[-1].split()[:2] == ["8", "945"]

    @pytest.mark.parametrize("orders", ["0", "9"])
    def test_orders_out_of_range_exit_2(self, capsys, orders):
        code, _, err = run(capsys, "table", "--family", "gamma",
                           "--params", "L=2,mu=1", "--orders", orders)
        assert code == 2
        assert f"unsupported order {orders} for --orders" in err

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run(capsys, "table", "--family", "gamma",
                           "--params", "L=-1,mu=2")
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("params,message", [
        ("L", "expected key=value, got 'L'"),
        ("L=x,mu=1", "parameter 'L' needs a numeric value, got 'x'"),
        ("family=k,L=1,mu=1", "family= belongs in --family, not --params"),
    ], ids=["no-equals", "not-a-number", "family-key"])
    def test_malformed_params_exit_2(self, capsys, params, message):
        code, out, err = run(capsys, "table", "--family", "gamma",
                             "--params", params)
        assert code == 2
        assert err == f"error: {message}\n" and out == ""

    @pytest.mark.parametrize("argv,key", [
        (["table", "--family", "gamma", "--params", "L=4,mu=1,mu=2"], "mu"),
        (["estimate", "--family", "gamma", "--input", "/does/not/exist.csv",
          "--speckle", "L=2, L=3"], "L"),
        (["estimate", "--family", "gamma", "--input", "/does/not/exist.csv",
          "--speckle", "family=gamma,L=2,family=weibull"], "family"),
    ], ids=["params", "speckle", "speckle-family"])
    def test_a_key_given_twice_exit_2(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: parameter {key!r} is given more than once\n"
        assert out == ""

    def test_a_form_past_the_doubles_prints_nothing(self, capsys):
        # the family and header lines came before the error
        code, out, err = run(capsys, "table", "--family", "gamma",
                             "--params", "L=1e-320,mu=1")
        assert (code, out) == (2, "")
        assert err == ("error: gamma: canonical scale inf of GammaPower("
                       "L=1e-320, mu=1.0) is outside the double range\n")

    def test_unknown_family_exit_2(self, capsys):
        code, _, err = run(capsys, "table", "--family", "lognormal",
                           "--params", "m=1")
        assert code == 2
        assert "unknown family" in err

    def test_closed_stdout_exits_141_silently(self):
        # the reader (say `head`) is gone before the first line is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(clutterstats.__file__).parents[1])
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "clutterstats.cli", "table",
                 "--family", "gamma", "--params", "L=4,mu=1"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env={**os.environ, "PYTHONPATH": src})
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestSample:
    def test_deterministic_regeneration_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(capsys, "sample", "--family", "k",
                             "--params", "alpha=2,b=1", "--n", "1000",
                             "--seed", "7", "--out", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_compound_csv_has_texture_column(self, capsys, tmp_path):
        out = tmp_path / "gg.csv"
        code, _, _ = run(capsys, "sample", "--family", "ggamma",
                         "--params", "L=4,M=2,mu=1", "--n", "20000",
                         "--seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,x,z"
        xs = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        assert abs(xs.mean() - 1.0) < 0.05

    def test_simple_csv_schema(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        run(capsys, "sample", "--family", "gamma", "--params", "L=4,mu=1",
            "--n", "50", "--seed", "1", "--out", str(out))
        assert out.read_text().splitlines()[0] == "index,x"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_zero_draws_exit_2(self, capsys, tmp_path, n):
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "sample", "--family", "gamma",
                           "--params", "L=4,mu=1", "--n", n, "--out", str(out))
        assert code == 2
        assert err == f"error: sample count must be an integer >= 1, got {n}\n"
        assert not out.exists()

    def test_unwritable_path_exit_2(self, capsys):
        code, _, _ = run(capsys, "sample", "--family", "gamma",
                         "--params", "L=4,mu=1", "--n", "10",
                         "--out", "/nonexistent-dir/x.csv")
        assert code == 2

    def test_out_of_memory_exit_2(self, capsys, monkeypatch, tmp_path):
        def sample(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        monkeypatch.setattr(cli, "sample", sample)
        code, out, err = run(capsys, "sample", "--family", "gamma",
                             "--params", "L=4,mu=1", "--n", "1000000000000",
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2 and out == ""
        assert err == "error: Unable to allocate 7.28 TiB for an array\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, params, message", [
        ("gamma", "L=1e-320,mu=1", "gamma: canonical scale inf of "
         "GammaPower(L=1e-320, mu=1.0) is outside the double range"),
        ("gamma", "L=1e-10,mu=1e300", "gamma: canonical scale inf of "
         "GammaPower(L=1e-10, mu=1e+300) is outside the double range"),
        ("maxwell", "sigma=1e308",
         "2 of 5 draws are outside the double range (0, inf or nan)"),
        ("fisher", "L=1,M=1e-320,mu=1",
         "5 of 5 draws are outside the double range (0, inf or nan)"),
        ("gamma", "L=0.01,mu=1e-300",
         "1 of 5 draws are outside the double range (0, inf or nan)"),
    ], ids=["gamma-L", "gamma-mu", "maxwell", "fisher", "gamma-zero"])
    def test_a_law_it_cannot_draw_exit_2(self, capsys, tmp_path, family,
                                         params, message):
        # each wrote nan, inf or 0 rows and exited 0
        path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sample", "--family", family,
                             "--params", params, "--n", "5",
                             "--out", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not path.exists()

    def test_missing_directory_names_the_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "sample", "--family", "gamma",
                             "--params", "L=4,mu=1", "--n", "10",
                             "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")


class TestEstimate:
    def test_round_trip_through_files(self, capsys, tmp_path):
        data = tmp_path / "gamma.csv"
        run(capsys, "sample", "--family", "gamma", "--params", "L=4,mu=1",
            "--n", "1000000", "--seed", "5", "--out", str(data))
        code, out, _ = run(capsys, "estimate", "--family", "gamma",
                           "--input", str(data))
        assert code == 0
        line = [ln for ln in out.splitlines() if ln.startswith("estimate")][0]
        l_hat = float(line.split("L=")[1].split(",")[0])
        assert abs(l_hat - 4.0) / 4.0 < 0.05
        assert "converged: yes" in out

    def test_sixth_order_standard_errors(self, capsys, tmp_path):
        data = tmp_path / "gamma.csv"
        run(capsys, "sample", "--family", "gamma", "--params", "L=2,mu=1",
            "--n", "5000", "--seed", "5", "--out", str(data))
        code, out, _ = run(capsys, "estimate", "--family", "gamma",
                           "--input", str(data), "--orders", "6")
        assert code == 0
        line = [ln for ln in out.splitlines()
                if ln.startswith("input log-cumulant standard errors")][0]
        errors = [float(v) for v in line.split(":")[1].split(",")]
        assert len(errors) == 6 and all(v > 0.0 for v in errors)
        code, _, err = run(capsys, "estimate", "--family", "gamma",
                           "--input", str(data), "--orders", "9")
        assert code == 2
        assert "unsupported order 9 for --orders" in err

    def test_weibull_fit_on_rayleigh_data(self, capsys, tmp_path):
        data = tmp_path / "ray.csv"
        run(capsys, "sample", "--family", "rayleigh", "--params", "z=1",
            "--n", "1000000", "--seed", "9", "--out", str(data))
        code, out, _ = run(capsys, "estimate", "--family", "weibull",
                           "--input", str(data))
        assert code == 0
        b_hat = float(out.split("b=")[1].split(")")[0])
        assert abs(b_hat - 2.0) / 2.0 < 0.05

    def test_speckle_extraction(self, capsys, tmp_path):
        data = tmp_path / "gg.csv"
        run(capsys, "sample", "--family", "ggamma", "--params", "L=4,M=2,mu=1",
            "--n", "1000000", "--seed", "13", "--out", str(data))
        code, out, _ = run(capsys, "estimate", "--family", "gamma",
                           "--input", str(data), "--speckle", "L=4")
        assert code == 0
        line = [ln for ln in out.splitlines() if ln.startswith("estimate")][0]
        l_hat = float(line.split("L=")[1].split(",")[0])
        assert abs(l_hat - 2.0) / 2.0 < 0.05

    def test_wnak_with_known_speckle_shape(self, capsys, tmp_path):
        # wnak(c, alpha, b) is a Weibull(1, c) speckle on a Nakagami
        # texture with L = alpha and L / mu^2 = b; a fit that held c at 1.5
        # printed alpha=1.74385030462, b=0.834962141347 for this file
        data = tmp_path / "wnak.csv"
        run(capsys, "sample", "--family", "wnak", "--params",
            "c=1.5,alpha=2,b=1", "--n", "2000", "--seed", "5",
            "--out", str(data))
        code, out, _ = run(capsys, "estimate", "--family", "nakagami",
                           "--input", str(data), "--speckle",
                           "family=weibull,b=1.5")
        assert code == 0
        line = [ln for ln in out.splitlines() if ln.startswith("estimate")][0]
        fields = dict(re.findall(r"(\w+)=([^,)]+)", line))
        assert fields["L"] == "1.74385030462"
        assert float(fields["L"]) / float(fields["mu"]) ** 2 == \
            pytest.approx(0.834962141347, rel=1e-10)

    def test_speckle_scale_field_defaults_to_one(self, capsys, tmp_path):
        data = tmp_path / "g.csv"
        run(capsys, "sample", "--family", "gamma", "--params", "L=1,mu=1",
            "--n", "2000", "--seed", "3", "--out", str(data))
        code, out, _ = run(capsys, "estimate", "--family", "gamma",
                           "--input", str(data), "--speckle",
                           "family=maxwell")
        assert code == 0
        assert "speckle: maxwell(sigma=1)" in out
        code, out, _ = run(capsys, "estimate", "--family", "gamma",
                           "--input", str(data), "--speckle",
                           "family=weibull,b=4")
        assert code == 0
        assert "speckle: weibull(z=1, b=4)" in out

    def test_warns_when_not_identifiable(self, capsys, tmp_path):
        data = tmp_path / "wnak.csv"
        run(capsys, "sample", "--family", "wnak", "--params",
            "c=1.5,alpha=2,b=1", "--n", "100000", "--seed", "1",
            "--out", str(data))
        code, out, err = run(capsys, "estimate", "--family", "wnak",
                             "--input", str(data))
        assert code == 0
        c_hat = float(out.split("estimate: wnak(c=")[1].split(",")[0])
        assert abs(c_hat - 1.5) / 1.5 < 0.05
        assert "warning: the fit is not identifiable; the same " \
            "log-cumulants fit wnak(" in err
        assert "k_4 picked the estimate" in err

    def test_zero_value_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x\n1.0\n0.0\n2.0\n" + "1.5\n" * 40)
        code, _, err = run(capsys, "estimate", "--family", "gamma",
                           "--input", str(bad))
        assert code == 3
        assert "ZeroSamples" in err

    def test_non_finite_value_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x\n1.0\ninf\n2.0\n" + "1.5\n" * 40)
        code, _, err = run(capsys, "estimate", "--family", "gamma",
                           "--input", str(bad))
        assert code == 3
        assert "NonFiniteSamples: 1 sample(s)" in err

    def test_infeasible_exit_3(self, capsys, tmp_path):
        # sub-Rayleigh log-variance: the K fit has no solution
        bad = tmp_path / "norm.csv"
        values = np.full(500, 1.0)
        values[::2] = 1.001
        bad.write_text("x\n" + "\n".join(f"{v}" for v in values) + "\n")
        code, _, err = run(capsys, "estimate", "--family", "k",
                           "--input", str(bad))
        assert code == 3

    def test_speckle_past_double_range_exit_2(self, capsys, tmp_path):
        data = tmp_path / "g.csv"
        run(capsys, "sample", "--family", "gamma", "--params", "L=4,mu=1",
            "--n", "100", "--out", str(data))
        code, out, err = run(capsys, "estimate", "--family", "gamma",
                             "--input", str(data), "--speckle", "L=1e-200")
        assert code == 2
        assert err == ("error: log_cumulants_analytic: k_2 of "
                       "GammaPower(L=1e-200, mu=1.0) is outside the double "
                       "range\n")
        assert "estimate:" not in out

    def test_texture_moment_past_double_range_exit_2(self, capsys, tmp_path,
                                                     monkeypatch):
        # no catalog speckle gets there (its k_n overflow first), so a
        # speckle k_1 of -1e200 stands in; the texture's m_2 takes k_1^2
        data = tmp_path / "g.csv"
        run(capsys, "sample", "--family", "gamma", "--params", "L=4,mu=1",
            "--n", "100", "--out", str(data))
        monkeypatch.setattr(cli.dist, "log_cumulants_analytic",
                            lambda spec, n: [-1e200] + [1.0] * (n - 1))
        code, out, err = run(capsys, "estimate", "--family", "gamma",
                             "--input", str(data), "--speckle", "L=4")
        assert code == 2
        assert err == ("error: cumulants_to_moments: order 2 takes entry 1 "
                       "to the power 2, which is outside the double range\n")
        assert "estimate:" not in out

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "estimate", "--family", "gamma",
                         "--input", "/does/not/exist.csv")
        assert code == 2

    def test_invalid_utf8_exit_2(self, capsys, tmp_path):
        # a block past ASCII stays off the kernel, so invalid UTF-8 in a
        # column the fit does not read is still refused
        path = tmp_path / "latin.csv"
        path.write_bytes(b"index,x,note\n0,1.5,\xff\n1,2.5,ok\n")
        code, out, err = run(capsys, "estimate", "--family", "gamma",
                             "--input", str(path))
        assert code == 2
        assert err == (f"error: {path}: 'utf-8' codec can't decode byte 0xff "
                       "in position 6: invalid start byte\n")
        assert out == ""

    @pytest.mark.parametrize("argv,message", [
        (["--family", "bogus"], "unknown family 'bogus'; expected one of "),
        (["--family", "gamma", "--speckle", "family=bogus"],
         "unknown family 'bogus'; expected one of "),
        (["--family", "gamma", "--speckle", "L=0"],
         "GammaPower.L must be a positive finite number, got 0.0"),
        (["--family", "wnak", "--orders", "2"],
         "wnak estimation needs log-cumulants up to order 3, got 2"),
        (["--family", "gamma", "--speckle", "family=,L=4"],
         "unknown family ''; expected one of "),
        (["--family", "gamma", "--speckle", "L=1e-320"],
         "gamma: canonical scale inf of GammaPower(L=1e-320, mu=1.0) is "
         "outside the double range\n"),
        (["--family", "gamma", "--speckle", "L=1e-200"],
         "log_cumulants_analytic: k_2 of GammaPower(L=1e-200, mu=1.0) is "
         "outside the double range\n"),
        (["--family", "gamma", "--orders", "8", "--speckle", "L=1e-40"],
         "log_cumulants_analytic: k_8 of GammaPower(L=1e-40, mu=1.0) is "
         "outside the double range\n"),
    ] + [  # a compound speckle is refused before its fields are asked for
        (["--family", "gamma", "--speckle", f"family={family}"],
         f"speckle must be a simple family, got {family}\n")
        for family in COMPOUND
    ], ids=["family", "speckle-family", "speckle-L", "orders",
            "speckle-empty-family", "speckle-past-the-doubles",
            "speckle-k2-past-the-doubles", "speckle-k8-past-the-doubles",
            *(f"compound-speckle-{family}" for family in COMPOUND)])
    def test_arguments_are_checked_before_the_file(self, capsys, argv,
                                                   message):
        # a missing file would report its own error if it were read first
        code, out, err = run(capsys, "estimate", "--input",
                             "/does/not/exist.csv", *argv)
        assert code == 2
        assert err.startswith("error: " + message)
        assert "exist.csv" not in err
        assert out == ""

    def test_a_speckle_is_checked_at_the_orders_asked_for(self, capsys):
        # L=1e-40 leaves the doubles at k_8 only: at --orders 4 the file
        # is opened
        code, out, err = run(capsys, "estimate", "--family", "gamma",
                             "--input", "/does/not/exist.csv", "--orders",
                             "4", "--speckle", "L=1e-40")
        assert code == 2
        assert err.startswith("error: ") and "exist.csv" in err
        assert out == ""

    def test_compound_speckle_is_rejected_before_the_file(self, capsys):
        code, out, err = run(capsys, "estimate", "--family", "gamma",
                             "--input", "/does/not/exist.csv",
                             "--speckle", "family=k,alpha=2,b=1")
        assert code == 2
        assert err == "error: speckle must be a simple family, got k\n"
        assert out == ""

    def test_empty_speckle_is_a_usage_error(self, capsys, tmp_path):
        # an empty value must not fit with no speckle subtracted
        data = tmp_path / "g.csv"
        run(capsys, "sample", "--family", "gamma", "--params", "L=4,mu=1",
            "--n", "100", "--out", str(data))
        code, out, err = run(capsys, "estimate", "--family", "gamma",
                             "--input", str(data), "--speckle", "")
        assert code == 2
        assert err == "error: missing parameter(s) ['L'] for gamma\n"
        assert out == ""

    @pytest.mark.parametrize("error", [
        estimation.ZeroSamplesError(2), estimation.NonFiniteSamplesError(3),
        estimation.TooFewSamplesError("too few"),
        estimation.NoSolutionError("no solution"),
        estimation.OutOfRangeError("out of range"),
    ], ids=lambda error: type(error).__name__)
    def test_estimation_errors_exit_3(self, capsys, tmp_path, monkeypatch,
                                      error):
        data = tmp_path / "g.csv"
        run(capsys, "sample", "--family", "gamma", "--params", "L=4,mu=1",
            "--n", "100", "--out", str(data))

        def failing_fit(*args, **kwargs):
            raise error
        monkeypatch.setattr(estimation, "fit_molc", failing_fit)
        code, out, err = run(capsys, "estimate", "--family", "gamma",
                             "--input", str(data))
        assert code == 3
        assert err == f"estimation error: {error}\n"
        assert out == ""

    def test_orders_3_names_the_rule_without_k4(self, capsys, tmp_path,
                                                 monkeypatch):
        data = tmp_path / "g.csv"
        run(capsys, "sample", "--family", "gamma", "--params", "L=4,mu=1",
            "--n", "100", "--out", str(data))

        def ambiguous_fit(*args, **kwargs):
            return estimation.FitResult(cli.dist.GammaPower(4.0, 1.0), 1,
                                        0.0, True,
                                        (cli.dist.GammaPower(2.0, 1.0),))
        monkeypatch.setattr(estimation, "fit_molc", ambiguous_fit)
        code, out, err = run(capsys, "estimate", "--family", "gamma",
                             "--orders", "3", "--input", str(data))
        assert code == 0
        assert out.startswith("estimate: gamma(L=4, mu=1)\n")
        assert err == ("warning: the fit is not identifiable; the same "
                       "log-cumulants fit gamma(L=2, mu=1); without k_4 the "
                       "estimate is the one with the smallest speckle shape; "
                       "--orders 4 lets k_4 pick\n")

    def test_solver_non_convergence_exit_3(self, capsys, tmp_path,
                                           monkeypatch):
        data = tmp_path / "g.csv"
        run(capsys, "sample", "--family", "gamma", "--params", "L=4,mu=1",
            "--n", "100", "--out", str(data))

        def failing_fit(*args, **kwargs):
            raise estimation.SolverNonConvergenceError("no root", (2.0, 1.0),
                                                       0.125)
        monkeypatch.setattr(estimation, "fit_molc", failing_fit)
        code, out, err = run(capsys, "estimate", "--family", "gamma",
                             "--input", str(data))
        assert code == 3
        assert err == ("estimation error: no root; last iterate (2.0, 1.0), "
                       "residual 1.250e-01\n")
        assert out == ""


class TestSimulate:
    def test_small_sweep(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.svg"
        code, _, _ = run(capsys, "simulate", "--M-grid", "0.5:8:4:log",
                         "--samples", "20000", "--seed", "2",
                         "--out", str(out), "--plot", str(plot))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + 2 * 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.5 and first[1] == "2"
        # analytic column carries trigamma at the grid point
        assert float(first[4]) == pytest.approx(polygamma(1, 0.5), rel=1e-12)
        svg = plot.read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("m_grid", [[2.0], [2.0, 2.0]])
    def test_plot_of_a_single_m_value(self, m_grid, tmp_path):
        # one M on the x axis: no span to divide by
        plot = tmp_path / "one.svg"
        sweep.render_sweep_svg(sweep.texture_sweep(m_grid=m_grid, n=10**4),
                               plot)
        attrs = re.findall(r' (?:c?[xy]|[xy][12]|points)="([^"]*)"',
                           plot.read_text())
        coords = [float(v) for s in attrs for v in re.split("[ ,]", s)]
        assert coords and all(map(math.isfinite, coords))

    def test_plot_of_equal_values(self, tmp_path):
        # every plotted value the same: no span on the y axis to divide by
        plot = tmp_path / "flat.svg"
        rows = [sweep.SweepRow(m, order, 0.5, 0.5, 0.5, 0.0)
                for m in (1.0, 4.0) for order in (2, 4)]
        sweep.render_sweep_svg(rows, plot)
        attrs = re.findall(r' (?:c?[xy]|[xy][12]|points)="([^"]*)"',
                           plot.read_text())
        coords = [float(v) for s in attrs for v in re.split("[ ,]", s)]
        assert coords and all(map(math.isfinite, coords))

    def test_byte_stable_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "simulate", "--M-grid", "1:4:3", "--samples", "10000",
                "--seed", "6", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_defaults_are_the_documented_sweep(self, monkeypatch, tmp_path):
        # the parser reads its defaults from sweep: a bare `simulate` runs
        # texture_sweep() exactly
        calls = []
        monkeypatch.setattr(cli, "texture_sweep",
                            lambda **kw: calls.append(kw) or [])
        monkeypatch.setattr(cli, "write_sweep_csv", lambda rows, path: None)
        assert main(["simulate", "--out", str(tmp_path / "s.csv")]) == 0
        wanted = inspect.signature(sweep.texture_sweep).parameters
        for name, value in calls[0].items():
            if name == "m_grid":
                assert value == sweep.default_m_grid()
            else:
                assert value == wanted[name].default, name

    def test_an_empty_message_names_the_error(self, capsys, monkeypatch,
                                              tmp_path):
        # a bare MemoryError() from the sweep printed `error: ` alone
        def texture_sweep(**kw):
            raise MemoryError()
        monkeypatch.setattr(cli, "texture_sweep", texture_sweep)
        code, out, err = run(capsys, "simulate", "--M-grid", "1:4:3",
                             "--out", str(tmp_path / "s.csv"))
        assert (code, out, err) == (2, "", "error: MemoryError\n")

    def test_too_few_samples_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--M-grid", "1:4:3",
                           "--samples", "500", "--out",
                           str(tmp_path / "s.csv"))
        assert code == 2
        assert "10^4" in err

    def test_bad_grid_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--M-grid", "5:1:10",
                         "--samples", "20000", "--out",
                         str(tmp_path / "s.csv"))
        assert code == 2

    @pytest.mark.parametrize("m_grid", ["1:inf:3", "0.5:inf:3:log"])
    def test_infinite_grid_bound_exit_2(self, capsys, tmp_path, m_grid):
        code, _, err = run(capsys, "simulate", "--M-grid", m_grid,
                           "--samples", "20000", "--out",
                           str(tmp_path / "s.csv"))
        assert code == 2
        assert "--M-grid" in err and "nan" not in err

    def test_default_m_grid_rejects_an_infinite_bound(self):
        with pytest.raises(ValueError, match="< inf"):
            sweep.default_m_grid(1.0, math.inf, 3)

    @pytest.mark.parametrize("m_grid,message", [
        ("1:4:3:lin", "grid suffix must be 'log', got 'lin'"),
        ("1:4", "--M-grid must be start:stop:count[:log]"),
        ("a:4:3", "bad --M-grid 'a:4:3'"),
    ], ids=["suffix", "too-few-parts", "not-a-number"])
    def test_malformed_grid_exit_2(self, capsys, tmp_path, m_grid, message):
        code, out, err = run(capsys, "simulate", "--M-grid", m_grid,
                             "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert err == f"error: {message}\n" and out == ""

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_missing_directory_names_the_path(self, capsys, tmp_path, flag):
        paths = {"--out": tmp_path / "s.csv", "--plot": tmp_path / "s.svg"}
        paths[flag] = tmp_path / "missing" / "x"
        code, _, err = run(capsys, "simulate", "--M-grid", "1:4:2",
                           "--samples", "10000", "--out", str(paths["--out"]),
                           "--plot", str(paths["--plot"]))
        assert code == 2
        assert err.startswith(f"error: cannot write {paths[flag]}: ")

    def test_an_empty_grid_raises(self):
        # it returned no rows, which render_sweep_svg could not plot
        with pytest.raises(ValueError, match="^m_grid is empty"):
            sweep.texture_sweep(m_grid=[], n=10**4)

    @pytest.mark.parametrize("order,stderr,message", [
        (3, 0.1, "order must be 2 or 4, got 3"),
        (2, -1.0, "stderr must be nonnegative"),
    ], ids=["order", "stderr"])
    def test_sweep_row_checks_its_fields(self, order, stderr, message):
        with pytest.raises(ValueError, match=message):
            sweep.SweepRow(1.0, order, 0.0, 0.0, 0.0, stderr)


    @pytest.mark.parametrize("m", [math.nan, -1.0, math.inf, 0.0])
    def test_a_bad_grid_value_is_named(self, m):
        # the texture's own check named its field L instead
        with pytest.raises(ValueError, match=rf"^m_grid holds {m!r}: every "
                           "texture shape M must be a positive finite"):
            sweep.texture_sweep(m_grid=[1.0, m], n=10**4)

    def test_sweep_row_refuses_a_nan_stderr(self):
        # nan < 0.0 is False, so the row took it
        with pytest.raises(ValueError,
                           match="^stderr must be nonnegative, got nan$"):
            sweep.SweepRow(1.0, 2, 0.0, 0.0, 0.0, math.nan)


class TestVerifyCommand:
    def test_family_filter_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--families", "gamma,rayleigh")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "gamma" in out and "rayleigh" in out
        # only the requested families run
        for other in ("fisher", "weibull", "maxwell", "wnak"):
            assert other not in out

    @pytest.mark.parametrize("tolerance", ["1", "nan", "-1", "inf"])
    def test_no_run_sets_a_gate(self, capsys, monkeypatch, tolerance):
        # --tolerance 1 once set the agreement gate and passed every transform
        def no_check(*args, **kwargs):
            raise AssertionError("a check ran")
        monkeypatch.setattr(verify, "transform_tables", no_check)
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--tolerance", tolerance])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --tolerance" in captured.err

    def test_json_carries_bound_and_count(self, capsys):
        code, out, _ = run(capsys, "verify", "--families", "gamma,k",
                           "--json")
        assert code == 0
        outcomes = json.loads(out)
        quadrature = [o for o in outcomes if o["evaluations"] is not None]
        assert [o["name"] for o in quadrature] == [
            "normalization", "normalization", "transform-agreement",
            "transform-agreement", "convolution-product"]
        for o in quadrature:
            assert o["passed"] and 0.0 < o["error_bound"] <= o["threshold"]
            assert f"pdf_pts={o['evaluations']}" in o["detail"]
        assert all(o["error_bound"] is None for o in outcomes
                   if o["name"] == "monte-carlo-cumulants")

    def test_json_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "AGREEMENT_GATE", 1e-15)
        code, out, _ = run(capsys, "verify", "--families", "gamma", "--json")
        assert code == 1
        assert not all(o["passed"] for o in json.loads(out))

    def test_monte_carlo_family_filter_rejects_unknown_names(self):
        for families in (["bogus", "gamma"], ["bogus"]):
            with pytest.raises(ValueError,
                               match=r"unknown families \['bogus'\]"):
                verify.monte_carlo_checks(families)
        # wnak is a known family with no Monte-Carlo spec
        assert verify.monte_carlo_checks(["wnak"]) == []

    def test_empty_family_list_is_a_usage_error(self, capsys, monkeypatch):
        # an empty value must not run the whole suite
        def no_check(*args, **kwargs):
            raise AssertionError("a check ran")
        monkeypatch.setattr(verify, "normalization_checks", no_check)
        code, out, err = run(capsys, "verify", "--families", "")
        assert code == 2
        assert out == "" and "unknown families ['']" in err

    @pytest.mark.parametrize("entry", [
        verify.run_all, verify.transform_tables, verify.monte_carlo_checks],
        ids=lambda entry: entry.__name__)
    def test_an_empty_selection_raises(self, entry):
        # an empty list of outcomes would read as a pass
        with pytest.raises(ValueError, match="^no families selected"):
            entry([])

    def test_impossible_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "AGREEMENT_GATE", 1e-15)
        code, out, _ = run(capsys, "verify", "--families", "gamma")
        assert code == 1
        assert "[FAIL]" in out
