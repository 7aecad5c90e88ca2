import numpy as np
import pytest

from clutterstats.cli import main
from clutterstats.specfun import polygamma
from clutterstats.sweep import SWEEP_CSV_HEADER


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

    def test_huge_shape_prints_defined_cells(self, capsys):
        # polygamma(n, 1e300) underflows instead of overflowing y**n
        code, out, _ = run(capsys, "table", "--family", "gamma",
                           "--params", "L=1e300,mu=1", "--orders", "4")
        assert code == 0
        rows = [ln.split() for ln in out.splitlines()[2:]]
        assert [float(r[1]) for r in rows] == pytest.approx([1.0] * 4)
        assert [abs(float(r[2])) for r in rows[1:]] == \
            pytest.approx([1e-300, 0.0, 0.0], rel=1e-12, abs=1e-320)

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run(capsys, "table", "--family", "gamma",
                           "--params", "L=-1,mu=2")
        assert code == 2
        assert "positive" in err

    def test_unknown_family_exit_2(self, capsys):
        code, _, err = run(capsys, "table", "--family", "lognormal",
                           "--params", "m=1")
        assert code == 2
        assert "unknown family" in err


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

    def test_zero_draws_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sample", "--family", "gamma",
                           "--params", "L=4,mu=1", "--n", "0",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert ">= 1" in err

    def test_unwritable_path_exit_2(self, capsys):
        code, _, _ = run(capsys, "sample", "--family", "gamma",
                         "--params", "L=4,mu=1", "--n", "10",
                         "--out", "/nonexistent-dir/x.csv")
        assert code == 2


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

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "estimate", "--family", "gamma",
                         "--input", "/does/not/exist.csv")
        assert code == 2


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

    def test_byte_stable_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "simulate", "--M-grid", "1:4:3", "--samples", "10000",
                "--seed", "6", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

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


class TestVerifyCommand:
    def test_family_filter_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--families", "gamma,rayleigh")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "gamma" in out and "rayleigh" in out
        # only the requested families run
        for other in ("fisher", "weibull", "maxwell", "wnak"):
            assert other not in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--families", "gamma",
                           "--tolerance", "1e-15")
        assert code == 1
        assert "[FAIL]" in out
