"""The CSV writer and reader: the vectorized ``%.17g`` kernel against
Python's own formatter, the ``sample`` and sweep files against the per-row
f-string loops they replaced, and the ``estimate`` reader."""

import os
import subprocess
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clutterstats
from clutterstats import _csv, verify
from clutterstats import distributions as dist
from clutterstats.cli import main
from clutterstats.sampling import sample
from clutterstats.sweep import SWEEP_CSV_HEADER, SweepRow, write_sweep_csv


def reference_column(values) -> bytes:
    return "".join(f"{v:.17g}\n" for v in values).encode()


def reference_sample(batch) -> bytes:
    """The per-row loop that ``sample`` used before the kernel."""
    lines = []
    if batch.texture is None:
        lines.append("index,x")
        for i, v in enumerate(batch.values):
            lines.append(f"{i},{v:.17g}")
    else:
        lines.append("index,x,z")
        for i, (v, z) in enumerate(zip(batch.values, batch.texture)):
            lines.append(f"{i},{v:.17g},{z:.17g}")
    return ("\n".join(lines) + "\n").encode()


def bits(pattern: int) -> float:
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


BELOW_1E_4 = float(np.nextafter(1e-4, 0.0))
BELOW_1E17 = float(np.nextafter(1e17, 0.0))
TIES = [916695891126713.125, 26215 * 2.0**-18, 15 * 2.0**-24]


class TestKernel:
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(values=st.lists(st.floats() | st.integers(0, 2**64 - 1).map(bits),
                           min_size=1, max_size=40))
    @example(values=[0.0, -0.0, float("inf"), float("-inf"), float("nan")])
    @example(values=[5e-324, 1.7976931348623157e308,
                     2.2250738585072014e-308, -5e-324])
    @example(values=[1e-5, 1e-4, BELOW_1E_4, 1e16, 1e17, BELOW_1E17])
    @example(values=[float(f"1e{k}") for k in range(-300, 300)])
    @example(values=TIES + [-v for v in TIES])
    @example(values=[-1e-5, -BELOW_1E_4, -1e16, -BELOW_1E17, -1e-300,
                     -123.456, -1e240, -1e-240])
    def test_bytes_equal_python_formatting(self, values):
        assert _csv.format_rows([np.array(values)]) == \
            reference_column(values)

    def test_ties_round_half_even(self):
        assert _csv.format_rows([np.array(TIES)]) == \
            b"916695891126713.12\n0.10000228881835938\n" \
            b"8.9406967163085938e-07\n"

    def test_dense_random_bit_patterns(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**64, 20000, dtype=np.uint64) \
            .view(np.float64)
        assert _csv.format_rows([values]) == reference_column(values)

    def test_integer_columns(self):
        ints = np.array([0, 9, 10, 99, 100, 9999, 10000, 99999, 100000,
                         10**15, 10**16 - 1])
        assert _csv.format_rows([ints]) == \
            "".join(f"{i}\n" for i in ints).encode()
        for bad in ([-1], [10**16]):
            with pytest.raises(ValueError):
                _csv.format_rows([np.array(bad)])

    @pytest.mark.parametrize("start, stop", [(0, 20), (99990, 100010)])
    def test_index_widths(self, start, stop):
        x = np.linspace(-3.0, 7.0, stop - start)
        assert _csv.format_rows([range(start, stop), x, -x]) == "".join(
            f"{i},{v:.17g},{-v:.17g}\n"
            for i, v in zip(range(start, stop), x)).encode()


class TestSampleFiles:
    @pytest.mark.parametrize("family", sorted(dist.FAMILY_TAGS))
    def test_every_family_matches_the_loop(self, family, tmp_path, capsys):
        spec = verify.PARAM_GRID[family][0]
        params = ",".join(f"{f.name}={v!r}"
                          for f, v in zip(fields(spec), astuple(spec)))
        out = tmp_path / "s.csv"
        assert main(["sample", "--family", family, "--params", params,
                     "--n", "2000", "--seed", "4", "--out", str(out)]) == 0
        assert out.read_bytes() == reference_sample(sample(spec, 2000, 4))

    @pytest.mark.parametrize("n", [_csv.CHUNK_ROWS - 1, _csv.CHUNK_ROWS,
                                   _csv.CHUNK_ROWS + 1, 65535, 65536, 65537])
    def test_chunk_edges(self, n, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert main(["sample", "--family", "k", "--params", "alpha=2,b=1",
                     "--n", str(n), "--seed", "9", "--out", str(out)]) == 0
        assert out.read_bytes() == reference_sample(
            sample(dist.KAmplitude(2.0, 1.0), n, 9))

    def test_sweep_csv_matches_the_loop(self, tmp_path):
        rows = [SweepRow(0.25, 2, -1.5, 3.25e-7, 1e300, 0.0),
                SweepRow(17.5, 4, 2.0, -0.0, -123456.789, 5e-324)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = [SWEEP_CSV_HEADER] + [",".join((
            f"{r.M:.17g}", str(r.order), f"{r.logmoment_data:.17g}",
            f"{r.logcumulant_texture_est:.17g}",
            f"{r.logcumulant_texture_analytic:.17g}", f"{r.stderr:.17g}"))
            for r in rows]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def estimate(capsys, path):
    code = main(["estimate", "--family", "gamma", "--input", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReader:
    def test_sampled_values_read_back_exactly(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        main(["sample", "--family", "ggamma", "--params", "L=4,M=2,mu=1",
              "--n", "5000", "--seed", "3", "--out", str(out)])
        batch = sample(dist.GammaGamma(4.0, 2.0, 1.0), 5000, 3)
        assert np.array_equal(_csv.read_column(out), batch.values)

    def test_crlf_blank_and_whitespace_lines_are_skipped(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"index,x\r\n\r\n0,1.5\r\n   \r\n1, 2.25 \r\n"
                         b"\t\n2,3e-5\r\n\n")
        assert _csv.read_column(path).tolist() == [1.5, 2.25, 3e-5]

    def test_header_picks_x_and_headerless_uses_first_column(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("index,x,z\n0,1.5,9\n1,2.5,9\n")
        assert _csv.read_column(path).tolist() == [1.5, 2.5]
        path.write_text("z,X\n7,1.5\n8,2.5\n")
        assert _csv.read_column(path).tolist() == [1.5, 2.5]
        path.write_text("4.5,1\n5.5,2\n")
        assert _csv.read_column(path).tolist() == [4.5, 5.5]
        path.write_text("x\n")
        assert _csv.read_column(path).size == 0

    @pytest.mark.parametrize("body, detail", [
        ("x\n1.0\nabc\n", "could not convert string 'abc'"),
        ("index,x\n0,1.0\n1\n", "invalid column index 1"),
        ("x\n1_000\n", "could not convert string '1_000'"),
        ("x\n1.0\n\n2.0\nabc\n", "could not convert string 'abc'"),
        ("index,x\n\n0,1.0\n  \n1\n", "invalid column index 1"),
    ])
    def test_bad_rows_exit_2_naming_the_path(self, body, detail, tmp_path,
                                             capsys):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        code, _, err = estimate(capsys, path)
        assert code == 2
        assert f"error: {path}: " in err
        # the bad row is the last line of each body; blank lines count
        assert detail in err and f"at line {len(body.splitlines())}" in err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("\n  \n")
        code, _, err = estimate(capsys, path)
        assert code == 2
        assert f"{path}: empty input" in err


def test_weak_k4_vote_is_reported(tmp_path, capsys):
    # at 10^5 rows and seed 3, k_4 picks the wrong wnak root by 0.46
    # standard errors of k_4
    data = tmp_path / "wnak.csv"
    main(["sample", "--family", "wnak", "--params", "c=1.5,alpha=2,b=1",
          "--n", "100000", "--seed", "3", "--out", str(data)])
    code = main(["estimate", "--family", "wnak", "--input", str(data)])
    err = capsys.readouterr().err
    assert code == 0
    assert "k_4 picked the estimate by 0.46 standard errors of k_4 over " \
        "the next law (a separation under 2 is not significant)" in err


def test_cli_start_up_builds_no_tables():
    # `clutterstats --help` must not pay for the kernel's tables
    probe = ("import clutterstats.cli as cli, clutterstats._csv as c; "
             "cli._build_parser().format_help(); "
             "print(c._powers.cache_info().currsize, "
             "c._tables.cache_info().currsize)")
    src = Path(clutterstats.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.split() == ["0", "0"]
