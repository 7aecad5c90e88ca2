"""The CSV writer and reader: the vectorized ``%.17g`` kernel against
Python's own formatter, the ``sample`` and sweep files against the per-row
f-string loops they replaced, and the ``estimate`` reader."""

import math
import os
import re
import subprocess
import sys
from dataclasses import astuple, fields
from fractions import Fraction
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


def layout_of(text: str) -> tuple[int, int]:
    """The notation of one '%.17g' text, its decimal exponent in fixed
    notation and -5 or 17 in scientific, and its significant digits
    without trailing zeros: the kernel's layout of it."""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, frac = mantissa.partition(".")
    if exponent:
        notation = -5 if int(exponent) < 0 else 17
    elif whole != "0":
        notation = len(whole) - 1
    else:
        notation = -1 - (len(frac) - len(frac.lstrip("0")))
    return notation, len((whole + frac).strip("0"))


def layout_pool(rng) -> dict:
    """Values by layout: decimals of 1 to 17 digits at exponents -8 to 23
    and dyadic rationals of 1 to 53 bits, each kept in the layout its
    '%.17g' text has."""
    pool = []
    for e in range(-8, 24):
        for k in range(1, 18):
            for _ in range(3):
                # k digits, the last one nonzero
                d = int(rng.integers(10**(k - 1), 10**k)) // 10 * 10 \
                    + int(rng.integers(1, 10))
                pool.append(float(f"{d}e{e - k + 1}"))
    for j in range(-70, 60):
        for bits in range(1, 54, 4):
            pool.append((int(rng.integers(2**(bits - 1), 2**bits)) | 1)
                        * 2.0**j)
    layouts = {}
    for v in pool:
        layouts.setdefault(layout_of("%.17g" % v), []).append(v)
    return layouts


class TestChunks:
    """One chunk of CHUNK_ROWS rows whose per-row paths all mix."""

    def test_every_layout_and_fallback_in_one_chunk(self):
        rng = np.random.default_rng(16)
        layouts = layout_pool(rng)
        assert {x for x, _ in layouts} == set(range(-5, 18))   # 23
        assert {kept for _, kept in layouts} == set(range(1, 18))
        values = [v * sign for group in layouts.values()
                  for v, sign in zip(group[:4], (1, -1, -1, 1))]
        values += TIES + [-v for v in TIES]
        values += [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                   -1e-300, float(np.nextafter(1e-240, 0.0)),
                   float(np.nextafter(-1e240, -math.inf)), 1e300,
                   -1.7976931348623157e308]
        fill = _csv.CHUNK_ROWS - len(values)
        assert fill > 0
        values += (10.0 ** rng.uniform(-250, 250, fill)
                   * rng.choice([-1.0, 1.0], fill)).tolist()
        column = rng.permutation(np.array(values))
        assert _csv.format_rows([column]) == reference_column(column)

    def test_integers_of_every_width_in_one_chunk(self):
        rng = np.random.default_rng(17)
        columns = []
        for top in range(1, 17):
            # widths 1..top digits, 0 among them
            digits = 1 + np.arange(_csv.CHUNK_ROWS) % top
            column = rng.integers(10 ** (digits - 1), 10 ** digits)
            column[::97] = 0
            columns.append(rng.permutation(column))
        assert _csv.format_rows(columns) == "".join(
            ",".join(str(int(c[i])) for c in columns) + "\n"
            for i in range(_csv.CHUNK_ROWS)).encode()


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

    @pytest.mark.parametrize("n", [
        _csv.CHUNK_ROWS - 1, _csv.CHUNK_ROWS, _csv.CHUNK_ROWS + 1,
        2 * _csv.CHUNK_ROWS - 1, 2 * _csv.CHUNK_ROWS, 2 * _csv.CHUNK_ROWS + 1,
        65535, 65536, 65537])
    def test_chunk_edges(self, n, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert main(["sample", "--family", "k", "--params", "alpha=2,b=1",
                     "--n", str(n), "--seed", "9", "--out", str(out)]) == 0
        assert out.read_bytes() == reference_sample(
            sample(dist.KAmplitude(2.0, 1.0), n, 9))

    def test_sweep_csv_header(self):
        assert SWEEP_CSV_HEADER == (
            "M,order,logmoment_data,logcumulant_texture_est,"
            "logcumulant_texture_analytic,stderr")

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


def loadtxt_column(path, column):
    """The reader that ``read_column`` replaced, as the reference: the
    rows after the header line, parsed by ``np.loadtxt``."""
    return np.loadtxt(path, delimiter=",", comments=None, usecols=column,
                      skiprows=1, ndmin=1)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64))


# below 2^64 and exactly halfway between two doubles: 2^53 + 1 and 2^53 + 3
# (ulp 2), 2^54 + 2 (ulp 4), 2^63 + 1024 (ulp 2048); and the midpoint of
# 1 and its successor, too long for the kernel
HALFWAY = ["9007199254740993", "9007199254740995", "18014398509481986",
           "9223372036854776832",
           "1.00000000000000011102230246251565404236316680908203125"]
# both block sizes: every row through the scalar path, and the default
BLOCKS = [1, _csv.BLOCK_BYTES]
# enough rows ahead of the tested ones that the kernel parses them
LEAD = "index,x\n" + "0,0.5\n" * 8


class TestExactReader:
    @settings(deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                           | st.integers(0, 2**64 - 1).map(bits).filter(
                               np.isfinite), min_size=1, max_size=40),
           formats=st.lists(st.sampled_from(["%.17g", "repr"]), min_size=1))
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     2.2250738585072009e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e-240, 1e240, 1e23],
             formats=["%.17g", "repr"])
    @example(values=[float(f"1e{k}") for k in range(-323, 309)],
             formats=["%.17g"])
    def test_written_doubles_read_back_bit_identical(self, values, formats,
                                                     tmp_path_factory):
        texts = [repr(v) if formats[i % len(formats)] == "repr"
                 else "%.17g" % v for i, v in enumerate(values)]
        path = tmp_path_factory.mktemp("p") / "v.csv"
        path.write_text(LEAD + "".join(f"{i},{t}\n"
                                       for i, t in enumerate(texts)))
        got = _csv.read_column(path)[8:]
        assert same_bits(got, [float(t) for t in texts])
        assert same_bits(got, values)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_hand_typed_forms_match_loadtxt(self, block, tmp_path,
                                            monkeypatch):
        forms = ["+1.5", ".5", "5.", "1E5", "1e+05", "1e400", "1e-400",
                 "-Infinity", "NaN", "-0", "-.0e-0", "+0.000e+0000", "1e-9",
                 "-2.5E-0003", "007", "1.e5", "12345678901234567890123",
                 "0.00000000000000000000001", "1e0000000000005", "inF",
                 "infinity", "-nan", *HALFWAY, "4.9406564584124654e-324",
                 "2.4703282292062328e-324", "2.4703282292062327e-324",
                 "1.7976931348623158e308", "1.7976931348623159e308"]
        path = tmp_path / "forms.csv"
        path.write_text(LEAD + "".join(f"{i},{f}\n"
                                       for i, f in enumerate(forms)))
        monkeypatch.setattr(_csv, "BLOCK_BYTES", block)
        got = _csv.read_column(path)
        assert same_bits(got, loadtxt_column(path, 1))
        assert got[8:10].tolist() == [1.5, 0.5]
        assert got[13:15].tolist() == [math.inf, 0.0]
        assert same_bits(got[8:], [float(f) for f in forms])

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("field", ["1_000", "١٢", "1e", "--1", "0x1p3",
                                       "1.5.5", "1e5e5", "e5", ".", "+",
                                       "1 5", "nan(1)"])
    def test_rejected_with_the_loadtxt_message(self, field, block, tmp_path,
                                               monkeypatch):
        path = tmp_path / "bad.csv"
        path.write_text(LEAD + f"9,{field}\n10,1.0\n", encoding="utf-8")
        monkeypatch.setattr(_csv, "BLOCK_BYTES", block)
        message = f"could not convert string {field!r} to float64 at "
        with pytest.raises(ValueError) as exc:
            _csv.read_column(path)
        assert str(exc.value) == message + "line 10, column 2."
        with pytest.raises(ValueError, match=re.escape(message + "row")):
            loadtxt_column(path, 1)

    def test_scale_rounds_as_exact_arithmetic(self):
        # w * 10^q for w < 10^19 over the whole table, against the exact
        # rational rounded once
        rng = np.random.default_rng(11)
        w = rng.integers(0, 10**19, 3000, dtype=np.uint64)
        w[:1000] //= 10 ** rng.integers(0, 19, 1000).astype(np.uint64)
        q = rng.integers(_csv._K_MIN, _csv._K_MAX + 1, w.size)
        r, certain = _csv._scale(w, q)
        assert certain.mean() > 0.999
        exact = [float(Fraction(int(a)) * Fraction(10) ** int(b))
                 for a, b in zip(w[certain], q[certain])]
        assert same_bits(r[certain], exact)

    def test_long_bad_field_is_cut_as_loadtxt_cuts_it(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(LEAD + "9," + "1" * 200 + "x\n")
        with pytest.raises(ValueError, match=r"^could not convert string "
                           r"'1{99} to float64 at line 10, column 2\.$"):
            _csv.read_column(path)

    @staticmethod
    def scalar_rows(monkeypatch) -> list:
        """The rows ``_parse_line`` is called for from now on."""
        calls = []
        parse_line = _csv._parse_line
        monkeypatch.setattr(_csv, "_parse_line",
                            lambda *args: calls.append(args)
                            or parse_line(*args))
        return calls

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    @pytest.mark.parametrize("family, params, spec", [
        ("wnak", "c=1.5,alpha=2,b=1", dist.WeibullNakagami(1.5, 2.0, 1.0)),
        ("gamma", "L=4,mu=1", dist.GammaPower(4.0, 1.0))])
    def test_writer_output_takes_the_kernel(self, family, params, spec,
                                            ending, tmp_path, monkeypatch):
        # every sampled value is certified by the kernel, except rows
        # that end within the first bytes of a block; 'x' is the middle
        # column of a wnak file and the last of a gamma file
        out = tmp_path / "w.csv"
        main(["sample", "--family", family, "--params", params,
              "--n", "50000", "--seed", "5", "--out", str(out)])
        out.write_bytes(out.read_bytes().replace(b"\n", ending.encode()))
        calls = self.scalar_rows(monkeypatch)
        assert same_bits(_csv.read_column(out),
                         sample(spec, 50000, 5).values)
        assert len(calls) <= -(-out.stat().st_size // _csv.BLOCK_BYTES)

    def test_kernel_forms(self, tmp_path, monkeypatch):
        forms = ["1.5", "-0", ".5", "5.", "1E5", "1e+05", "-2.5E-0003",
                 "1e-9", "007", "9999999999999999999", "-1e+00000257",
                 "0.0000000000000000000001", "1.2345678901234567e-240"]
        path = tmp_path / "kernel.csv"
        path.write_text(LEAD + "".join(f"{i},{f}\n"
                                       for i, f in enumerate(forms)))
        calls = self.scalar_rows(monkeypatch)
        assert same_bits(_csv.read_column(path)[8:],
                         [float(f) for f in forms])
        # a signed field takes the scalar path, which reads it exactly
        scalar = [args for args in calls if args[2] >= 10]
        assert [forms[line - 10] for _, _, line in scalar] \
            == ["-0", "-2.5E-0003", "-1e+00000257"]
        assert all(same_bits([_csv._parse_line(*args)],
                             [float(forms[args[2] - 10])]) for args in scalar)


class TestReaderBlocks:
    ROWS = "".join(f"{i},{v!r},{-v!r}\n" for i, v in enumerate(
        (np.random.default_rng(7).standard_normal(60)
         * 10.0 ** np.arange(-30, 30)).tolist()))

    @pytest.mark.parametrize("block", [1, 2, 7, 23, 24, 25, 31, 64, 100,
                                       257, 4096])
    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_rows_and_numbers_split_across_blocks(self, block, ending,
                                                  tmp_path, monkeypatch):
        path = tmp_path / "split.csv"
        text = ("index,x,z\n" + self.ROWS).replace("\n", ending)
        path.write_bytes(text.encode())
        want = loadtxt_column(path, 1)
        monkeypatch.setattr(_csv, "BLOCK_BYTES", block)
        assert same_bits(_csv.read_column(path), want)
        # no final line end: the last row still counts
        path.write_bytes(text.rstrip("\r\n").encode())
        assert same_bits(_csv.read_column(path), want)

    def test_bad_field_at_every_block_edge_names_its_line(self, tmp_path,
                                                           monkeypatch):
        lines = ["index,x"] + [f"{i},{i}.25" for i in range(30)]
        lines[20] = "19,1.2.5"
        path = tmp_path / "edge.csv"
        path.write_text("\n".join(lines) + "\n")
        for block in range(1, len(path.read_bytes()) + 2):
            monkeypatch.setattr(_csv, "BLOCK_BYTES", block)
            with pytest.raises(ValueError, match="could not convert string "
                               "'1.2.5' to float64 at line 21, column 2."):
                _csv.read_column(path)

    def test_short_row_after_the_last_comma(self, tmp_path):
        # the block's last comma is on an earlier line; the field between
        # it and this line's end would read as 123e45
        path = tmp_path / "short.csv"
        path.write_text("index,x\n" + "0,123\n" * 10 + "45\n")
        with pytest.raises(ValueError, match="^invalid column index 1 at "
                                             "line 12 with 1 columns$"):
            _csv.read_column(path)

    def test_a_block_with_no_comma_under_a_two_column_header(self, tmp_path):
        # the kernel hands a block without a comma to the scalar path
        path = tmp_path / "no_comma.csv"
        path.write_text("index,x\n" + "1.5\n" * 40)
        with pytest.raises(ValueError, match="^invalid column index 1 at "
                                             "line 2 with 1 columns$"):
            _csv.read_column(path)

    def test_short_first_row_of_a_block(self, tmp_path):
        # the kernel sees no field ending within a block's first _WIDTH
        # bytes: the bytes after it would fill its window
        path = tmp_path / "short.csv"
        path.write_text("x\n1\n" + "2" * 30 + "\n")
        assert _csv.read_column(path).tolist() == [1.0, float("2" * 30)]

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 4096])
    def test_byte_order_mark_is_dropped(self, block, tmp_path, monkeypatch):
        # a BOM before a number once made the first row read as a header
        monkeypatch.setattr(_csv, "BLOCK_BYTES", block)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
        assert _csv.read_column(path).tolist() == [1.5, 2.5, 3.5]
        path.write_bytes(b"\xef\xbb\xbfindex,x\n0,1.5\n1,2.5\n")
        assert _csv.read_column(path).tolist() == [1.5, 2.5]
        # file lines keep their numbers
        path.write_bytes(b"\xef\xbb\xbfx\n1.0\nabc\n")
        with pytest.raises(ValueError, match="'abc' to float64 at line 3,"):
            _csv.read_column(path)

    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_header_only_and_blank_only(self, block, tmp_path, monkeypatch):
        monkeypatch.setattr(_csv, "BLOCK_BYTES", block)
        path = tmp_path / "h.csv"
        for body in ["index,x\n", "index,x", "\n\r\n  \nindex,x\r\n\n"]:
            path.write_text(body, newline="")
            got = _csv.read_column(path)
            assert got.shape == (0,) and got.dtype == np.float64
        path.write_text("\n \r\n\t\n", newline="")
        with pytest.raises(ValueError, match="^empty input$"):
            _csv.read_column(path)


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
