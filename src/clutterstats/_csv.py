"""CSV text: rows of ``%.17g`` floats and decimal integers, written in
chunks, and one numeric column read back.

Python's ``'%.17g' % v`` costs about 0.8 us per float, which made CSV text
most of the cost of writing a sampled batch.  ``_g17`` forms the same bytes
for a whole column with numpy:

* scale: ``E = floor(log10|x|)`` and ``y = |x| * 10^(16-E)`` as a
  double-double (Dekker's TwoProduct; ``10^k = hi + lo`` is built exactly
  from ``fractions.Fraction``), so ``floor(y)`` has the 17 leading digits;
* round: the 17-digit integer ``D`` is ``floor(y)`` plus the rounding of
  the fraction; for ``0 <= 16-E <= 22`` the power and the product are exact
  and a tie rounds half to even, as CPython's formatter does;
* lay out: the digits of ``D``, the position of the last nonzero one and
  ``E`` pick one byte pattern (fixed notation for ``-4 <= E < 17``,
  scientific otherwise) that one gather fills; the NUL padding of the
  patterns is deleted from each chunk's bytes.

An element the kernel cannot certify is formatted by ``'%.17g' %`` itself:
0, -0, inf and nan, ``|x|`` outside ``[1e-240, 1e240]``, an ``E`` that
``log10`` got off by one, a ``D`` that rounds up to ``10^17``, and an
inexact product whose fraction lies within 1e-6 of one half.  So every value
prints as Python prints it.

The power and pattern tables are built on first use, not at import.
"""

from __future__ import annotations

import functools
import itertools
import re
import warnings

import numpy as np

__all__ = ["CHUNK_ROWS", "write_csv", "format_rows", "read_column"]

# rows per chunk: small enough that a chunk's gather indices (24 intp per
# float) stay in cache; 8192 formatted three-column rows about 1.5x faster
# than 65536 on a 2-core Xeon
CHUNK_ROWS = 8192

_WIDTH = 24                  # '-' + 17 digits + '.' + 'e-308'
_LO, _HI = 1e-240, 1e240     # magnitudes the kernel formats itself
_E_MIN, _E_MAX = -241, 240   # floor(log10 |x|) over that range
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0         # 2^27 + 1, Dekker's splitter

# A pattern picks each output byte from a 32-byte row per element: '000'
# and the 17 digits of D (bytes 0-19), the sign or NUL, '.', NUL, NUL
# (20-23) and the exponent suffix, NUL-padded (24-31).
_DIGIT0, _SIGN, _DOT, _PAD, _SUFFIX = 3, 20, 21, 22, 24
_ROW = 32


def _split(v):
    big = _SPLIT * v
    big = big - (big - v)
    return big, v - big


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """For each E in [_E_MIN, _E_MAX]: 10^(16-E) = hi + lo exactly to
    double-double precision, with hi also split in halves for TwoProduct."""
    from fractions import Fraction
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        exact = Fraction(10) ** (16 - e)
        hi.append(float(exact))
        lo.append(float(exact - Fraction(hi[-1])))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _suffix(x: int) -> str:
    return f"e{x:+03d}"


def _layout(x: int, kept: int) -> list[int]:
    """Row positions of the bytes of '%.17g' for decimal exponent x and
    `kept` significant digits (trailing zeros stripped); x = -5 or 17
    stands for every exponent written in scientific notation, whose
    suffix the row holds NUL-padded."""
    digits = [_DIGIT0 + k for k in range(kept)]
    if 0 <= x < 17:
        # zeros left of the point are written, not stripped
        digits += range(_DIGIT0 + kept, _DIGIT0 + x + 1)
        text = digits[:x + 1]
        if kept > x + 1:
            text += [_DOT] + digits[x + 1:]
    elif -4 <= x < 0:
        text = [0, _DOT] + [0] * (-x - 1) + digits
    else:
        text = digits[:1] + ([_DOT] + digits[1:] if kept > 1 else [])
        text += range(_SUFFIX, _SUFFIX + len(_suffix(_E_MIN)))
    return [_SIGN] + text + [_PAD] * (_WIDTH - 1 - len(text))


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The layouts of every (x, kept digits) with x in [-5, 17], indexed
    (x + 5) * 17 + kept - 1; each E's suffix as a uint64; the ASCII of
    0000..9999 as uint32 words with the trailing zero count of each (4 for
    0)."""
    layouts = np.array([_layout(x, kept) for x in range(-5, 18)
                        for kept in range(1, 18)], dtype=np.uint8)
    suffixes = np.frombuffer(b"".join(
        _suffix(x).encode().ljust(8, b"\0")
        for x in range(_E_MIN, _E_MAX + 1)), dtype="<u8")
    quads = np.frombuffer("".join(f"{i:04d}" for i in range(10**4))
                          .encode(), dtype="<u4")
    i = np.arange(10**4)
    zeros = sum((i % 10**k == 0).astype(np.intp) for k in range(1, 5))
    return layouts, suffixes, quads, zeros


def _g17(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.17g' % v`` of each float into the rows of ``out``, an
    (n, 24) uint8 block, NUL-padded."""
    ax = np.abs(x)
    ok = (ax >= _LO) & (ax <= _HI)
    a = np.where(ok, ax, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, _E_MIN, _E_MAX, out=e)
    h, h_big, h_small, l = (table[e - _E_MIN] for table in _powers())
    # y = a * 10^k = p + t, with p + err = a * h exactly (TwoProduct)
    p = a * h
    a_big, a_small = _split(a)
    err = ((a_big * h_big - p) + a_big * h_small + a_small * h_big) \
        + a_small * h_small
    t = err + a * l
    whole = np.floor(t)
    frac = t - whole
    base = p.astype(np.int64) + whole.astype(np.int64)
    exact = l == 0.0
    d = base + ((frac > 0.5) | ((frac == 0.5) & exact & (base % 2 == 1)))
    ok &= (base >= 10**16) & (d < 10**17)
    ok &= exact | (np.abs(frac - 0.5) > _TIE_MARGIN)

    # D = g0 g1 g2 g3 g4: one digit, then four groups of four
    layouts, suffixes, quads, zeros = _tables()
    top, bottom = np.divmod(d, 10**8)
    g0, rest = np.divmod(top, 10**8)
    groups = (g0, *np.divmod(rest, 10**4), *np.divmod(bottom, 10**4))
    row = np.empty((x.size, _ROW // 4), dtype="<u4")
    for k, g in enumerate(groups):
        row[:, k] = quads[g]
    row[:, 5] = np.where(np.signbit(x), 0x2E2D, 0x2E00)    # '-.', '\0.'
    row[:, 6:].view("<u8")[:, 0] = suffixes[e - _E_MIN]
    trailing = zeros[groups[4]]
    run = groups[4] == 0
    for g in groups[3:0:-1]:
        trailing += run * zeros[g]
        run &= g == 0
    notation = np.clip(e, -5, 17) + 5
    index = np.take(layouts, notation * 17 + (16 - trailing), axis=0) \
        + np.arange(0, x.size * _ROW, _ROW)[:, None]
    np.take(row.view(np.uint8).ravel(), index, out=out, mode="clip")
    for i in np.flatnonzero(~ok):
        text = b"%.17g" % x[i]
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)


def _decimal_width(v: np.ndarray) -> int:
    """Bytes ``_decimal`` needs for the integers v: four per group of four
    digits."""
    if v.size and (v.min() < 0 or v.max() >= 10**16):
        raise ValueError("integer CSV columns must lie in [0, 10^16)")
    return 4 * -(-len(str(int(v.max(initial=0)))) // 4)


def _decimal(v: np.ndarray, out: np.ndarray) -> None:
    """Write ``str(i)`` of each integer into the rows of ``out``,
    right-aligned, with NUL for the leading zeros."""
    quads = _tables()[2]
    n, width = out.shape
    words = np.empty((n, width // 4), dtype="<u4")
    rest = v.astype(np.int64)
    for k in range(width // 4 - 1, -1, -1):
        rest, group = np.divmod(rest, 10**4)
        words[:, k] = quads[group]
    out[...] = words.view(np.uint8)
    digits = 1 + np.searchsorted(10 ** np.arange(1, 16, dtype=np.int64), v,
                                 side="right")
    out *= np.arange(width) >= width - digits[:, None]


def format_rows(columns) -> bytes:
    """Rows of the given equal-length columns, comma-separated and
    LF-terminated: floats as ``%.17g``, integers in decimal."""
    blocks = []
    for col in map(np.asarray, columns):
        if col.dtype.kind in "iu":
            blocks.append((_decimal, col, _decimal_width(col)))
        else:
            blocks.append((_g17, col.astype(np.float64, copy=False), _WIDTH))
    text = np.empty((len(blocks[0][1]), sum(w + 1 for _, _, w in blocks)),
                    dtype=np.uint8)
    start = 0
    for kernel, col, width in blocks:
        kernel(col, text[:, start:start + width])
        text[:, start + width] = ord(",")
        start += width + 1
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0")


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and the rows of ``columns`` (equal-length
    sequences; a ``range`` serves as an index column) to ``path`` with LF
    endings, ``CHUNK_ROWS`` rows at a time."""
    n = len(columns[0])
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for start in range(0, n, CHUNK_ROWS):
            fh.write(format_rows([col[start:start + CHUNK_ROWS]
                                  for col in columns]))


def read_column(path) -> np.ndarray:
    """The values of one CSV column: the 'x' column when the first line is
    a header (its second field, or only field, is not a number), otherwise
    the first column.  Blank and whitespace-only lines are skipped; fields
    are parsed by ``np.loadtxt``.  A bad value or a short row raises its
    ``ValueError`` with loadtxt's row replaced by the file line."""
    with open(path, "r", newline="") as fh:
        lines = itertools.filterfalse(str.isspace, fh)
        first = next(lines, None)
        if first is None:
            raise ValueError("empty input")
        column, start = 0, 0
        first_fields = first.strip().split(",")
        try:
            float(first_fields[min(1, len(first_fields) - 1)])
        except ValueError:
            names = [f.strip().lower() for f in first_fields]
            if "x" in names:
                column = names.index("x")
            start = 1
        with warnings.catch_warnings():
            # a header alone is an empty column, not an error
            warnings.filterwarnings("ignore", "loadtxt: input contained no",
                                    UserWarning)
            try:
                return np.loadtxt(itertools.chain([first], lines),
                                  delimiter=",", comments=None,
                                  usecols=column, skiprows=start, ndmin=1)
            except ValueError as exc:
                # name the file line: loadtxt counts the non-blank rows
                # after the header from 0 in "at row 2, column 1." but
                # from 1 in "at row 2 with 1 columns"
                match = re.search(r"at row (\d+)(,| with)", str(exc))
                if match is None:
                    raise
                fh.seek(0)
                numbers = (n for n, text in enumerate(fh, 1)
                           if not text.isspace())
                index = start + int(match[1]) - (match[2] == " with")
                line = next(itertools.islice(numbers, index, None))
                raise ValueError(str(exc).replace(
                    match[0], f"at line {line}{match[2]}")) from None
