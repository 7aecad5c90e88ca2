"""CSV text: rows of ``%.17g`` floats and decimal integers, written in
chunks, and one numeric column read back, both by numpy kernels exact to
the bit.

Python's ``'%.17g' % v`` costs about 0.8 us per float, which made CSV text
most of the cost of writing a sampled batch.  ``_g17`` forms the same bytes
for a whole column with numpy:

* scale: ``E = floor(log10 x)`` and ``y = x * 10^(16-E)`` as a
  double-double (Dekker's TwoProduct; ``10^k = hi + lo`` is built exactly
  from ``fractions.Fraction``), so ``floor(y)`` has the 17 leading digits;
  ``_times_power`` is the one copy of that product, which the reader's
  ``_scale`` calls too;
* round: the 17-digit integer ``D`` is ``floor(y)`` plus the rounding of
  the fraction; for ``0 <= 16-E <= 22`` the power and the product are exact
  and a tie rounds half to even, as CPython's formatter does;
* lay out: uint64 division cuts ``D`` into one digit and four groups of
  four, and a table of the ASCII of 0000..9999 fills a 32-byte row per
  value with its digits, '.' and the exponent suffix.  ``E`` and the
  trailing zeros of ``D`` (counted past the last group only in the rows
  where it is 0000) pick one of 391 byte patterns (fixed notation for
  ``-4 <= E < 17``, scientific otherwise).  The pattern's row
  positions, plus each row's offset added in place, index one gather
  into the column's own contiguous buffer, which ``format_rows`` copies
  into the chunk's rows once; the NUL padding of the patterns is deleted
  from each chunk's bytes.

An element the kernel cannot certify is formatted by ``'%.17g' %`` itself:
every ``x`` outside ``[1e-240, 1e240]`` (so every value that is not
positive, inf and nan), an ``E`` that ``log10`` got off by one, a ``D``
that rounds up to ``10^17``, and an inexact product whose fraction lies
within 1e-6 of one half.  So every value prints as Python prints it.

An integer column takes the same digit groups; a group is looked up in a
second table, whose words have their leading zeros as NUL, until a group
before it is nonzero, so the number comes out right-aligned after NULs.

``read_column`` reads the file in blocks of ``BLOCK_BYTES`` whole lines,
each ending in LF, CRLF or CR; a block holding a CR is read with every
line end made LF.  For each block of ASCII up to '~', ``_parse`` finds
every line end, comma, '.' and 'e' in one scan.  One rule bounds every
line's field, whatever the column: it lies between separators (commas
and line ends) ``column`` and ``column + 1``, counted from the line end
before the line; the first line's is a mark at -1, whose byte is the
block's final LF.  The '.' and 'e' marks between them place the point
and the exponent; ``_read_fields`` then

* gathers the _WIDTH bytes that end at the 'e' (or the field's end) and
  turns them into the mantissa's digits, right-aligned with '0' before
  them, with SWAR on 8-byte words (SIMD within a register: eight ASCII
  digits per uint64, reduced by Lemire's multiply-and-shift); the exponent
  is one more word;
* scales the integer mantissa ``w < 2^64`` by ``10^q`` as a double-double
  from the writer's table, whose error is below 2^-102 of the product
  (Clinger, PLDI 1990; Lemire, SP&E 2021), and keeps ``p + t`` only when
  ``p + (t - m)`` and ``p + (t + m)`` round to the same double, ``m`` a
  2^-100 share of it, so the rounding is certainly the correctly rounded
  one.

A row the kernel does not certify goes to the scalar path,
``_parse_line``: a sign before the mantissa, blanks or control bytes in
the field (a tab elsewhere in the row does not matter), a row with too
few fields, inf and nan, more than 24 bytes before the 'e', more than 19
significant or 8 exponent digits, a power of ten outside the table (so
every subnormal), a product too near a rounding boundary, a field ending
in a block's first 24 bytes, and every malformed field.  So does every
row of a block that is short (under 24 bytes), longer than twice
``BLOCK_BYTES`` (a line longer than a block) or past '~', whose rows must
decode as UTF-8 whatever column the byte is in.  The scalar path strips
Unicode whitespace, checks the syntax (ASCII decimal or exponent
notation, inf, infinity or nan, each with an optional sign; Python's own
``float`` also takes ``1_000`` and non-ASCII digits), reads the value
with ``float`` and raises ``ValueError`` naming the file line and column.

The power and pattern tables are built on first use, not at import.
"""

from __future__ import annotations

import codecs
import functools
import os
import re

import numpy as np

__all__ = ["CHUNK_ROWS", "BLOCK_BYTES", "write_csv", "format_rows",
           "read_column"]

# rows per chunk.  A chunk's largest work array is the gather index, 24
# intp per float: 0.8 MB here, which stays in a 2 MB L2 cache.  Its work
# arrays also stay under glibc's heap trim threshold, so a fresh `sample`
# process reuses their pages: at 8192 rows, writing 10^6 K rows took about
# 10^5 minor page faults and at 4096 rows about 2,600, those of the draws
# (2-core Xeon, numpy 2.4.6)
CHUNK_ROWS = 4096
# bytes the reader takes from the file at a time: about 5,800 rows of a
# three-column sample file, whose work arrays stay in cache
BLOCK_BYTES = 1 << 18

_WIDTH = 24                  # '-' + 17 digits + '.' + 'e-308'
_LO, _HI = 1e-240, 1e240     # magnitudes the kernel formats itself
_E_MIN, _E_MAX = -241, 240   # floor(log10 |x|) over that range
# powers of ten in the table: the writer's 10^(16-E) and the reader's 10^q
# for 17-digit fields of magnitude down to _LO
_K_MIN, _K_MAX = -257, 257
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0         # 2^27 + 1, Dekker's splitter

# The reader: a line and its end; the syntax of a value; SWAR
# words, little-endian uint64 with eight ASCII bytes, the first in the
# lowest byte; the reader's relative error bound, with room.
_LINE = re.compile(rb"([^\r\n]*)(?:\r\n|\r|\n)")
_NUMBER = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?"
                     r"|inf(?:inity)?|nan)", re.ASCII | re.IGNORECASE)
_WORD = np.dtype("<u8")
_ZEROS = 0x3030303030303030  # '00000000'
_ONES = np.uint64(2**64 - 1)
_MARGIN = 2.0**-100

# A pattern picks each output byte from a 32-byte row per element: '000'
# and the 17 digits of D (bytes 0-19), '.', NUL, NUL, NUL (20-23) and the
# exponent suffix, NUL-padded (24-31).
_DIGIT0, _DOT, _PAD, _SUFFIX = 3, 20, 21, 24
_ROW = 32


def _split(v: np.ndarray):
    """v = big + small exactly (Dekker's splitter), and a free array."""
    big = v * _SPLIT
    work = big - v
    big -= work
    return big, v - big, work


def _times_power(v: np.ndarray, index: np.ndarray):
    """v * 10^k for the table's k at ``index`` as (p, t, h, l, work): p + t
    = v * h exactly (Dekker's TwoProduct), 10^k = h + l, and a free array;
    each caller adds its own low term to t."""
    h, h_big, h_small, l = (table[index] for table in _powers())
    p = v * h
    big, small, work = _split(v)
    t = big * h_big
    t -= p
    for u, w in ((big, h_small), (small, h_big), (small, h_small)):
        t += np.multiply(u, w, out=work)
    return p, t, h, l, work


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """For each k in [_K_MIN, _K_MAX]: 10^k = hi + lo exactly to
    double-double precision, with hi also split in halves for TwoProduct."""
    from fractions import Fraction
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        exact = Fraction(10) ** k
        hi.append(float(exact))
        lo.append(float(exact - Fraction(hi[-1])))
    hi = np.array(hi)
    return (hi, *_split(hi)[:2], np.array(lo))


def _suffix(x: int) -> str:
    return f"e{x:+03d}"


def _layout(x: int, kept: int) -> list[int]:
    """Row positions of the bytes of '%.17g' for a positive value of
    decimal exponent x and `kept` significant digits (trailing zeros
    stripped); x = -5 or 17 stands for every exponent written in
    scientific notation, whose suffix the row holds NUL-padded."""
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
    return text + [_PAD] * (_WIDTH - len(text))


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The layouts of every (x, kept digits) with x in [-5, 17], indexed
    (x + 5) * 17 + kept - 1, as intp row positions; each E's suffix as a
    uint64; the ASCII of 0000..9999 as uint32 words, after the same words
    with their leading zeros as NUL (all four for 0); the trailing zero
    count of each of 0..9999 (4 for 0)."""
    layouts = np.array([_layout(x, kept) for x in range(-5, 18)
                        for kept in range(1, 18)], dtype=np.intp)
    suffixes = np.frombuffer(b"".join(
        _suffix(x).encode().ljust(8, b"\0")
        for x in range(_E_MIN, _E_MAX + 1)), dtype="<u8")
    led = "".join(f"{i:>4}" if i else "    " for i in range(10**4))
    quads = np.frombuffer((led.replace(" ", "\0") + "".join(
        f"{i:04d}" for i in range(10**4))).encode(), dtype="<u4")
    i = np.arange(10**4)
    zeros = sum((i % 10**k == 0).astype(np.intp) for k in range(1, 5))
    return layouts, suffixes, quads, zeros


def _groups(d: np.ndarray, count: int) -> list[np.ndarray]:
    """The base-10^4 digit groups of the uint64 values d, most significant
    first, the first one holding what is left above the other count - 1,
    as int64 (uint64 division is the faster one, int64 the index type)."""
    groups = []
    for k in range(count - 1, 0, -1):
        g = d // np.uint64(10**(4 * k))
        d = d - g * np.uint64(10**(4 * k))
        groups.append(g)
    return [g.view(np.int64) for g in groups + [d]]


def _g17(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.17g' % v`` of each float into the rows of ``out``, a
    contiguous (n, 24) uint8 block, NUL-padded."""
    n = x.size
    ok = x >= _LO
    ok &= x <= _HI
    a = np.where(ok, x, 1.0)
    e = np.log10(a)
    # in [_E_MIN, _E_MAX], as a is 1 or in [_LO, _HI]
    e = np.floor(e, out=e).astype(np.intp)
    p, t, _, l, tmp = _times_power(a, 16 - _K_MIN - e)
    t += np.multiply(a, l, out=tmp)
    whole = np.floor(t, out=tmp)
    frac = np.subtract(t, whole, out=t)
    base = p.astype(np.int64)
    base += whole.astype(np.int64)
    exact = l == 0.0
    d = base + ((frac > 0.5) | ((frac == 0.5) & exact & (base & 1 == 1)))
    ok &= (base >= 10**16) & (d < 10**17)
    ok &= exact | (np.abs(frac - 0.5) > _TIE_MARGIN)

    # D = g0 g1 g2 g3 g4: one digit, then four groups of four
    layouts, suffixes, quads, zeros = _tables()
    groups = _groups(d.view(np.uint64), 5)
    row = np.empty((n, _ROW // 4), dtype="<u4")
    for c, g in enumerate(groups):
        row[:, c] = quads[10**4:][g]
    row[:, 5] = 0x2E                                       # '.'
    row[:, 6:].view("<u8")[:, 0] = suffixes[e - _E_MIN]
    trailing = zeros[groups[4]]
    rows = np.flatnonzero(groups[4] == 0)
    if rows.size:
        tail = trailing[rows]
        run = np.ones(rows.size, dtype=bool)
        for g in groups[3:0:-1]:
            g = g[rows]
            tail += run * zeros[g]
            run &= g == 0
        trailing[rows] = tail
    code = np.clip(e, -5, 17)
    code *= 17
    code += 5 * 17 + 16
    code -= trailing
    index = np.take(layouts, code, axis=0)
    index += np.arange(0, n * _ROW, _ROW)[:, None]
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
    """Write ``str(i)`` of each integer into the rows of ``out``, a
    contiguous block, right-aligned, with NUL for the leading zeros."""
    quads = _tables()[2]
    words = out.view("<u4")
    # a group takes its NUL-led word until a group before it is nonzero
    started = np.zeros(v.size, dtype=bool)
    for c, g in enumerate(_groups(v.astype(np.uint64), words.shape[1])):
        words[:, c] = quads[g + started * 10**4]
        started |= g != 0
    words[~started, -1] = 0x30000000      # 0 is '0'


def format_rows(columns) -> bytes:
    """Rows of the given equal-length columns, comma-separated and
    LF-terminated: floats as ``%.17g``, integers in decimal."""
    blocks = []
    for col in columns:
        # np.asarray would convert a range one Python int at a time
        col = np.arange(col.start, col.stop, col.step) \
            if isinstance(col, range) else np.asarray(col)
        if col.dtype.kind in "iu":
            blocks.append((_decimal, col, _decimal_width(col)))
        else:
            blocks.append((_g17, col.astype(np.float64, copy=False), _WIDTH))
    n = len(blocks[0][1])
    text = np.empty((n, sum(w + 1 for _, _, w in blocks)), dtype=np.uint8)
    start = 0
    for kernel, col, width in blocks:
        # each kernel fills a contiguous buffer, copied into the rows once
        buffer = np.empty((n, width), dtype=np.uint8)
        kernel(col, buffer)
        text[:, start:start + width] = buffer
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
    the first column.  Blank and whitespace-only lines are skipped.  The
    file is read as UTF-8, ``BLOCK_BYTES`` at a time; a byte-order mark
    at its start is dropped.  A bad value or a short row raises
    ``ValueError`` naming its file line.  The column is sized from the
    file's size and grows at least twofold, so a pipe, whose size reads
    0, costs O(log n) copies of it."""
    column, line, count = None, 1, 0
    values = np.empty(0)
    with open(path, "rb") as fh:
        size, done = os.fstat(fh.fileno()).st_size, 0
        for text in _blocks(fh):
            done += len(text)
            if column is None:
                column, text, line = _header(text, line)
                if column is None:
                    continue
            part, lines = _parse(text, column, line)
            line += lines
            if count + part.size > values.size:
                # room for the rest of the file at this block's rows per
                # byte, and 1/16 more; never less than twice the rows read
                rest = max(size - done, 0) * part.size // max(len(text), 1)
                grown = np.empty(max(count + part.size + rest + rest // 16,
                                     2 * count))
                grown[:count] = values[:count]
                values = grown
            values[count:count + part.size] = part
            count += part.size
    if column is None:
        raise ValueError("empty input")
    # the room past the last row goes back in place (a realloc, no copy):
    # the first block's short index fields over-estimate the rows, 11 %
    # on a 10^6-row sample file.  No view of values exists (grown is the
    # array itself), so nothing can see the buffer move.
    values.resize(count, refcheck=False)
    return values


def _blocks(fh):
    """The file in blocks of whole lines, each ending in LF, CRLF or CR,
    without the byte-order mark at its start.  A line longer than a block
    doubles the next read, so it is copied a bounded number of times."""
    rest = fh.read(len(codecs.BOM_UTF8)).removeprefix(codecs.BOM_UTF8)
    while chunk := fh.read(max(BLOCK_BYTES, len(rest))):
        text = rest + chunk
        # a CR that ends the block may be the first half of a CRLF
        cut = 1 + max(text.rfind(b"\n"), text.rfind(b"\r", 0, len(text) - 1))
        rest = text[cut:]
        yield text[:cut]
    if rest:
        yield rest if rest.endswith((b"\n", b"\r")) else rest + b"\n"


def _header(text: bytes, line: int):
    """Find the first non-blank line in ``text`` (file line ``line`` on):
    the column to read, the text from the first data line on and that
    line's number; no column if every line is blank."""
    for match in _LINE.finditer(text):
        first = match[1].decode()
        if first and not first.isspace():
            fields = first.strip().split(",")
            try:
                float(fields[min(1, len(fields) - 1)])
                return 0, text[match.start():], line
            except ValueError:
                names = [f.strip().lower() for f in fields]
                column = names.index("x") if "x" in names else 0
                return column, text[match.end():], line + 1
        line += 1
    return None, b"", line


def _parse(text: bytes, column: int, line: int) -> tuple[np.ndarray, int]:
    """The values of ``column`` in ``text``, whole lines of which the first
    is file line ``line``, and the number of lines; CRLF and CR are read
    as LF.  Rows go through the kernel, their fields bounded by one
    separator rule; a row with too few fields or that the kernel does not
    certify, and every row of a block that is short, longer than twice
    ``BLOCK_BYTES`` or past '~', through ``_parse_line``."""
    if b"\r" in text:      # read every line end as LF
        return _parse(text.replace(b"\r\n", b"\n").replace(b"\r", b"\n"),
                      column, line)
    a = np.frombuffer(text, dtype=np.uint8)
    # the block ends in LF.  One past twice the size holds a line longer
    # than a block, whose marks would take several times its bytes
    if _WIDTH <= a.size <= 2 * BLOCK_BYTES and a.max() <= 126:
        # every line end, comma, '.' and 'e' or 'E', in order, after a mark
        # at -1 whose byte a[-1] is the final LF: the line end before line 0
        flags = (a | 2) == 46
        flags |= (a | 32) == 101
        flags |= a == 10
        marks = np.concatenate(([-1], np.flatnonzero(flags)))
        kind = a[marks]
        seps = np.flatnonzero((kind == 44) | (kind == 10))
        last = np.flatnonzero(kind[seps] == 10)     # the line ends among them
        at = last[:-1] + column
        short = at >= last[1:]
        # a short row's marks stay on its own line
        at = np.minimum(at, last[1:] - 1)
        left, right = seps[at], seps[at + 1]
        values, ok = _read_fields(a, marks, kind, left, right)
        ok &= ~short
        ends = marks[seps[last]]
    else:
        ends = np.concatenate(([-1], np.flatnonzero(a == 10)))
        values, ok = np.empty(ends.size - 1), np.zeros(ends.size - 1, bool)
    keep = np.ones(values.size, dtype=bool)
    rows = np.flatnonzero(~ok)
    for i, start, end in zip(rows.tolist(), ends[rows].tolist(),
                             ends[rows + 1].tolist()):
        value = _parse_line(text[start + 1:end], column, line + i)
        keep[i] = value is not None
        values[i] = value if keep[i] else 0.0
    return values[keep], values.size


def _parse_line(row: bytes, column: int, line: int) -> float | None:
    """The value in ``column`` of one line (without its line end), or None
    for a blank line: the field, stripped of Unicode whitespace, must be
    ASCII decimal or exponent notation, or inf, infinity or nan in any
    case, with an optional sign.  The line is split no further than the
    field, so a short row has all its fields."""
    text = row.decode()
    if not text or text.isspace():
        return None
    fields = text.split(",", column + 1)
    if column >= len(fields):
        raise ValueError(f"invalid column index {column} at line {line} "
                         f"with {len(fields)} columns")
    field = fields[column]
    if _NUMBER.fullmatch(field.strip()) is None:
        raise ValueError(f"could not convert string {repr(field)[:100]} to "
                         f"float64 at line {line}, column {column + 1}.")
    return float(field.strip())


def _digits(words: np.ndarray) -> np.ndarray:
    """The value of the eight ASCII digits in each word (Lemire's
    multiply-and-shift reduction)."""
    v = words - _ZEROS
    v *= 10
    v += (words - _ZEROS) >> 8
    pairs = v >> 16
    pairs &= 0x000000FF000000FF
    pairs *= 1 + (10**4 << 32)
    v &= 0x000000FF000000FF
    v *= 100 + (10**6 << 32)
    v += pairs
    v >>= 32
    return v


def _non_digits(words: np.ndarray) -> np.ndarray:
    """Nonzero where a word holds a byte that is not an ASCII digit."""
    bad = (words & 0xF0F0F0F0F0F0F0F0) \
        | (((words + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4)
    bad ^= 0x3333333333333333
    return bad


def _low_bytes(count: np.ndarray, words: int = 3) -> np.ndarray:
    """Masks of the first ``count`` bytes (none if count <= 0) of ``words``
    consecutive words, one row per word and one column per count."""
    shift = np.empty((words, count.size), dtype=np.int64)
    shift[0] = 8 * count
    for k in range(1, words):
        np.subtract(shift[0], 64 * k, out=shift[k])
    np.maximum(shift, 0, out=shift)
    mask = _ONES << shift.view(np.uint64)
    return np.invert(mask, out=mask)


def _read_fields(a, marks, kind, left, right):
    """Parse the fields ``a[marks[left] + 1:marks[right]]``, which lie
    between the marks ``left`` and ``right``: the values, and which are
    certified.

    A field is certified when it is ``digits [. digits] [e [sign]
    digits]`` with at most _WIDTH bytes before the 'e' (and _WIDTH bytes
    of the block before that), at most 19 significant digits and at most
    8 exponent digits, its power of ten is in the table, and ``_scale``
    certifies its rounding."""
    # the '.' and 'e' marks inside the field: none, '.', 'e' or '.', 'e'
    lo, hi = marks[left] + 1, marks[right]
    inner = right - left - 1
    top = marks.size - 1
    first = kind[np.minimum(left + 1, top)]
    second = kind[np.minimum(left + 2, top)]
    has_dot = (inner >= 1) & (first == 46)
    has_e = np.where(inner == 1, first != 46,
                     (inner == 2) & has_dot & ((second | 32) == 101))
    e_at = np.where(has_e, marks[np.minimum(left + 1 + has_dot, top)], hi)
    # any other mark is in the mantissa, where the digit test rejects it
    length = e_at - lo
    ok = (length > has_dot) & (length <= _WIDTH) & (e_at >= _WIDTH)
    # the exponent: [sign] 1 to 8 digits, the last word of the field
    exponent = np.zeros(lo.size, dtype=np.int64)
    rows = np.flatnonzero(has_e)
    if rows.size:
        at, end = e_at[rows], hi[rows]
        sign = a[at + 1]
        signed = (sign == 43) | (sign == 45)
        count = end - at - 1 - signed
        words = np.lib.stride_tricks.sliding_window_view(a, 8)[end - 8] \
            .view(_WORD)[:, 0]
        words ^= (words ^ _ZEROS) & _low_bytes(8 - count, 1)[0]
        ok[rows] &= (count >= 1) & (count <= 8) & (_non_digits(words) == 0)
        value = _digits(words).astype(np.int64)
        exponent[rows] = np.where(sign == 45, -value, value)
    # the mantissa right-aligned in _WIDTH bytes: '0' before it, and the
    # bytes left of the '.' moved one column right over it
    windows = np.lib.stride_tricks.sliding_window_view(a, _WIDTH)
    # one row per word, one column per field
    words = windows[np.maximum(e_at - _WIDTH, 0)].view(_WORD).T.copy()
    dot = np.where(has_dot, marks[np.minimum(left + 1, top)] - e_at
                   + _WIDTH, -1)
    moved = words << 8
    moved[1:] |= words[:-1] >> 56
    moved ^= words
    moved &= _low_bytes(dot + 1)
    words ^= moved
    fill = words ^ _ZEROS
    fill &= _low_bytes(_WIDTH - length + has_dot)
    words ^= fill
    bad = _non_digits(words)
    ok &= (bad[0] | bad[1] | bad[2]) == 0
    groups = _digits(words)
    ok &= groups[0] < 1844                           # < 2^64
    w = (groups[0] * 10**8 + groups[1]) * 10**8 + groups[2]
    q = exponent - np.where(has_dot, _WIDTH - 1 - dot, 0)
    r, certain = _scale(w, q)
    ok &= certain
    return r, ok


def _scale(w: np.ndarray, q: np.ndarray):
    """w * 10^q rounded to nearest, and whether that rounding is certain:
    with the table's 10^q = hi + lo, the double-double product p + t is
    within _MARGIN of the exact one, so the rounding is certain when p +
    (t - m) and p + (t + m) round alike, m = _MARGIN |p|."""
    index = np.minimum(np.maximum(q, _K_MIN), _K_MAX) - _K_MIN
    # w = wh + wl exactly
    wh = w.astype(np.float64)
    wl = (w - wh.astype(np.uint64)).view(np.int64).astype(np.float64)
    p, t, h, l, _ = _times_power(wh, index)
    t += wh * l + wl * h
    m = p * _MARGIN
    r = p + (t - m)
    certain = (r == p + (t + m)) & (index == q - _K_MIN)
    return r, certain | (w == 0)
