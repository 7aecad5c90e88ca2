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
  four, and shifted copies of a table of the ASCII of 0000..9999 place
  them at bytes 1-17 of three 64-bit words ``S``, with ``E``'s 'e±XX'
  suffix at bytes 19-23 in scientific notation.  ``E`` and the digits
  kept after stripping the trailing zeros of ``D`` (counted past the last
  group only in the rows where it is 0000) give each value a layout, one
  of 23 * 17 (``E`` in ``[-4, 16]`` in fixed notation, -5 and 17 for
  scientific notation below and above).  Output word k is ``FIXED |
  (S_k & BEFORE) | (S_k & AFTER) << up``, plus the bits that ``(S_k-1 &
  AFTER) << up`` carries out of the word below: 1-D tables read with
  ``take`` give each layout's fixed bytes ('.' and the '0.000' prefix),
  masks of the digits before the point (and of the suffix) and after
  it, and the shift of the latter (one byte past the '.', or ``1 - E``
  bytes past '0.000').  The NULs between the digits and the suffix go
  with the rest.

``format_rows`` gives each field its own slot of whole words in the
chunk's row, so each kernel writes its words straight into the rows.
Byte 0 of a slot is the byte before the field: ',', or LF for a row's
first field, NUL on the chunk's first row, whose text then ends with an
LF.  The field's text follows, NUL-padded, and the NULs are deleted from
each chunk's bytes.  A float slot is 24 bytes, 32 in a chunk whose
column holds a negative value (``-4.9406564584124654e-324`` takes 24);
an integer slot is ``8 * ceil((digits + 1) / 8)`` bytes.

An element the kernel cannot certify is formatted by ``'%.17g' %`` itself:
every ``x`` outside ``[1e-240, 1e240]`` (so every value that is not
positive, inf and nan), an ``E`` that ``log10`` got off by one, a ``D``
that rounds up to ``10^17``, and an inexact product whose fraction lies
within 1e-6 of one half.  So every value prints as Python prints it.

An integer column takes the same digit groups as uint32 words; a group
is looked up in the table's other row, whose words have their leading
zeros as NUL, until a group before it is nonzero, so the number comes
out right-aligned after NULs.

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

The power table and the writer's tables are built on first use, not at import.
"""

from __future__ import annotations

import codecs
import functools
import os
import re

import numpy as np

__all__ = ["CHUNK_ROWS", "BLOCK_BYTES", "write_csv", "format_rows",
           "read_column"]

# rows per chunk.  A chunk's work, its rows' words and the kernels' uint64
# arrays, peaks at 1.0 MB for `index,x,z` rows here, in cache and under
# glibc's heap trim threshold, so a fresh `sample` process reuses its
# pages.  At 8192 rows `format_rows` ran about 8 % faster warm, but the
# roundtrip workload's peak RSS rose 1.2 MB (2-core Xeon, numpy 2.4.6)
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

# The writer: a field's slot in its row, in little-endian uint64 words,
# holds the byte before the field, its text and NUL padding.  A float's
# text takes 23 bytes, or 24 with a sign ('-4.9406564584124654e-324').
_FLOAT_WORDS, _SIGNED_WORDS = 3, 4


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


@functools.cache
def _tables() -> tuple:
    """The writer's tables.  The ASCII of 0000..9999 as uint64 words, first
    digit in the lowest byte: row 0 with the leading zeros as NUL (all four
    for 0), row 1 plain; the trailing zero count of each of 0..9999 (4 for
    0).  Then 1-D tables of uint64 words, word k of a slot in table k: for
    each layout (E + 5) * 17 + kept - 1 of the fields of decimal exponent E
    in [-5, 17] and `kept` significant digits (trailing zeros stripped), E =
    -5 and 17 standing for scientific notation, its fixed bytes ('.' and
    the '0.000' prefix), the masks of S's digits before the point (and of
    the suffix) and after it, and the bits the latter move up; for each E
    in [_E_MIN, _E_MAX], word 2 of S's 'e±XX' suffix (0 in fixed
    notation) and E's layout at 17 digits.  S holds the 17 digits of D at
    bytes 1-17, so the digits before the point stay, and the suffix at
    bytes 19-23, where it stays too: the NULs before it are deleted."""
    i = np.arange(10**4)
    quads = np.zeros((2, i.size), dtype=np.uint64)
    for k in range(4):
        byte = (i // 10**(3 - k) % 10 + 48).astype(np.uint64) << 8 * k
        quads[0] |= byte * (i >= 10**(3 - k))
        quads[1] |= byte
    zeros = sum((i % 10**k == 0).astype(np.intp) for k in range(1, 5))
    e = np.repeat(np.arange(-5, 18), 17)
    kept = np.tile(np.arange(1, 18), 23)
    positional = (0 <= e) & (e < 17)
    small = (-4 <= e) & (e < 0)
    # the digits before the point, bytes 1..head (zeros left of the point
    # are written, not stripped); those after move up 1 byte, past the
    # '.', or 1 - E bytes, past '0.000'
    head = np.where(positional, e + 1, np.where(small, 0, 1))
    up = np.where(small, 1 - e, 1)
    dot = np.where(small | (kept > head), np.where(small, 2, head + 1), -1)
    # table, word, layout, byte: each word's bytes are one uint64
    tables = np.zeros((3, _FLOAT_WORDS, e.size, 8), dtype=np.uint8)
    for at in range(8 * _FLOAT_WORDS):
        column = tables[:, at // 8, :, at % 8]
        column[0] = np.select(
            [at == dot, small & ((at == 1) | ((3 <= at) & (at <= 1 - e)))],
            [ord("."), ord("0")])
        column[1] = ((1 <= at) & (at <= head) | (at >= 19)) * 0xFF
        column[2] = ((head < at) & (at <= kept)) * 0xFF
    fixed, before, after = tables.view("<u8")[..., 0]
    # each E's suffix, 'e', its sign and 2 or 3 digits of |E|, at bytes
    # 3-7 of word 2
    e = np.arange(_E_MIN, _E_MAX + 1)
    width = 2 + (np.abs(e) >= 100)
    suffix = ord("e") << 24 | np.where(e < 0, ord("-"), ord("+")) << 32
    for place in range(3):
        digit = np.abs(e) // 10**place % 10 + ord("0")
        suffix |= np.where(place < width, digit << 8 * (4 + width - place), 0)
    suffix[(-4 <= e) & (e < 17)] = 0
    return (quads, zeros, tuple(fixed), tuple(before), tuple(after),
            (8 * up).astype(np.uint64), suffix.astype(np.uint64),
            (np.clip(e, -5, 17) + 5) * 17 + 16)


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


def _g17(x: np.ndarray, out: np.ndarray, sep: int) -> None:
    """Write each float's field into its slot, a row of ``out``, whose
    (n, 3) or (n, 4) uint64 words lie in the chunk's rows: the byte
    ``sep``, then ``'%.17g' % v``, NUL-padded."""
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

    # D = g0 g1 g2 g3 g4, one digit then four groups of four, as ASCII at
    # bytes 1-17 of the three words s, and E's suffix at bytes 19-23.
    # take's mode "clip" skips the bounds check of "raise" (1.0 against
    # 1.8 ns a value); every index is in range, an uncertified value's too
    quads, zeros, fixed, before, after, up, suffixes, layouts = _tables()
    quads = quads[1]
    e -= _E_MIN
    g0, g1, g2, g3, g4 = _groups(d.view(np.uint64), 5)
    s0 = np.take(quads, g1, mode="clip")
    s0 <<= 16
    s0 |= (g0.view(np.uint64) + 48) << 8
    s1 = np.take(quads, g3, mode="clip")
    s1 <<= 16
    s2 = np.take(quads, g2, mode="clip")
    s0 |= s2 << 48
    s1 |= s2 >> 16
    s2 = np.take(quads, g4, mode="clip")
    s1 |= s2 << 48
    s2 >>= 16
    s2 |= np.take(suffixes, e, mode="clip")
    trailing = zeros[g4]
    rows = np.flatnonzero(g4 == 0)
    if rows.size:
        tail = trailing[rows]
        run = np.ones(rows.size, dtype=bool)
        for g in (g3, g2, g1):
            g = g[rows]
            tail += run * zeros[g]
            run &= g == 0
        trailing[rows] = tail
    layout = np.take(layouts, e, mode="clip")
    layout -= trailing

    # each word: its fixed bytes, the digits before the point in place,
    # those after it moved up, and the bits they carry up from the word
    # below
    up = np.take(up, layout, mode="clip")
    down = 64 - up
    work = tmp.view(np.uint64)
    carry = None
    for k, s in enumerate((s0, s1, s2)):
        moved = np.take(after[k], layout, mode="clip")
        moved &= s
        s &= np.take(before[k], layout, mode="clip", out=work)
        s |= np.take(fixed[k], layout, mode="clip", out=work)
        if carry is None:
            s |= sep
        else:
            s |= np.right_shift(carry, down, out=carry)
        carry = moved
        np.bitwise_or(s, np.left_shift(moved, up, out=work), out=out[:, k])
    out[:, _FLOAT_WORDS:] = 0
    for i in np.flatnonzero(~ok):
        text = (bytes((sep,)) + b"%.17g" % x[i]).ljust(8 * out.shape[1],
                                                        b"\0")
        out[i] = np.frombuffer(text, dtype="<u8")


def _decimal_words(v: np.ndarray) -> int:
    """Words ``_decimal`` needs for the integers v and the byte before
    them."""
    if v.size and (v.min() < 0 or v.max() >= 10**16):
        raise ValueError("integer CSV columns must lie in [0, 10^16)")
    return len(str(int(v.max(initial=0)))) // 8 + 1


def _decimal(v: np.ndarray, out: np.ndarray, sep: int) -> None:
    """Write each integer's field into its slot, a row of ``out`` (uint64
    words in the chunk's rows): the byte ``sep``, then ``str(i)``
    right-aligned, with NUL for the leading zeros."""
    quads = _tables()[0].ravel()
    words = out.view("<u4")
    # the groups of four digits fill the last four words or fewer, NUL
    # before them; a slot leaves the separator room, so when the groups
    # fill it the first holds 3 digits at most and its first byte is NUL
    count = min(words.shape[1], 4)
    words[:, :-count] = 0
    # a group takes its NUL-led word until a group before it is nonzero
    started = np.zeros(v.size, dtype=bool)
    for c, g in enumerate(_groups(v.astype(np.uint64), count), -count):
        words[:, c] = quads[g + started * 10**4]
        started |= g != 0
    words[~started, -1] = 0x30000000      # 0 is '0'
    words[:, 0] |= sep


def format_rows(columns) -> bytes:
    """Rows of the given equal-length columns, comma-separated and
    LF-terminated: floats as ``%.17g``, integers in decimal.  Each field
    has its own slot of whole words in the row, whose byte 0 is the byte
    before the field: ',', or LF for a row's first field (NUL on the
    first row; the chunk then ends with an LF).  The NULs are deleted."""
    slots = []
    for col in columns:
        # np.asarray would convert a range one Python int at a time
        col = np.arange(col.start, col.stop, col.step) \
            if isinstance(col, range) else np.asarray(col)
        if col.dtype.kind in "iu":
            slots.append((_decimal, col, _decimal_words(col)))
        else:
            col = col.astype(np.float64, copy=False)
            signed = bool((col < 0.0).any())
            slots.append((_g17, col, _SIGNED_WORDS if signed
                          else _FLOAT_WORDS))
    n = len(slots[0][1])
    if not n:
        return b""
    width = sum(words for _, _, words in slots)
    text = np.empty(8 * n * width + 1, dtype=np.uint8)
    rows = text[:-1].view("<u8").reshape(n, width)
    start, sep = 0, ord("\n")
    for kernel, col, words in slots:
        kernel(col, rows[:, start:start + words], sep)
        start, sep = start + words, ord(",")
    text[0] = 0
    text[-1] = ord("\n")
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
