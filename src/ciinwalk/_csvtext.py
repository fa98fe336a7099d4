"""CSV text of trajectory columns for `RunReport.to_csv`.

The text of `'%.17g'` for a block of floats, and of `'%d'` for its ints, is
rendered in numpy, byte for byte, as uint64 words: one contiguous plane per
word of a field, eight bytes each, NUL where a field has no character.

Digits.  Each value's 17 significant digits are the floor of
|v| 10^(16-e), e = floor(log10 |v|), rounded by its fraction
(`float_digits`).  The power of ten is a double-double (hi + lo) 2^a
computed exactly from Python ints for the decades in the block, and
Dekker's two-product forms m hi exactly, so the integer plus fraction errs
by less than 2^-46.  A value whose fraction lies within 2^-40 of 1/2 (an
exact 18-digit tie such as 3 * 2^-24, or a near one) is left to `'%.17g'`
itself, as are inf and nan; every other fraction rounds the way the exact
value does.  log10 can miss the decade next to a power of ten; those values
are redone one decade over.

Words.  The 17 digits are a first digit and two groups of 8, split by
integer division.  `_bcd8` turns a group into one word with a digit per
byte, the first in the low byte, by three reciprocal multiplies, each exact
over the range it is used on (its docstring states the ranges); OR-ing '0'
into every byte makes the digits ASCII.  A group's trailing zero digits are
its high zero bytes.  No byte exceeds 9, so the double nearest the word
never carries into the byte above its highest set bit, and frexp's exponent
finds the highest nonzero byte exactly.

Layout.  A float's 24-byte string holds its sign, the chars '0000' and its
17 digits; the text of `'%.17g'` is a run of these chars with a point after
one of them.  Beside a copy shifted up one byte, three masks picked by the
point's column and the last nonzero digit's (`_MASKS`) keep the run, drop
the zeros before and after it, and put the point in.  A fourth word holds
the exponent (`e-05`, `e+17`, `e-308`, none where `'%.17g'` is positional)
and the separator.  A zero is written as its one digit 0.  An int takes
three words: its sign, then its digits right-aligned before the comma, the
leading zeros left NUL.  A row of 2 ints and 5 floats is 26 words, copied
from the planes into one (rows, 26) array; `bytes.translate` then drops the
NUL bytes.

Memory.  A block takes its temporaries from a `_Scratch`, one buffer sized
from its row count (about 2.5 MB at 4,096 rows) that every block of the
render reuses, so the allocator has none to give back to the system after
each block and fault in again.  The text goes out in pieces of
`_PIECE_ROWS` rows, so its two copies stay small.

Byte order.  A word's first text byte is its low byte, and the tables are
read back from bytes as native words, so the layout holds on little-endian
machines only; importing the module elsewhere raises.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from collections.abc import Iterator

import numpy as np

if sys.byteorder != "little":
    raise ImportError("the CSV word layout assumes a little-endian machine")

_E16, _E17 = 10 ** 16, 10 ** 17
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's splitter for 53-bit significands
_TIE = 2.0 ** -40  # fractions this close to 1/2 are left to `%.17g`
_ZEROS = 0x3030303030303030  # '0' in every byte of a word
# rows per bytes object of text: its two copies (the words' bytes, then
# without their NULs) stay small beside a block's temporaries
_PIECE_ROWS = 1024
# the most bytes a row's temporaries take at once in `_lines`, and the most
# arrays held at once, each of which alignment can lengthen by 63 bytes
_ROW_BYTES = 607
_LIVE_ARRAYS = 19


def _table(texts) -> np.ndarray:
    """(words, len(texts)) uint64: each text NUL-padded to words * 8 bytes,
    one column per text."""
    width = -(-max(map(len, texts)) // 8) * 8
    return np.frombuffer(b"".join(s.ljust(width, b"\0") for s in texts),
                         dtype=np.uint64).reshape(len(texts), -1).T.copy()


# A float's text is cut from 24 bytes: its sign, the chars '0000' and its 17
# digits, one per column 0..20.  _MASKS[kind, word, p * 21 + l], by point
# column p (after which `%.17g` puts the point) and last nonzero digit
# column l: which of the 24 bytes to keep (kind 0), which to keep from the
# copy shifted up one byte (kind 1), and the point (kind 2).
_byte = np.arange(24)
_p, _l = np.arange(21)[:, None, None], np.arange(21)[None, :, None]
_MASKS = np.zeros((3, 21, 21, 24), dtype=np.uint8)
_MASKS[0] = ((_byte == 0) | ((_byte > np.minimum(_p, 4)) & (_byte <= _p + 1))) * 0xFF
_MASKS[1] = ((_l > _p) & (_byte >= _p + 3) & (_byte <= _l + 2)) * 0xFF
_MASKS[2] = ((_l > _p) & (_byte == _p + 2)) * ord(".")
_MASKS = _MASKS.view(np.uint64).reshape(3, 441, 3).transpose(0, 2, 1).copy()
# by decimal exponent + 400: the point column * 21, and one word of the
# exponent text (`e-05`, `e+17`, `e-308`, none where `%.17g` is
# positional) and a comma, or a newline at exponent + 1200
_exponent = np.arange(-400, 400)
_positional = (_exponent >= -4) & (_exponent < 17)
_POINT = 21 * np.where(_positional, _exponent + 4, 4)
_EXPONENT = _table([b"," if pos else b"e%+03d," % e
                    for e, pos in zip(range(-400, 400), _positional.tolist())])[0]
_newline = _EXPONENT.view(np.uint8).copy()
_newline[_newline == ord(",")] = ord("\n")
_EXPONENT = np.concatenate((_EXPONENT, _newline.view(np.uint64)))
# by digit count - 1: the '0' to OR into each byte of an int's
# right-aligned digits, then its comma
_INT_ZEROS = _table([b"\0" * (23 - d) + b"0" * d + b"," for d in range(1, 20)])
# 10^1 .. 10^19: an int's digit count less one is how many it reaches
_POWERS_U64 = 10 ** np.arange(1, 20, dtype=np.uint64)
del _byte, _p, _l, _exponent, _positional, _newline
# (multiplier, shift, quotient mask, divisor, lane width) of each step of
# `_bcd8`: 8 digits to two 4-digit lanes, to four 2-digit, to eight 1-digit
_BCD_STEPS = ((109951163, 40, 0x00000000FFFFFFFF, 10_000, 32),
              (10486, 20, 0x0000007F0000007F, 100, 16),
              (103, 10, 0x000F000F000F000F, 10, 8))


class _Scratch:
    """The temporaries of a block of `rows` rows, taken in turn from one
    byte buffer that every block of a render reuses, so a render allocates
    them once.

    Calling it takes the next array, at a multiple of 64 bytes into the
    buffer; leaving `frame()` gives back every array taken within it, so
    the buffer needs only the most that a block holds at once: `_ROW_BYTES`
    a row, plus the alignment.  A function takes its outputs before it
    opens its frame.  An array that would overrun the buffer is taken new,
    as is every array of a `_Scratch()` of no rows.
    """

    def __init__(self, rows: int = 0) -> None:
        self._buffer = np.empty(rows and rows * _ROW_BYTES + _LIVE_ARRAYS * 64, np.uint8)
        self._top = 0  # the offset of the next array

    def __call__(self, shape, dtype=np.float64) -> np.ndarray:
        nbytes = (shape if isinstance(shape, int) else math.prod(shape)) * np.dtype(dtype).itemsize
        start = self._top
        if start + nbytes > len(self._buffer):
            return np.empty(shape, dtype)
        self._top = start + -(-nbytes // 64) * 64
        return self._buffer[start:start + nbytes].view(dtype).reshape(shape)

    @contextlib.contextmanager
    def frame(self) -> Iterator[None]:
        top = self._top
        yield
        self._top = top


def _bcd8(x: np.ndarray, scratch: _Scratch | None = None) -> None:
    """Replace each uint64 x < 10^8 with its 8 decimal digits, one per byte,
    the first in the low byte (so the text's order in memory).

    Each step of `_BCD_STEPS` splits every lane of a word in two by a
    reciprocal multiply, exact over these ranges: floor(x 109951163 / 2^40)
    = floor(x / 10^4) for x < 494,389,999, then in 32-bit lanes
    floor(a 10486 / 2^20) = floor(a / 100) for a < 43,699, then in 16-bit
    lanes floor(b 103 / 2^10) = floor(b / 10) for b < 179.  The quotient q
    stays in the low half of the lane and the remainder moves to the high
    half, as (v << w) - q (d 2^w - 1).  No lane's product reaches the next
    lane, whose bits the mask drops from the quotients.
    """
    scratch = _Scratch() if scratch is None else scratch
    with scratch.frame():
        q = scratch(x.shape, np.uint64)
        for multiplier, shift, lanes, divisor, width in _BCD_STEPS:
            np.multiply(x, multiplier, out=q)
            q >>= shift
            q &= lanes
            q *= divisor * 2 ** width - 1
            x <<= width
            x -= q


# cached: s = 16 - e takes one value per decade of the doubles, about 635
@functools.cache
def _pow10(s: int) -> tuple[float, float, int]:
    """10^s as (hi + lo) 2^a, hi in [1, 2] and lo the rest, both correctly
    rounded (int true division is)."""
    if s >= 0:
        num = 10 ** s
        a = num.bit_length() - 1
        den = 1 << a
    else:
        den = 10 ** -s
        a = -den.bit_length()
        num = 1 << -a
    hi = num / den
    return hi, ((num << 52) - int(hi * 2.0 ** 52) * den) / (den << 52), a


def _split(x: np.ndarray, high: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of x into high + low, written to the two arrays."""
    np.multiply(x, _SPLIT, out=high)
    np.subtract(high, x, out=low)
    np.subtract(high, low, out=high)
    np.subtract(x, high, out=low)
    return high, low


def _scaled(m: np.ndarray, e2: np.ndarray, e10: np.ndarray,
            scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Floor and fraction of m 2^e2 10^(16 - e10), to within 2^-46 where it
    is below 10^17.

    10^(16 - e10) is a double-double (hi + lo) 2^a, computed for the decades
    present only.  m hi is exact as p + err by Dekker's two-product (numpy
    has no fma); m lo, the rounding of the sums and lo itself each err by
    about 2^-105 of the product.
    """
    n = len(m)
    whole, frac = scratch(n, np.int64), scratch(n)
    with scratch.frame():
        s = np.subtract(16, e10, out=scratch(n, np.int64))
        first = int(s.min())
        # rows hi, lo, a, then hi's split: splitting hi per decade splits
        # every value's hi
        table = np.zeros((5, int(s.max()) - first + 1))
        s -= first
        for k in np.flatnonzero(np.bincount(s)):
            table[:3, k] = _pow10(first + int(k))
        _split(table[0], table[3], table[4])
        hi = table[0].take(s, out=scratch(n), mode="clip")
        np.multiply(m, hi, out=frac)  # p, then big, then the fraction
        m1, m2 = _split(m, scratch(n), scratch(n))
        h1 = table[3].take(s, out=hi, mode="clip")
        h2 = table[4].take(s, out=scratch(n), mode="clip")
        # ((m1 h1 - p) + m1 h2 + m2 h1) + m2 h2, summed in that order
        err = np.multiply(m1, h1, out=scratch(n))
        err -= frac
        err += np.multiply(m1, h2, out=m1)
        err += np.multiply(m2, h1, out=h1)
        err += np.multiply(m2, h2, out=h2)
        # the exponent a and lo go through the arrays of the split
        e2 = np.add(e2, table[2].take(s, out=h1, mode="clip"), out=scratch(n, np.int32),
                    casting="unsafe", dtype=np.int32)
        big = np.ldexp(frac, e2, out=frac)
        np.floor(big, out=whole, casting="unsafe")
        big -= whole  # whole holds floor(big) exactly
        err += np.multiply(m, table[1].take(s, out=h2, mode="clip"), out=h2)
        frac += np.ldexp(err, e2, out=err)
        carry = np.floor(frac, out=s, casting="unsafe")
        whole += carry
        frac -= carry
    return whole, frac


def _decade_shift(whole: np.ndarray, frac: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """-1 where whole + frac < 10^16 - 0.05, +1 where it is >= 10^17 - 0.5,
    else 0.

    Within those margins below either end, this decade and the next one up
    round to the same 17 digits (10^16 in the upper decade), so either
    decade is right there and the accepted range never rounds up to 10^17.
    """
    n = len(whole)
    shift = scratch(n, np.int64)
    with scratch.frame():
        gap, total = scratch(n, np.int64), scratch(n)
        up, down = scratch(n, bool), scratch(n, bool)
        np.greater_equal(np.add(np.subtract(whole, _E17, out=gap), frac, out=total), -0.5, out=up)
        np.less(np.add(np.subtract(whole, _E16, out=gap), frac, out=total), -0.05, out=down)
        np.subtract(up, down, out=shift, dtype=np.int64)
    return shift


def float_digits(magnitude: np.ndarray,
                 scratch: _Scratch | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of finite positive values as integers in
    [10^16, 10^17), their decimal exponents, and a mask of the values too
    close to a rounding tie (or a decade) for these digits to be sure."""
    scratch = _Scratch() if scratch is None else scratch
    n = len(magnitude)
    digits, e10, unsure = scratch(n, np.int64), scratch(n, np.int64), scratch(n, bool)
    with scratch.frame():
        m, e2 = np.frexp(magnitude, out=(scratch(n), scratch(n, np.int32)))
        with scratch.frame():
            np.floor(np.log10(magnitude, out=scratch(n)), out=e10, casting="unsafe")
        whole, frac = _scaled(m, e2, e10, scratch)
        # log10 can miss the decade by one next to a power of ten; the few
        # values it misses are redone with temporaries of their own
        with scratch.frame():
            shift = _decade_shift(whole, frac, scratch)
            rows = np.flatnonzero(shift)
            shift = shift[rows]
        for _ in range(2):
            if not len(rows):
                break
            e10[rows] += shift
            whole[rows], frac[rows] = _scaled(m[rows], e2[rows], e10[rows], _Scratch())
            shift = _decade_shift(whole[rows], frac[rows], _Scratch())
            rows, shift = rows[shift != 0], shift[shift != 0]
        off = np.subtract(frac, 0.5, out=scratch(n))
        np.less(np.abs(off, out=off), _TIE, out=unsure)
        unsure[rows] = True
        np.add(whole, np.greater(frac, 0.5, out=scratch(n, bool)), out=digits)
    return digits, e10, unsure


def _float_words(values: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """(4, 5, k) uint64: `'%.17g'` of each float64 of the (5, k) values,
    then a comma, or a newline after the last column, NUL-padded; the sign,
    digits and point in words 0-2, the exponent and separator in word 3.

    Zeros are written directly; non-finite values, and those whose digits
    are unsure, through `'%.17g'` itself.
    """
    rows = values.shape[1]
    flat = values.ravel()
    n = len(flat)
    # the digits first, then the words, so that the digits' temporaries
    # are given back before the words are taken
    special = np.isfinite(flat, out=scratch(n, bool))
    np.logical_not(special, out=special)
    zero = np.equal(flat, 0.0, out=scratch(n, bool))
    magnitude = np.abs(flat, out=scratch(n))
    np.copyto(magnitude, 1.0, where=zero)
    np.copyto(magnitude, 1.0, where=special)
    digits, e10, unsure = float_digits(magnitude, scratch)
    np.copyto(digits, 0, where=zero)  # a zero's one digit is written as '0'
    words = scratch((4, n), np.uint64)
    with scratch.frame():
        first = digits.view(np.uint64)
        bcd = scratch((2, n), np.uint64)
        with scratch.frame():
            rest = scratch(n, np.uint64)
            np.divmod(first, 10 ** 16, out=(first, rest))
            np.divmod(rest, 10 ** 8, out=(bcd[0], bcd[1]))
        _bcd8(bcd, scratch)
        layout = _POINT.take(np.add(e10, 400, out=e10), out=scratch(n, np.int64), mode="clip")
        with scratch.frame():
            # the trailing zero digits of an 8-digit group are its top zero
            # bytes; each byte is below 16, so the double nearest the word
            # has the word's bit length as its frexp exponent
            mantissa, count = scratch(n), scratch((2, n), np.int32)
            for group, bits in zip(bcd, count):
                np.frexp(group, out=(mantissa, bits))
            count += 7
            count >>= 3
            count[0] += 4
            long = np.not_equal(count[1], 0, out=scratch(n, bool))
            np.add(count[1], 12, out=count[0], where=long)
            layout += count[0]
        e10[-rows:] += 800  # the last column's separator is the newline
        bcd |= _ZEROS
        # the 24 bytes: sign, '0000', the first digit, two groups of eight
        # digits and two NULs; bytes 1-5 of the first word are '0' before
        # the first digit goes into byte 5
        text = words[:3]
        np.right_shift(flat.view(np.uint64), 63, out=text[0])
        text[0] *= ord("-")
        text[0] |= 0x0000303030303000
        text[0] |= np.left_shift(first, 40, out=first)
        text[0] |= np.left_shift(bcd[0], 48, out=first)
        np.right_shift(bcd[0], 16, out=text[1])
        text[1] |= np.left_shift(bcd[1], 48, out=first)
        np.right_shift(bcd[1], 16, out=text[2])
        # last word first, so each word shifts in the top byte of the word
        # before it while that is still unmasked
        shifted, mask = scratch(n, np.uint64), scratch(n, np.uint64)
        for j in (2, 1, 0):
            np.left_shift(text[j], 8, out=shifted)
            if j:
                shifted |= np.right_shift(text[j - 1], 56, out=mask)
            text[j] &= _MASKS[0, j].take(layout, out=mask, mode="clip")
            shifted &= _MASKS[1, j].take(layout, out=mask, mode="clip")
            text[j] |= shifted
            text[j] |= _MASKS[2, j].take(layout, out=mask, mode="clip")
        _EXPONENT.take(e10, out=words[3], mode="clip")
        for i in np.flatnonzero(np.logical_or(unsure, special, out=unsure)):
            raw = b"%.17g" % flat[i] + (b"\n" if i >= n - rows else b",")
            words[:, i] = np.frombuffer(raw.ljust(32, b"\0"), dtype=np.uint64)
    return words.reshape(4, 5, rows)


def _int_words(values: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """(3, k) uint64: `'%d,' % v` of each int64 v, NUL-padded; the sign in
    the first byte, the digits right-aligned before the comma in the last.

    The digits are those of a 24-digit number, three groups of 8, shifted
    down one byte; |v| <= 2^63 has at most 19 digits, so the byte shifted
    out is a zero.
    """
    n = len(values)
    words = scratch((3, n), np.uint64)
    with scratch.frame():
        # -2^63 wraps to 2^63 unsigned
        magnitude = np.abs(values, out=scratch(n, np.int64)).view(np.uint64)
        groups = scratch((3, n), np.uint64)
        rest = np.divmod(magnitude, 10 ** 8, out=(scratch(n, np.uint64), groups[2]))[0]
        np.divmod(rest, 10 ** 8, out=(groups[0], groups[1]))
        _bcd8(groups, scratch)
        np.right_shift(groups, 8, out=words)
        words[:2] |= np.left_shift(groups[1:], 56, out=groups[1:])
        count = np.searchsorted(_POWERS_U64, magnitude, side="right")
        words |= _INT_ZEROS.take(count, axis=1, out=groups, mode="clip")
        words[0] |= np.multiply(np.right_shift(values.view(np.uint64), 63, out=rest), ord("-"),
                                out=rest)
    return words


def csv_blocks(t, rows: int) -> Iterator[bytes]:
    """The CSV rows of the `Trajectory` t as ASCII, in blocks of `rows` rows,
    each handed out in pieces of at most `_PIECE_ROWS` rows.

    Every block takes its temporaries from one `_Scratch` sized for a
    block, so the render allocates them once.
    """
    scratch = _Scratch(min(rows, len(t)))
    for start in range(0, len(t), rows):
        with scratch.frame():
            yield from _lines(t, slice(start, start + rows), scratch)


def _lines(t, block: slice, scratch: _Scratch) -> Iterator[bytes]:
    """The CSV rows of a block of samples of the `Trajectory` t, in pieces
    of at most `_PIECE_ROWS` rows."""
    rows = len(t.step[block])
    values = scratch((5, rows))
    values[:4] = t.probabilities[block].T
    values[4] = t.walk_time_so_far[block]
    counts = scratch((2, rows), np.int64)
    counts[0] = t.step[block]
    counts[1] = t.queries_so_far[block]
    floats = _float_words(values, scratch)
    ints = _int_words(counts.ravel(), scratch).reshape(3, 2, rows)
    # one row of 26 words: step, p1..p4, queries_so_far, walk_time_so_far
    line = scratch((rows, 26), np.uint64)
    line[:, 0:3] = ints[:, 0].T
    line[:, 3:19].reshape(rows, 4, 4)[...] = floats[:, :4].transpose(2, 1, 0)
    line[:, 19:22] = ints[:, 1].T
    line[:, 22:26] = floats[:, 4].T
    for start in range(0, rows, _PIECE_ROWS):
        yield line[start:start + _PIECE_ROWS].tobytes().translate(None, b"\0")
