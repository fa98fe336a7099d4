"""CSV text of trajectory columns for `RunReport.to_csv`.

The text of `'%.17g'` for a block of floats is rendered in numpy, byte
for byte.  Each value's 17 significant digits are the floor of
|v| 10^(16-e), e = floor(log10 |v|), rounded by its fraction.  The power of
ten is a double-double (hi + lo) 2^a computed exactly from Python ints for
the decades in the block, and Dekker's two-product forms m hi exactly, so
the integer plus fraction errs by less than 2^-46.  A value whose fraction
lies within 2^-40 of 1/2 (an exact 18-digit tie such as 3 * 2^-24, or a
near one) is left to `'%.17g'` itself, as are inf and nan; every other
fraction rounds the way the exact value does.  log10 can miss the decade
next to a power of ten; those values are redone one decade over.  The
digits become text through base-10^4 digits and a 4-byte table, laid out
positional for -4 <= e < 17 and scientific otherwise, with trailing zeros
and a bare point dropped; the NUL bytes of unused slots are masked out of
the block's (rows, width) uint8 matrix.  Ints use the same table, without
their leading zeros.
"""

from __future__ import annotations

import numpy as np

# Each value is one row of a uint8 matrix, with
# NUL bytes where it has no character, then a comma.

# ASCII digits of 0..9999 as 4-byte rows, viewed as one uint32 per number:
# indexing with base-10^4 digits gives their text, bytes in order.  Built
# on a (10, 10, 10, 10) grid, the number abcd at [a, b, c, d], with the
# count of its trailing zero digits: a place that is 0 adds one to the
# count of the places before it, any other place resets it.
_DIGITS4 = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
_TRAILING4 = np.uint8(0)
for _place in range(4):
    _axis = (10,) + (1,) * (3 - _place)
    _DIGITS4[..., _place] = (np.arange(10, dtype=np.uint8) + ord("0")).reshape(_axis)
    _TRAILING4 = (np.arange(10) == 0).reshape(_axis) * (_TRAILING4 + 1)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_TRAILING4 = _TRAILING4.ravel()
_E16, _E17 = 10 ** 16, 10 ** 17
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's splitter for 53-bit significands
_TIE = 2.0 ** -40  # fractions this close to 1/2 are left to `%.17g`
# A float's row: its sign, then 21 (char, point) slot pairs, then its
# exponent.  The chars are four zeros and the 17 significant digits, and
# `%.17g` text is a run of them with a point after one.
_FLOAT_WIDTH = 1 + 42 + 5 + 1
_INT_WIDTH = 1 + 20 + 1
# the longest CSV row: two ints of 20 chars (-2^63), five floats of 24
# (-1.2345678901234567e-308) and seven separators
CSV_ROW_MAX = 2 * 20 + 5 * 24 + 7
# slots kept, by point column * 21 + last nonzero column: the chars from
# the first the text needs to max(point, last), and the point after its
# column when a digit follows
_column = np.arange(21)
_point, _last = _column[:, None, None], _column[None, :, None]
_KEEP = np.empty((21, 21, 21, 2), dtype=np.uint8)
_KEEP[..., 0] = (_column >= np.minimum(_point, 4)) & (_column <= np.maximum(_point, _last))
_KEEP[..., 1] = (_column == _point) & (_last > _point)
_KEEP = _KEEP.reshape(21 * 21, 42)
# the exponent's text (`e-05`, `e+17`, `e-308`) by exponent + 400, empty
# where `%.17g` is positional
_exponent = np.arange(-400, 400)
_EXPONENT = np.zeros((800, 5), dtype=np.uint8)
_EXPONENT[:, 0] = ord("e")
_EXPONENT[:, 1] = np.where(_exponent < 0, ord("-"), ord("+"))
_EXPONENT[:, 2:] = _DIGITS4[abs(_exponent)].view(np.uint8).reshape(800, 4)[:, 1:]
_EXPONENT[:, 2] *= abs(_exponent) >= 100
_EXPONENT[(_exponent >= -4) & (_exponent < 17)] = 0
del _place, _axis, _column, _point, _last, _exponent
# 10^1 .. 10^19: an int's digit count less one is how many it reaches
_POWERS_U64 = 10 ** np.arange(1, 20, dtype=np.uint64)


def _digit_groups(values: np.ndarray) -> np.ndarray:
    """(k, 5) base-10^4 digits of nonnegative integers below 10^20."""
    groups = np.empty((len(values), 5), dtype=np.int64)
    for g in range(4, 0, -1):
        values, groups[:, g] = np.divmod(values, 10_000)
    groups[:, 0] = values
    return groups


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


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scaled = _SPLIT * x
    high = scaled - (scaled - x)
    return high, x - high


def _scaled(m: np.ndarray, e2: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor and fraction of m 2^e2 10^(16 - e10), to within 2^-46 where it
    is below 10^17.

    10^(16 - e10) is a double-double (hi + lo) 2^a, computed for the decades
    present only.  m hi is exact as p + err by Dekker's two-product (numpy
    has no fma); m lo, the rounding of the sums and lo itself each err by
    about 2^-105 of the product.
    """
    s = 16 - e10
    first = int(s.min())
    table = np.zeros((3, int(s.max()) - first + 1))
    for k in np.flatnonzero(np.bincount(s - first)):
        table[:, k] = _pow10(first + int(k))
    hi, lo, a = table[:, s - first]
    p = m * hi
    m1, m2 = _split(m)
    h1, h2 = _split(hi)
    err = ((m1 * h1 - p) + m1 * h2 + m2 * h1) + m2 * h2
    e2 = e2 + a.astype(np.int32)
    big = np.ldexp(p, e2)
    whole = np.floor(big)
    frac = (big - whole) + np.ldexp(err + m * lo, e2)
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry


def _decade_shift(whole: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """-1 where whole + frac < 10^16 - 0.05, +1 where it is >= 10^17 - 0.5,
    else 0.

    Within those margins below either end, this decade and the next one up
    round to the same 17 digits (10^16 in the upper decade), so either
    decade is right there and the accepted range never rounds up to 10^17.
    """
    return (((whole - _E17) + frac >= -0.5).astype(np.int64)
            - ((whole - _E16) + frac < -0.05))


def float_digits(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of finite positive values as integers in
    [10^16, 10^17), their decimal exponents, and a mask of the values too
    close to a rounding tie (or a decade) for these digits to be sure."""
    m, e2 = np.frexp(magnitude)
    e10 = np.floor(np.log10(magnitude)).astype(np.int64)
    whole, frac = _scaled(m, e2, e10)
    # log10 can miss the decade by one next to a power of ten
    rows = np.arange(len(magnitude))
    shift = _decade_shift(whole, frac)
    for _ in range(2):
        rows, shift = rows[shift != 0], shift[shift != 0]
        if not len(rows):
            break
        e10[rows] += shift
        whole[rows], frac[rows] = _scaled(m[rows], e2[rows], e10[rows])
        shift = _decade_shift(whole[rows], frac[rows])
    unsure = abs(frac - 0.5) < _TIE
    unsure[rows[shift != 0]] = True
    return whole + (frac > 0.5), e10, unsure


def _float_text(values: np.ndarray) -> np.ndarray:
    """(k, _FLOAT_WIDTH) uint8: `'%.17g,' % v` for each float64 v, NUL-padded.

    Zeros are written directly; non-finite values, and those whose digits
    are unsure, through `'%.17g'` itself.
    """
    magnitude = abs(values)
    zero = magnitude == 0.0
    finite = np.isfinite(magnitude)
    magnitude[zero | ~finite] = 1.0
    digits, e10, unsure = float_digits(magnitude)
    text = np.empty((len(values), _FLOAT_WIDTH), dtype=np.uint8)
    text[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    groups = _digit_groups(digits)
    slots = text[:, 1:43].reshape(-1, 21, 2)
    slots[:, 0, 0] = ord("0")
    slots[:, 1:, 0] = _DIGITS4[groups].view(np.uint8)
    slots[:, :, 1] = ord(".")
    # trailing zeros of the 16 digits after the first, which is nonzero
    trailing = np.zeros(len(values), dtype=np.int64)
    for g in range(1, 5):
        trailing = np.where(groups[:, g] == 0, trailing + 4, _TRAILING4[groups[:, g]])
    point = np.where((e10 >= -4) & (e10 < 17), e10 + 4, 4)
    text[:, 1:43] *= _KEEP.take(point * 21 + 20 - trailing, axis=0)
    text[zero, 9] = ord("0")  # zeros went in as 1.0: their one digit
    text[:, 43:48] = _EXPONENT.take(e10 + 400, axis=0)
    text[:, 48] = ord(",")
    for i in np.flatnonzero(unsure | ~finite):
        raw = np.frombuffer(b"%.17g" % values[i], dtype=np.uint8)
        text[i, :len(raw)] = raw
        text[i, len(raw):-1] = 0
    return text


def _int_text(values: np.ndarray) -> np.ndarray:
    """(k, _INT_WIDTH) uint8: `'%d,' % v` for each int64 v, NUL-padded."""
    text = np.empty((len(values), _INT_WIDTH), dtype=np.uint8)
    negative = values < 0
    text[:, 0] = negative * np.uint8(ord("-"))
    magnitude = values.view(np.uint64)
    magnitude = np.where(negative, np.uint64(0) - magnitude, magnitude)
    chars = _DIGITS4[_digit_groups(magnitude)].view(np.uint8)
    width = np.searchsorted(_POWERS_U64, magnitude, side="right")
    text[:, 1:21] = chars * (np.arange(20) >= 19 - width[:, None])
    text[:, 21] = ord(",")
    return text


def csv_rows(t, block: slice, out: np.ndarray) -> int:
    """Write the CSV rows of a block of samples of the `Trajectory` t to
    the start of `out` and return their length in bytes."""
    rows = len(t.step[block])
    floats = _float_text(np.column_stack(
        (t.probabilities[block], t.walk_time_so_far[block])).ravel()).reshape(rows, 5, -1)
    ints = _int_text(np.column_stack(
        (t.step[block], t.queries_so_far[block])).ravel()).reshape(rows, 2, -1)
    text = np.concatenate((ints[:, 0], floats[:, :4].reshape(rows, -1), ints[:, 1],
                           floats[:, 4]), axis=1)
    text[:, -1] = ord("\n")
    text = text.ravel()
    kept = text != 0
    length = np.count_nonzero(kept)
    text.compress(kept, out=out[:length])
    return length
