"""The vectorized ``"%.17g"`` kernel behind the CSV tables and JSON arrays of
``gmi.io``: ``format_blocks`` gives, for a float64 table, a block of rows at
a time, the bytes that ``io._format_float`` gives value by value.  ``gmi.io``
imports it only when it writes a float array, so commands that write none
never load it.

* Digits.  For a normal x with |x| <= 1e290 and k = floor(log10 |x|), the
  digits are D = round(V), V = |x| 10^q, q = 16 - k.  10^q is held as
  hi + lo, hi the double nearest 10^q and lo the double nearest 10^q - hi,
  both rounded once from Python integers (for q > 280 both carry a factor
  2^-200 and |x| a factor 2^200, which leaves V unchanged; |x| <= 1e290
  keeps every lo a normal double and Dekker's split finite).  Dekker's
  two-product gives |x| hi = p + e exactly, and
  s = ((p - rint p) + e) + fl(|x| lo) is V - rint(p) with an absolute
  error below 2^-46 while V < 2^57: the dropped |x| (10^q - hi - lo) and
  the rounding of |x| lo are each below 2^-106 V <= 2^-49, and the two
  additions (|s| < 32) are below 2^-48 together.  So D = rint(p) + rint(s)
  is round-to-nearest wherever the fraction g = s - rint(s) is farther
  than 2^-30 from +-1/2.
* Exponent.  k comes from ``log10`` and may be one off.  Where D < 10^16,
  or D = 10^16 with g < 0 (V below 10^16), or D > 10^17, k moves by one
  and D is computed again.  D = 10^17 is a carry to 10^16 at k + 1, which
  is %.17g's result for every V < 10^17 + 1/2.
* Certificate and fallback.  The kernel writes a value when its final D
  lies in [10^16, 10^17], |g| is farther than 2^-30 from 1/2, and a D of
  10^16 has g > 2^-30 (V >= 10^16, so k is right); such a D and k are
  exactly those of %.17g.  Zeros of either sign are written as ``0``.
  Every other value (exact ties and near ties, exact powers of ten,
  subnormals, |x| > 1e290) is written by ``io._format_float`` on its own, so
  the output is exact by construction.
* Layout.  Each value becomes a fixed-width record of bytes: a prefix with
  the sign and, for k = -1..-4, the "0." and zeros before the digits (a
  zero is written there as "0"), then 18 body bytes, then the exponent of
  the scientific form (k < -4 or k >= 17, at least two digits), then the
  tail of its column (a comma, a newline or JSON brackets).  The body is
  built from position-major rows, one per digit, each row n bytes long:
  body row j holds digit j before the point, the point at row pt, and digit
  j - 1 after it, chosen by uint8 multiplies against comparisons of j with
  each value's pt and length, so trailing zeros and a bare point fall
  outside the length.  Unused bytes are NUL, and dropping them joins the
  records.  Tables are done in blocks of rows, so the buffers stay a few MB.
"""

from __future__ import annotations

import functools

import numpy as np

from . import io

_NORMAL_MIN = 2.2250738585072014e-308
_FAST_MAX = 1e290
_TIE_GUARD = 2.0 ** -30
_SPLIT = 134217729.0              # 2^27 + 1, Dekker's splitter
_Q_MIN, _Q_MAX = -276, 326        # q = 16 - k for every k the kernel can reach
_RESCALE_Q, _RESCALE_BITS = 280, 200
_D_LO, _D_HI = 10 ** 16, 10 ** 17
_K_OFFSET = 330                   # row k + _K_OFFSET of the exponent table
_BLOCK_VALUES = 2 ** 15           # values formatted per block
_PREFIX, _BODY, _EXP = 6, 18, 5   # record bytes: sign and "0.000", digits and point, exponent
_ROWS = np.arange(_BODY, dtype=np.uint8)[:, None]


@functools.cache
def _pow10() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hi, lo and the scale 2^s of 10^q 2^-s for q = _Q_MIN.._Q_MAX."""
    his, los, scales = [], [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        bits = _RESCALE_BITS if q > _RESCALE_Q else 0
        num, den = (10 ** q, 1 << bits) if q >= 0 else (1, 10 ** -q)
        hi = num / den                       # int / int rounds correctly
        a, b = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * b - a * den) / (den * b))
        scales.append(2.0 ** bits)
    return np.array(his), np.array(los), np.array(scales)


@functools.cache
def _exponents() -> np.ndarray:
    """'e+XX' / 'e-XXX' bytes, NUL-padded to 5, at row k + _K_OFFSET."""
    text = b"".join(f"e{k:+03d}".encode().ljust(5, b"\0")
                    for k in range(-_K_OFFSET, _K_OFFSET))
    return np.frombuffer(text, np.uint8).reshape(-1, 5)


@functools.cache
def _prefixes() -> np.ndarray:
    """Sign and "0.000" bytes, NUL-padded to _PREFIX, at row 6 sign + kind:
    kind -k for the fixed forms k = -1..-4, 5 for a zero, else 0."""
    text = b"".join((sign + lead).ljust(_PREFIX, b"\0") for sign in (b"", b"-")
                    for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000", b"0"))
    return np.frombuffer(text, np.uint8).reshape(-1, _PREFIX)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _round_scaled(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D = round(ax 10^(16-k)) as int64 and the signed fraction g of the rounding."""
    his, los, scales = _pow10()
    i = 16 - k - _Q_MIN
    x, hi = ax * scales[i], his[i]
    p = x * hi
    xh, xl = _split(x)
    hh, hl = _split(hi)
    e = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl
    p_int = np.rint(p)
    s = ((p - p_int) + e) + x * los[i]
    r = np.rint(s)
    return p_int.astype(np.int64) + r.astype(np.int64), s - r


def _digits(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digits D, exponent k and certificate of positive normal values <= _FAST_MAX."""
    k = np.floor(np.log10(ax)).astype(np.int64)
    d, g = _round_scaled(ax, k)
    low = (d < _D_LO) | ((d == _D_LO) & (g < 0))
    high = d > _D_HI
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += np.where(high[fix], 1, -1)
        d[fix], g[fix] = _round_scaled(ax[fix], k[fix])
    ok = ((np.abs(np.abs(g) - 0.5) > _TIE_GUARD) & (d >= _D_LO) & (d <= _D_HI)
          & ((d > _D_LO) | (g > _TIE_GUARD)))
    carry = d == _D_HI
    d[carry] = _D_LO
    k[carry] += 1
    return d, k, ok


def _digit_rows(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits of D < 10^17 in rows 1..17 of a (19, n) array whose rows 0 and
    18 are NUL, as ASCII, and the count of digits before the trailing zeros."""
    rows = np.zeros((_BODY + 1, d.size), np.uint8)
    upper = d // 10 ** 9
    for half, js in (((d - upper * 10 ** 9).astype(np.uint32), range(17, 8, -1)),
                     (upper.astype(np.uint32), range(8, 0, -1))):
        for j in js:
            quotient = half // 10
            np.subtract(half, quotient * 10, out=rows[j], casting="unsafe")
            half = quotient
    kept = ((rows[1:_BODY] != 0) * _ROWS[1:]).max(axis=0)
    rows[1:_BODY] += ord("0")
    return rows, kept


def _format_block(block: np.ndarray, tails: np.ndarray) -> bytes:
    x = block.reshape(-1)
    n = x.size
    ax = np.abs(x)
    fast = (ax >= _NORMAL_MIN) & (ax <= _FAST_MAX)
    d, k, ok = _digits(np.where(fast, ax, 1.0))
    zero = x == 0.0
    digits, kept = _digit_rows(d)
    sci = (k < -4) | (k > 16)
    # the point goes before digit pt (18: none, k < 0 has it in the prefix);
    # fixed k >= 0 shows at least its k + 1 integer digits, and a zero none
    pt = np.where(sci, 1, np.where(k < 0, _BODY, k + 1)).astype(np.uint8)
    shown = np.maximum(kept, pt % _BODY) * ~zero
    length = shown + (shown > pt)
    body = digits[1:] * (_ROWS < pt) + digits[:-1] * (_ROWS > pt)
    body += (_ROWS == pt) * np.uint8(ord("."))
    body *= _ROWS < length

    width = _PREFIX + _BODY + _EXP
    rec = np.zeros((n, width + tails.shape[1]), np.uint8)
    kind = np.where((k < 0) & ~sci, -k, 5 * zero)
    rec[:, :_PREFIX] = _prefixes().take(6 * (x < 0) + kind, axis=0)  # -0.0 < 0 is False
    rec[:, _PREFIX:_PREFIX + _BODY] = body.T
    rec[sci, _PREFIX + _BODY:width] = _exponents()[k[sci] + _K_OFFSET]
    rec.reshape(block.shape[0], -1, rec.shape[1])[:, :, width:] = tails
    for j in np.flatnonzero(~((fast & ok) | zero)):
        text = io._format_float(float(x[j])).encode()
        rec[j, :width] = 0
        rec[j, :len(text)] = np.frombuffer(text, np.uint8)
    return rec.tobytes().translate(None, b"\0")


def format_blocks(table: np.ndarray, tails: np.ndarray):
    """Every value of a real 2-D table as ``io._format_float`` writes it, row by row, each
    followed by the NUL-padded bytes ``tails[column]``, as an iterator of each block's bytes.
    The call raises ValidationError on a non-finite value, as ``io._format_float`` does."""
    table = np.asarray(table, dtype=float)
    bad = ~np.isfinite(table)
    if np.any(bad):
        io._format_float(float(table[bad][0]))  # raises ValidationError
    step = max(1, _BLOCK_VALUES // max(1, table.shape[1]))
    return (_format_block(table[i:i + step], tails) for i in range(0, table.shape[0], step))
