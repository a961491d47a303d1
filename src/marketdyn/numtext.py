"""Decimal text of float64 blocks, byte for byte what Python's % gives.

Correct decimal printing of whole arrays (Steele & White, PLDI 1990): a
magnitude a is scaled to its printed digits, q = a * 10**S, by Dekker's
exact product (Numer. Math. 1971) with 10**S a double-double, so q is known
to about 1e-14 of its last digit, and rounded. Python's own % takes a cell
when q's fraction lies within _TIE of one half (% rounds exact ties
half-even), when the unrounded q lies outside its digits' decade (log10 can
misjudge it next to a power of ten), and when the value lies outside the
tables or is not finite. A cell is a row of table words whose unused bytes
are NUL; one bytes.translate drops them. Tables are built on first use. A
block of fewer than _FEW cells goes to % whole, which is faster there.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_CELLS = 2048  # cells formatted at once; larger blocks are no faster
_FEW = 512  # below this many cells Python's % is about as fast or faster
_TIE = 1e-9  # a fraction of q this near one half goes to Python's %
_K_MIN, _K_MAX = -283, 298  # the decades of the "%.17g" power table
_F2_MAX = 1e15  # a "%.2f" cell from here on goes to Python's %
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_TENS = 10 ** np.arange(1, 16)
# offsets into the word tables, after the 10,000 four-digit words
_HEAD, _BLANK, _EXPONENT = 10_000, 10_100, 10_101 - _K_MIN
_FRACTION, _SIGN = 10_000, 10_100


def _bytes(rows, width: int, dtype) -> np.ndarray:
    """Byte strings, each NUL-padded to ``width``, as rows of ``dtype`` words."""
    text = b"".join(row.ljust(width, b"\0") for row in rows)
    return np.frombuffer(text, dtype).reshape(len(rows), -1)


def _quads() -> np.ndarray:
    """The four ASCII digits of each of 0000..9999, one row each."""
    g = np.arange(10_000)
    return (48 + np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1)).astype(np.uint8)


@cache
def _g17_tables():
    """Rows hi, lo, hi's high half, hi's low half: 10**s = hi + lo for
    s = 16 - _K_MAX .. 16 - _K_MIN. The words of a 48-byte "%.17g" slot:
    the (digit, point) pairs of 0000..9999; from _HEAD, the head (sign, the
    "0." and zeros of a fixed number below 1, first digit, point); a blank;
    from _EXPONENT, "e" and the exponent of k = _K_MIN.., then the
    separator in the slot's last byte. masks[18 * m + j] keeps digits 0..m
    and the point after digit j (none for j = 17). The trailing zero
    digits of 0000..9999."""
    powers = []
    for s in range(16 - _K_MAX, 17 - _K_MIN):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        hi = num / den  # int / int rounds correctly
        hn, hd = hi.as_integer_ratio()
        powers.append((hi, (num * hd - hn * den) / (den * hd)))
    hi, lo = np.array(powers).T
    c = hi * _SPLIT
    hh = c - (c - hi)
    pairs = np.full((10_000, 8), ord("."), np.uint8)
    pairs[:, ::2] = _quads()
    heads = [(b"-" if neg else b"\0") + (b"0." + b"0" * (z - 1) if z else b"").ljust(5, b"\0")
             + b"%d." % d for neg in (0, 1) for z in range(5) for d in range(10)]
    ends = [b""] + [b"e%+03d" % k for k in range(_K_MIN, _K_MAX + 2)]
    masks = [b"\xff" * 7 + (b"\xff" if j == 0 else b"\0") + b"".join(
        (b"\xff" if i <= m else b"\0") + (b"\xff" if i == j else b"\0") for i in range(1, 17))
        + b"\xff" * 8 for m in range(17) for j in range(18)]
    zeros = sum(np.arange(10_000) % d == 0 for d in (10, 100, 1000, 10_000)).astype(np.int8)
    words = np.concatenate([pairs.view(np.uint64)[:, 0], _bytes(heads + ends, 8, np.uint64)[:, 0]])
    return np.stack([hi, lo, hh, hi - hh]), words, _bytes(masks, 48, "V48")[:, 0], zeros


@cache
def _f2_tables():
    """The words of a 24-byte "%.2f" slot: 0000..9999; from _FRACTION, the
    point and two decimals, then the separator; from _SIGN, the sign.
    leads[w] keeps w of the 16 integer digits."""
    words = [b".%02d" % f for f in range(100)] + [b"", b"-"]
    leads = [b"\xff" * 4 + b"\0" * (16 - w) + b"\xff" * (w + 4) for w in range(17)]
    return (np.concatenate([_quads().view(np.uint32)[:, 0], _bytes(words, 4, np.uint32)[:, 0]]),
            _bytes(leads, 24, "V24")[:, 0])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into halves of at most 26 significant bits."""
    c = a * _SPLIT
    ah = c - (c - a)
    return ah, a - ah


def _parts(p: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer part and the fraction of q = p + e, for p a whole
    float64 and e a small correction."""
    fl = np.floor(e)
    return p.astype(np.int64) + fl.astype(np.int64), e - fl


def _groups(index: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Write the last 16 digits of n, as four groups of four, into
    index[:, 1:5]; return n // 10**16."""
    high = n // 100_000_000
    top = high // 100_000_000
    for col, half in ((1, high - top * 100_000_000), (3, n - high * 100_000_000)):
        upper = np.floor_divide(half, 10_000, out=index[:, col])
        np.subtract(half, upper * 10_000, out=index[:, col + 1])
    return top


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each cell of the flat block x: its 17 significant digits as one
    integer (0 for a zero), its decimal exponent, and whether it is left to
    Python's %."""
    powers = _g17_tables()[0]
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(a))
    zero = a == 0.0
    covered = (k >= _K_MIN) & (k <= _K_MAX)  # false for zeros and non-finite cells
    a[~covered] = 1.0
    k = np.where(covered, k, 0.0).astype(np.int64)
    # q = a * 10**(16 - k): Dekker's exact product of a and the power's
    # high half, plus a times its low half
    hi, lo, hh, hl = (row.take(_K_MAX - k) for row in powers)
    ah, al = _split(a)
    p = a * hi
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # a * hi - p, exactly
    whole, fr = _parts(p, err + a * lo)
    n = whole + (fr >= 0.5)
    # The decade is judged on q before rounding: a q just below 10**16
    # has its 17 digits one decade lower.
    leave = ~(covered | zero) | (np.abs(fr - 0.5) < _TIE) | (whole < 10**16) | (whole >= 10**17)
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    n[zero] = 0
    return n, k, leave


def _g17_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """("%.17g" slots, cells left to Python's %) for the flat block x."""
    _, words, masks, zeros = _g17_tables()
    n, k, leave = _decimal17(x)
    fixed = (k >= -4) & (k < 17)  # %g's fixed notation
    at = np.where(fixed, k, 0)  # the digit that the point follows, if at >= 0
    index = np.empty((len(x), 6), np.int64)
    index[:, 0] = _HEAD + _groups(index, n) + 10 * np.maximum(-at, 0) + 50 * np.signbit(x)
    index[:, 5] = np.where(fixed, _BLANK, _EXPONENT + k)
    z = zeros.take(index[:, 1:5].T)  # trailing zeros per group, 4 for 0000
    last = 16 - (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])))
    slots = words.take(index)
    slots &= masks.take(18 * np.maximum(last, at) + np.where((last > at) & (at >= 0), at, 17)
                        ).view(np.uint64).reshape(slots.shape)
    return slots.view(np.uint8), leave


def _f2_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """("%.2f" slots, cells left to Python's %) for the flat block x."""
    words, leads = _f2_tables()
    a = np.abs(x)
    covered = a < _F2_MAX  # false for non-finite cells
    a[~covered] = 0.0
    ah, al = _split(a)
    p = a * 100.0  # 100 splits into itself and 0
    err = (ah * 100.0 - p) + al * 100.0  # a * 100 - p, exactly
    fl = np.floor(p)
    whole, fr = _parts(fl, (p - fl) + err)
    n = whole + (fr >= 0.5)
    integer = n // 100
    index = np.empty((len(x), 6), np.int64)
    _groups(index, integer)
    index[:, 0] = _SIGN + np.signbit(x)
    index[:, 5] = _FRACTION + n - integer * 100
    slots = words.take(index)
    slots &= leads.take(1 + np.searchsorted(_TENS, integer, side="right")
                        ).view(np.uint32).reshape(slots.shape)
    return slots.view(np.uint8), ~covered | (np.abs(fr - 0.5) < _TIE)


def _format(cells, spec: str, block, end: str) -> str:
    """The block's rows as ``",".join([spec] * columns) + end`` % row, each
    part of at most _CELLS cells laid out by ``cells``."""
    block = np.asarray(block, dtype=np.float64)
    rows, cols = block.shape
    line = ",".join([spec] * cols) + end
    step = max(1, _CELLS // cols)
    parts = []
    for start in range(0, rows, step):
        x = block[start:start + step].ravel()
        if len(x) >= _FEW:
            slots, leave = cells(x)
            width = slots.shape[1] - 1
            texts = [(spec % v).encode("ascii") for v in x[leave].tolist()]
            if all(len(text) <= width for text in texts):
                for i, text in zip(np.flatnonzero(leave).tolist(), texts):
                    slots[i] = 0
                    slots[i, :len(text)] = np.frombuffer(text, np.uint8)
                slots[:, width] = ord(",")
                slots[cols - 1::cols, width] = ord(end)
                parts.append(slots.tobytes().translate(None, b"\0").decode("ascii"))
                continue
        # a few cells, or a cell wider than a slot: Python's % formats the part
        parts.append((line * (len(x) // cols)) % tuple(x.tolist()))
    return "".join(parts)


def format_g17(block) -> str:
    """The text of the (row, column) float64 block as CSV lines: each row
    ``",".join(["%.17g"] * columns) + "\\n"`` % row."""
    return _format(_g17_cells, "%.17g", block, "\n")


def format_f2(block) -> str:
    """The text of the (row, column) float64 block as SVG points: each row
    ``",".join(["%.2f"] * columns) + " "`` % row."""
    return _format(_f2_cells, "%.2f", block, " ")
