"""CSV files in ``csv.writer``'s default dialect, with floats as ``repr`` writes them.

``float.__repr__`` prints the shortest decimal that reads back as the same
double, the nearest one when several are as short.  It finds those digits
with a bignum loop, one float at a time.  This module finds the same digits
for a whole block of doubles with Ryu (Adams, PLDI 2018): a double's digits
come from products of its mantissa with a 125-bit truncation of a power of
five, done here on uint64 lanes in 32-bit limbs.

Every finite double with |x| < 2**50 takes Ryu's common path: Ryu's binary
exponent e2 is then at most -5, where neither bound of the rounding interval
can end in decimal zeros.  Zeros are laid out directly; larger values, the
infinities and NaN take ``repr`` one value at a time.

A row is a run of little-endian uint64 words (``'<u8'``, whatever the host's
byte order) in which NUL bytes mark unused slots, so one boolean compaction
of the row matrix gives the CSV bytes.  A value takes ``_WORDS`` words: ","
and the sign, with the "0.000" head of a small fixed-point value; then up to
17 digits with the decimal point put in (18 bytes), and the exponent suffix.
"""

from __future__ import annotations

import functools

import numpy as np

# Words of one value: separator, sign and head; then digits, point and suffix.
_WORDS = 4
# Values formatted per pass; the scratch of a pass is a few hundred kB.
_BLOCK = 2048
# The biased exponents of the doubles below 2**50; 0 holds zero and the subnormals.
_MAX_EXP = 1072
# The layout tables cover the decimal exponents E of a leading digit in [_MIN_LEAD, 15].
_MIN_LEAD = -324
_M32 = 0xFFFFFFFF


def _word(text: str, at: int = 0) -> int:
    """The ``'<u8'`` word holding ``text`` from byte ``at``."""
    return int.from_bytes(text.encode().rjust(at + len(text), b"\0"), "little")


def _split_words(values, n_words: int) -> np.ndarray:
    """Python ints of ``64 * n_words`` bits as a ``(n_words, len(values))`` uint64 table."""
    return np.array([[(v >> (64 * w)) & (2**64 - 1) for v in values] for w in range(n_words)],
                    dtype=np.uint64)


@functools.cache
def _tables():
    """Ryu's multipliers per biased exponent, and the layout tables."""
    # Ryu's d2d for e2 < 0: vr = floor(mv * 5**i / 2**q) = (mv * mul) >> (q - k),
    # mul the leading 125 bits of 5**i and k the bits cut off (< 0: bits added)
    e2 = np.maximum(np.arange(_MAX_EXP + 1), 1) - 1077
    q = ((-e2 * 732923) >> 20) - 1
    k = np.empty_like(q)
    ml, mh = np.empty((2, len(q)), dtype=np.uint64)
    for e, i in enumerate((-e2 - q).tolist()):
        pow5 = 5**i
        k[e] = pow5.bit_length() - 125
        mul = pow5 >> int(k[e]) if k[e] >= 0 else pow5 << -int(k[e])
        ml[e], mh[e] = mul & (2**64 - 1), mul >> 64
    ryu = {
        "ml": ml, "mh": mh,
        # the low and the high 32-bit limbs of ml and mh
        "limb0": np.stack([ml & _M32, mh & _M32]), "limb1": np.stack([ml >> 32, mh >> 32]),
        # 2 mul, and the complement of its low word
        "ml2": ml << 1, "mh2": (mh << 1) | (ml >> 63), "nml2": ~(ml << 1),
        # the shift q - k - 64 and 64 minus it
        "shift": np.stack([q - k - 64, 128 - q + k]).astype(np.uint64),
        # the low q bits, which are all zero in a multiple of 2**q
        "tz": (np.uint64(1) << np.minimum(q, 63).astype(np.uint64)) - 1,
    }
    # kept apart: an int64 array in the uint64 arithmetic would turn it to float64
    ryu_e10 = q + e2
    pow10 = np.array([10**n for n in range(20)], dtype=np.uint64)
    half = np.array([2**64 - 1] + [5 * 10**n for n in range(19)], dtype=np.uint64)
    # per leading exponent E at E - _MIN_LEAD: the first word (the sign is added
    # later), the suffix after the 18 bytes of digits and point, the digit the
    # point follows (17: no point) and the fewest digits shown ("1000.0" shows five)
    first, suffix, point, fewest = [], [], [], []
    for lead in range(_MIN_LEAD, 16):
        head = "0." + "0" * (-lead - 1) if -4 <= lead < 0 else ""
        first.append(_word(",") | _word(head, 2))
        suffix.append(_word(f"e-{-lead:02d}", 2) if lead < -4 else 0)
        point.append(lead if lead >= 0 else 0 if lead < -4 else 17)
        fewest.append(lead + 2 if lead >= 0 else 0)
    layout = {
        "first": np.array(first, dtype=np.uint64),
        "suffix": np.array(suffix, dtype=np.uint64),
        "point": np.array(point, dtype=np.intp),
        "fewest": np.array(fewest, dtype=np.intp),
        # per count of digits shown: ASCII "0" in those bytes of the three digit words
        "zeros": _split_words([int.from_bytes(b"0" * n, "little") for n in range(18)], 3),
        # per digit the point follows (17: none): the bytes up to it, and the point after it
        "low": _split_words([2 ** (8 * n + 8) - 1 for n in range(18)], 3),
        "dot": _split_words([ord(".") << (8 * n + 8) if n < 17 else 0 for n in range(18)], 3),
    }
    return ryu, ryu_e10, pow10, half, layout


def _mulhi(a0, a1, b0, b1):
    """High 64 bits of (a1:a0) * (b1:b0), from 32-bit limbs held in uint64 lanes."""
    t = a0 * b0
    u = a1 * b0 + (t >> 32)
    w = a0 * b1 + (u & _M32)
    return a1 * b1 + (u >> 32) + (w >> 32)


def _product(mv, exp, ryu):
    """P = mv * mul, for the multipliers of biased exponents ``exp``, as words w0, w1, w2.

    A function of its own, so that the limb products are freed when it returns.
    """
    high = _mulhi(mv & _M32, mv >> 32, ryu["limb0"].take(exp, axis=1), ryu["limb1"].take(exp, axis=1))
    w1 = mv * ryu["mh"].take(exp)
    w1 += high[0]
    high[1] += w1 < high[0]
    return mv * ryu["ml"].take(exp), w1, high[1]


def _interval(bits, exp, ryu):
    """Ryu's vr, its bounds vp and vm as rows of one array, and whether vr is exact."""
    mv = bits & (2**52 - 1)
    # the lower bound is mv - 2, or mv - 1 below a power of two
    wide = (mv != 0) | (exp <= 1)
    mv |= (exp != 0).astype(np.uint64) << 52
    mv <<= 2
    exact = (mv & ryu["tz"].take(exp)) == 0
    w0, w1, w2 = _product(mv, exp, ryu)
    # words 1 and 2 of the bounds P + 2 mul and P - 2 mul (or P - mul)
    up = ryu["mh2"].take(exp)
    up += w0 > ryu["nml2"].take(exp)
    down = np.where(wide, ryu["mh2"].take(exp), ryu["mh"].take(exp))
    down += w0 < np.where(wide, ryu["ml2"].take(exp), ryu["ml"].take(exp))
    bounds = np.stack([w1 + up, w1 - down])
    high = np.stack([w2 + (bounds[0] < up), w2 - (w1 < down)])
    # vr, vp and vm are these words >> (64 + s), where each fits one word
    s, sl = ryu["shift"].take(exp, axis=1)
    bounds >>= s
    high <<= sl
    bounds |= high
    w1 >>= s
    w2 <<= sl
    w1 |= w2
    return w1, bounds, exact


def _digits(bits, exp):
    """Ryu's shortest digits of the doubles with ``bits`` (finite, 0 < |x| < 2**50).

    ``exp`` is their biased exponent as intp.  Returns the digits as an integer
    below 10**17 and the decimal exponent of the last digit.
    """
    ryu, ryu_e10, pow10, half, _ = _tables()
    vr, bounds, exact = _interval(bits, exp, ryu)
    # drop the most digits r that leave a multiple of 10**r in (vm, vp]
    removed = np.zeros(len(bits), dtype=np.intp)
    for step in (16, 8, 4, 2, 1):
        cut = bounds // 10**step
        keep = cut[0] > cut[1]
        if keep.any():
            bounds = np.where(keep, cut, bounds)
            removed += keep * step
    scale = pow10.take(removed)
    out = vr // scale
    rest = vr - out * scale
    mid = half.take(removed)
    # round up where the cut vr is the cut vm, which lies outside the interval;
    # else half up, but a tie on an exactly represented vr goes to even
    tie_down = (rest == mid) & exact & ((out & 1) == 0)
    out += (out == bounds[1]) | (rest > mid) | ((rest == mid) & ~tie_down)
    return out, ryu_e10.take(exp) + removed


def _swar8(n):
    """Digit values (no "0" added) of ``n`` < 10**8, first digit in the lowest byte."""
    hi = n // 10000
    v = hi | ((n - 10000 * hi) << 32)
    t = ((v * 10486) >> 20) & 0x0000007F0000007F
    v = t | ((v - 100 * t) << 16)
    t = ((v * 103) >> 10) & 0x000F000F000F000F
    return t | ((v - 10 * t) << 8)


def _digit_words(digits, n_digits, pow10):
    """Digit values of ``digits``, left-aligned to 17, as three words: 0-7, 8-15 and 16."""
    aligned = digits * pow10.take(17 - n_digits)
    words = np.empty((3, len(digits)), dtype=np.uint64)
    words[0] = aligned // 10**9
    aligned -= words[0] * 10**9
    words[1] = aligned // 10
    words[2] = aligned - 10 * words[1]
    words[:2] = _swar8(words[:2])
    return words


def _fill(words, x) -> None:
    """Write the floats ``x``, shape ``(m, k)``, into ``words``, shape ``(m, k, _WORDS)``."""
    _, _, pow10, _, layout = _tables()
    shape = x.shape
    bits = np.ascontiguousarray(x).view(np.uint64).ravel()
    exp = ((bits >> 52) & 0x7FF).astype(np.intp)
    zero = (bits << 1) == 0
    fast = (exp <= _MAX_EXP) & ~zero
    # a lane outside the fast path computes the digits of 0.30000000000000004,
    # which drop few, and is overwritten
    digits, last_exp = _digits(np.where(fast, bits, 0x3FD3333333333334), np.where(fast, exp, 1021))
    digits[zero] = 0
    n_digits = np.searchsorted(pow10[1:18], digits, side="right") + 1
    row = np.where(zero, 0, last_exp + n_digits - 1) - _MIN_LEAD
    shown = np.maximum(n_digits, layout["fewest"].take(row))
    # a point shows only where a digit follows it: "5e-324", not "5.e-324"
    point = layout["point"].take(row)
    at = np.where(point < shown - 1, point, 17)
    # ASCII digits up to the count shown; the bytes after the point move up one
    text = _digit_words(digits, n_digits, pow10) + layout["zeros"].take(shown, axis=1)
    low = text & layout["low"].take(at, axis=1)
    text ^= low
    moved = text << 8
    moved[1:] |= text[:-1] >> 56
    moved |= low
    moved |= layout["dot"].take(at, axis=1)
    moved[2] |= layout["suffix"].take(row)
    words[..., 1:] = moved.T.reshape(*shape, 3)
    words[..., 0] = (layout["first"].take(row) | ((bits >> 63) * 45) << 8).reshape(shape)
    slow = np.flatnonzero(~(fast | zero))
    if len(slow):
        text = [b"," + repr(v).encode() for v in bits.view(np.float64)[slow].tolist()]
        fields = np.array(text, dtype=f"S{8 * _WORDS}").view("<u8").reshape(-1, _WORDS)
        words[slow // shape[1], slow % shape[1]] = fields


def label_words(labels) -> np.ndarray:
    """The integer row labels as NUL-padded ``'<u8'`` words, one row each."""
    labels = np.asarray(labels, dtype=np.int64)
    longest = max((len(str(v)) for v in (labels.min(initial=0), labels.max(initial=0))))
    width = -(-longest // 8)
    return labels.astype(f"S{8 * width}").view("<u8").reshape(len(labels), width)


def write_rows(fh, head: str, labels, values) -> None:
    """Write one CSV row per row of ``values`` to the binary file ``fh``.

    Row ``i`` is "\\r\\n", which ends the line before it, ``head``,
    ``labels[i]`` (from ``label_words``) and the floats ``values[i]``, each
    after a ",".  A float's bytes are its ``repr``.  At most ``_BLOCK`` values
    are formatted at a time.
    """
    n, k = values.shape
    head = ("\r\n" + head).encode()
    head_words = np.frombuffer(head.ljust(-(-len(head) // 8) * 8, b"\0"), dtype="<u8")
    n_head, n_label = len(head_words), labels.shape[1]
    step = max(1, _BLOCK // k)
    rows = np.zeros((min(n, step), n_head + n_label + k * _WORDS), dtype="<u8")
    rows[:, :n_head] = head_words
    for start in range(0, n, step):
        block = rows[: min(step, n - start)]
        block[:, n_head : n_head + n_label] = labels[start : start + len(block)]
        fields = block[:, n_head + n_label :].reshape(len(block), k, _WORDS)
        _fill(fields, values[start : start + len(block)])
        text = block.view(np.uint8)
        fh.write(text[text != 0])


def write_csv(path, header: str, labels, blocks) -> None:
    """Write ``header``; then, for each ``(index, values)`` of ``blocks``, one row per
    row ``i`` of ``values``: ``index``, the integer ``labels[i]``, the floats ``values[i]``."""
    labels = label_words(labels)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for index, values in blocks:
            write_rows(fh, f"{index},", labels, values)
        fh.write(b"\r\n")
