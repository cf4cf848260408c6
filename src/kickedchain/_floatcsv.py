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
of the row matrix gives the CSV bytes.  numpy copies the bytes a boolean
index keeps run by run, so the slots are placed to make few runs.  A value
takes ``_WORDS`` words: "," with the sign and the "0.000" head of a small
fixed-point value, right-aligned so that they run on into the digits; then
up to 17 digits with the decimal point put in (18 bytes), and the exponent
suffix.  Every row carries its own head words, "\\r\\n<index>,", so one pass
of the kernel can end one snapshot or trajectory and start the next; they are
right-aligned, so that they run on into the row's label.  A row of k
fixed-point values is then k + 1 runs.
"""

from __future__ import annotations

import functools

import numpy as np

from ._streams import _MASK, _mulhi, _split_words

# Words of one value: separator, sign and head; then digits, point and suffix.
_WORDS = 4
# Values formatted per pass, at most; a pass spans blocks.  Each pass is about
# 50 ufunc calls, whose fixed cost dominates below about 10k values; its
# scratch is about 160 bytes per value, 1.3 MB at 8192.
_BLOCK = 8192
# The biased exponents of the doubles below 2**50; 0 holds zero and the subnormals.
_MAX_EXP = 1072
# The layout tables cover the decimal exponents E of a leading digit in [_MIN_LEAD, 15].
_MIN_LEAD = -324


def _word(text: str, at: int = 0) -> int:
    """The ``'<u8'`` word holding ``text`` from byte ``at``."""
    return int.from_bytes(text.encode().rjust(at + len(text), b"\0"), "little")


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
        "limb0": np.stack([ml & _MASK, mh & _MASK]), "limb1": np.stack([ml >> 32, mh >> 32]),
        # the high and the low word of 2 mul, then of mul: what a bound adds or
        # subtracts; and the complement of the low word of 2 mul
        "bh": np.concatenate([(mh << 1) | (ml >> 63), mh]), "bl": np.concatenate([ml << 1, ml]),
        "nml2": ~(ml << 1),
        # the hidden bit of 4 mv, set for the normal doubles
        "hidden": np.where(np.arange(len(q)) > 0, np.uint64(1 << 54), np.uint64(0)),
        # the shift q - k - 64 and 64 minus it
        "shift": np.stack([q - k - 64, 128 - q + k]).astype(np.uint64),
        # the low q bits, which are all zero in a multiple of 2**q
        "tz": (np.uint64(1) << np.minimum(q, 63).astype(np.uint64)) - 1,
    }
    # kept apart: an int64 array in the uint64 arithmetic would turn it to float64
    ryu_e10 = q + e2
    pow10 = np.array([10**n for n in range(20)], dtype=np.uint64)
    half = np.array([2**64 - 1] + [5 * 10**n for n in range(19)], dtype=np.uint64)
    # per leading exponent E at E - _MIN_LEAD: the head of the digits, the suffix
    # after the 18 bytes of digits and point, the digit the point follows (17: no
    # point) and the fewest digits shown ("1000.0" shows five)
    heads, suffix, point, fewest = [], [], [], []
    for lead in range(_MIN_LEAD, 16):
        heads.append("0." + "0" * (-lead - 1) if -4 <= lead < 0 else "")
        suffix.append(_word(f"e-{-lead:02d}", 2) if lead < -4 else 0)
        point.append(lead if lead >= 0 else 0 if lead < -4 else 17)
        fewest.append(lead + 2 if lead >= 0 else 0)
    first = [_word(f",{sign}{h}", 7 - len(sign + h)) for sign in ("", "-") for h in heads]
    layout = {
        # per leading exponent, then again for negative values: the first word,
        # "," with the sign and the head, right-aligned so that it runs on into the digits
        "first": np.array(first, dtype=np.uint64),
        "suffix": np.array(suffix, dtype=np.uint64),
        "point": np.array(point, dtype=np.intp),
        "fewest": np.array(fewest, dtype=np.intp),
        # per bit length b: the digits of 2**(b - 1), the fewest of that bit length
        "count": np.array([1] + [len(str(2 ** (b - 1))) for b in range(1, 66)], dtype=np.intp),
        # per count of digits shown: ASCII "0" in those bytes of the three digit words
        "zeros": _split_words([int.from_bytes(b"0" * n, "little") for n in range(18)], 3),
        # per digit the point follows (17: none): the bytes up to it, and the point after it
        "low": _split_words([2 ** (8 * n + 8) - 1 for n in range(18)], 3),
        "dot": _split_words([ord(".") << (8 * n + 8) if n < 17 else 0 for n in range(18)], 3),
    }
    return ryu, ryu_e10, pow10, half, layout


def _product(mv, exp, ryu):
    """P = mv * mul, for the multipliers of biased exponents ``exp``, as words w0, w1, w2.

    A function of its own, so that the limb products are freed when it returns.
    """
    b0, b1 = ryu["limb0"].take(exp, axis=1), ryu["limb1"].take(exp, axis=1)
    high, t = np.empty_like(b0), np.empty_like(b0)
    _mulhi(mv & _MASK, mv >> 32, b0, b1, high, t, b0)
    del b0, b1, t
    w1 = mv * ryu["mh"].take(exp)
    w1 += high[0]
    high[1] += w1 < high[0]
    return mv * ryu["ml"].take(exp), w1, high[1]


def _interval(mv, exp, ryu):
    """Ryu's vr, its bounds vp and vm as rows of one array, and whether vr is exact.

    ``mv`` holds the doubles' bits on entry; it is overwritten.
    """
    # 4 mv: the fraction bits, shifted up two, and the hidden bit
    mv <<= 12
    mv >>= 10
    # the lower bound is 4 mv - 2, or 4 mv - 1 at a power of two above the least normal
    narrow = (mv == 0) & (exp > 1)
    mv |= ryu["hidden"].take(exp)
    exact = (mv & ryu["tz"].take(exp)) == 0
    w0, w1, w2 = _product(mv, exp, ryu)
    # words 1 and 2 of the bounds P + 2 mul and P - 2 mul (or P - mul, from the
    # second half of the tables)
    up = ryu["bh"].take(exp)
    up += w0 > ryu["nml2"].take(exp)
    lower = narrow * len(ryu["mh"])
    lower += exp
    down = ryu["bh"].take(lower)
    down += w0 < ryu["bl"].take(lower)
    del w0, narrow, lower
    bounds = np.empty((2, len(w1)), dtype=np.uint64)
    high = np.empty_like(bounds)
    np.add(w1, up, out=bounds[0])
    np.add(w2, bounds[0] < up, out=high[0])
    np.subtract(w1, down, out=bounds[1])
    np.subtract(w2, w1 < down, out=high[1])
    del up, down
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

    ``exp`` is their biased exponent as int64.  Returns the digits as an integer
    below 10**17 and the decimal exponent of the last digit.  ``bits`` is
    overwritten.
    """
    ryu, ryu_e10, pow10, half, _ = _tables()
    vr, bounds, exact = _interval(bits, exp, ryu)
    # drop the most digits r that leave a multiple of 10**r in (vm, vp]
    removed = np.zeros(len(vr), dtype=np.intp)
    for step in (16, 8, 4, 2, 1):
        cut = bounds // 10**step
        keep = cut[0] > cut[1]
        if keep.any():
            # bounds = cut where keep, in three passes: cheaper than a masked copy
            bounds -= cut
            bounds *= ~keep
            bounds += cut
            removed += keep * step
    del cut, keep
    scale = pow10.take(removed)
    out = vr // scale
    scale *= out
    vr -= scale
    # vr is now the rest; round up where the cut vr is the cut vm, which lies
    # outside the interval; else half up, but a tie on an exactly represented
    # vr goes to even
    mid = half.take(removed)
    tie_down = (vr == mid) & exact & ((out & 1) == 0)
    out += (out == bounds[1]) | (vr > mid) | ((vr == mid) & ~tie_down)
    return out, ryu_e10.take(exp) + removed


def _swar8(n):
    """Digit values (no "0" added) of ``n`` < 10**8, first digit in the lowest byte, in place."""
    hi = n // 10000
    t = hi * 10000
    n -= t
    n <<= 32
    n |= hi
    # split each field v in two, q = v // 100 and then v // 10, by a multiply and a shift
    for mul, shift, mask, base, width in ((10486, 20, 0x0000007F0000007F, 100, 16),
                                          (103, 10, 0x000F000F000F000F, 10, 8)):
        np.multiply(n, mul, out=t)
        t >>= shift
        t &= mask
        np.multiply(t, base, out=hi)
        n -= hi
        n <<= width
        n |= t


def _digit_words(digits, n_digits, pow10):
    """Digit values of ``digits``, left-aligned to 17, as three words: 0-7, 8-15 and 16.

    ``digits`` is overwritten.
    """
    digits *= pow10.take(17 - n_digits)
    words = np.empty((3, len(digits)), dtype=np.uint64)
    np.floor_divide(digits, 10**9, out=words[0])
    np.multiply(words[0], 10**9, out=words[1])
    digits -= words[1]
    np.floor_divide(digits, 10, out=words[1])
    np.multiply(words[1], 10, out=words[2])
    np.subtract(digits, words[2], out=words[2])
    _swar8(words[:2])
    return words


def _digit_count(digits):
    """The decimal digits of each of ``digits``, below 10**17; 1 for zero.

    The float exponent gives the bit length (zero clips to 0), a table the
    fewest digits of that bit length, and a compare with the next power of ten
    the one digit more.  The rounding to float adds a bit only where a value
    rounds up to a power of two, which has as many digits: no power of ten up
    to 10**16 lies within 2**-53 below a power of two.
    """
    _, _, pow10, _, layout = _tables()
    n = digits.astype(np.float64).view(np.int64)
    n >>= 52
    n -= 1022
    n = layout["count"].take(n, mode="clip")
    n += digits >= pow10.take(n)
    return n


def _fill(words, x) -> None:
    """Write the floats ``x``, shape ``(m, k)``, into ``words``, shape ``(m, k, _WORDS)``.

    A value's first word, "," with its sign and head, is right-aligned against
    its digits, whose count ``_digit_count`` reads from a table.
    """
    _, _, pow10, _, layout = _tables()
    shape = x.shape
    bits = np.ascontiguousarray(x).view(np.uint64).ravel()
    exp = (bits >> 52).view(np.int64)
    exp &= 0x7FF
    zero = (bits << 1) == 0
    off = exp > _MAX_EXP
    slow = np.flatnonzero(off)
    # a lane off the fast path, zero or slow, computes the digits of
    # 0.30000000000000004, which drop few, and is overwritten
    off |= zero
    np.putmask(exp, off, 1021)
    digits, last_exp = _digits(np.where(off, 0x3FD3333333333334, bits), exp)
    del exp, off
    np.putmask(digits, zero, 0)
    n_digits = _digit_count(digits)
    text = _digit_words(digits, n_digits, pow10)
    del digits
    row = last_exp + n_digits
    row -= 1 + _MIN_LEAD
    np.putmask(row, zero, -_MIN_LEAD)
    shown = np.maximum(n_digits, layout["fewest"].take(row))
    del n_digits
    # a point shows only where a digit follows it: "5e-324", not "5.e-324"
    at = layout["point"].take(row)
    np.putmask(at, at >= shown - 1, 17)
    # ASCII digits up to the count shown; the bytes after the point move up one
    text += layout["zeros"].take(shown, axis=1)
    low = layout["low"].take(at, axis=1)
    low &= text
    text ^= low
    carry = text[:-1] >> 56
    text <<= 8
    text[1:] |= carry
    text |= low
    del low
    text |= layout["dot"].take(at, axis=1)
    text[2] |= layout["suffix"].take(row)
    # a negative value's first word follows those of the positive values
    first = (bits >> 63).view(np.int64)
    first *= len(layout["fewest"])
    first += row
    first = layout["first"].take(first)
    # one long strided copy per word and column: a store of the (m, k, 3) block
    # would copy in runs of 3
    for j, word in enumerate((first, *text)):
        for c in range(shape[1]):
            words[:, c, j] = word[c :: shape[1]]
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


def _write_pass(fh, labels, pieces) -> None:
    """Format ``pieces``, each ``(index, first, values)``, in one kernel pass and
    write them to the binary file ``fh``.

    Row ``i`` of a piece is "\\r\\n", which ends the line before it, ``index``,
    ``labels[first + i]`` (from ``label_words``) and the floats ``values[i]``,
    each after a ",".  The heads of a pass are NUL-padded on the left to the
    widest, so that each runs on into its label, and the NUL bytes of all the
    rows go in one boolean compaction.
    """
    heads = [f"\r\n{index},".encode() for index, _, _ in pieces]
    n_head, n_label = -(-max(map(len, heads)) // 8), labels.shape[1]
    values = np.concatenate([v for _, _, v in pieces]) if len(pieces) > 1 else pieces[0][2]
    m, k = values.shape
    rows = np.empty((m, n_head + n_label + k * _WORDS), dtype="<u8")
    at = 0
    for head, (_, first, v) in zip(heads, pieces):
        rows[at : at + len(v), :n_head] = np.frombuffer(head.rjust(8 * n_head, b"\0"), dtype="<u8")
        rows[at : at + len(v), n_head : n_head + n_label] = labels[first : first + len(v)]
        at += len(v)
    _fill(rows[:, n_head + n_label :].reshape(m, k, _WORDS), values)
    text = rows.view(np.uint8)
    fh.write(text[text != 0])


def write_csv(fh, header: str, labels, batches) -> None:
    """Write ``header`` to the binary file ``fh``; then, for each ``(index, values)``
    of each batch of ``batches``, one row per row ``i`` of ``values``: ``index``,
    the integer ``labels[i]``, the floats ``values[i]``.

    ``values`` is 1-D, one float per row, or 2-D, of one width in a file.  The
    floats are formatted in passes of at most ``_BLOCK``, which run on from one
    block to the next, splitting a block where a pass is full; the last pass
    of a batch ends with it, so a pass never waits for the next batch.
    """
    labels = label_words(labels)
    fh.write(header.encode())
    for batch in batches:
        pieces, size = [], 0
        for index, values in batch:
            values = values.reshape(len(values), -1)
            step = max(1, _BLOCK // values.shape[1])
            first = 0
            while first < len(values):
                take = min(len(values) - first, step - size)
                pieces.append((index, first, values[first : first + take]))
                first += take
                size += take
                if size == step:
                    _write_pass(fh, labels, pieces)
                    pieces, size = [], 0
        if pieces:
            _write_pass(fh, labels, pieces)
    fh.write(b"\r\n")
