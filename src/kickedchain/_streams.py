"""The random variant's per-trajectory streams, run for a whole tile at once.

Trajectory i draws ``default_rng(child).random()`` of child i of one
``SeedSequence``: what a fresh ``seq.spawn`` hands out i-th.  No child or
generator is built.  :func:`child_states` runs numpy's documented SeedSequence
hash on uint32 lanes, one per child, and :func:`angles` runs numpy's ``PCG64``
on uint64 lanes: O'Neill's PCG XSL-RR 128/64 (HMC-CS-2014-0905), a 128-bit LCG
with multiplier ``0x2360ED051FC65DA44385DF649FCCF645`` whose output is the xor
of the state's halves rotated right by its top 6 bits, seeded from
``generate_state(4, np.uint64)``.  A refill jumps the LCG ``_STEPS`` steps
ahead at once, so each ufunc call does the work of many steps; its 64-bit
products take the 32-bit limbs of :func:`_mulhi`, which the CSV float kernel
(``_floatcsv._product``) shares.  :func:`uniform` runs one such stream,
``_POSITIONS`` positions a refill, for ``Generator.uniform``'s
``low + (high - low) * next_double``, next_double being
``(next >> 11) * 2**-53``.  A seed is read through its ``entropy``,
``spawn_key`` and ``pool_size``, whether a :data:`Seed` or numpy's, so no run
loads ``numpy.random``.  ``TestChildStates``, ``TestLanes`` and
``TestStream`` in ``tests/test_maps.py`` pin the draws to numpy's, bit for bit.
"""

from collections import namedtuple
from itertools import accumulate

import numpy as np

_MASK = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Steps drawn per refill of a tile's buffer of angles, and positions per refill of uniform.
_STEPS = 8
_POSITIONS = 512
Seed = namedtuple("Seed", "entropy spawn_key pool_size", defaults=((), 4))


def _words(x) -> list[int]:
    """The uint32 words SeedSequence reads from an entropy value.

    A non-negative int is its little-endian 32-bit words (0 is one word 0); a
    sequence or array is the concatenation of its elements' words.
    """
    if isinstance(x, (int, np.integer)):
        x = int(x)
        return [(x >> s) & _MASK for s in range(0, max(x.bit_length(), 1), 32)]
    return [w for v in x for w in _words(v)]


def child_states(seq, a: int | None = None, b: int | None = None) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of children a..b-1 of ``seq``, one row each,
    or with no ``a`` of ``seq`` itself.

    The children differ only in their last entropy word, so every lane takes
    the same path through the hash and meets the same hash constants.
    """
    pool_size = seq.pool_size
    run = _words(seq.entropy)
    # numpy zero-pads the run entropy to the pool size before a spawn key and hashes
    # zeros in its place without one; MAX_ENSEMBLE keeps a child index one word
    run += [0] * (pool_size - len(run))
    index = [] if a is None else [np.arange(a, b, dtype=np.uint32)]
    n = 1 if a is None else b - a
    entropy = [np.full(n, w, np.uint32) for w in run + _words(seq.spawn_key)] + index

    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = (h * 0x931E8875) & _MASK
        v = v * np.uint32(h)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(w) for w in entropy[:pool_size]]
    for i_src in range(pool_size):
        for i_dst in range(pool_size):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in entropy[pool_size:]:
        for i_dst in range(pool_size):
            pool[i_dst] = mix(pool[i_dst], hashmix(w))

    h = 0x8B51F9DD
    state = np.empty((n, 8), np.uint32)
    for i_dst in range(8):
        v = pool[i_dst % pool_size] ^ np.uint32(h)
        h = (h * 0x58F38DED) & _MASK
        v = v * np.uint32(h)
        state[:, i_dst] = v ^ (v >> np.uint32(16))
    # word pairs are the (low, high) halves of each uint64, whatever the host's byte order
    lo, hi = state[:, 0::2].astype(np.uint64), state[:, 1::2].astype(np.uint64)
    return lo | (hi << np.uint64(32))


def _split_words(values, n_words: int) -> np.ndarray:
    """Python ints of ``64 * n_words`` bits as a ``(n_words, len(values))`` uint64 table."""
    return np.array([[(v >> (64 * w)) & (2**64 - 1) for v in values] for w in range(n_words)],
                    dtype=np.uint64)


def _mulhi(a0, a1, b0, b1, out, t, u) -> None:
    """Put the high word of (a1:a0) * (b1:b0), from 32-bit limbs in uint64 lanes, in ``out``.

    ``t`` and ``u`` are scratch of ``out``'s shape, which the limbs broadcast to; ``u`` may be
    ``b0``.  In place: new temporaries of a tile's size cost more in page faults than the math.
    """
    np.multiply(a0, b0, out=t)
    t >>= 32
    np.multiply(a1, b0, out=u)
    u += t
    # u is now a1 * b0 + (a0 * b0 >> 32), and t becomes a0 * b1 + (u & _MASK)
    np.multiply(a0, b1, out=t)
    np.bitwise_and(u, _MASK, out=out)
    t += out
    t >>= 32
    u >>= 32
    np.multiply(a1, b1, out=out)
    out += u
    out += t


def _lcg(c, x, d, work) -> None:
    """Put the low 128 bits of ``c * x + d`` in ``work[0]`` (high) and ``work[1]`` (low).

    ``c`` holds 128-bit ints as ``_split_words`` gives them, a (low, high) pair
    of uint64 rows; ``x`` and ``d`` are (high, low) pairs of lanes; ``work[2:]``
    is scratch.
    """
    (c0, c1), (x1, x0), (d1, d0) = c[..., None], x, d
    high, low, t, u = work
    _mulhi(c0 & _MASK, c0 >> 32, x0 & _MASK, x0 >> 32, high, t, u)
    for a, b in ((c0, x1), (c1, x0)):
        np.multiply(a, b, out=t)
        high += t
    high += d1
    np.multiply(c0, x0, out=low)
    low += d0
    high += low < d0


def _outputs(rows, k: int, n_steps: int):
    """Yield ``next >> 11`` of the PCG64 seeded from each row of ``rows``, as int64 columns, in
    blocks of up to ``k`` steps: views of one buffer, each valid until the next is asked for."""
    work = np.empty((4, k, len(rows)), np.uint64)
    high, low, t, u = work
    # PCG64 reads (initstate, initseq) as the seed's word pairs, high word first,
    # and sets inc = 2 initseq + 1 and state = M (initstate + inc) + inc
    seed = rows.T
    inc = (seed[2] << 1) | (seed[3] >> 63), (seed[3] << 1) | 1
    state = seed[:2]
    for c in (1, _MULT):
        _lcg(_split_words([c], 2), state, inc, work[:, :1])
        state = work[:2, 0].copy()
    # j steps from s give M**j s + C_j inc, with C_j = 1 + M + ... + M**(j-1)
    powers = list(accumulate([_MULT] * k, lambda m, c: m * c % 2**128))
    sums = [c % 2**128 for c in accumulate([1] + powers[:-1])]
    _lcg(_split_words(sums, 2), inc, (0, 0), work)
    jump, step_inc = _split_words(powers, 2), work[:2].copy()
    for t0 in range(0, n_steps, k):
        _lcg(jump, state, step_inc, work)
        state[:] = work[:2, -1]
        # XSL-RR: the xor of the two halves, rotated right by the top 6 bits
        np.bitwise_xor(high, low, out=t)
        high >>= 58
        np.right_shift(t, high, out=u)
        np.negative(high, out=high)
        high &= 63
        np.left_shift(t, high, out=low)
        u |= low
        u >>= 11
        yield u[:min(k, n_steps - t0)].view(np.int64)


def angles(seq, a: int, b: int, n_steps: int):
    """Yield ``2π * default_rng(child).random()`` of children a..b-1 of ``seq``, one row per step.

    A row is a view of a buffer refilled every ``_STEPS`` steps, valid until the next is asked for.
    """
    buf = np.empty((_STEPS, b - a))
    for block in _outputs(child_states(seq, a, b), _STEPS, n_steps):
        # Generator.random() is (next >> 11) * 2**-53; a power of two scales
        # 2π exactly, so one multiply rounds as the two would
        yield from np.multiply(block, 2.0 * np.pi * 2.0**-53, out=buf[:len(block)])


def uniform(seq, n: int, *bounds) -> list:
    """``[rng.uniform(low, high, n) for low, high in bounds]`` of ``rng = default_rng(seq)``."""
    blocks = _outputs(child_states(seq), _POSITIONS, n * len(bounds))
    doubles = np.concatenate([block[:, 0] * 2.0**-53 for block in blocks]).reshape(-1, n)
    return [low + (high - low) * d for (low, high), d in zip(bounds, doubles)]
