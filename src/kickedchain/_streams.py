"""The random variant's per-trajectory streams, seeded for a whole tile at once.

Trajectory i draws from child i of one ``SeedSequence``: what a fresh
``seq.spawn`` hands out i-th, ``SeedSequence(seq.entropy, spawn_key=
seq.spawn_key + (i,), pool_size=seq.pool_size)``.  Building those children one
object at a time dominated the set-up of large ensembles, so
:func:`child_states` runs numpy's documented SeedSequence hash on uint32
arrays, one lane per child, and :func:`child_generators` seeds each PCG64 from
its row.  The streams are numpy's own, bit for bit.

Only a run that draws imports this module, because it loads ``numpy.random``,
which validation and the deterministic runs never need.
"""

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_MASK = 0xFFFFFFFF


def _words(x) -> list[int]:
    """The uint32 words SeedSequence reads from an entropy value.

    A non-negative int is its little-endian 32-bit words (0 is one word 0); a
    sequence or array is the concatenation of its elements' words.
    """
    if isinstance(x, (int, np.integer)):
        x = int(x)
        return [(x >> s) & _MASK for s in range(0, max(x.bit_length(), 1), 32)]
    return [w for v in x for w in _words(v)]


def child_states(seq, a: int, b: int) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of children a..b-1 of ``seq``, one row each.

    The children differ only in their last entropy word, so every lane takes
    the same path through the hash and meets the same hash constants.
    """
    pool_size = seq.pool_size
    run = _words(seq.entropy)
    # a spawned sequence zero-pads its run entropy to the pool size; MAX_ENSEMBLE
    # keeps every child index below 2**32, so the index is one word
    run += [0] * (pool_size - len(run))
    n = b - a
    entropy = [np.full(n, w, np.uint32) for w in run + _words(seq.spawn_key)]
    entropy.append(np.arange(a, b, dtype=np.uint32))

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


class _Seeded(ISeedSequence):
    """A seed that hands PCG64 one precomputed state row."""

    def __init__(self, row):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 reads its seed once, as generate_state(4, np.uint64)
        return self.row


def child_generators(seq, a: int, b: int) -> list[Generator]:
    """``default_rng`` of children a..b-1 of ``seq``, in order."""
    return [Generator(PCG64(_Seeded(row))) for row in child_states(seq, a, b)]
