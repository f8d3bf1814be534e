"""Seedable, splittable random streams backed by the Philox counter-based generator.

Every randomized operation in this package takes an explicit `Stream`. A
stream is identified by (seed, path); `child(i, j, ...)` derives an
independent substream with its own Philox key. Work items that may run in
parallel must each own a distinct child, so results never depend on
scheduling.

Trial batches (stream layout v2). A Monte-Carlo batch on the stream
(seed, path) builds one generator, through `Stream(seed, path).gen`, and
runs trial i from the start of its own counter block: Philox's 256-bit
counter set to (i + 1) * 2**128, i.e. its third 64-bit word set to i + 1
and the others to 0. Each draw of four words steps the counter by one, so
a block holds 2**130 words, which no trial and no stream's own draws (from
counter 0 up) come near. For trial indices 0 .. 2**64 - 2 the blocks are
disjoint from each other and from the stream's own range; `_MAX_TRIALS` is
the largest batch size this allows. Trial i's draws depend only on
(seed, path, i), whichever process runs it and in whatever order.

Batches read their trials' first words from `_trial_words`, Philox4x64-10
computed in numpy for a chunk of trials at a time, with exactly the words a
trial's generator draws; `_trial_streams` gives the trial's own generator,
for trials that draw further.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

__all__ = ["Stream"]

# trial i's block has third counter word i + 1, which must fit in 64 bits
_MAX_TRIALS = (1 << 64) - 1


def _as_int(x) -> int:
    """`x` as a plain int; bools, which `operator.index` reads as 0 and 1, are refused."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


class Stream:
    """A named random stream: master seed plus an integer derivation path,
    each read as plain ints (`_as_int`)."""

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = _as_int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        self.path = tuple(map(_as_int, path))
        self._gen: np.random.Generator | None = None

    def child(self, *path: int) -> "Stream":
        """Derive the substream at `path` below this stream."""
        return Stream(self.seed, self.path + path)

    @property
    def gen(self) -> np.random.Generator:
        """The underlying generator (created lazily, stateful across calls)."""
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def __repr__(self) -> str:
        return f"Stream(seed={self.seed}, path={self.path})"


def _trial_counter(i):
    """Philox counter words, low word first, at which trial i starts; i is an
    int, or a uint64 array of trial indices for `_trial_words`."""
    return [0, 0, i + 1, 0]


# Philox4x64-10's round multipliers and key (Weyl) increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_WORD_MASK = (1 << 64) - 1


def _batch_key(rng: Stream) -> list[int]:
    """The Philox key of the batch generator on (rng.seed, rng.path)."""
    return Stream(rng.seed, rng.path).gen.bit_generator.state["state"]["key"].tolist()


def _trial_words(rng: Stream, lo: int, hi: int, width: int,
                 step: int) -> Iterator[np.ndarray]:
    """The first `width` raw words of each of trials lo..hi-1 of the batch on
    `rng`, in chunks of at most `step` trials: row j of the chunk that starts
    at trial s is a uint64 row of what `random_raw(width)` returns on trial
    s + j's stream (`_trial_streams`).

    Philox4x64-10 in numpy. numpy steps the counter before each block of
    four words, so trial i's block b is the block function at its start
    (`_trial_counter`) plus b + 1, that is at counter (b + 1, 0, i + 1, 0),
    low word first, under the batch key, which is read once per batch. The
    low start word is 0, so the step never carries. The key schedule is
    computed in Python ints masked to 64 bits, and every operation pairs
    uint64 arrays with uint64 arrays or scalars: numpy 1.x reads a uint64
    scalar combined with a Python int as float64.
    """
    blocks = -(-width // 4)
    half, low32 = np.uint64(32), np.uint64(0xFFFFFFFF)
    mult = np.array(_PHILOX_M, np.uint64).reshape(2, 1, 1)
    m_lo, m_hi = mult & low32, mult >> half
    # A round maps counter words (w0, w1, w2, w3) under key (k0, k1) to
    # (hi(M1 w2) ^ w1 ^ k0, lo(M1 w2), hi(M0 w0) ^ w3 ^ k1, lo(M0 w0)). So
    # `mul` holds (w0, w2) and `xor` (w3, w1): lane j of the high products,
    # XORed with lane j of `xor` and of the key (k1, k0), is the next
    # round's lane 1 - j of `mul`, and the low products are its `xor`.
    key, keys = _batch_key(rng), []
    for _ in range(_PHILOX_ROUNDS):
        keys.append(key[::-1])
        key = [(k + w) & _WORD_MASK for k, w in zip(key, _PHILOX_W)]
    keys = np.array(keys, np.uint64).reshape(_PHILOX_ROUNDS, 2, 1, 1)
    for first in range(lo, hi, step):
        trials = min(step, hi - first)
        shape = (2, trials, blocks)
        start = [np.asarray(word, np.uint64).reshape(-1, 1) for word in
                 _trial_counter(np.arange(trials, dtype=np.uint64) + np.uint64(first))]
        mul, xor = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
        mul[0] = start[0] + np.arange(1, blocks + 1, dtype=np.uint64)
        mul[1], xor[0], xor[1] = start[2], start[3], start[1]
        a_lo, a_hi, t, u = (np.empty(shape, np.uint64) for _ in range(4))
        for key in keys:
            # the high words of mul * mult, from 32-bit halves (numpy has no
            # 128-bit product): a_hi * m_hi plus the carries of the cross terms
            np.bitwise_and(mul, low32, out=a_lo)
            np.right_shift(mul, half, out=a_hi)
            np.multiply(a_lo, m_lo, out=t)
            t >>= half
            np.multiply(a_hi, m_lo, out=u)
            u += t
            np.bitwise_and(u, low32, out=t)
            a_lo *= m_hi
            a_lo += t
            a_lo >>= half
            u >>= half
            a_hi *= m_hi
            a_hi += u
            a_hi += a_lo
            a_hi ^= xor
            a_hi ^= key
            np.multiply(mul, mult, out=t)  # the low words
            mul, xor, a_hi, t = a_hi[::-1], t, mul, xor
        out = np.stack((mul[0], xor[1], mul[1], xor[0]), axis=2)
        yield out.reshape(trials, 4 * blocks)[:, :width]


def _trial_streams(rng: Stream, lo: int, hi: int) -> Iterator[Stream]:
    """Trials lo..hi-1 of the batch on `rng`, in order.

    Each trial is the same fresh Stream(rng.seed, rng.path), its generator
    moved to the start of that trial's counter block; it is valid until the
    next trial is taken. `rng` itself is not touched.
    """
    batch = Stream(rng.seed, rng.path)
    bitgen = batch.gen.bit_generator
    counter = [0, 0, 0, 0]
    # an empty output buffer, so the first draw starts the block
    state = {"bit_generator": "Philox",
             "state": {"counter": counter,
                       "key": bitgen.state["state"]["key"].tolist()},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in range(lo, hi):
        counter[:] = _trial_counter(i)
        bitgen.state = state
        yield batch
