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

Every trial draws from numpy's own Philox: `_trial_streams` gives a trial
its generator, and `_trial_words` reads a chunk of trials' first raw words
from it at once, one trial's `random_raw` per row. Each builds one
generator, however many trials or chunks it reads.
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


def _trial_counter(i: int) -> list[int]:
    """Philox counter words, low word first, at which trial i starts."""
    return [0, 0, i + 1, 0]


def _trial_words(rng: Stream, lo: int, hi: int, width: int,
                 step: int) -> Iterator[np.ndarray]:
    """The first `width` raw words of each of trials lo..hi-1 of the batch on
    `rng`, in chunks of at most `step` trials: row j of the chunk that starts
    at trial s is the uint64 row `random_raw(width)` returns on trial s + j's
    stream (`_trial_streams`), read from the batch's one generator."""
    bitgen = Stream(rng.seed, rng.path).gen.bit_generator
    trials = _trial_starts(bitgen, lo, hi)
    for first in range(lo, hi, step):
        chunk = np.empty((min(step, hi - first), width), np.uint64)
        for row, trial in zip(chunk, trials):
            row[:] = trial.random_raw(width)
        yield chunk


def _trial_streams(rng: Stream, lo: int, hi: int) -> Iterator[Stream]:
    """Trials lo..hi-1 of the batch on `rng`, in order.

    Each trial is the same fresh Stream(rng.seed, rng.path), its generator
    moved to the start of that trial's counter block; it is valid until the
    next trial is taken. `rng` itself is not touched.
    """
    batch = Stream(rng.seed, rng.path)
    for _ in _trial_starts(batch.gen.bit_generator, lo, hi):
        yield batch


def _trial_starts(bitgen: np.random.Philox, lo: int,
                  hi: int) -> Iterator[np.random.Philox]:
    """`bitgen`, a batch's Philox, moved to the start of trial lo's counter
    block, then of trial lo + 1's, and so on up to trial hi - 1's."""
    counter = [0, 0, 0, 0]
    # an empty output buffer, so the first draw starts the block
    state = {"bit_generator": "Philox",
             "state": {"counter": counter,
                       "key": bitgen.state["state"]["key"].tolist()},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in range(lo, hi):
        counter[:] = _trial_counter(i)
        bitgen.state = state
        yield bitgen
