"""The trial-batch layout of `rng`: one generator per batch, trial i at its
own Philox counter block, and the chunks of raw words `_trial_words` reads
against each trial's own `random_raw` through `_trial_streams`."""

import random

import numpy as np
import pytest

import ptlab.rng as rng_mod
from ptlab.graphs import cycle_graph, gnp
from ptlab.rng import _MAX_TRIALS, Stream, _trial_counter, _trial_streams, _trial_words
from ptlab.testers import TesterConfig, estimate_detection

WORD = 1 << 64
BLOCK = 1 << 128  # counter steps between the starts of consecutive trials


def _counter(words) -> int:
    return sum(int(w) << (64 * j) for j, w in enumerate(words))


@pytest.mark.parametrize("i", [0, 1, 2, 12345, 1 << 32, _MAX_TRIALS - 2, _MAX_TRIALS - 1])
def test_trial_blocks_are_disjoint_for_every_accepted_index(i):
    words = _trial_counter(i)
    assert len(words) == 4 and all(0 <= w < WORD for w in words)
    # trial i's block is [(i + 1) * BLOCK, (i + 2) * BLOCK): distinct trials
    # get distinct, equally spaced starts, and every one lies above the
    # stream's own block [0, BLOCK)
    assert _counter(words) == (i + 1) * BLOCK
    # the next index that would be accepted starts a whole block later, or
    # is refused because its word no longer fits
    nxt = _trial_counter(i + 1)
    if i + 1 < _MAX_TRIALS:
        assert _counter(nxt) - _counter(words) == BLOCK
    else:
        assert max(nxt) >= WORD


def test_trial_count_that_could_overlap_is_refused():
    cfg = TesterConfig("triple-density", t=1)
    with pytest.raises(ValueError, match="trials"):
        estimate_detection(cycle_graph(5), cfg, _MAX_TRIALS + 1, Stream(1))
    with pytest.raises(ValueError, match="trials"):
        estimate_detection(cycle_graph(5), cfg, 0, Stream(1))


def test_draws_stay_inside_their_block():
    stream = Stream(3, (4,))
    for i in (0, 7, _MAX_TRIALS - 1):
        trial = next(_trial_streams(stream, i, i + 1))
        trial.gen.integers(0, 1000, size=100_000)
        trial.gen.bit_generator.random_raw(1001)
        start = _counter(_trial_counter(i))
        assert start < _counter(trial.gen.bit_generator.state["state"]["counter"]) \
            < start + BLOCK


def test_trial_draws_depend_only_on_seed_path_and_index():
    stream = Stream(5, (1, 2))
    whole = [t.gen.bit_generator.random_raw(3).tolist() for t in _trial_streams(stream, 0, 40)]
    for lo, hi in ((0, 1), (13, 29), (39, 40)):
        part = [t.gen.bit_generator.random_raw(3).tolist()
                for t in _trial_streams(Stream(5, (1, 2)), lo, hi)]
        assert part == whole[lo:hi]
    # the caller's stream is untouched, and its own draws are none of the trials'
    assert stream._gen is None
    own = stream.gen.bit_generator.random_raw(3).tolist()
    assert own == Stream(5, (1, 2)).gen.bit_generator.random_raw(3).tolist()
    assert own not in whole


def test_trials_draw_distinct_words():
    words = [t.gen.bit_generator.random_raw(2).tolist()
             for t in _trial_streams(Stream(7), 0, 2000)]
    assert len({tuple(w) for w in words}) == len(words)
    assert len({w[0] for w in words}) > 1990  # 64-bit words: collisions are rare


def test_fault_injection_every_trial_reusing_block_zero_is_caught(monkeypatch):
    monkeypatch.setattr(rng_mod, "_trial_counter", lambda i: [0, 0, 1, 0])
    with pytest.raises(AssertionError):
        test_trials_draw_distinct_words()
    # and a batch's report collapses to all or nothing
    g = gnp(20, 0.3, Stream(9))
    rep = estimate_detection(g, TesterConfig("triple-density", t=2), 200, Stream(9, (1,)))
    assert rep.rejections in (0, 200)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1"])
def test_seed_and_path_elements_must_be_integers(bad):
    with pytest.raises(TypeError):
        Stream(bad)
    with pytest.raises(TypeError):
        Stream(0, (2, bad))
    with pytest.raises(TypeError):
        Stream(0).child(bad)


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        Stream(-1)


def test_numpy_integer_seeds_and_paths_draw_as_plain_ints():
    for twin in (Stream(np.int64(1), (np.int32(2), np.uint8(3))),
                 Stream(np.uint64(1)).child(np.int64(2), 3)):
        assert (twin.seed, twin.path) == (1, (2, 3))
        assert all(type(v) is int for v in (twin.seed, *twin.path))
        assert twin.gen.integers(0, 10**9, size=4).tolist() == \
            Stream(1, (2, 3)).gen.integers(0, 10**9, size=4).tolist()
    # seed 1's first draw, unchanged by reading seeds through `_as_int`
    assert Stream(1).gen.integers(0, 10**9) == 420910729


def _word_mismatches():
    """(seed, path, lo, width, step) where `_trial_words` differs from
    `random_raw` on the trial streams: random seeds and paths, odd widths,
    trial indices at the start, in the middle and at the end of the layout,
    in one chunk and in several."""
    rnd = random.Random(20261020)
    bad = []
    for width in (1, 3, 5, 17, 64):
        for lo in (0, rnd.randrange(1, 1 << 40), _MAX_TRIALS - 7):
            seed = rnd.randrange(1 << rnd.choice((8, 32, 63)))
            path = tuple(rnd.randrange(1000) for _ in range(rnd.randrange(3)))
            stream = Stream(seed, path)
            hi = min(lo + 7, _MAX_TRIALS)
            want = [t.gen.bit_generator.random_raw(width).tolist()
                    for t in _trial_streams(stream, lo, hi)]
            # one chunk, and chunks of 3 trials (the last one shorter)
            for step in (7, 3):
                got = list(rng_mod._trial_words(stream, lo, hi, width, step))
                if (any(chunk.dtype != np.uint64 for chunk in got)
                        or [len(chunk) for chunk in got] != [min(step, hi - s) for s in range(lo, hi, step)]
                        or [row for chunk in got for row in chunk.tolist()] != want):
                    bad.append((seed, path, lo, width, step))
    return bad


def test_trial_words_are_the_trial_streams_raw_words():
    assert _word_mismatches() == []


def test_trial_words_of_an_empty_range_or_width():
    assert list(_trial_words(Stream(1), 5, 5, 8, 4)) == []
    assert [chunk.shape for chunk in _trial_words(Stream(1), 0, 3, 0, 2)] == [(2, 0), (1, 0)]


def test_trial_words_raise_no_numpy_warning():
    with np.errstate(all="raise"):
        list(_trial_words(Stream(11, (2,)), _MAX_TRIALS - 3, _MAX_TRIALS, 9, 2))


def test_trial_words_read_the_batch_generator_once(monkeypatch):
    # a batch builds one Philox, and reads it once, however many chunks it yields
    reads = []
    real = Stream.gen
    monkeypatch.setattr(Stream, "gen", property(lambda s: reads.append(s._gen) or real.fget(s)))
    assert len(list(_trial_words(Stream(3), 0, 50, 8, 4))) == 13
    assert reads == [None]


def test_fault_injection_chunk_rows_reading_on_from_one_trial_is_caught(patch_source):
    patch_source(rng_mod, "_trial_words", "zip(chunk, trials)",
                 "zip(chunk, [next(trials)] * len(chunk))")
    assert _word_mismatches()
