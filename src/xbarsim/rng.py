"""Deterministic random-number streams.

All randomness in an experiment flows from one root seed.  Sub-streams are
addressed by label, e.g. ``stream(seed, "device", row, col)``, so adding or
reordering consumers of one stream never perturbs the draws of another.

``stream`` seeds a ``PCG64`` through numpy's ``SeedSequence``: the root seed's
32-bit words and one CRC-32 word per label are hashed into a pool of four
32-bit words, and ``generate_state`` hashes the pool into PCG64's four 64-bit
state words.  NEP 19 keeps that algorithm's output stable across numpy
versions.  ``streams(seed, label_rows)`` yields ``stream(seed, *labels)`` for
every row, state for state, at a fraction of the cost: every row shares the
pool left after the root seed's words, which it takes from numpy's own
``SeedSequence``; it mixes each row's label words into that pool and derives
the state words for all rows at once in numpy ``uint32`` arithmetic, with
numpy's published hashing constants, and PCG64 seeds itself from those words.
A batch generator's ``bit_generator.seed_seq`` is therefore the object holding
its precomputed words, which cannot ``spawn``; nothing in xbarsim spawns.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np

# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_XSHIFT = 16
_POOL_SIZE = 4


def _label_words(labels) -> list:
    """One CRC-32 word per label's text: the spawn key of an address."""
    return [zlib.crc32(str(label).encode("utf-8")) for label in labels]


def seed_sequence(root_seed: int, *labels) -> np.random.SeedSequence:
    """SeedSequence for the sub-stream addressed by ``labels`` under ``root_seed``."""
    return np.random.SeedSequence(entropy=int(root_seed), spawn_key=_label_words(labels))


def stream(root_seed: int, *labels) -> np.random.Generator:
    """A Generator seeded from the (root seed, labels) address."""
    return np.random.default_rng(seed_sequence(root_seed, *labels))


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Seed sequence that hands PCG64 its four precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The multipliers SeedSequence's n successive hash calls step through."""
    return np.array([init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in range(n)],
                    dtype=np.uint32)


def streams(root_seed: int, label_rows) -> _Generators:
    """``stream(root_seed, *labels)`` for each row of ``label_rows``, in order.

    The state words of every row are computed up front, each distinct label
    text is hashed once, and each Generator is built as iteration reaches it.
    """
    root = np.random.SeedSequence(int(root_seed))   # rejects a negative seed
    label_rows = list(label_rows)
    lengths = np.array([len(labels) for labels in label_rows], dtype=int)
    width = int(lengths.max(initial=0))
    keys = np.zeros((len(label_rows), width), dtype=np.uint32)
    present = np.arange(width) < lengths[:, None]
    texts = [str(label) for label in itertools.chain.from_iterable(label_rows)]
    word = dict(zip(distinct := set(texts), _label_words(distinct)))
    keys[present] = [word[text] for text in texts]

    # Hashing the root's 32-bit words into the pool and mixing the pool took
    # 4 + 4 * 3 hash calls, and 4 more per root word past the pool's four;
    # each label word then takes one hash call per pool word.
    root_words = max(1, -(-root.entropy.bit_length() // 32))
    done = _POOL_SIZE * (_POOL_SIZE + max(0, root_words - _POOL_SIZE))
    a = _hash_constants(_INIT_A, _MULT_A, done + _POOL_SIZE * width + 1)
    hashed = keys[:, :, None] ^ a[done:-1].reshape(width, _POOL_SIZE)
    hashed *= a[done + 1:].reshape(width, _POOL_SIZE)
    hashed ^= hashed >> _XSHIFT
    pool = np.tile(root.pool, (len(label_rows), 1))
    for j in range(width):
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed[:, j]
        mixed ^= mixed >> _XSHIFT
        pool = np.where(present[:, j, None], mixed, pool)

    # generate_state(4, np.uint64): eight 32-bit words, cycling through the
    # pool, read as little-endian pairs.
    b = _hash_constants(_INIT_B, _MULT_B, 9)
    state = np.tile(pool, 2) ^ b[:-1]
    state *= b[1:]
    state ^= state >> _XSHIFT
    return _Generators(state.astype("<u4").view("<u8").astype(np.uint64))


class _Generators:
    """A Generator per row of PCG64 state words, built as iteration reaches it."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def __len__(self) -> int:
        return len(self.state)

    def __iter__(self):
        return (np.random.Generator(np.random.PCG64(_StateWords(row))) for row in self.state)
