"""Counter-based random streams with positional access.

Every stream is keyed by (master_seed, n_agents, purpose) and consumes exactly
one 64-bit word per draw, so element i of a stream is well defined no matter
how the stream is chunked or which worker generates it.  Uniforms come from the
top 53 bits, normals through the inverse CDF, word by word (words_to_normals
converts any subset of the words); nothing uses a rejection sampler.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random import Philox, SeedSequence
from scipy.special import ndtri

# stream purposes
WORLD = 0      # latent state x, one draw per trial
TYPES = 1      # agent cost types, one draw per (trial, agent)
NOISE = 2      # observation noise, one draw per (trial, agent)
TIEBREAK = 3   # seeded-random winner tie-break, one draw per trial

_INV53 = 2.0 ** -53
_WORDS_PER_BLOCK = 4  # Philox-4x64: advance(1) moves the counter one block = 4 words


@functools.lru_cache(maxsize=1024)
def _key(key_parts: tuple) -> int:
    """A stream's Philox key, hashed from its SeedSequence once."""
    lo, hi = SeedSequence(key_parts).generate_state(2, np.uint64)
    return int(lo) | int(hi) << 64


def _bit_generator(master_seed: int, n_agents: int, purpose: int) -> Philox:
    return Philox(key=_key((int(master_seed), int(n_agents), int(purpose))))


def raw_words(master_seed: int, n_agents: int, purpose: int, count: int,
              offset: int = 0) -> np.ndarray:
    """`count` uint64 words of the keyed stream starting at word `offset`."""
    bg = _bit_generator(master_seed, n_agents, purpose)
    blocks, rem = divmod(int(offset), _WORDS_PER_BLOCK)
    if blocks:
        bg.advance(blocks)
    raw = bg.random_raw(rem + int(count))
    return raw[rem:]


def uniforms(master_seed: int, n_agents: int, purpose: int, count: int,
             offset: int = 0) -> np.ndarray:
    """Uniforms strictly inside (0, 1), one word per draw."""
    return _words_to_uniforms(raw_words(master_seed, n_agents, purpose, count,
                                        offset))


def normals(master_seed: int, n_agents: int, purpose: int, count: int,
            offset: int = 0) -> np.ndarray:
    """Standard normals via inverse CDF; same consumption as `uniforms`."""
    return words_to_normals(raw_words(master_seed, n_agents, purpose, count,
                                      offset))


def _words_to_uniforms(raw: np.ndarray) -> np.ndarray:
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * _INV53


def words_to_normals(raw: np.ndarray) -> np.ndarray:
    """`normals` of the given stream words, element by element."""
    return ndtri(_words_to_uniforms(raw))


def generator(*key_parts: int) -> np.random.Generator:
    """Seeded Generator for auxiliary randomness (oracle draws, multistart
    points).  Not positional; keyed by the argument tuple."""
    return np.random.Generator(Philox(SeedSequence(tuple(int(k) for k in key_parts))))
