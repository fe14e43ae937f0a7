"""Counter-based random streams with per-trial substreams.

Streams are built on Philox keyed directly by ``(master_seed, index)``,
so the substream for trial ``t`` is a pure function of the master seed
and ``t``: trial results do not depend on scheduling, worker count, or
the order in which substreams are consumed.

A stream instance is single-owner: share seeds, never stream objects.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

_MASK64 = (1 << 64) - 1


def _philox(seed: int, index: int) -> np.random.Philox:
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Philox(key=key)


class RandomStream:
    """Seeded deterministic uniform source with derivable substreams."""

    def __init__(self, seed: int, index: int = 0):
        if not isinstance(seed, int) or not isinstance(index, int):
            raise InputError("seed and index must be integers")
        if index < 0:
            raise InputError("substream index must be nonnegative")
        self.seed = seed
        self.index = index
        self._gen = np.random.Generator(_philox(seed, index))

    def substream(self, index: int) -> "RandomStream":
        """Independent stream for trial ``index``, derived from the master seed."""
        return RandomStream(self.seed, index)

    def uniform(self, count: int) -> np.ndarray:
        """Next ``count`` uniforms in [0, 1); advances the stream."""
        if count < 1:
            raise InputError("count must be >= 1")
        return self._gen.random(count)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, index={self.index})"


class SubstreamSampler:
    """Bulk substream iterator, bit-compatible with RandomStream.

    ``uniforms(t, n)`` returns exactly the array
    ``RandomStream(seed).substream(t).uniform(n)`` would, but reuses one
    Philox instance by writing its state. Constructing a fresh bit
    generator per trial costs ~25us. Reading ``.state`` builds a new dict
    of arrays and cost ~11.5us per trial with the write, so the dict of
    a fresh generator (counter zero, output buffer empty) is read once,
    here. Nothing writes those fields back into it, so a trial only sets
    ``key[1]`` to its index and assigns the dict: ~3us.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._bg = _philox(seed, 0)
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state
        self._key = self._state["state"]["key"]

    def uniforms(self, trial_index: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Trial ``trial_index``'s first ``count`` uniforms, written into ``out`` if given."""
        self._key[1] = trial_index & _MASK64
        self._bg.state = self._state
        if out is None:
            return self._gen.random(count)
        if len(out) != count:
            raise InputError("out must hold exactly count uniforms")
        return self._gen.random(out=out)  # passing size too costs ~1us more
