"""Counter-addressed random streams (stream contract 2).

Trial ``t`` of namespace ``h`` at width ``n`` draws from Philox keyed by
``(seed, h)``: with ``w = 4*ceil(n/4)`` it owns the counter blocks
``[t*w/4, (t+1)*w/4)``, ``w`` doubles, and takes the first ``n``.  (Block
``b`` is Philox at counter ``b + 1``: numpy increments, then evaluates.)
So a row range ``[lo, hi)`` is one counter write and one
``Generator.random`` call, and each trial is a pure function of
``(seed, h, t, n)``, whatever the worker count, block size or draw order
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

STREAM_CONTRACT = 2  # recorded in reports; bumped whenever any trial's uniforms change
_WORD = 1 << 64


def _word(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < _WORD:
        raise InputError(f"{name} must be an integer in [0, 2^64), got {value!r}")
    return value


class SubstreamSampler:
    """Rows of trials under one ``(seed, namespace)`` key; single-owner.

    The state dict of the fresh generator (counter zero, buffer empty) is
    read once: reading ``.state`` builds a new dict.  A call writes
    ``counter[0]``, assigns the dict (~3us) and draws all its rows at once.
    """

    def __init__(self, seed: int, namespace: int = 0):
        key = np.array([_word(seed, "seed"), _word(namespace, "namespace")], dtype=np.uint64)
        self._bg = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state
        self._counter = self._state["state"]["counter"]

    def uniforms(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """The first ``count`` uniforms of trials ``start, start + 1, ...``.

        ``out`` is a C-contiguous ``(rows, count)`` block, one trial per
        row, or one 1-D row; without it, trial ``start``'s row is returned.
        """
        if count < 1:
            raise InputError("count must be >= 1")
        out = np.empty(count) if out is None else out
        if out.shape[-1] != count:
            raise InputError("out must hold exactly count uniforms per row")
        blocks = -(-count // 4)
        if start < 0 or (start + (len(out) if out.ndim == 2 else 1)) * blocks >= _WORD:
            raise InputError(f"trials from {start} at width {4 * blocks} overflow the counter")
        self._counter[0] = start * blocks
        self._bg.state = self._state
        if count % 4 == 0:
            return self._gen.random(out=out)  # passing size too costs ~1us more
        out[...] = self._gen.random(out.shape[:-1] + (4 * blocks,))[..., :count]
        return out


class RandomStream:
    """Trial ``index``'s stream: its row of ``SubstreamSampler(seed)``, at any width.

    A second draw would run into trial ``index + 1``'s counters, so it raises.
    """

    def __init__(self, seed: int, index: int = 0):
        self.seed = _word(seed, "seed")
        self.index = _word(index, "substream index")
        self._drawn = False

    def substream(self, index: int) -> "RandomStream":
        """Trial ``index``'s stream, derived from the master seed."""
        return RandomStream(self.seed, index)

    def uniform(self, count: int) -> np.ndarray:
        """This trial's first ``count`` uniforms in [0, 1); allowed once."""
        if self._drawn:
            raise InputError("a trial stream draws once; draw wider or take another substream")
        row = SubstreamSampler(self.seed).uniforms(self.index, count)
        self._drawn = True
        return row
