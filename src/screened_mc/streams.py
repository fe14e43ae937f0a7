"""Counter-addressed random streams (stream contract 3).

Trial ``t`` of namespace ``h`` at width ``n`` owns the outputs
``[t*n, (t+1)*n)`` of one PCG64 seeded by ``SeedSequence(seed,
spawn_key=(h,))``, reached with ``advance`` (O'Neill, "PCG: a family of
simple fast space-efficient statistically good algorithms for random
number generation", HMC-CS-2014-0905).  So a row range ``[lo, hi)`` is one
state reset, one ``advance`` and one ``Generator.random`` call, and each
trial is a pure function of ``(seed, h, t, n)``, whatever the worker
count, block size or draw order (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11).  Widths under one key overlap, so each width
takes its own namespace.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

STREAM_CONTRACT = 3  # recorded in reports; bumped whenever any trial's uniforms change
_WORD = 1 << 64


def _word(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < _WORD:
        raise InputError(f"{name} must be an integer in [0, 2^64), got {value!r}")
    return value


class SubstreamSampler:
    """Rows of trials under one ``(seed, namespace)`` key; single-owner.

    The namespace is the spawn key: ``SeedSequence([seed, namespace])``
    zero-pads 32-bit words, so (5, 1) and (2^32 + 5, 0) would share a stream.
    """

    def __init__(self, seed: int, namespace: int = 0):
        seq = np.random.SeedSequence(_word(seed, "seed"), spawn_key=(_word(namespace, "namespace"),))
        self._bg = np.random.PCG64(seq)
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state

    def uniforms(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """The ``count`` uniforms of trials ``start, start + 1, ...``.

        ``out`` is a C-contiguous ``(rows, count)`` block, one trial per
        row, or one 1-D row; without it, trial ``start``'s row is returned.
        """
        if count < 1:
            raise InputError("count must be >= 1")
        out = np.empty(count) if out is None else out
        if out.shape[-1] != count:
            raise InputError("out must hold exactly count uniforms per row")
        if start < 0 or (start + (len(out) if out.ndim == 2 else 1)) * count > 1 << 128:
            raise InputError(f"trials from {start} at width {count} run past the 2^128 period")
        self._bg.state = self._state
        self._bg.advance(start * count)
        return self._gen.random(out=out)  # passing size too costs ~1us more


class RandomStream:
    """Trial ``index``'s stream: its row of ``SubstreamSampler(seed)``, at any width.

    A second draw would run into trial ``index + 1``'s outputs, so it raises.
    """

    def __init__(self, seed: int, index: int = 0):
        self.seed = _word(seed, "seed")
        self.index = _word(index, "substream index")
        self._drawn = False

    def substream(self, index: int) -> "RandomStream":
        """Trial ``index``'s stream, derived from the master seed."""
        return RandomStream(self.seed, index)

    def uniform(self, count: int) -> np.ndarray:
        """This trial's ``count`` uniforms in [0, 1); allowed once."""
        if self._drawn:
            raise InputError("a trial stream draws once; draw wider or take another substream")
        row = SubstreamSampler(self.seed).uniforms(self.index, count)
        self._drawn = True
        return row
