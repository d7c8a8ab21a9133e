"""Segment-length buffers that the value kernels write into in place.

A pass of the orbit engine gives each of its workers one :class:`Workspace`
for the length of the pass.  The kernels -- the cocycle values and lanes of
the engine, ``BaseFunctionSpec.periodic_q53``, ``Observable.on_support``
and ``eval_arrays``, and the Weyl and Davenport modes -- take it as an
optional argument and ask it for their intermediates by name, so a warm
pass allocates no segment-length array.  Without one (``FRESH``, the default) the same code writes into fresh
arrays, as the naive oracle and the scalar path do.
"""

from __future__ import annotations

import numpy as np


class Workspace:
    """Segment-length buffers of one worker, for one pass.

    ``take(name, shape)`` returns the first entries of the buffer ``name``,
    made ``size`` entries long -- one segment -- on first use and handed out
    again on every later call, so each segment writes its arrays in place.
    What a name holds stays valid until the next ``take`` of that name.
    ``t1`` and ``t2`` are scratch: a kernel may keep its intermediates
    there, but never its inputs or its result, which the next kernel would
    overwrite.  A buffer serves every dtype of its itemsize.  A shape that
    is not 1-d within ``size`` -- and every shape when ``size`` is 0, as in
    ``FRESH`` -- gets a fresh array instead.  ``offsets`` is the uint64
    ``arange(size)`` that the workspaces of one pass share and only read:
    the offsets of a chunk's steps, from which the kernels make their lanes
    with the chunk's first step folded into their constants.
    """

    def __init__(self, size: int = 0, offsets: np.ndarray | None = None):
        self.size = size
        self.offsets = offsets
        self._bufs = {}

    def take(self, name: str, shape: tuple, dtype=np.uint64) -> np.ndarray:
        dtype = np.dtype(dtype)
        if len(shape) != 1 or not 0 < shape[0] <= self.size:
            return np.empty(shape, dtype)
        buf = self._bufs.get(name)
        if buf is None or buf.itemsize != dtype.itemsize:
            buf = self._bufs[name] = np.empty(self.size, dtype)
        return buf[: shape[0]].view(dtype)


FRESH = Workspace()
