"""Named float64 slabs that the neural kernels reuse from batch to batch.

A fresh multi-megabyte array per batch costs more in page faults than in
arithmetic: the allocator hands it out as new pages (or trims them back
after the batch), and the first touch of each page faults. A Workspace
keeps one slab per role instead. `get(name, shape)` returns a
C-contiguous view of the first prod(shape) entries of slab `name`,
growing the slab (never shrinking it) when the shape needs more. The
kernels write into these views with `out=` and the same ufuncs in the
same order as into fresh arrays, so every result keeps its bits.

Each slab is its own anonymous memory map, twice the size first asked
for. Only the pages a batch touches count toward resident memory, and a
dropped slab returns its pages at once rather than leaving a hole in the
heap that later slabs may not fit.

Lifetime: a view stays valid until the next request for the same name,
and every call of a kernel requests the same names. So a forward cache,
and the gradients and input gradient a backward pass returns, are valid
only until the next call on the same workspace. `evaluate` deals its
folds into one share per usable CPU, each run by its own process, and
makes one workspace per share: the training, dev scoring and test
prediction of every fold in the share run on it in turn, and each batch
is consumed before the next begins. `predict` deals its batches into
one share per usable CPU the same way, and each share makes its own
workspace after the fork. Slabs are shared maps, so a slab made before
a fork would be written by both processes; no workspace passes from
one process to another. Outside `evaluate`, a `train` call makes its
own.
Since slabs pass from one call to the next, no kernel reads an entry
of a slab before it writes it.
"""

from __future__ import annotations

import math
import mmap

import numpy as np


class Workspace:
    """Grow-only float64 slabs, looked up by role name."""

    def __init__(self):
        self._slabs: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A view of the given shape into slab `name`; its values are stale."""
        size = math.prod(shape)
        slab = self._slabs.get(name)
        if slab is None or slab.size < size:
            capacity = 2 * max(size, 1)
            slab = np.frombuffer(mmap.mmap(-1, capacity * 8), np.float64)
            self._slabs[name] = slab
        return slab[:size].reshape(shape)

    def zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Like get, with every entry set to 0.0."""
        out = self.get(name, shape)
        out.fill(0.0)
        return out

    def copy(self, name: str, array: np.ndarray) -> np.ndarray:
        """A C-contiguous copy of array in slab `name`."""
        out = self.get(name, array.shape)
        out[...] = array
        return out
