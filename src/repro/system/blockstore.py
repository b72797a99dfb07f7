"""Per-node in-memory block store.

Stands in for OpenEC's Redis-backed in-memory key-value store: named block
buffers plus simple usage accounting.  The store takes ownership of what it
is given: it keeps a read-only view of the caller's array, no copy, and
reads return that view.  Nothing writes a stored block in place; a change
(``Coordinator.update``) stores a new array over the old one (copy on write).
"""

from __future__ import annotations

import numpy as np


class BlockStore:
    """A node's key-value block storage."""

    def __init__(self, node_id: int, capacity_bytes: int | None = None):
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self._blocks: dict[str, np.ndarray] = {}
        #: running sum of stored buffer sizes, kept by put/delete/clear so
        #: provisioning a node is linear in its block count.
        self._used_bytes = 0

    def put(self, name: str, data: np.ndarray, overwrite: bool = False) -> None:
        if name in self._blocks and not overwrite:
            raise KeyError(f"block {name!r} already stored on node {self.node_id}")
        arr = np.asarray(data).view()
        arr.flags.writeable = False
        new_usage = self._used_bytes - self._nbytes(name) + arr.nbytes
        if self.capacity_bytes is not None and new_usage > self.capacity_bytes:
            raise MemoryError(
                f"node {self.node_id}: storing {name!r} would exceed capacity"
            )
        self._blocks[name] = arr
        self._used_bytes = new_usage

    def get(self, name: str) -> np.ndarray:
        if name not in self._blocks:
            raise KeyError(f"node {self.node_id} has no block {name!r}")
        return self._blocks[name]

    def has(self, name: str) -> bool:
        return name in self._blocks

    def delete(self, name: str) -> None:
        self._used_bytes -= self._nbytes(name)
        self._blocks.pop(name, None)

    def names(self) -> list[str]:
        return sorted(self._blocks)

    def clear(self) -> None:
        self._blocks.clear()
        self._used_bytes = 0

    def _nbytes(self, name: str) -> int:
        arr = self._blocks.get(name)
        return 0 if arr is None else arr.nbytes

    def used_bytes(self) -> int:
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._blocks)
