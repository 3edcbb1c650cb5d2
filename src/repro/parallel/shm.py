"""Shared-memory primitives for data-parallel training.

Two flat buffers connect the coordinator and its worker processes:

* a **weights buffer** — one float64 slot per trainable parameter scalar,
  followed by one per buffer scalar (BN running statistics).  The
  coordinator (which owns the optimizer) serialises every parameter and
  buffer into it before each step; workers copy it back into their model
  replicas at the start of every step, so the broadcast half of the
  all-reduce is a single shared-memory memcpy per worker.
* a **gradient matrix** — ``num_workers`` rows of the same flat layout,
  always float64 (the "pinned accumulator" precision regardless of the
  training dtype).  Every worker writes its shard's scaled gradient into
  its own row; the coordinator tree-reduces the rows in place
  (:func:`tree_reduce_rows`) and hands row 0 to the optimizer.

Segments are created by the coordinator and attached by workers.  Workers
explicitly unregister their attachment from ``multiprocessing``'s
``resource_tracker`` so exactly one process — the coordinator — owns
unlinking; without this, every worker's tracker would try to clean the
segment up again at exit (the well-known spurious "leaked shared_memory"
warnings) and a dying worker could unlink a segment its siblings still
use.  :meth:`SharedArray.unlink` is idempotent, so crash paths can call it
unconditionally.
"""

from __future__ import annotations

import atexit
import os
import secrets
import weakref
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["ParamBlock", "SharedArray", "tree_reduce_rows", "segment_name"]


def segment_name(tag: str) -> str:
    """A collision-proof shared-memory segment name (``repro-<tag>-<pid>-<hex>``)."""
    return f"repro-{tag}-{os.getpid()}-{secrets.token_hex(4)}"


#: Owned (created-here) segments that have not been unlinked yet.  The atexit
#: guard below unlinks whatever is left, so a coordinator that dies without
#: reaching ``WorkerPool.close()`` — an unhandled exception, ``sys.exit`` from
#: a signal handler — cannot leak ``/dev/shm`` segments.  A WeakSet so a
#: garbage-collected array (whose ``__del__`` already unlinked) drops out.
_LIVE_OWNED: "weakref.WeakSet[SharedArray]" = weakref.WeakSet()
_GUARD_PID = os.getpid()


@atexit.register
def _unlink_leftover_segments() -> None:  # pragma: no cover - exit path
    # ``fork`` children inherit the registry; only the creating process may
    # unlink, or a dying worker would destroy segments its siblings still use.
    if os.getpid() != _GUARD_PID:
        return
    for seg in list(_LIVE_OWNED):
        try:
            seg.unlink()
        except Exception:  # noqa: BLE001 - best effort at interpreter exit
            pass


class ParamBlock:
    """Flat float64 layout of named tensors: a model's trainable parameters,
    or its buffers (BN running statistics; the block may then be empty).

    The block is computed once from ``named_parameters()`` /
    ``named_buffers()`` order (which is deterministic, depth-first) and
    shared verbatim between coordinator and workers — both sides fork from
    the same model object, so offsets always agree.  All reads/writes cast
    through float64; float32 values survive the round trip exactly.
    """

    def __init__(self, named_params: Iterable[Tuple[str, object]]):
        self.names: List[str] = []
        self.shapes: List[tuple] = []
        self.dtypes: List[np.dtype] = []
        self.offsets: List[int] = []
        total = 0
        for name, param in named_params:
            self.names.append(name)
            self.shapes.append(tuple(param.data.shape))
            self.dtypes.append(np.dtype(param.data.dtype))
            self.offsets.append(total)
            total += int(param.data.size)
        self.total = total

    def __len__(self) -> int:
        return len(self.names)

    def write_params(self, flat: np.ndarray, params: Sequence) -> None:
        """Serialise every parameter's ``.data`` into ``flat`` (float64)."""
        for offset, shape, param in zip(self.offsets, self.shapes, params):
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            flat[offset:offset + size] = param.data.ravel()

    def read_params(self, flat: np.ndarray, params: Sequence) -> None:
        """Copy ``flat`` back into every parameter's ``.data`` **in place**.

        In-place (``data[...] = ...``) so compiled plans that captured the
        parameter buffers keep reading the refreshed values.
        """
        for offset, shape, dtype, param in zip(self.offsets, self.shapes,
                                               self.dtypes, params):
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            param.data[...] = flat[offset:offset + size].reshape(shape).astype(
                dtype, copy=False)

    def accumulate_grads(self, row: np.ndarray, params: Sequence,
                         scale: float) -> None:
        """Add ``scale *`` every parameter's ``.grad`` into ``row`` (float64).

        Parameters whose gradient is ``None`` (e.g. frozen layers, or an
        empty shard that never ran backward) contribute nothing.
        """
        for offset, shape, param in zip(self.offsets, self.shapes, params):
            if param.grad is None:
                continue
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            row[offset:offset + size] += param.grad.ravel().astype(np.float64) * scale

    def assign_grads(self, row: np.ndarray, params: Sequence) -> None:
        """Set every parameter's ``.grad`` from the reduced ``row`` (fresh copies)."""
        for offset, shape, dtype, param in zip(self.offsets, self.shapes,
                                               self.dtypes, params):
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            param.grad = row[offset:offset + size].reshape(shape).astype(dtype)

    def describe(self) -> Dict[str, object]:
        return {"parameters": len(self.names), "scalars": self.total}


class SharedArray:
    """A named ``multiprocessing.shared_memory`` segment viewed as one ndarray."""

    def __init__(self, name: str, shape: tuple, dtype, create: bool):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        nbytes = int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize
        self._owner = bool(create)
        if create:
            self._shm = shared_memory.SharedMemory(name=name, create=True,
                                                   size=max(nbytes, 1))
        else:
            # Attach WITHOUT registering with the resource tracker: the
            # coordinator owns cleanup (see the module docstring).  Under
            # ``fork`` the workers share the coordinator's tracker process,
            # so unregistering after the fact would strip the coordinator's
            # own registration and its ``unlink`` would then hit the
            # tracker's cache as an unknown name.  Suppressing the
            # registration instead leaves exactly one owner either way.
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            try:
                resource_tracker.register = lambda *a, **k: None
                self._shm = shared_memory.SharedMemory(name=name, create=False)
            finally:
                resource_tracker.register = original_register
        self.array = np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)
        self._closed = False
        if self._owner:
            _LIVE_OWNED.add(self)

    @classmethod
    def create(cls, tag: str, shape: tuple, dtype=np.float64) -> "SharedArray":
        return cls(segment_name(tag), shape, dtype, create=True)

    @classmethod
    def attach(cls, name: str, shape: tuple, dtype=np.float64) -> "SharedArray":
        return cls(name, shape, dtype, create=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Detach this process's mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.array = None
        try:
            self._shm.close()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent, crash-path safe)."""
        self.close()
        if not self._owner:
            return
        _LIVE_OWNED.discard(self)
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.unlink() if self._owner else self.close()
        except Exception:  # noqa: BLE001
            pass


def tree_reduce_rows(matrix: np.ndarray, count: int) -> np.ndarray:
    """Sum rows ``[0, count)`` into row 0 with a fixed binary-tree association.

    Round ``r`` adds row ``i + 2**r`` into row ``i`` for every ``i`` that is a
    multiple of ``2**(r+1)`` — the textbook reduction tree.  The pairing
    depends only on ``count``, so the floating-point association (and hence
    the reduced bits) is deterministic for a given worker count, which is
    what makes checkpoint/resume reproduce a run's loss curve exactly.
    Returns row 0 (a view into ``matrix``).
    """
    stride = 1
    while stride < count:
        for i in range(0, count - stride, 2 * stride):
            matrix[i] += matrix[i + stride]
        stride *= 2
    return matrix[0]
