"""Data-parallel training and parallel evaluation over a process pool.

The package splits into three layers:

* :mod:`repro.parallel.shm` — flat shared-memory parameter/gradient
  buffers and the deterministic tree reduction;
* :mod:`repro.parallel.pool` — the forked worker processes and their
  command protocol;
* :mod:`repro.parallel.trainer` — :class:`DataParallelTrainer`, the
  :class:`~repro.training.trainer.BPTTTrainer` whose gradients come from
  the pool.
"""

from repro.parallel.pool import WorkerCrashError, WorkerPool
from repro.parallel.shm import ParamBlock, SharedArray, tree_reduce_rows
from repro.parallel.trainer import DataParallelTrainer, split_batch

__all__ = [
    "DataParallelTrainer",
    "ParamBlock",
    "SharedArray",
    "WorkerCrashError",
    "WorkerPool",
    "split_batch",
    "tree_reduce_rows",
]
