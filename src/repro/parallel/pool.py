"""Process pool for data-parallel training.

The pool owns ``num_workers`` forked processes, two shared-memory buffers
(weights + per-worker gradient rows, :mod:`repro.parallel.shm`) and one
duplex pipe per worker.  Workers are *stateless replicas*: they never step
an optimizer — every command that touches the model starts by copying the
coordinator's weights out of shared memory, so the coordinator's parameter
state is always authoritative (which is what makes checkpoint/resume and
elastic worker counts trivial).

Command set (coordinator → worker):

* ``step`` — run forward+backward on the micro-shards shipped with the
  command, write the scaled float64 gradient into this worker's shared row.
  The coordinator loads every batch (explicit or epoch), so workers hold
  no data.
* ``stats`` / ``ping`` / ``shutdown`` — bookkeeping.

Failure model: a worker that raises mid-command reports the traceback and
keeps serving (the *coordinator* decides to shut the pool down — see
:class:`WorkerCrashError`); a worker that dies outright is detected by the
pipe poll loop.  Either way :meth:`WorkerPool.close` terminates every
process and unlinks both shared-memory segments, so no orphaned segments
survive a crash (asserted in ``tests/test_parallel.py``).

A worker that *hangs* — alive but not answering — is the one failure a
teardown cannot diagnose, so the reply deadline doubles as a watchdog:
:meth:`WorkerPool.recv` raises a recoverable
:class:`~repro.resilience.errors.WorkerHungError` when the process is still
alive at the deadline, and the supervisor
(:class:`~repro.parallel.trainer.DataParallelTrainer`) kills and respawns
just that rank via :meth:`WorkerPool.restart_worker`, resynchronises the
survivors (:meth:`WorkerPool.resync`), and retries the step from the synced
weights.  Hangs (and crashes) are injectable deterministically through the
``worker.hang`` / ``worker.crash`` fault sites in the worker command loop
(:mod:`repro.resilience.faults`).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.shm import ParamBlock, SharedArray, tree_reduce_rows
from repro.resilience import faults
from repro.resilience.errors import WorkerHungError

__all__ = ["WorkerPool", "WorkerCrashError", "WorkerHungError"]

#: default seconds the coordinator waits for one worker reply before
#: declaring the pool wedged (shards are laptop-scale; minutes means hung)
DEFAULT_TIMEOUT_S = 120.0


class WorkerCrashError(RuntimeError):
    """A worker raised (or died) mid-command; the pool has been shut down.

    ``rank`` identifies the worker and ``remote_traceback`` carries the
    worker-side traceback text when the worker managed to report one
    (``None`` when the process died without a message).
    """

    def __init__(self, rank: int, message: str,
                 remote_traceback: Optional[str] = None):
        detail = f"worker {rank}: {message}"
        if remote_traceback:
            detail += f"\n--- worker traceback ---\n{remote_traceback}"
        super().__init__(detail)
        self.rank = rank
        self.remote_traceback = remote_traceback


def _worker_main(rank: int, conn, spec: Dict[str, object]) -> None:
    """Entry point of one worker process (see module docstring for commands)."""
    # Workers report timings over the pipe; the coordinator synthesises
    # `train.worker` spans from them.  A forked tracer would otherwise emit
    # detached duplicate trees through inherited exporters.
    from repro.obs.trace import get_tracer

    get_tracer().enabled = False

    # Rebuild the fault injector from the pickled plan rather than inheriting
    # the coordinator's (fork-copied) injector state: a fresh injector starts
    # its visit counters at zero, so worker-side fault schedules are
    # deterministic regardless of how many faults the coordinator already
    # fired before the fork.
    plan = spec.get("fault_plan")
    injector = faults.install(plan) if plan is not None else None

    weights = SharedArray.attach(spec["weights_name"], (spec["total"],))
    grads = SharedArray.attach(spec["grads_name"],
                               (spec["num_workers"], spec["total"]))
    model = spec["model"]
    block: ParamBlock = spec["block"]
    params = [p for p in model.parameters() if p.requires_grad]
    engine = _WorkerEngine(model, spec)
    row = grads.array[rank]

    def sync_weights() -> None:
        block.read_params(weights.array, params)

    def run_shards(shards, total_n: int) -> Dict[str, float]:
        """Forward+backward every micro-shard; write the scaled grad row."""
        t_start = time.perf_counter()
        sync_weights()
        row[:] = 0.0
        loss_scaled = 0.0
        correct = 0
        n_local = 0
        replayed = True
        for data, labels in shards:
            n_k = int(np.asarray(labels).shape[0])
            if n_k == 0:
                continue
            loss, shard_correct, shard_replayed = engine.forward_backward(data, labels)
            scale = n_k / total_n
            block.accumulate_grads(row, params, scale)
            loss_scaled += loss * scale
            correct += shard_correct
            n_local += n_k
            replayed = replayed and shard_replayed
        t_end = time.perf_counter()
        return {"loss_scaled": loss_scaled, "correct": correct, "n": n_local,
                "replayed": replayed and n_local > 0,
                "t_start": t_start, "t_end": t_end}

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # coordinator went away
            break
        cmd = msg.get("cmd")
        if cmd == "shutdown":
            conn.send({"status": "ok"})
            break
        if injector is not None and cmd == "step":
            # Injected crash: die without a word, exactly like a segfault or
            # an OOM kill — the coordinator's liveness poll must catch it.
            action = injector.maybe("worker.crash", rank=rank)
            if action is not None:
                os._exit(int(action.get("exitcode", 17)))
            # Injected hang: stop answering while staying alive — only the
            # reply-deadline watchdog can catch this one.
            action = injector.maybe("worker.hang", rank=rank)
            if action is not None:
                time.sleep(float(action.get("seconds", 3600.0)))
        try:
            if cmd == "step":
                payload = run_shards(msg["shards"], int(msg["total_n"]))
            elif cmd == "stats":
                payload = {"runtime": engine.runtime_stats()}
            elif cmd == "ping":
                payload = {"pong": rank}
            else:
                raise ValueError(f"unknown worker command {cmd!r}")
        except BaseException as exc:  # noqa: BLE001 - report, let coordinator decide
            try:
                conn.send({"status": "error", "error": repr(exc),
                           "traceback": traceback.format_exc()})
            except (OSError, ValueError):
                break
            continue
        payload["status"] = "ok"
        conn.send(payload)

    weights.close()
    grads.close()
    conn.close()


class _WorkerEngine:
    """Per-worker forward/backward engine mirroring ``BPTTTrainer.train_step``.

    Owns (a forked replica of) the model plus an optional compiled
    :class:`~repro.runtime.replay.CompiledTrainStep`; never steps an
    optimizer — gradients are the product, parameter updates arrive through
    the shared weights buffer.
    """

    def __init__(self, model, spec: Dict[str, object]):
        self.model = model
        self.loss_fn = spec["loss_fn"]
        self.augment = spec.get("augment")
        self.timesteps = int(spec["timesteps"])
        self.step_mode = spec.get("step_mode")
        self._params = [p for p in model.parameters() if p.requires_grad]
        self._compiled = None
        if spec.get("compile"):
            from repro.runtime.replay import CompiledTrainStep

            self._compiled = CompiledTrainStep(
                model, self.loss_fn, step_mode=self.step_mode,
                optimize=spec.get("optimize", "O1"))

    def forward_backward(self, data, labels) -> Tuple[float, int, bool]:
        """One micro-shard step; returns ``(mean loss, correct, replayed)``."""
        from repro.snn.encoding import prepare_batch

        batch = prepare_batch(data, self.timesteps, self.augment)
        labels = np.asarray(labels)
        for param in self._params:
            param.zero_grad(set_to_none=True)
        if self._compiled is not None:
            loss, logits_per_step, replayed = self._compiled.run(batch, labels)
            mean_logits = sum(logits_per_step) / len(logits_per_step)
        else:
            outputs = self.model.run_batch(batch, step_mode=self.step_mode)
            loss_t = self.loss_fn(outputs, labels)
            loss_t.backward()
            loss = float(loss_t.data)
            mean_logits = sum(o.data for o in outputs) / len(outputs)
            replayed = False
        correct = int((np.argmax(mean_logits, axis=1) == labels).sum())
        return float(loss), correct, bool(replayed)

    def runtime_stats(self) -> Optional[Dict[str, object]]:
        return self._compiled.runtime_stats() if self._compiled is not None else None


class WorkerPool:
    """Spawn and coordinate ``num_workers`` model-replica processes.

    Parameters mirror :class:`~repro.training.trainer.BPTTTrainer` where
    they overlap; :class:`~repro.parallel.trainer.DataParallelTrainer`
    drives it.  Workers are forked, so the model is inherited copy-on-write
    and never pickled; batch data arrives with each ``step`` command.
    """

    def __init__(
        self,
        model,
        num_workers: int,
        *,
        loss_fn=None,
        timesteps: Optional[int] = None,
        step_mode: Optional[str] = None,
        augment=None,
        compile: bool = False,
        optimize: str = "O1",
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        # Raises ValueError up front where the platform cannot fork.
        self._ctx = multiprocessing.get_context("fork")
        from repro.snn.loss import mean_output_cross_entropy

        self.model = model
        self.num_workers = num_workers
        self._params = [p for p in model.parameters() if p.requires_grad]
        self.block = ParamBlock(
            (n, p) for n, p in model.named_parameters() if p.requires_grad)
        self.weights = SharedArray.create("dp-weights", (self.block.total,))
        self.grads = SharedArray.create("dp-grads",
                                        (num_workers, self.block.total))
        self._closed = False
        self.busy_seconds = [0.0] * num_workers
        self.started_at = time.perf_counter()

        spec: Dict[str, object] = {
            "model": model,
            "block": self.block,
            "total": self.block.total,
            "num_workers": num_workers,
            "weights_name": self.weights.name,
            "grads_name": self.grads.name,
            "loss_fn": loss_fn or mean_output_cross_entropy,
            "timesteps": timesteps if timesteps is not None
                         else getattr(model, "timesteps", 1),
            "step_mode": step_mode,
            "augment": augment,
            "compile": compile,
            "optimize": optimize,
            # Workers rebuild a fresh injector from the plan (see
            # ``_worker_main``); ``None`` keeps the zero-cost no-op path.
            "fault_plan": faults.active_plan(),
        }
        self.worker_restarts = 0

        # Kept for the watchdog: ``restart_worker`` respawns a single rank
        # from the same spec without rebuilding the pool.
        self._spec = spec
        self._conns = []
        self._procs = []
        try:
            for rank in range(num_workers):
                self._conns.append(None)
                self._procs.append(None)
                self._spawn(rank, spec)
        except BaseException:
            self.close()
            raise

    def _spawn(self, rank: int, spec: Dict[str, object]) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_worker_main, name=f"repro-dp-{rank}",
                                 args=(rank, child_conn, spec), daemon=True)
        proc.start()
        child_conn.close()
        self._conns[rank] = parent_conn
        self._procs[rank] = proc

    # -- messaging ----------------------------------------------------------------

    def send(self, rank: int, msg: Dict[str, object]) -> None:
        try:
            self._conns[rank].send(msg)
        except (OSError, ValueError) as exc:
            self._crash(rank, f"pipe send failed ({exc!r})")

    def broadcast(self, msg: Dict[str, object],
                  per_rank: Optional[Callable[[int], Dict[str, object]]] = None) -> None:
        for rank in range(self.num_workers):
            self.send(rank, dict(msg, **(per_rank(rank) if per_rank else {})))

    def recv(self, rank: int, timeout: float = DEFAULT_TIMEOUT_S) -> Dict[str, object]:
        """Wait for one reply from ``rank``; crash the pool on error/death.

        A *hung* worker — deadline reached while the process is still alive
        — raises :class:`WorkerHungError` **without** tearing the pool down:
        that failure is recoverable by :meth:`restart_worker` + a retry,
        which the driving trainer owns.
        """
        conn, proc = self._conns[rank], self._procs[rank]
        deadline = time.monotonic() + timeout
        while True:
            try:
                if conn.poll(0.05):
                    reply = conn.recv()
                    break
            except (EOFError, OSError):
                self._crash(rank, "worker process died mid-command")
            if not proc.is_alive():
                # Drain any final message the worker flushed before dying.
                try:
                    if conn.poll(0):
                        reply = conn.recv()
                        break
                except (EOFError, OSError):
                    pass
                self._crash(rank, f"worker process exited (code {proc.exitcode})")
            if time.monotonic() > deadline:
                raise WorkerHungError(rank, timeout)
        if reply.get("status") == "error":
            self._crash(rank, reply.get("error", "unknown error"),
                        reply.get("traceback"))
        if "t_start" in reply:
            self.busy_seconds[rank] += reply["t_end"] - reply["t_start"]
        return reply

    def gather(self, timeout: float = DEFAULT_TIMEOUT_S) -> List[Dict[str, object]]:
        """Collect one reply per worker, in rank order."""
        return [self.recv(rank, timeout=timeout) for rank in range(self.num_workers)]

    # -- all-reduce ---------------------------------------------------------------

    def sync_weights(self) -> None:
        """Serialise the coordinator's parameters into the shared weights buffer."""
        self.block.write_params(self.weights.array, self._params)

    def reduce_gradients(self) -> np.ndarray:
        """Tree-reduce every worker's scaled gradient row; returns the flat sum."""
        return tree_reduce_rows(self.grads.array, self.num_workers)

    def assign_reduced_gradients(self) -> None:
        """Reduce and deposit the result on the coordinator's ``param.grad``."""
        self.block.assign_grads(self.reduce_gradients(), self._params)

    # -- watchdog recovery --------------------------------------------------------

    def restart_worker(self, rank: int, timeout: float = 5.0) -> None:
        """Kill and respawn one hung rank; the rest of the pool is untouched.

        The respawned incarnation runs *clean* (no fault plan): the seeded
        fault schedule belongs to the original worker processes, which is
        what makes "inject one hang, recover, finish the run" replay
        identically — a fresh injector in the replacement would re-fire the
        same visit-indexed faults forever.
        """
        proc, conn = self._procs[rank], self._conns[rank]
        proc.terminate()
        proc.join(timeout=timeout)
        if proc.is_alive():  # pragma: no cover - stuck in uninterruptible IO
            proc.kill()
            proc.join(timeout=timeout)
        try:
            conn.close()
        except OSError:
            pass
        self._spawn(rank, dict(self._spec, fault_plan=None))
        self.worker_restarts += 1
        from repro.obs import metrics as _metrics

        _metrics.counter(
            "repro_pool_worker_restarts_total",
            help="Hung pool workers killed and respawned by the watchdog.",
        ).inc()

    def resync(self, timeout: float = DEFAULT_TIMEOUT_S) -> None:
        """Barrier the pool after an aborted step: discard stale replies.

        Workers that were *not* hung may still be computing (or have already
        answered) the aborted step.  A plain pipe drain would race their
        in-flight compute, so the barrier is a ping handshake: every rank is
        pinged and replies are consumed until the pong arrives, which by
        pipe FIFO ordering proves every earlier reply has been discarded.
        """
        self.broadcast({"cmd": "ping"})
        for rank in range(self.num_workers):
            while True:
                reply = self.recv(rank, timeout=timeout)
                if reply.get("pong") == rank:
                    break

    # -- health / stats -----------------------------------------------------------

    def ping(self) -> List[int]:
        self.broadcast({"cmd": "ping"})
        return [reply["pong"] for reply in self.gather()]

    def worker_stats(self) -> List[Optional[Dict[str, object]]]:
        """Per-worker compiled-runtime stats (``None`` rows for eager workers)."""
        self.broadcast({"cmd": "stats"})
        return [reply["runtime"] for reply in self.gather()]

    def utilization(self) -> List[float]:
        """Busy-fraction per worker since the pool started (for the obs gauges)."""
        wall = max(time.perf_counter() - self.started_at, 1e-9)
        return [busy / wall for busy in self.busy_seconds]

    @property
    def segment_names(self) -> Tuple[str, str]:
        return (self.weights.name, self.grads.name)

    # -- lifecycle ----------------------------------------------------------------

    def _crash(self, rank: int, message: str,
               remote_traceback: Optional[str] = None) -> None:
        self.close(graceful=False)
        raise WorkerCrashError(rank, message, remote_traceback)

    def close(self, graceful: bool = True, timeout: float = 5.0) -> None:
        """Stop every worker and unlink both shared-memory segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        conns = [conn for conn in self._conns if conn is not None]
        procs = [proc for proc in self._procs if proc is not None]
        if graceful:
            for conn in conns:
                try:
                    conn.send({"cmd": "shutdown"})
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + timeout
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        self.weights.unlink()
        self.grads.unlink()

    def kill(self) -> None:
        """Hard-stop (terminate without handshake) — the simulated-crash path."""
        self.close(graceful=False)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close(graceful=False, timeout=0.5)
        except Exception:  # noqa: BLE001
            pass
