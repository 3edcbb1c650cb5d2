"""Stateful streaming sessions over the fleet's persistent-membrane path.

A :class:`StreamingSession` is the client handle for a continuous event
stream: frames arrive in chunks, the network's LIF membranes persist
*between* chunks, and the time-averaged logits over everything seen so far
are available after every chunk.  Chunked execution is numerically
equivalent to one fixed-``T`` forward over the concatenated frames
(asserted to 1e-6 in ``tests/test_fleet.py``).

Affinity and fail-over: a session pins to one replica — chunks of one
stream are serialised against that replica's engine lock, and pinning keeps
a stream's compute on one core's warm caches.  The temporal state itself is
**replica-independent** (an explicit :class:`~repro.runtime.streaming.TemporalState`
value, and all replicas are copies of one snapshot), so when the
pinned replica dies the session transparently re-pins to a healthy sibling
and continues mid-stream — the membrane travels with the session, not the
replica.

Idle eviction: the fleet's maintenance loop closes sessions that have not
seen a chunk for ``idle_timeout_s``; subsequent sends raise the typed
:class:`~repro.fleet.errors.SessionClosed` so clients distinguish eviction
from transport failures.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Optional

import numpy as np

from repro.fleet.errors import ReplicaCrashed, SessionClosed
from repro.fleet.replica import Replica
from repro.obs.trace import get_tracer

__all__ = ["StreamingSession"]

_session_ids = itertools.count(1)


class StreamingSession:
    """One client's persistent-membrane stream, pinned to a fleet replica."""

    def __init__(self, model: str, replica: Replica,
                 pick_replica: Callable[[], Replica],
                 on_close: Optional[Callable[["StreamingSession"], None]] = None):
        self.session_id = f"{model}/s{next(_session_ids)}"
        self.model = model
        self._replica = replica
        self._pick_replica = pick_replica
        self._on_close = on_close
        self.state = replica.stream_state()
        self._logits_sum: Optional[np.ndarray] = None
        self._lock = threading.Lock()
        self.last_used = time.monotonic()
        self.closed = False
        self.close_reason: Optional[str] = None
        self.repins = 0

    # -- introspection ------------------------------------------------------------

    @property
    def replica_name(self) -> str:
        return self._replica.name

    @property
    def timesteps_seen(self) -> int:
        return self.state.timesteps_seen

    @property
    def logits(self) -> np.ndarray:
        """Time-averaged logits over every frame streamed so far."""
        if self._logits_sum is None:
            raise RuntimeError("no frames streamed yet; send a chunk first")
        return self._logits_sum / max(self.state.timesteps_seen, 1)

    def predict(self) -> int:
        """Class prediction from the running time-averaged logits."""
        return int(np.argmax(self.logits))

    # -- streaming ----------------------------------------------------------------

    def send_chunk(self, chunk: np.ndarray) -> np.ndarray:
        """Advance the stream by a ``(T, C, H, W)`` chunk of event frames.

        Returns the running time-averaged logits (``(num_classes,)``) after
        this chunk.  Raises :class:`SessionClosed` once the session was
        closed or evicted, and re-pins transparently when the pinned replica
        has died.
        """
        with self._lock:
            if self.closed:
                raise SessionClosed(
                    f"session {self.session_id} is closed"
                    + (f" ({self.close_reason})" if self.close_reason else ""))
            self.last_used = time.monotonic()
            with get_tracer().span("fleet.session.chunk",
                                   session=self.session_id,
                                   model=self.model) as sp:
                if not self._replica.alive:
                    self._repin(sp)
                sp.set_attr("replica", self._replica.name)
                try:
                    logits_sum, self.state = self._replica.infer_stream(
                        np.asarray(chunk), self.state)
                except ReplicaCrashed:
                    # The replica died under this very chunk: the carried
                    # state is untouched (run_chunk never reached capture),
                    # so one re-pin retry is exact, not approximate.
                    self._repin(sp)
                    logits_sum, self.state = self._replica.infer_stream(
                        np.asarray(chunk), self.state)
                if self._logits_sum is None:
                    self._logits_sum = np.array(logits_sum, copy=True)
                else:
                    self._logits_sum += logits_sum
            self.last_used = time.monotonic()
            return self._logits_sum / max(self.state.timesteps_seen, 1)

    def _repin(self, span) -> None:
        replica = self._pick_replica()
        if replica is None or not replica.alive:
            raise ReplicaCrashed("no alive replica to re-pin session to",
                                 replica=self._replica.name)
        self._replica = replica
        self.repins += 1
        if span is not None:
            span.add_event("session.repin", replica=replica.name)

    # -- lifecycle ----------------------------------------------------------------

    def close(self, reason: str = "client") -> None:
        """Idempotent close; ``reason`` shows up in later ``SessionClosed``s."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            self.close_reason = reason
        if self._on_close is not None:
            self._on_close(self)

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StreamingSession({self.session_id!r}, replica={self._replica.name!r}, "
                f"timesteps_seen={self.timesteps_seen}, closed={self.closed})")
