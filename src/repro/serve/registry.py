"""Named, versioned registry of serving engines with atomic hot-swap.

A production deployment serves several trained variants side by side — the
dense baseline next to STT / PTT / HTT models, or v2 of a model shadowing
v1.  The registry maps ``name -> {version -> InferenceEngine}`` plus a
"latest" pointer per name.  Publishing is *atomic*: a new engine is fully
built and warmed up **before** the pointer moves, so concurrent ``get()``
callers always observe either the complete old engine or the complete new
one, never a half-loaded model.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.models.base import SpikingModel
from repro.obs.trace import get_tracer
from repro.serve.engine import InferenceEngine

__all__ = ["ModelRegistry"]

Version = Union[int, str]


class ModelRegistry:
    """Thread-safe name/version store of :class:`InferenceEngine` snapshots."""

    def __init__(self):
        self._lock = threading.RLock()
        self._engines: Dict[str, Dict[Version, InferenceEngine]] = {}
        self._latest: Dict[str, Version] = {}

    # -- publishing ---------------------------------------------------------------

    @staticmethod
    def _as_engine(model: Union[SpikingModel, InferenceEngine], **engine_kwargs) -> InferenceEngine:
        if isinstance(model, InferenceEngine):
            return model
        return InferenceEngine(model, **engine_kwargs)

    def _publish(self, name: str, version: Optional[Version], engine: InferenceEngine,
                 make_latest: bool, require_existing: bool) -> None:
        """Insert a fully-built engine under the lock (the atomic step).

        All existence/version checks happen here, at insert time, so
        concurrent register / swap / unregister calls cannot interleave
        between a check and the insertion.
        """
        with self._lock:
            if require_existing and name not in self._engines:
                raise KeyError(f"cannot swap unknown model '{name}'; register() it first")
            versions = self._engines.setdefault(name, {})
            if version is None:
                numbered = [v for v in versions if isinstance(v, int)]
                version = (max(numbered) + 1) if numbered else 1
            if version in versions:
                raise ValueError(f"model '{name}' already has a version {version!r}; "
                                 "use swap() or pick a new version")
            versions[version] = engine
            if make_latest or name not in self._latest:
                self._latest[name] = version

    def register(
        self,
        name: str,
        model: Union[SpikingModel, InferenceEngine],
        version: Optional[Version] = None,
        warmup_sample: Optional[np.ndarray] = None,
        make_latest: bool = True,
        **engine_kwargs,
    ) -> InferenceEngine:
        """Publish a model (or prebuilt engine) under ``name``/``version``.

        A plain :class:`~repro.models.base.SpikingModel` is snapshotted into
        an :class:`InferenceEngine` (TT cores kept, ``eval()`` forced);
        ``engine_kwargs`` forward to the engine constructor.  When
        ``warmup_sample`` is given the engine runs one throw-away inference
        *before* becoming visible, so the first real request never pays
        first-call costs.  ``version`` defaults to one past the highest
        integer version already registered (1 for a new name).

        Returns the published engine.
        """
        # Fail fast on an obviously-taken version before paying for the
        # snapshot + warm-up (the authoritative check re-runs in _publish).
        if version is not None:
            with self._lock:
                if version in self._engines.get(name, {}):
                    raise ValueError(f"model '{name}' already has a version {version!r}; "
                                     "use swap() or pick a new version")
        with get_tracer().span("serve.publish", model=name, action="register") as sp:
            engine = self._as_engine(model, **engine_kwargs)
            if warmup_sample is not None:
                sp.add_event("warmup")
                engine.warmup(sample=warmup_sample)
            self._publish(name, version, engine, make_latest=make_latest,
                          require_existing=False)
            sp.set_attr("version", str(self._latest.get(name)))
        return engine

    def swap(
        self,
        name: str,
        model: Union[SpikingModel, InferenceEngine],
        version: Optional[Version] = None,
        warmup_sample: Optional[np.ndarray] = None,
        **engine_kwargs,
    ) -> InferenceEngine:
        """Atomic hot-swap: publish a new version and move the latest pointer.

        The engine is built and warmed before the pointer moves; requests
        racing the swap get whichever complete engine the pointer named at
        lookup time.  Requires ``name`` to already be registered — checked
        atomically at publication, so a racing unregister makes the swap
        fail rather than silently re-create the name.
        """
        with self._lock:
            if name not in self._engines:
                raise KeyError(f"cannot swap unknown model '{name}'; register() it first")
        with get_tracer().span("serve.publish", model=name, action="swap") as sp:
            engine = self._as_engine(model, **engine_kwargs)
            if warmup_sample is not None:
                sp.add_event("warmup")
                engine.warmup(sample=warmup_sample)
            self._publish(name, version, engine, make_latest=True, require_existing=True)
            sp.set_attr("version", str(self._latest.get(name)))
        return engine

    def unregister(self, name: str, version: Optional[Version] = None) -> None:
        """Remove one version (or, with ``version=None``, the whole name).

        Removing the latest version repoints "latest" at the highest
        remaining integer version (or the most recently added one).
        """
        with self._lock:
            if name not in self._engines:
                raise KeyError(f"unknown model '{name}'")
            if version is None:
                del self._engines[name]
                self._latest.pop(name, None)
                return
            versions = self._engines[name]
            if version not in versions:
                raise KeyError(f"model '{name}' has no version {version!r}")
            del versions[version]
            if not versions:
                del self._engines[name]
                self._latest.pop(name, None)
            elif self._latest.get(name) == version:
                numbered = [v for v in versions if isinstance(v, int)]
                self._latest[name] = max(numbered) if numbered else next(reversed(versions))

    # -- lookup -------------------------------------------------------------------

    def get(self, name: str, version: Optional[Version] = None) -> InferenceEngine:
        """Fetch an engine; ``version=None`` follows the latest pointer."""
        with self._lock:
            if name not in self._engines:
                raise KeyError(f"unknown model '{name}' (registered: {sorted(self._engines)})")
            versions = self._engines[name]
            if version is None:
                version = self._latest[name]
            if version not in versions:
                raise KeyError(f"model '{name}' has no version {version!r} "
                               f"(available: {sorted(map(str, versions))})")
            return versions[version]

    def latest_version(self, name: str) -> Version:
        """The version the latest pointer currently names."""
        with self._lock:
            if name not in self._latest:
                raise KeyError(f"unknown model '{name}'")
            return self._latest[name]

    def models(self) -> List[str]:
        """Registered model names, sorted."""
        with self._lock:
            return sorted(self._engines)

    def versions(self, name: str) -> List[Version]:
        """Versions registered under ``name``, in registration order."""
        with self._lock:
            if name not in self._engines:
                raise KeyError(f"unknown model '{name}'")
            return list(self._engines[name])

    def describe(self) -> List[Tuple[str, Version, bool, int]]:
        """``(name, version, is_latest, merged_layers)`` rows for dashboards."""
        with self._lock:
            rows = []
            for name, versions in sorted(self._engines.items()):
                for version, engine in versions.items():
                    rows.append((name, version, self._latest.get(name) == version,
                                 engine.merged_layers))
            return rows

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._engines

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)
