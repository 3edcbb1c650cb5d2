"""Optional ``@njit`` backend over the flat-loop code generator.

Takes the sources emitted by :mod:`repro.runtime.backends.codegen`
(single scalar loop per kernel, zero intermediate arrays), compiles them
with ``numba.njit`` and marshals plan buffers as raveled views so replays
stay allocation-free.  JIT compilation is triggered by the plan-time
verification call, so the specialization cost is paid once per plan, not on
the replay path; compiled functions are cached in-process keyed by emitted
source, so re-captures of the same node shape reuse the machine code.

Gracefully absent: when numba is not installed
:func:`~repro.runtime.backends.resolve_backend` returns the reference
backend for ``"numba"`` and ``"auto"``.  The numba mode only specializes
uniform-shape chains (every step produces the output shape, externals
same-shape or scalar) — broadcast chains are declined per node and replay
on NumPy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.backends.base import Backend, NativeKernel
from repro.runtime.backends.codegen import (
    chain_program,
    compile_python,
    emit_chain_numba,
    emit_lif_numba,
    lif_config,
    verify_kernel,
)

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except Exception:  # pragma: no cover - the container default
    _njit = None
    NUMBA_AVAILABLE = False

__all__ = ["NumbaBackend", "NUMBA_AVAILABLE"]

#: emitted source -> {function name: jitted function}; numba compilation is
#: expensive, and identical node shapes across plans emit identical source.
_JIT_CACHE: Dict[Tuple[str, Tuple[str, ...]], Dict[str, object]] = {}


def _jit(source: str, names: Tuple[str, ...]) -> Dict[str, object]:
    key = (source, names)
    funcs = _JIT_CACHE.get(key)
    if funcs is None:
        env = compile_python(source)
        funcs = {name: _njit(cache=False)(env[name]) for name in names}
        _JIT_CACHE[key] = funcs
    return funcs


def _flat(array: np.ndarray, dtype) -> np.ndarray:
    """Raveled contiguous view (no copy on the steady-state replay path)."""
    return np.ascontiguousarray(array, dtype=dtype).reshape(-1)


class _NumbaChainKernel:
    """Marshals plan arrays into a jitted flat-loop chain kernel."""

    def __init__(self, funcs, program, kinds, needs, has_backward: bool):
        self._fwd = funcs["cg_fwd"]
        self._bwd = funcs.get("cg_bwd")
        self._kinds = kinds
        self._dtype = np.dtype(program["out_dtype"])
        size = int(np.prod(program["out_shape"], dtype=np.int64))
        self._bufs = [np.empty(size, self._dtype) for _ in program["steps"]]
        self._out = self._bufs[-1].reshape(program["out_shape"])
        # One flat grad buffer per needed external; scalars get a length-1
        # buffer reshaped back to the slot shape.
        self._gbufs: List[Optional[np.ndarray]] = []
        self._gviews: List[Optional[np.ndarray]] = []
        for k, shape in enumerate(program["in_shapes"]):
            if not (has_backward and needs[k]):
                self._gbufs.append(None)
                self._gviews.append(None)
                continue
            n = 1 if kinds[k] == "scalar" else size
            buf = np.empty(n, self._dtype)
            self._gbufs.append(buf)
            self._gviews.append(buf.reshape(shape))
        self._grad_args = [b for b in self._gbufs if b is not None]
        self._token = object()

    def _marshal(self, ins):
        args = []
        for kind, array in zip(self._kinds, ins):
            if kind == "scalar":
                args.append(self._dtype.type(array.reshape(-1)[0]))
            else:
                args.append(_flat(array, self._dtype))
        return args

    def _run(self, ins):
        self._fwd(*self._marshal(ins), *self._bufs)
        return self._out

    def forward(self, ins, attrs, out=None):
        return self._run(ins), self._token

    def forward_inference(self, ins, attrs, out=None):
        return self._run(ins)

    def backward(self, g, ins, out, saved, attrs, needs):
        if saved is not self._token:
            # Capture-step backward: the forward ran before this kernel
            # existed, so the saved state is the reference format.
            from repro.runtime.ops import _ew_chain_bwd

            return _ew_chain_bwd(g, ins, out, saved, attrs, needs)
        self._bwd(_flat(np.asarray(g), self._dtype), *self._marshal(ins),
                  *self._bufs, *self._grad_args)
        return list(self._gviews)


class _NumbaLIFKernel:
    """Marshals the (T, ...) current into a jitted (T, M) LIF recurrence."""

    def __init__(self, funcs, cfg):
        self._fwd = funcs["lif_fwd"]
        self._infer = funcs["lif_fwd_infer"]
        self._bwd = funcs.get("lif_bwd")
        self._dtype = np.dtype(cfg["dtype"])
        self._shape = cfg["shape"]
        self._flat_shape = (cfg["timesteps"], cfg["size"])
        self._spk = np.empty(self._flat_shape, self._dtype)
        self._mem = np.empty(self._flat_shape, self._dtype)
        self._gin = np.empty(self._flat_shape, self._dtype)
        self._spk_view = self._spk.reshape(self._shape)
        self._gin_view = self._gin.reshape(self._shape)
        self._token = object()

    def _flat2(self, array):
        return np.ascontiguousarray(
            array, dtype=self._dtype).reshape(self._flat_shape)

    def forward(self, ins, attrs, out=None):
        self._fwd(self._flat2(ins[0]), self._spk, self._mem)
        return self._spk_view, self._token

    def forward_inference(self, ins, attrs, out=None):
        self._infer(self._flat2(ins[0]), self._spk)
        return self._spk_view

    def backward(self, g, ins, out, saved, attrs, needs):
        if saved is not self._token:
            grads = saved.backward(np.asarray(g))
            return list(grads) if isinstance(grads, (tuple, list)) else [grads]
        self._bwd(self._flat2(np.asarray(g)), self._spk, self._mem, self._gin)
        return [self._gin_view]


class NumbaBackend(Backend):
    """``@njit``-compiled flat-loop kernels for fused graph nodes."""

    name = "numba"

    def eligible(self, node) -> bool:
        if node.op == "ew_chain":
            return True
        if node.op != "fn_cached":
            return False
        from repro.snn.neurons import _FusedLIFSequence

        return node.attrs.get("cls") is _FusedLIFSequence

    def _compile(self, source: str, names: Tuple[str, ...]) -> Dict[str, object]:
        """The functions ``names`` of an emitted ``source``, jitted."""
        return _jit(source, names)

    def compile_node(self, node, slots, needs, node_has_backward: bool
                     ) -> Optional[NativeKernel]:
        try:
            if node.op == "ew_chain":
                program = chain_program(node, slots)
                source, kinds = emit_chain_numba(program, needs)
                names = ("cg_fwd", "cg_bwd") if node_has_backward else ("cg_fwd",)
                impl = _NumbaChainKernel(self._compile(source, names), program,
                                         kinds, needs, node_has_backward)
            elif self.eligible(node):
                cfg = lif_config(node, slots)
                source = emit_lif_numba(cfg)
                names = ("lif_fwd", "lif_fwd_infer")
                if node_has_backward:
                    names = names + ("lif_bwd",)
                impl = _NumbaLIFKernel(self._compile(source, names), cfg)
            else:
                return None
            # First calls inside verification trigger (or reuse) the JIT
            # specialization, so replay never pays compile latency.
            if not verify_kernel(impl, node, slots, needs, node_has_backward):
                return None
            return NativeKernel(self.name, impl.forward, impl.backward,
                                impl.forward_inference, label=node.op)
        except Exception:
            return None
