"""Tests for the kernel backends (:mod:`repro.runtime.backends`).

Guarantees under test:

* **The NumPy backend is the parity oracle**: every native backend is
  compared against it with the same harness as ``tests/test_optimizer.py``
  — train O1 (losses, gradients, parameters after SGD) and serve O2
  (logits) across architectures, TT variants and dtypes.  Besides numba
  (where installed) the matrix runs the test-only ``codegen`` backend —
  the numba backend's generated kernels executed as plain Python, see
  ``tests/conftest.py`` — so the native-kernel path is covered on every
  machine.
* **Graceful degradation**: unknown backend names raise at construction;
  ``numba`` / ``auto`` resolve to the reference backend where numba is not
  installed; a backend that declines every node produces a plan that still
  replays correctly, with the declines counted as fallbacks and labelled
  ``@fallback``.
* **Numba-mode sources are plain valid Python**: the flat-loop kernels are
  exec'd (without ``@njit``) and checked against the reference kernels of
  :mod:`repro.runtime.ops` and :mod:`repro.snn.neurons`, so their semantics
  are covered on machines without numba.
* **Accounting**: ``runtime_stats()["backend"]`` counts native/fallback
  nodes and replays; profiler hot-op rows carry the executing backend;
  native plans keep the zero-steady-state-allocation property.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.autograd.tensor import Workspace, _unbroadcast
from repro.metrics.profiler import kernel_backend, summarize_runtime
from repro.models.builder import convert_to_tt
from repro.models.resnet import spiking_resnet18
from repro.models.vgg import spiking_vgg9
from repro.parallel import DataParallelTrainer
from repro.runtime import Backend, CompiledForward, backends, resolve_backend
from repro.runtime.backends import REFERENCE
from repro.runtime.backends.codegen import (
    UnsupportedNode,
    chain_program,
    compile_python,
    emit_chain_numba,
    emit_lif_numba,
    lif_config,
    verify_kernel,
)
from repro.runtime.backends.numba_backend import (
    NUMBA_AVAILABLE,
    _NumbaChainKernel,
    _NumbaLIFKernel,
)
from repro.runtime.ops import get_op
from repro.serve.engine import InferenceEngine
from repro.snn.neurons import SurrogateRectangular, _FusedLIFSequence
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

TIMESTEPS = 2
NUM_CLASSES = 4
#: ISSUE bound on native-vs-reference logit drift per dtype
DRIFT = {"float32": 1e-3, "float64": 1e-6}
#: native backends the parity matrix exercises (``codegen``: tests/conftest.py)
NATIVE_BACKENDS = ["codegen"] + (["numba"] if NUMBA_AVAILABLE else [])


def _make_model(arch: str, variant: str, seed: int = 0):
    rng = np.random.default_rng(seed)
    if arch == "vgg9":
        model = spiking_vgg9(num_classes=NUM_CLASSES, in_channels=3,
                             timesteps=TIMESTEPS, width_scale=0.1, rng=rng)
    else:
        model = spiking_resnet18(num_classes=NUM_CLASSES, in_channels=3,
                                 timesteps=TIMESTEPS, width_scale=0.07, rng=rng)
    convert_to_tt(model, variant=variant, rank=4, timesteps=TIMESTEPS)
    return model


def _make_pair(arch: str, variant: str):
    reference = _make_model(arch, variant)
    native = _make_model(arch, variant)
    native.load_state_dict(reference.state_dict())
    return reference, native


def _batches(steps: int = 3, n: int = 2, size: int = 8, seed: int = 7):
    rng = np.random.default_rng(seed)
    return [(rng.random((n, 3, size, size)).astype(np.float32),
             rng.integers(0, NUM_CLASSES, n)) for _ in range(steps)]


def _trainer(model, **kwargs):
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2, learning_rate=0.05)
    return BPTTTrainer(model, config, compile=True, optimize="O1", **kwargs)


def _unsealed_plan(backend: str = "numpy"):
    """One captured (never replayed) train plan — slot arrays still attached."""
    trainer = _trainer(_make_model("vgg9", "ptt"), backend=backend)
    data, labels = _batches(steps=1)[0]
    trainer.train_step(data, labels)
    plan = next(iter(trainer._compiled._plans.values()))[0]
    return trainer, plan


# ---------------------------------------------------------------------------
# name resolution and graceful degradation
# ---------------------------------------------------------------------------


def test_resolve_backend_names_and_reference():
    assert resolve_backend("numpy") is REFERENCE
    assert REFERENCE.is_reference and REFERENCE.name == "numpy"
    resolved = resolve_backend("numba")
    assert resolved.name == ("numba" if NUMBA_AVAILABLE else "numpy")
    assert resolved.is_reference is not NUMBA_AVAILABLE


def test_auto_resolves_to_fastest_available():
    resolved = resolve_backend("auto")
    assert resolved.name == ("numba" if NUMBA_AVAILABLE else "numpy")


def test_unknown_backend_raises_everywhere():
    for name in ("cuda", "codegen"):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(name)
        with pytest.raises(ValueError, match="unknown backend"):
            CompiledForward(lambda t: t, backend=name)
        with pytest.raises(ValueError, match="unknown backend"):
            _make_model("vgg9", "ptt").compile(backend=name)
        with pytest.raises(ValueError, match="unknown backend"):
            _trainer(_make_model("vgg9", "ptt"), backend=name)
        with pytest.raises(ValueError, match="unknown backend"):
            InferenceEngine(_make_model("vgg9", "ptt"), compile=True, backend=name)
        config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2)
        with pytest.raises(ValueError, match="unknown backend"):
            DataParallelTrainer(_make_model("vgg9", "ptt"), config,
                                num_workers=1, backend=name)


def test_removed_replay_options_are_rejected():
    model = _make_model("vgg9", "ptt")
    with pytest.raises(TypeError):
        InferenceEngine(model, compile=True, parallel_replay=2)
    with pytest.raises(TypeError):
        model.compile(parallel_workers=2)


@pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed here")
def test_unavailable_numba_degrades_to_reference():
    """Requesting numba on a machine without it must still work end to end."""
    assert resolve_backend("numba").name == "numpy"
    reference, native = _make_pair("vgg9", "ptt")
    t_ref = _trainer(reference)
    t_nb = _trainer(native, backend="numba")
    for data, labels in _batches(steps=2):
        s0 = t_ref.train_step(data, labels)
        s1 = t_nb.train_step(data, labels)
        assert s0["loss"] == s1["loss"]
    stats = t_nb.runtime_stats()["backend"]
    assert stats["requested"] == "numba"
    assert stats["active"] == "numpy"
    assert stats["native_nodes"] == 0
    assert stats["fallback_nodes"] == 0


def test_kernel_backend_label_parsing():
    assert kernel_backend("ew_chain") == "numpy"
    assert kernel_backend("ew_chain@numba") == "numba"
    assert kernel_backend("bwd:fn_cached:_FusedLIFSequence@numba") == "numba"
    assert kernel_backend("ew_chain@fallback") == "fallback"


def test_invalid_dtype_policy_rejected():
    with pytest.raises(ValueError, match="float32 or float64"):
        CompiledForward(lambda t: t, dtype="int32")
    with pytest.raises(ValueError, match="float32 or float64"):
        _make_model("vgg9", "ptt").astype("float16")


# ---------------------------------------------------------------------------
# parity matrix: native backends vs the NumPy oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", NATIVE_BACKENDS)
@pytest.mark.parametrize("arch,variant", [
    ("vgg9", "stt"), ("vgg9", "ptt"), ("vgg9", "htt"), ("resnet18", "ptt"),
])
def test_native_train_matches_numpy_backend(backend, arch, variant,
                                           codegen_backend):
    """Native O1 training tracks the reference backend across K SGD steps."""
    reference, native = _make_pair(arch, variant)
    t_ref = _trainer(reference)
    t_nat = _trainer(native, backend=backend)
    tol = DRIFT["float32"]
    for step, (data, labels) in enumerate(_batches(steps=3)):
        s0 = t_ref.train_step(data, labels)
        s1 = t_nat.train_step(data, labels)
        assert abs(s0["loss"] - s1["loss"]) <= tol, f"step {step}"
    for (name, p0), (_, p1) in zip(reference.named_parameters(),
                                   native.named_parameters()):
        np.testing.assert_allclose(p1.grad, p0.grad, atol=tol, err_msg=f"grad {name}")
        np.testing.assert_allclose(p1.data, p0.data, atol=tol, err_msg=f"param {name}")
    stats = t_nat.runtime_stats()["backend"]
    assert stats["active"] == backend
    assert stats["native_nodes"] > 0
    assert stats["native_replays"] > 0


@pytest.mark.parametrize("backend", NATIVE_BACKENDS)
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_native_train_dtype_policy(backend, dtype, codegen_backend):
    """The dtype knob carries through params, plans and native kernels."""
    reference, native = _make_pair("vgg9", "ptt")
    t_ref = _trainer(reference, dtype=dtype)
    t_nat = _trainer(native, backend=backend, dtype=dtype)
    for data, labels in _batches(steps=2):
        s0 = t_ref.train_step(data, labels)
        s1 = t_nat.train_step(data, labels)
        assert abs(s0["loss"] - s1["loss"]) <= DRIFT[dtype]
    assert next(native.parameters()).data.dtype == np.dtype(dtype)
    stats = t_nat.runtime_stats()
    assert stats["dtype"] == dtype
    assert stats["backend"]["native_nodes"] > 0


@pytest.mark.parametrize("backend", NATIVE_BACKENDS)
@pytest.mark.parametrize("arch", ["vgg9", "resnet18"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_native_serve_matches_numpy_backend(backend, arch, dtype, codegen_backend):
    """O2 serve logits stay within the per-dtype drift bound of the oracle."""
    reference, native = _make_pair(arch, "ptt")
    e_ref = InferenceEngine(reference, compile=True, dtype=dtype)
    e_nat = InferenceEngine(native, compile=True, backend=backend, dtype=dtype)
    rng = np.random.default_rng(3)
    for n in (2, 2, 1):
        batch = rng.random((n, 3, 8, 8)).astype(np.float32)
        l0 = e_ref.infer(batch)
        l1 = e_nat.infer(batch)
        assert l1.dtype == np.dtype(dtype)
        np.testing.assert_allclose(l1, l0, atol=DRIFT[dtype])
    stats = e_nat.runtime_stats()["backend"]
    assert stats["active"] == backend
    assert stats["native_nodes"] > 0


# ---------------------------------------------------------------------------
# per-node fallback and accounting
# ---------------------------------------------------------------------------


class _DecliningBackend(Backend):
    """Eligible for everything ``eligible_like`` is, compiles nothing."""

    name = "declining-test"

    def __init__(self, eligible_like: Backend):
        self.eligible = eligible_like.eligible


def test_declining_backend_counts_fallbacks_and_stays_correct(install_backend,
                                                              twin_backend):
    twin = backends.resolve_backend(twin_backend)
    declining = install_backend(_DecliningBackend(twin))
    reference, native = _make_pair("vgg9", "ptt")
    t_ref = _trainer(reference)
    t_dec = _trainer(native, backend=declining, profile=True)
    for data, labels in _batches(steps=3):
        s0 = t_ref.train_step(data, labels)
        s1 = t_dec.train_step(data, labels)
        assert s0["loss"] == s1["loss"]           # fallback IS the reference
    stats = t_dec.runtime_stats()["backend"]
    assert stats["native_nodes"] == 0
    assert stats["fallback_nodes"] > 0
    assert stats["native_replays"] == 0
    assert stats["fallback_replays"] == stats["fallback_nodes"] * 2
    report = summarize_runtime(t_dec._compiled)
    backends_seen = {row["backend"] for row in report["hot_ops"]}
    assert "fallback" in backends_seen or all(
        row["backend"] == "numpy" for row in report["hot_ops"])
    plan = next(iter(t_dec._compiled._plans.values()))[0]
    assert any(label.endswith("@fallback") for label in plan._fwd_labels)


def test_native_labels_and_profiler_attribution(twin_backend):
    trainer = _trainer(_make_model("vgg9", "ptt"), backend=twin_backend,
                       profile=True)
    for data, labels in _batches(steps=3):
        trainer.train_step(data, labels)
    plan = next(iter(trainer._compiled._plans.values()))[0]
    suffix = "@" + twin_backend
    assert any(label.endswith(suffix) for label in plan._fwd_labels)
    assert any(label.startswith("bwd:") and label.endswith(suffix)
               for label in plan._bwd_labels)
    stats = trainer.runtime_stats()["backend"]
    assert stats["native_replays"] == stats["native_nodes"] * 2
    report = summarize_runtime(trainer._compiled)
    assert any(row["backend"] == twin_backend for row in report["hot_ops"])


def test_codegen_plans_keep_zero_steady_state_allocations(codegen_backend):
    trainer = _trainer(_make_model("vgg9", "ptt"), backend=codegen_backend)
    batches = _batches(steps=6)
    for data, labels in batches[:3]:
        trainer.train_step(data, labels)
    arena = trainer._compiled.arena
    allocated = arena.allocated
    for data, labels in batches[3:]:
        trainer.train_step(data, labels)
    assert arena.allocated == allocated


# ---------------------------------------------------------------------------
# numba-mode sources are plain valid Python (semantics covered without numba)
# ---------------------------------------------------------------------------


def test_numba_chain_sources_verify_on_captured_nodes():
    """Every uniform-shape captured chain: exec'd flat-loop kernel == reference."""
    _, plan = _unsealed_plan()
    chains = [(position, node) for position, node in enumerate(plan.nodes)
              if node is not None and node.op == "ew_chain"]
    assert chains, "expected fused ew_chain nodes in a VGG-9 O1 train plan"
    verified = declined = 0
    bwd_ids = {id(node) for node in plan._bwd_nodes}
    for _, node in chains:
        program = chain_program(node, plan.slots)
        needs = tuple(plan._needs[i] for i in node.inputs)
        try:
            source, kinds = emit_chain_numba(program, needs)
        except UnsupportedNode:
            declined += 1                     # broadcast chain: per-node fallback
            continue
        funcs = compile_python(source)        # NOT jitted: plain Python
        impl = _NumbaChainKernel(funcs, program, kinds, needs,
                                 id(node) in bwd_ids)
        assert verify_kernel(impl, node, plan.slots, needs, id(node) in bwd_ids)
        verified += 1
    assert verified + declined == len(chains)


def test_numba_lif_sources_verify_on_captured_nodes():
    """Exec'd flat-loop LIF recurrences match the reference on real nodes."""
    _, plan = _unsealed_plan()
    from repro.snn.neurons import _FusedLIFSequence

    lif_nodes = [node for node in plan.nodes
                 if node is not None and node.op == "fn_cached"
                 and node.attrs.get("cls") is _FusedLIFSequence]
    assert lif_nodes, "expected specialized LIF nodes in a VGG-9 O1 train plan"
    bwd_ids = {id(node) for node in plan._bwd_nodes}
    for node in lif_nodes:
        cfg = lif_config(node, plan.slots)
        funcs = compile_python(emit_lif_numba(cfg))
        impl = _NumbaLIFKernel(funcs, cfg)
        needs = tuple(plan._needs[i] for i in node.inputs)
        assert verify_kernel(impl, node, plan.slots, needs, id(node) in bwd_ids)


def _toy_chain(dtype, in_shapes, step_shapes):
    """A fabricated ``ew_chain`` node touching most of the emitted op set.

    Returns ``(node, slots)`` shaped like a captured plan's, so the node runs
    on the reference ``ew_chain`` kernels and feeds :func:`chain_program`.
    """
    dtype = np.dtype(dtype)
    ops = [("mul", (0, 1), {}), ("add", (-1, 2), {}), ("tanh", (-1,), {}),
           ("sigmoid", (-1,), {}), ("clip", (-1,), {"low": -0.9, "high": 0.9}),
           ("pow", (-1,), {"exponent": 2.0}), ("relu", (-1,), {}),
           ("abs", (-1,), {}), ("neg", (-1,), {})]
    prog = []
    for index, (op, ins, attrs) in enumerate(ops):
        opdef = get_op(op)
        prog.append({"op": op, "fwd": opdef.forward, "bwd": opdef.backward,
                     "attrs": attrs, "ins": list(ins),
                     "needs": (True,) * len(ins), "shape": step_shapes[index],
                     "dtype": dtype, "buffered": opdef.out_capable})
    slots = [SimpleNamespace(shape=tuple(shape), dtype=dtype)
             for shape in in_shapes]
    node = SimpleNamespace(op="ew_chain", attrs={"prog": prog, "ws": Workspace()},
                           inputs=tuple(range(len(in_shapes))))
    return node, slots


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_numba_chain_source_matches_python_mode(dtype):
    """The flat-loop chain source, run in plain Python mode (no ``@njit``),
    agrees with the reference ``ew_chain`` kernels on a fabricated chain with
    array and scalar externals (scalar grads use the accumulator path)."""
    shape = (2, 6)
    node, slots = _toy_chain(dtype, [shape, shape, (1, 1)], [shape] * 9)
    program = chain_program(node, slots)
    needs = (True, True, True)
    rng = np.random.default_rng(9)
    ins = [rng.standard_normal(s).astype(dtype) + 0.5
           for s in program["in_shapes"]]
    g = rng.standard_normal(shape).astype(dtype)

    reference = get_op("ew_chain")
    want, saved = reference.forward(ins, node.attrs)
    want_grads = reference.backward(g, ins, want, saved, node.attrs, needs)
    want = np.array(want)

    source, kinds = emit_chain_numba(program, needs)
    assert kinds == ["array", "array", "scalar"]
    impl = _NumbaChainKernel(compile_python(source), program, kinds, needs, True)
    got, token = impl.forward(ins, {})
    rtol = 1e-5 if dtype == "float32" else 1e-12
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol)
    np.testing.assert_allclose(impl.forward_inference(ins, {}), want,
                               rtol=rtol, atol=rtol)
    got_grads = impl.backward(g, ins, got, token, {}, needs)
    for k, shape in enumerate(program["in_shapes"]):
        # The planner unbroadcasts external grads to the slot shape after the
        # kernel returns; mirror that here so both kernels are comparable.
        np.testing.assert_allclose(
            _unbroadcast(np.asarray(got_grads[k]), shape),
            _unbroadcast(np.asarray(want_grads[k]), shape),
            rtol=rtol, atol=rtol, err_msg=f"input {k}")


def test_numba_chain_emitter_declines_broadcast_and_mixed_dtype():
    needs = (True, True, True)
    node, slots = _toy_chain("float32", [(2, 6), (2, 1), (1, 1)], [(2, 6)] * 9)
    with pytest.raises(UnsupportedNode, match="broadcast"):
        emit_chain_numba(chain_program(node, slots), needs)
    node, slots = _toy_chain("float32", [(2, 6), (2, 6), (1, 1)], [(2, 6)] * 9)
    slots[1].dtype = np.dtype("float64")
    with pytest.raises(UnsupportedNode, match="mixed"):
        emit_chain_numba(chain_program(node, slots), needs)


@pytest.mark.parametrize("hard,detach", [(True, False), (False, False), (True, True)])
def test_numba_lif_source_matches_python_mode(hard, detach):
    """The flat-loop LIF source, run in plain Python mode (no ``@njit``),
    equals :class:`_FusedLIFSequence` for every reset and detach branch the
    emitter specializes."""
    shape, dtype = (3, 2, 4), np.dtype(np.float32)

    def fused_lif():
        return _FusedLIFSequence(tau_m=0.5, v_threshold=1.0,
                                 surrogate=SurrogateRectangular(width=1.0),
                                 hard_reset=hard, detach_reset=detach)

    node = SimpleNamespace(op="fn_cached", inputs=(0,),
                           attrs={"cls": _FusedLIFSequence, "ctx": fused_lif()})
    cfg = lif_config(node, [SimpleNamespace(shape=shape, dtype=dtype)])
    rng = np.random.default_rng(11)
    cur = (rng.standard_normal(shape) * 2).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)

    reference = fused_lif()
    want_spk = np.array(reference.forward(cur))
    (want_gin,) = reference.backward(g)
    want_gin = np.array(want_gin)
    want_infer = np.array(fused_lif().forward_inference(cur))
    np.testing.assert_array_equal(want_infer, want_spk)

    impl = _NumbaLIFKernel(compile_python(emit_lif_numba(cfg)), cfg)
    got_spk, token = impl.forward([cur], {})
    np.testing.assert_array_equal(got_spk, want_spk)
    (got_gin,) = impl.backward(g, [cur], got_spk, token, {}, (True,))
    np.testing.assert_allclose(got_gin, want_gin, rtol=1e-6, atol=1e-6)
    infer_spk = impl.forward_inference([cur], {})
    np.testing.assert_array_equal(infer_spk, want_spk)


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_numba_backend_jit_smoke():
    """With numba present, the jitted backend trains within the drift bound."""
    reference, native = _make_pair("vgg9", "ptt")
    t_ref = _trainer(reference)
    t_nb = _trainer(native, backend="numba")
    for data, labels in _batches(steps=2):
        s0 = t_ref.train_step(data, labels)
        s1 = t_nb.train_step(data, labels)
        assert abs(s0["loss"] - s1["loss"]) <= DRIFT["float32"]
    stats = t_nb.runtime_stats()["backend"]
    assert stats["active"] == "numba"
    assert stats["native_nodes"] > 0


# ---------------------------------------------------------------------------
# dtype plumbing satellites
# ---------------------------------------------------------------------------


def test_workspace_buffers_keyed_by_dtype():
    ws = Workspace()
    f32 = ws.buf("k", (4,), "float32")
    f64 = ws.buf("k", (4,), "float64")
    assert f32.dtype == np.float32 and f64.dtype == np.float64
    assert f32 is not f64
    assert ws.buf("k", (4,), "float32") is f32
    assert ws.buf("k", (4,), "float64") is f64
    assert ws.buf("k", (2, 2), "float32") is not f32   # shape is part of the key


def test_module_astype_casts_params_and_buffers():
    model = _make_model("vgg9", "ptt")
    out = model.astype("float64")
    assert out is model
    assert all(p.data.dtype == np.float64 for p in model.parameters())
    model.astype(np.float32)
    assert all(p.data.dtype == np.float32 for p in model.parameters())


def test_engine_pad_buffers_keyed_by_dtype(codegen_backend):
    """A float64 engine and a float32 engine never share pad storage."""
    e32 = InferenceEngine(_make_model("vgg9", "ptt"), compile=True)
    e64 = InferenceEngine(_make_model("vgg9", "ptt"), compile=True,
                          dtype="float64", backend=codegen_backend)
    rng = np.random.default_rng(21)
    batch = rng.random((3, 3, 8, 8)).astype(np.float32)   # pads to 4
    l32 = e32.infer(batch)
    l64 = e64.infer(batch)
    assert l32.dtype == np.float32 and l64.dtype == np.float64
    assert all(key[1] == "<f4" for key in e32._pad_buffers)
    assert all(key[1] == "<f8" for key in e64._pad_buffers)
