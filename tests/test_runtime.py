"""Tests for the capture/plan/replay runtime (:mod:`repro.runtime`).

The headline guarantee: with ``compile=True`` a replayed training step is
numerically equivalent to the eager step — logits, losses, gradients,
optimizer state and parameters all match to <= 1e-6 after several steps
(they are bitwise-equal by construction: the planned backward replicates the
eager DFS accumulation order exactly) — and a change of the input signature
re-captures transparently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.data.datasets import ArrayDataset, DataLoader, EventDataset
from repro.metrics.profiler import summarize_runtime
from repro.models.builder import convert_to_tt
from repro.models.resnet import spiking_resnet18
from repro.models.vgg import spiking_vgg9
from repro.nn.layers import Linear, Sequential
from repro.parallel import DataParallelTrainer
from repro.runtime import (BufferArena, CompiledForward, CompiledTrainStep,
                           ExecutionPlan, compile_plan)
from repro.serve.engine import InferenceEngine
from repro.snn.encoding import encode_batch
from repro.snn.loss import TETLoss
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

TIMESTEPS = 2
NUM_CLASSES = 4
ATOL = 1e-6


def _make_model(arch: str, variant: str, rng_seed: int = 0):
    rng = np.random.default_rng(rng_seed)
    if arch == "vgg9":
        model = spiking_vgg9(num_classes=NUM_CLASSES, in_channels=3, timesteps=TIMESTEPS,
                             width_scale=0.1, rng=rng)
    else:
        model = spiking_resnet18(num_classes=NUM_CLASSES, in_channels=3, timesteps=TIMESTEPS,
                                 width_scale=0.07, rng=rng)
    convert_to_tt(model, variant=variant, rank=4, timesteps=TIMESTEPS)
    return model

def _make_pair(arch: str, variant: str):
    """Two models with identical state (TT init uses SVD, so copy state dicts)."""
    eager = _make_model(arch, variant)
    compiled = _make_model(arch, variant)
    compiled.load_state_dict(eager.state_dict())
    return eager, compiled


def _batches(steps: int = 3, n: int = 2, size: int = 8, seed: int = 7):
    rng = np.random.default_rng(seed)
    return [(rng.random((n, 3, size, size)).astype(np.float32),
             rng.integers(0, NUM_CLASSES, n)) for _ in range(steps)]


def _assert_states_match(eager, compiled, context: str) -> None:
    for (name, p1), (_, p2) in zip(eager.named_parameters(), compiled.named_parameters()):
        np.testing.assert_allclose(p1.data, p2.data, atol=ATOL,
                                   err_msg=f"{context}: param {name}")
        np.testing.assert_allclose(p1.grad, p2.grad, atol=ATOL,
                                   err_msg=f"{context}: grad {name}")
    for (name, b1), (_, b2) in zip(eager.named_buffers(), compiled.named_buffers()):
        np.testing.assert_allclose(b1.data, b2.data, atol=ATOL,
                                   err_msg=f"{context}: buffer {name}")


# ---------------------------------------------------------------------------
# eager-vs-replay equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ["vgg9", "resnet18"])
@pytest.mark.parametrize("variant", ["stt", "ptt", "htt"])
@pytest.mark.parametrize("mode", ["single", "fused"])
def test_compiled_train_step_matches_eager(arch, variant, mode):
    """Loss / logits / grads / params / buffers match eager over K=3 steps."""
    eager, compiled = _make_pair(arch, variant)
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2, learning_rate=0.05,
                            step_mode=mode)
    trainer_eager = BPTTTrainer(eager, config)
    trainer_compiled = BPTTTrainer(compiled, config, compile=True)

    for step, (data, labels) in enumerate(_batches()):
        stats_eager = trainer_eager.train_step(data, labels)
        stats_compiled = trainer_compiled.train_step(data, labels)
        assert abs(stats_eager["loss"] - stats_compiled["loss"]) <= ATOL, \
            f"step {step}: loss diverged"
        assert stats_eager["accuracy"] == stats_compiled["accuracy"]
        assert stats_compiled["replayed"] == (1.0 if step > 0 else 0.0)
    _assert_states_match(eager, compiled, f"{arch}/{variant}/{mode}")

    # Optimizer state (SGD momentum buffers) must match too.
    for v1, v2 in zip(trainer_eager.optimizer._velocity,
                      trainer_compiled.optimizer._velocity):
        if v1 is None:
            assert v2 is None
        else:
            np.testing.assert_allclose(v1, v2, atol=ATOL)


def test_compiled_step_with_tet_loss_and_adam():
    """Coverage for the alternative loss (TET) and optimizer (Adam) paths."""
    eager, compiled = _make_pair("vgg9", "ptt")
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2, learning_rate=1e-3,
                            optimizer="adam")
    loss = TETLoss(lamb=0.1)
    trainer_eager = BPTTTrainer(eager, config, loss_fn=loss)
    trainer_compiled = BPTTTrainer(compiled, config, loss_fn=loss, compile=True)
    for data, labels in _batches():
        s1 = trainer_eager.train_step(data, labels)
        s2 = trainer_compiled.train_step(data, labels)
        assert abs(s1["loss"] - s2["loss"]) <= ATOL
    _assert_states_match(eager, compiled, "tet/adam")
    for m1, m2 in zip(trainer_eager.optimizer._m, trainer_compiled.optimizer._m):
        np.testing.assert_allclose(m1, m2, atol=ATOL)


def test_loss_functions_accept_onehot_tensor_labels():
    """The built-in losses treat a one-hot Tensor like the integer labels."""
    rng = np.random.default_rng(0)
    logits = Tensor(rng.standard_normal((5, NUM_CLASSES)).astype(np.float32))
    labels = rng.integers(0, NUM_CLASSES, 5)
    onehot = Tensor(F.one_hot(labels, NUM_CLASSES))
    np.testing.assert_allclose(F.cross_entropy(logits, labels).data,
                               F.cross_entropy(logits, onehot).data, rtol=1e-6)


# ---------------------------------------------------------------------------
# invalidation on signature change
# ---------------------------------------------------------------------------


def test_shape_change_triggers_recapture():
    eager, compiled = _make_pair("vgg9", "ptt")
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2, learning_rate=0.05)
    trainer_eager = BPTTTrainer(eager, config)
    trainer_compiled = BPTTTrainer(compiled, config, compile=True)
    rng = np.random.default_rng(3)

    shapes = [(2, 8), (3, 8), (2, 8), (2, 12), (3, 8)]
    for n, size in shapes:
        data = rng.random((n, 3, size, size)).astype(np.float32)
        labels = rng.integers(0, NUM_CLASSES, n)
        s1 = trainer_eager.train_step(data, labels)
        s2 = trainer_compiled.train_step(data, labels)
        assert abs(s1["loss"] - s2["loss"]) <= ATOL, f"shape {(n, size)}"
    stats = trainer_compiled.runtime_stats()
    assert stats["captures"] == 3          # three distinct signatures
    assert stats["replays"] == 2           # the two repeats replayed
    _assert_states_match(eager, compiled, "shape-change")


def test_property_random_shape_sequence_invalidation():
    """Property-style: any random shape sequence keeps compiled == eager and
    captures exactly one plan per distinct signature."""
    rng = np.random.default_rng(1234)
    module = Sequential(Linear(6, 10, rng=rng), Linear(10, 3, rng=rng))
    module.eval()
    compiled = module.compile()

    seen = set()
    for _ in range(20):
        n = int(rng.integers(1, 5))
        x = rng.standard_normal((n, 6)).astype(np.float32)
        seen.add((n, 6))
        out = compiled(x)
        np.testing.assert_allclose(out, module(Tensor(x)).data, atol=ATOL)
    assert compiled.plan_count == len(seen)
    assert compiled.capture_count == len(seen)
    compiled.invalidate()
    assert compiled.plan_count == 0


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------


def test_compiled_engine_matches_eager_engine():
    model = _make_model("vgg9", "ptt")
    eager_engine = InferenceEngine(model)
    compiled_engine = InferenceEngine(model, compile=True)
    rng = np.random.default_rng(5)
    for n in (1, 3, 4, 5, 3):
        x = rng.random((n, 3, 8, 8)).astype(np.float32)
        logits_eager = eager_engine.infer(x)
        logits_compiled = compiled_engine.infer(x)
        assert logits_compiled.shape == (n, NUM_CLASSES)
        np.testing.assert_allclose(logits_eager, logits_compiled, atol=1e-5,
                                   err_msg=f"batch size {n}")
    stats = compiled_engine.runtime_stats()
    # N in {3, 4} pads to the same power-of-two bucket -> shared plan.
    assert stats["captures"] == 3
    assert stats["replays"] == 2
    assert compiled_engine.requests_served == 1 + 3 + 4 + 5 + 3


def test_compiled_engine_single_sample():
    model = _make_model("vgg9", "ptt")
    engine = InferenceEngine(model, compile=True)
    x = np.random.default_rng(0).random((3, 8, 8)).astype(np.float32)
    logits = engine.infer(x)
    assert logits.shape == (NUM_CLASSES,)
    assert np.isfinite(logits).all()


# ---------------------------------------------------------------------------
# arena: steady-state allocations
# ---------------------------------------------------------------------------


def test_arena_steady_state_allocations_are_zero():
    _, compiled = _make_pair("vgg9", "ptt")
    trainer = BPTTTrainer(compiled, TrainingConfig(timesteps=TIMESTEPS, batch_size=2),
                          compile=True)
    batches = _batches(steps=5)
    for data, labels in batches[:2]:
        trainer.train_step(data, labels)
    arena = trainer._compiled.arena
    allocated_after_warmup = arena.allocated
    for data, labels in batches[2:]:
        trainer.train_step(data, labels)
    assert arena.allocated == allocated_after_warmup, \
        "steady-state replays must not allocate fresh arena buffers"
    stats = trainer.runtime_stats()
    assert stats["plan"]["managed_slots"] > 0
    assert stats["plan"]["grad_buffers"] > 0


def test_arena_reuses_released_buffers():
    arena = BufferArena()
    first = arena.acquire((4, 4), np.float32)
    arena.release(first)
    second = arena.acquire((4, 4), np.float32)
    assert second is first
    assert arena.allocated == 1 and arena.reused == 1
    assert arena.stats()["reuse_rate"] == 0.5


def test_invalidated_plan_buffers_seed_next_capture():
    rng = np.random.default_rng(2)
    module = Sequential(Linear(5, 5, rng=rng))
    module.eval()
    compiled = module.compile()
    x = rng.standard_normal((3, 5)).astype(np.float32)
    compiled(x)
    compiled(x)
    allocated = compiled.arena.allocated
    compiled.invalidate()
    compiled(x)  # re-capture: buffers come back from the free lists
    assert compiled.arena.allocated == allocated
    assert compiled.arena.reused > 0


# ---------------------------------------------------------------------------
# Module.compile / CompiledForward
# ---------------------------------------------------------------------------


def test_module_compile_matches_eager_forward():
    rng = np.random.default_rng(9)
    module = Sequential(Linear(4, 8, rng=rng), Linear(8, 2, rng=rng))
    module.eval()
    compiled = module.compile()
    x = rng.standard_normal((6, 4)).astype(np.float32)
    np.testing.assert_allclose(compiled(x), module(Tensor(x)).data, atol=ATOL)
    # Parameter updates between replays are picked up (leaf slots are live).
    module[0].weight.data += 0.25
    np.testing.assert_allclose(compiled(x), module(Tensor(x)).data, atol=ATOL)
    assert compiled.capture_count == 1 and compiled.replay_count == 1


def test_compiled_model_run_timesteps_sequence_output():
    model = _make_model("vgg9", "ptt")
    model.eval()
    compiled = model.compile(fn=lambda t: model.run_timesteps(t, step_mode="fused"))
    rng = np.random.default_rng(11)
    batch = np.broadcast_to(rng.random((1, 2, 3, 8, 8)).astype(np.float32),
                            (TIMESTEPS, 2, 3, 8, 8)).copy()
    outs = compiled(batch)
    assert isinstance(outs, list) and len(outs) == TIMESTEPS
    from repro.autograd.tensor import no_grad
    with no_grad():
        eager = model.run_timesteps(batch, step_mode="fused")
    for got, want in zip(outs, eager):
        np.testing.assert_allclose(got, want.data, atol=ATOL)


def test_runtime_stats_report():
    _, compiled = _make_pair("vgg9", "ptt")
    trainer = BPTTTrainer(compiled, TrainingConfig(timesteps=TIMESTEPS, batch_size=2),
                          compile=True)
    assert trainer.runtime_stats() is None
    for data, labels in _batches(steps=3):
        trainer.train_step(data, labels)
    report = summarize_runtime(trainer._compiled)
    assert report["captures"] == 1 and report["replays"] == 2
    assert report["replay_latency"]["count"] == 2.0
    assert report["capture_over_replay"] > 0
    assert "arena" in report and "plan" in report


# ---------------------------------------------------------------------------
# removed options
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["auto", "cuda", "codegen"])
def test_retained_backend_argument_accepts_only_numpy(name):
    """The three constructors that keep ``backend`` reject every other name."""
    model = _make_model("vgg9", "ptt")
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2)
    with pytest.raises(ValueError, match="unknown backend"):
        BPTTTrainer(model, config, compile=True, backend=name)
    with pytest.raises(ValueError, match="unknown backend"):
        CompiledTrainStep(model, lambda outputs, labels: None, backend=name)
    with pytest.raises(ValueError, match="unknown backend"):
        InferenceEngine(model, compile=True, backend=name)
    BPTTTrainer(model, config, compile=True, backend="numpy")
    CompiledTrainStep(model, lambda outputs, labels: None, backend="numpy")
    InferenceEngine(model, compile=True, backend="numpy")


@pytest.mark.parametrize("kwargs", [{"backend": "numpy"}, {"dtype": "float32"}])
def test_backend_and_dtype_arguments_are_gone(kwargs):
    model = _make_model("vgg9", "ptt")
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2)
    with pytest.raises(TypeError):
        model.compile(**kwargs)
    with pytest.raises(TypeError):
        CompiledForward(lambda t: t, **kwargs)
    with pytest.raises(TypeError):
        compile_plan(None, **kwargs)
    with pytest.raises(TypeError):
        ExecutionPlan(None, BufferArena(), **kwargs)
    with pytest.raises(TypeError):
        DataParallelTrainer(model, config, num_workers=1, **kwargs)


def test_dtype_argument_is_gone_from_retained_backend_callers():
    model = _make_model("vgg9", "ptt")
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2)
    with pytest.raises(TypeError):
        BPTTTrainer(model, config, compile=True, dtype="float32")
    with pytest.raises(TypeError):
        CompiledTrainStep(model, lambda outputs, labels: None, dtype="float32")
    with pytest.raises(TypeError):
        InferenceEngine(model, compile=True, dtype="float32")


def test_removed_replay_options_are_rejected():
    model = _make_model("vgg9", "ptt")
    with pytest.raises(TypeError):
        InferenceEngine(model, compile=True, parallel_replay=2)
    with pytest.raises(TypeError):
        model.compile(parallel_workers=2)


# ---------------------------------------------------------------------------
# float32 reference kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("optimize", ["O0", "O1"])
@pytest.mark.parametrize("arch,variant", [
    ("vgg9", "stt"), ("vgg9", "ptt"), ("vgg9", "htt"), ("resnet18", "ptt"),
])
def test_compiled_train_runs_in_float32(arch, variant, optimize):
    """float64 batches are cast on entry: every plan slot, parameter and
    gradient stays float32, and the losses equal a run fed float32 batches."""
    wide, narrow = _make_pair(arch, variant)
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2, learning_rate=0.05)
    t_wide = BPTTTrainer(wide, config, compile=True, optimize=optimize)
    t_narrow = BPTTTrainer(narrow, config, compile=True, optimize=optimize)
    for step, (data, labels) in enumerate(_batches(steps=3)):
        s_wide = t_wide.train_step(data.astype(np.float64), labels)
        s_narrow = t_narrow.train_step(data, labels)
        assert s_wide["loss"] == s_narrow["loss"], f"step {step}"
    plan = next(iter(t_wide._compiled._plans.values()))[0]
    assert {slot.dtype for slot in plan.slots} == {np.dtype(np.float32)}
    for name, param in wide.named_parameters():
        assert param.data.dtype == np.float32, name
        assert param.grad is None or param.grad.dtype == np.float32, name
    _assert_states_match(narrow, wide, "float64 vs float32 batches")


@pytest.mark.parametrize("input_dtype", ["float32", "float64", "uint8"])
@pytest.mark.parametrize("arch", ["vgg9", "resnet18"])
def test_compiled_engine_serves_float32(arch, input_dtype):
    """Any numeric request dtype is served through float32 plans: logits are
    float32 and equal those of the same request cast to float32 up front."""
    engine = InferenceEngine(_make_model(arch, "ptt"), compile=True)
    rng = np.random.default_rng(13)
    batch = rng.random((2, 3, 8, 8))
    if input_dtype == "uint8":
        batch = (batch * 255).astype(np.uint8)
    else:
        batch = batch.astype(input_dtype)
    want = engine.infer(batch.astype(np.float32))
    got = engine.infer(batch)
    assert got.dtype == np.float32 and want.dtype == np.float32
    np.testing.assert_array_equal(got, want)
    plan = next(iter(engine._compiled._plans.values()))[0]
    assert {slot.dtype for slot in plan.slots} == {np.dtype(np.float32)}


def test_engine_pad_buffers_are_float32_and_reused():
    """A batch of 3 pads to the 4-sample plan through one persistent float32
    buffer per padded shape, whose pad rows stay zero across requests.
    Images pad their leading batch axis, sequences the axis after time."""
    model = _make_model("vgg9", "ptt")
    engine = InferenceEngine(model, compile=True)
    eager = InferenceEngine(model)
    rng = np.random.default_rng(21)
    four = rng.random((4, 3, 8, 8)).astype(np.float32)
    three = rng.random((3, 3, 8, 8))
    engine.infer(four)
    assert engine._pad_buffers == {}                  # power of two: no pad
    first = engine.infer(three)
    assert len(engine._pad_buffers) == 1
    (shape, buffer), = engine._pad_buffers.items()
    assert shape == (4, 3, 8, 8) and buffer.dtype == np.float32
    engine.infer(four)
    second = engine.infer(three)
    assert engine._pad_buffers[shape] is buffer
    assert not buffer[3:].any()
    np.testing.assert_array_equal(first, second)
    np.testing.assert_allclose(second, eager.infer(three), atol=1e-5)

    sequence = encode_batch(three, TIMESTEPS)
    np.testing.assert_array_equal(engine.infer(sequence), second)
    assert engine._pad_buffers[(TIMESTEPS, 4, 3, 8, 8)].dtype == np.float32
    assert not engine._pad_buffers[(TIMESTEPS, 4, 3, 8, 8)][:, 3:].any()


# ---------------------------------------------------------------------------
# zero_grad / accumulate-on-first-write satellites
# ---------------------------------------------------------------------------


def test_compiled_grads_accumulate_across_steps_without_zero_grad():
    """Replays must accumulate into param.grad like eager backward does.

    Regression test: the write-back used to alias the plan's accumulation
    buffer, so the next replay overwrote the previous step's gradient.
    """
    from repro.snn.encoding import encode_batch
    from repro.snn.loss import mean_output_cross_entropy

    eager, compiled = _make_pair("vgg9", "ptt")
    step = CompiledTrainStep(compiled, mean_output_cross_entropy)
    for data, labels in _batches(steps=3):
        batch = encode_batch(data, TIMESTEPS)
        outputs = eager.run_timesteps(batch, step_mode="fused")
        mean_output_cross_entropy(outputs, labels).backward()
        step.run(batch, labels)          # no zero_grad in between
    for (name, p1), (_, p2) in zip(eager.named_parameters(), compiled.named_parameters()):
        np.testing.assert_allclose(p1.grad, p2.grad, atol=ATOL,
                                   err_msg=f"accumulated grad {name}")


def test_zero_grad_in_place_does_not_corrupt_shared_sibling_grad():
    """Regression: add shares one grad array between both parents; zero-filling
    one parent's (non-owned) grad must not zero the sibling's."""
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad is b.grad              # adopted by reference on both sides
    a.zero_grad(set_to_none=False)
    np.testing.assert_allclose(b.grad, np.ones(3))
    np.testing.assert_allclose(a.grad, np.zeros(3))
    # And the replacement array is private: further accumulation into `a`
    # leaves `b` untouched.
    (a * 1.0).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones(3))
    np.testing.assert_allclose(b.grad, np.ones(3))


def test_zero_grad_set_to_none_semantics():
    param = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    (param * 2.0).sum().backward()
    (param * 2.0).sum().backward()   # second accumulation -> owned buffer
    buffer = param.grad
    assert buffer is not None
    param.zero_grad(set_to_none=False)
    # Owned buffers are zero-filled in place (references stay valid)...
    assert param.grad is buffer and np.all(buffer == 0.0)
    # ...and set_to_none=True drops the buffer entirely.
    param.zero_grad()
    assert param.grad is None


def test_grad_accumulation_is_correct_and_inplace_after_ownership():
    param = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    for _ in range(3):
        (param * 3.0).sum().backward()
    np.testing.assert_allclose(param.grad, np.full(4, 9.0))
    # The shared upstream gradient handed to both parents of an add must not
    # be corrupted by in-place accumulation into either of them.
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    (a + b).sum().backward()
    (a * 1.0).sum().backward()
    np.testing.assert_allclose(a.grad, np.full(3, 2.0))
    np.testing.assert_allclose(b.grad, np.ones(3))


def _count_first_write_copies(monkeypatch) -> list:
    """Shapes of the tensors whose first gradient write copied the array."""
    accumulate = Tensor._accumulate_grad
    copies = []

    def spy(self, grad):
        first = self.grad is None
        accumulate(self, grad)
        if first and not np.shares_memory(self.grad, grad):
            copies.append(self.shape)

    monkeypatch.setattr(Tensor, "_accumulate_grad", spy)
    return copies


def test_first_write_adopts_contiguous_gradient_views(monkeypatch):
    """reshape and concatenate hand back C-contiguous views of the upstream
    gradient: the first write adopts them without a copy, and a later
    accumulation into one adopted view leaves its sibling's gradient intact."""
    copies = _count_first_write_copies(monkeypatch)
    rng = np.random.default_rng(22)
    a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
    weights = rng.standard_normal((4, 12)).astype(np.float32)
    joined = Tensor.concatenate([a.reshape(2, 12), b.reshape(2, 12)], axis=0)
    joined.backward(weights)
    assert copies == []
    assert a.grad.base is weights and b.grad.base is weights
    np.testing.assert_array_equal(a.grad, weights[:2].reshape(2, 3, 4))
    np.testing.assert_array_equal(b.grad, weights[2:].reshape(2, 3, 4))

    for _ in range(2):                             # allocate, then accumulate in place
        (a * 2.0).sum().backward()
    np.testing.assert_array_equal(a.grad, weights[:2].reshape(2, 3, 4) + 2.0 + 2.0)
    np.testing.assert_array_equal(b.grad, weights[2:].reshape(2, 3, 4))


def test_first_write_copies_non_contiguous_gradient_views(monkeypatch):
    """A transposed gradient view would change the layout downstream
    reductions see, so the first write still materialises it."""
    copies = _count_first_write_copies(monkeypatch)
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    weights = np.arange(6, dtype=np.float32).reshape(3, 2).copy()
    x.transpose(1, 0).backward(weights)
    assert copies == [(2, 3)]
    assert x.grad.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(x.grad, weights.T)


# ---------------------------------------------------------------------------
# DataLoader prefetch satellite
# ---------------------------------------------------------------------------


def _array_dataset(n=20, transform=None):
    rng = np.random.default_rng(21)
    return ArrayDataset(rng.random((n, 3, 6, 6)).astype(np.float32),
                        rng.integers(0, 4, n), transform=transform)


def test_prefetch_loader_is_deterministic_with_seed():
    dataset = _array_dataset()
    plain = DataLoader(dataset, batch_size=6, shuffle=True, seed=42)
    prefetched = DataLoader(dataset, batch_size=6, shuffle=True, seed=42, prefetch=True)
    for epoch in range(2):
        batches_plain = list(plain)
        batches_pre = list(prefetched)
        assert len(batches_plain) == len(batches_pre)
        for (d1, l1), (d2, l2) in zip(batches_plain, batches_pre):
            np.testing.assert_array_equal(d1, d2)
            np.testing.assert_array_equal(l1, l2)


def test_prefetch_loader_event_dataset_and_transform():
    rng = np.random.default_rng(3)
    dataset = EventDataset(rng.random((9, TIMESTEPS, 2, 6, 6)).astype(np.float32),
                           rng.integers(0, 3, 9),
                           transform=lambda s: s * 2.0)
    loader = DataLoader(dataset, batch_size=4, shuffle=False, prefetch=True)
    batches = list(loader)
    assert batches[0][0].shape == (TIMESTEPS, 4, 2, 6, 6)
    assert sum(b[0].shape[1] for b in batches) == 9


def test_prefetch_loader_propagates_worker_exception():
    class Exploding(ArrayDataset):
        def __getitem__(self, index):
            if index >= 4:
                raise RuntimeError("boom")
            return super().__getitem__(index)

    rng = np.random.default_rng(0)
    dataset = Exploding(rng.random((8, 1, 4, 4)).astype(np.float32),
                        rng.integers(0, 2, 8))
    loader = DataLoader(dataset, batch_size=4, shuffle=False, prefetch=True)
    with pytest.raises(RuntimeError, match="boom"):
        list(loader)


def test_prefetch_rejects_bad_depth():
    with pytest.raises(ValueError):
        DataLoader(_array_dataset(), prefetch_depth=0)


def test_training_with_prefetch_matches_plain_loader():
    dataset = _array_dataset(n=12)
    eager, compiled = _make_pair("vgg9", "ptt")
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=4, learning_rate=0.05, seed=5)
    t1, t2 = BPTTTrainer(eager, config), BPTTTrainer(compiled, config, compile=True)
    plain = DataLoader(dataset, batch_size=4, shuffle=True, seed=5)
    pre = DataLoader(dataset, batch_size=4, shuffle=True, seed=5, prefetch=True)
    r1 = t1.train_epoch(plain, epoch=0)
    r2 = t2.train_epoch(pre, epoch=0)
    assert abs(r1.loss - r2.loss) <= 1e-6
    assert r1.accuracy == r2.accuracy
