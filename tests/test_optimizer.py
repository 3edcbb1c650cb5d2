"""Tests for the plan-time graph optimizer (:mod:`repro.runtime.optimizer`).

Guarantees under test:

* **O1 is training-safe**: compiled O1 train steps match eager/O0 training
  bit-for-bit over several optimizer steps (losses, logits, gradients,
  parameters) — the O1 passes are value-exact by construction.
* **O2 folds are inference-exact to tolerance**: eval-BN folding stays
  within 1e-6 of the O0 replay, TT pre-contraction within the same 1e-5
  bound the model-level Eq. 6 merge satisfies (``test_merge_equivalence``).
* **Structure**: folds remove the nodes they claim to remove; fusion,
  CSE/DCE and view collapse shrink the graph; invalid folds (stride-first
  TT layers) fall back to the partial tail fold.
* **Runtime integration**: zero steady-state arena allocations, re-capture
  on shape change, parallel no-grad replay equivalence, per-kernel
  profiling, optimizer reports in ``runtime_stats``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad
from repro.models.builder import convert_to_tt
from repro.models.resnet import spiking_resnet18
from repro.models.vgg import spiking_vgg9
from repro.nn.layers import BatchNorm2d, Conv2d, Linear, Sequential
from repro.runtime import CompiledForward, CompiledTrainStep, OPT_LEVELS
from repro.runtime.replay import _CompiledBase
from repro.serve.engine import InferenceEngine
from repro.snn.encoding import encode_batch
from repro.snn.loss import mean_output_cross_entropy
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer
from repro.tt.layers import HTTConv2d, PTTConv2d, STTConv2d

TIMESTEPS = 2
NUM_CLASSES = 4
ATOL = 1e-6
MERGE_ATOL = 1e-5          # same bound as tests/test_merge_equivalence.py


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
    eager = _make_model(arch, variant)
    other = _make_model(arch, variant)
    other.load_state_dict(eager.state_dict())
    return eager, other


def _batches(steps: int = 3, n: int = 2, size: int = 8, seed: int = 7):
    rng = np.random.default_rng(seed)
    return [(rng.random((n, 3, size, size)).astype(np.float32),
             rng.integers(0, NUM_CLASSES, n)) for _ in range(steps)]


def _warm_stats(model, steps: int = 2):
    """A couple of eager train steps so BN running stats are non-trivial."""
    trainer = BPTTTrainer(model, TrainingConfig(timesteps=TIMESTEPS, batch_size=2,
                                                learning_rate=0.05))
    for data, labels in _batches(steps, seed=11):
        trainer.train_step(data, labels)


def _op_histogram(compiled) -> dict:
    plan = next(iter(compiled._plans.values()))[0]
    counts: dict = {}
    for node in plan.nodes:
        key = node.op
        if node.op in ("fn", "fn_cached"):
            key = f"{node.op}:{node.attrs['cls'].__name__}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def _report(compiled) -> dict:
    return compiled.runtime_stats()["optimizer"]


# ---------------------------------------------------------------------------
# O1: training equivalence (gradients included)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ["vgg9", "resnet18"])
@pytest.mark.parametrize("variant", ["ptt", "htt"])
def test_o1_train_step_matches_o0_with_grads(arch, variant):
    """O1-compiled training tracks O0 to <= 1e-6 over K steps incl. SGD."""
    base, optimized = _make_pair(arch, variant)
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2, learning_rate=0.05)
    trainer_o0 = BPTTTrainer(base, config, compile=True, optimize="O0")
    trainer_o1 = BPTTTrainer(optimized, config, compile=True, optimize="O1")
    for step, (data, labels) in enumerate(_batches(steps=4)):
        s0 = trainer_o0.train_step(data, labels)
        s1 = trainer_o1.train_step(data, labels)
        assert abs(s0["loss"] - s1["loss"]) <= ATOL, f"step {step}"
    for (name, p0), (_, p1) in zip(base.named_parameters(), optimized.named_parameters()):
        np.testing.assert_allclose(p0.grad, p1.grad, atol=ATOL, err_msg=f"grad {name}")
        np.testing.assert_allclose(p0.data, p1.data, atol=ATOL, err_msg=f"param {name}")
    report = _report(trainer_o1._compiled)
    assert report["level"] == "O1"
    assert report["nodes_after"] < report["nodes_before"]
    assert report["specialized"] > 0


def test_o1_train_matches_pure_eager(mode="fused"):
    """O1 also matches the *eager* engine (not just the O0 replay)."""
    eager, optimized = _make_pair("vgg9", "ptt")
    step = CompiledTrainStep(optimized, mean_output_cross_entropy, optimize="O1")
    for data, labels in _batches(steps=3):
        batch = encode_batch(data, TIMESTEPS)
        eager.zero_grad()
        outputs = eager.run_timesteps(batch, step_mode=mode)
        mean_output_cross_entropy(outputs, labels).backward()
        optimized.zero_grad()
        loss, logits, _ = step.run(batch, labels)
        for got, want in zip(logits, outputs):
            np.testing.assert_allclose(got, want.data, atol=ATOL)
    for (name, p0), (_, p1) in zip(eager.named_parameters(), optimized.named_parameters()):
        np.testing.assert_allclose(p0.grad, p1.grad, atol=ATOL, err_msg=f"grad {name}")


def test_o2_training_plan_degrades_to_o1():
    """O2 on a training capture applies only the training-safe passes."""
    base, optimized = _make_pair("vgg9", "ptt")
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2, learning_rate=0.05)
    trainer_o0 = BPTTTrainer(base, config, compile=True, optimize="O0")
    trainer_o2 = BPTTTrainer(optimized, config, compile=True, optimize="O2")
    for data, labels in _batches(steps=3):
        s0 = trainer_o0.train_step(data, labels)
        s2 = trainer_o2.train_step(data, labels)
        assert abs(s0["loss"] - s2["loss"]) <= ATOL
    report = _report(trainer_o2._compiled)
    assert report["folded_bn"] == 0 and report["folded_tt"] == 0
    for (name, p0), (_, p2) in zip(base.named_parameters(), optimized.named_parameters()):
        np.testing.assert_allclose(p0.grad, p2.grad, atol=ATOL, err_msg=name)


# ---------------------------------------------------------------------------
# O2: serving equivalence and constant folding
# ---------------------------------------------------------------------------


def test_o2_serve_replays_match_o0_and_eager():
    model = _make_model("vgg9", "ptt")
    _warm_stats(model)
    eager_engine = InferenceEngine(model)
    engine_o0 = InferenceEngine(model, compile=True, optimize="O0")
    engine_o2 = InferenceEngine(model, compile=True, optimize="O2")
    rng = np.random.default_rng(5)
    for call in range(4):
        x = rng.random((2, 3, 8, 8)).astype(np.float32)
        logits_eager = eager_engine.infer(x)
        logits_o0 = engine_o0.infer(x)
        logits_o2 = engine_o2.infer(x)
        # call 0 captures (eager under the trace); later calls replay the
        # optimized plan — the interesting comparison.
        np.testing.assert_allclose(logits_o2, logits_o0, atol=ATOL,
                                   err_msg=f"call {call}")
        np.testing.assert_allclose(logits_o2, logits_eager, atol=MERGE_ATOL)
    report = _report(engine_o2._compiled)
    assert report["folded_bn"] > 0
    hist = _op_histogram(engine_o2._compiled)
    assert not any(key.startswith("bn_seq") for key in hist), hist


def test_eval_bn_folds_into_conv_module():
    rng = np.random.default_rng(2)
    module = Sequential(Conv2d(3, 6, kernel_size=3, padding=1, rng=rng),
                        BatchNorm2d(6))
    # Non-trivial statistics and affine parameters.
    module[1].running_mean.data[...] = rng.standard_normal(6).astype(np.float32)
    module[1].running_var.data[...] = (0.5 + rng.random(6)).astype(np.float32)
    module[1].weight.data[...] = (1 + 0.3 * rng.standard_normal(6)).astype(np.float32)
    module[1].bias.data[...] = rng.standard_normal(6).astype(np.float32)
    module.eval()

    def fn(t):
        # Sequence layout so the fused bn_seq node is captured.
        folded = module[0].forward_sequence(t)
        return module[1].forward_sequence(folded)

    x = rng.random((TIMESTEPS, 2, 8, 8, 3)).astype(np.float32)
    compiled = CompiledForward(fn, optimize="O2")
    compiled(x)                      # capture
    out = compiled(x)                # folded replay
    with no_grad():
        want = fn(Tensor(x)).data
    np.testing.assert_allclose(out, want, atol=ATOL)
    assert _report(compiled)["folded_bn"] == 1
    assert not any(key.startswith("bn_seq") for key in _op_histogram(compiled))


@pytest.mark.parametrize("cls", [STTConv2d, PTTConv2d])
def test_tt_layer_folds_to_single_conv(cls):
    rng = np.random.default_rng(3)
    layer = cls(6, 10, kernel_size=3, rank=3, rng=rng)
    layer.eval()
    compiled = layer.compile(optimize="O2")
    x = rng.standard_normal((4, 6, 9, 9)).astype(np.float32)
    compiled(x)
    out = compiled(x)
    with no_grad():
        want = layer(Tensor(x)).data
    np.testing.assert_allclose(out, want, atol=MERGE_ATOL)
    assert _report(compiled)["folded_tt"] == 1
    hist = _op_histogram(compiled)
    assert hist.get("fn_cached:Conv2dFunction") == 1     # four convs became one


def test_tt_fold_strided_last_is_exact_and_strided_first_folds_tail():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 6, 8, 8)).astype(np.float32)
    # stride on the last 1x1: full fold, exact merge semantics.
    last = PTTConv2d(6, 8, kernel_size=3, rank=3, stride=2, stride_mode="last", rng=rng)
    last.eval()
    compiled = last.compile(optimize="O2")
    compiled(x)
    out = compiled(x)
    with no_grad():
        want = last(Tensor(x)).data
    np.testing.assert_allclose(out, want, atol=MERGE_ATOL)
    assert _report(compiled)["folded_tt"] == 1
    assert _op_histogram(compiled).get("fn_cached:Conv2dFunction") == 1

    # stride on the first 1x1: the full merge is inexact, so only the
    # (exact) conv2/conv3/conv4 tail is folded — two convolutions remain.
    first = PTTConv2d(6, 8, kernel_size=3, rank=3, stride=2, stride_mode="first", rng=rng)
    first.eval()
    compiled = first.compile(optimize="O2")
    compiled(x)
    out = compiled(x)
    with no_grad():
        want = first(Tensor(x)).data
    np.testing.assert_allclose(out, want, atol=MERGE_ATOL)
    assert _op_histogram(compiled).get("fn_cached:Conv2dFunction") == 2


def test_htt_sequence_folds_full_tail_and_half_path():
    rng = np.random.default_rng(5)
    layer = HTTConv2d(6, 8, kernel_size=3, rank=3, timesteps=4, schedule="FFHH", rng=rng)
    layer.eval()

    def fn(t):
        layer.reset_time()
        return layer.forward_sequence(t)

    x = rng.standard_normal((4, 2, 7, 7, 6)).astype(np.float32)
    compiled = CompiledForward(fn, optimize="O2")
    compiled(x)
    out = compiled(x)
    layer.reset_time()
    with no_grad():
        want = fn(Tensor(x)).data
    np.testing.assert_allclose(out, want, atol=MERGE_ATOL)
    assert _report(compiled)["folded_tt"] >= 1        # the full-branch tail


def test_pad2d_then_conv_replays_like_eager():
    rng = np.random.default_rng(6)
    conv = Conv2d(3, 5, kernel_size=3, padding=0, rng=rng)
    linear = Linear(5 * 8 * 8, NUM_CLASSES, rng=rng)

    def forward(t):
        padded = F.pad2d(t, (1, 1))
        out = conv(padded)
        return linear(out.reshape(out.shape[0], -1))

    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    compiled = CompiledForward(forward, optimize="O1")
    compiled(x)
    out = compiled(x)
    with no_grad():
        want = forward(Tensor(x)).data
    np.testing.assert_allclose(out, want, atol=ATOL)


# ---------------------------------------------------------------------------
# fusion / CSE / DCE / view collapse
# ---------------------------------------------------------------------------


def test_elementwise_chain_fusion_forward_and_backward():
    rng = np.random.default_rng(7)
    weight = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)

    def chain(t):
        return ((t @ weight).tanh() * 2.0 + 0.5).exp().log()

    x = rng.standard_normal((3, 4)).astype(np.float32)
    compiled = CompiledForward(lambda t: chain(t), optimize="O1")
    compiled(x)
    out = compiled(x)
    with no_grad():
        want = chain(Tensor(x)).data
    np.testing.assert_allclose(out, want, atol=ATOL)
    report = _report(compiled)
    assert report["fused_chains"] >= 1 and report["fused_ops"] >= 3
    assert "ew_chain" in _op_histogram(compiled)


def test_fused_chain_gradients_match_eager():
    class ChainModel:
        """Minimal duck-typed model for CompiledTrainStep."""

        def __init__(self, seed=8):
            rng = np.random.default_rng(seed)
            self.weight = Tensor(rng.standard_normal((6, NUM_CLASSES)).astype(np.float32) * 0.3,
                                 requires_grad=True)
            self.training = True
            self.timesteps = 1
            self.step_mode = "fused"

        def parameters(self):
            return [self.weight]

        def run_timesteps(self, batch, step_mode=None):
            flat = batch.reshape(batch.shape[0] * batch.shape[1], -1)
            logits = (flat @ self.weight).tanh() * 1.5 + 0.1
            return [logits]

    eager_model = ChainModel()
    compiled_model = ChainModel()
    compiled_model.weight.data[...] = eager_model.weight.data
    step = CompiledTrainStep(compiled_model, mean_output_cross_entropy, optimize="O1")
    rng = np.random.default_rng(9)
    for _ in range(3):
        batch = rng.random((1, 3, 6)).astype(np.float32)
        labels = rng.integers(0, NUM_CLASSES, 3)
        eager_model.weight.zero_grad()
        outputs = eager_model.run_timesteps(Tensor(batch))
        mean_output_cross_entropy(outputs, labels).backward()
        compiled_model.weight.zero_grad()
        loss, _, _ = step.run(batch, labels)
        np.testing.assert_allclose(compiled_model.weight.grad, eager_model.weight.grad,
                                   atol=ATOL)
    assert _report(step)["fused_chains"] >= 1


def test_view_chain_collapse_and_cse_and_dce():
    rng = np.random.default_rng(10)
    linear = Linear(6, 6, rng=rng)

    def fn(t):
        # reshape∘reshape∘reshape collapses; the two identical reshape
        # nodes CSE; the dead branch (unused tanh) is eliminated.
        a = t.reshape(3, 2, 6).reshape(6, 6).reshape(2, 3, 6).reshape(6, 6)
        a.tanh()                       # dead
        b = t.reshape(3, 2, 6).reshape(6, 6)
        return linear(a + b)

    x = rng.standard_normal((6, 6)).astype(np.float32)
    baseline = CompiledForward(fn, optimize="O0")
    compiled = CompiledForward(fn, optimize="O1")
    baseline(x), compiled(x)
    np.testing.assert_allclose(compiled(x), baseline(x), atol=ATOL)
    report = _report(compiled)
    assert report["views_collapsed"] >= 2
    assert report["cse_removed"] >= 1
    assert report["dce_removed"] >= 1
    plan_o0 = next(iter(baseline._plans.values()))[0]
    plan_o1 = next(iter(compiled._plans.values()))[0]
    assert len(plan_o1.nodes) < len(plan_o0.nodes)


def test_o1_fused_forward_replays_like_eager():
    model = _make_model("vgg9", "ptt")
    model.eval()
    compiled = model.compile(fn=lambda t: model.run_timesteps(t, step_mode="fused"),
                             optimize="O1")
    rng = np.random.default_rng(11)
    batch = rng.random((TIMESTEPS, 2, 3, 8, 8)).astype(np.float32)
    compiled(batch)
    outs = compiled(batch)
    with no_grad():
        want = model.run_timesteps(batch, step_mode="fused")
    for got, expect in zip(outs, want):
        np.testing.assert_allclose(got, expect.data, atol=ATOL)


# ---------------------------------------------------------------------------
# runtime integration: arena, recapture, stats, profiling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("optimize", ["O1", "O2"])
def test_optimized_plans_keep_zero_steady_state_allocations(optimize):
    _, model = _make_pair("vgg9", "ptt")
    trainer = BPTTTrainer(model, TrainingConfig(timesteps=TIMESTEPS, batch_size=2),
                          compile=True, optimize=optimize)
    batches = _batches(steps=6)
    for data, labels in batches[:3]:
        trainer.train_step(data, labels)
    arena = trainer._compiled.arena
    allocated = arena.allocated
    for data, labels in batches[3:]:
        trainer.train_step(data, labels)
    assert arena.allocated == allocated
    assert arena.stats()["bytes_high_water"] > 0


def test_shape_change_recaptures_optimized_plans():
    model = _make_model("vgg9", "ptt")
    model.eval()
    compiled = model.compile(fn=lambda t: model.run_timesteps(t, step_mode="fused"),
                             optimize="O2")
    rng = np.random.default_rng(14)
    for n in (1, 2, 1):
        batch = rng.random((TIMESTEPS, n, 3, 8, 8)).astype(np.float32)
        outs = compiled(batch)
        with no_grad():
            want = model.run_timesteps(batch, step_mode="fused")
        for got, expect in zip(outs, want):
            np.testing.assert_allclose(got, expect.data, atol=ATOL)
    assert compiled.capture_count == 2
    assert compiled.replay_count == 1


def test_runtime_stats_carry_optimizer_report_and_kernels():
    _, model = _make_pair("vgg9", "ptt")
    trainer = BPTTTrainer(model, TrainingConfig(timesteps=TIMESTEPS, batch_size=2),
                          compile=True, optimize="O1", profile=True)
    for data, labels in _batches(steps=3):
        trainer.train_step(data, labels)
    from repro.metrics.profiler import summarize_runtime

    report = summarize_runtime(trainer._compiled, top_k=5)
    assert report["optimize"] == "O1"
    assert report["optimizer"]["level"] == "O1"
    hot = report["hot_ops"]
    assert 0 < len(hot) <= 5
    assert all({"op", "seconds", "calls", "share"} <= set(entry) for entry in hot)
    assert hot[0]["seconds"] >= hot[-1]["seconds"]
    # Both forward and backward kernels are attributed.
    all_kernels = report["kernels"]
    assert any(label.startswith("bwd:") for label in all_kernels)


def test_invalid_optimize_level_rejected():
    model = _make_model("vgg9", "ptt")
    with pytest.raises(ValueError, match="optimize"):
        CompiledTrainStep(model, mean_output_cross_entropy, optimize="O3")
    with pytest.raises(ValueError, match="optimize"):
        model.compile(optimize="fast")
    assert OPT_LEVELS == ("O0", "O1", "O2")
    assert isinstance(CompiledForward(lambda t: t, optimize="O2"), _CompiledBase)


def test_adopted_engine_defaults_to_live_parameter_plans():
    """An engine built with ``copy_model=False`` serves the *caller's* model,
    which may keep training — so the compiled default drops to O1 (live
    parameter reads) and weight updates reach already-captured plans."""
    model = _make_model("vgg9", "ptt")
    model_copy = _make_model("vgg9", "ptt")
    model_copy.load_state_dict(model.state_dict())
    engine = InferenceEngine(model, merge=False, copy_model=False, compile=True)
    assert engine._compiled.optimize == "O1"
    owned = InferenceEngine(model_copy, merge=False, compile=True)
    assert owned._compiled.optimize == "O2"
    x = np.random.default_rng(17).random((2, 3, 8, 8)).astype(np.float32)
    engine.infer(x)
    engine.infer(x)                       # replay with original weights
    for param in model.parameters():
        param.data += 0.05                # "training" continues on the adoptee
    with no_grad():
        want = InferenceEngine(model, merge=False, copy_model=False).infer(x)
    np.testing.assert_allclose(engine.infer(x), want, atol=ATOL)


def test_cached_views_track_in_place_input_mutation():
    """Regression: a reshape that copies (non-viewable layout) must never be
    cached by identity — the serving engine reuses one pad buffer per shape
    and rewrites it in place between replays, which would silently freeze
    the copy's first-replay contents."""
    def fn(t):
        return (t.transpose(1, 0, 2).reshape(6, 4) * 2.0).tanh()

    compiled = CompiledForward(fn, optimize="O2")
    buffer = np.random.default_rng(16).random((4, 6, 1)).astype(np.float32)
    for _ in range(4):                        # capture + replays, same object
        buffer[...] = np.random.default_rng(int(buffer.sum() * 1e4) % 1000) \
            .random(buffer.shape).astype(np.float32)
        out = compiled(buffer)
        with no_grad():
            want = fn(Tensor(buffer.copy())).data
        np.testing.assert_allclose(out, want, atol=ATOL)


def test_invalidate_releases_optimized_plans_and_recaptures():
    rng = np.random.default_rng(15)
    module = Sequential(Linear(5, 8, rng=rng), Linear(8, 3, rng=rng))
    module.eval()
    compiled = module.compile(optimize="O1")
    x = rng.standard_normal((3, 5)).astype(np.float32)
    compiled(x)
    compiled(x)
    compiled.invalidate()
    assert compiled.plan_count == 0
    np.testing.assert_allclose(compiled(x), module(Tensor(x)).data, atol=ATOL)
