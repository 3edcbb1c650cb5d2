"""Tests for the plan-time graph optimizer (:mod:`repro.runtime.optimizer`).

Guarantees under test:

* **O1 is training-safe**: compiled O1 train steps match eager/O0 training
  bit-for-bit over several optimizer steps (losses, logits, gradients,
  parameters) — identity-pool elision is value-exact by construction, and
  every other kernel is the eager one.
* **O2 is inference-exact to tolerance**: the eval-BN fold stays within
  1e-6 of the O0 replay and removes every eval ``bn_seq`` node it folds;
  unmerged TT models serve at O2 exactly like their O0 replay.
* **Runtime integration**: zero steady-state arena allocations, re-capture
  on shape change, per-kernel profiling, optimizer reports in
  ``runtime_stats``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.conv import Conv2dFunction, ConvChannelsLastFunction, CrossConvFunction
from repro.autograd.ops import get_op
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
    """O1-compiled training equals O0 bit-for-bit over K steps incl. SGD: its
    one rewrite (identity-pool elision) is exact and its plans hold only the
    kernels O0 and eager run."""
    base, optimized = _make_pair(arch, variant)
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2, learning_rate=0.05)
    trainer_o0 = BPTTTrainer(base, config, compile=True, optimize="O0")
    trainer_o1 = BPTTTrainer(optimized, config, compile=True, optimize="O1")
    for step, (data, labels) in enumerate(_batches(steps=4)):
        s0 = trainer_o0.train_step(data, labels)
        s1 = trainer_o1.train_step(data, labels)
        assert s0["loss"] == s1["loss"], f"step {step}"
    for (name, p0), (_, p1) in zip(base.named_parameters(), optimized.named_parameters()):
        np.testing.assert_array_equal(p0.grad, p1.grad, err_msg=f"grad {name}")
        np.testing.assert_array_equal(p0.data, p1.data, err_msg=f"param {name}")
    report = _report(trainer_o1._compiled)
    assert report["level"] == "O1"
    assert report["frozen"] == 0 and report["folded_bn"] == 0
    assert report["nodes_after"] == report["nodes_before"] - 1      # the adaptive pool
    assert not any(node.op == "fn_cached" for node in _plan_nodes(trainer_o1._compiled))


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
    assert report["folded_bn"] == 0
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


@pytest.mark.parametrize("arch", ["vgg9", "resnet18"])
@pytest.mark.parametrize("variant", ["stt", "ptt", "htt"])
def test_o2_unmerged_tt_serve_matches_o0_and_eager(arch, variant):
    """An unmerged TT engine at O2 replays like its O0 replay and like the
    eager unmerged engine."""
    model = _make_model(arch, variant)
    _warm_stats(model)
    eager_engine = InferenceEngine(model, merge=False)
    engine_o0 = InferenceEngine(model, merge=False, compile=True, optimize="O0")
    engine_o2 = InferenceEngine(model, merge=False, compile=True, optimize="O2")
    rng = np.random.default_rng(6)
    for call in range(3):
        x = rng.random((2, 3, 8, 8)).astype(np.float32)
        logits_o2 = engine_o2.infer(x)
        np.testing.assert_allclose(logits_o2, engine_o0.infer(x), atol=ATOL,
                                   err_msg=f"call {call}")
        np.testing.assert_allclose(logits_o2, eager_engine.infer(x), atol=ATOL,
                                   err_msg=f"call {call}")
    assert _report(engine_o2._compiled)["folded_bn"] > 0


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
# elementwise chains and view graphs replay like eager
# ---------------------------------------------------------------------------


def test_elementwise_chain_forward_replays_like_eager():
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


def test_elementwise_chain_gradients_match_eager():
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


def test_duplicate_and_dead_views_replay_like_o0():
    rng = np.random.default_rng(10)
    linear = Linear(6, 6, rng=rng)

    def fn(t):
        # A reshape chain, a duplicate of its prefix and a dead branch
        # (unused tanh) all replay unchanged at O1.
        a = t.reshape(3, 2, 6).reshape(6, 6).reshape(2, 3, 6).reshape(6, 6)
        a.tanh()                       # dead
        b = t.reshape(3, 2, 6).reshape(6, 6)
        return linear(a + b)

    x = rng.standard_normal((6, 6)).astype(np.float32)
    baseline = CompiledForward(fn, optimize="O0")
    compiled = CompiledForward(fn, optimize="O1")
    baseline(x), compiled(x)
    np.testing.assert_allclose(compiled(x), baseline(x), atol=ATOL)


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
# identity-pool elision, frozen GEMM operands, input-grad skipping
# ---------------------------------------------------------------------------


def _plan_nodes(compiled):
    return next(iter(compiled._plans.values()))[0].nodes


def _avg_pool_count(compiled) -> int:
    return sum(count for key, count in _op_histogram(compiled).items() if "AvgPool" in key)


@pytest.mark.parametrize("layout", ["nchw", "channels_last"])
def test_identity_avg_pool_is_elided_and_replays_bit_equal(layout):
    """A 1x1/stride-1 average pool (the adaptive pool on a 1x1 map) is
    dropped at O1 and the replay stays bit-equal to eager."""
    pool = F.adaptive_avg_pool2d if layout == "nchw" else F.adaptive_avg_pool2d_cl

    def fn(t):
        return pool(t.tanh(), 1) * 2.0

    shape = (3, 5, 1, 1) if layout == "nchw" else (3, 1, 1, 5)
    x = np.random.default_rng(18).standard_normal(shape).astype(np.float32)
    baseline = CompiledForward(fn, optimize="O0")
    compiled = CompiledForward(fn, optimize="O1")
    baseline(x), compiled(x)
    out = compiled(x)
    with no_grad():
        want = fn(Tensor(x)).data
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(out, baseline(x))
    assert _avg_pool_count(baseline) == 1
    assert _avg_pool_count(compiled) == 0
    assert _report(compiled)["nodes_after"] == _report(compiled)["nodes_before"] - 1


@pytest.mark.parametrize("layout", ["nchw", "channels_last"])
def test_non_identity_avg_pool_is_kept(layout):
    """Pools that average more than one element are real work and stay."""
    pool = F.adaptive_avg_pool2d if layout == "nchw" else F.adaptive_avg_pool2d_cl
    shape = (2, 3, 4, 4) if layout == "nchw" else (2, 4, 4, 3)
    x = np.random.default_rng(19).standard_normal(shape).astype(np.float32)
    compiled = CompiledForward(lambda t: pool(t, 1), optimize="O1")
    compiled(x)
    out = compiled(x)
    with no_grad():
        want = pool(Tensor(x), 1).data
    np.testing.assert_allclose(out, want, atol=ATOL)
    assert _avg_pool_count(compiled) == 1


@pytest.mark.parametrize("arch", ["vgg9", "resnet18"])
def test_train_plan_elides_identity_pool_and_skips_input_grad(arch, monkeypatch):
    """On 8x8 inputs both models end on a 1x1 map: the O1 training plan drops
    the adaptive pool, the replayed backward of the convolution reading the
    network input returns no input gradient (at O0 and O1 alike), and
    gradients still equal the O0 replay's."""
    opdef = get_op("fn")
    kernel = opdef.backward
    conv_grads = []                 # (input needs a gradient, one was returned)

    def spy(grad, ins, out, saved, attrs, needs):
        grads = kernel(grad, ins, out, saved, attrs, needs)
        if attrs["cls"] in (ConvChannelsLastFunction, Conv2dFunction):
            conv_grads.append((needs[0], grads[0] is not None))
        return grads

    # Plans bind the op's backward kernel when they are built; every backward
    # below is a plan's (a capture step runs its backward through the plan).
    monkeypatch.setattr(opdef, "backward", spy)
    base, optimized = _make_pair(arch, "ptt")
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=2, learning_rate=0.05)
    trainer_o0 = BPTTTrainer(base, config, compile=True, optimize="O0")
    trainer_o1 = BPTTTrainer(optimized, config, compile=True, optimize="O1")
    for data, labels in _batches(steps=2):
        s0 = trainer_o0.train_step(data, labels)
        s1 = trainer_o1.train_step(data, labels)
        assert abs(s0["loss"] - s1["loss"]) <= ATOL
    for (name, p0), (_, p1) in zip(base.named_parameters(), optimized.named_parameters()):
        np.testing.assert_allclose(p0.grad, p1.grad, atol=ATOL, err_msg=f"grad {name}")
    assert _avg_pool_count(trainer_o0._compiled) == 1
    assert _avg_pool_count(trainer_o1._compiled) == 0
    # One stem convolution per step and trainer reads the network input.
    assert conv_grads.count((False, False)) == 2 * 2
    assert set(conv_grads) == {(False, False), (True, True)}


@pytest.mark.parametrize("optimize", ["O1", "O2"])
def test_frozen_gemm_operands_only_in_o2_serve_plans(optimize):
    """O2 no-grad plans give each channels-last conv one persistent context
    that gathers its GEMM operand once; O1 plans hold no such node.  Both
    serve the eager logits."""
    model = _make_model("vgg9", "ptt")
    _warm_stats(model)
    eager_engine = InferenceEngine(model)
    engine = InferenceEngine(model, compile=True, optimize=optimize)
    rng = np.random.default_rng(20)
    for call in range(3):
        x = rng.random((2, 3, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(engine.infer(x), eager_engine.infer(x),
                                   atol=MERGE_ATOL, err_msg=f"call {call}")
    nodes = _plan_nodes(engine._compiled)
    frozen = [node.attrs["ctx"] for node in nodes if node.op == "fn_cached"]
    report = _report(engine._compiled)
    assert report["frozen"] == len(frozen)
    if optimize == "O1":
        assert not frozen
        return
    assert frozen and all(ctx.freeze_weights for ctx in frozen)
    assert all(isinstance(ctx, (ConvChannelsLastFunction, CrossConvFunction))
               for ctx in frozen)
    assert any(isinstance(ctx, CrossConvFunction) for ctx in frozen)
    assert not any(node.op == "fn" and node.attrs["cls"] is ConvChannelsLastFunction
                   for node in nodes)
    assert not any(node.op == "cross_conv" for node in nodes)


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
    """A reshape that copies (non-viewable layout) must be recomputed every
    replay — the serving engine reuses one pad buffer per shape and rewrites
    it in place between replays, so a memoised copy would silently freeze the
    copy's first-replay contents."""
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
