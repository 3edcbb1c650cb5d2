"""Plan-time code generation for the numba backend's fused graph nodes.

Emits ONE specialized source function per ``ew_chain`` node and per
LIF-recurrence node of an optimized capture, with everything the generic
registry kernels look up per replay — the step program, shapes, dtypes,
neuron constants, branch structure (hard/soft reset, detach, surrogate
width) — baked into the source at plan time.

The sources are flat scalar loops meant for ``@njit`` compilation — a
single pass per element with zero intermediate arrays (the big win over a
sequence of ufunc dispatches).  Emission is restricted to uniform-shape
chains (every step produces the output shape; externals are same-shape or
scalar) — the ``numba`` backend declines anything else, falling back per
node.  The emitted source is also plain valid Python, which is how the test
suite checks its semantics against the reference kernels on machines
without numba.

:func:`verify_kernel` runs a candidate kernel against the registry
reference on the captured arrays (forward, and backward when the node is on
the gradient path) — backends decline any node whose specialized kernel
does not reproduce the reference within dtype tolerance, so a codegen bug
degrades to the NumPy path instead of corrupting a plan.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import _unbroadcast

__all__ = [
    "UnsupportedNode",
    "chain_program",
    "lif_config",
    "emit_chain_numba",
    "emit_lif_numba",
    "compile_python",
    "verify_kernel",
]


class UnsupportedNode(Exception):
    """The node's program is outside what this emitter specializes."""


#: ops the elementwise-chain emitters understand (the optimizer's _FUSIBLE set)
CHAIN_OPS = {"add", "mul", "div", "neg", "exp", "log", "sqrt", "tanh",
             "sigmoid", "relu", "abs", "clip", "pow"}

#: per-dtype (rtol, atol) used by plan-time verification
VERIFY_TOLERANCE = {
    "float32": (1e-4, 1e-5),
    "float64": (1e-7, 1e-10),
}


# ---------------------------------------------------------------------------
# program extraction
# ---------------------------------------------------------------------------


def chain_program(node, slots) -> Dict[str, object]:
    """Normalize an ``ew_chain`` node into an emitter-friendly description."""
    if node.op != "ew_chain":
        raise UnsupportedNode(f"not an ew_chain node: {node.op}")
    steps: List[Dict[str, object]] = []
    for raw in node.attrs["prog"]:
        op = raw["op"]
        if op not in CHAIN_OPS:
            raise UnsupportedNode(f"chain step op {op!r}")
        step: Dict[str, object] = {
            "op": op,
            "ins": tuple(raw["ins"]),
            "shape": tuple(raw["shape"]),
            "dtype": np.dtype(raw["dtype"]),
        }
        if op == "pow":
            step["exponent"] = raw["attrs"]["exponent"]
        elif op == "clip":
            low, high = raw["attrs"]["low"], raw["attrs"]["high"]
            if low is None or high is None:
                raise UnsupportedNode("clip with an open bound")
            step["low"], step["high"] = low, high
        steps.append(step)
    if not steps:
        raise UnsupportedNode("empty chain program")
    return {
        "steps": steps,
        "n_inputs": len(node.inputs),
        "in_shapes": [tuple(slots[i].shape) for i in node.inputs],
        "in_dtypes": [np.dtype(slots[i].dtype) for i in node.inputs],
        "out_shape": steps[-1]["shape"],
        "out_dtype": steps[-1]["dtype"],
    }


def lif_config(node, slots) -> Dict[str, object]:
    """Extract the baked constants of a specialized fused-LIF node.

    Only ``fn_cached`` nodes (O1+ specialization) with a rectangular
    surrogate and no carried-in membrane are supported — everything else
    (arctan/sigmoid surrogates, streaming state) stays on the reference
    kernel.
    """
    from repro.snn.neurons import SurrogateRectangular, _FusedLIFSequence

    if node.op != "fn_cached" or node.attrs.get("cls") is not _FusedLIFSequence:
        raise UnsupportedNode("not a specialized fused-LIF node")
    ctx = node.attrs["ctx"]
    if not isinstance(ctx.surrogate, SurrogateRectangular):
        raise UnsupportedNode(f"surrogate {type(ctx.surrogate).__name__}")
    if ctx.initial_membrane is not None:
        raise UnsupportedNode("carried-in initial membrane")
    if len(node.inputs) != 1:
        raise UnsupportedNode("fused LIF expects exactly one input")
    slot = slots[node.inputs[0]]
    shape = tuple(slot.shape)
    if len(shape) < 2:
        raise UnsupportedNode(f"LIF input must be (T, ...), got {shape}")
    return {
        "shape": shape,
        "timesteps": int(shape[0]),
        "frame": shape[1:],
        "size": int(np.prod(shape[1:], dtype=np.int64)),
        "dtype": np.dtype(slot.dtype),
        "tau": float(ctx.tau_m),
        "vth": float(ctx.v_threshold),
        "width": float(ctx.surrogate.width),
        "hard": bool(ctx.hard_reset),
        "detach": bool(ctx.detach_reset),
    }


# ---------------------------------------------------------------------------
# numba-mode emission (flat scalar loops)
# ---------------------------------------------------------------------------


def _const_prefix(dtype) -> List[str]:
    """Typed-constant header so float32 kernels compute in float32."""
    name = "np.float32" if np.dtype(dtype) == np.float32 else "np.float64"
    return [f"DT = {name}", "ZERO = DT(0.0)", "ONE = DT(1.0)", ""]


def _classify_chain_inputs(program) -> List[str]:
    """``'array'`` / ``'scalar'`` per external input, or raise if unsupported."""
    out_shape = program["out_shape"]
    out_dtype = program["out_dtype"]
    kinds = []
    for shape, dtype in zip(program["in_shapes"], program["in_dtypes"]):
        if dtype != out_dtype:
            raise UnsupportedNode(f"mixed chain dtypes {dtype}/{out_dtype}")
        if int(np.prod(shape, dtype=np.int64)) == 1:
            kinds.append("scalar")
        elif tuple(shape) == tuple(out_shape):
            kinds.append("array")
        else:
            raise UnsupportedNode(f"broadcast input {shape} vs out {out_shape}")
    for step in program["steps"]:
        if tuple(step["shape"]) != tuple(out_shape):
            raise UnsupportedNode(
                f"non-uniform step shape {step['shape']} vs {out_shape}")
        if step["dtype"] != out_dtype:
            raise UnsupportedNode("non-uniform step dtype")
    return kinds


def _nb_operand(step, index: int, kinds) -> Tuple[str, Optional[str]]:
    names = []
    for spec in step["ins"]:
        if spec < 0:
            names.append(f"v{index - 1}")
        elif kinds[spec] == "scalar":
            names.append(f"x{spec}")
        else:
            names.append(f"x{spec}[i]")
    return names[0], (names[1] if len(names) > 1 else None)


def _nb_fwd_expr(op, step, a, b) -> str:
    if op == "add":
        return f"{a} + {b}"
    if op == "mul":
        return f"{a} * {b}"
    if op == "div":
        return f"{a} / {b}"
    if op == "neg":
        return f"-{a}"
    if op == "exp":
        return f"math.exp({a})"
    if op == "log":
        return f"math.log({a})"
    if op == "sqrt":
        return f"math.sqrt({a})"
    if op == "tanh":
        return f"math.tanh({a})"
    if op == "sigmoid":
        return f"ONE / (ONE + math.exp(-({a})))"
    if op == "relu":
        return f"({a} if {a} > ZERO else ZERO)"
    if op == "abs":
        return f"abs({a})"
    if op == "clip":
        lo, hi = f"DT({step['low']!r})", f"DT({step['high']!r})"
        return f"({lo} if {a} < {lo} else ({hi} if {a} > {hi} else {a}))"
    if op == "pow":
        return f"{a} ** DT({step['exponent']!r})"
    raise UnsupportedNode(op)  # pragma: no cover - guarded by chain_program


def _nb_grad_exprs(op, step, a, b, out, g) -> List[str]:
    if op == "add":
        return [g, g]
    if op == "mul":
        return [f"{g} * {b}", f"{g} * {a}"]
    if op == "div":
        return [f"{g} / {b}", f"-{g} * {a} / ({b} * {b})"]
    if op == "neg":
        return [f"-{g}"]
    if op == "exp":
        return [f"{g} * {out}"]
    if op == "log":
        return [f"{g} / {a}"]
    if op == "sqrt":
        return [f"{g} * DT(0.5) / ({out} if {out} > DT(1e-12) else DT(1e-12))"]
    if op == "tanh":
        return [f"{g} * (ONE - {out} * {out})"]
    if op == "sigmoid":
        return [f"{g} * {out} * (ONE - {out})"]
    if op == "relu":
        return [f"({g} if {a} > ZERO else ZERO)"]
    if op == "abs":
        return [f"({g} if {a} > ZERO else (-{g} if {a} < ZERO else ZERO))"]
    if op == "clip":
        lo, hi = f"DT({step['low']!r})", f"DT({step['high']!r})"
        return [f"({g} if ({a} >= {lo} and {a} <= {hi}) else ZERO)"]
    if op == "pow":
        e = f"DT({step['exponent']!r})"
        return [f"{g} * {e} * {a} ** ({e} - ONE)"]
    raise UnsupportedNode(op)  # pragma: no cover - guarded by chain_program


def emit_chain_numba(program, needs) -> Tuple[str, List[str]]:
    """Flat-loop source for a uniform-shape chain; returns ``(source, kinds)``.

    ``cg_fwd(x0.., b0..)`` computes all steps in one pass per element,
    saving each step value into its (raveled) buffer; ``cg_bwd(g, x0..,
    b0.., gx..)`` replays the chain rule per element with scalar
    accumulators for size-1 externals.  Raises :class:`UnsupportedNode`
    for broadcast chains (the numba backend then falls back per node).
    """
    kinds = _classify_chain_inputs(program)
    steps = program["steps"]
    n_inputs = program["n_inputs"]
    last = len(steps) - 1

    xs = [f"x{k}" for k in range(n_inputs)]
    bufs = [f"b{i}" for i in range(len(steps))]
    lines = list(_const_prefix(program["out_dtype"]))
    lines.append(f"def cg_fwd({', '.join(xs + bufs)}):")
    lines.append(f"    n = b{last}.shape[0]")
    lines.append("    for i in range(n):")
    for index, step in enumerate(steps):
        a, b = _nb_operand(step, index, kinds)
        lines.append(f"        v{index} = {_nb_fwd_expr(step['op'], step, a, b)}")
        lines.append(f"        b{index}[i] = v{index}")
    lines.append("")

    grad_args = [f"gx{k}" for k in range(n_inputs) if needs[k]]
    lines.append(f"def cg_bwd({', '.join(['g'] + xs + bufs + grad_args)}):")
    lines.append("    n = g.shape[0]")
    for k in range(n_inputs):
        if needs[k] and kinds[k] == "scalar":
            lines.append(f"    acc{k} = ZERO")
    lines.append("    for i in range(n):")
    lines.append("        gc = g[i]")
    seen_counts = [0] * n_inputs
    for index in range(len(steps) - 1, -1, -1):
        step = steps[index]
        # Forward VALUES of this step's inputs, read back from the saved
        # step buffers / external arrays.
        names = []
        for spec in step["ins"]:
            if spec < 0:
                names.append(f"b{index - 1}[i]")
            elif kinds[spec] == "scalar":
                names.append(f"x{spec}")
            else:
                names.append(f"x{spec}[i]")
        a, b = names[0], (names[1] if len(names) > 1 else None)
        exprs = _nb_grad_exprs(step["op"], step, a, b, f"b{index}[i]", "gc")
        thread_expr = None
        for position, spec in enumerate(step["ins"]):
            if spec < 0:
                thread_expr = exprs[position]
                continue
            if not needs[spec]:
                continue
            if kinds[spec] == "scalar":
                lines.append(f"        acc{spec} = acc{spec} + ({exprs[position]})")
            elif seen_counts[spec]:
                lines.append(f"        gx{spec}[i] = gx{spec}[i] + ({exprs[position]})")
            else:
                lines.append(f"        gx{spec}[i] = {exprs[position]}")
            seen_counts[spec] += 1
        if index > 0:
            lines.append(f"        gc = {thread_expr}")
    for k in range(n_inputs):
        if needs[k] and kinds[k] == "scalar":
            lines.append(f"    gx{k}[0] = acc{k}")
    return "\n".join(lines) + "\n", kinds


def emit_lif_numba(cfg) -> str:
    """Flat-loop LIF source: recurrence per element with the membrane in a
    register, surrogate-gradient BPTT fused into one backward loop."""
    timesteps = cfg["timesteps"]
    tau, vth, width = cfg["tau"], cfg["vth"], cfg["width"]
    hard, detach = cfg["hard"], cfg["detach"]
    lines = list(_const_prefix(cfg["dtype"]))
    lines += [f"TAU = DT({tau!r})", f"VTH = DT({vth!r})",
              f"HALF = DT({width / 2.0!r})",
              "DIN = ONE / DT(%r)" % width if width != 1.0 else "DIN = ONE", ""]

    def _fwd(name: str, save: bool) -> None:
        args = "cur, spk, mem" if save else "cur, spk"
        lines.append(f"def {name}({args}):")
        lines.append("    M = cur.shape[1]")
        lines.append("    for j in range(M):")
        lines.append("        post = ZERO")
        lines.append(f"        for t in range({timesteps}):")
        lines.append("            m = post * TAU + cur[t, j]")
        lines.append("            s = ONE if m >= VTH else ZERO")
        lines.append("            spk[t, j] = s")
        if save:
            lines.append("            mem[t, j] = m")
        if hard:
            lines.append("            post = m * (ONE - s)")
        else:
            lines.append("            post = m - s * VTH")
        lines.append("")

    _fwd("lif_fwd", save=True)
    _fwd("lif_fwd_infer", save=False)
    lines.append("def lif_bwd(g, spk, mem, gin):")
    lines.append("    M = g.shape[1]")
    lines.append("    for j in range(M):")
    lines.append("        gpost = ZERO")
    lines.append(f"        for t in range({timesteps - 1}, -1, -1):")
    lines.append("            m = mem[t, j]")
    lines.append("            gs = g[t, j]")
    if not detach:
        if hard:
            lines.append("            gs = gs - gpost * m")
        else:
            lines.append("            gs = gs - gpost * VTH")
    lines.append("            d = DIN if abs(m - VTH) < HALF else ZERO")
    lines.append("            gm = gs * d")
    if hard:
        lines.append("            gm = gm + gpost * (ONE - spk[t, j])")
    else:
        lines.append("            gm = gm + gpost")
    lines.append("            gin[t, j] = gm")
    lines.append("            gpost = gm * TAU")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def compile_python(source: str) -> Dict[str, object]:
    """``exec`` a generated source; returns its function namespace."""
    env: Dict[str, object] = {"np": np, "math": math}
    exec(compile(source, "<repro-codegen>", "exec"), env)
    return env


# ---------------------------------------------------------------------------
# plan-time verification against the reference kernels
# ---------------------------------------------------------------------------


def _verify_grad_pair(ref, nat, slot_shape, dtype, rtol, atol) -> bool:
    if ref is None or nat is None:
        return ref is None and nat is None
    ref = _unbroadcast(np.asarray(ref, dtype=dtype), slot_shape)
    nat = _unbroadcast(np.asarray(nat, dtype=dtype), slot_shape)
    return bool(np.allclose(nat, ref, rtol=rtol, atol=atol))


def verify_kernel(kernel, node, slots, needs, check_backward: bool) -> bool:
    """Run ``kernel`` against the registry reference on the capture arrays.

    Returns whether the forward output (and, on gradient paths, every
    needed input gradient) matches within the dtype's tolerance.  Any
    exception counts as a failure — the caller declines the node.
    """
    from repro.runtime.ops import get_op

    opdef = get_op(node.op)
    ins = [np.asarray(slots[i].array) for i in node.inputs]
    if any(a is None for a in ins) or slots[node.out].array is None:
        return False
    ref = opdef.forward(list(ins), node.attrs)
    ref_saved = None
    if type(ref) is tuple:
        ref, ref_saved = ref
    nat = kernel.forward(list(ins), node.attrs)
    nat_saved = None
    if type(nat) is tuple:
        nat, nat_saved = nat
    dtype = np.dtype(ref.dtype)
    rtol, atol = VERIFY_TOLERANCE.get(dtype.name, (1e-5, 1e-6))
    if nat.shape != ref.shape or not np.allclose(nat, ref, rtol=rtol, atol=atol):
        return False
    if not check_backward:
        return True
    # A deterministic, sign-varied upstream gradient.
    g = np.cos(np.arange(ref.size, dtype=np.float64)).reshape(ref.shape)
    g = g.astype(dtype)
    ref_grads = opdef.backward(np.array(g), list(ins), ref, ref_saved,
                               node.attrs, needs)
    nat_grads = kernel.backward(np.array(g), list(ins), nat, nat_saved,
                                node.attrs, needs)
    for position, index in enumerate(node.inputs):
        if not needs[position]:
            continue
        slot = slots[index]
        if not _verify_grad_pair(ref_grads[position], nat_grads[position],
                                 slot.shape, slot.dtype, rtol, atol):
            return False
    return True
