"""Quantized computation graph: export, passes, validation, interpretation.

Graphs hold Quant / MatMul / Add / Mul / Relu / Softmax / Constant nodes in
topological order.  Quant nodes emit integer codes per the clip-round-scale
rule (data, scale, and zero point arrive as inputs; bit width, signedness,
narrow-range, and rounding mode are attributes).  The interpreter runs
integer tensors in exact integer arithmetic and everything else in float64.
An integer tensor is held in float64 while its bound is below 2^53, in int64
below 2^63 and as Python-int objects past that; integer MatMul, Add and Mul
share their kernels with `quantize.int_forward`.  Evaluation writes in place
into the tensors it allocated, frees each tensor after its last consumer,
and hands integer outputs back as int64 or Python ints.

The exported form of an IntegerModel keeps the scale arithmetic split around
each ReLU (Mul by the dequantization scale before, Mul by the reciprocal
activation scale after) so the scale-merging pass has real work to do; after
merging, each hidden layer is a single integer-in Relu followed by one Mul
and a Quant.  For accumulators narrow enough that acc * mantissa stays exact
in float64 (the lowering enforces this for its supported widths), graph
evaluation reproduces the integer pipeline bit for bit.

Serialization is a canonical JSON document with top-level fields
{version, inputs, outputs, tensors, initializers, nodes}; see README for the
field-by-field description.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .quantize import (_FLOAT_EXACT, IntegerModel, _exact_matmul, _int_arith,
                       _int_range, _into, _matmul_bound, int_codes, int_to_float)

NODE_KINDS = ("Quant", "MatMul", "Add", "Mul", "Relu", "Softmax", "Constant")
PARSED_UNSUPPORTED = ("Bipolar", "Trunc")
_ARITY = {"Quant": 3, "MatMul": 2, "Add": 2, "Mul": 2, "Relu": 1,
          "Softmax": 1, "Constant": 0, "Bipolar": 1, "Trunc": 3}


class IRError(ValueError):
    pass


class ParseError(IRError):
    pass


class EvalError(IRError):
    pass


@dataclass(frozen=True)
class TensorInfo:
    """Declared or inferred tensor metadata; -1 marks the batch dimension."""
    shape: tuple[int, ...]
    kind: str                    # "real" | "int"
    bits: int | None = None
    signed: bool | None = None

    def __post_init__(self):
        if self.kind not in ("real", "int"):
            raise IRError(f"unknown tensor kind {self.kind!r}")
        if self.kind == "int" and (self.bits is None or self.signed is None):
            raise IRError("integer tensors need bits and signedness")


@dataclass(frozen=True)
class IRNode:
    kind: str
    inputs: tuple[str, ...]
    output: str
    attrs: dict = field(default_factory=dict)


@dataclass
class IRGraph:
    nodes: list[IRNode]
    inputs: list[str]
    outputs: list[str]
    tensors: dict[str, TensorInfo]
    initializers: dict[str, np.ndarray]

    def copy(self) -> "IRGraph":
        return IRGraph(nodes=list(self.nodes), inputs=list(self.inputs),
                       outputs=list(self.outputs), tensors=dict(self.tensors),
                       initializers=dict(self.initializers))

    def node_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for n in self.nodes:
            counts[n.kind] = counts.get(n.kind, 0) + 1
        return counts


def _ceil_log2(n: int) -> int:
    return max(1, n - 1).bit_length() if n > 1 else 0


def _array_kind(a: np.ndarray) -> str:
    return "real" if a.dtype == np.float64 else "int"


def _int_bits_of_array(a: np.ndarray) -> tuple[int, bool]:
    """Smallest (width, signed) covering an integer array's actual values."""
    if a.size == 0:
        return 2, True
    if a.dtype == object:
        lo = int(min(int(v) for v in a.ravel()))
        hi = int(max(int(v) for v in a.ravel()))
    else:
        lo, hi = int(a.min()), int(a.max())
    signed = lo < 0
    if signed:
        width = max((-lo - 1).bit_length() + 1, hi.bit_length() + 1, 2)
    else:
        width = max(hi.bit_length(), 2)
    return width, signed


# ---------------------------------------------------------------------------
# Export from an IntegerModel


def export_graph(im: IntegerModel) -> IRGraph:
    """Build the pre-optimization graph for a lowered model.

    Template: one input Quant, then per hidden layer
    Quant(weights) -> MatMul -> Add(bias) -> Mul(dequant scale) -> Relu ->
    Mul(reciprocal activation scale) -> Quant(activation), and for the final
    layer Quant(weights) -> MatMul -> Add -> Mul(output scale) plus a Softmax.
    Declared outputs are "logits" and "probabilities".  Deterministic: the
    same model always serializes to identical bytes.
    """
    nodes: list[IRNode] = []
    inits: dict[str, np.ndarray] = {}
    declared: dict[str, TensorInfo] = {}

    n_in = im.layers[0].q_weights.shape[0]
    declared["x"] = TensorInfo(shape=(-1, n_in), kind="real")
    inits["zero"] = np.array(0, dtype=np.int64)
    inits["one"] = np.array(1.0, dtype=np.float64)
    inits["in_scale"] = np.array(im.input_scale.value, dtype=np.float64)

    nodes.append(IRNode("Quant", ("x", "in_scale", "zero"), "h0", {
        "bits": im.input_params.bits, "signed": True, "narrow": False,
        "rounding": "half_even"}))

    h = "h0"
    last = len(im.layers) - 1
    for i, layer in enumerate(im.layers):
        w_name, b_name = f"w{i}", f"b{i}"
        inits[w_name] = layer.q_weights.astype(np.float64) * layer.weight_scale.value
        inits[b_name] = layer.q_bias
        inits[f"w{i}_scale"] = np.array(layer.weight_scale.value, dtype=np.float64)
        nodes.append(IRNode("Quant", (w_name, f"w{i}_scale", "zero"), f"qw{i}", {
            "bits": layer.weight_bits, "signed": True, "narrow": False,
            "rounding": "half_even"}))
        nodes.append(IRNode("MatMul", (h, f"qw{i}"), f"acc{i}"))
        nodes.append(IRNode("Add", (f"acc{i}", b_name), f"accb{i}"))
        if i < last:
            e = layer.act_exp
            s1 = layer.requant.value * 2.0 ** (-e)   # dequant scale S_w * S_h
            inits[f"s1_{i}"] = np.array(s1, dtype=np.float64)
            inits[f"s2_{i}"] = np.array(2.0 ** e, dtype=np.float64)
            nodes.append(IRNode("Mul", (f"accb{i}", f"s1_{i}"), f"scaled{i}"))
            nodes.append(IRNode("Relu", (f"scaled{i}",), f"relu{i}"))
            nodes.append(IRNode("Mul", (f"relu{i}", f"s2_{i}"), f"act{i}"))
            h = f"h{i + 1}"
            nodes.append(IRNode("Quant", (f"act{i}", "one", "zero"), h, {
                "bits": layer.act_bits, "signed": False, "narrow": False,
                "rounding": "half_up"}))
        else:
            inits["out_scale"] = np.array(im.output_scale.value, dtype=np.float64)
            nodes.append(IRNode("Mul", (f"accb{i}", "out_scale"), "logits"))
            nodes.append(IRNode("Softmax", ("logits",), "probabilities"))

    g = IRGraph(nodes=nodes, inputs=["x"], outputs=["logits", "probabilities"],
                tensors=declared, initializers=inits)
    return infer_shapes(g)


# ---------------------------------------------------------------------------
# Shape and kind inference


def _initializer_info(a: np.ndarray) -> TensorInfo:
    if _array_kind(a) == "real":
        return TensorInfo(shape=tuple(a.shape), kind="real")
    bits, signed = _int_bits_of_array(a)
    return TensorInfo(shape=tuple(a.shape), kind="int", bits=bits, signed=signed)


def _broadcast(s1, s2, node: IRNode):
    out = []
    for a, b in zip(reversed(s1), reversed(s2)):
        if a == b:
            out.append(a)
        elif a == 1:
            out.append(b)
        elif b == 1:
            out.append(a)
        elif a == -1:
            out.append(b)
        elif b == -1:
            out.append(a)
        else:
            raise IRError(f"node {node.output}: cannot broadcast {s1} with {s2}")
    longer = s1 if len(s1) >= len(s2) else s2
    return tuple(longer[:len(longer) - len(out)]) + tuple(reversed(out))


def infer_shapes(g: IRGraph) -> IRGraph:
    """Annotate every tensor with a concrete shape and element kind.

    Integer widths are conservative worst-case bounds (matmul adds operand
    widths plus the accumulation depth, add/mul widen accordingly); the
    interpreter uses them to pick exact arithmetic, so over-estimating is
    safe and under-estimating is not.  The one exception is an integer
    MatMul whose inner dimension is dynamic on both operands: it counts as
    one term per sum, and `validate` rejects it.  Raises IRError naming the
    offending node on any contradiction.
    """
    info: dict[str, TensorInfo] = {}
    for name in g.inputs:
        if name not in g.tensors:
            raise IRError(f"graph input {name} has no declared tensor info")
        info[name] = g.tensors[name]
    for name, arr in g.initializers.items():
        info[name] = g.tensors.get(name, _initializer_info(arr))

    def need(node: IRNode, name: str) -> TensorInfo:
        if name not in info:
            raise IRError(f"node {node.output}: undefined input {name}")
        return info[name]

    for node in g.nodes:
        if node.kind in PARSED_UNSUPPORTED:
            raise IRError(f"node {node.output}: unsupported operator {node.kind}")
        if node.kind not in NODE_KINDS:
            raise IRError(f"node {node.output}: unknown operator {node.kind}")
        if len(node.inputs) != _ARITY[node.kind]:
            raise IRError(f"node {node.output}: {node.kind} takes "
                          f"{_ARITY[node.kind]} inputs, got {len(node.inputs)}")
        if node.kind == "Quant":
            data, scale, zp = (need(node, n) for n in node.inputs)
            if scale.shape not in ((), (1,)) or zp.shape not in ((), (1,)):
                raise IRError(f"node {node.output}: Quant scale and zero point "
                              "must be scalars")
            out = TensorInfo(shape=data.shape, kind="int",
                             bits=int(node.attrs["bits"]),
                             signed=bool(node.attrs["signed"]))
        elif node.kind == "MatMul":
            a, b = (need(node, n) for n in node.inputs)
            if len(a.shape) != 2 or len(b.shape) != 2:
                raise IRError(f"node {node.output}: MatMul needs 2-d operands")
            if a.shape[1] != b.shape[0] and -1 not in (a.shape[1], b.shape[0]):
                raise IRError(f"node {node.output}: inner dims {a.shape[1]} vs "
                              f"{b.shape[0]} do not match")
            shape = (a.shape[0], b.shape[1])
            if a.kind == "int" and b.kind == "int":
                inner = a.shape[1] if a.shape[1] != -1 else b.shape[0]
                out = TensorInfo(shape=shape, kind="int",
                                 bits=a.bits + b.bits + _ceil_log2(max(inner, 1)),
                                 signed=a.signed or b.signed)
            else:
                out = TensorInfo(shape=shape, kind="real")
        elif node.kind in ("Add", "Mul"):
            a, b = (need(node, n) for n in node.inputs)
            shape = _broadcast(a.shape, b.shape, node)
            if a.kind == "int" and b.kind == "int":
                bits = (max(a.bits, b.bits) + 1 if node.kind == "Add"
                        else a.bits + b.bits)
                out = TensorInfo(shape=shape, kind="int", bits=bits,
                                 signed=a.signed or b.signed)
            else:
                out = TensorInfo(shape=shape, kind="real")
        elif node.kind == "Relu":
            a = need(node, node.inputs[0])
            out = a
        elif node.kind == "Softmax":
            a = need(node, node.inputs[0])
            out = TensorInfo(shape=a.shape, kind="real")
        else:  # Constant
            out = _constant_info(node)
        if node.output in info:
            raise IRError(f"node {node.output}: output name already defined")
        info[node.output] = out

    for name in g.outputs:
        if name not in info:
            raise IRError(f"declared output {name} is never produced")
    out_g = g.copy()
    out_g.tensors = info
    return out_g


def _constant_info(node: IRNode) -> TensorInfo:
    value = node.attrs["value"]
    return _initializer_info(value)


# ---------------------------------------------------------------------------
# Interpretation


def _real(a: np.ndarray) -> np.ndarray:
    """A tensor as float64: float64 arrays as they are, integers converted."""
    return a if a.dtype == np.float64 else int_to_float(a)


def _width_bound(info: TensorInfo) -> int:
    """Largest magnitude an integer tensor of the inferred width can hold."""
    return (1 << info.bits) - 1


def _quant_eval(x: np.ndarray, scale: float, zp: int, attrs: dict,
                spare: bool) -> np.ndarray:
    """Quant codes of x, in float64 up to 53 bits and int64 past that; x is
    overwritten when spare is set and it is already float64."""
    bits = int(attrs["bits"])
    qmin, qmax = _int_range(bits, bool(attrs["signed"]))
    if attrs.get("narrow", False) and attrs["signed"]:
        qmin += 1
    t = _real(x)
    if t is x and not spare:
        t = t / scale
    else:
        t /= scale
    if zp:
        t -= zp
    mode = attrs.get("rounding", "half_even")
    if mode == "half_even":
        np.rint(t, out=t)
    elif mode == "half_up":
        t += 0.5
        np.floor(t, out=t)
    else:
        raise EvalError(f"unknown rounding mode {mode!r}")
    np.clip(t, qmin, qmax, out=t)
    return t if bits <= 53 else t.astype(np.int64)


def _as_scalar(a) -> float:
    arr = np.asarray(a)
    if arr.size != 1:
        raise EvalError("expected a scalar tensor")
    return arr.reshape(()).item()


def _check_width(name: str, a: np.ndarray, info: TensorInfo) -> None:
    lo, hi = _int_range(info.bits, info.signed)
    if a.size and (int(a.min()) < lo or int(a.max()) > hi):
        raise EvalError(f"{name} holds values outside its declared "
                        f"{info.bits}-bit {'signed' if info.signed else 'unsigned'} range")


def evaluate(g: IRGraph, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Reference interpretation of the graph on the given inputs.

    Integer tensors use exact integer arithmetic, held in the narrowest form
    their bound allows: integers float64 holds exactly (below 2^53), int64,
    or Python-int objects.  Quant nodes and integer nodes whose bound is
    below 2^53 produce float64-held integers; the bound follows from the
    declared widths of inputs, initializers and Constant values, the Quant
    widths and the actual matmul inner dimensions.  Past 2^53, integer
    MatMul runs the kernel behind `quantize.int_matmul` (int64 below 2^62,
    Python ints above) and Add and Mul the integer add/mul
    `quantize.int_forward` uses for its bias, both by the observed bound.  Quant follows its attributes; Softmax and scale
    multiplications run in float64.

    Integer graph inputs and initializers are checked against their declared
    widths before use.  Evaluation runs in place: an elementwise node writes
    into an operand this call allocated that no later node reads, and each
    tensor leaves the environment after its last consumer.  Graph inputs,
    initializers and Constant values are never written.  Returns the
    declared outputs by name; integer outputs come back as int64, or as
    Python-int objects where they do not fit.
    """
    typed = infer_shapes(g)
    info = typed.tensors
    env: dict[str, np.ndarray] = {}
    for name in g.inputs:
        if name not in inputs:
            raise EvalError(f"missing graph input {name}")
        t = info[name]
        if t.kind == "real":
            x = np.asarray(inputs[name], dtype=np.float64)
        else:
            x = np.asarray(inputs[name], dtype=object if t.bits > 62 else np.int64)
            _check_width(f"input {name}", x, t)
            if t.bits <= 53:
                x = x.astype(np.float64)
        decl = t.shape
        if len(x.shape) != len(decl) or any(
                d != -1 and d != s for d, s in zip(decl, x.shape)):
            raise EvalError(f"input {name} has shape {x.shape}, declared {decl}")
        env[name] = x
    for extra in set(inputs) - set(g.inputs):
        raise EvalError(f"unknown input {extra}")
    for name, arr in g.initializers.items():
        if info[name].kind == "int":
            _check_width(f"initializer {name}", arr, info[name])
        env[name] = arr

    keep = set(g.outputs)
    last_use = {n: idx for idx, node in enumerate(g.nodes) for n in node.inputs}
    owned: set[str] = set()   # tensors this call allocated
    # magnitude bounds of computed integer tensors, from the declared and
    # Quant widths and the actual inner dimensions (inference assumes one)
    bounds: dict[str, int] = {}

    def bound_of(name: str) -> int:
        return bounds[name] if name in bounds else _width_bound(info[name])

    for idx, node in enumerate(g.nodes):
        vals = [env[n] for n in node.inputs]
        # operands that may be overwritten: allocated here, read no later
        spare = tuple(env[n] for n in node.inputs
                      if n in owned and last_use[n] == idx and n not in keep)
        out_info = info[node.output]
        if node.kind == "Quant":
            out = _quant_eval(vals[0], _as_scalar(vals[1]), int(_as_scalar(vals[2])),
                              node.attrs, any(v is vals[0] for v in spare))
        elif node.kind == "MatMul":
            a, b = vals
            if out_info.kind == "int":
                bound = bounds[node.output] = \
                    a.shape[-1] * bound_of(node.inputs[0]) * bound_of(node.inputs[1])
                out = _exact_matmul(a, b, bound if bound < _FLOAT_EXACT
                                    else _matmul_bound(a, b))
            else:
                out = _real(a) @ _real(b)
        elif node.kind in ("Add", "Mul"):
            ufunc = np.add if node.kind == "Add" else np.multiply
            if out_info.kind == "int":
                wa, wb = (bound_of(n) for n in node.inputs)
                bound = bounds[node.output] = wa + wb if node.kind == "Add" else wa * wb
                out = _int_arith(ufunc, *vals, bound if bound < _FLOAT_EXACT else None,
                                 spare)
            else:
                out = _into(ufunc, *(_real(v) for v in vals), spare)
        elif node.kind == "Relu":
            a = vals[0]
            if out_info.kind == "int":
                bounds[node.output] = bound_of(node.inputs[0])
            out = np.maximum(a, 0, out=a if spare else None)
        elif node.kind == "Softmax":
            z = _real(vals[0])
            if z is vals[0] and not spare:
                z = z - z.max(axis=-1, keepdims=True)
            else:
                z -= z.max(axis=-1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=-1, keepdims=True)
            out = z
        elif node.kind == "Constant":
            out = node.attrs["value"]
        else:
            raise EvalError(f"node {node.output}: unsupported operator {node.kind}")
        env[node.output] = out
        if node.kind != "Constant":
            owned.add(node.output)
        for n in (*node.inputs, node.output):
            if last_use.get(n, -1) <= idx and n not in keep:
                env.pop(n, None)
    return {name: env[name].astype(np.int64)
            if info[name].kind == "int" and env[name].dtype == np.float64 else env[name]
            for name in g.outputs}


# ---------------------------------------------------------------------------
# Passes


def _consumers(nodes: list[IRNode]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for idx, node in enumerate(nodes):
        for name in node.inputs:
            out.setdefault(name, []).append(idx)
    return out


def _scalar_const(g: IRGraph, name: str, const_outputs: dict[str, np.ndarray]):
    """Value of a scalar initializer or Constant-node output, else None."""
    arr = g.initializers.get(name)
    if arr is None:
        arr = const_outputs.get(name)
    if arr is None:
        return None
    a = np.asarray(arr)
    if a.size != 1:
        return None
    return a.reshape(()).item()


def _prune_dead_initializers(g: IRGraph) -> None:
    used = set()
    for node in g.nodes:
        used.update(node.inputs)
    used.update(g.outputs)
    g.initializers = {k: v for k, v in g.initializers.items() if k in used}


def fold_constants(g: IRGraph) -> IRGraph:
    """Replace every node whose inputs are all constant with a Constant node.

    Initializers and prior Constant outputs count as constant, so constant
    subgraphs collapse in one pass (which also makes the pass idempotent).
    Quant-over-initializer weights is the main customer: it folds to an
    integer Constant tensor.
    """
    known: dict[str, np.ndarray] = dict(g.initializers)
    new_nodes: list[IRNode] = []
    for node in g.nodes:
        if node.kind == "Constant":
            known[node.output] = node.attrs["value"]
            new_nodes.append(node)
            continue
        if node.inputs and all(n in known for n in node.inputs):
            sub = IRGraph(nodes=[node], inputs=[], outputs=[node.output],
                          tensors={}, initializers={n: np.asarray(known[n])
                                                    for n in node.inputs})
            value = evaluate(sub, {})[node.output]
            known[node.output] = value
            new_nodes.append(IRNode("Constant", (), node.output, {"value": value}))
        else:
            new_nodes.append(node)
    out = g.copy()
    out.nodes = new_nodes
    _prune_dead_initializers(out)
    return infer_shapes(out)


def merge_scales_relu(g: IRGraph) -> IRGraph:
    """Move positive constant scales across ReLU and fuse adjacent scale Muls.

    relu(s*x) = s*relu(x) for s > 0, so a Mul by a positive scalar constant
    feeding only a Relu hoists past it; scalar Mul chains then collapse into
    a single Mul.  The combined effect rewrites Mul(s1) -> Relu -> Mul(s2)
    into Relu -> Mul(s1*s2).  Non-matching graphs come back unchanged; the
    node count never increases.
    """
    out = g.copy()
    const_outputs = {n.output: n.attrs["value"] for n in out.nodes
                     if n.kind == "Constant"}

    def scalar_scale(node: IRNode):
        """(data input, scale input, value) when node is Mul by scalar const."""
        if node.kind != "Mul":
            return None
        for di, si in ((0, 1), (1, 0)):
            val = _scalar_const(out, node.inputs[si], const_outputs)
            if val is not None and out.initializers.get(node.inputs[di]) is None \
                    and node.inputs[di] not in const_outputs:
                return node.inputs[di], node.inputs[si], val
        return None

    # Hoist Mul(s > 0) across a solely-consuming Relu.
    changed = True
    while changed:
        changed = False
        cons = _consumers(out.nodes)
        for idx, node in enumerate(out.nodes):
            m = scalar_scale(node)
            if m is None or m[2] <= 0:
                continue
            data, scale_name, _ = m
            users = cons.get(node.output, [])
            if node.output in out.outputs or len(users) != 1:
                continue
            r_idx = users[0]
            relu = out.nodes[r_idx]
            if relu.kind != "Relu":
                continue
            nodes = list(out.nodes)
            nodes[idx] = IRNode("Relu", (data,), node.output)
            nodes[r_idx] = IRNode("Mul", (node.output, scale_name), relu.output)
            out.nodes = nodes
            changed = True
            break

    # Fuse Mul(x, a) -> Mul(, b) chains into Mul(x, a*b).
    changed = True
    while changed:
        changed = False
        cons = _consumers(out.nodes)
        for idx, node in enumerate(out.nodes):
            m1 = scalar_scale(node)
            if m1 is None:
                continue
            users = cons.get(node.output, [])
            if node.output in out.outputs or len(users) != 1:
                continue
            nxt_idx = users[0]
            nxt = out.nodes[nxt_idx]
            m2 = scalar_scale(nxt)
            if m2 is None or m2[0] != node.output:
                continue
            data, s1_name, s1 = m1
            _, s2_name, s2 = m2
            taken = set(out.initializers) | set(out.tensors) | \
                {n.output for n in out.nodes} | set(out.inputs)
            fused_name = f"{nxt.output}__scale"
            while fused_name in taken:
                fused_name += "_"
            out.initializers[fused_name] = np.array(s1 * s2, dtype=np.float64)
            nodes = list(out.nodes)
            del nodes[idx]
            nxt_idx -= 1 if nxt_idx > idx else 0
            nodes[nxt_idx] = IRNode("Mul", (data, fused_name), nxt.output)
            out.nodes = nodes
            changed = True
            break

    _prune_dead_initializers(out)
    return infer_shapes(out)


# ---------------------------------------------------------------------------
# Validation


def validate(g: IRGraph) -> list[str]:
    """Structural diagnostics; an empty list means the graph is well formed.

    Reports unsupported and unknown operators, arity violations, duplicate or
    colliding names, use-before-definition, unproduced outputs, cycles, and
    shape/kind contradictions.  Quant nodes additionally require a positive
    scale and zero-valued zero point (all graphs produced here are lowered),
    and an integer MatMul needs a static inner dimension on one operand, or
    its accumulator width has no bound.
    """
    diags: list[str] = []
    defined = set(g.inputs) | set(g.initializers)
    for name in set(g.inputs) & set(g.initializers):
        diags.append(f"name {name} is both a graph input and an initializer")

    produced: dict[str, int] = {}
    for idx, node in enumerate(g.nodes):
        label = f"node {node.output or idx}"
        if node.kind in PARSED_UNSUPPORTED:
            diags.append(f"{label}: unsupported operator {node.kind}")
        elif node.kind not in NODE_KINDS:
            diags.append(f"{label}: unknown operator {node.kind}")
        elif len(node.inputs) != _ARITY[node.kind]:
            diags.append(f"{label}: {node.kind} takes {_ARITY[node.kind]} "
                         f"inputs, got {len(node.inputs)}")
        if node.output in produced or node.output in defined:
            diags.append(f"{label}: output name {node.output} already defined")
        produced[node.output] = idx

    all_names = defined | set(produced)
    for idx, node in enumerate(g.nodes):
        for name in node.inputs:
            if name not in all_names:
                diags.append(f"node {node.output}: dangling tensor {name}")

    cycle = _find_cycle(g, produced)
    if cycle:
        diags.append("cycle: " + " -> ".join(cycle))
    else:
        for idx, node in enumerate(g.nodes):
            for name in node.inputs:
                if name in produced and produced[name] >= idx:
                    diags.append(f"node {node.output}: input {name} is defined later "
                                 "(nodes are not topologically ordered)")

    for name in g.outputs:
        if name not in all_names:
            diags.append(f"declared output {name} is never produced")

    for node in g.nodes:
        if node.kind == "Quant" and len(node.inputs) == 3:
            for attr in ("bits", "signed"):
                if attr not in node.attrs:
                    diags.append(f"node {node.output}: Quant missing attribute {attr}")
            scale = g.initializers.get(node.inputs[1])
            if scale is not None and np.asarray(scale).size == 1 \
                    and float(np.asarray(scale).reshape(()).item()) <= 0:
                diags.append(f"node {node.output}: Quant scale must be positive")
            zp = g.initializers.get(node.inputs[2])
            if zp is not None and np.asarray(zp).size == 1 \
                    and int(np.asarray(zp).reshape(()).item()) != 0:
                diags.append(f"node {node.output}: nonzero zero point on a "
                             "lowered graph")

    if not diags:
        try:
            info = infer_shapes(g).tensors
        except IRError as exc:
            return [str(exc)]
        for node in g.nodes:
            if node.kind == "MatMul":
                a, b = (info[name] for name in node.inputs)
                if a.kind == b.kind == "int" and a.shape[1] == b.shape[0] == -1:
                    diags.append(f"node {node.output}: integer MatMul has a dynamic "
                                 "inner dimension on both operands, so its "
                                 "accumulator width is unbounded")
    return diags


def _find_cycle(g: IRGraph, produced: dict[str, int]) -> list[str] | None:
    base = set(g.inputs) | set(g.initializers)
    color: dict[int, int] = {}
    trail: list[int] = []

    def visit(i: int) -> list[str] | None:
        color[i] = 1
        trail.append(i)
        for name in g.nodes[i].inputs:
            if name in base or name not in produced:
                continue
            j = produced[name]
            if color.get(j, 0) == 1:
                start = trail.index(j)
                names = [g.nodes[t].output for t in trail[start:]]
                return names + [g.nodes[j].output]
            if color.get(j, 0) == 0:
                found = visit(j)
                if found:
                    return found
        trail.pop()
        color[i] = 2
        return None

    for i in range(len(g.nodes)):
        if color.get(i, 0) == 0:
            found = visit(i)
            if found:
                return found
    return None


# ---------------------------------------------------------------------------
# Serialization


def _tensor_doc(a: np.ndarray) -> dict:
    a = np.asarray(a)
    if a.dtype == np.float64 or np.issubdtype(a.dtype, np.floating):
        return {"kind": "real", "shape": list(a.shape),
                "data": [float(v) for v in np.asarray(a, dtype=np.float64).ravel()]}
    bits, signed = _int_bits_of_array(a)
    return {"kind": "int", "bits": bits, "signed": signed, "shape": list(a.shape),
            "data": [int(v) for v in a.ravel()]}


def _tensor_from_doc(doc: dict, where: str) -> np.ndarray:
    try:
        shape = tuple(doc["shape"])
        data = doc["data"]
        if doc["kind"] == "real":
            return np.array([float(v) for v in data], dtype=np.float64).reshape(shape)
        return int_codes(data).reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad tensor document ({exc})") from None


def _info_doc(t: TensorInfo) -> dict:
    if t.kind == "real":
        return {"kind": "real", "shape": list(t.shape)}
    return {"kind": "int", "bits": t.bits, "signed": t.signed, "shape": list(t.shape)}


def _info_from_doc(doc: dict, where: str) -> TensorInfo:
    try:
        if doc["kind"] == "real":
            return TensorInfo(shape=tuple(doc["shape"]), kind="real")
        return TensorInfo(shape=tuple(doc["shape"]), kind="int",
                          bits=int(doc["bits"]), signed=bool(doc["signed"]))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{where}: bad tensor info ({exc})") from None


def serialize(g: IRGraph) -> str:
    """Canonical JSON text of the graph (byte-stable across round trips)."""
    from .ioutil import dumps_canonical

    nodes = []
    for node in g.nodes:
        attrs = dict(node.attrs)
        if node.kind == "Constant":
            attrs["value"] = _tensor_doc(attrs["value"])
        nodes.append({"kind": node.kind, "inputs": list(node.inputs),
                      "output": node.output, "attrs": attrs})
    doc = {
        "version": 1,
        "inputs": list(g.inputs),
        "outputs": list(g.outputs),
        "tensors": {name: _info_doc(t) for name, t in g.tensors.items()},
        "initializers": {name: _tensor_doc(a) for name, a in g.initializers.items()},
        "nodes": nodes,
    }
    return dumps_canonical(doc)


def parse(text: str) -> IRGraph:
    """Inverse of serialize; raises ParseError naming the bad location."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("version") != 1:
        raise ParseError(f"unsupported version {doc.get('version')!r}")
    for key in ("inputs", "outputs", "tensors", "initializers", "nodes"):
        if key not in doc:
            raise ParseError(f"missing top-level field {key!r}")

    nodes = []
    for i, nd in enumerate(doc["nodes"]):
        where = f"nodes[{i}]"
        if not isinstance(nd, dict):
            raise ParseError(f"{where}: must be an object")
        for key in ("kind", "inputs", "output"):
            if key not in nd:
                raise ParseError(f"{where}: missing field {key!r}")
        if not isinstance(nd["kind"], str):
            raise ParseError(f"{where}: kind must be a string")
        if not isinstance(nd["output"], str):
            raise ParseError(f"{where}: output must be a string")
        if (not isinstance(nd["inputs"], list)
                or not all(isinstance(s, str) for s in nd["inputs"])):
            raise ParseError(f"{where}: inputs must be a list of strings")
        attrs = dict(nd.get("attrs", {}))
        if nd["kind"] == "Constant":
            if "value" not in attrs:
                raise ParseError(f"{where}: Constant needs a value attribute")
            attrs["value"] = _tensor_from_doc(attrs["value"], where)
        nodes.append(IRNode(kind=nd["kind"], inputs=tuple(nd["inputs"]),
                            output=nd["output"], attrs=attrs))
    tensors = {name: _info_from_doc(t, f"tensors[{name}]")
               for name, t in doc["tensors"].items()}
    inits = {name: _tensor_from_doc(t, f"initializers[{name}]")
             for name, t in doc["initializers"].items()}
    return IRGraph(nodes=nodes, inputs=[str(s) for s in doc["inputs"]],
                   outputs=[str(s) for s in doc["outputs"]],
                   tensors=tensors, initializers=inits)


def save_graph(g: IRGraph, path: str) -> None:
    from .ioutil import write_atomic

    write_atomic(path, serialize(g))


def load_graph(path: str) -> IRGraph:
    with open(path) as fh:
        return parse(fh.read())
