"""Quantized computation graph: export, passes, validation, interpretation.

Graphs hold Quant / MatMul / Add / Mul / Softmax / Constant / Requant nodes
in topological order.  Quant nodes emit integer codes per the
clip-round-scale rule (data, scale, and zero point arrive as inputs; bit
width, signedness and narrow-range are attributes, and ties round half to
even).  A Requant node maps one integer tensor x to
clip((x*m + 2^(c-1)) >> c, qmin, qmax) exactly, with attributes mantissa m,
shift c, bits and signed.  The interpreter, the package's only one
(`quantize.int_forward` evaluates the exported graph), runs integer tensors
exactly and everything else in float64.  `infer_shapes` gives every integer
tensor a worst-case width, and that width alone picks the tensor's form:
with the bound (1 << width) - 1, float64 below 2^53, int64 below 2^63 and
Python-int objects past that.  A Requant node picks the form it multiplies
in the same way from its static bound * mantissa + 2^(shift-1).

`infer_shapes` is also the one structural and attribute check, the rules
of a lowered graph included: a Quant's scale and zero point are constants,
the scale positive and finite and the zero point 0.  `validate` reports its
first error.

The exported form of an IntegerModel is Quant(input), then per hidden layer
Quant(weights) -> MatMul -> Add(bias) -> Requant, whose unsigned clip is the
ReLU, and Mul(output scale) -> Softmax after the last layer.  Every node
kind is one a writer emits: `export_graph` all but Constant, which
`fold_constants` writes.  There is no Relu node kind and no other Quant
rounding mode, so a graph in the older split-scale template (Mul -> Relu ->
Mul -> Quant rounding ties up, for each Requant) is refused.

Serialization is a canonical JSON document with top-level fields
{version, inputs, outputs, tensors, initializers, nodes}, whose tensors
declare the graph inputs and outputs only; see README for the
field-by-field description.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import nn
from .ioutil import dumps_canonical, loads_finite, typed, write_atomic
from .quantize import (MIN_BITS, DyadicScale, IntegerModel, _int_range, check_bit_width,
                       int_codes, sum_of_products_bits)

NODE_KINDS = ("Quant", "MatMul", "Add", "Mul", "Softmax", "Constant", "Requant")
PARSED_UNSUPPORTED = ("Bipolar", "Trunc")
_ARITY = {"Quant": 3, "MatMul": 2, "Add": 2, "Mul": 2, "Softmax": 1, "Constant": 0,
          "Requant": 1}
_FLOAT_EXACT = 1 << 53     # every integer below this is a float64
_INT64_LIMIT = 1 << 63
# The widest integer tensor a graph.json may declare.  Bias and accumulator
# tensors pass MAX_BITS; the widest code export_graph writes, a bias rounded
# from a float64, needs at most 1,025 bits.
MAX_TENSOR_BITS = 2048


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


def _array_kind(a: np.ndarray) -> str:
    return "real" if a.dtype == np.float64 else "int"


def _int_bits_of_array(a: np.ndarray) -> tuple[int, bool]:
    """Smallest (width, signed) covering an integer array's actual values."""
    if a.size == 0:
        return 2, True
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
    Quant(weights) -> MatMul -> Add(bias) -> Requant(the layer's dyadic
    multiplier, unsigned activation width), and for the final layer
    Quant(weights) -> MatMul -> Add -> Mul(output scale) plus a Softmax.
    Layer i's accumulator is "accb{i}" and its output codes "h{i+1}".
    Declared outputs are "logits" and "probabilities".  Deterministic: the
    same model always serializes to identical bytes.
    """
    nodes: list[IRNode] = []
    inits: dict[str, np.ndarray] = {}
    declared: dict[str, TensorInfo] = {}

    n_in = im.layers[0].q_weights.shape[0]
    declared["x"] = TensorInfo(shape=(-1, n_in), kind="real")
    inits["zero"] = np.array(0, dtype=np.int64)
    inits["in_scale"] = np.array(im.input_scale, dtype=np.float64)

    nodes.append(IRNode("Quant", ("x", "in_scale", "zero"), "h0", {
        "bits": im.input_bits, "signed": True, "narrow": False,
        "rounding": "half_even"}))

    h = "h0"
    last = len(im.layers) - 1
    for i, layer in enumerate(im.layers):
        w_name, b_name = f"w{i}", f"b{i}"
        inits[w_name] = layer.q_weights * layer.weight_scale
        inits[b_name] = layer.q_bias
        inits[f"w{i}_scale"] = np.array(layer.weight_scale, dtype=np.float64)
        nodes.append(IRNode("Quant", (w_name, f"w{i}_scale", "zero"), f"qw{i}", {
            "bits": layer.weight_bits, "signed": True, "narrow": False,
            "rounding": "half_even"}))
        nodes.append(IRNode("MatMul", (h, f"qw{i}"), f"acc{i}"))
        nodes.append(IRNode("Add", (f"acc{i}", b_name), f"accb{i}"))
        if i < last:
            h = f"h{i + 1}"
            nodes.append(IRNode("Requant", (f"accb{i}",), h, {
                "mantissa": layer.requant.mantissa, "shift": layer.requant.shift,
                "bits": layer.act_bits, "signed": False}))
        else:
            inits["out_scale"] = np.array(im.output_scale, dtype=np.float64)
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


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _code_range(node: IRNode, *keys: str) -> tuple[int, int]:
    """(qmin, qmax) of the codes a Quant or Requant node emits; IRError naming
    the node when bits, signed or one of keys is missing, bits fails
    `check_bit_width` or signed is not a boolean."""
    where = f"node {node.output}: {node.kind}"
    for key in (*keys, "bits", "signed"):
        if key not in node.attrs:
            raise IRError(f"{where} missing attribute {key}")
    try:
        bits = check_bit_width(node.attrs["bits"])
    except (TypeError, ValueError) as exc:
        raise IRError(f"{where} {exc}") from None
    if not isinstance(node.attrs["signed"], (bool, np.bool_)):
        raise IRError(f"{where} signed must be a boolean")
    return _int_range(bits, bool(node.attrs["signed"]))


def _quant_params(node: IRNode) -> tuple[int, int]:
    """(qmin, qmax) of a Quant node; IRError naming the node for a malformed
    attribute.  narrow (default false) drops the most negative signed code;
    rounding, if given, must be half_even, the one mode."""
    qmin, qmax = _code_range(node)
    narrow = node.attrs.get("narrow", False)
    mode = node.attrs.get("rounding", "half_even")
    if not isinstance(narrow, (bool, np.bool_)):
        raise IRError(f"node {node.output}: Quant narrow must be a boolean")
    if mode != "half_even":
        raise IRError(f"node {node.output}: Quant unknown rounding mode {mode!r} "
                      "(only 'half_even')")
    return qmin + bool(narrow and qmin < 0), qmax


def _requant_params(node: IRNode) -> tuple[DyadicScale, int, int]:
    """(scale, qmin, qmax) of a Requant node; IRError naming the node when
    its attributes are missing or do not form a DyadicScale and a width."""
    qrange = _code_range(node, "mantissa", "shift")
    m, c = node.attrs["mantissa"], node.attrs["shift"]
    if not (_is_int(m) and _is_int(c)):
        raise IRError(f"node {node.output}: Requant mantissa and shift must be integers")
    try:
        return (DyadicScale(mantissa=int(m), shift=int(c)), *qrange)
    except ValueError as exc:
        raise IRError(f"node {node.output}: Requant scale {m}/2^{c}: {exc}") from None


def infer_shapes(g: IRGraph) -> IRGraph:
    """Annotate every tensor with a concrete shape and element kind.

    The one structural and attribute check of a graph.  Integer widths are
    worst-case bounds (`quantize.sum_of_products_bits` for MatMul, one more
    bit for Add, the operands' sum for Mul) and the only static bounds
    `evaluate` picks exact arithmetic by, so over-estimating is safe and
    under-estimating is not.  Initializers and Constant values are typed
    by their values; only the graph inputs' info is taken as declared.
    Raises IRError naming the node or tensor at the first fault:
    an unsupported or unknown operator or a wrong input count; a name both
    a graph input and an initializer, defined twice, undefined, defined by
    a later node (a cycle when it closes one) or an unproduced output; a
    declared output unlike its inferred info; a missing or malformed Quant
    or Requant attribute (widths pass `check_bit_width`); a Quant scale or
    zero point that is not a scalar constant (an initializer or an earlier
    Constant), a scale not positive and finite, a zero point not 0; an
    integer MatMul whose inner dimension is dynamic on both operands,
    leaving it unbounded.
    """
    info: dict[str, TensorInfo] = {}
    consts = dict(g.initializers)
    for name in g.inputs:
        if name not in g.tensors:
            raise IRError(f"graph input {name} has no declared tensor info")
        if name in g.initializers:
            raise IRError(f"name {name} is both a graph input and an initializer")
        info[name] = g.tensors[name]
    for name, arr in g.initializers.items():
        info[name] = _initializer_info(arr)

    def need(node: IRNode, name: str) -> TensorInfo:
        if name in info:
            return info[name]
        if all(n.output != name for n in g.nodes):
            raise IRError(f"node {node.output}: undefined input {name}")
        cycle = _find_cycle(g)
        raise IRError("cycle: " + " -> ".join(cycle) if cycle else f"node {node.output}: "
                      f"input {name} is defined later (nodes are not topologically ordered)")

    for node in g.nodes:
        if node.kind in PARSED_UNSUPPORTED:
            raise IRError(f"node {node.output}: unsupported operator {node.kind}")
        if node.kind not in NODE_KINDS:
            raise IRError(f"node {node.output}: unknown operator {node.kind}")
        if len(node.inputs) != _ARITY[node.kind]:
            raise IRError(f"node {node.output}: {node.kind} takes "
                          f"{_ARITY[node.kind]} inputs, got {len(node.inputs)}")
        if node.kind == "Quant":
            data, *params = (need(node, n) for n in node.inputs)
            if (any(p.shape not in ((), (1,)) for p in params)
                    or not all(name in consts for name in node.inputs[1:])):
                raise IRError(f"node {node.output}: Quant scale and zero point "
                              "must be scalar constants")
            scale, zp = (np.asarray(consts[name]).item() for name in node.inputs[1:])
            if not 0 < scale < math.inf:
                raise IRError(f"node {node.output}: Quant scale must be positive and finite")
            if zp != 0:
                raise IRError(f"node {node.output}: nonzero zero point on a lowered graph")
            _quant_params(node)
            out = TensorInfo(shape=data.shape, kind="int", bits=int(node.attrs["bits"]),
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
                if inner == -1:
                    raise IRError(f"node {node.output}: integer MatMul has a dynamic "
                                  "inner dimension on both operands, so its "
                                  "accumulator width is unbounded")
                out = TensorInfo(shape=shape, kind="int",
                                 bits=sum_of_products_bits(a.bits, b.bits, inner),
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
        elif node.kind == "Softmax":
            out = TensorInfo(shape=need(node, node.inputs[0]).shape, kind="real")
        elif node.kind == "Requant":
            a = need(node, node.inputs[0])
            if a.kind != "int":
                raise IRError(f"node {node.output}: Requant needs an integer input")
            _requant_params(node)
            out = TensorInfo(shape=a.shape, kind="int", bits=int(node.attrs["bits"]),
                             signed=bool(node.attrs["signed"]))
        else:  # Constant
            out = _initializer_info(node.attrs["value"])
            consts[node.output] = node.attrs["value"]
        if node.output in info:
            raise IRError(f"node {node.output}: output name already defined")
        info[node.output] = out

    for name in g.outputs:
        if name not in info:
            raise IRError(f"declared output {name} is never produced")
        if name in g.tensors and g.tensors[name] != info[name]:
            raise IRError(f"declared output {name} is {g.tensors[name]}, "
                          f"inferred {info[name]}")
    out_g = g.copy()
    out_g.tensors = info
    return out_g


# ---------------------------------------------------------------------------
# Interpretation


def _real(a: np.ndarray) -> np.ndarray:
    """A tensor as float64: float64 arrays as they are, integers converted."""
    return a if a.dtype == np.float64 else a.astype(np.float64)


def _in_tier(a: np.ndarray, bound: int) -> np.ndarray:
    """a's integer values, all at most bound in magnitude, in the exact form
    for that bound: float64 below 2^53, int64 below 2^63 and Python-int
    objects past that.  Returns a itself if it has that form."""
    if bound < _FLOAT_EXACT:
        return _real(a)
    if bound < _INT64_LIMIT:
        return a.astype(np.int64, copy=False)
    return a if a.dtype == object else a.astype(np.int64, copy=False).astype(object)


def _into(ufunc, a: np.ndarray, b: np.ndarray, spare: tuple) -> np.ndarray:
    """ufunc(a, b), written into a or b if it is listed in spare and has the
    result's shape."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    for t in (a, b):
        if t.shape == shape and any(t is s for s in spare):
            return ufunc(a, b, out=t)
    return ufunc(a, b)


def _quant_eval(x: np.ndarray, scale: float, qmin: int, qmax: int,
                spare: bool) -> np.ndarray:
    """Quant codes of x in float64, ties rounded half to even (widths stop at
    MAX_BITS, well inside its exact integers); x is overwritten when spare is
    set and it is already float64."""
    t = _real(x)
    if t is x and not spare:
        t = t / scale
    else:
        t /= scale
    np.rint(t, out=t)
    np.clip(t, qmin, qmax, out=t)
    return t


def _requant_eval(x: np.ndarray, scale: DyadicScale, qmin: int, qmax: int,
                  bound: int, spare: bool) -> np.ndarray:
    """clip((x*m + 2^(c-1)) >> c, qmin, qmax) of integers x with |x| <= bound,
    in the form `_in_tier` gives the static bound*m + 2^(c-1).

    In float64 it runs as x * (m/2^c) + 1/2 and a floor, every step exact.
    The codes come back in float64, as their widths stop at MAX_BITS; x is
    overwritten when spare is set and it is already float64."""
    m, c = scale.mantissa, scale.shift
    half = (1 << (c - 1)) if c else 0
    t = _in_tier(x, bound * m + half)
    if t.dtype == np.float64:
        t = np.multiply(t, scale.value, out=None if t is x and not spare else t)
        if half:
            t += 0.5
        np.floor(t, out=t)
    else:
        t = (t * m + half) >> c
    np.maximum(t, qmin, out=t)
    np.minimum(t, qmax, out=t)
    return _real(t)


def _bound(info: TensorInfo) -> int:
    """The static bound on an integer tensor's magnitude, from its width."""
    return (1 << info.bits) - 1


def evaluate(g: IRGraph, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Reference interpretation of the graph on the given inputs.

    The package's one integer interpreter (`quantize.int_forward` runs the
    exported graph here).  Integer tensors use exact integer arithmetic in
    the form `_in_tier` gives the static bound (1 << width) - 1 of their
    `infer_shapes` width, whatever values they hold: float64 below 2^53,
    int64 below 2^63 and Python-int objects past that.  A MatMul, Add or
    Mul computes in its output's form, which bounds every partial sum, and
    a Requant in the form of its static bound * mantissa + 2^(shift-1).  A
    graph that inference rejects, a malformed Quant or Requant attribute
    included, does not run (IRError).  Softmax and scale multiplications run
    in float64.

    Graph inputs are checked against their declared shapes, and integer
    inputs against their declared widths, before use (an initializer's width
    is its values').  Evaluation runs in place: an elementwise node writes
    into an operand this call allocated that no later node reads, and each
    tensor leaves the environment after its last consumer.  Graph inputs,
    initializers and Constant values are never written.  Returns the
    declared outputs by name; integer outputs come back as int64 up to 63
    bits of width and as Python-int objects past that.
    """
    info = infer_shapes(g).tensors
    env: dict[str, np.ndarray] = {}
    for name in g.inputs:
        if name not in inputs:
            raise EvalError(f"missing graph input {name}")
        t = info[name]
        if t.kind == "real":
            x = np.asarray(inputs[name], dtype=np.float64)
        else:
            x = np.asarray(inputs[name])
            with np.errstate(invalid="ignore"):  # inf % 1 is NaN
                if x.dtype.kind in "fO" and not np.all(np.mod(x, 1) == 0):
                    raise EvalError(f"input {name} holds a value that is not an integer")
            lo, hi = _int_range(t.bits, t.signed)  # before a cast could wrap or overflow
            if x.size and (int(x.min()) < lo or int(x.max()) > hi):
                raise EvalError(f"input {name} holds values outside its declared {t.bits}-bit "
                                f"{'signed' if t.signed else 'unsigned'} range")
            x = _in_tier(x.astype(object if t.bits > 62 else np.int64, copy=False), _bound(t))
        if x.ndim != len(t.shape) or any(d not in (-1, s) for d, s in zip(t.shape, x.shape)):
            raise EvalError(f"input {name} has shape {x.shape}, declared {t.shape}")
        env[name] = x
    for extra in set(inputs) - set(g.inputs):
        raise EvalError(f"unknown input {extra}")
    for name, arr in g.initializers.items():
        if info[name].kind == "int":
            arr = _in_tier(arr, _bound(info[name]))
        env[name] = arr

    keep = set(g.outputs)
    last_use = {n: idx for idx, node in enumerate(g.nodes) for n in node.inputs}
    owned: set[str] = set()   # tensors this call allocated

    for idx, node in enumerate(g.nodes):
        vals = [env[n] for n in node.inputs]
        # operands that may be overwritten: allocated here, read no later
        spare = tuple(env[n] for n in node.inputs
                      if n in owned and last_use[n] == idx and n not in keep)
        out_info = info[node.output]
        # the form every operand is computed in: the output's own
        held = partial(_in_tier, bound=_bound(out_info)) if out_info.kind == "int" else _real
        if node.kind == "Quant":
            out = _quant_eval(vals[0], vals[1].item(), *_quant_params(node),
                              any(v is vals[0] for v in spare))
        elif node.kind == "MatMul":
            out = held(vals[0]) @ held(vals[1])
        elif node.kind in ("Add", "Mul"):
            ufunc = np.add if node.kind == "Add" else np.multiply
            out = _into(ufunc, *map(held, vals), spare)
        elif node.kind == "Softmax":
            out = nn.softmax(_real(vals[0]))
        elif node.kind == "Requant":
            out = _requant_eval(vals[0], *_requant_params(node), _bound(info[node.inputs[0]]),
                                any(v is vals[0] for v in spare))
        else:  # Constant
            out = held(node.attrs["value"])
        env[node.output] = out
        if node.kind != "Constant":
            owned.add(node.output)
        for n in (*node.inputs, node.output):
            if last_use.get(n, -1) <= idx and n not in keep:
                env.pop(n, None)
    return {name: _in_tier(env[name], max(_bound(info[name]), _FLOAT_EXACT))
            if info[name].kind == "int" else env[name] for name in g.outputs}


# ---------------------------------------------------------------------------
# Passes


def fold_constants(g: IRGraph) -> IRGraph:
    """Replace every node whose inputs are all constant with a Constant node.

    Initializers and prior Constant outputs count as constant, so constant
    subgraphs collapse in one pass (which also makes the pass idempotent).
    Quant-over-initializer weights is the main customer: it folds to an
    integer Constant tensor.  Only the inputs' declared info is kept: a
    folded output, typed by its values, is inferred again.
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
    used = {n for node in new_nodes for n in node.inputs} | set(g.outputs)
    out = g.copy()
    out.nodes = new_nodes
    out.tensors = {name: g.tensors[name] for name in g.inputs if name in g.tensors}
    out.initializers = {k: v for k, v in g.initializers.items() if k in used}
    return infer_shapes(out)


def merge_scales_relu(g: IRGraph) -> IRGraph:
    """Return g unchanged.

    The scale-past-relu fusion that had this name rewrote only the
    split-scale template, whose Relu node kind is gone.  The name stays
    because the benchmark harness (`perfbench/workloads.py`) still calls
    it; ROADMAP item 9 deletes that call, and then this name.
    """
    return g


# ---------------------------------------------------------------------------
# Validation


def validate(g: IRGraph) -> list[str]:
    """Diagnostics of a lowered graph: the first `infer_shapes` error, where
    every structural, attribute and lowered-graph check lives, or an empty
    list when it is well formed."""
    try:
        infer_shapes(g)
    except IRError as exc:
        return [str(exc)]
    return []


def _find_cycle(g: IRGraph) -> list[str] | None:
    """Output names around a cycle of g's nodes, the first one repeated at
    the end; None when the nodes have no cycle."""
    base = set(g.inputs) | set(g.initializers)
    produced = {n.output: i for i, n in enumerate(g.nodes) if n.output not in base}
    done: set[int] = set()

    def visit(i: int, trail: list[int]) -> list[str] | None:
        if i in trail:
            return [g.nodes[t].output for t in trail[trail.index(i):]] + [g.nodes[i].output]
        if i in done:
            return None
        for name in g.nodes[i].inputs:
            found = name in produced and visit(produced[name], trail + [i])
            if found:
                return found
        done.add(i)
        return None

    return next(filter(None, (visit(i, []) for i in range(len(g.nodes)))), None)


# ---------------------------------------------------------------------------
# Serialization


def _tensor_doc(a: np.ndarray) -> dict:
    a = np.asarray(a)
    if a.dtype == np.float64 or np.issubdtype(a.dtype, np.floating):
        return {"kind": "real", "shape": list(a.shape),
                "data": [float(v) for v in np.asarray(a, dtype=np.float64).ravel()]}
    return {"kind": "int", "shape": list(a.shape), "data": [int(v) for v in a.ravel()]}


def _fields(doc, keys: tuple[str, ...], where: str) -> list:
    """The values of keys in the JSON object doc; ParseError naming where
    when doc is not an object or lacks one of them."""
    doc = typed(doc, dict, where)
    if missing := [key for key in keys if key not in doc]:
        raise ParseError(f"{where}: missing field {missing[0]!r}")
    return [doc[key] for key in keys]


def _tensor_from_doc(doc: dict, where: str) -> np.ndarray:
    kind, shape, data = _fields(doc, ("kind", "shape", "data"), where)
    if kind not in ("real", "int"):
        raise ParseError(f"{where}: kind must be 'real' or 'int', got {kind!r}")
    shape = typed(shape, [int], f"{where}: shape")
    values = (int_codes(typed(data, [int], f"{where}: data")) if kind == "int"
              else np.array(typed(data, [float], f"{where}: data")))
    try:
        return values.reshape(shape)
    except ValueError as exc:
        raise ParseError(f"{where}: bad tensor document ({exc})") from None


def _info_doc(t: TensorInfo) -> dict:
    if t.kind == "real":
        return {"kind": "real", "shape": list(t.shape)}
    return {"kind": "int", "bits": t.bits, "signed": t.signed, "shape": list(t.shape)}


def _info_from_doc(doc: dict, where: str) -> TensorInfo:
    kind, shape = _fields(doc, ("kind", "shape"), where)
    shape = tuple(typed(shape, [int], f"{where}: shape"))
    if kind == "real":
        return TensorInfo(shape=shape, kind="real")
    if kind != "int":
        raise ParseError(f"{where}: kind must be 'real' or 'int', got {kind!r}")
    bits, signed = _fields(doc, ("bits", "signed"), where)
    bits = typed(bits, int, f"{where}: bits")
    if not MIN_BITS <= bits <= MAX_TENSOR_BITS:
        raise ParseError(f"{where}: bits {bits} outside {MIN_BITS}..{MAX_TENSOR_BITS}")
    return TensorInfo(shape=shape, kind="int", bits=bits,
                      signed=typed(signed, bool, f"{where}: signed"))


def serialize(g: IRGraph) -> str:
    """Canonical JSON text of the graph (byte-stable across round trips).
    Of the tensors' info only the graph inputs' and outputs' is written;
    inference derives the rest."""
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
        "tensors": {name: _info_doc(g.tensors[name]) for name in (*g.inputs, *g.outputs)
                    if name in g.tensors},
        "initializers": {name: _tensor_doc(a) for name, a in g.initializers.items()},
        "nodes": nodes,
    }
    return dumps_canonical(doc)


def parse(text: str) -> IRGraph:
    """Inverse of serialize; raises ParseError naming the bad location, a
    `tensors` entry for a name neither a graph input nor an output included."""
    try:
        doc = typed(loads_finite(text), dict, "top level")
        if (version := typed(doc.get("version"), int, "version")) != 1:
            raise ParseError(f"unsupported version {version}")
        inputs, outputs, tensors, inits, node_docs = _fields(
            doc, ("inputs", "outputs", "tensors", "initializers", "nodes"), "top level")
        inputs, outputs = typed(inputs, [str], "inputs"), typed(outputs, [str], "outputs")
        for name in typed(tensors, dict, "tensors"):
            if name not in inputs and name not in outputs:
                raise ParseError(f"tensors[{name}]: not a graph input or output; "
                                 "only those are declared")
        nodes = []
        for i, nd in enumerate(typed(node_docs, list, "nodes")):
            where = f"nodes[{i}]"
            kind, node_inputs, output = _fields(nd, ("kind", "inputs", "output"), where)
            attrs = dict(typed(nd.get("attrs", {}), dict, f"{where}: attrs"))
            if typed(kind, str, f"{where}: kind") == "Constant":
                if "value" not in attrs:
                    raise ParseError(f"{where}: Constant needs a value attribute")
                attrs["value"] = _tensor_from_doc(attrs["value"], where)
            nodes.append(IRNode(kind=kind,
                                inputs=tuple(typed(node_inputs, [str], f"{where}: inputs")),
                                output=typed(output, str, f"{where}: output"), attrs=attrs))
        return IRGraph(nodes=nodes, inputs=inputs, outputs=outputs,
                       tensors={name: _info_from_doc(t, f"tensors[{name}]")
                                for name, t in tensors.items()},
                       initializers={name: _tensor_from_doc(t, f"initializers[{name}]")
                                     for name, t in typed(inits, dict, "initializers").items()})
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, OverflowError) as exc:  # typed's, or a number past the floats
        raise ParseError(str(exc)) from None


def save_graph(g: IRGraph, path: str) -> None:
    write_atomic(path, serialize(g))


def load_graph(path: str) -> IRGraph:
    with open(path) as fh:
        return parse(fh.read())
