import json
import random
import re

import numpy as np
import pytest

from hessquant import data, ir, nn
from hessquant import quantize as qz


@pytest.fixture(scope="module")
def int_model():
    ds = data.generate_synthetic(1200, seed=70, separation=1.8)
    ds = data.standardize(ds)
    tr, va = data.split(ds, 0.2, 0)
    model = nn.mlp([16, 12, 8, 5], seed=0)
    cfg = nn.TrainConfig(epochs=10, batch_size=64, learning_rate=1e-3,
                         l1=0.0, seed=0)
    model, _ = nn.train(model, tr, cfg, val=va)
    qcfg = nn.TrainConfig(epochs=5, batch_size=64, learning_rate=5e-4, seed=0)
    fq = qz.qat_train(model, tr, qz.QuantSchema.coupled((6, 5, 6)), qcfg, val=va)
    return qz.lower(fq), va


@pytest.fixture(scope="module")
def graph(int_model):
    im, _ = int_model
    return ir.export_graph(im)


# --- building and shape of the exported graph ---------------------------------

def test_export_node_count_follows_template(int_model):
    im, _ = int_model
    g = ir.export_graph(im)
    L = len(im.layers)
    # input quantizer, 4 nodes per hidden layer, 5 for the output stage
    assert len(g.nodes) == 1 + 4 * (L - 1) + 5
    assert g.node_counts()["Requant"] == L - 1
    assert g.inputs == ["x"]
    assert g.outputs == ["logits", "probabilities"]


def test_export_is_deterministic(int_model):
    im, _ = int_model
    a = ir.serialize(ir.export_graph(im))
    b = ir.serialize(ir.export_graph(im))
    assert a == b


def test_export_validates_clean(graph):
    assert ir.validate(graph) == []


def test_exported_tensors_have_types(graph):
    t = graph.tensors
    assert t["logits"].kind == "real"
    assert t["probabilities"].kind == "real"
    # quantized input is an integer tensor wide enough for its codes
    q_names = [n.output for n in graph.nodes if n.kind == "Quant"]
    for name in q_names:
        assert t[name].kind == "int"


def test_weight_initializers_are_dequantized_floats(graph, int_model):
    im, _ = int_model
    w0 = graph.initializers["w0"]
    assert w0.dtype == np.float64
    scale = im.layers[0].weight_scale
    # snapping back onto the integer grid recovers the stored codes
    assert np.array_equal(np.rint(w0 / scale).astype(np.int64),
                          im.layers[0].q_weights)


def test_bias_initializers_are_integers(graph, int_model):
    im, _ = int_model
    b0 = graph.initializers["b0"]
    assert b0.dtype in (np.int64, object)
    assert np.array_equal(np.asarray(b0, dtype=np.int64), im.layers[0].q_bias)


# --- evaluation ----------------------------------------------------------------

def test_evaluate_matches_integer_forward_bit_for_bit(int_model, graph):
    im, va = int_model
    x = va.features[:64]
    out = ir.evaluate(graph, {"x": x})
    logits, _ = qz.int_forward(im, x)
    assert np.array_equal(out["logits"], logits)
    p = out["probabilities"]
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(np.argmax(p, axis=1), np.argmax(logits, axis=1))


def test_evaluate_rejects_wrong_shapes(graph):
    with pytest.raises(ir.EvalError):
        ir.evaluate(graph, {"x": np.zeros((4, 3))})
    with pytest.raises(ir.EvalError):
        ir.evaluate(graph, {"y": np.zeros((4, 16))})


def test_quant_node_rounding_modes():
    g = ir.IRGraph(
        nodes=[ir.IRNode("Quant", ("x", "s", "z"), "q",
                         {"bits": 8, "signed": True, "narrow": False,
                          "rounding": "half_even"})],
        inputs=["x"], outputs=["q"],
        tensors={"x": ir.TensorInfo((-1,), "real"),
                 "q": ir.TensorInfo((-1,), "int", bits=8, signed=True)},
        initializers={"s": np.array([1.0]), "z": np.array([0.0])})
    x = np.array([0.5, 1.5, 2.5, -0.5, -1.5])
    assert ir.evaluate(g, {"x": x})["q"].tolist() == [0, 2, 2, 0, -2]
    # half_even is the one mode: the split-scale template's half_up is refused
    g.nodes[0] = ir.IRNode("Quant", ("x", "s", "z"), "q",
                           {"bits": 8, "signed": True, "narrow": False,
                            "rounding": "half_up"})
    assert ir.validate(g) == ["node q: Quant unknown rounding mode 'half_up' "
                              "(only 'half_even')"]
    with pytest.raises(ir.IRError, match="rounding mode 'half_up'"):
        ir.evaluate(g, {"x": x})


def test_quant_narrow_range_bumps_min():
    g = ir.IRGraph(
        nodes=[ir.IRNode("Quant", ("x", "s", "z"), "q",
                         {"bits": 4, "signed": True, "narrow": True,
                          "rounding": "half_even"})],
        inputs=["x"], outputs=["q"],
        tensors={"x": ir.TensorInfo((-1,), "real"),
                 "q": ir.TensorInfo((-1,), "int", bits=4, signed=True)},
        initializers={"s": np.array([1.0]), "z": np.array([0.0])})
    out = ir.evaluate(g, {"x": np.array([-100.0, 100.0])})
    assert out["q"].tolist() == [-7, 7]


def test_infer_shapes_tracks_integer_widths():
    # matmul grows widths by the summed operand bits plus log2(fan_in)
    g = ir.IRGraph(
        nodes=[ir.IRNode("MatMul", ("a", "b"), "c", {})],
        inputs=["a", "b"], outputs=["c"],
        tensors={"a": ir.TensorInfo((-1, 8), "int", bits=8, signed=True),
                 "b": ir.TensorInfo((8, 4), "int", bits=8, signed=True),
                 "c": ir.TensorInfo((-1, 4), "int", bits=64, signed=True)},
        initializers={})
    g2 = ir.infer_shapes(g)
    assert g2.tensors["c"].bits == 8 + 8 + 3
    assert g2.tensors["c"].shape == (-1, 4)


def test_evaluate_survives_wide_accumulators():
    # products of 40-bit operands exceed int64; evaluation must promote
    big = np.full((2, 2), 2 ** 40, dtype=object)
    g = ir.IRGraph(
        nodes=[ir.IRNode("MatMul", ("a", "w"), "c", {})],
        inputs=["a"], outputs=["c"],
        tensors={"a": ir.TensorInfo((-1, 2), "int", bits=42, signed=True),
                 "w": ir.TensorInfo((2, 2), "int", bits=42, signed=True),
                 "c": ir.TensorInfo((-1, 2), "int", bits=85, signed=True)},
        initializers={"w": big})
    out = ir.evaluate(g, {"a": np.full((1, 2), 2 ** 40, dtype=object)})
    assert out["c"][0, 0] == 2 * 2 ** 80


def requant_graph(attrs, bits=40, kind="int"):
    return ir.IRGraph(
        nodes=[ir.IRNode("Requant", ("a",), "q", attrs)],
        inputs=["a"], outputs=["q"],
        tensors={"a": ir.TensorInfo((-1,), kind, bits=bits, signed=True)
                 if kind == "int" else ir.TensorInfo((-1,), "real")},
        initializers={})


def test_requant_node_rounds_half_up_and_clips():
    # (a*3 + 2) >> 2 onto 0..15: ties round up, negatives clip to 0
    g = requant_graph({"mantissa": 3, "shift": 2, "bits": 4, "signed": False})
    a = np.array([-5, -1, 0, 1, 2, 6, 19, 20, 100])
    assert ir.evaluate(g, {"a": a})["q"].tolist() == [0, 0, 0, 1, 2, 5, 14, 15, 15]
    g.nodes[0] = ir.IRNode("Requant", ("a",), "q",
                           {"mantissa": 3, "shift": 0, "bits": 4, "signed": True})
    assert ir.evaluate(g, {"a": a})["q"].tolist() == [-8, -3, 0, 3, 6, 7, 7, 7, 7]


@pytest.mark.parametrize("width", [20, 30, 40, 100])
def test_requant_node_is_exact_at_every_input_width(width):
    # with m close to 2^31 a 20-bit input stays in float64, a 30-bit one
    # requantizes in int64, and 40- and 100-bit ones in Python ints; v0 and
    # v0 - 2^31 put v*m + 2^30 one below a multiple of 2^31, past 2^53,
    # where a float64 product would round up into the next code
    m, c = (1 << 31) - 1, 31
    rng = random.Random(width)
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    vals = [rng.randint(max(lo, -(1 << 31)), min(hi, 1 << 31)) for _ in range(64)]
    v0 = (-1 - (1 << 30)) * pow(m, -1, 1 << 31) % (1 << 31)
    vals += [v for v in (v0, v0 - (1 << 31)) if lo <= v <= hi]
    a = qz.int_codes(vals + [lo, hi])
    g = requant_graph({"mantissa": m, "shift": c, "bits": 32, "signed": True}, bits=width)
    want = [min(max((int(v) * m + (1 << (c - 1))) >> c, -(1 << 31)), (1 << 31) - 1)
            for v in a]
    got = ir.evaluate(g, {"a": a})["q"]
    assert got.dtype == np.int64
    assert got.tolist() == want


def quant_graph(attrs, kind="real"):
    return ir.IRGraph(
        nodes=[ir.IRNode("Quant", ("a", "s", "z"), "q", attrs)],
        inputs=["a"], outputs=["q"],
        tensors={"a": ir.TensorInfo((-1,), kind, bits=8, signed=True)
                 if kind == "int" else ir.TensorInfo((-1,), "real")},
        initializers={"s": np.array(1.0), "z": np.array(0)})


QUANT = {"bits": 8, "signed": True, "narrow": False, "rounding": "half_even"}


@pytest.mark.parametrize("node, attrs, kind, message", [
    ("Requant", {"mantissa": 3, "bits": 8, "signed": False}, "int", "missing attribute shift"),
    ("Requant", {"mantissa": 4, "shift": 3, "bits": 8, "signed": False}, "int", "odd"),
    ("Requant", {"mantissa": 3, "shift": 32, "bits": 8, "signed": False}, "int",
     "shift must be"),
    ("Requant", {"mantissa": -3, "shift": 3, "bits": 8, "signed": False}, "int",
     "non-negative"),
    ("Requant", {"mantissa": 3, "shift": 3, "bits": 1, "signed": False}, "int", "width 1"),
    ("Requant", {"mantissa": 3, "shift": 3, "bits": 33, "signed": False}, "int", "width 33"),
    ("Requant", {"mantissa": 3, "shift": 3.0, "bits": 8, "signed": False}, "int", "integers"),
    ("Requant", {"mantissa": 3, "shift": 3, "bits": 8, "signed": 0}, "int", "boolean"),
    ("Requant", {"mantissa": 3, "shift": 3, "bits": 8, "signed": False}, "real",
     "integer input"),
    ("Quant", {k: v for k, v in QUANT.items() if k != "bits"}, "real",
     "missing attribute bits"),
    ("Quant", dict(QUANT, bits="abc"), "real", "bits must be an integer"),
    ("Quant", dict(QUANT, bits=1), "int", "width 1 outside"),
    ("Quant", dict(QUANT, bits=33), "real", "width 33 outside"),
    ("Quant", dict(QUANT, bits=70), "real", "width 70 outside"),
    ("Quant", dict(QUANT, signed=0), "real", "boolean"),
    ("Quant", dict(QUANT, narrow="yes"), "real", "narrow must be a boolean"),
    ("Quant", dict(QUANT, rounding="weird"), "real", "unknown rounding mode 'weird'"),
], ids=["missing", "even-mantissa", "shift", "negative", "narrow", "wide",
        "float-shift", "signed", "real-input", "quant-missing-bits", "quant-bits-abc",
        "quant-bits-1", "quant-bits-33", "quant-bits-70", "quant-signed",
        "quant-narrow-flag", "quant-rounding"])
def test_malformed_requant_is_a_diagnostic_not_a_crash(node, attrs, kind, message):
    # a Quant node's width and signedness pass the same check as a Requant's
    g = requant_graph(attrs, kind=kind) if node == "Requant" else quant_graph(attrs, kind)
    diags = ir.validate(g)
    assert len(diags) == 1 and f"node q: {node}" in diags[0] and message in diags[0]
    with pytest.raises(ir.IRError, match=message):
        ir.evaluate(g, {"a": np.array([1, 2])})


@pytest.mark.parametrize("zero_point", [0.5, float("nan")], ids=["half", "nan"])
def test_a_fractional_or_nan_zero_point_is_an_eval_error(zero_point):
    # validate flags any nonzero constant zero point, but evaluate does not
    # run it: a zero point it cannot use must not be truncated or crash
    g = quant_graph(QUANT)
    g.initializers["z"] = np.array(zero_point)
    with pytest.raises(ir.EvalError, match="node q: Quant zero point"):
        ir.evaluate(g, {"a": np.array([1.0, 2.0])})


# --- constant folding -----------------------------------------------------------

def test_fold_constants_replaces_initializer_only_nodes(graph):
    folded = ir.fold_constants(graph)
    # weight quantizers see only initializers, so they fold away
    quant_inputs = [n for n in folded.nodes
                    if n.kind == "Quant" and n.inputs[0] in folded.initializers]
    assert quant_inputs == []
    assert len(folded.nodes) <= len(graph.nodes)


def test_fold_constants_is_idempotent(graph):
    once = ir.fold_constants(graph)
    twice = ir.fold_constants(once)
    assert ir.serialize(once) == ir.serialize(twice)


def test_fold_constants_preserves_semantics(graph, int_model):
    _, va = int_model
    x = va.features[:32]
    before = ir.evaluate(graph, {"x": x})
    after = ir.evaluate(ir.fold_constants(graph), {"x": x})
    assert np.array_equal(before["logits"], after["logits"])
    assert np.array_equal(before["probabilities"], after["probabilities"])


def test_fold_constants_handles_chains():
    # c1 = 2*3, c2 = c1+1: both fold in a single pass
    g = ir.IRGraph(
        nodes=[
            ir.IRNode("Mul", ("two", "three"), "c1", {}),
            ir.IRNode("Add", ("c1", "one"), "c2", {}),
            ir.IRNode("Add", ("x", "c2"), "y", {}),
        ],
        inputs=["x"], outputs=["y"],
        tensors={"x": ir.TensorInfo((-1,), "real"),
                 "y": ir.TensorInfo((-1,), "real")},
        initializers={"two": np.array([2.0]), "three": np.array([3.0]),
                      "one": np.array([1.0])})
    folded = ir.fold_constants(g)
    consts = [n for n in folded.nodes if n.kind == "Constant"]
    adds = [n for n in folded.nodes if n.kind == "Add" and n.inputs[0] == "x"]
    assert len(adds) == 1
    out = ir.evaluate(folded, {"x": np.array([10.0])})
    assert out["y"].tolist() == [17.0]
    # the fold left only the live arithmetic
    assert {n.kind for n in folded.nodes} <= {"Constant", "Add"}


def test_every_node_kind_is_written(graph):
    # the IR declares no node kind that no writer emits: export_graph writes
    # all but Constant, which fold_constants writes
    written = set(graph.node_counts()) | set(ir.fold_constants(graph).node_counts())
    assert written == set(ir.NODE_KINDS)


def test_merge_scales_relu_leaves_the_requant_template_alone(graph):
    # the name stays only for the benchmark's set-up call, and returns its
    # argument: the graph it builds is the one opt-ir writes
    assert ir.merge_scales_relu(graph) is graph


def test_passes_compose_and_stay_exact(graph, int_model):
    im, va = int_model
    x = va.features[:48]
    g = ir.fold_constants(ir.infer_shapes(graph))
    assert ir.validate(g) == []
    logits, _ = qz.int_forward(im, x)
    assert np.array_equal(ir.evaluate(g, {"x": x})["logits"], logits)


# --- validation -----------------------------------------------------------------

def base_single_node_graph():
    return ir.IRGraph(
        nodes=[ir.IRNode("Softmax", ("x",), "y", {})],
        inputs=["x"], outputs=["y"],
        tensors={"x": ir.TensorInfo((-1,), "real"),
                 "y": ir.TensorInfo((-1,), "real")},
        initializers={})


def test_validate_accepts_minimal_graph():
    assert ir.validate(base_single_node_graph()) == []


def test_validate_reports_unsupported_kinds():
    g = base_single_node_graph()
    g.nodes.append(ir.IRNode("Bipolar", ("y",), "z", {}))
    g.outputs = ["z"]
    diags = ir.validate(g)
    assert any("Bipolar" in d and "unsupported" in d.lower() for d in diags)


def test_validate_reports_unknown_kind():
    g = base_single_node_graph()
    g.nodes[0] = ir.IRNode("Frobnicate", ("x",), "y", {})
    assert any("Frobnicate" in d for d in ir.validate(g))


def test_validate_reports_dangling_inputs():
    g = base_single_node_graph()
    g.nodes[0] = ir.IRNode("Softmax", ("h7",), "y", {})
    diags = ir.validate(g)
    assert any("h7" in d for d in diags)


def test_validate_reports_cycles_by_name():
    g = ir.IRGraph(
        nodes=[
            ir.IRNode("Softmax", ("b",), "a", {}),
            ir.IRNode("Softmax", ("a",), "b", {}),
        ],
        inputs=[], outputs=["b"],
        tensors={"a": ir.TensorInfo((-1,), "real"),
                 "b": ir.TensorInfo((-1,), "real")},
        initializers={})
    diags = ir.validate(g)
    cycle = [d for d in diags if "cycle" in d.lower()]
    assert cycle and "a" in cycle[0] and "b" in cycle[0]


def test_validate_reports_non_topological_order():
    g = ir.IRGraph(
        nodes=[
            ir.IRNode("Softmax", ("t",), "y", {}),
            ir.IRNode("Softmax", ("x",), "t", {}),
        ],
        inputs=["x"], outputs=["y"],
        tensors={"x": ir.TensorInfo((-1,), "real"),
                 "t": ir.TensorInfo((-1,), "real"),
                 "y": ir.TensorInfo((-1,), "real")},
        initializers={})
    diags = ir.validate(g)
    assert any("order" in d.lower() for d in diags)


def test_validate_reports_duplicate_outputs():
    g = base_single_node_graph()
    g.nodes.append(ir.IRNode("Softmax", ("x",), "y", {}))
    assert any("y" in d and "already defined" in d for d in ir.validate(g))


def test_validate_reports_bad_quant_attrs():
    g = ir.IRGraph(
        nodes=[ir.IRNode("Quant", ("x", "s", "z"), "q",
                         {"bits": 8, "signed": True, "narrow": False,
                          "rounding": "half_even"})],
        inputs=["x"], outputs=["q"],
        tensors={"x": ir.TensorInfo((-1,), "real"),
                 "q": ir.TensorInfo((-1,), "int", bits=8, signed=True)},
        initializers={"s": np.array([-2.0]), "z": np.array([0.0])})
    assert any("scale" in d.lower() for d in ir.validate(g))
    for scale in (np.nan, np.inf):
        g.initializers["s"] = np.array([scale])
        assert ir.validate(g) == ["node q: Quant scale must be positive and finite"]


def test_validate_reports_arity_mismatch():
    g = base_single_node_graph()
    g.nodes[0] = ir.IRNode("Softmax", ("x", "x"), "y", {})
    assert any("input" in d.lower() for d in ir.validate(g))


def test_validate_reports_unproduced_graph_output():
    g = base_single_node_graph()
    g.outputs = ["nope"]
    assert any("nope" in d for d in ir.validate(g))


def test_validate_reports_an_integer_matmul_with_no_static_inner_dimension():
    # with both inner dimensions dynamic nothing bounds the sums' width, so
    # inference rejects the graph and validate reports it; a static
    # dimension on either side is fine
    def matmul(x_shape):
        return ir.IRGraph(
            nodes=[ir.IRNode("MatMul", ("x", "w"), "acc", {})],
            inputs=["x", "w"], outputs=["acc"],
            tensors={"x": ir.TensorInfo(x_shape, "int", bits=8, signed=True),
                     "w": ir.TensorInfo((-1, 4), "int", bits=8, signed=True)},
            initializers={})

    diags = ir.validate(matmul((-1, -1)))
    assert len(diags) == 1
    assert diags[0].startswith("node acc: integer MatMul has a dynamic inner dimension")
    g = matmul((-1, 1000))
    assert ir.validate(g) == []
    assert ir.infer_shapes(g).tensors["acc"].bits == 8 + 8 + 10
    acc = ir.evaluate(g, {"x": np.full((1, 1000), -128), "w": np.full((1000, 4), -128)})["acc"]
    assert acc.tolist() == [[1000 * 128 * 128] * 4]


def test_an_initializer_unlike_its_declared_shape_is_rejected():
    # widths count the declared inner dimension of 4, which 5-term sums
    # would exceed
    g = ir.IRGraph(
        nodes=[ir.IRNode("MatMul", ("x", "w"), "acc", {})],
        inputs=["x"], outputs=["acc"],
        tensors={"x": ir.TensorInfo((-1, -1), "int", bits=8, signed=True),
                 "w": ir.TensorInfo((4, 1), "int", bits=8, signed=True)},
        initializers={"w": np.full((5, 1), -128, dtype=np.int64)})
    message = "initializer w has shape (5, 1), declared (4, 1)"
    assert ir.validate(g) == [message]
    with pytest.raises(ir.IRError, match=re.escape(message)):
        ir.evaluate(g, {"x": np.full((1, 5), -128)})


# --- serialization ---------------------------------------------------------------

def test_serialize_layout(graph):
    doc = json.loads(ir.serialize(graph))
    assert doc["version"] == 1
    assert set(doc) == {"version", "inputs", "outputs", "tensors",
                        "initializers", "nodes"}
    assert doc["inputs"] == ["x"]
    # tensors are stored flat with an explicit shape
    some = next(iter(doc["initializers"].values()))
    assert set(some) >= {"shape", "data", "kind"}


def test_serialize_parse_round_trip_is_stable(graph):
    text = ir.serialize(graph)
    g2 = ir.parse(text)
    assert ir.serialize(g2) == text
    x = np.zeros((2, 16))
    a = ir.evaluate(graph, {"x": x})
    b = ir.evaluate(g2, {"x": x})
    assert np.array_equal(a["logits"], b["logits"])


def test_parse_rejects_malformed_documents():
    with pytest.raises(ir.ParseError):
        ir.parse("{not json")
    with pytest.raises(ir.ParseError):
        ir.parse(json.dumps({"version": 1}))
    doc = json.loads(ir.serialize(base_single_node_graph()))
    doc["nodes"][0]["kind"] = 7
    with pytest.raises(ir.ParseError) as err:
        ir.parse(json.dumps(doc))
    assert "nodes[0]" in str(err.value)


INT_INFO_DOC = {"kind": "int", "bits": 8, "signed": True, "shape": [-1]}


@pytest.mark.parametrize("field, value, message", [
    ("tensors", [], "tensors must be an object"),
    ("initializers", 7, "initializers must be an object"),
    ("attrs", 5, "nodes[0]: attrs must be an object"),
    ("inputs", "x", "inputs must be a list of strings"),
    ("outputs", ["y", 3], "outputs must be a list of strings"),
    ("nodes", 5, "nodes must be a list"),
    ("tensors.x", {**INT_INFO_DOC, "signed": "false"},
     "tensors[x]: signed must be a boolean, got 'false'"),
    ("tensors.x", {**INT_INFO_DOC, "bits": 8.9}, "tensors[x]: bits must be an integer, got 8.9"),
    ("tensors.x", {**INT_INFO_DOC, "kind": "float"},
     "tensors[x]: kind must be 'real' or 'int', got 'float'"),
    ("initializers.w", {"kind": "float", "shape": [1], "data": [1]},
     "initializers[w]: kind must be 'real' or 'int', got 'float'"),
    ("initializers.w", {"kind": "int", "shape": [1], "data": [8.9]},
     "initializers[w]: bad tensor document (int data must be integers, got 8.9)"),
    ("initializers.w", {"kind": "real", "shape": [1], "data": ["1.5"]},
     "initializers[w]: bad tensor document (real data must be numbers, got '1.5')"),
])
def test_parse_names_a_field_of_the_wrong_type(field, value, message):
    doc = json.loads(ir.serialize(base_single_node_graph()))
    *parents, key = field.split(".")
    target = doc["nodes"][0] if key == "attrs" else doc
    for name in parents:
        target = target[name]
    target[key] = value
    with pytest.raises(ir.ParseError) as err:
        ir.parse(json.dumps(doc))
    assert str(err.value) == message


@pytest.mark.parametrize("bits", [-1, 0, 1, ir.MAX_TENSOR_BITS + 1, 10 ** 30])
def test_parse_refuses_a_declared_width_outside_the_cap(bits):
    doc = json.loads(ir.serialize(base_single_node_graph()))
    doc["tensors"]["x"] = {**INT_INFO_DOC, "bits": bits}
    with pytest.raises(ir.ParseError) as err:
        ir.parse(json.dumps(doc))
    assert str(err.value) == f"tensors[x]: bits {bits} outside 2..{ir.MAX_TENSOR_BITS}"


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_parse_refuses_a_number_that_is_not_finite(number):
    doc = json.loads(ir.serialize(base_single_node_graph()))
    doc["initializers"]["w"] = {"kind": "real", "shape": [1], "data": ["@"]}
    with pytest.raises(ir.ParseError) as err:
        ir.parse(json.dumps(doc).replace('"@"', number))
    assert str(err.value) == f"{number} is not a finite JSON number"


def test_parse_keeps_wide_integers_exact():
    g = ir.IRGraph(
        nodes=[ir.IRNode("Add", ("x", "big"), "y", {})],
        inputs=["x"], outputs=["y"],
        tensors={"x": ir.TensorInfo((-1,), "int", bits=70, signed=True),
                 "y": ir.TensorInfo((-1,), "int", bits=71, signed=True)},
        initializers={"big": np.array([2 ** 68], dtype=object)})
    text = ir.serialize(g)
    g2 = ir.parse(text)
    assert g2.initializers["big"][0] == 2 ** 68
    out = ir.evaluate(g2, {"x": np.array([1], dtype=object)})
    assert out["y"][0] == 2 ** 68 + 1


def test_save_load_graph(tmp_path, graph):
    path = tmp_path / "g.json"
    ir.save_graph(graph, str(path))
    g2 = ir.load_graph(str(path))
    assert ir.serialize(g2) == ir.serialize(graph)
