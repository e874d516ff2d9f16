import json

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
    # input quantizer, 7 nodes per hidden layer, 5 for the output stage
    assert len(g.nodes) == 1 + 7 * (L - 1) + 5
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
    scale = im.layers[0].weight_scale.value
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
    g2 = g.copy()
    g2.nodes[0] = ir.IRNode("Quant", ("x", "s", "z"), "q",
                            {"bits": 8, "signed": True, "narrow": False,
                             "rounding": "half_up"})
    assert ir.evaluate(g2, {"x": x})["q"].tolist() == [1, 2, 3, 0, -1]


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


# --- scale/relu reordering ------------------------------------------------------

def build_mul_relu_chain(s1, s2):
    return ir.IRGraph(
        nodes=[
            ir.IRNode("Mul", ("x", "s1"), "t1", {}),
            ir.IRNode("Relu", ("t1",), "t2", {}),
            ir.IRNode("Mul", ("t2", "s2"), "y", {}),
        ],
        inputs=["x"], outputs=["y"],
        tensors={"x": ir.TensorInfo((-1,), "real"),
                 "y": ir.TensorInfo((-1,), "real")},
        initializers={"s1": np.array([s1]), "s2": np.array([s2])})


def test_merge_scales_relu_fuses_scalar_chain():
    g = build_mul_relu_chain(0.5, 4.0)
    merged = ir.merge_scales_relu(g)
    muls = [n for n in merged.nodes if n.kind == "Mul"]
    assert len(muls) == 1
    scale_name = muls[0].inputs[1]
    assert merged.initializers[scale_name] == pytest.approx(2.0)
    # relu now comes first
    assert merged.nodes[0].kind == "Relu"
    x = np.array([-3.0, 0.0, 5.0])
    assert ir.evaluate(merged, {"x": x})["y"].tolist() == \
        ir.evaluate(g, {"x": x})["y"].tolist()


def test_merge_scales_relu_skips_negative_scales():
    g = build_mul_relu_chain(-1.0, 4.0)
    merged = ir.merge_scales_relu(g)
    # hoisting a negative scale past relu would change results; the pass
    # must leave the graph alone
    assert len([n for n in merged.nodes if n.kind == "Mul"]) == 2
    x = np.array([-2.0, 3.0])
    assert np.array_equal(ir.evaluate(merged, {"x": x})["y"],
                          ir.evaluate(g, {"x": x})["y"])


def test_merge_scales_relu_never_increases_node_count(graph):
    merged = ir.merge_scales_relu(graph)
    assert len(merged.nodes) <= len(graph.nodes)
    # for the exported template every hidden layer loses exactly one Mul
    hidden = sum(1 for n in graph.nodes if n.kind == "Relu")
    assert len(merged.nodes) == len(graph.nodes) - hidden


def test_merge_scales_relu_preserves_semantics(graph, int_model):
    _, va = int_model
    x = va.features[:32]
    merged = ir.merge_scales_relu(graph)
    assert ir.validate(merged) == []
    before = ir.evaluate(graph, {"x": x})
    after = ir.evaluate(merged, {"x": x})
    assert np.array_equal(before["logits"], after["logits"])


def test_merge_respects_multi_consumer_tensors():
    # t1 feeds both the relu and a graph output: the swap must not happen
    g = ir.IRGraph(
        nodes=[
            ir.IRNode("Mul", ("x", "s1"), "t1", {}),
            ir.IRNode("Relu", ("t1",), "t2", {}),
        ],
        inputs=["x"], outputs=["t1", "t2"],
        tensors={"x": ir.TensorInfo((-1,), "real"),
                 "t1": ir.TensorInfo((-1,), "real"),
                 "t2": ir.TensorInfo((-1,), "real")},
        initializers={"s1": np.array([2.0])})
    merged = ir.merge_scales_relu(g)
    assert [n.kind for n in merged.nodes] == ["Mul", "Relu"]


def test_passes_compose_and_stay_exact(graph, int_model):
    im, va = int_model
    x = va.features[:48]
    g = ir.merge_scales_relu(ir.fold_constants(ir.infer_shapes(graph)))
    assert ir.validate(g) == []
    logits, _ = qz.int_forward(im, x)
    assert np.array_equal(ir.evaluate(g, {"x": x})["logits"], logits)


# --- validation -----------------------------------------------------------------

def base_single_node_graph():
    return ir.IRGraph(
        nodes=[ir.IRNode("Relu", ("x",), "y", {})],
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
    g.nodes[0] = ir.IRNode("Relu", ("h7",), "y", {})
    diags = ir.validate(g)
    assert any("h7" in d for d in diags)


def test_validate_reports_cycles_by_name():
    g = ir.IRGraph(
        nodes=[
            ir.IRNode("Relu", ("b",), "a", {}),
            ir.IRNode("Relu", ("a",), "b", {}),
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
            ir.IRNode("Relu", ("t",), "y", {}),
            ir.IRNode("Relu", ("x",), "t", {}),
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
    g.nodes.append(ir.IRNode("Relu", ("x",), "y", {}))
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


def test_validate_reports_arity_mismatch():
    g = base_single_node_graph()
    g.nodes[0] = ir.IRNode("Relu", ("x", "x"), "y", {})
    assert any("input" in d.lower() for d in ir.validate(g))


def test_validate_reports_unproduced_graph_output():
    g = base_single_node_graph()
    g.outputs = ["nope"]
    assert any("nope" in d for d in ir.validate(g))


def test_validate_reports_an_integer_matmul_with_no_static_inner_dimension():
    # inference counts one term per sum, so 8-bit codes give a 16-bit type
    # that 1,000-term sums overflow; a static dimension on either side is fine
    def matmul(x_shape):
        return ir.IRGraph(
            nodes=[ir.IRNode("MatMul", ("x", "w"), "acc", {})],
            inputs=["x", "w"], outputs=["acc"],
            tensors={"x": ir.TensorInfo(x_shape, "int", bits=8, signed=True),
                     "w": ir.TensorInfo((-1, 4), "int", bits=8, signed=True)},
            initializers={})

    g = matmul((-1, -1))
    assert ir.infer_shapes(g).tensors["acc"].bits == 16
    acc = ir.evaluate(g, {"x": np.full((1, 1000), -128), "w": np.full((1000, 4), -128)})["acc"]
    assert acc.tolist() == [[1000 * 128 * 128] * 4]
    assert int(acc.max()).bit_length() + 1 == 25
    diags = ir.validate(g)
    assert len(diags) == 1
    assert diags[0].startswith("node acc: integer MatMul has a dynamic inner dimension")
    assert ir.validate(matmul((-1, 1000))) == []


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
