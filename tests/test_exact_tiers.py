"""Exact integer inference across its float64 / int64 / Python-int forms.

The interpreter holds each integer tensor in the form its inferred width
gives (float64 below 2^53, int64 below 2^63, Python ints past that) and runs
in place; `int_forward` evaluates the exported graph.  These tests pin that
the in-place paths never write into arrays the caller owns, that integer
results leave as int64 or Python ints, that the form follows the width and
not the values, that results equal a Python-int replay where values sit on
either side of 2^53, and that `accumulator_widths` is the width the graph
gives each layer's MatMul.
"""

import numpy as np
import pytest

from hessquant import ir, nn
from hessquant import quantize as qz

BOUNDARY = 1 << 53


def _fingerprint(a: np.ndarray):
    a = np.asarray(a)
    body = repr(a.tolist()) if a.dtype == object else a.tobytes()
    return a.dtype.str, a.shape, body


def _graph_arrays(g: ir.IRGraph) -> dict:
    arrays = {f"init:{k}": v for k, v in g.initializers.items()}
    arrays.update({f"const:{n.output}": n.attrs["value"] for n in g.nodes
                   if n.kind == "Constant"})
    return arrays


def _model_arrays(im: qz.IntegerModel) -> dict:
    arrays = {}
    for i, l in enumerate(im.layers):
        arrays[f"w{i}"], arrays[f"b{i}"] = l.q_weights, l.q_bias
    return arrays


def _py_forward(im: qz.IntegerModel, x: np.ndarray) -> list[list[int]]:
    """Integer logit codes replayed row by row in Python ints."""
    q = qz.quantize(x, im.input_params)
    rows = []
    for r in range(q.shape[0]):
        h = [int(v) for v in q[r]]
        for layer in im.layers:
            w = layer.q_weights.tolist()
            acc = [sum(h[i] * w[i][j] for i in range(len(h))) + int(b)
                   for j, b in enumerate(layer.q_bias)]
            if layer.requant is None:
                rows.append(acc)
                break
            m, c = layer.requant.mantissa, layer.requant.shift
            half = (1 << (c - 1)) if c else 0
            qmax = (1 << layer.act_bits) - 1
            h = [min(max((a * m + half) >> c, 0), qmax) for a in acc]
    return rows


def _with_code_output(g: ir.IRGraph, n_layers: int) -> ir.IRGraph:
    """The graph with the last accumulator (the logit codes) as an output."""
    out = g.copy()
    out.outputs = out.outputs + [f"accb{n_layers - 1}"]
    return out


def _check_against_reference(im: qz.IntegerModel, x: np.ndarray) -> None:
    want = _py_forward(im, x)
    scale = im.output_scale
    want_logits = [[float(v) * scale for v in row] for row in want]
    logits, codes = qz.int_forward(im, x)
    assert codes.dtype in (np.int64, object)
    assert codes.tolist() == want
    assert logits.tolist() == want_logits
    g = ir.export_graph(im)
    for graph in (g, ir.fold_constants(g)):
        out = ir.evaluate(_with_code_output(graph, len(im.layers)), {"x": x})
        got = out[f"accb{len(im.layers) - 1}"]
        assert got.dtype in (np.int64, object)
        assert got.tolist() == want
        assert out["logits"].tolist() == want_logits


# --- no aliasing ----------------------------------------------------------------

@pytest.fixture(scope="module")
def lowered(small_data, trained_model):
    train_ds, val_ds = small_data
    schema = qz.QuantSchema.coupled((6, 5, 6))
    cfg = nn.TrainConfig(epochs=1, batch_size=64, learning_rate=5e-4, seed=0)
    fq = qz.qat_train(trained_model, train_ds, schema, cfg, val=val_ds)
    return qz.lower(fq), val_ds


def test_in_place_evaluation_never_writes_caller_arrays(lowered):
    im, val_ds = lowered
    raw = ir.export_graph(im)
    opt = ir.fold_constants(raw)
    x = val_ds.features[:200].copy()
    watched = {"x": x, **_model_arrays(im),
               **{f"raw:{k}": v for k, v in _graph_arrays(raw).items()},
               **{f"opt:{k}": v for k, v in _graph_arrays(opt).items()}}
    before = {k: _fingerprint(v) for k, v in watched.items()}

    first = [ir.evaluate(raw, {"x": x}), ir.evaluate(opt, {"x": x}),
             qz.int_forward(im, x)]
    second = [ir.evaluate(raw, {"x": x}), ir.evaluate(opt, {"x": x}),
              qz.int_forward(im, x)]
    assert {k: _fingerprint(v) for k, v in watched.items()} == before
    for a, b in zip(first[:2], second[:2]):
        assert a.keys() == b.keys()
        for name in a:
            assert _fingerprint(a[name]) == _fingerprint(b[name])
    for a, b in zip(first[2], second[2]):
        assert _fingerprint(a) == _fingerprint(b)
    assert first[0]["logits"].tobytes() == first[2][0].tobytes()
    assert first[1]["logits"].tobytes() == first[2][0].tobytes()


def test_in_place_evaluation_leaves_inputs_and_constants_of_a_hand_graph():
    # every elementwise node reads a graph input, an initializer or a
    # Constant value that dies there; none of them may be written
    g = ir.IRGraph(
        nodes=[ir.IRNode("Softmax", ("x",), "r", {}),
               ir.IRNode("Mul", ("r", "s"), "y", {}),
               ir.IRNode("Constant", (), "c", {"value": np.array([3, -4], dtype=np.int64)}),
               ir.IRNode("Add", ("q", "c"), "a", {}),
               ir.IRNode("Requant", ("a",), "ra",
                         {"mantissa": 1, "shift": 0, "bits": 8, "signed": False}),
               ir.IRNode("Mul", ("ra", "k"), "z", {}),
               ir.IRNode("Softmax", ("y",), "p", {})],
        inputs=["x", "q"], outputs=["y", "z", "p"],
        tensors={"x": ir.TensorInfo((-1, 2), "real"),
                 "q": ir.TensorInfo((-1, 2), "int", bits=8, signed=True)},
        initializers={"s": np.array(0.5), "k": np.array([2, 5], dtype=np.int64)})
    x = np.array([[-1.0, 2.0], [3.0, -4.0]])
    q = np.array([[-128, 127], [5, 6]], dtype=np.int64)
    watched = {"x": x, "q": q, **_graph_arrays(g)}
    before = {k: _fingerprint(v) for k, v in watched.items()}
    out = ir.evaluate(g, {"x": x, "q": q})
    assert {k: _fingerprint(v) for k, v in watched.items()} == before
    e = np.exp(x - x.max(axis=1, keepdims=True))
    assert out["y"].tolist() == (e / e.sum(axis=1, keepdims=True) * 0.5).tolist()
    assert out["z"].dtype == np.int64
    assert out["z"].tolist() == [[0, 615], [16, 10]]
    assert out["p"].tolist() == ir.evaluate(g, {"x": x, "q": q})["p"].tolist()


def test_fold_constants_keeps_integer_constants_out_of_float64(lowered):
    im, _ = lowered
    folded = ir.fold_constants(ir.export_graph(im))
    values = [n.attrs["value"] for n in folded.nodes if n.kind == "Constant"]
    assert values
    for v in values:
        assert v.dtype in (np.int64, object)


def test_integer_input_outside_its_declared_width_is_rejected():
    g = ir.IRGraph(
        nodes=[ir.IRNode("Add", ("q", "b"), "y", {})],
        inputs=["q"], outputs=["y"],
        tensors={"q": ir.TensorInfo((-1,), "int", bits=8, signed=True)},
        initializers={"b": np.array([1], dtype=np.int64)})
    assert ir.evaluate(g, {"q": np.array([-128, 127])})["y"].tolist() == [-127, 128]
    with pytest.raises(ir.EvalError, match="declared 8-bit signed range"):
        ir.evaluate(g, {"q": np.array([128])})
    # a Python int past int64, or a uint64 that an int64 cast would wrap, is
    # named the same way, at any declared width
    for bits in (8, 40, 62, 63):
        g.tensors["q"] = ir.TensorInfo((-1,), "int", bits=bits, signed=True)
        for q in ([2**70], np.array([2**64 - 1], dtype=np.uint64)):
            with pytest.raises(ir.EvalError, match=f"declared {bits}-bit signed range"):
                ir.evaluate(g, {"q": q})
    # a value that is not an integer is refused, not truncated by the cast
    for q in ([1.5, -2.7], [np.nan], [np.inf], [-np.inf],
              np.array([1.5, 2**70], dtype=object)):
        with pytest.raises(ir.EvalError, match="input q holds a value that is not an integer"):
            ir.evaluate(g, {"q": q})
    assert ir.evaluate(g, {"q": [-3.0, 2.0]})["y"].tolist() == [-2, 3]


# --- values at 2^53 --------------------------------------------------------------
#
# The models below run 32-bit codes through fan-ins of 3 or 4, so every
# accumulator is typed 66 or 67 bits wide and held in Python ints whatever
# its values.  The values are chosen so that one sum (or requantization
# product) lands on 2^53 - 1, 2^53 or 2^53 + 1, where a float64 path would
# round; the replay pins that none does.

def _layer(w, b, requant, act_bits=32) -> qz.IntLayer:
    return qz.IntLayer(q_weights=np.array(w, dtype=np.int64), weight_bits=32,
                       weight_scale=1.0, q_bias=qz.int_codes(b),
                       act_bits=act_bits, requant=requant,
                       act_exp=None if requant is None else 0)


def _model(layers) -> qz.IntegerModel:
    return qz.IntegerModel(layers=layers, input_scale=2.0 ** -31, accumulator_bits=96,
                           input_bits=32)


def _inputs(codes: np.ndarray) -> np.ndarray:
    """Real inputs that quantize to exactly these 32-bit input codes."""
    return codes.astype(np.float64) * 2.0 ** -31


def _first_layer(bound: int, n: int, rng) -> tuple[list, list, np.ndarray]:
    """Weights, biases and input codes whose n*max|h|*max|W| + max|bias| is
    exactly bound, with row 0 and column 0 reaching it."""
    hmax = (1 << 31) - 1
    wmax = bound // (n * hmax) - 1
    bmax = bound - n * hmax * wmax
    w = [[wmax] + [int(v) for v in rng.integers(-wmax, wmax + 1, size=2)]
         for _ in range(n)]
    b = [bmax] + [int(v) for v in rng.integers(-bmax, bmax + 1, size=2)]
    h = rng.integers(-hmax, hmax + 1, size=(6, n))
    h[0] = hmax
    h[1] = -hmax
    assert n * max(np.abs(h).max(), 1) * wmax + bmax == bound
    return w, b, h


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_matmul_bound_at_2_53(offset):
    rng = np.random.default_rng(53 + offset)
    w, b, h = _first_layer(BOUNDARY + offset, 4, rng)
    im = _model([_layer(w, b, None)])
    _check_against_reference(im, _inputs(h))
    assert qz.int_forward(im, _inputs(h))[1][0, 0] == BOUNDARY + offset


def _requant_at(target: int) -> tuple[qz.DyadicScale, int]:
    """A requantization scale m / 2^c and an accumulator bound B with
    B*m + 2^(c-1) == target, its output still below 2^32."""
    for c in range(22, 32):
        half = 1 << (c - 1)
        for m in range(1, 200, 2):
            if (target - half) % m == 0:
                return qz.DyadicScale(m, c), (target - half) // m
    raise AssertionError("no scale found")


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_requantize_bound_at_2_53(offset):
    rng = np.random.default_rng(153 + offset)
    requant, acc_bound = _requant_at(BOUNDARY + offset)
    assert acc_bound * requant.mantissa + (1 << (requant.shift - 1)) == BOUNDARY + offset
    w, b, h = _first_layer(acc_bound, 3, rng)
    # the last layer passes the three hidden codes through unchanged
    im = _model([_layer(w, b, requant), _layer(np.eye(3, dtype=np.int64), [0, 0, 0], None)])
    _check_against_reference(im, _inputs(h))
    codes = qz.int_forward(im, _inputs(h))[1]
    assert codes[0, 0] == (BOUNDARY + offset) >> requant.shift


def test_requantize_past_2_53_leaves_float64():
    # acc * m = k * 2^22 - 2^21 - 1 is odd and past 2^53, so float64 would
    # round it up by one and (acc * m + 2^21) >> 22 would read k instead of
    # k - 1, though the accumulator itself is below 2^53; the layer's static
    # width keeps it out of float64, in int_forward and in the exported graph
    k = 3 * ((1 << 30) + 1)
    requant = qz.DyadicScale(3, 22)
    acc_bound, rem = divmod(k * (1 << 22) - (1 << 21) - 1, 3)
    assert rem == 0 and acc_bound < BOUNDARY < acc_bound * 3
    w, b, h = _first_layer(acc_bound, 3, np.random.default_rng(7))
    im = _model([_layer(w, b, requant), _layer(np.eye(3, dtype=np.int64), [0, 0, 0], None)])
    _check_against_reference(im, _inputs(h))
    assert qz.int_forward(im, _inputs(h))[1][0, 0] == k - 1


# --- lowered models -----------------------------------------------------------

@pytest.mark.parametrize("bits", [2, 4, 8, 16, 18])
def test_lowered_models_agree_with_the_python_int_replay(bits, small_data, trained_model):
    train_ds, val_ds = small_data
    schema = qz.QuantSchema.homogeneous(bits, trained_model.n_layers, input_bits=bits)
    cfg = nn.TrainConfig(epochs=1, batch_size=64, learning_rate=5e-4, seed=0)
    fq = qz.qat_train(trained_model, train_ds, schema, cfg, val=val_ds)
    acc_bits = max(qz.accumulator_widths(schema, [l.fan_in for l in trained_model.layers]))
    im = qz.lower(fq, accumulator_bits=acc_bits)
    _check_against_reference(im, val_ds.features[:64])


def test_bounds_follow_the_actual_inner_dimension():
    # a static inner dimension of 4096 types the products of 26-bit codes as
    # 26 + 26 + 12 = 64 bits, so the MatMul and the Add after it run in
    # Python ints; the sums are near 2^62 and must be exact
    def graph(a_shape):
        return ir.IRGraph(
            nodes=[ir.IRNode("MatMul", ("a", "b"), "c", {}),
                   ir.IRNode("Add", ("c", "one"), "d", {})],
            inputs=["a", "b"], outputs=["d"],
            tensors={"a": ir.TensorInfo(a_shape, "int", bits=26, signed=True),
                     "b": ir.TensorInfo((-1, 1), "int", bits=26, signed=True)},
            initializers={"one": np.array([1], dtype=np.int64)})

    n, v = 4096, (1 << 25) - 1
    g = graph((-1, n))
    assert ir.infer_shapes(g).tensors["c"].bits == 64
    out = ir.evaluate(g, {"a": np.full((1, n), v), "b": np.full((n, 1), v)})
    assert out["d"].tolist() == [[n * v * v + 1]]
    # with both inner dimensions dynamic the width has no bound, so neither
    # inference nor the interpreter accepts the graph
    g = graph((-1, -1))
    for check in (ir.infer_shapes, lambda g: ir.evaluate(
            g, {"a": np.full((1, n), v), "b": np.full((n, 1), v)})):
        with pytest.raises(ir.IRError, match="node c: integer MatMul has a dynamic inner"):
            check(g)


@pytest.mark.parametrize("width, form, small", [
    pytest.param(53, np.float64, False, id="53-float64"),
    pytest.param(54, np.int64, False, id="54-int64"),
    pytest.param(63, np.int64, False, id="63-int64"),
    pytest.param(64, object, False, id="64-object"),
    pytest.param(54, np.int64, True, id="54-int64-small-values")])
def test_matmul_tier_follows_the_inferred_width(width, form, small, tier_forms):
    # two-term sums of unsigned 26-bit and (width - 27)-bit extreme codes; at
    # 54 bits the sum, 2^54 - 2^28 - 2^27 + 2, is not a float64.  Small
    # values at a declared 54 bits fit a float64 too, but the width, not
    # the values, picks the form.
    g = ir.IRGraph(
        nodes=[ir.IRNode("MatMul", ("a", "b"), "c", {})],
        inputs=["a", "b"], outputs=["c"],
        tensors={"a": ir.TensorInfo((-1, 2), "int", bits=26, signed=False),
                 "b": ir.TensorInfo((2, 1), "int", bits=width - 27, signed=False)},
        initializers={})
    assert ir.infer_shapes(g).tensors["c"].bits == width
    amax, bmax = ((3, 5) if small else ((1 << 26) - 1, (1 << (width - 27)) - 1))
    out = ir.evaluate(g, {"a": np.full((1, 2), amax), "b": np.full((2, 1), bmax)})
    assert out["c"].tolist() == [[2 * amax * bmax]]
    assert out["c"].dtype == (object if width > 63 else np.int64)
    assert tier_forms[(1 << width) - 1] == {np.dtype(form)}


@pytest.mark.parametrize("width, mantissa, shift, form, small", [
    pytest.param(53, 1, 0, np.float64, False, id="2^53-1-float64"),
    pytest.param(53, 1, 1, np.int64, False, id="2^53-int64"),
    pytest.param(63, 1, 0, np.int64, False, id="2^63-1-int64"),
    pytest.param(63, 1, 1, object, False, id="2^63-object"),
    pytest.param(40, (1 << 31) - 1, 31, object, True, id="past-2^63-small-values")])
def test_requant_tier_follows_the_static_bound(width, mantissa, shift, form, small,
                                               tier_forms):
    # the bound (2^width - 1) * m + 2^(c-1) of the width, not the values,
    # picks the form a Requant multiplies in; the codes leave as int64
    g = ir.IRGraph(
        nodes=[ir.IRNode("Requant", ("a",), "q", {"mantissa": mantissa, "shift": shift,
                                                  "bits": 32, "signed": True})],
        inputs=["a"], outputs=["q"],
        tensors={"a": ir.TensorInfo((-1,), "int", bits=width, signed=True)},
        initializers={})
    half = (1 << (shift - 1)) if shift else 0
    reach = ((1 << width) - 1) * mantissa + half
    top = 1 << (width - 1)
    a = [-3, 0, 1, 2, 7] if small else [-top, -top + 1, -1, 0, 1, top - 2, top - 1]
    want = [min(max((v * mantissa + half) >> shift, -(1 << 31)), (1 << 31) - 1) for v in a]
    got = ir.evaluate(g, {"a": a})["q"]
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert tier_forms[reach] == {np.dtype(form)}


def _extreme_model(bits: int, sizes: list[int]) -> qz.FakeQuantModel:
    """A two-layer fake-quant model whose scales all lower to about 2^0 or
    2^-k: inputs up to 2^(bits-1), weights of +-2^(bits-1) into a hidden
    range of (2^bits - 1) * 2^k that the largest sums fill, out of it
    weights of +-2^(bits-1-k), and biases of up to 2^(bits-1) codes."""
    rng = np.random.default_rng(bits)
    k = min(bits - 2 + (sizes[0] - 1).bit_length(), 16)
    half = 2.0 ** (bits - 1)
    layers = []
    for n, m, mag in ((sizes[0], sizes[1], half), (sizes[1], sizes[2], half / 2.0 ** k)):
        layers.append(nn.DenseLayer(
            weights=rng.choice([-mag, mag], size=(n, m)),
            bias=rng.integers(-(1 << (bits - 1)), 1 << (bits - 1), size=m).astype(np.float64)))
    return qz.FakeQuantModel(model=nn.MLPModel(layers=layers),
                             schema=qz.QuantSchema.homogeneous(bits, 2),
                             input_max=half, act_max=[(2.0 ** bits - 1) * 2.0 ** k])


@pytest.mark.parametrize("sizes", [[1, 1, 3], [16, 64, 5]], ids=["fan-in-1", "fan-in-16-64"])
@pytest.mark.parametrize("bits", range(2, 33))
def test_accumulator_widths_are_the_graph_widths_and_lower_exactly(bits, sizes):
    fq = _extreme_model(bits, sizes)
    widths = qz.accumulator_widths(fq.schema, sizes[:-1])
    im = qz.lower(fq, accumulator_bits=max(widths))
    g = ir.export_graph(im)
    assert widths == [g.tensors[f"acc{i}"].bits for i in range(len(widths))]
    with pytest.raises(qz.LoweringError, match="accumulator needs"):
        qz.lower(fq, accumulator_bits=max(widths) - 1)
    # inputs past the range clip to the extreme codes: all at qmax, all at
    # qmin, the first weight column's signs and their negation; then random
    half = fq.input_max
    sign = np.sign(fq.model.layers[0].weights[:, 0])
    rng = np.random.default_rng(bits + 100)
    x = np.vstack([np.full(sizes[0], 2 * half), np.full(sizes[0], -2 * half),
                   2 * half * sign, -2 * half * sign,
                   rng.uniform(-half, half, size=(4, sizes[0]))])
    _check_against_reference(im, x)
