import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hessquant import data, ir, nn
from hessquant import quantize as qz


# --- calibration and the basic quantize/dequantize pair ---------------------

def test_symmetric_calibration_centers_on_zero():
    v = np.array([-1.5, 0.2, 3.0])
    p = qz.calibrate(v, bits=8, symmetric=True)
    assert p.zero_point == 0
    assert p.beta == 3.0 and p.alpha == -3.0
    assert p.scale == pytest.approx(6.0 / 255.0)
    assert (p.qmin, p.qmax) == (-128, 127)


def test_asymmetric_calibration_includes_zero():
    v = np.array([2.0, 4.0])
    p = qz.calibrate(v, bits=8, symmetric=False)
    assert p.alpha == 0.0 and p.beta == 4.0
    assert (p.qmin, p.qmax) == (0, 255)
    # zero itself must be exactly representable
    assert qz.dequantize(qz.quantize(np.array([0.0]), p), p)[0] == 0.0


def test_calibration_handles_constant_and_empty_ranges():
    p = qz.calibrate(np.zeros(5), bits=8, symmetric=True)
    assert p.scale > 0
    p2 = qz.calibrate(np.array([7.0, 7.0]), bits=4, symmetric=False)
    assert p2.alpha == 0.0 and p2.beta == 7.0


def test_quantize_saturates_at_range_edges():
    p = qz.calibrate(np.array([-1.0, 1.0]), bits=4, symmetric=True)
    q = qz.quantize(np.array([-10.0, 10.0]), p)
    assert q.tolist() == [p.qmin, p.qmax]


def test_quantize_uses_bankers_rounding():
    # scale 1, zero 0: values exactly halfway round to the even neighbor
    p = qz.QuantParams(scale=1.0, zero_point=0, bits=8, signed=True,
                       symmetric=True, alpha=-127.5, beta=127.5)
    q = qz.quantize(np.array([0.5, 1.5, 2.5, -0.5]), p)
    assert q.tolist() == [0, 2, 2, 0]


def test_round_trip_error_bounded_by_half_step():
    rng = np.random.default_rng(1)
    for bits in (2, 3, 4, 8, 16):
        for symmetric in (True, False):
            v = rng.normal(size=400) * rng.uniform(0.1, 10.0)
            if not symmetric:
                v = np.abs(v)
            p = qz.calibrate(v, bits=bits, symmetric=symmetric)
            err = np.abs(v - qz.dequantize(qz.quantize(v, p), p))
            assert err.max() <= p.scale / 2 + 1e-12


def test_fake_quant_equals_quantize_then_dequantize():
    rng = np.random.default_rng(2)
    v = rng.normal(size=100)
    p = qz.calibrate(v, bits=6)
    assert np.array_equal(qz.fake_quant(v, p),
                          qz.dequantize(qz.quantize(v, p), p))


def test_quant_params_validates_consistency():
    with pytest.raises(ValueError):
        qz.QuantParams(scale=1.0, zero_point=3, bits=8, signed=True,
                       symmetric=True, alpha=-127.0, beta=127.0)
    with pytest.raises(ValueError):
        qz.QuantParams(scale=-1.0, zero_point=0, bits=8, signed=True,
                       symmetric=True, alpha=127.0, beta=127.0)


# --- dyadic scales and requantization ----------------------------------------

def test_to_dyadic_matches_brute_force_search():
    # oracle: try every shift and every nearby mantissa outright
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.uniform(1e-6, 1.0, 40),
                             rng.uniform(1.0, 300.0, 10),
                             [0.5, 0.25, 1.0, 3.0, 255.49, 255.5]])
    for x in values:
        if x >= 255.5:  # rounds to 256 at shift 0: no 8-bit mantissa fits
            with pytest.raises(qz.LoweringError, match="overflowed"):
                qz.to_dyadic(float(x), mantissa_bits=8)
            continue
        got = qz.to_dyadic(float(x), mantissa_bits=8)
        best = None
        for shift in range(32):
            m = round(x * (1 << shift))
            for cand in {max(0, min(c, 255)) for c in (m - 1, m, m + 1)}:
                err = abs(x - cand / (1 << shift))
                key = (err, shift)
                if best is None or key < best[0]:
                    best = (key, cand, shift)
        assert abs(got.value - x) <= best[0][0] + 1e-15


def _nearest_dyadic(s: Fraction, bits: int) -> Fraction:
    """The m / 2^shift nearest to s over every shift 0..31 and mantissa
    1..2^bits - 1, by brute force; an exact tie goes to the larger."""
    best = None
    for shift in range(32):
        lo = math.floor(s * 2**shift)
        for m in (lo, lo + 1):
            if 0 < m < 2**bits:
                v = Fraction(m, 2**shift)
                if best is None or (abs(v - s), -v) < best[0]:
                    best = ((abs(v - s), -v), v)
    return best[1]


@pytest.mark.parametrize("bits", range(2, 32))
def test_to_dyadic_is_the_nearest_dyadic_or_raises(bits):
    # log-uniform scales from below 2^-32, which rounds to zero at shift 31,
    # to past 2^bits, which no mantissa reaches at shift 0; plus exact ties
    # at both ends and in between
    rng = np.random.default_rng(bits)
    top = 2**bits
    values = [2.0**e for e in rng.uniform(-36.0, bits + 2.0, 80)]
    values += [2.0**-32, np.nextafter(2.0**-32, 0.0), 3 * 2.0**-32, top - 1.5,
               top - 0.5, np.nextafter(top - 0.5, 0.0)]
    for s in map(float, values):
        exact = Fraction(s)
        if math.floor(exact + Fraction(1, 2)) >= top:
            with pytest.raises(qz.LoweringError, match="overflowed"):
                qz.to_dyadic(s, mantissa_bits=bits)
        elif math.floor(exact * 2**31 + Fraction(1, 2)) == 0:
            with pytest.raises(qz.LoweringError, match="underflowed"):
                qz.to_dyadic(s, mantissa_bits=bits)
        else:
            got = qz.to_dyadic(s, mantissa_bits=bits)
            assert Fraction(got.value) == _nearest_dyadic(exact, bits)


def test_to_dyadic_is_exact_for_representable_values():
    for x, m, s in [(0.5, 1, 1), (0.75, 3, 2), (3.0, 3, 0), (1.0, 1, 0)]:
        d = qz.to_dyadic(x, mantissa_bits=24)
        assert d.value == x
        assert d.mantissa == m and d.shift == s


def test_dyadic_scale_enforces_canonical_form():
    # even mantissas with a positive shift always have a smaller form
    with pytest.raises(ValueError):
        qz.DyadicScale(mantissa=6, shift=3)
    d = qz.to_dyadic(6.0 / 8.0)
    assert (d.mantissa, d.shift) == (3, 2)
    assert d.value == 0.75
    # even is fine once the shift hits zero
    assert qz.DyadicScale(mantissa=6, shift=0).value == 6.0
    assert qz.DyadicScale(mantissa=0, shift=0).value == 0.0


# --- requantization and the exact integer matmul, as one-node graphs ---------

def _requant(acc, scale: qz.DyadicScale, width: int) -> np.ndarray:
    """A Requant node's signed 32-bit codes of acc, declared width bits wide."""
    g = ir.IRGraph(
        nodes=[ir.IRNode("Requant", ("a",), "q", {"mantissa": scale.mantissa,
                                                  "shift": scale.shift, "bits": 32,
                                                  "signed": True})],
        inputs=["a"], outputs=["q"],
        tensors={"a": ir.TensorInfo((-1,), "int", bits=width, signed=True)},
        initializers={})
    return ir.evaluate(g, {"a": acc})["q"]


def _int_matmul(a, b, a_bits: int, b_bits: int) -> np.ndarray:
    """A MatMul node's exact product of signed a_bits- and b_bits-wide codes."""
    g = ir.IRGraph(
        nodes=[ir.IRNode("MatMul", ("a", "b"), "c", {})],
        inputs=["a", "b"], outputs=["c"],
        tensors={"a": ir.TensorInfo((-1, a.shape[1]), "int", bits=a_bits, signed=True),
                 "b": ir.TensorInfo(b.shape, "int", bits=b_bits, signed=True)},
        initializers={})
    return ir.evaluate(g, {"a": a, "b": b})["c"]


def test_requantize_rounds_to_nearest_with_ties_up():
    d = qz.DyadicScale(mantissa=3, shift=2)   # 0.75
    assert _requant(np.array([300]), d, 16).tolist() == [225]
    # 2/4 = 0.5 exactly: the added half turns it into round-half-up
    half = qz.DyadicScale(mantissa=1, shift=1)
    assert _requant(np.array([1, 3, -1]), half, 16).tolist() == [1, 2, 0]


def test_requantize_with_zero_shift_is_plain_multiply():
    d = qz.DyadicScale(mantissa=7, shift=0)
    acc = np.array([-4, 0, 11])
    assert _requant(acc, d, 16).tolist() == [-28, 0, 77]


def test_requantize_matches_float_reference_within_half_ulp():
    rng = np.random.default_rng(4)
    acc = rng.integers(-10**6, 10**6, size=500)
    d = qz.to_dyadic(0.0123, mantissa_bits=16)
    got = _requant(acc, d, 21)
    ref = np.floor(acc * d.value + 0.5).astype(np.int64)
    assert np.array_equal(got, ref)


def test_requantize_handles_python_int_objects():
    # a 72-bit input runs in Python ints; the large codes clip, the small
    # one shows the exact value
    d = qz.DyadicScale(mantissa=5, shift=4)
    acc = qz.int_codes([2**70, -(2**68), 12345])
    assert acc.dtype == object
    assert _requant(acc, d, 72).tolist() == [2**31 - 1, -(2**31), (12345 * 5 + 8) >> 4]


def test_requantize_promotes_instead_of_wrapping():
    # (2^62 - 1) * 3 does not fit int64: a wrapped product would change sign
    # and clip to the other end of the range
    d = qz.DyadicScale(mantissa=3, shift=1)
    acc = np.array([2**62 - 1, -(2**62), 5])
    assert _requant(acc, d, 63).tolist() == [2**31 - 1, -(2**31), 8]


def test_requantize_stays_int64_while_the_product_fits(tier_forms):
    # at 61 bits, (2^61 - 1) * 3 + 2^30 is past 2^53 and below 2^63
    d = qz.DyadicScale(mantissa=3, shift=31)
    out = _requant(np.array([2**60 - 1, -(2**60), 7]), d, 61)
    assert out.tolist() == [3 * 2**29, -3 * 2**29, 0]
    assert tier_forms[((1 << 61) - 1) * 3 + (1 << 30)] == {np.dtype(np.int64)}


def _py_matmul(a, b):
    """Reference a @ b as a loop over Python ints."""
    cols = list(zip(*b))
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) for col in cols]
            for row in a]


def _near_max_operand(rng, rows, cols, bits, full_axis):
    """Random signed ints in [-2^bits, 2^bits].  The row (full_axis 0) or
    column (full_axis 1) at index 0 holds values 1 or 2 below +2^bits, so one
    output entry nearly reaches the bound n * max|a| * max|b| and still has
    low bits that a rounding path would lose."""
    hi = 1 << bits
    vals = [[rng.randint(-hi, hi) for _ in range(cols)] for _ in range(rows)]
    for k in range(cols if full_axis == 0 else rows):
        i, j = (0, k) if full_axis == 0 else (k, 0)
        vals[i][j] = hi - rng.randint(1, 3)
    dtype = np.int64 if bits < 63 else object
    return np.array(vals, dtype=dtype)


# (bits of a, bits of b) with fan-in n = 8: values in [-2^bits, 2^bits] are
# declared bits + 2 wide, so the product is typed a + b + 7 bits: float64
# BLAS through 53 bits, int64 through 63 and Python ints past that,
# including operands that are themselves past int64.
@pytest.mark.parametrize("a_bits,b_bits", [
    (10, 12), (24, 25), (25, 25), (26, 26), (28, 29), (29, 29),
    (29, 30), (30, 40), (20, 62), (40, 70), (50, 20), (70, 70)])
def test_int_matmul_matches_python_ints_on_every_path(a_bits, b_bits):
    rng = random.Random(a_bits * 100 + b_bits)
    n = 8
    a = _near_max_operand(rng, 5, n, a_bits, full_axis=0)
    b = _near_max_operand(rng, n, 4, b_bits, full_axis=1)
    got = _int_matmul(a, b, a_bits + 2, b_bits + 2)
    assert got.tolist() == _py_matmul(a.tolist(), b.tolist())
    assert got.dtype == (np.int64 if a_bits + b_bits + 7 <= 63 else object)


def test_int_matmul_float_path_would_be_inexact_past_2_53():
    # 8 * (2^27 - 1)^2 = 2^57 - 2^31 + 8 lies between float64 neighbours 32
    # apart: a float64 product rounds it, the 59-bit MatMul must not
    a = np.full((1, 8), 2**27 - 1, dtype=np.int64)
    b = np.full((8, 1), 2**27 - 1, dtype=np.int64)
    got = _int_matmul(a, b, 28, 28)
    assert int(got[0, 0]) == 8 * (2**27 - 1) ** 2
    assert int((a.astype(float) @ b.astype(float))[0, 0]) != 8 * (2**27 - 1) ** 2


def _py_int_forward(im, x):
    """Integer codes of an IntegerModel replayed on Python ints."""
    h = [[int(v) for v in row] for row in qz.quantize(x, im.input_params)]
    for layer in im.layers:
        acc = [[v + int(b) for v, b in zip(row, layer.q_bias)]
               for row in _py_matmul(h, layer.q_weights.tolist())]
        if layer.requant is None:
            return acc
        m, c = layer.requant.mantissa, layer.requant.shift
        qmax = (1 << layer.act_bits) - 1
        h = [[min(max((v * m + (1 << (c - 1))) >> c, 0), qmax) for v in row]
             for row in acc]
    raise AssertionError("model has no layers")


def test_int_forward_is_exact_past_int64_on_a_hand_built_model():
    # 32-bit weights and activations: every accumulator bound is past 2^62,
    # and the first layer's biases do not fit int64 at all
    rng = random.Random(5)
    scale = 2.0 ** -31

    def layer(fan_in, fan_out, bias_bits, requant):
        w = [[rng.randint(-2**31, 2**31 - 1) for _ in range(fan_out)]
             for _ in range(fan_in)]
        return qz.IntLayer(
            q_weights=np.array(w, dtype=np.int64), weight_bits=32, weight_scale=scale,
            q_bias=qz.int_codes(rng.randint(-2**bias_bits, 2**bias_bits)
                                for _ in range(fan_out)),
            act_bits=32, requant=requant, act_exp=None if requant is None else 0)

    im = qz.IntegerModel(
        layers=[layer(6, 5, 66, qz.DyadicScale(mantissa=3, shift=31)),
                layer(5, 3, 40, None)],
        input_scale=scale, accumulator_bits=96, input_bits=32)
    assert im.layers[0].q_bias.dtype == object
    assert im.layers[1].q_bias.dtype == np.int64
    x = np.random.default_rng(5).uniform(-1.0, 1.0, size=(12, 6))
    logits, codes = qz.int_forward(im, x)
    assert codes.dtype == object
    want = _py_int_forward(im, x)
    assert codes.tolist() == want
    assert im.output_scale == scale
    assert logits.tolist() == [[float(v) * scale for v in row] for row in want]


# --- schemas -----------------------------------------------------------------

def test_schema_coupled_offsets_activations():
    s = qz.QuantSchema.coupled((4, 4, 5, 4), input_bits=16)
    assert s.activation_bits == (7, 7, 8, 7)
    assert s.input_act_bits(0) == 16
    assert s.input_act_bits(1) == 7
    assert s.input_act_bits(3) == 8


def test_schema_coupled_caps_at_32():
    s = qz.QuantSchema.coupled((31, 32), input_bits=32)
    assert s.activation_bits == (32, 32)


def test_schema_homogeneous():
    s = qz.QuantSchema.homogeneous(8, 3)
    assert s.weight_bits == (8, 8, 8)
    assert s.activation_bits == (8, 8, 8)
    assert s.input_bits == 8
    s2 = qz.QuantSchema.homogeneous(6, 2, input_bits=16)
    assert s2.input_bits == 16


def test_schema_validates_ranges():
    with pytest.raises(ValueError):
        qz.QuantSchema(weight_bits=(1, 8), activation_bits=(8, 8))
    with pytest.raises(ValueError):
        qz.QuantSchema(weight_bits=(8,), activation_bits=(8, 8))


@pytest.mark.parametrize("width", ["4", 4.0, True])
@pytest.mark.parametrize("where", ["weight_bits", "activation_bits", "input_bits", "coupled"])
def test_schema_refuses_a_width_that_is_not_an_integer(width, where):
    # never coerced: "4" would pass int() and then break the cost model
    with pytest.raises(TypeError, match=f"bit width {width!r} is not an integer"):
        if where == "coupled":
            qz.QuantSchema.coupled((4, width))
        else:
            widths = {"weight_bits": (4, 4), "activation_bits": (7, 7), "input_bits": 8}
            widths[where] = width if where == "input_bits" else (4, width)
            qz.QuantSchema(**widths)


def test_schema_takes_numpy_integer_widths():
    s = qz.QuantSchema.coupled(np.array([4, 6]), input_bits=np.int64(8))
    assert s.weight_bits == (4, 6) and s.activation_bits == (7, 9)


# --- QAT ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def qat_setup():
    ds = data.generate_synthetic(1500, seed=40, separation=1.8)
    ds = data.standardize(ds)
    tr, va = data.split(ds, 0.2, 0)
    model = nn.mlp([16, 12, 8, 5], seed=0)
    cfg = nn.TrainConfig(epochs=10, batch_size=64, learning_rate=1e-3,
                         l1=0.0, seed=0)
    model, _ = nn.train(model, tr, cfg, val=va)
    return model, tr, va


def test_qat_freezes_ranges_near_the_end(qat_setup):
    model, tr, va = qat_setup
    cfg = nn.TrainConfig(epochs=10, batch_size=64, learning_rate=5e-4, seed=0)
    fq = qz.qat_train(model, tr, qz.QuantSchema.coupled((6, 6, 6)), cfg, val=va)
    assert len(fq.ema_updates) == 10
    # updates happen early, none in the frozen tail
    assert fq.ema_updates[0] > 0
    assert fq.ema_updates[-1] == 0
    assert fq.ema_updates[-2] == 0  # 10 epochs -> last 2 frozen
    assert all(m > 0 for m in fq.act_max)


def test_qat_is_deterministic(qat_setup):
    model, tr, va = qat_setup
    cfg = nn.TrainConfig(epochs=4, batch_size=64, learning_rate=5e-4, seed=3)
    a = qz.qat_train(model, tr, qz.QuantSchema.coupled((5, 5, 5)), cfg)
    b = qz.qat_train(model, tr, qz.QuantSchema.coupled((5, 5, 5)), cfg)
    assert np.array_equal(a.model.layers[0].weights, b.model.layers[0].weights)
    assert a.act_max == b.act_max


def test_qat_at_32_bits_tracks_float_training(qat_setup):
    # with 32-bit fake quantization the rounding is far below float noise,
    # so accuracy should sit at (or above) the float model's
    model, tr, va = qat_setup
    cfg = nn.TrainConfig(epochs=5, batch_size=64, learning_rate=1e-4, seed=0)
    fq = qz.qat_train(model, tr, qz.QuantSchema.homogeneous(32, 3, input_bits=32),
                      cfg, val=va)
    assert nn.accuracy(fq, va) >= nn.accuracy(model, va) - 0.02


def test_qat_low_bits_still_learns(qat_setup):
    model, tr, va = qat_setup
    cfg = nn.TrainConfig(epochs=8, batch_size=64, learning_rate=1e-3, seed=0)
    fq = qz.qat_train(model, tr, qz.QuantSchema.coupled((4, 4, 4)), cfg, val=va)
    assert nn.accuracy(fq, va) > 0.6


def test_qat_single_epoch_still_calibrates(qat_setup):
    model, tr, _ = qat_setup
    cfg = nn.TrainConfig(epochs=1, batch_size=64, learning_rate=1e-4, seed=0)
    fq = qz.qat_train(model, tr, qz.QuantSchema.coupled((6, 6, 6)), cfg)
    assert all(m > 0 for m in fq.act_max)


def test_calibrate_fake_quant_is_loss_free_on_ranges(qat_setup):
    model, tr, va = qat_setup
    fq = qz.calibrate_fake_quant(model, qz.QuantSchema.coupled((8, 8, 8)), tr)
    # PTQ at 8 bits should stay close to the float model
    assert nn.accuracy(fq, va) >= nn.accuracy(model, va) - 0.05


# --- lowering and integer inference ------------------------------------------

@pytest.fixture(scope="module")
def lowered(qat_setup):
    model, tr, va = qat_setup
    cfg = nn.TrainConfig(epochs=6, batch_size=64, learning_rate=5e-4, seed=0)
    fq = qz.qat_train(model, tr, qz.QuantSchema.coupled((6, 6, 6)), cfg, val=va)
    return fq, qz.lower(fq), va


def test_lower_produces_dyadic_scales_and_int_weights(lowered):
    fq, im, _ = lowered
    assert im.accumulator_bits == 32
    assert im.input_scale > 0
    assert im.schema == fq.schema  # gathered from the layers' and the input's widths
    for i, layer in enumerate(im.layers):
        assert layer.q_weights.dtype == np.int64
        lo, hi = -2 ** (layer.weight_bits - 1), 2 ** (layer.weight_bits - 1) - 1
        assert layer.q_weights.min() >= lo and layer.q_weights.max() <= hi
        if i < len(im.layers) - 1:
            assert layer.requant is not None
            assert layer.requant.value > 0
        else:
            assert layer.requant is None


def test_int_forward_matches_fake_quant_predictions(lowered):
    fq, im, va = lowered
    logits, _ = qz.int_forward(im, va.features)
    fq_pred = np.argmax(fq.predict_proba(va.features), axis=1)
    int_pred = np.argmax(logits, axis=1)
    assert np.mean(fq_pred == int_pred) > 0.98


def test_int_forward_interior_is_integer_only(lowered):
    # real arithmetic only at the boundaries: every node int_forward evaluates
    # writes an integer tensor, except the dequantized logits (and the softmax)
    _, im, _ = lowered
    g = ir.infer_shapes(ir.export_graph(im))
    assert {"Quant", "MatMul", "Add", "Requant"} <= {n.kind for n in g.nodes}
    interior = {n.output for n in g.nodes} - {"logits", "probabilities"}
    assert {g.tensors[name].kind for name in interior} == {"int"}


def test_int_forward_zero_input_gives_bias_driven_logits(lowered):
    _, im, _ = lowered
    x = np.zeros((1, 16))
    logits, q = qz.int_forward(im, x)
    assert np.all(np.isfinite(logits))
    # quantizing zeros gives zero codes, so the first accumulator is the bias
    assert q.shape == (1, im.layers[-1].q_weights.shape[1])


def test_relu_commutes_with_requantization():
    # clip(requant(x)) == requant(max(x, 0)) for a positive scale: check
    # over a dense integer range
    d = qz.to_dyadic(0.37, mantissa_bits=12)
    acc = np.arange(-2000, 2000)
    a = np.maximum(_requant(acc, d, 12), 0)
    b = _requant(np.maximum(acc, 0), d, 12)
    assert np.array_equal(a, b)


def test_lower_rejects_too_narrow_accumulator(qat_setup):
    model, tr, _ = qat_setup
    cfg = nn.TrainConfig(epochs=1, batch_size=64, seed=0)
    fq = qz.qat_train(model, tr, qz.QuantSchema.coupled((8, 8, 8)), cfg)
    with pytest.raises(qz.LoweringError) as err:
        qz.lower(fq, accumulator_bits=16)
    assert "layer" in str(err.value)


def test_lower_wide_accumulator_uses_object_arrays(qat_setup):
    # 32-bit codes into a 96-bit accumulator: layer 0's accumulator is typed
    # past 63 bits wide, so it runs on Python ints; before the output scale
    # was derived exactly, it underflowed from 19 bits
    model, tr, va = qat_setup
    cfg = nn.TrainConfig(epochs=2, batch_size=64, seed=0)
    fq = qz.qat_train(model, tr, qz.QuantSchema.homogeneous(32, 3), cfg, val=va)
    im = qz.lower(fq, accumulator_bits=96)
    x = va.features[:32].copy()
    x[0] = np.sign(fq.model.layers[0].weights[:, 0]) * fq.input_max  # extreme codes
    logits, codes = qz.int_forward(im, x)
    assert codes.tolist() == _py_int_forward(im, x)
    assert logits.tolist() == [[float(v) * im.output_scale for v in row]
                               for row in codes.tolist()]
    g = ir.export_graph(im)
    g.outputs = ["acc0"]
    assert ir.evaluate(g, {"x": x})["acc0"].dtype == object


def _assert_lowered_as_trained(fq: qz.FakeQuantModel, im: qz.IntegerModel) -> None:
    """The deployed weights are bit for bit the fake-quantized ones, and the
    input scale is the one the fake-quant path quantizes inputs with."""
    for layer, low, bits in zip(fq.model.layers, im.layers, fq.schema.weight_bits):
        deployed = low.q_weights * low.weight_scale
        assert deployed.tobytes() == qz._fq_weight(layer.weights, bits).tobytes()
    assert im.input_scale == 2 * fq.input_max / (2 ** fq.schema.input_bits - 1)


def _shrink_layer1_weights(model, tr):
    # at 32 bits a weight range of 0.25 needs a scale under 2^-32
    model.layers[1].weights *= 0.25 / np.max(np.abs(model.layers[1].weights))
    return model, tr, qz.QuantSchema.homogeneous(32, 3), 96


def _shrink_inputs(model, tr):
    # at 31 bits an input range of 0.25 needs a scale under 2^-32
    tiny = data.Dataset(features=tr.features * (0.25 / np.max(np.abs(tr.features))),
                        labels=tr.labels)
    return model, tiny, qz.QuantSchema.homogeneous(31, 3), 96


def _grow_layer1_weights(model, tr):
    # weights near 1e10 need a scale near 6.7e7 at 8 bits, past 2^24
    model = nn.mlp([16, 8, 5], seed=0)
    model.layers[1].weights *= 1e10
    return model, tr, qz.QuantSchema.homogeneous(8, 2), 32


@pytest.mark.parametrize("tamper", [_shrink_layer1_weights, _shrink_inputs,
                                    _grow_layer1_weights],
                         ids=["weights-below-2^-31", "inputs-below-2^-31", "weights-past-2^24"])
def test_lower_keeps_scales_past_the_old_dyadic_range(qat_setup, tamper):
    # input and weight scales stay real, so these lower with QAT's own scales
    model, tr, _ = qat_setup
    model, calib, schema, acc_bits = tamper(model.copy(), tr)
    fq = qz.calibrate_fake_quant(model, schema, calib)
    im = qz.lower(fq, accumulator_bits=acc_bits)
    _assert_lowered_as_trained(fq, im)
    logits, codes = qz.int_forward(im, calib.features[:64])
    assert codes.tolist() == _py_int_forward(im, calib.features[:64])
    assert np.all(np.isfinite(logits))


def test_lower_rejects_a_multiplier_that_rounds_to_zero(qat_setup):
    # at 32 bits inputs within 0.25 have a scale near 2^-33, and layer 0's
    # multiplier w_scale * in_scale / act_scale lies below 2^-32
    model, tr, _ = qat_setup
    model, tiny, _, _ = _shrink_inputs(model, tr)
    fq = qz.calibrate_fake_quant(model, qz.QuantSchema.homogeneous(32, 3), tiny)
    with pytest.raises(qz.LoweringError,
                       match="layer 0: requantization multiplier underflowed"):
        qz.lower(fq, accumulator_bits=96)


@pytest.mark.parametrize("bits", [2, 8, 16, 24])
def test_lowering_deploys_qats_own_weights_and_input_scale(qat_setup, bits):
    model, tr, _ = qat_setup
    schema = qz.QuantSchema.homogeneous(bits, model.n_layers)
    fq = qz.qat_train(model, tr, schema, nn.TrainConfig(epochs=1, seed=0))
    widths = qz.accumulator_widths(schema, [l.fan_in for l in model.layers])
    _assert_lowered_as_trained(fq, qz.lower(fq, accumulator_bits=max(32, *widths)))


@pytest.fixture(scope="module")
def default_like():
    """A float model of the default architecture on default-like data."""
    ds = data.standardize(data.generate_synthetic(2000, seed=0))
    tr, va = data.split(ds, 0.2, 0)
    cfg = nn.TrainConfig(epochs=5, l1=1e-4, seed=0)
    model, _ = nn.train(nn.mlp([16, 64, 32, 32, 5], seed=0), tr, cfg)
    return model, tr, va


@pytest.mark.parametrize("bits", range(2, 33))
def test_lowering_holds_at_every_width(default_like, bits):
    # post-training calibration at a homogeneous width, inputs included, and
    # the narrowest accumulator of at least 32 bits: only a requantization
    # multiplier may fail, and only at 32 bits (the output scale used to
    # underflow from 19 bits)
    model, tr, va = default_like
    schema = qz.QuantSchema.homogeneous(bits, model.n_layers)
    calib = data.Dataset(features=tr.features[:1024], labels=tr.labels[:1024])
    fq = qz.calibrate_fake_quant(model, schema, calib)
    widths = qz.accumulator_widths(schema, [l.fan_in for l in model.layers])
    try:
        im = qz.lower(fq, accumulator_bits=max(32, *widths))
    except qz.LoweringError as exc:
        assert bits == 32 and "requantization multiplier" in str(exc)
        return
    scale = im.output_scale
    last, before = im.layers[-1], im.layers[-2]
    assert Fraction(scale) == Fraction(last.weight_scale) * Fraction(2) ** -before.act_exp
    logits, codes = qz.int_forward(im, va.features[:256])
    assert logits.tolist() == [[float(v) * scale for v in row] for row in codes.tolist()]


def test_lower_rejects_a_bias_code_past_the_accumulator(qat_setup):
    # a bias of 1e4 at the scale of 8-bit weights times 16-bit inputs is a
    # code far past 2^31; it must not be clipped to the 32-bit accumulator
    _, tr, _ = qat_setup
    model = nn.mlp([16, 8, 5], seed=0)
    model.layers[0].bias[:] = 1e4
    fq = qz.calibrate_fake_quant(model, qz.QuantSchema.homogeneous(8, 2, input_bits=16), tr)
    with pytest.raises(qz.LoweringError,
                       match="layer 0: a bias code does not fit the 32-bit accumulator"):
        qz.lower(fq, accumulator_bits=32)


@pytest.fixture(scope="module")
def wide_lowered(qat_setup):
    """A 16-bit coupled model lowered with a 64-bit accumulator."""
    model, tr, va = qat_setup
    cfg = nn.TrainConfig(epochs=1, batch_size=64, learning_rate=5e-4, seed=0)
    fq = qz.qat_train(model, tr, qz.QuantSchema.coupled((16, 16, 16)), cfg, val=va)
    return qz.lower(fq, accumulator_bits=64), va


def test_wide_accumulator_biases_stay_int64_through_save_and_load(tmp_path,
                                                                  wide_lowered):
    im, va = wide_lowered
    assert [l.q_bias.dtype for l in im.layers] == [np.int64] * 3
    path = tmp_path / "im.json"
    qz.save_integer_model(im, str(path))
    back = qz.load_integer_model(str(path))
    assert [l.q_bias.dtype for l in back.layers] == [np.int64] * 3
    for a, b in zip(im.layers, back.layers):
        assert np.array_equal(a.q_bias, b.q_bias)
    a, qa = qz.int_forward(im, va.features)
    b, qb = qz.int_forward(back, va.features)
    assert qa.dtype == np.int64
    assert np.array_equal(qa, qb) and a.tobytes() == b.tobytes()


def test_wide_int_forward_matches_ir_evaluate_bit_for_bit(wide_lowered):
    im, va = wide_lowered
    logits, codes = qz.int_forward(im, va.features)
    assert logits.tobytes() == (codes.astype(np.float64)
                                * im.output_scale).tobytes()
    g = ir.export_graph(im)
    for graph in (g, ir.fold_constants(g)):
        got = ir.evaluate(graph, {"x": va.features})["logits"]
        assert got.tobytes() == logits.tobytes()


def test_integer_model_round_trip(tmp_path, lowered):
    _, im, va = lowered
    path = tmp_path / "im.json"
    qz.save_integer_model(im, str(path))
    back = qz.load_integer_model(str(path))
    a, qa = qz.int_forward(im, va.features[:32])
    b, qb = qz.int_forward(back, va.features[:32])
    assert np.array_equal(qa, qb)
    assert np.array_equal(a, b)
    assert back.schema == im.schema
    # the file is plain JSON with a format marker, each width stated once
    doc = json.loads(path.read_text())
    assert doc["format"] == "hessquant-integer-model" and doc["version"] == 2
    assert "schema" not in doc


@pytest.mark.parametrize("where, value, message", [
    (("layers", 1, "weight_bits"), 40, "bit width 40 outside 2..32"),
    (("layers", 0, "act_bits"), 1, "bit width 1 outside 2..32"),
    (("input", "bits"), 33, "bit width 33 outside 2..32"),
    (("layers",), [], "schema needs at least one layer"),
], ids=["weight-bits", "act-bits", "input-bits", "no-layers"])
def test_integer_model_file_widths_pass_the_bit_width_rule(tmp_path, lowered, where, value,
                                                           message):
    _, im, _ = lowered
    path = tmp_path / "im.json"
    qz.save_integer_model(im, str(path))
    doc = json.loads(path.read_text())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        qz.load_integer_model(str(path))


def test_integer_model_file_rejects_tampered_scales(tmp_path, lowered):
    _, im, _ = lowered
    path = tmp_path / "im.json"
    qz.save_integer_model(im, str(path))
    doc = json.loads(path.read_text())
    doc["layers"][0]["weight_scale"]["mantissa"] = -3
    path.write_text(json.dumps(doc))
    with pytest.raises((ValueError, qz.LoweringError)):
        qz.load_integer_model(str(path))


def test_integer_model_file_holds_each_real_scale_exactly(tmp_path, wide_lowered):
    # a 16-bit model's scales have shifts past 31 and mantissas past 32 bits;
    # each is stored as its float's exact ratio, and a ratio that is not a
    # float does not load
    im, _ = wide_lowered
    path = tmp_path / "im.json"
    qz.save_integer_model(im, str(path))
    doc = json.loads(path.read_text())
    scales = [(doc["input"], im.input_scale), (doc["output_scale"], im.output_scale)]
    scales += [(d["weight_scale"], l.weight_scale) for d, l in zip(doc["layers"], im.layers)]
    for stored, scale in scales:
        assert Fraction(stored["mantissa"], 1 << stored["shift"]) == Fraction(scale)
    assert max(stored["shift"] for stored, _ in scales) > 31
    back = qz.load_integer_model(str(path))
    assert back.input_scale == im.input_scale and back.output_scale == im.output_scale
    assert [l.weight_scale for l in back.layers] == [l.weight_scale for l in im.layers]
    doc["layers"][1]["weight_scale"] = {"mantissa": (1 << 53) + 1, "shift": 80}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="layer 1 weight scale .* is not exactly a float"):
        qz.load_integer_model(str(path))


def _drop_output_unit(doc):
    doc["layers"][0]["q_weights"] = [row[:-1] for row in doc["layers"][0]["q_weights"]]
    doc["layers"][0]["q_bias"] = doc["layers"][0]["q_bias"][:-1]


def _drop_bias(doc):
    doc["layers"][1]["q_bias"] = doc["layers"][1]["q_bias"][:-1]


@pytest.mark.parametrize("tamper, message", [
    (_drop_output_unit, "layer 1 weights of shape"),
    (_drop_bias, "layer 1 has"),
], ids=["chain", "bias-length"])
def test_integer_model_file_rejects_layers_that_disagree(tmp_path, lowered, tamper, message):
    _, im, _ = lowered
    path = tmp_path / "im.json"
    qz.save_integer_model(im, str(path))
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        qz.load_integer_model(str(path))
