"""Uniform affine quantization and integer-only lowering.

Real values map to integer codes as q = clip(round(r / S - Z), qmin, qmax)
and back as r ~ S * (q + Z), with S = (beta - alpha) / (2^b - 1) for the
calibrated clipping range [alpha, beta].  Rounding is half-to-even.  Weights
calibrate symmetrically (Z = 0, alpha = -beta), post-ReLU activations use an
unsigned range starting at zero, so the whole lowered path runs with zero
zero-points.

Quantization-aware training runs on nn's training loop with a
straight-through step that fake-quantizes each weight once per step and the
training inputs once per call.  `qat_train_many` trains a stack of same-shape
models, each under its own weight and activation widths and seed (the
input width is shared), in that one loop; per-member weight scales,
activation widths and activation ranges are (K, 1, 1) arrays that broadcast
over the stack, the widths and the range view built once per stack, and
each member ends bit for bit as `qat_train` (a stack of one) would leave it.

Lowering keeps QAT's own input and weight scales and weight codes, so the
deployed weights are bit for bit the fake-quantized ones.  Only where the
integer pipeline multiplies, in each layer's requantization, is a scale a
dyadic rational (mantissa / 2^shift): an integer multiply, an additive
rounding term of 2^(shift-1) and an arithmetic right shift.  Activation
scales snap to powers of two, so the output scale follows exactly.  The one
exact rounding rule keeps each multiplier's mantissa small enough that
requantization runs in the interpreter's float64 tier, and lowering fails
loudly with LoweringError rather than degrade: on an accumulator too narrow
for the schema, a multiplier that rounds to zero or does not fit its
mantissa budget at shift 0, and a bias whose code does not fit the
accumulator.

`int_forward` runs the exported graph through `ir.evaluate`, the one integer
interpreter, which holds each integer tensor in the exact form its inferred
width gives.  Stored codes are int64, or Python-int objects where a bias
code does not fit (`int_codes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import nn
from .data import Dataset
from .ioutil import read_document, write_json_atomic
from .nn import MLPModel, TrainConfig, TrainHistory

MIN_BITS = 2
MAX_BITS = 32
# Activation widths follow weight widths by this many bits (coupled_width).
COUPLING_OFFSET = 3
MAX_SHIFT = 31
MAX_MANTISSA_BITS = 31
# Mantissa budget for lowered multipliers; small enough that acc * mantissa
# stays below 2^53 for the supported accumulators, which keeps requantization
# in the float64 tier.
DEFAULT_MULTIPLIER_BITS = 24


class LoweringError(RuntimeError):
    pass


def _int_range(bits: int, signed: bool) -> tuple[int, int]:
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


@dataclass(frozen=True)
class QuantParams:
    """Scale, zero point, and clip range for one tensor."""
    scale: float
    zero_point: int
    bits: int
    signed: bool
    symmetric: bool
    alpha: float
    beta: float

    def __post_init__(self):
        if not MIN_BITS <= self.bits <= MAX_BITS:
            raise ValueError(f"bits must be in {MIN_BITS}..{MAX_BITS}, got {self.bits}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.beta < self.alpha:
            raise ValueError("beta < alpha")
        expected = (self.beta - self.alpha) / (2 ** self.bits - 1)
        if abs(expected - self.scale) > 1e-12 * max(1.0, abs(self.scale)):
            raise ValueError("scale inconsistent with clip range")
        if self.symmetric and (self.zero_point != 0 or abs(self.alpha + self.beta) > 1e-12):
            raise ValueError("symmetric params need zero_point 0 and alpha = -beta")

    @property
    def qmin(self) -> int:
        return _int_range(self.bits, self.signed)[0]

    @property
    def qmax(self) -> int:
        return _int_range(self.bits, self.signed)[1]


def calibrate(values: np.ndarray, bits: int, symmetric: bool = True) -> QuantParams:
    """Min/max calibration of QuantParams over an array of observed values.

    Symmetric mode (weights): beta = max|v| = -alpha, signed codes, Z = 0.
    Asymmetric mode (activations): the range is widened to include zero and
    codes are unsigned, which makes Z = 0 whenever min(v) >= 0.  A degenerate
    (zero-width) range falls back to [0, 1] (symmetric: beta = 1).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot calibrate on an empty array")
    if not np.all(np.isfinite(values)):
        raise ValueError("calibration values contain non-finite entries")
    levels = 2 ** bits - 1
    if symmetric:
        beta = float(np.max(np.abs(values)))
        if beta == 0.0:
            beta = 1.0
        return QuantParams(scale=2 * beta / levels, zero_point=0, bits=bits,
                           signed=True, symmetric=True, alpha=-beta, beta=beta)
    lo = min(0.0, float(values.min()))
    hi = max(0.0, float(values.max()))
    if hi == lo:
        lo, hi = 0.0, 1.0
    scale = (hi - lo) / levels
    zero = int(round(lo / scale))  # qmin is 0 for unsigned codes
    return QuantParams(scale=scale, zero_point=zero, bits=bits, signed=False,
                       symmetric=False, alpha=lo, beta=hi)


def quantize(r: np.ndarray, params: QuantParams) -> np.ndarray:
    """Integer codes: clip(round_half_even(r / S - Z), qmin, qmax)."""
    r = np.asarray(r, dtype=np.float64)
    q = np.rint(r / params.scale - params.zero_point)
    q = np.clip(q, params.qmin, params.qmax)
    return q.astype(np.int64)


def dequantize(q: np.ndarray, params: QuantParams) -> np.ndarray:
    """Back to the real domain: S * (q + Z)."""
    return (np.asarray(q, dtype=np.float64) + params.zero_point) * params.scale


def fake_quant(r: np.ndarray, params: QuantParams) -> np.ndarray:
    return dequantize(quantize(r, params), params)


# ---------------------------------------------------------------------------
# Dyadic scales


@dataclass(frozen=True)
class DyadicScale:
    """A non-negative rational mantissa / 2^shift with shift in 0..31.

    Canonical form keeps the mantissa odd (or zero) unless shift is already 0,
    where even integers such as 6 have no smaller representation.
    """
    mantissa: int
    shift: int

    def __post_init__(self):
        if not 0 <= self.shift <= MAX_SHIFT:
            raise ValueError(f"shift must be in 0..{MAX_SHIFT}, got {self.shift}")
        if not 0 <= self.mantissa < (1 << 32):
            raise ValueError("mantissa must fit in 32 bits and be non-negative")
        if self.mantissa != 0 and self.shift > 0 and self.mantissa % 2 == 0:
            raise ValueError("mantissa must be odd in canonical form")

    @property
    def value(self) -> float:
        # Exact: the mantissa has at most 32 significant bits.
        return self.mantissa / (1 << self.shift)


def to_dyadic(s: float, mantissa_bits: int = MAX_MANTISSA_BITS) -> DyadicScale:
    """Nearest dyadic to a positive real scale with a mantissa below
    2^mantissa_bits and a shift in 0..MAX_SHIFT, rounding half up.  Raises
    LoweringError when it rounds to zero or does not fit at shift 0."""
    if not (s > 0 and math.isfinite(s)):
        raise ValueError(f"scale must be positive and finite, got {s}")
    return _rescale_dyadic(s, mantissa_bits, f"scale {s:.3g}")


def _rescale_dyadic(value, mantissa_bits: int, name: str) -> DyadicScale:
    """The nearest dyadic to a positive dyadic value (a float, or a Fraction
    with a power-of-two denominator, taken exactly) with a mantissa below
    2^mantissa_bits and a shift in 0..MAX_SHIFT, rounding half up.  Raises
    LoweringError naming the value when it rounds to zero or does not fit
    the budget at shift 0."""
    mantissa, den = value.as_integer_ratio()
    shift = den.bit_length() - 1
    drop = max(mantissa.bit_length() - mantissa_bits, shift - MAX_SHIFT, 0)
    if drop > 0:
        mantissa = (mantissa + (1 << (drop - 1))) >> drop
        shift -= drop
        if mantissa.bit_length() > mantissa_bits:  # rounding carried over
            mantissa >>= 1
            shift -= 1
    if shift < 0:
        raise LoweringError(f"{name} overflowed: it needs more than {mantissa_bits} "
                            f"mantissa bits at shift 0")
    if mantissa == 0:
        raise LoweringError(f"{name} underflowed: it rounds to zero at shift {MAX_SHIFT}")
    mantissa, den = Fraction(mantissa, 1 << shift).as_integer_ratio()  # canonical
    return DyadicScale(mantissa=mantissa, shift=den.bit_length() - 1)


# ---------------------------------------------------------------------------
# Stored integer codes


def int_codes(values) -> np.ndarray:
    """Integer codes as int64 when every value fits, else Python-int objects."""
    vals = [int(v) for v in values]
    try:
        return np.array(vals, dtype=np.int64)
    except OverflowError:
        return np.array(vals, dtype=object)


# ---------------------------------------------------------------------------
# Quantization schemas


def check_bit_width(b) -> int:
    """b as an int: TypeError unless it is an integer (a bool, float or
    string is not, whatever it reads as), ValueError outside
    MIN_BITS..MAX_BITS."""
    if isinstance(b, bool) or not isinstance(b, (int, np.integer)):
        raise TypeError(f"bit width {b!r} is not an integer")
    if not MIN_BITS <= b <= MAX_BITS:
        raise ValueError(f"bit width {b} outside {MIN_BITS}..{MAX_BITS}")
    return int(b)


def coupled_width(bits: int) -> int:
    """The activation width coupled to weight width `bits`, capped at MAX_BITS."""
    return min(int(bits) + COUPLING_OFFSET, MAX_BITS)


@dataclass(frozen=True)
class QuantSchema:
    """Per-layer weight and activation bit widths plus the input width.

    activation_bits[i] is the width of layer i's output activation; the last
    entry only matters through the coupling convention since final logits are
    dequantized rather than requantized.
    """
    weight_bits: tuple[int, ...]
    activation_bits: tuple[int, ...]
    input_bits: int = 16

    def __post_init__(self):
        if len(self.weight_bits) != len(self.activation_bits):
            raise ValueError("weight_bits and activation_bits must have equal arity")
        if not self.weight_bits:
            raise ValueError("schema needs at least one layer")
        for b in (*self.weight_bits, *self.activation_bits, self.input_bits):
            check_bit_width(b)

    @property
    def n_layers(self) -> int:
        return len(self.weight_bits)

    def input_act_bits(self, layer: int) -> int:
        """Bit width of the activations entering a layer (input width for 0)."""
        return self.input_bits if layer == 0 else self.activation_bits[layer - 1]

    @classmethod
    def coupled(cls, weight_bits, input_bits: int = 16) -> "QuantSchema":
        """Activation widths follow the weights: b_a = coupled_width(b_w)."""
        wb = tuple(map(check_bit_width, weight_bits))
        return cls(weight_bits=wb, activation_bits=tuple(map(coupled_width, wb)),
                   input_bits=input_bits)

    @classmethod
    def homogeneous(cls, bits: int, n_layers: int, input_bits: int | None = None) -> "QuantSchema":
        """Every weight and activation at the same width (inputs too, unless given)."""
        return cls(weight_bits=(bits,) * n_layers, activation_bits=(bits,) * n_layers,
                   input_bits=bits if input_bits is None else input_bits)


# ---------------------------------------------------------------------------
# Quantization-aware training


@dataclass
class FakeQuantModel:
    """A float model plus the schema and frozen ranges of its fake-quant path."""
    model: MLPModel
    schema: QuantSchema
    input_max: float
    act_max: list[float]
    history: TrainHistory | None = None
    ema_updates: list[int] = field(default_factory=list)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        xq = _fq_signed(nn.check_matrix(x, cols=self.model.layers[0].fan_in),
                        self.schema.input_bits, self.input_max)
        return nn.softmax(self._logits(xq))

    def _logits(self, xq: np.ndarray) -> np.ndarray:
        """Logits of already fake-quantized inputs."""
        return _fq_logits(self.model, _fq_weights(self.model, self.schema.weight_bits),
                          self.schema.activation_bits, self.act_max, xq)


def _weight_codes(w: np.ndarray, bits):
    """Float64-held codes and scale of the one symmetric per-tensor weight
    quantizer, which QAT and lowering share: codes * scale is bitwise
    fake_quant(w, calibrate(w, bits, symmetric=True)).  For a (K, fan_in,
    fan_out) stack, member k is at width bits[k] and the scale is (K, 1, 1).

    The scales are computed as calibrate computes them.  |w| / scale stays
    below 2^(bits-1), so only the upper clip can bind, and adding 0.0 turns
    rint's -0.0 into the +0.0 of the int64 round trip.  Only a 2-d matrix is
    checked: a scale that is not positive and finite raises calibrate's
    ValueError.  A stack is not checked: such a member's codes are whatever
    its scale gives (non-finite for non-finite weights), and every other
    member's are those of its own 2-d call.
    """
    stacked = w.ndim == 3
    betas = np.abs(w).max(axis=(-2, -1)).tolist() if stacked else [float(np.max(np.abs(w)))]
    widths = list(bits) if stacked else [bits]
    scales = [2 * (b + (b == 0.0)) / (2 ** n - 1) for b, n in zip(betas, widths)]
    qmax = [2 ** (n - 1) - 1 for n in widths]
    if stacked:
        scale, top = (np.array(v, dtype=np.float64)[:, None, None] for v in (scales, qmax))
    else:
        [beta], [scale], [top] = betas, scales, qmax
        if not 0 < scale < math.inf:
            raise ValueError("calibration values contain non-finite entries"
                             if not math.isfinite(beta) else
                             f"scale must be positive and finite, got {scale}")
    q = w / scale
    np.rint(q, out=q)
    np.minimum(q, top, out=q)
    q += 0.0
    return q, scale


def _fq_weight(w: np.ndarray, bits) -> np.ndarray:
    """Fake-quant of a weight matrix (or stack): `_weight_codes` times its scale."""
    q, scale = _weight_codes(w, bits)
    q *= scale
    return q


def _fq_weights(model: MLPModel, bits) -> list[np.ndarray]:
    return [_fq_weight(l.weights, b) for l, b in zip(model.layers, bits)]


def _fq_unsigned(a: np.ndarray, bits, amax) -> np.ndarray:
    """Fake-quant of post-ReLU activations onto [0, amax], in place.

    For a >= 0 the clip at 0 of clip(rint(a / scale), 0, qmax) * scale never
    binds, so only the upper clip runs.
    """
    qmax = 2 ** bits - 1
    scale = np.maximum(amax, 1e-12) / qmax
    a /= scale
    np.rint(a, out=a)
    np.minimum(a, qmax, out=a)
    a *= scale
    return a


def _input_scale(bits: int, xmax: float) -> float:
    """The real scale of the symmetric input quantizer onto [-xmax, xmax]."""
    return 2 * max(xmax, 1e-12) / (2 ** bits - 1)


def _fq_signed(x: np.ndarray, bits: int, xmax: float) -> np.ndarray:
    scale = _input_scale(bits, xmax)
    lo, hi = _int_range(bits, signed=True)
    return np.clip(np.rint(x / scale), lo, hi) * scale


def _fq_logits(model: MLPModel, wqs: list[np.ndarray], abits, act_max, xq: np.ndarray,
               hs: list | None = None, gates: list | None = None,
               momentum: float | None = None) -> np.ndarray:
    """Fake-quantized logits of the fake-quantized inputs xq: the model's
    fake-quantized weights wqs, hidden ReLU outputs at abits[i] onto
    [0, act_max[i]], logits left unquantized.  For a stack, abits[i] and
    act_max[i] are (K, 1, 1) arrays.

    With a momentum the ranges are observed in the same pass: just before
    layer i's ReLU output is quantized, act_max[i] becomes
    momentum * act_max[i] + (1 - momentum) * its maximum (momentum 0 seeds
    the range with that maximum), and the output is quantized with the
    updated range.  With hs and gates, each hidden layer appends its output
    and its straight-through mask (inside the ReLU and the clip range)."""
    u = nn._affine(xq, wqs[0], model.layers[0].bias)
    for i in range(model.n_layers - 1):
        a = np.maximum(u, 0.0, out=u)
        if momentum is not None:
            act_max[i] = (momentum * act_max[i]
                          + (1 - momentum) * a.max(axis=(-2, -1), keepdims=a.ndim == 3))
        if hs is not None:
            gates.append((a > 0) & (a <= act_max[i]))
            hs.append(a)  # fake-quantized in place next
        hq = _fq_unsigned(a, abits[i], act_max[i])
        u = nn._affine(hq, wqs[i + 1], model.layers[i + 1].bias)
    return u


def qat_train(model: MLPModel, data: Dataset, schema: QuantSchema, cfg: TrainConfig,
              val: Dataset | None = None) -> FakeQuantModel:
    """Quantization-aware training under a schema, on nn's training loop.

    The forward pass fake-quantizes weights and activations; gradients use
    the straight-through estimator.  Each step fake-quantizes every weight
    once and runs the network once: while the ranges are not frozen, that
    forward moves each activation range towards the batch's post-ReLU
    maximum (EMA momentum 0.95; the first batch seeds it) just before
    quantizing with it.  The ranges freeze for the final fifth of the
    epochs, so the quantization is static by the end.  The input range is
    calibrated once from the training data, whose rows are fake-quantized
    once.  Only a non-finite epoch loss counts as divergence.  Deterministic
    in cfg.seed.  A stack of one on `qat_train_many`.
    """
    return nn._only(qat_train_many([model], data, [schema], [cfg], val=val))


def qat_train_many(models: list[MLPModel], data: Dataset, schemas: list[QuantSchema],
                   cfgs: list[TrainConfig],
                   val: Dataset | None = None) -> list[FakeQuantModel | Exception]:
    """Quantization-aware training of a stack of same-shape models in one
    loop: member k is qat_train(models[k], data, schemas[k], cfgs[k], val),
    bit for bit.

    The members may differ in their weight and activation widths and seeds;
    the input width, every other training setting and the layer widths must
    match (ValueError otherwise).  The inputs are fake-quantized once, and
    the step's per-member widths and range view are built once per stack.
    A member fails where its own run would, at an epoch end, with
    TrainingDiverged or a ValueError (a non-finite weight reaches the
    epoch-end check as calibrate's error); its slot of the result holds
    that exception, and the others continue unchanged.
    """
    if len(data) == 0:
        raise ValueError("empty training set")
    nn._check_stack(models, cfgs)
    if len(schemas) != len(models):
        raise ValueError(f"{len(schemas)} schemas for {len(models)} models")
    for model, schema in zip(models, schemas):
        if schema.n_layers != model.n_layers:
            raise ValueError(f"schema has {schema.n_layers} layers, model has {model.n_layers}")
    if len({s.input_bits for s in schemas}) > 1:
        raise ValueError("stacked runs may not differ in input_bits")

    cfg = cfgs[0]
    input_max = float(np.max(np.abs(data.features)))
    # per layer, each model's widths and activation range (column k for model k)
    wbits = np.array([s.weight_bits for s in schemas]).T
    abits = np.array([s.activation_bits for s in schemas], dtype=np.float64).T
    act_max = np.zeros((models[0].n_layers - 1, len(models)))
    frozen_from = cfg.epochs - max(1, cfg.epochs // 5) if cfg.epochs >= 2 else cfg.epochs
    momentum = 0.0  # the first observing step seeds the ranges
    # (K, 1, 1) per layer; ranges is a view, so the step's EMA updates act_max
    ab, ranges, wb = abits[:, :, None, None], act_max[:, :, None, None], wbits.tolist()

    def step(params, epoch, xq, y, grads):
        nonlocal momentum
        wqs = _fq_weights(params, wb)
        hs, gates = [xq], []
        observe = momentum if epoch < frozen_from else None
        logits = _fq_logits(params, wqs, ab, ranges, xq, hs, gates, observe)
        momentum = 0.95
        nn._backward(logits, y, hs, gates + [None], params, cfg.l1, grads, mats=wqs)

    def predictor(params, k):
        return FakeQuantModel(model=params, schema=schemas[k], input_max=input_max,
                              act_max=act_max[:, k].tolist())

    results = nn._train_loop(models, data, cfgs, step, predictor, val=val,
                             x=_fq_signed(data.features, schemas[0].input_bits, input_max))
    batches = -(-len(data) // cfg.batch_size)
    ema_updates = [batches if e < frozen_from else 0 for e in range(cfg.epochs)]
    return [result if isinstance(result, Exception) else
            replace(predictor(result[0], k), history=result[1], ema_updates=list(ema_updates))
            for k, result in enumerate(results)]


def calibrate_fake_quant(model: MLPModel, schema: QuantSchema, calib: Dataset) -> FakeQuantModel:
    """Post-training calibration: build a FakeQuantModel from one float pass.

    Ranges come from the float forward activations on the calibration batch;
    useful for lowering a model that skipped quantization-aware training.
    """
    if len(calib) == 0:
        raise ValueError("calibration batch is empty")
    if schema.n_layers != model.n_layers:
        raise ValueError("schema arity does not match the model")
    input_max = float(np.max(np.abs(calib.features)))
    hs, _ = nn._forward_caches(model, nn.check_matrix(calib.features,
                                                      cols=model.layers[0].fan_in))
    act_max = [float(h.max()) for h in hs[1:-1]]
    return FakeQuantModel(model=model.copy(), schema=schema,
                          input_max=input_max, act_max=act_max)


# ---------------------------------------------------------------------------
# Integer lowering


@dataclass
class IntLayer:
    q_weights: np.ndarray          # int64 codes, shape (fan_in, fan_out)
    weight_bits: int
    weight_scale: float            # QAT's real weight scale
    q_bias: np.ndarray             # accumulator codes: int64, objects past int64
    act_bits: int                  # output activation width (unused on the last layer)
    requant: DyadicScale | None    # None on the last layer
    act_exp: int | None            # output activation scale is 2^(-act_exp)


@dataclass
class IntegerModel:
    """Everything needed for integer-only inference.

    Between input quantization and final dequantization the pipeline is pure
    integer arithmetic: matmul and bias add in the accumulator, then
    multiply-and-shift requantization clipped to the activation range (the
    clip at zero doubles as ReLU since all multipliers are positive).
    """
    layers: list[IntLayer]
    input_scale: float             # QAT's real input scale
    accumulator_bits: int
    schema: QuantSchema

    @property
    def output_scale(self) -> float:
        """The last weight scale times the scale of the activations entering
        it: exactly, as that is 2^-act_exp of the layer before, except in a
        one-layer model, where it is the input scale."""
        incoming = (self.input_scale if len(self.layers) == 1
                    else 2.0 ** -self.layers[-2].act_exp)
        return self.layers[-1].weight_scale * incoming

    @property
    def input_params(self) -> QuantParams:
        """The symmetric input quantizer: input_scale at schema.input_bits."""
        bits, scale = self.schema.input_bits, self.input_scale
        beta = scale * (2 ** bits - 1) / 2
        return QuantParams(scale=scale, zero_point=0, bits=bits, signed=True,
                           symmetric=True, alpha=-beta, beta=beta)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        logits, _ = int_forward(self, x)
        return nn.softmax(logits)


def _pow2_act_exp(amax: float, bits: int) -> int:
    """Largest e with 2^-e * (2^bits - 1) >= amax, clamped to +-MAX_SHIFT."""
    amax = max(amax, 1e-12)
    qmax = 2 ** bits - 1
    e = math.floor(math.log2(qmax / amax))
    while 2.0 ** (-e) * qmax < amax:  # guard against log2 rounding
        e -= 1
    return int(min(max(e, -MAX_SHIFT), MAX_SHIFT))


def sum_of_products_bits(a_bits: int, b_bits: int, n: int) -> int:
    """Width of a sum of n products of a_bits- and b_bits-wide integers:
    a_bits + b_bits + ceil(log2 n), the last term exact as (n - 1).bit_length()."""
    return a_bits + b_bits + (n - 1).bit_length()


def accumulator_widths(schema: QuantSchema, fan_ins,
                       accumulator_bits: int | None = None) -> list[int]:
    """Worst-case accumulator width of each layer: sum_of_products_bits of its
    weight bits, incoming activation bits and fan-in, the width
    `ir.infer_shapes` gives its MatMul.  Raises LoweringError when
    accumulator_bits is given and a layer needs more."""
    widths = []
    for i, n in enumerate(fan_ins):
        b_w, b_in = schema.weight_bits[i], schema.input_act_bits(i)
        need = sum_of_products_bits(b_w, b_in, n)
        if accumulator_bits is not None and accumulator_bits < need:
            raise LoweringError(
                f"layer {i}: accumulator needs {need} bits "
                f"(weights {b_w} + activations {b_in} + log2 fan-in), "
                f"have {accumulator_bits}")
        widths.append(need)
    return widths


def lower(fq: FakeQuantModel, accumulator_bits: int = 32) -> IntegerModel:
    """Turn a fake-quantized model into an integer-only one.

    The input and weight scales and weight codes are QAT's own, so the
    deployed weights are bit for bit the fake-quantized ones.  Activation
    scales snap to powers of two (widening the range, never shrinking it).
    Each hidden layer stores the dyadic multiplier weight_scale * in_scale /
    act_scale, the one rounded scale.  Biases quantize to accumulator
    precision at weight_scale * in_scale.

    Raises LoweringError when a layer's `accumulator_widths` exceeds
    accumulator_bits (pass a wider accumulator for wide schemas), when a
    multiplier rounds to 0 at shift 31 or needs more than its mantissa
    budget at shift 0, and when a bias code does not fit the accumulator.
    """
    model, schema = fq.model, fq.schema
    input_scale = _input_scale(schema.input_bits, fq.input_max)
    acc_lo, acc_hi = _int_range(accumulator_bits, signed=True)
    required = accumulator_widths(schema, [l.fan_in for l in model.layers],
                                  accumulator_bits)
    layers: list[IntLayer] = []
    prev_scale = input_scale
    for i, layer in enumerate(model.layers):
        q_w, w_scale = _weight_codes(layer.weights, schema.weight_bits[i])
        q_b = np.rint(layer.bias / (w_scale * prev_scale)).tolist()
        if not all(acc_lo <= v <= acc_hi for v in q_b):
            raise LoweringError(f"layer {i}: a bias code does not fit the "
                                f"{accumulator_bits}-bit accumulator")
        requant = e_a = None
        if i < model.n_layers - 1:
            e_a = _pow2_act_exp(fq.act_max[i], schema.activation_bits[i])
            # Mantissa budget that keeps acc * mantissa below 2^53, so that the
            # requantization runs in the float64 tier; it is exact either way.
            budget = max(2, min(DEFAULT_MULTIPLIER_BITS, 52 - (required[i] + 1)))
            multiplier = Fraction(w_scale) * Fraction(prev_scale) * Fraction(2) ** e_a
            requant = _rescale_dyadic(multiplier, budget,
                                      f"layer {i}: requantization multiplier")
            prev_scale = 2.0 ** -e_a
        layers.append(IntLayer(q_weights=q_w.astype(np.int64),
                               weight_bits=schema.weight_bits[i], weight_scale=w_scale,
                               q_bias=int_codes(q_b), act_bits=schema.activation_bits[i],
                               requant=requant, act_exp=e_a))
    return IntegerModel(layers=layers, input_scale=input_scale,
                        accumulator_bits=accumulator_bits, schema=schema)


def int_forward(im: IntegerModel, x: np.ndarray):
    """Integer-only inference; returns (real logits, integer logit codes).

    `ir.evaluate` of `ir.export_graph(im)`, less its Softmax, with the last
    accumulator as an output: the input is quantized once, every layer runs
    matmul, bias add and multiply-shift requantization on exact integers
    (the clip at zero realizes ReLU), and the final accumulator is
    dequantized by the output scale.  The codes come back as int64 while
    the last accumulator's inferred width is at most 63 bits, and as Python
    ints past that.
    """
    from . import ir

    x = nn.check_matrix(x, cols=im.layers[0].q_weights.shape[0])
    g = ir.export_graph(im)
    codes = f"accb{len(im.layers) - 1}"
    g.nodes = [n for n in g.nodes if n.kind != "Softmax"]
    g.outputs = ["logits", codes]
    out = ir.evaluate(g, {"x": x})
    return out["logits"], out[codes]


# ---------------------------------------------------------------------------
# Integer model serialization


def _scale_doc(scale: float) -> dict:
    """{mantissa, shift} of a scale, its exact as_integer_ratio(): a
    requantization multiplier's canonical form, for a real scale a shift
    that may pass 31 and a mantissa of up to 53 bits."""
    mantissa, den = scale.as_integer_ratio()
    return {"mantissa": mantissa, "shift": den.bit_length() - 1}


def save_integer_model(im: IntegerModel, path: str) -> None:
    doc = {
        "format": "hessquant-integer-model",
        "version": 1,
        "accumulator_bits": im.accumulator_bits,
        "input": {"bits": im.schema.input_bits, **_scale_doc(im.input_scale)},
        "output_scale": _scale_doc(im.output_scale),
        "schema": {
            "weight_bits": list(im.schema.weight_bits),
            "activation_bits": list(im.schema.activation_bits),
            "input_bits": im.schema.input_bits,
        },
        "layers": [
            {
                "weight_bits": l.weight_bits,
                "act_bits": l.act_bits,
                "weight_scale": _scale_doc(l.weight_scale),
                "requant": None if l.requant is None else _scale_doc(l.requant.value),
                "act_exp": l.act_exp,
                "q_weights": [[int(v) for v in row] for row in l.q_weights],
                "q_bias": [int(v) for v in l.q_bias],
            }
            for l in im.layers
        ],
    }
    write_json_atomic(path, doc)


def _check_layers(layers: list[IntLayer], schema: QuantSchema, path: str) -> None:
    """Raise ValueError unless the layers chain and match the schema's
    widths, and every hidden layer, but not the last, has a requantization
    multiplier and an integer act_exp."""
    if len(layers) != schema.n_layers:
        raise ValueError(f"{path}: {len(layers)} layers, schema has {schema.n_layers}")
    for i, layer in enumerate(layers):
        if i < len(layers) - 1:
            if layer.requant is None or type(layer.act_exp) is not int:
                raise ValueError(f"{path}: hidden layer {i} needs a requant and an "
                                 f"integer act_exp")
        elif (layer.requant, layer.act_exp) != (None, None):
            raise ValueError(f"{path}: the last layer {i} has a requant or act_exp")
        w = layer.q_weights
        if w.ndim != 2 or (i > 0 and w.shape[0] != layers[i - 1].q_weights.shape[1]):
            raise ValueError(f"{path}: layer {i} weights of shape {w.shape} do not chain")
        if layer.q_bias.shape != (w.shape[1],):
            raise ValueError(f"{path}: layer {i} has {layer.q_bias.size} biases for "
                             f"{w.shape[1]} outputs")
        if (layer.weight_bits, layer.act_bits) != (schema.weight_bits[i],
                                                   schema.activation_bits[i]):
            raise ValueError(f"{path}: layer {i} widths differ from the schema's")


def _stored_scale(doc: dict, path: str, name: str, dyadic: bool = False):
    """A stored {mantissa, shift} as a DyadicScale, or else as the float it
    must equal exactly: ValueError unless both are integers, the mantissa
    positive and the shift in 0..1074 (a float's smallest exponent), or for
    a float unless it is one; OverflowError past the largest float."""
    m, c = doc["mantissa"], doc["shift"]
    if not (type(m) is int and type(c) is int and m > 0 and 0 <= c <= 1074):
        raise ValueError(f"{path}: {name} {m!r} / 2^{c!r} is not a positive dyadic")
    if dyadic:
        return DyadicScale(mantissa=m, shift=c)
    scale = m / (1 << c)
    if Fraction(scale) != Fraction(m, 1 << c):
        raise ValueError(f"{path}: {name} {m} / 2^{c} is not exactly a float")
    return scale


def load_integer_model(path: str) -> IntegerModel:
    """A save_integer_model file.  A malformed one, one with a scale that is
    not positive (or, but for a requantization multiplier, not exactly a
    float), one whose output scale differs from the one its scales derive,
    one whose input width or layers disagree with its schema or do not
    chain, or one with a hidden layer lacking a requant or an integer
    act_exp or a last layer having either, raises ValueError, KeyError,
    TypeError or OverflowError."""
    doc = read_document(path, "hessquant-integer-model", (1,))
    schema = QuantSchema(weight_bits=tuple(doc["schema"]["weight_bits"]),
                         activation_bits=tuple(doc["schema"]["activation_bits"]),
                         input_bits=doc["schema"]["input_bits"])
    if doc["input"]["bits"] != schema.input_bits:
        raise ValueError(f"{path}: input is {doc['input']['bits']} bits, schema has "
                         f"{schema.input_bits}")
    layers = [IntLayer(
        q_weights=np.array(entry["q_weights"], dtype=np.int64),
        weight_bits=entry["weight_bits"],
        weight_scale=_stored_scale(entry["weight_scale"], path, f"layer {i} weight scale"),
        q_bias=int_codes(entry["q_bias"]),
        act_bits=entry["act_bits"],
        requant=None if entry["requant"] is None else
            _stored_scale(entry["requant"], path, f"layer {i} requant", dyadic=True),
        act_exp=entry["act_exp"],
    ) for i, entry in enumerate(doc["layers"])]
    _check_layers(layers, schema, path)
    im = IntegerModel(layers=layers, accumulator_bits=doc["accumulator_bits"], schema=schema,
                      input_scale=_stored_scale(doc["input"], path, "input scale"))
    stored = _stored_scale(doc["output_scale"], path, "output scale")
    if stored != im.output_scale:
        raise ValueError(f"{path}: output scale {stored!r} differs from the "
                         f"{im.output_scale!r} its scales derive")
    return im
