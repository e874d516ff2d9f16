"""Uniform affine quantization and integer-only lowering.

Real values map to integer codes as q = clip(round(r / S - Z), qmin, qmax)
and back as r ~ S * (q + Z), with S = (beta - alpha) / (2^b - 1) for the
calibrated clipping range [alpha, beta].  Rounding is half-to-even.  Weights
calibrate symmetrically (Z = 0, alpha = -beta), post-ReLU activations use an
unsigned range starting at zero, so the whole lowered path runs with zero
zero-points.

Quantization-aware training runs on nn's training loop with a
straight-through step that fake-quantizes each weight once per step and the
training inputs once per call.

Lowering produces an IntegerModel whose per-layer rescaling multipliers are
dyadic rationals (mantissa / 2^shift).  Requantization is then a single
integer multiply, an additive rounding term of 2^(shift-1), and an arithmetic
right shift.  Activation scales are snapped to powers of two and multiplier
mantissas are kept small enough that the reference float64 evaluation of an
exported graph reproduces the integer pipeline exactly at the bit widths the
tool targets.

Integer arithmetic is exact at every width, and its representation follows
from bounds rather than from an option, op by op through whole layers:
integers bounded below 2^53 stay in float64 arrays, which hold them exactly,
below 2^63 in int64, and past that in Python-int object arrays.  So
`int_forward` runs a layer as one float64 product and in-place bias add,
rescale, rounding and clip while n*max|h|*max|W| + max|bias| and that bound
times the mantissa plus 2^(shift-1) stay below 2^53, and moves to int64 or
Python ints where a bound passes; `ir.evaluate` shares its matmul and its
integer add and multiply.  The public kernels keep their own contracts:
`int_matmul` returns int64 below 2^62 and Python ints above, and
`requantize` stays in int64 while max|acc| * mantissa + 2^(shift-1) fits.
Bias codes are int64 whenever every value fits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import Dataset
from .nn import MLPModel, TrainConfig, TrainHistory

MIN_BITS = 2
MAX_BITS = 32
MAX_SHIFT = 31
MAX_MANTISSA_BITS = 31
# Mantissa budget for lowered multipliers; small enough that acc * mantissa
# stays exactly representable in float64 for the supported accumulators.
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
        params = QuantParams(scale=2 * beta / levels, zero_point=0, bits=bits,
                             signed=True, symmetric=True, alpha=-beta, beta=beta)
        return params
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


def _canonical_dyadic(mantissa: int, shift: int) -> DyadicScale:
    while mantissa != 0 and mantissa % 2 == 0 and shift > 0:
        mantissa //= 2
        shift -= 1
    return DyadicScale(mantissa=mantissa, shift=shift)


def to_dyadic(s: float, max_shift: int = MAX_SHIFT,
              mantissa_bits: int = MAX_MANTISSA_BITS) -> DyadicScale:
    """Best dyadic approximation of a positive real scale.

    Scans shifts 0..max_shift, rounding the mantissa at each, and keeps the
    candidate minimizing |s - mantissa/2^shift| subject to the mantissa limit;
    ties prefer the smaller shift.  The result is canonicalized.
    """
    if not (s > 0 and math.isfinite(s)):
        raise ValueError(f"scale must be positive and finite, got {s}")
    if max_shift > MAX_SHIFT:
        raise ValueError(f"max_shift cannot exceed {MAX_SHIFT}")
    limit = (1 << mantissa_bits) - 1
    best: tuple[float, int, int] | None = None
    for c in range(max_shift + 1):
        m = int(round(s * (1 << c)))
        m = min(m, limit)
        err = abs(s - m / (1 << c))
        if best is None or err < best[0]:
            best = (err, m, c)
    _, m, c = best
    return _canonical_dyadic(m, c)


def _rescale_dyadic(mantissa: int, shift: int, mantissa_bits: int) -> DyadicScale:
    """Fit an exact dyadic (possibly out of range) into mantissa/shift budgets."""
    if shift < 0:
        mantissa <<= -shift
        shift = 0
    drop = 0
    if mantissa > 0:
        drop = max(drop, mantissa.bit_length() - mantissa_bits)
    drop = max(drop, shift - MAX_SHIFT)
    if drop > 0:
        if drop > shift:
            raise LoweringError("rescaling multiplier cannot be represented")
        mantissa = (mantissa + (1 << (drop - 1))) >> drop
        shift -= drop
        if mantissa.bit_length() > mantissa_bits:  # rounding carried over
            mantissa >>= 1
            shift -= 1
            if shift < 0:
                raise LoweringError("rescaling multiplier cannot be represented")
    return _canonical_dyadic(mantissa, shift)


# ---------------------------------------------------------------------------
# Exact integer kernels

_INT64_LIMIT = 1 << 63
_FLOAT_EXACT = 1 << 53     # every integer below this is a float64
_INT64_SAFE = 1 << 62      # int_matmul keeps its int64 results below this


def max_abs(a: np.ndarray) -> int:
    """max |a| of an integer array (float64-held, int64 or Python-int objects)
    as an int."""
    if a.size == 0:
        return 0
    return max(-int(a.min()), int(a.max()))


def int_to_float(a: np.ndarray) -> np.ndarray:
    """float64 copy of an integer array; Python ints convert one by one."""
    if a.dtype == object:
        return np.array([float(v) for v in a.ravel()]).reshape(a.shape)
    return a.astype(np.float64)


def int_codes(values) -> np.ndarray:
    """Integer codes as int64 when every value fits, else Python-int objects."""
    vals = [int(v) for v in values]
    fits = all(-_INT64_LIMIT <= v < _INT64_LIMIT for v in vals)
    return np.array(vals, dtype=np.int64 if fits else object)


def _in_tier(a: np.ndarray, bound: int) -> np.ndarray:
    """a's integer values, all at most bound in magnitude, in the narrowest
    exact form for that bound: float64 below 2^53, int64 below 2^63 and
    Python-int objects past that.  Returns a itself if it has that form."""
    if bound < _FLOAT_EXACT:
        return a if a.dtype == np.float64 else int_to_float(a)
    if bound < _INT64_LIMIT:
        return a.astype(np.int64, copy=False)
    return a if a.dtype == object else a.astype(np.int64, copy=False).astype(object)


def _matmul_bound(a: np.ndarray, b: np.ndarray) -> int:
    """n * max|a| * max|b|, which bounds every partial sum of a @ b."""
    return a.shape[-1] * max(max_abs(a), 1) * max(max_abs(b), 1)


def _exact_matmul(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """Exact integer a @ b given bound >= n * max|a| * max|b|: a float64 BLAS
    product below 2^53 (every partial sum is then an integer float64 holds),
    an int64 product below 2^62 and a Python-int dot product above."""
    if bound < _FLOAT_EXACT:
        return _in_tier(a, bound) @ _in_tier(b, bound)
    if bound < _INT64_SAFE:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return np.dot(_in_tier(a, _INT64_LIMIT), _in_tier(b, _INT64_LIMIT))


def _int_arith(ufunc, a: np.ndarray, b: np.ndarray, bound: int | None = None,
               spare: tuple = ()) -> np.ndarray:
    """Exact elementwise a + b or a * b (ufunc np.add or np.multiply) of
    integer arrays, in the form _in_tier picks for bound >= |result|.  With
    bound None it is observed: max|a| + max|b|, or max|a| * max|b|.  An
    operand listed in spare that keeps its form and has the result's shape
    receives the result in place."""
    if bound is None:
        ma, mb = max_abs(a), max_abs(b)
        bound = ma + mb if ufunc is np.add else ma * mb
    return _into(ufunc, _in_tier(a, bound), _in_tier(b, bound), spare)


def _into(ufunc, a: np.ndarray, b: np.ndarray, spare: tuple) -> np.ndarray:
    """ufunc(a, b), written into a or b if it is listed in spare and has the
    result's shape."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    for t in (a, b):
        if t.shape == shape and any(t is s for s in spare):
            return ufunc(a, b, out=t)
    return ufunc(a, b)


def requantize(acc, scale: DyadicScale):
    """Multiply-and-shift requantization of integer accumulator values.

    Computes (acc * mantissa + 2^(shift-1)) >> shift with an arithmetic right
    shift; the additive term makes it round-half-up for non-negative inputs.
    Works elementwise on integer arrays and on plain ints.  Fixed-width
    arrays run in int64 while max|acc| * mantissa + 2^(shift-1) fits it and
    are promoted to Python ints otherwise, so the result never wraps.
    """
    m, c = scale.mantissa, scale.shift
    half = (1 << (c - 1)) if c else 0
    if isinstance(acc, np.integer):
        acc = int(acc)
    elif isinstance(acc, np.ndarray) and acc.dtype != object:
        fits = max_abs(acc) * m + half < _INT64_LIMIT
        acc = acc.astype(np.int64, copy=False) if fits else acc.astype(object)
    return (acc * m + half) >> c


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product of 2-d arrays a @ b, by the bound n*max|a|*max|b|.

    - below 2^53 every partial sum is an integer a float64 holds exactly, so a
      float64 BLAS product cast back to int64 is exact;
    - below 2^62 an int64 product;
    - above that a Python-int dot product (object result).

    int64 results are below 2^62 in magnitude, so adding one more int64 value
    of that size cannot wrap.
    """
    prod = _exact_matmul(a, b, _matmul_bound(a, b))
    return prod.astype(np.int64) if prod.dtype == np.float64 else prod


# ---------------------------------------------------------------------------
# Quantization schemas


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
            if not MIN_BITS <= int(b) <= MAX_BITS:
                raise ValueError(f"bit width {b} outside {MIN_BITS}..{MAX_BITS}")

    @property
    def n_layers(self) -> int:
        return len(self.weight_bits)

    def input_act_bits(self, layer: int) -> int:
        """Bit width of the activations entering a layer (input width for 0)."""
        return self.input_bits if layer == 0 else self.activation_bits[layer - 1]

    @classmethod
    def coupled(cls, weight_bits, input_bits: int = 16, offset: int = 3) -> "QuantSchema":
        """Activation widths follow the weights: b_a = b_w + offset, capped."""
        wb = tuple(int(b) for b in weight_bits)
        ab = tuple(min(int(b) + offset, MAX_BITS) for b in wb)
        return cls(weight_bits=wb, activation_bits=ab, input_bits=input_bits)

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
        return nn.softmax(_fq_logits(self.model, self.schema, self.act_max, xq))


def _fq_weight(w: np.ndarray, bits: int) -> np.ndarray:
    """Symmetric per-tensor fake-quant of a weight matrix, bitwise equal to
    fake_quant(w, calibrate(w, bits, symmetric=True)) without QuantParams.

    |w| / scale stays below 2^(bits-1), so only the upper clip can bind, and
    adding 0.0 turns rint's -0.0 into the +0.0 of the int64 round trip.
    """
    beta = float(np.max(np.abs(w)))
    if not math.isfinite(beta):
        raise ValueError("calibration values contain non-finite entries")
    scale = 2 * (beta or 1.0) / (2 ** bits - 1)
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    q = w / scale
    np.rint(q, out=q)
    np.minimum(q, _int_range(bits, signed=True)[1], out=q)
    q += 0.0
    q *= scale
    return q


def _fq_weights(model: MLPModel, schema: QuantSchema) -> list[np.ndarray]:
    return [_fq_weight(l.weights, b) for l, b in zip(model.layers, schema.weight_bits)]


def _fq_unsigned(a: np.ndarray, bits: int, amax: float) -> np.ndarray:
    """Fake-quant of post-ReLU activations onto [0, amax], in place.

    For a >= 0 the clip at 0 of clip(rint(a / scale), 0, qmax) * scale never
    binds, so only the upper clip runs.
    """
    qmax = 2 ** bits - 1
    scale = max(amax, 1e-12) / qmax
    a /= scale
    np.rint(a, out=a)
    np.minimum(a, qmax, out=a)
    a *= scale
    return a


def _fq_signed(x: np.ndarray, bits: int, xmax: float) -> np.ndarray:
    scale = 2 * max(xmax, 1e-12) / (2 ** bits - 1)
    lo, hi = _int_range(bits, signed=True)
    return np.clip(np.rint(x / scale), lo, hi) * scale


def _fq_logits(model: MLPModel, schema: QuantSchema, act_max: list[float], xq: np.ndarray,
               wqs: list[np.ndarray] | None = None, u: np.ndarray | None = None,
               hs: list | None = None, gates: list | None = None) -> np.ndarray:
    """Fake-quantized logits of the fake-quantized inputs xq, mirroring the
    lowered pipeline: weights at weight_bits (wqs, if already done), hidden
    ReLU outputs at activation_bits[i] onto [0, act_max[i]], logits left
    unquantized.  u, if given, is layer 0's product and is overwritten.  With
    hs and gates, each hidden layer appends its output and its
    straight-through mask (inside the ReLU and the clip range)."""
    wqs = _fq_weights(model, schema) if wqs is None else wqs
    u = nn._affine(xq, wqs[0], model.layers[0].bias) if u is None else u
    for i in range(model.n_layers - 1):
        a = np.maximum(u, 0.0, out=u)
        if hs is not None:
            gates.append((a > 0) & (a <= act_max[i]))
            hs.append(a)  # fake-quantized in place next
        hq = _fq_unsigned(a, schema.activation_bits[i], act_max[i])
        u = nn._affine(hq, wqs[i + 1], model.layers[i + 1].bias)
    return u


def _observe_act_maxima(model: MLPModel, schema: QuantSchema, act_max: list[float],
                        wqs: list[np.ndarray], u: np.ndarray, seeded: bool) -> list[float]:
    """Hidden post-ReLU maxima of the fake-quant forward from layer 0's
    product u, quantizing with the ranges from before this batch's update
    (with the batch's own maxima until the ranges are seeded)."""
    maxima: list[float] = []
    for i in range(model.n_layers - 1):
        if i > 0:
            u = nn._affine(hq, wqs[i], model.layers[i].bias)
        a = np.maximum(u, 0.0)
        maxima.append(float(a.max()) if a.size else 0.0)
        hq = _fq_unsigned(a, schema.activation_bits[i], act_max[i] if seeded else maxima[-1])
    return maxima


def qat_train(model: MLPModel, data: Dataset, schema: QuantSchema, cfg: TrainConfig,
              val: Dataset | None = None) -> FakeQuantModel:
    """Quantization-aware training under a schema, on nn's training loop.

    The forward pass fake-quantizes weights and activations; gradients use
    the straight-through estimator.  Activation ranges track per-batch maxima
    with EMA momentum 0.95 and freeze for the final fifth of the epochs, so
    the quantization is static by the end.  The input range is calibrated
    once from the training data, whose rows are fake-quantized once.  Each
    step fake-quantizes every weight once and shares it, and layer 0's
    product, between range observation and the gradient pass.  Only a
    non-finite epoch loss counts as divergence.  Deterministic in cfg.seed.
    """
    if len(data) == 0:
        raise ValueError("empty training set")
    if schema.n_layers != model.n_layers:
        raise ValueError(f"schema has {schema.n_layers} layers, model has {model.n_layers}")

    momentum = 0.95
    input_max = float(np.max(np.abs(data.features)))
    act_max: list[float] = [0.0] * (model.n_layers - 1)
    seeded = False
    frozen_from = cfg.epochs - max(1, cfg.epochs // 5) if cfg.epochs >= 2 else cfg.epochs

    def step(params, epoch, xq, y, grads):
        nonlocal seeded
        wqs = _fq_weights(params, schema)
        u = nn._affine(xq, wqs[0], params.layers[0].bias)
        if epoch < frozen_from:  # reads u before _fq_logits overwrites it
            maxima = _observe_act_maxima(params, schema, act_max, wqs, u, seeded)
            act_max[:] = [momentum * a + (1 - momentum) * m
                          for a, m in zip(act_max, maxima)] if seeded else maxima
            seeded = True
        hs, gates = [xq], []
        logits = _fq_logits(params, schema, act_max, xq, wqs, u, hs, gates)
        nn._backward(logits, y, hs, gates + [None], params, cfg.l1, grads, mats=wqs)

    trained, history = nn._train_loop(
        model, data, cfg, step, lambda params, xq: _fq_logits(params, schema, act_max, xq),
        lambda params: FakeQuantModel(model=params, schema=schema, input_max=input_max,
                                      act_max=list(act_max)),
        val=val, inputs=_fq_signed(data.features, schema.input_bits, input_max))
    batches = -(-len(data) // cfg.batch_size)
    return FakeQuantModel(model=trained, schema=schema, input_max=input_max,
                          act_max=list(act_max), history=history,
                          ema_updates=[batches if e < frozen_from else 0
                                       for e in range(cfg.epochs)])


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
    h = nn.check_matrix(calib.features, cols=model.layers[0].fan_in)
    act_max = []
    for i, layer in enumerate(model.layers[:-1]):
        h = np.maximum(h @ layer.weights + layer.bias, 0.0)
        act_max.append(float(h.max()))
    return FakeQuantModel(model=model.copy(), schema=schema,
                          input_max=input_max, act_max=act_max)


# ---------------------------------------------------------------------------
# Integer lowering


@dataclass
class IntLayer:
    q_weights: np.ndarray          # int64 codes, shape (fan_in, fan_out)
    weight_bits: int
    weight_scale: DyadicScale
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
    input_params: QuantParams
    input_scale: DyadicScale
    output_scale: DyadicScale
    accumulator_bits: int
    schema: QuantSchema

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


def _dyadic_product(a: DyadicScale, b: DyadicScale) -> tuple[int, int]:
    """Exact mantissa/shift of a*b, unnormalized."""
    return a.mantissa * b.mantissa, a.shift + b.shift


def _pow2_dyadic(exp: int) -> DyadicScale:
    """2^-exp as a DyadicScale (negative exp becomes a large mantissa)."""
    if exp >= 0:
        return DyadicScale(mantissa=1, shift=exp)
    return DyadicScale(mantissa=1 << (-exp), shift=0)


def lower(fq: FakeQuantModel, accumulator_bits: int = 32) -> IntegerModel:
    """Turn a fake-quantized model into an integer-only one.

    Weight and input scales become dyadic rationals; activation scales snap
    to powers of two (widening the range, never shrinking it).  Each hidden
    layer stores the dyadic multiplier weight_scale * in_scale / act_scale;
    the final layer stores the plain dequantization scale.  Biases quantize
    to accumulator precision at weight_scale * in_scale.

    Raises LoweringError when a layer's worst-case accumulator width
    (weight bits + incoming activation bits + ceil(log2 fan_in)) exceeds
    accumulator_bits; pass a wider accumulator for wide schemas.  Also raises
    it when the input or a weight scale, a requantization multiplier or the
    output scale rounds to mantissa 0, since every logit would then read 0.
    """
    model, schema = fq.model, fq.schema

    in_real = 2 * max(fq.input_max, 1e-12) / (2 ** schema.input_bits - 1)
    input_scale = to_dyadic(in_real, mantissa_bits=DEFAULT_MULTIPLIER_BITS)
    if input_scale.mantissa == 0:
        raise LoweringError(f"input scale {in_real:.3g} rounds to zero at "
                            f"{schema.input_bits} bits")
    beta_in = input_scale.value * (2 ** schema.input_bits - 1) / 2
    input_params = QuantParams(scale=input_scale.value, zero_point=0,
                               bits=schema.input_bits, signed=True, symmetric=True,
                               alpha=-beta_in, beta=beta_in)

    acc_lo, acc_hi = _int_range(accumulator_bits, signed=True)
    layers: list[IntLayer] = []
    prev_scale = input_scale
    output_scale = None
    for i, layer in enumerate(model.layers):
        b_w = schema.weight_bits[i]
        b_in = schema.input_act_bits(i)
        required = b_w + b_in + math.ceil(math.log2(max(layer.fan_in, 2)))
        if accumulator_bits < required:
            raise LoweringError(
                f"layer {i}: accumulator needs {required} bits "
                f"(weights {b_w} + activations {b_in} + log2 fan-in), "
                f"have {accumulator_bits}")

        w_real = calibrate(layer.weights, b_w, symmetric=True).scale
        w_scale = to_dyadic(w_real, mantissa_bits=DEFAULT_MULTIPLIER_BITS)
        if w_scale.mantissa == 0:
            raise LoweringError(f"layer {i}: weight scale {w_real:.3g} rounds to "
                                f"zero at {b_w} bits")
        lo, hi = _int_range(b_w, signed=True)
        q_w = np.clip(np.rint(layer.weights / w_scale.value), lo, hi).astype(np.int64)

        bias_scale = w_scale.value * prev_scale.value
        q_b = int_codes(min(max(int(round(v / bias_scale)), acc_lo), acc_hi)
                        for v in layer.bias.tolist())

        last = i == model.n_layers - 1
        # Mantissa budget that keeps acc * mantissa exact in float64 when the
        # reference graph evaluator replays the same arithmetic.
        budget = min(DEFAULT_MULTIPLIER_BITS, 52 - (required + 1))
        if budget < 2:
            budget = 2
        if last:
            m, c = _dyadic_product(w_scale, prev_scale)
            output_scale = _rescale_dyadic(m, c, budget)
            if output_scale.mantissa == 0:
                raise LoweringError(f"layer {i}: output scale underflowed")
            layers.append(IntLayer(q_weights=q_w, weight_bits=b_w, weight_scale=w_scale,
                                   q_bias=q_b, act_bits=schema.activation_bits[i],
                                   requant=None, act_exp=None))
        else:
            b_a = schema.activation_bits[i]
            e_a = _pow2_act_exp(fq.act_max[i], b_a)
            m, c = _dyadic_product(w_scale, prev_scale)
            requant = _rescale_dyadic(m, c - e_a, budget)
            if requant.mantissa == 0:
                raise LoweringError(f"layer {i}: requantization multiplier underflowed")
            layers.append(IntLayer(q_weights=q_w, weight_bits=b_w, weight_scale=w_scale,
                                   q_bias=q_b, act_bits=b_a, requant=requant, act_exp=e_a))
            prev_scale = _pow2_dyadic(e_a)
    return IntegerModel(layers=layers, input_params=input_params, input_scale=input_scale,
                        output_scale=output_scale, accumulator_bits=accumulator_bits,
                        schema=schema)


def _log(op_log, op: str, domain: str) -> None:
    if op_log is not None:
        op_log.append((op, domain))


def int_forward(im: IntegerModel, x: np.ndarray, op_log: list | None = None):
    """Integer-only inference; returns (real logits, integer logit codes).

    The input is quantized once, every layer then runs matmul, bias add, and
    multiply-shift requantization on integers (the clip at zero realizes
    ReLU because multipliers are positive and zero points are zero), and the
    final accumulator is dequantized by the stored output scale.  Softmax is
    left to the caller.  Pass op_log to record each operation with the
    arithmetic domain it ran in.

    Each step holds its integers in the form its bound allows, and runs in
    place on arrays this call allocated.  While n*max|h|*max|W| + max|bias|
    and that bound times the mantissa plus 2^(shift-1) stay below 2^53, a
    layer is one float64 product, an in-place bias add, a multiply by the
    exact dyadic value, + 1/2, floor and clip on integers float64 holds
    exactly; past that it runs in int64, and in Python ints past int64.  The
    codes come back as int64, or as Python-int objects where they do not fit.
    """
    x = nn.check_matrix(x, cols=im.layers[0].q_weights.shape[0])
    _log(op_log, "quantize_input", "real")
    p = im.input_params
    h = x / p.scale   # quantize(x, p), with its codes left in float64
    if p.zero_point:
        h -= p.zero_point
    np.rint(h, out=h)
    np.clip(h, p.qmin, p.qmax, out=h)
    for layer in im.layers:
        bound = _matmul_bound(h, layer.q_weights)
        acc = _exact_matmul(h, layer.q_weights, bound)
        _log(op_log, "matmul", "int")
        bound += max_abs(layer.q_bias)
        acc = _int_arith(np.add, acc, layer.q_bias, bound, spare=(acc,))
        _log(op_log, "add_bias", "int")
        s = layer.requant
        if s is None:
            break
        half = (1 << (s.shift - 1)) if s.shift else 0
        if acc.dtype == np.float64 and bound * s.mantissa + half < _FLOAT_EXACT:
            # (acc*m + half) / 2^c = acc * (m/2^c) + 1/2, every step exact
            acc *= s.value
            if half:
                acc += 0.5
            h = np.floor(acc, out=acc)
        else:
            h = requantize(acc, s)
        _log(op_log, "requantize", "int")
        qmax = (1 << layer.act_bits) - 1
        np.maximum(h, 0, out=h)  # clip at 0 doubles as ReLU
        np.minimum(h, qmax, out=h)
        _log(op_log, "clip_relu", "int")
        if h.dtype == object and qmax < (1 << 62):
            h = h.astype(np.int64)
    _log(op_log, "dequantize_output", "real")
    logits = acc * im.output_scale.value if acc.dtype == np.float64 \
        else int_to_float(acc) * im.output_scale.value
    return logits, acc.astype(np.int64) if acc.dtype == np.float64 else acc


# ---------------------------------------------------------------------------
# Integer model serialization


def save_integer_model(im: IntegerModel, path: str) -> None:
    from .ioutil import write_json_atomic

    doc = {
        "format": "hessquant-integer-model",
        "version": 1,
        "accumulator_bits": im.accumulator_bits,
        "input": {
            "bits": im.input_params.bits,
            "mantissa": im.input_scale.mantissa,
            "shift": im.input_scale.shift,
        },
        "output_scale": {"mantissa": im.output_scale.mantissa, "shift": im.output_scale.shift},
        "schema": {
            "weight_bits": list(im.schema.weight_bits),
            "activation_bits": list(im.schema.activation_bits),
            "input_bits": im.schema.input_bits,
        },
        "layers": [
            {
                "weight_bits": l.weight_bits,
                "act_bits": l.act_bits,
                "weight_scale": {"mantissa": l.weight_scale.mantissa, "shift": l.weight_scale.shift},
                "requant": None if l.requant is None else
                    {"mantissa": l.requant.mantissa, "shift": l.requant.shift},
                "act_exp": l.act_exp,
                "q_weights": [[int(v) for v in row] for row in l.q_weights],
                "q_bias": [int(v) for v in l.q_bias],
            }
            for l in im.layers
        ],
    }
    write_json_atomic(path, doc)


def load_integer_model(path: str) -> IntegerModel:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "hessquant-integer-model":
        raise ValueError(f"{path}: not an integer model file")
    schema = QuantSchema(weight_bits=tuple(doc["schema"]["weight_bits"]),
                         activation_bits=tuple(doc["schema"]["activation_bits"]),
                         input_bits=doc["schema"]["input_bits"])
    acc_bits = doc["accumulator_bits"]
    input_scale = DyadicScale(mantissa=doc["input"]["mantissa"], shift=doc["input"]["shift"])
    b_in = doc["input"]["bits"]
    beta_in = input_scale.value * (2 ** b_in - 1) / 2
    input_params = QuantParams(scale=input_scale.value, zero_point=0, bits=b_in,
                               signed=True, symmetric=True, alpha=-beta_in, beta=beta_in)
    layers = []
    for entry in doc["layers"]:
        layers.append(IntLayer(
            q_weights=np.array(entry["q_weights"], dtype=np.int64),
            weight_bits=entry["weight_bits"],
            weight_scale=DyadicScale(**entry["weight_scale"]),
            q_bias=int_codes(entry["q_bias"]),
            act_bits=entry["act_bits"],
            requant=None if entry["requant"] is None else DyadicScale(**entry["requant"]),
            act_exp=entry["act_exp"],
        ))
    return IntegerModel(layers=layers, input_params=input_params, input_scale=input_scale,
                        output_scale=DyadicScale(**doc["output_scale"]),
                        accumulator_bits=acc_bits, schema=schema)
