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
models, each under its own schema and seed, in that one loop; per-member
weight scales, activation widths and activation ranges are (K, 1, 1) arrays
that broadcast over the stack, and each member ends bit for bit as
`qat_train` (a stack of one) would leave it.

Lowering produces an IntegerModel whose per-layer rescaling multipliers are
dyadic rationals (mantissa / 2^shift).  Requantization is then a single
integer multiply, an additive rounding term of 2^(shift-1), and an arithmetic
right shift.  Activation scales are snapped to powers of two, and multiplier
mantissas are kept small enough that acc * mantissa stays below 2^53 at the
bit widths the tool targets, so requantization runs in the float64 tier.

Integer arithmetic is exact at every width, and its representation follows
from bounds rather than from an option: integers bounded below 2^53 stay in
float64 arrays, which hold them exactly, below 2^63 in int64, and past that
in Python-int object arrays.  `int_forward` evaluates the exported graph, so
`ir.evaluate` is the one integer interpreter; this module keeps its kernels.
`int_matmul` returns int64 below 2^62 and Python ints above, and
`requantize` stays in int64 while max|acc| * mantissa + 2^(shift-1) fits.
Bias codes are int64 whenever every value fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import Dataset
from .ioutil import read_document, write_json_atomic
from .nn import MLPModel, TrainConfig, TrainHistory

MIN_BITS = 2
MAX_BITS = 32
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
        return nn.softmax(self._logits(xq))

    def _logits(self, xq: np.ndarray) -> np.ndarray:
        """Logits of already fake-quantized inputs."""
        return _fq_logits(self.model, _fq_weights(self.model, self.schema.weight_bits),
                          self.schema.activation_bits, self.act_max, xq)


def _fq_weight(w: np.ndarray, bits) -> np.ndarray:
    """Symmetric per-tensor fake-quant of a weight matrix, bitwise equal to
    fake_quant(w, calibrate(w, bits, symmetric=True)) without QuantParams;
    for a (K, fan_in, fan_out) stack, of each member k at width bits[k].

    The scales are Python floats, computed as calibrate computes them.
    |w| / scale stays below 2^(bits-1), so only the upper clip can bind, and
    adding 0.0 turns rint's -0.0 into the +0.0 of the int64 round trip.  A
    scale that is not positive and finite raises calibrate's ValueError, and
    in a stack nn.MemberErrors with that error for each such member.
    """
    stacked = w.ndim == 3
    betas = np.abs(w).max(axis=(-2, -1)).tolist() if stacked else [float(np.max(np.abs(w)))]
    widths = list(bits) if stacked else [bits]
    scales = [2 * (b + (b == 0.0)) / (2 ** n - 1) for b, n in zip(betas, widths)]
    errors = {j: ValueError("calibration values contain non-finite entries"
                            if not math.isfinite(b) else
                            f"scale must be positive and finite, got {sc}")
              for j, (b, sc) in enumerate(zip(betas, scales)) if not 0 < sc < math.inf}
    if errors:
        raise nn.MemberErrors(errors) if stacked else errors[0]
    qmax = [2 ** (n - 1) - 1 for n in widths]
    if stacked:
        scale, top = (np.array(v, dtype=np.float64)[:, None, None] for v in (scales, qmax))
    else:
        scale, top = scales[0], qmax[0]
    q = w / scale
    np.rint(q, out=q)
    np.minimum(q, top, out=q)
    q += 0.0
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


def _fq_signed(x: np.ndarray, bits: int, xmax: float) -> np.ndarray:
    scale = 2 * max(xmax, 1e-12) / (2 ** bits - 1)
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

    The members may differ in their schemas and seeds; every other training
    setting and the layer widths must match (ValueError otherwise).  Inputs
    are fake-quantized once per distinct input width.  A member whose own
    run would raise TrainingDiverged or a ValueError leaves the stack at
    that point, and its slot of the result holds that exception; the others
    continue unchanged.
    """
    if len(data) == 0:
        raise ValueError("empty training set")
    nn._check_stack(models, cfgs)
    if len(schemas) != len(models):
        raise ValueError(f"{len(schemas)} schemas for {len(models)} models")
    for model, schema in zip(models, schemas):
        if schema.n_layers != model.n_layers:
            raise ValueError(f"schema has {schema.n_layers} layers, model has {model.n_layers}")

    cfg = cfgs[0]
    input_max = float(np.max(np.abs(data.features)))
    # per layer, each model's widths and activation range (column k for model k)
    wbits = np.array([s.weight_bits for s in schemas]).T
    abits = np.array([s.activation_bits for s in schemas], dtype=np.float64).T
    act_max = np.zeros((models[0].n_layers - 1, len(models)))
    frozen_from = cfg.epochs - max(1, cfg.epochs // 5) if cfg.epochs >= 2 else cfg.epochs
    momentum = 0.0  # the first observing step seeds the ranges

    def step(params, members, epoch, xq, y, grads):
        nonlocal momentum
        ab, ranges = (a[:, members, None, None] for a in (abits, act_max))
        wqs = _fq_weights(params, wbits[:, members].tolist())
        hs, gates = [xq], []
        observe = momentum if epoch < frozen_from else None
        logits = _fq_logits(params, wqs, ab, ranges, xq, hs, gates, observe)
        act_max[:, members] = ranges[..., 0, 0]
        momentum = 0.95
        nn._backward(logits, y, hs, gates + [None], params, cfg.l1, grads, mats=wqs)

    def predictor(params, k):
        return FakeQuantModel(model=params, schema=schemas[k], input_max=input_max,
                              act_max=act_max[:, k].tolist())

    widths = sorted({s.input_bits for s in schemas})
    results = nn._train_loop(models, data, cfgs, step,
                             lambda params, xq, k: predictor(params, k)._logits(xq), predictor,
                             val=val,
                             inputs=[_fq_signed(data.features, b, input_max) for b in widths],
                             group=[widths.index(s.input_bits) for s in schemas])
    batches = -(-len(data) // cfg.batch_size)
    ema_updates = [batches if e < frozen_from else 0 for e in range(cfg.epochs)]
    return [result if isinstance(result, Exception) else
            FakeQuantModel(model=result[0], schema=schema, input_max=input_max,
                           act_max=act_max[:, k].tolist(), history=result[1],
                           ema_updates=list(ema_updates))
            for k, (result, schema) in enumerate(zip(results, schemas))]


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


def accumulator_widths(schema: QuantSchema, fan_ins,
                       accumulator_bits: int | None = None) -> list[int]:
    """Worst-case accumulator width of each layer: weight bits + incoming
    activation bits + ceil(log2 max(fan_in, 2)).  Raises LoweringError when
    accumulator_bits is given and a layer needs more."""
    widths = []
    for i, n in enumerate(fan_ins):
        b_w, b_in = schema.weight_bits[i], schema.input_act_bits(i)
        need = b_w + b_in + math.ceil(math.log2(max(n, 2)))
        if accumulator_bits is not None and accumulator_bits < need:
            raise LoweringError(
                f"layer {i}: accumulator needs {need} bits "
                f"(weights {b_w} + activations {b_in} + log2 fan-in), "
                f"have {accumulator_bits}")
        widths.append(need)
    return widths


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
    required = accumulator_widths(schema, [l.fan_in for l in model.layers],
                                  accumulator_bits)
    layers: list[IntLayer] = []
    prev_scale = input_scale
    output_scale = None
    for i, layer in enumerate(model.layers):
        b_w = schema.weight_bits[i]

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
        # Mantissa budget that keeps acc * mantissa below 2^53, so that the
        # requantization runs in the float64 tier; it is exact either way.
        budget = min(DEFAULT_MULTIPLIER_BITS, 52 - (required[i] + 1))
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


def int_forward(im: IntegerModel, x: np.ndarray):
    """Integer-only inference; returns (real logits, integer logit codes).

    `ir.evaluate` of `ir.export_graph(im)`, less its Softmax, with the last
    accumulator as an output: the input is quantized once, every layer runs
    matmul, bias add and multiply-shift requantization on exact integers
    (the clip at zero realizes ReLU), and the final accumulator is
    dequantized by the output scale.  The codes come back as int64, or as
    Python ints where they do not fit.
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


def save_integer_model(im: IntegerModel, path: str) -> None:
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


def _check_layers(layers: list[IntLayer], schema: QuantSchema, path: str) -> None:
    """Raise ValueError unless the layers chain and match the schema's widths."""
    if len(layers) != schema.n_layers:
        raise ValueError(f"{path}: {len(layers)} layers, schema has {schema.n_layers}")
    for i, layer in enumerate(layers):
        w = layer.q_weights
        if w.ndim != 2 or (i > 0 and w.shape[0] != layers[i - 1].q_weights.shape[1]):
            raise ValueError(f"{path}: layer {i} weights of shape {w.shape} do not chain")
        if layer.q_bias.shape != (w.shape[1],):
            raise ValueError(f"{path}: layer {i} has {layer.q_bias.size} biases for "
                             f"{w.shape[1]} outputs")
        if (layer.weight_bits, layer.act_bits) != (schema.weight_bits[i],
                                                   schema.activation_bits[i]):
            raise ValueError(f"{path}: layer {i} widths differ from the schema's")


def load_integer_model(path: str) -> IntegerModel:
    """A save_integer_model file.  A malformed one, or one whose layers do not
    chain or disagree with its schema, raises ValueError, KeyError or
    TypeError."""
    doc = read_document(path, "hessquant-integer-model")
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
    _check_layers(layers, schema, path)
    return IntegerModel(layers=layers, input_params=input_params, input_scale=input_scale,
                        output_scale=DyadicScale(**doc["output_scale"]),
                        accumulator_bits=acc_bits, schema=schema)
