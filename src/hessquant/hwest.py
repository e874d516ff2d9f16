"""Heuristic FPGA resource estimation from a quantization schema.

Per layer, every nonzero multiplier either maps to a DSP block (when the
wider operand reaches the threshold synthesis tools use for hard multiplier
inference) or to LUT fabric with cost proportional to the operand bit
product.  Accumulation logic also burns LUTs in proportion to accumulator
width, which is what keeps wide-bit configurations expensive even when all
their multipliers land in DSPs.  Flip-flops follow accumulator width times
fan-out.  These are calibration coefficients, not synthesis results: fit
them to your own toolchain runs via the coefficients file.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field, fields

from .allocate import ArchSpec
from .ioutil import read_document
from .quantize import QuantSchema, accumulator_widths


@dataclass(frozen=True)
class EstimatorCoeffs:
    dsp_threshold: int = 11
    lut_per_bit_product: float = 0.5
    lut_per_acc_bit: float = 1.0
    ff_per_acc_bit: float = 1.0
    softmax_lut: float = 500.0
    softmax_ff: float = 150.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.dsp_threshold < 2 or self.dsp_threshold != int(self.dsp_threshold):
            raise ValueError(f"dsp_threshold must be a whole number >= 2, got {self.dsp_threshold}")
        object.__setattr__(self, "dsp_threshold", int(self.dsp_threshold))
        for name in ("lut_per_bit_product", "lut_per_acc_bit", "ff_per_acc_bit",
                     "softmax_lut", "softmax_ff"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class LayerEstimate:
    layer: int
    weight_bits: int
    act_bits_in: int
    acc_bits: int
    multipliers: int
    dsps: int
    luts: int
    ffs: int


@dataclass
class ResourceEstimate:
    luts: int
    ffs: int
    dsps: int
    overhead_luts: int
    overhead_ffs: int
    layers: list[LayerEstimate] = field(default_factory=list)

    def __post_init__(self):
        if self.luts != sum(l.luts for l in self.layers) + self.overhead_luts:
            raise ValueError("LUT total does not match breakdown plus overhead")
        if self.ffs != sum(l.ffs for l in self.layers) + self.overhead_ffs:
            raise ValueError("FF total does not match breakdown plus overhead")
        if self.dsps != sum(l.dsps for l in self.layers):
            raise ValueError("DSP total does not match breakdown")


def estimate(arch: ArchSpec, schema: QuantSchema,
             coeffs: EstimatorCoeffs | None = None) -> ResourceEstimate:
    """Resource estimate for a schema on an architecture.

    Each layer's sparsity is the one stored in arch.  A multiplier whose wider
    operand is at least coeffs.dsp_threshold bits counts as one DSP;
    narrower products cost lut_per_bit_product * b_w * b_a LUTs each.  Every
    nonzero multiplier additionally costs lut_per_acc_bit LUTs per
    accumulator bit, and each output accumulator register costs
    ff_per_acc_bit flip-flops per bit.  Per-layer figures round to integers;
    totals are their sums plus the fixed softmax overhead.
    """
    if coeffs is None:
        coeffs = EstimatorCoeffs()
    if schema.n_layers != arch.n_layers:
        raise ValueError(f"schema has {schema.n_layers} layers, architecture "
                         f"{arch.n_layers}")

    layers: list[LayerEstimate] = []
    accs = accumulator_widths(schema, [n for n, _ in arch.dims])
    for i, ((n, m), acc, f) in enumerate(zip(arch.dims, accs, arch.sparsities)):
        b_w = schema.weight_bits[i]
        b_in = schema.input_act_bits(i)
        mults = n * m * (1.0 - f)
        if max(b_w, b_in) >= coeffs.dsp_threshold:
            dsps = int(round(mults))
            lut_mult = 0.0
        else:
            dsps = 0
            lut_mult = coeffs.lut_per_bit_product * b_w * b_in * mults
        luts = int(round(lut_mult + coeffs.lut_per_acc_bit * acc * mults))
        ffs = int(round(coeffs.ff_per_acc_bit * acc * m))
        layers.append(LayerEstimate(layer=i, weight_bits=b_w, act_bits_in=b_in,
                                    acc_bits=acc, multipliers=int(round(mults)),
                                    dsps=dsps, luts=luts, ffs=ffs))

    oh_lut = int(round(coeffs.softmax_lut))
    oh_ff = int(round(coeffs.softmax_ff))
    return ResourceEstimate(
        luts=sum(l.luts for l in layers) + oh_lut,
        ffs=sum(l.ffs for l in layers) + oh_ff,
        dsps=sum(l.dsps for l in layers),
        overhead_luts=oh_lut,
        overhead_ffs=oh_ff,
        layers=layers,
    )


def load_coeffs(path: str) -> EstimatorCoeffs:
    doc = read_document(path, "hessquant-coeffs", None)
    return EstimatorCoeffs(**{f.name: float(doc[f.name]) for f in fields(EstimatorCoeffs)})


def estimate_json(est: ResourceEstimate) -> dict:
    return {
        "luts": est.luts,
        "ffs": est.ffs,
        "dsps": est.dsps,
        "overhead_luts": est.overhead_luts,
        "overhead_ffs": est.overhead_ffs,
        "layers": [asdict(l) for l in est.layers],
    }


def estimate_csv(est: ResourceEstimate) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["layer", "weight_bits", "act_bits_in", "acc_bits",
                     "multipliers", "dsps", "luts", "ffs"])
    for l in est.layers:
        writer.writerow([l.layer, l.weight_bits, l.act_bits_in, l.acc_bits,
                         l.multipliers, l.dsps, l.luts, l.ffs])
    writer.writerow(["softmax", "", "", "", "", 0, est.overhead_luts, est.overhead_ffs])
    writer.writerow(["total", "", "", "", "", est.dsps, est.luts, est.ffs])
    return buf.getvalue()
