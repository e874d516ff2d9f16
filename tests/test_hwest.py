import dataclasses
import json
import math

import pytest

from hessquant import allocate as al
from hessquant import hwest
from hessquant import quantize as qz


REF_SIZES = [16, 64, 32, 32, 5]


def arch(input_bits=16, sparsities=None):
    return al.ArchSpec.from_sizes(REF_SIZES, sparsities=sparsities,
                                  input_bits=input_bits)


def test_default_coeffs_are_valid():
    c = hwest.EstimatorCoeffs()
    assert c.dsp_threshold == 11
    assert c.lut_per_bit_product == 0.5


def test_coeffs_validation():
    with pytest.raises(ValueError):
        hwest.EstimatorCoeffs(dsp_threshold=1)
    for value in (11.9, 12.0):  # a float threshold is refused, not truncated
        with pytest.raises(ValueError, match="dsp_threshold must be an integer >= 2"):
            hwest.EstimatorCoeffs(dsp_threshold=value)
    with pytest.raises(ValueError):
        hwest.EstimatorCoeffs(lut_per_bit_product=-0.1)
    for name in ("dsp_threshold", "lut_per_bit_product", "softmax_ff"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                hwest.EstimatorCoeffs(**{name: value})


def test_wide_multiplies_go_to_dsps():
    # 16-bit operands sit above the threshold: every multiplier is a DSP
    # and contributes no multiplier LUTs
    est = hwest.estimate(arch(input_bits=16),
                         qz.QuantSchema.homogeneous(16, 4, input_bits=16))
    mults = 64 * 16 + 32 * 64 + 32 * 32 + 5 * 32
    assert est.dsps == mults
    assert all(l.dsps == l.multipliers for l in est.layers)


def test_narrow_multiplies_go_to_luts():
    # 4-bit weights with 7-bit activations stay under the 11-bit threshold
    schema = qz.QuantSchema.coupled((4, 4, 4, 4), input_bits=8)
    est = hwest.estimate(arch(input_bits=8), schema)
    assert est.dsps == 0
    assert est.luts > 0


def test_threshold_looks_at_either_operand():
    # 4-bit weights but a 16-bit input feed makes layer 0 DSP-bound
    schema = qz.QuantSchema.coupled((4, 4, 4, 4), input_bits=16)
    est = hwest.estimate(arch(input_bits=16), schema)
    assert est.layers[0].dsps == 64 * 16
    assert all(l.dsps == 0 for l in est.layers[1:])


def test_full_sparsity_removes_multiplier_costs():
    schema = qz.QuantSchema.coupled((4, 4, 4, 4), input_bits=8)
    est = hwest.estimate(arch(input_bits=8, sparsities=[1.0] * 4), schema)
    assert est.dsps == 0
    # accumulation and register costs remain
    assert est.ffs > 0
    for l in est.layers:
        assert l.multipliers == 0


def test_reference_setups_order_all_three_resources():
    base = hwest.estimate(arch(input_bits=32, sparsities=[0.0] * 4),
                          qz.QuantSchema.homogeneous(32, 4, input_bits=32))
    int8 = hwest.estimate(arch(input_bits=16, sparsities=[0.30] * 4),
                          qz.QuantSchema.homogeneous(8, 4, input_bits=16))
    mixed = hwest.estimate(arch(input_bits=16, sparsities=[0.33] * 4),
                           qz.QuantSchema.coupled((4, 4, 5, 4), input_bits=16))
    assert base.dsps > int8.dsps > mixed.dsps
    assert base.luts > int8.luts > mixed.luts
    assert base.ffs > int8.ffs > mixed.ffs


def test_reference_setup_absolute_values():
    base = hwest.estimate(arch(input_bits=32, sparsities=[0.0] * 4),
                          qz.QuantSchema.homogeneous(32, 4, input_bits=32))
    assert (base.dsps, base.luts, base.ffs) == (4256, 295188, 9295)
    int8 = hwest.estimate(arch(input_bits=16, sparsities=[0.30] * 4),
                          qz.QuantSchema.homogeneous(8, 4, input_bits=16))
    assert (int8.dsps, int8.luts, int8.ffs) == (717, 141910, 3423)


def test_dsp_and_ff_monotone_in_bits():
    # more bits never reduce DSP or FF counts under fixed sparsity
    prev = None
    for bits in range(2, 17):
        est = hwest.estimate(arch(input_bits=bits),
                             qz.QuantSchema.homogeneous(bits, 4, input_bits=bits))
        if prev is not None:
            assert est.dsps >= prev.dsps
            assert est.ffs >= prev.ffs
        prev = est


def test_lut_monotone_within_an_assignment_regime():
    # while every multiply stays below the DSP threshold, LUTs grow with
    # bits; crossing the threshold legitimately dumps LUT cost onto DSPs
    prev = None
    for bits in range(2, 6):   # max operand stays under 11 bits
        est = hwest.estimate(arch(input_bits=bits),
                             qz.QuantSchema.homogeneous(bits, 4, input_bits=bits))
        if prev is not None:
            assert est.luts >= prev.luts
        prev = est


def test_totals_equal_sum_of_parts():
    est = hwest.estimate(arch(input_bits=16, sparsities=[0.2] * 4),
                         qz.QuantSchema.coupled((5, 6, 7, 8), input_bits=16))
    assert est.luts == sum(l.luts for l in est.layers) + est.overhead_luts
    assert est.ffs == sum(l.ffs for l in est.layers) + est.overhead_ffs
    assert est.dsps == sum(l.dsps for l in est.layers)
    assert est.overhead_luts == 500 and est.overhead_ffs == 150


def test_acc_width_drives_lut_and_ff_terms():
    est = hwest.estimate(arch(input_bits=8),
                         qz.QuantSchema.coupled((4, 4, 4, 4), input_bits=8))
    l0 = est.layers[0]
    assert l0.acc_bits == 4 + 8 + 4  # weights + input feed + ceil(log2 16)
    expect_luts = round(0.5 * 4 * 8 * l0.multipliers + l0.acc_bits * l0.multipliers)
    assert l0.luts == expect_luts
    assert l0.ffs == round(l0.acc_bits * 64)


def test_custom_coeffs_change_the_estimate():
    schema = qz.QuantSchema.coupled((4, 4, 4, 4), input_bits=8)
    cheap = hwest.estimate(arch(input_bits=8), schema,
                           coeffs=hwest.EstimatorCoeffs(lut_per_bit_product=0.1))
    default = hwest.estimate(arch(input_bits=8), schema)
    assert cheap.luts < default.luts
    lower_threshold = hwest.EstimatorCoeffs(dsp_threshold=4)
    dsp_heavy = hwest.estimate(arch(input_bits=8), schema, coeffs=lower_threshold)
    assert dsp_heavy.dsps > 0


def test_arch_sparsities_lower_the_estimate():
    schema = qz.QuantSchema.coupled((4, 4, 4, 4), input_bits=8)
    dense = hwest.estimate(arch(input_bits=8, sparsities=[0.0] * 4), schema)
    sparse = hwest.estimate(arch(input_bits=8, sparsities=[0.9] * 4), schema)
    assert sparse.luts < dense.luts


def test_coeffs_file_round_trip(tmp_path):
    c = hwest.EstimatorCoeffs(dsp_threshold=9, lut_per_bit_product=0.75,
                              softmax_lut=123.0)
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"format": "hessquant-coeffs", "version": 1,
                                **dataclasses.asdict(c)}))
    assert hwest.load_coeffs(str(path)) == c


def test_estimate_json_and_csv_shapes():
    est = hwest.estimate(arch(input_bits=16),
                         qz.QuantSchema.coupled((4, 4, 5, 4), input_bits=16))
    doc = hwest.estimate_json(est)
    assert set(doc) >= {"luts", "ffs", "dsps", "layers"}
    assert len(doc["layers"]) == 4
    text = hwest.estimate_csv(est)
    lines = text.strip().split("\n")
    # header, four layers, softmax overhead, total
    assert len(lines) == 7
    assert lines[0].startswith("layer")
    assert lines[-1].startswith("total")
