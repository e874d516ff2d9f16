"""Acceptance gate: ten numbered end-to-end checks over the public API.

Heavier than the unit tests on purpose (the file takes a few minutes).  Each
test name carries its criterion number so `pytest -v` prints one verdict line
per criterion, and each test ends with a PASS line holding the measured
numbers (shown with -rP, or in the captured output on failure).  Tolerances
are pinned here rather than imported so a library edit cannot quietly move
the goalposts.
"""

import itertools
import json
import operator
import statistics
import time

import numpy as np
import pytest

from hessquant import allocate as al
from hessquant import cli, data, hessian, hwest, ir, nn
from hessquant import quantize as qz


SIZES = [16, 64, 32, 32, 5]


def _trained(sizes, n, seed, separation, epochs, l1=1e-4, lr=1e-3):
    ds = data.standardize(data.generate_synthetic(n, seed=seed, separation=separation))
    tr, va = data.split(ds, 0.2, seed)
    model = nn.mlp(sizes, seed=seed)
    cfg = nn.TrainConfig(epochs=epochs, batch_size=64, learning_rate=lr,
                         l1=l1, seed=seed)
    model, _ = nn.train(model, tr, cfg, val=va)
    return model, tr, va


# --------------------------------------------------------------------------
# 1. closed-form cost of the full-width reference pipeline


def test_criterion_01_reference_bops_value_and_speed():
    arch = al.ArchSpec.from_sizes(SIZES, input_bits=32)
    schema = qz.QuantSchema.homogeneous(32, 4, input_bits=32)
    al.model_bops(arch, schema)  # warm-up so the timed call is steady state
    t0 = time.perf_counter()
    bops = al.model_bops(arch, schema)
    dt = time.perf_counter() - t0
    assert bops == 4_652_832.0
    assert dt < 1e-3
    print(f"PASS: criterion 1 - dense 32-bit pipeline costs {bops:.0f} BOPs "
          f"(computed in {dt * 1e6:.0f} us)")


# --------------------------------------------------------------------------
# 2. randomized trace probes on operators with known traces


def test_criterion_02_probe_estimator_identity_and_diagonal():
    d = 120
    mean, _, samples = hessian.hutchinson_estimate(lambda v: v, d, k=200, seed=3)
    assert np.all(samples == float(d))  # sign probes square to 1 exactly
    assert mean == float(d)

    diag = np.arange(1.0, 11.0)
    est, _, _ = hessian.hutchinson_estimate(lambda v: diag * v, 10, k=10_000, seed=4)
    rel = abs(est - 55.0) / 55.0
    assert rel <= 0.02
    print(f"PASS: criterion 2 - identity probes all equal {d}; "
          f"diagonal 1..10 estimate {est:.3f} vs 55 (rel err {rel:.2e})")


# --------------------------------------------------------------------------
# 3. probe estimate against exact per-layer traces on a tiny trained model


def test_criterion_03_probe_estimate_matches_exact_trace():
    # the closed-form trace against 5000 sign probes of the exact
    # layer-block Hessian-vector product on a small trained model
    ds = data.generate_synthetic(400, seed=50, separation=0.8)
    toy = data.Dataset(features=data.standardize(ds).features[:, :4],
                       labels=(ds.labels % 2).astype(np.int64))
    model = nn.mlp([4, 3, 2], seed=1)
    cfg = nn.TrainConfig(epochs=60, batch_size=32, learning_rate=3e-3,
                         l1=0.0, seed=1)
    model, _ = nn.train(model, toy, cfg)
    batch = hessian.calibration_batch(toy, 256)
    rels = []
    for layer in range(model.n_layers):
        exact = hessian.exact_trace(model, batch, layer)
        est, _ = hessian.hutchinson_trace(model, batch, layer, k=5000, seed=11 + layer)
        rels.append(abs(est - exact) / abs(exact))
    assert all(r <= 0.05 for r in rels)
    print("PASS: criterion 3 - 5000-probe estimates within "
          + ", ".join(f"{r:.2%}" for r in rels) + " of the exact layer traces")


# --------------------------------------------------------------------------
# 4. exact allocator against an independent exhaustive scan


def test_criterion_04_allocator_matches_exhaustive_scan():
    model, tr, _ = _trained(SIZES, n=3000, seed=21, separation=1.8, epochs=12)
    rep = hessian.layer_sensitivities(model, hessian.calibration_batch(tr, 1024))
    arch = al.ArchSpec.from_model(model, sparsities=nn.sparsity(model), input_bits=16)
    weights = [l.weights for l in model.layers]
    traces = [max(0.0, t) for t in rep.avg_traces]  # the documented clamp

    t0 = time.perf_counter()
    budgets = list(range(250_000, 550_001, 50_000))
    picks = []
    for budget in budgets:
        prob = al.AllocationProblem(arch=arch, traces=rep.avg_traces,
                                    weights=weights, budget=float(budget))
        sol = al.solve_ilp(prob)
        # scan every schema on the candidate grid without the solver's pruning
        pert = {(i, b): al.perturbation(weights[i], b)
                for i in range(4) for b in prob.candidates}
        best = None
        for bits in itertools.product(prob.candidates, repeat=4):
            schema = qz.QuantSchema.coupled(bits, input_bits=16)
            bops = al.model_bops(arch, schema)
            if bops > budget:
                continue
            om = sum(traces[i] * pert[i, b] for i, b in enumerate(bits))
            key = (om, bops, bits)
            if best is None or key < best:
                best = key
        assert best is not None
        assert sol.feasible
        assert sol.weight_bits == best[2], budget
        assert abs(sol.omega_value - best[0]) <= 1e-9 * max(1.0, abs(best[0]))
        assert sol.bops == best[1]
        picks.append(best[2])
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"PASS: criterion 4 - solver equals the 625-schema scan at all "
          f"{len(budgets)} budgets in {dt:.1f}s; picks {picks[0]} .. {picks[-1]}")


# --------------------------------------------------------------------------
# 5. integer inference against a big-integer replay, 10 000 inputs


@pytest.fixture(scope="module")
def int_pipeline():
    model, tr, _ = _trained([16, 12, 8, 5], n=2000, seed=9, separation=1.6, epochs=8)
    schema = qz.QuantSchema.coupled((6, 5, 7), input_bits=16)
    fq = qz.calibrate_fake_quant(model, schema, hessian.calibration_batch(tr, 512))
    return qz.lower(fq, accumulator_bits=32)


def test_criterion_05_integer_inference_matches_big_int_replay(int_pipeline):
    im = int_pipeline
    rng = np.random.default_rng(123)
    x = rng.standard_normal((10_000, 16)) * 1.5
    _, q_logits = qz.int_forward(im, x)
    q_in = qz.quantize(x, im.input_params)  # both paths share the float boundary

    # per-layer constants as plain Python ints, columns ready to dot against
    layers = []
    for layer in im.layers:
        cols = [[int(w) for w in layer.q_weights[:, j]]
                for j in range(layer.q_weights.shape[1])]
        bias = [int(b) for b in layer.q_bias]
        layers.append((cols, bias, layer.requant, layer.act_bits))

    mismatches = 0
    for r in range(x.shape[0]):
        h = [int(v) for v in q_in[r]]
        out = None
        for cols, bias, requant, act_bits in layers:
            acc = [sum(map(operator.mul, h, col)) + b for col, b in zip(cols, bias)]
            if requant is None:
                out = acc
            else:
                m, c = requant.mantissa, requant.shift
                if c > 0:
                    acc = [(a * m + (1 << (c - 1))) >> c for a in acc]
                else:
                    acc = [a * m for a in acc]
                qmax = (1 << act_bits) - 1
                h = [min(max(a, 0), qmax) for a in acc]
        if any(int(q_logits[r, j]) != out[j] for j in range(len(out))):
            mismatches += 1
    assert mismatches == 0
    print(f"PASS: criterion 5 - 0 of {x.shape[0]} rows deviate from the "
          f"arbitrary-precision replay")


# --------------------------------------------------------------------------
# 6. graph passes preserve semantics; serialization round-trips


def test_criterion_06_ir_passes_preserve_semantics(int_pipeline):
    g0 = ir.export_graph(int_pipeline)
    assert ir.validate(g0) == []
    rng = np.random.default_rng(31)
    feed = {g0.inputs[0]: rng.standard_normal((100, 16)) * 1.5}
    base = ir.evaluate(g0, feed)

    def check(outputs, graph, exact_reals):
        for name in graph.outputs:
            kind = graph.tensors[name].kind
            if kind == "int" or exact_reals:
                assert np.array_equal(outputs[name], base[name]), name
            else:
                diff = np.max(np.abs(outputs[name] - base[name]))
                assert diff <= 1e-6, (name, diff)

    g = g0
    applied = []
    for name, pipeline_pass in (("infer_shapes", ir.infer_shapes),
                                ("fold_constants", ir.fold_constants),
                                ("merge_scales_relu", ir.merge_scales_relu)):
        g = pipeline_pass(g)
        assert ir.validate(g) == []
        check(ir.evaluate(g, feed), g, exact_reals=False)
        applied.append(name)

    round_tripped = ir.parse(ir.serialize(g))
    check(ir.evaluate(round_tripped, feed), round_tripped, exact_reals=True)
    print(f"PASS: criterion 6 - {', '.join(applied)} all preserve 100-input "
          f"outputs; serialize/parse round trip is evaluation-identical")


# --------------------------------------------------------------------------
# 7. round-trip error bound, 10^5 randomized draws


def test_criterion_07_round_trip_error_bound():
    rng = np.random.default_rng(77)
    total = 0
    worst = -1.0
    for bits in (2, 3, 4, 5, 8, 12, 16):
        for beta in (1e-3, 0.5, 1.0, 37.5, 1e4):
            for symmetric in (True, False):
                anchor = np.array([-0.37 * beta, beta]) if not symmetric \
                    else np.array([-beta, beta])
                params = qz.calibrate(anchor, bits, symmetric=symmetric)
                r = rng.uniform(params.alpha, params.beta, size=1500)
                err = np.abs(r - qz.dequantize(qz.quantize(r, params), params))
                margin = float(np.max(err)) - (params.scale / 2 + 1e-12)
                worst = max(worst, margin)
                assert margin <= 0.0, (bits, beta, symmetric, margin)
                total += r.size
    assert total >= 100_000
    print(f"PASS: criterion 7 - {total} draws stay within half a step "
          f"(worst margin {worst:.3e})")


# --------------------------------------------------------------------------
# 8. accuracy trends over 10 seeds


def test_criterion_08_accuracy_trends_over_ten_seeds():
    # separation 2.6 puts the task in the regime where a converged network
    # has bit-width headroom; narrower margins turn the comparison below
    # into a coin flip between schemas that genuinely tie in quality
    wins = 0
    hom_acc = {4: [], 6: [], 8: []}
    alloc_bits = []
    for seed in range(10):
        ds = data.standardize(data.generate_synthetic(3000, seed=100 + seed,
                                                      separation=2.6))
        tr, va = data.split(ds, 0.2, seed)
        model = nn.mlp(SIZES, seed=seed)
        model, _ = nn.train(model, tr, nn.TrainConfig(
            epochs=30, batch_size=64, learning_rate=1e-3, l1=1e-4, seed=seed), val=va)
        qcfg = nn.TrainConfig(epochs=16, batch_size=64, learning_rate=5e-4,
                              l1=0.0, seed=seed)
        for b in (4, 6, 8):
            hom = qz.QuantSchema.homogeneous(b, 4)
            hom_acc[b].append(nn.accuracy(qz.qat_train(model, tr, hom, qcfg, val=va), va))

        rep = hessian.layer_sensitivities(model, hessian.calibration_batch(tr, 1024))
        arch = al.ArchSpec.from_model(model, sparsities=nn.sparsity(model),
                                      input_bits=16)
        sol = al.solve_ilp(al.AllocationProblem(
            arch=arch, traces=rep.avg_traces,
            weights=[l.weights for l in model.layers], budget=250_000.0))
        assert sol.feasible
        alloc_bits.append(sol.weight_bits)
        a_alloc = nn.accuracy(qz.qat_train(model, tr, sol.schema, qcfg, val=va), va)
        # cheapest homogeneous schema costing at least as much as the
        # allocated one: 5 bits everywhere (297 024 vs 249 120 BOPs)
        five = qz.QuantSchema.coupled((5, 5, 5, 5), input_bits=16)
        assert al.model_bops(arch, five) >= sol.bops
        a_five = nn.accuracy(qz.qat_train(model, tr, five, qcfg, val=va), va)
        wins += a_alloc >= a_five

    m4, m6, m8 = (statistics.median(hom_acc[b]) for b in (4, 6, 8))
    assert m8 >= m6 >= m4
    assert wins >= 7
    print(f"PASS: criterion 8 - median accuracy int8 {m8:.4f} >= int6 {m6:.4f} "
          f">= int4 {m4:.4f}; budgeted schema >= 5-bit homogeneous in {wins}/10 "
          f"seeds (allocations {sorted(set(alloc_bits))})")


# --------------------------------------------------------------------------
# 9. resource estimates rank the three reference setups


def test_criterion_09_resource_estimate_ordering():
    base = hwest.estimate(al.ArchSpec.from_sizes(SIZES, input_bits=32),
                          qz.QuantSchema.homogeneous(32, 4, input_bits=32))
    int8 = hwest.estimate(al.ArchSpec.from_sizes(SIZES, sparsities=[0.30] * 4,
                                                 input_bits=16),
                          qz.QuantSchema.homogeneous(8, 4, input_bits=16))
    mixed = hwest.estimate(al.ArchSpec.from_sizes(SIZES, sparsities=[0.33] * 4,
                                                  input_bits=16),
                           qz.QuantSchema.coupled((4, 4, 5, 4), input_bits=16))
    assert base.dsps > int8.dsps > mixed.dsps
    assert base.luts > int8.luts > mixed.luts
    print(f"PASS: criterion 9 - DSP {base.dsps} > {int8.dsps} > {mixed.dsps} and "
          f"LUT {base.luts} > {int8.luts} > {mixed.luts} across the reference setups")


# --------------------------------------------------------------------------
# 10. the CLI chain on default settings, twice, byte for byte


def test_criterion_10_cli_chain_reproducible(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": str(out)}))
    chain = ("gen-data", "train", "trace", "allocate", "quantize",
             "export-ir", "run-ir")

    t0 = time.perf_counter()
    for cmd in chain:
        assert cli.main([cmd, "--config", str(config)]) == 0, cmd
    dt = time.perf_counter() - t0
    assert dt < 600.0

    first = {p.name: p.read_bytes() for p in out.iterdir()}
    for cmd in chain:
        manifest = out / f"manifest-{cmd}.json"
        assert cli.main([cmd, "--config", str(manifest)]) == 0, cmd
    second = {p.name: p.read_bytes() for p in out.iterdir()}

    assert sorted(first) == sorted(second)
    differing = [name for name in first if first[name] != second[name]]
    assert differing == []
    print(f"PASS: criterion 10 - default chain ran in {dt:.1f}s and a rerun "
          f"from the manifests reproduced all {len(first)} files byte-identically")
