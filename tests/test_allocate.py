import itertools
import math

import numpy as np
import pytest

from hessquant import allocate as al
from hessquant import data, nn
from hessquant import quantize as qz


REF_SIZES = [16, 64, 32, 32, 5]


def ref_arch(input_bits=16, sparsities=None):
    return al.ArchSpec.from_sizes(REF_SIZES, sparsities=sparsities,
                                  input_bits=input_bits)


# --- BOPs --------------------------------------------------------------------

def test_layer_bops_closed_form():
    # m * n * ((1 - f) * ba * bw + ba + bw + log2(n))
    got = al.layer_bops(16, 64, 32, 32)
    assert got == 64 * 16 * (32 * 32 + 32 + 32 + 4)
    assert got == 1118208


def test_layer_bops_known_values():
    assert al.layer_bops(16, 64, 16, 8) == 159744
    assert al.layer_bops(64, 32, 32, 32) == 2240512


def test_layer_bops_sparsity_removes_multiplier_term():
    dense = al.layer_bops(64, 32, 8, 8, f_p=0.0)
    empty = al.layer_bops(64, 32, 8, 8, f_p=1.0)
    # at f=1 only the adder/accumulator terms remain
    assert empty == 32 * 64 * (8 + 8 + 6)
    assert empty < dense


def test_layer_bops_log_term_is_exact():
    # the accumulator-growth term is the analytic log2, not a rounded
    # hardware width (see hwest for that)
    got = al.layer_bops(17, 4, 8, 8)
    assert got == pytest.approx(4 * 17 * (64 + 8 + 8 + math.log2(17)))


def test_model_bops_all_32_reference_value():
    arch = ref_arch(input_bits=32)
    schema = qz.QuantSchema.homogeneous(32, 4, input_bits=32)
    assert al.model_bops(arch, schema) == 4652832


def test_model_bops_chains_activation_widths():
    arch = ref_arch(input_bits=16)
    for bits, expected in [(4, 234368), (8, 523776), (5, 297024)]:
        schema = qz.QuantSchema.coupled((bits,) * 4, input_bits=16)
        assert al.model_bops(arch, schema) == expected
    mixed = qz.QuantSchema.coupled((4, 4, 5, 4), input_bits=16)
    assert al.model_bops(arch, mixed) == 243360


def test_model_bops_respects_measured_sparsity():
    dense = al.model_bops(ref_arch(), qz.QuantSchema.coupled((8, 8, 8, 8)))
    sparse = al.model_bops(ref_arch(sparsities=[0.5] * 4),
                           qz.QuantSchema.coupled((8, 8, 8, 8)))
    assert sparse < dense


def test_arch_spec_validates_chaining():
    with pytest.raises(ValueError):
        al.ArchSpec(dims=((16, 64), (32, 32)))  # 64 -> 32 mismatch
    with pytest.raises(ValueError):
        al.ArchSpec(dims=((16, 64),), sparsities=(0.1, 0.2))
    with pytest.raises(ValueError):
        al.ArchSpec(dims=((16, 64),), sparsities=(1.5,))


def test_arch_spec_from_model():
    m = nn.mlp(REF_SIZES, seed=0)
    arch = al.ArchSpec.from_model(m)
    assert arch.dims == ((16, 64), (64, 32), (32, 32), (32, 5))


# --- perturbation and the objective -------------------------------------------

def test_perturbation_is_zero_for_exactly_representable_weights():
    w = np.zeros((4, 4))
    assert al.perturbation(w, 4) == 0.0


def test_perturbation_matches_direct_computation(rng):
    w = rng.normal(size=(8, 6))
    for bits in (2, 4, 8):
        p = qz.calibrate(w, bits, symmetric=True)
        direct = float(np.sum((qz.fake_quant(w, p) - w) ** 2))
        assert al.perturbation(w, bits) == pytest.approx(direct, rel=1e-12)


def test_perturbation_decreases_with_bits(rng):
    w = rng.normal(size=(10, 10))
    vals = [al.perturbation(w, b) for b in (2, 4, 6, 8, 12)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-4 * vals[0]


def test_omega_is_trace_weighted_sum(rng):
    weights = [rng.normal(size=(4, 3)), rng.normal(size=(3, 2))]
    traces = [2.0, 5.0]
    schema = qz.QuantSchema.coupled((4, 8))
    direct = (2.0 * al.perturbation(weights[0], 4)
              + 5.0 * al.perturbation(weights[1], 8))
    assert al.omega(traces, weights, schema) == pytest.approx(direct, rel=1e-12)


# --- the solver ---------------------------------------------------------------

@pytest.fixture(scope="module")
def small_problem():
    rng = np.random.default_rng(17)
    weights = [rng.normal(size=(a, b)) for a, b in
               [(16, 64), (64, 32), (32, 32), (32, 5)]]
    traces = [3.0, 1.2, 0.7, 5.0]
    def make(budget, candidates=(4, 5, 6, 7, 8)):
        return al.AllocationProblem(arch=ref_arch(), traces=traces,
                                    weights=weights, budget=budget,
                                    candidates=candidates)
    return make


def solve(problem):
    """solve_ilp, checking that feasibility is exactly the budget test."""
    sol = al.solve_ilp(problem)
    assert sol.feasible == (sol.bops <= problem.budget)
    return sol


def exhaustive_scores(problem):
    """(bops, omega, bits) of every configuration, scored without the solver."""
    scores = []
    for bits in itertools.product(problem.candidates, repeat=problem.arch.n_layers):
        schema = qz.QuantSchema.coupled(bits, input_bits=problem.arch.input_bits)
        scores.append((al.model_bops(problem.arch, schema),
                       al.omega(problem.traces, problem.weights, schema), bits))
    return scores


def exhaustive_best(problem, scores=None):
    """Brute-force oracle: the best (omega, bops, bits) within the budget, or
    None, and the minimum-BOPs (bops, omega, bits) fallback."""
    if scores is None:
        scores = exhaustive_scores(problem)
    best = min(((om, bops, bits) for bops, om, bits in scores if bops <= problem.budget),
               default=None)
    return best, min(scores)


@pytest.mark.parametrize("budget", [250_000, 300_000, 400_000, 550_000])
def test_solver_matches_exhaustive_scan(small_problem, budget):
    problem = small_problem(budget)
    sol = solve(problem)
    best, _ = exhaustive_best(problem)
    assert sol.feasible
    assert sol.weight_bits == best[2]
    assert sol.omega_value == pytest.approx(best[0], rel=1e-12)
    assert sol.bops == best[1]
    assert sol.bops <= budget


def test_solver_flags_infeasible_budget_with_cheapest_config(small_problem):
    problem = small_problem(100_000)
    sol = solve(problem)
    _, fallback = exhaustive_best(problem)
    assert not sol.feasible
    assert sol.weight_bits == fallback[2] == (4, 4, 4, 4)
    assert sol.bops == fallback[0] == 234_368  # all-4 floor for this architecture
    assert solve(small_problem(234_367.5)).feasible is False
    assert solve(small_problem(234_368)).feasible is True


def test_solver_unbounded_budget_takes_max_bits(small_problem):
    sol = solve(small_problem(math.inf))
    assert sol.feasible
    assert sol.weight_bits == (8, 8, 8, 8)


def test_solver_prunes_a_4096_point_grid(small_problem):
    candidates = (2, 3, 4, 5, 6, 7, 8, 9)
    grid = len(candidates) ** 4
    scores = exhaustive_scores(small_problem(math.inf, candidates))
    for budget in (260_000, 350_000):
        problem = small_problem(budget, candidates)
        sol = solve(problem)
        best, _ = exhaustive_best(problem, scores)
        assert sol.weight_bits == best[2]
        assert sol.omega_value == pytest.approx(best[0], rel=1e-12)
        assert sol.explored < grid


def test_solver_is_feasible_at_a_budget_equal_to_the_cheapest_bops():
    # fractional sparsities make every BOPs total inexact, so the budget test
    # must compare the same sum, in the same order, that model_bops reports
    rng = np.random.default_rng(0)
    arch = al.ArchSpec.from_sizes([23, 24, 33, 19, 31],
                                  sparsities=[0.09, 0.48, 0.31, 0.02])
    weights = [rng.normal(size=dims) for dims in arch.dims]
    budget = al.model_bops(arch, qz.QuantSchema.coupled((2, 2, 2, 2)))
    problem = al.AllocationProblem(arch=arch, traces=[1.0] * 4, weights=weights,
                                   budget=budget, candidates=tuple(range(2, 10)))
    sol = solve(problem)
    assert sol.feasible
    assert sol.weight_bits == (2, 2, 2, 2)
    assert sol.bops == budget


def random_problem(seed):
    rng = np.random.default_rng(seed)
    n_layers = int(rng.integers(1, 6))
    # keep the brute-force oracle's grid at most 8^4 points; every third set
    # is drawn from 29..32, whose coupled widths reach the MAX_BITS cap
    pool = np.arange(29, 33) if seed % 3 == 2 else np.arange(2, 13)
    most = min(5 if n_layers == 5 else 8, len(pool))
    cands = rng.choice(pool, size=int(rng.integers(2, most + 1)), replace=False)
    sizes = [int(s) for s in rng.integers(2, 13, size=n_layers + 1)]
    arch = al.ArchSpec.from_sizes(sizes, sparsities=rng.uniform(0.0, 0.9, n_layers))
    return al.AllocationProblem(arch=arch,
                                traces=[float(t) for t in rng.uniform(-0.5, 5.0, n_layers)],
                                weights=[rng.normal(size=dims) for dims in arch.dims],
                                budget=math.inf, candidates=tuple(int(b) for b in cands)), rng


@pytest.mark.parametrize("seed", range(24))
def test_solver_agrees_with_brute_force_on_random_problems(seed):
    problem, rng = random_problem(seed)
    scores = exhaustive_scores(problem)
    grid = len(scores)
    totals = sorted({bops for bops, _, _ in scores})
    k = int(rng.integers(len(totals)))
    budgets = [totals[0] / 2,                              # below every config
               totals[k],                                  # exactly at one
               math.inf]
    if len(totals) > 1:
        j = int(rng.integers(len(totals) - 1))
        budgets.append((totals[j] + totals[j + 1]) / 2)    # strictly between two
    for budget in budgets:
        problem.budget = budget
        sol = solve(problem)
        best, fallback = exhaustive_best(problem, scores)
        assert sol.feasible == (best is not None)
        if best is None:
            assert (sol.bops, sol.weight_bits) == (fallback[0], fallback[2])
            assert sol.omega_value == pytest.approx(fallback[1], rel=1e-12, abs=1e-12)
        else:
            assert (sol.bops, sol.weight_bits) == (best[1], best[2])
            assert sol.omega_value == pytest.approx(best[0], rel=1e-12, abs=1e-12)
        assert sol.explored <= grid


def test_solver_invariant_to_trace_rescaling(small_problem):
    # multiplying every trace by a constant cannot change the argmin
    problem = small_problem(300_000)
    scaled = al.AllocationProblem(arch=problem.arch,
                                  traces=[t * 37.5 for t in problem.traces],
                                  weights=problem.weights,
                                  budget=problem.budget,
                                  candidates=problem.candidates)
    assert solve(problem).weight_bits == solve(scaled).weight_bits


def test_solver_prefers_bits_for_sensitive_layers():
    # one layer dominates the objective; it should get the most bits when
    # the budget forces a choice
    rng = np.random.default_rng(23)
    weights = [rng.normal(size=(16, 16)) for _ in range(3)]
    arch = al.ArchSpec(dims=((16, 16), (16, 16), (16, 16)))
    traces = [100.0, 0.01, 0.01]
    problem = al.AllocationProblem(arch=arch, traces=traces, weights=weights,
                                   budget=60_000, candidates=(2, 4, 6, 8))
    sol = solve(problem)
    assert sol.feasible
    assert sol.weight_bits[0] == max(sol.weight_bits)


def test_solution_schema_property_round_trips(small_problem):
    sol = solve(small_problem(300_000))
    schema = sol.schema
    assert schema.weight_bits == sol.weight_bits
    assert schema.activation_bits == sol.activation_bits
    assert schema.input_bits == sol.input_bits


def test_allocation_json_round_trip(tmp_path, small_problem):
    sol = solve(small_problem(250_000))
    path = tmp_path / "a.json"
    al.save_allocation(sol, str(path))
    back = al.load_allocation(str(path))
    assert back == sol


# --- sweep --------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_data():
    ds = data.generate_synthetic(700, seed=60, separation=1.8)
    ds = data.standardize(ds)
    return data.split(ds, 0.2, 0)


def test_sweep_sample_runs_and_is_reproducible(sweep_data):
    tr, va = sweep_data
    arch = al.ArchSpec.from_sizes([16, 8, 5])
    cfg = nn.TrainConfig(epochs=2, batch_size=64, learning_rate=1e-3, seed=1)
    recs1 = al.sweep(arch, (4, 8), tr, cfg, val=va, sample=3)
    recs2 = al.sweep(arch, (4, 8), tr, cfg, val=va, sample=3)
    assert len(recs1) == 3
    # the sample is drawn with cfg.seed, and config i trains with cfg.seed + i
    drawn = np.random.default_rng(cfg.seed).choice(4, size=3, replace=False)
    assert [r.config_id for r in recs1] == sorted(drawn.tolist())
    assert [r.seed for r in recs1] == [cfg.seed + r.config_id for r in recs1]
    assert [r.config_id for r in recs1] == [r.config_id for r in recs2]
    assert [r.accuracy for r in recs1] == [r.accuracy for r in recs2]
    for r in recs1:
        assert 0.0 <= r.accuracy <= 1.0
        assert r.bops > 0
        assert len(r.sparsities) == 2


def test_sweep_full_grid_covers_every_config(sweep_data):
    tr, va = sweep_data
    arch = al.ArchSpec.from_sizes([16, 6, 5])
    cfg = nn.TrainConfig(epochs=1, batch_size=64, learning_rate=1e-3, seed=0)
    recs = al.sweep(arch, (4, 6), tr, cfg, val=va)
    assert len(recs) == 4
    assert sorted(r.weight_bits for r in recs) == [
        (4, 4), (4, 6), (6, 4), (6, 6)]


def test_sweep_csv_round_trip(sweep_data):
    tr, va = sweep_data
    arch = al.ArchSpec.from_sizes([16, 6, 5])
    cfg = nn.TrainConfig(epochs=1, batch_size=64, learning_rate=1e-3, seed=2)
    recs = al.sweep(arch, (4, 8), tr, cfg, val=va, sample=3)
    text = al.sweep_csv(recs)
    back = al.parse_sweep_csv(text)
    assert back == recs
    # serialization is stable
    assert al.sweep_csv(back) == text


def test_sweep_records_each_configuration_as_its_own_run(sweep_data):
    # the stacked sweep against one qat_train per configuration; the recorded
    # accuracy is the run's last validation accuracy, the same predictor on va
    tr, va = sweep_data
    arch = al.ArchSpec.from_sizes([16, 8, 5])
    cfg = nn.TrainConfig(epochs=3, batch_size=64, learning_rate=1e-3, l1=1e-4, seed=5)
    recs = al.sweep(arch, (3, 5, 8), tr, cfg, val=va, sample=4)
    assert len(recs) == 4 and not any(r.error for r in recs)
    for r in recs:
        schema = qz.QuantSchema.coupled(r.weight_bits, input_bits=arch.input_bits)
        run_cfg = nn.TrainConfig(epochs=3, batch_size=64, learning_rate=1e-3, l1=1e-4,
                                 seed=r.seed)
        fq = qz.qat_train(nn.mlp([16, 8, 5], seed=r.seed), tr, schema, run_cfg, val=va)
        assert r.accuracy == nn.accuracy(fq, va) == fq.history.val_accuracy[-1]
        assert r.sparsities == tuple(nn.sparsity(fq.model))


def test_sweep_records_failures_without_aborting(sweep_data, monkeypatch):
    tr, va = sweep_data
    arch = al.ArchSpec.from_sizes([16, 6, 5])
    cfg = nn.TrainConfig(epochs=1, batch_size=64, learning_rate=1e-3, seed=0)

    real = qz.qat_train_many
    def sometimes_fails(models, dataset, schemas, cfgs, val=None):
        fqs = real(models, dataset, schemas, cfgs, val=val)
        return [nn.TrainingDiverged(0) if schema.weight_bits == (4, 4) else fq
                for fq, schema in zip(fqs, schemas)]
    monkeypatch.setattr(qz, "qat_train_many", sometimes_fails)

    recs = al.sweep(arch, (4, 6), tr, cfg, val=va)
    failed = [r for r in recs if r.error]
    ok = [r for r in recs if not r.error]
    assert len(failed) == 1 and math.isnan(failed[0].accuracy)
    assert failed[0].error == str(nn.TrainingDiverged(0))
    assert "non-finite loss" in failed[0].error
    assert len(ok) == 3


def test_sweep_propagates_programming_errors(sweep_data, monkeypatch):
    tr, va = sweep_data
    arch = al.ArchSpec.from_sizes([16, 6, 5])
    cfg = nn.TrainConfig(epochs=1, batch_size=64, learning_rate=1e-3, seed=0)

    def broken(models, dataset, schemas, cfgs, val=None):
        raise TypeError("synthetic programming error")
    monkeypatch.setattr(qz, "qat_train_many", broken)
    with pytest.raises(TypeError, match="synthetic programming error"):
        al.sweep(arch, (4, 6), tr, cfg, val=va)
