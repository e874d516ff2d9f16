"""Bit-operations cost model and sensitivity-guided bit-width allocation.

A layer computing an m-output dense product over n inputs at b_w-bit weights
and b_a-bit incoming activations costs

    m * n * ((1 - f_p) * b_a * b_w + b_a + b_w + log2(n))

bit operations, where f_p is the fraction of pruned (zero) weights.  The
allocation objective weighs each layer's quantization damage by its Hessian
sensitivity: omega = sum_i avg_trace_i * ||Q(W_i) - W_i||^2.  The
omega-minimizing bit assignment under a BOPs budget is found exactly by a
dynamic program over layers that keeps, for each layer's width, the Pareto
frontier of (BOPs, omega) prefixes.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn, quantize
from .data import Dataset
from .ioutil import read_document, write_json_atomic
from .nn import MLPModel, TrainConfig
from .quantize import QuantSchema, coupled_width

DEFAULT_CANDIDATES = (4, 5, 6, 7, 8)


@dataclass(frozen=True)
class ArchSpec:
    """Dense-network shape plus the sparsity and input width the cost model needs."""
    dims: tuple[tuple[int, int], ...]     # per-layer (fan_in, fan_out)
    sparsities: tuple[float, ...] | None = None
    input_bits: int = 16

    def __post_init__(self):
        if not self.dims:
            raise ValueError("architecture needs at least one layer")
        if self.sparsities is None:
            object.__setattr__(self, "sparsities", (0.0,) * len(self.dims))
        if len(self.sparsities) != len(self.dims):
            raise ValueError("one sparsity per layer required")
        for (n, m) in self.dims:
            if n < 1 or m < 1:
                raise ValueError(f"invalid layer dims ({n}, {m})")
        for a, b in zip(self.dims, self.dims[1:]):
            if a[1] != b[0]:
                raise ValueError(f"layer dims do not chain: {a} then {b}")
        for f in self.sparsities:
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"sparsity {f} outside [0, 1]")

    @property
    def n_layers(self) -> int:
        return len(self.dims)

    @classmethod
    def from_sizes(cls, sizes, sparsities=None, input_bits: int = 16) -> "ArchSpec":
        dims = tuple(zip(sizes[:-1], sizes[1:]))
        if sparsities is None:
            sparsities = (0.0,) * len(dims)
        return cls(dims=dims, sparsities=tuple(float(f) for f in sparsities),
                   input_bits=input_bits)

    @classmethod
    def from_model(cls, model: MLPModel, sparsities=None, input_bits: int = 16) -> "ArchSpec":
        return cls.from_sizes(model.sizes, sparsities=sparsities, input_bits=input_bits)


def layer_bops(n: int, m: int, b_a: int, b_w: int, f_p: float = 0.0) -> float:
    """Bit operations of one dense layer; log2(n) is exact for powers of two."""
    if n < 1 or m < 1:
        raise ValueError("dims must be >= 1")
    if b_a < 1 or b_w < 1:
        raise ValueError("bit widths must be >= 1")
    if not 0.0 <= f_p <= 1.0:
        raise ValueError("sparsity outside [0, 1]")
    return m * n * ((1.0 - f_p) * b_a * b_w + b_a + b_w + math.log2(n))


def model_bops(arch: ArchSpec, schema: QuantSchema) -> float:
    """Total BOPs under a schema; layer i sees the activation width of layer i-1.

    Layer 0's incoming width is the schema's input width.
    """
    if schema.n_layers != arch.n_layers:
        raise ValueError(f"schema has {schema.n_layers} layers, architecture {arch.n_layers}")
    total = 0.0
    for i, (n, m) in enumerate(arch.dims):
        total += layer_bops(n, m, schema.input_act_bits(i), schema.weight_bits[i],
                            arch.sparsities[i])
    return total


def perturbation(w: np.ndarray, bits: int) -> float:
    """Squared Frobenius norm of the symmetric quantization error of w at b bits."""
    w = np.asarray(w, dtype=np.float64)
    d = quantize._fq_weight(w, bits) - w
    return float(np.sum(d * d))


def omega(traces, weights, schema: QuantSchema) -> float:
    """Sensitivity objective: sum of avg_trace_i * perturbation(W_i, b_w_i)."""
    if not (len(traces) == len(weights) == schema.n_layers):
        raise ValueError("traces, weights, and schema must have equal arity")
    return sum(float(t) * perturbation(w, b)
               for t, w, b in zip(traces, weights, schema.weight_bits))


@dataclass
class AllocationProblem:
    """Inputs of one allocation run.

    candidates are the weight bit widths available to every layer; activation
    widths follow them, b_a = quantize.coupled_width(b_w).  traces are
    the per-layer average Hessian traces and weights the float tensors whose
    quantization damage omega measures.
    """
    arch: ArchSpec
    traces: list[float]
    weights: list[np.ndarray]
    budget: float
    candidates: tuple[int, ...] = DEFAULT_CANDIDATES

    def __post_init__(self):
        if not self.budget > 0:  # also rejects NaN
            raise ValueError(f"budget must be positive, got {self.budget}")
        if not (len(self.traces) == len(self.weights) == self.arch.n_layers):
            raise ValueError("traces/weights arity does not match the architecture")
        # traces.json may come from outside, such as a version-1 file of
        # sampled (Hutchinson) traces that can dip below zero; a negative
        # sensitivity would reward quantization error, so floor at 0
        self.traces = [max(0.0, float(t)) for t in self.traces]
        self.candidates = tuple(sorted(set(int(b) for b in self.candidates)))
        if not self.candidates:
            raise ValueError("candidate set is empty")
        lo, hi = self.candidates[0], self.candidates[-1]
        if lo < quantize.MIN_BITS or hi > quantize.MAX_BITS:
            raise ValueError(f"candidate widths must lie in "
                             f"{quantize.MIN_BITS}..{quantize.MAX_BITS}, got {self.candidates}")


@dataclass
class AllocationSolution:
    weight_bits: tuple[int, ...]
    activation_bits: tuple[int, ...]
    omega_value: float
    bops: float
    feasible: bool
    budget: float
    input_bits: int = 16
    explored: int = 0

    @property
    def schema(self) -> QuantSchema:
        return QuantSchema(weight_bits=self.weight_bits,
                           activation_bits=self.activation_bits,
                           input_bits=self.input_bits)


def _solution(problem: AllocationProblem, label: tuple[float, float, tuple[int, ...]],
              feasible: bool, explored: int) -> AllocationSolution:
    bops, om, bits = label
    return AllocationSolution(weight_bits=bits, activation_bits=tuple(map(coupled_width, bits)),
                              omega_value=om, bops=bops, feasible=feasible,
                              budget=problem.budget, input_bits=problem.arch.input_bits,
                              explored=explored)


def _layer_cost_tables(problem: AllocationProblem):
    """Precomputed per-layer perturbation-weighted omega terms and BOPs pieces."""
    cands = problem.candidates
    pert = [{b: problem.traces[i] * perturbation(problem.weights[i], b) for b in cands}
            for i in range(problem.arch.n_layers)]

    def bops_of(layer: int, prev_b: int | None, b: int) -> float:
        n, m = problem.arch.dims[layer]
        b_in = problem.arch.input_bits if layer == 0 else coupled_width(prev_b)
        return layer_bops(n, m, b_in, b, problem.arch.sparsities[layer])

    return pert, bops_of


def solve_ilp(problem: AllocationProblem) -> AllocationSolution:
    """Exact omega minimizer subject to the BOPs budget.

    A dynamic program over layers: layer i's BOPs depend only on its own
    width and layer i-1's, so after each layer it keeps, per last width, the
    Pareto frontier of (BOPs, omega, bits) prefixes.  Both totals accumulate
    in layer order, as model_bops and omega sum them, so the chosen label's
    totals, which the budget test sees and the solution reports, are the
    floats those functions give.  Ties break by lower BOPs, then the
    lexicographically smaller bit vector.  An unsatisfiable budget yields
    feasible=False carrying the minimum-BOPs configuration.  explored counts
    the complete configurations scored at the last layer.
    """
    pert, bops_of = _layer_cost_tables(problem)
    frontier = {None: [(0.0, 0.0, ())]}     # last width -> kept labels
    for i in range(problem.arch.n_layers):
        step = {}
        explored = 0
        for b in problem.candidates:
            cost = {prev: bops_of(i, prev, b) for prev in frontier}
            labels = sorted((bops + cost[prev], om + pert[i][b], bits + (b,))
                            for prev, kept in frontier.items()
                            for bops, om, bits in kept)
            explored += len(labels)
            # Rounding is monotone, so a label with BOPs and omega no lower than
            # a label sorted before it stays so after any common suffix; only
            # a tie that rounding creates would fall to the bit vector.
            kept = []
            for label in labels:
                if not kept or label[1] < kept[-1][1]:
                    kept.append(label)
            step[b] = kept
        frontier = step

    finals = [label for kept in frontier.values() for label in kept]
    best = min((label for label in finals if label[0] <= problem.budget),
               key=lambda label: (label[1], label[0], label[2]), default=None)
    if best is not None:
        return _solution(problem, best, feasible=True, explored=explored)
    return _solution(problem, min(finals), feasible=False, explored=explored)


# ---------------------------------------------------------------------------
# Brute-force accuracy sweep


@dataclass
class SweepRecord:
    config_id: int
    weight_bits: tuple[int, ...]
    activation_bits: tuple[int, ...]
    accuracy: float
    bops: float
    sparsities: tuple[float, ...]
    seed: int
    error: str = ""


def sweep(arch: ArchSpec, candidates, data: Dataset, cfg: TrainConfig,
          val: Dataset | None = None, sample: int | None = None) -> list[SweepRecord]:
    """Train-and-measure over (a sample of) the bit-width configuration grid.

    Each configuration gets a fresh model and a per-config training seed
    (cfg.seed + config_id), is trained with quantization-aware training under
    the coupled schema and cfg (the CLI passes the qat settings), and is
    recorded with its accuracy, measured per-layer sparsity, and BOPs
    recomputed from that measured sparsity.  A configuration whose training
    fails its epoch-end check (TrainingDiverged, or the ValueError that
    fake-quantizing non-finite weights raises there) produces a record with
    the error message instead of aborting the sweep; any other exception
    propagates.  sample draws that many configs without
    replacement, seeded with cfg.seed.  The configurations train as one
    stack (quantize.qat_train_many), each exactly as it would alone, and
    each record's accuracy is its run's last validation accuracy.
    """
    cands = tuple(sorted(set(int(b) for b in candidates)))
    sizes = (arch.dims[0][0], *[m for _, m in arch.dims])
    grid = list(itertools.product(cands, repeat=arch.n_layers))
    ids = list(range(len(grid)))
    if sample is not None and sample < len(grid):
        rng = np.random.default_rng(cfg.seed)
        ids = sorted(rng.choice(len(grid), size=sample, replace=False).tolist())
    if not ids:
        return []
    schemas = [QuantSchema.coupled(grid[i], input_bits=arch.input_bits) for i in ids]
    cfgs = [replace(cfg, seed=cfg.seed + i) for i in ids]
    try:
        fqs = quantize.qat_train_many([nn.mlp(list(sizes), seed=c.seed) for c in cfgs],
                                      data, schemas, cfgs, val=val)
    except ValueError as exc:  # fails every configuration alike
        fqs = [exc] * len(ids)

    def record(config_id: int, schema: QuantSchema, seed: int, fq) -> SweepRecord:
        try:
            if isinstance(fq, Exception):
                raise fq
            sp = tuple(nn.sparsity(fq.model))
            measured = ArchSpec(dims=arch.dims, sparsities=sp, input_bits=arch.input_bits)
            accuracy, bops, error = fq.history.val_accuracy[-1], model_bops(measured, schema), ""
        except (nn.TrainingDiverged, ValueError) as exc:  # recorded, not fatal
            nan = float("nan")
            sp, accuracy, bops, error = (nan,) * arch.n_layers, nan, nan, str(exc)
        return SweepRecord(config_id=config_id, weight_bits=schema.weight_bits,
                           activation_bits=schema.activation_bits, accuracy=accuracy,
                           bops=bops, sparsities=sp, seed=seed, error=error)

    return [record(i, schema, c.seed, fq) for i, schema, c, fq in zip(ids, schemas, cfgs, fqs)]


def sweep_csv(records: list[SweepRecord]) -> str:
    """Render sweep records as CSV (stable column order, one row per config)."""
    if not records:
        return ""
    L = len(records[0].weight_bits)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = (["config_id"]
              + [f"b_w_{i}" for i in range(L)]
              + [f"b_a_{i}" for i in range(L)]
              + ["accuracy", "bops"]
              + [f"sparsity_{i}" for i in range(L)]
              + ["seed", "error"])
    writer.writerow(header)
    for r in records:
        writer.writerow([r.config_id, *r.weight_bits, *r.activation_bits,
                         repr(r.accuracy), repr(r.bops),
                         *[repr(s) for s in r.sparsities], r.seed, r.error])
    return buf.getvalue()


def parse_sweep_csv(text: str) -> list[SweepRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return []
    header = rows[0]
    L = sum(1 for c in header if c.startswith("b_w_"))
    records = []
    for row in rows[1:]:
        vals = dict(zip(header, row))
        records.append(SweepRecord(
            config_id=int(vals["config_id"]),
            weight_bits=tuple(int(vals[f"b_w_{i}"]) for i in range(L)),
            activation_bits=tuple(int(vals[f"b_a_{i}"]) for i in range(L)),
            accuracy=float(vals["accuracy"]),
            bops=float(vals["bops"]),
            sparsities=tuple(float(vals[f"sparsity_{i}"]) for i in range(L)),
            seed=int(vals["seed"]),
            error=vals.get("error", ""),
        ))
    return records


def save_allocation(sol: AllocationSolution, path: str) -> None:
    write_json_atomic(path, {
        "format": "hessquant-allocation",
        "version": 1,
        "weight_bits": list(sol.weight_bits),
        "activation_bits": list(sol.activation_bits),
        "omega": sol.omega_value,
        "bops": sol.bops,
        "feasible": sol.feasible,
        "budget": sol.budget,
        "input_bits": sol.input_bits,
        "explored": sol.explored,
    })


def load_allocation(path: str) -> AllocationSolution:
    doc = read_document(path, "hessquant-allocation", (1,))
    return AllocationSolution(
        weight_bits=tuple(doc["weight_bits"]),
        activation_bits=tuple(doc["activation_bits"]),
        omega_value=float(doc["omega"]),
        bops=float(doc["bops"]),
        feasible=bool(doc["feasible"]),
        budget=float(doc["budget"]),
        input_bits=doc.get("input_bits", 16),
        explored=int(doc.get("explored", 0)),
    )
