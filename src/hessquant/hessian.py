"""Stochastic Hessian trace estimation for layer sensitivity ranking.

The trace of the loss Hessian restricted to one layer's weight matrix is
estimated with Hutchinson's method: for Rademacher probes z, E[z^T H z] equals
tr(H).  Hessian-vector products come from a central finite difference of the
gradient, so no second-order autodiff machinery is required.  An exact
reference that sums basis-vector products is provided for validation on
small layers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import Dataset
from .nn import MLPModel

EXACT_TRACE_MAX_DIM = 5000
CALIBRATION_SIZE = 1024


def hutchinson_estimate(hvp_fn, d: int, k: int, seed: int = 0):
    """Hutchinson trace estimate of a d-dim operator from k Rademacher probes.

    Returns (mean, stderr, samples) where samples[j] = z_j^T hvp_fn(z_j).
    Each sample's expectation is exactly the trace; with Rademacher probes the
    variance comes only from off-diagonal entries.  stderr is the sample
    standard error (0.0 when k = 1).
    """
    if k < 1:
        raise ValueError("need at least one probe")
    if d < 1:
        raise ValueError("operator dimension must be positive")
    rng = np.random.default_rng(seed)
    samples = np.empty(k)
    for j in range(k):
        z = rng.integers(0, 2, size=d).astype(np.float64) * 2.0 - 1.0
        samples[j] = float(z @ hvp_fn(z))
    stderr = float(samples.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0
    return float(samples.mean()), stderr, samples


def hutchinson_trace(model: MLPModel, batch: Dataset, layer: int,
                     k: int = 64, seed: int = 0,
                     eps_scale: float = 1e-4) -> tuple[float, float]:
    """(estimate, stderr) of the Hessian trace over one layer's weights."""
    d = nn.layer_weight_count(model, layer)
    mean, stderr, _ = hutchinson_estimate(
        lambda v: nn.hvp(model, batch, layer, v, eps_scale=eps_scale), d, k, seed)
    return mean, stderr


def exact_trace(model: MLPModel, batch: Dataset, layer: int,
                eps_scale: float = 1e-4) -> float:
    """Exact trace via one Hessian-vector product per basis vector.

    Costs d gradient pairs, so it refuses layers above EXACT_TRACE_MAX_DIM
    weights; use hutchinson_trace there.
    """
    d = nn.layer_weight_count(model, layer)
    if d > EXACT_TRACE_MAX_DIM:
        raise ValueError(
            f"layer {layer} has {d} weights, exact trace capped at {EXACT_TRACE_MAX_DIM}")
    total = 0.0
    e = np.zeros(d)
    for i in range(d):
        e[i] = 1.0
        total += float(nn.hvp(model, batch, layer, e, eps_scale=eps_scale)[i])
        e[i] = 0.0
    return total


@dataclass
class TraceReport:
    """Per-layer trace estimates plus enough metadata to reproduce them.

    avg_traces holds trace / weight count (the mean-eigenvalue convention the
    allocator consumes); traces keeps the raw estimates.
    """
    traces: list[float]
    avg_traces: list[float]
    stderrs: list[float]
    weight_counts: list[int]
    k: int
    seeds: list[int]
    batch_sha256: str
    sizes: list[int] = field(default_factory=list)

    def __post_init__(self):
        lens = {len(self.traces), len(self.avg_traces), len(self.stderrs),
                len(self.weight_counts), len(self.seeds)}
        if len(lens) != 1:
            raise ValueError("per-layer fields disagree on layer count")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if any(s < 0 for s in self.stderrs):
            raise ValueError("standard errors must be non-negative")


def batch_digest(batch: Dataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(batch.features, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(batch.labels, dtype=np.int64).tobytes())
    return h.hexdigest()


def calibration_batch(data: Dataset, n: int = CALIBRATION_SIZE) -> Dataset:
    """The deterministic slice used for trace estimation: the first n rows."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    return data.take(np.arange(min(n, len(data))))


def layer_sensitivities(model: MLPModel, batch: Dataset, k: int = 64,
                        seed: int = 0) -> TraceReport:
    """Hutchinson traces for every layer's weight matrix, in layer order.

    Layer j uses probe seed seed + j so adding layers never perturbs earlier
    estimates.  Deterministic in (model, batch, k, seed).
    """
    traces = []
    stderrs = []
    counts = []
    seeds = []
    for j in range(model.n_layers):
        est, se = hutchinson_trace(model, batch, j, k=k, seed=seed + j)
        traces.append(est)
        stderrs.append(se)
        counts.append(nn.layer_weight_count(model, j))
        seeds.append(seed + j)
    return TraceReport(
        traces=traces,
        avg_traces=[t / c for t, c in zip(traces, counts)],
        stderrs=stderrs,
        weight_counts=counts,
        k=k,
        seeds=seeds,
        batch_sha256=batch_digest(batch),
        sizes=list(model.sizes),
    )


def save_trace_report(report: TraceReport, path: str) -> None:
    from .ioutil import write_json_atomic

    write_json_atomic(path, {
        "format": "hessquant-traces",
        "version": 1,
        "traces": report.traces,
        "avg_traces": report.avg_traces,
        "stderrs": report.stderrs,
        "weight_counts": report.weight_counts,
        "k": report.k,
        "seeds": report.seeds,
        "batch_sha256": report.batch_sha256,
        "sizes": report.sizes,
    })


def load_trace_report(path: str) -> TraceReport:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "hessquant-traces":
        raise ValueError(f"{path}: not a trace report file")
    return TraceReport(
        traces=[float(t) for t in doc["traces"]],
        avg_traces=[float(t) for t in doc["avg_traces"]],
        stderrs=[float(t) for t in doc["stderrs"]],
        weight_counts=[int(c) for c in doc["weight_counts"]],
        k=int(doc["k"]),
        seeds=[int(s) for s in doc["seeds"]],
        batch_sha256=doc["batch_sha256"],
        sizes=[int(s) for s in doc.get("sizes", [])],
    )
