"""Exact Hessian traces of each layer's weights, for sensitivity ranking.

In a ReLU network a layer's weights enter the logits linearly almost
everywhere, so the loss Hessian over them equals its Gauss-Newton form
(1/N) sum_n J_n^T A_n J_n with A_n = diag(p_n) - p_n p_n^T, and its trace is
(1/N) sum_n ||h_n||^2 tr(G_n^T A_n G_n), where h_n is the layer's input and
G_n = dz_n/du_l the logits' Jacobian at its pre-activation.  HAWQ-V2 ranks
layers by that trace.  Biases, other layers and the L1 penalty (curvature
zero almost everywhere) stay outside the block.  Hutchinson's estimator on
the exact block product `layer_hvp` is an independent check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import Dataset
from .ioutil import read_document, typed, write_json_atomic
from .nn import MLPModel

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


def _caches(model: MLPModel, batch: Dataset, layer: int = 0):
    """Layer inputs, ReLU masks and softmax outputs of one forward pass."""
    if not 0 <= layer < model.n_layers:
        raise IndexError(f"layer {layer} out of range")
    if len(batch) == 0:
        raise ValueError("empty batch")
    x = nn.check_matrix(batch.features, cols=model.layers[0].fan_in)
    hs, gates = nn._forward_caches(model, x)
    return hs, gates, nn.softmax(hs[-1])


def layer_hvp(model: MLPModel, batch: Dataset, layer: int):
    """v -> H v over one layer's weights (v flat, row-major), exactly: a
    forward JVP from the layer through the ReLU masks to the logits, then
    A_n / N, then a VJP back.  One forward pass here serves every product."""
    hs, gates, p = _caches(model, batch, layer)
    h, shape = hs[layer], model.layers[layer].weights.shape
    upper = range(layer + 1, model.n_layers)

    def product(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.size != h.shape[1] * shape[1]:
            raise nn.ShapeError(f"v must have {h.shape[1] * shape[1]} entries for "
                                f"layer {layer}, got {v.size}")
        dz = h @ v.reshape(shape)
        for i in upper:
            dz *= gates[i - 1]
            dz = dz @ model.layers[i].weights
        r = dz - np.sum(p * dz, axis=1, keepdims=True)
        r *= p
        r /= len(h)
        for i in reversed(upper):
            r = r @ model.layers[i].weights.T
            r *= gates[i - 1]
        return (h.T @ r).ravel()

    return product


def hutchinson_trace(model: MLPModel, batch: Dataset, layer: int,
                     k: int = 64, seed: int = 0) -> tuple[float, float]:
    """(estimate, stderr) of the Hessian trace over one layer's weights."""
    hvp = layer_hvp(model, batch, layer)
    return hutchinson_estimate(hvp, model.layers[layer].weights.size, k, seed)[:2]


@dataclass
class TraceReport:
    """Per-layer Hessian traces plus enough metadata to reproduce them:
    the layer sizes of the model and the digest of the batch they were
    taken on."""
    traces: list[float]
    batch_sha256: str
    sizes: list[int]

    def __post_init__(self):
        if len(self.sizes) != len(self.traces) + 1:
            raise ValueError(f"{len(self.traces)} traces need {len(self.traces) + 1} "
                             f"sizes, got {len(self.sizes)}")

    @property
    def weight_counts(self) -> list[int]:
        """Each layer's fan-in times fan-out."""
        return [a * b for a, b in zip(self.sizes, self.sizes[1:])]

    @property
    def avg_traces(self) -> list[float]:
        """trace / weight count, the mean-eigenvalue convention the allocator
        consumes."""
        return [t / c for t, c in zip(self.traces, self.weight_counts)]


def batch_digest(batch: Dataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(batch.features, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(batch.labels, dtype=np.int64).tobytes())
    return h.hexdigest()


def calibration_batch(data: Dataset, n: int = CALIBRATION_SIZE) -> Dataset:
    """The deterministic slice used for trace estimation: the first n rows."""
    if n < 1:
        raise ValueError(f"calibration batch needs at least 1 row, got {n}")
    if len(data) == 0:
        raise ValueError("empty dataset")
    return data.take(np.arange(min(n, len(data))))


def layer_sensitivities(model: MLPModel, batch: Dataset) -> TraceReport:
    """Exact Hessian traces for every layer's weight matrix, in layer order.
    Per row, tr(G^T A G) is sum_c p_c ||g_c||^2 - ||sum_c p_c g_c||^2 with
    g_c = dz_c/du_l: one backward pass per class from the one-hot logit
    gradient, and one from p."""
    hs, gates, p = _caches(model, batch)

    def row_sq_norms(g: np.ndarray) -> list:
        norms = [None] * model.n_layers
        for i in reversed(range(model.n_layers)):
            if gates[i] is not None:
                g *= gates[i]
            norms[i] = np.einsum("ij,ij->i", g, g)
            if i > 0:
                g = g @ model.layers[i].weights.T
        return norms

    per_row = [-sq for sq in row_sq_norms(p.copy())]
    for c in range(p.shape[1]):
        g = np.zeros_like(p)
        g[:, c] = 1.0
        for i, sq in enumerate(row_sq_norms(g)):
            per_row[i] += p[:, c] * sq
    traces = [float(np.mean(np.einsum("ij,ij->i", h, h) * r)) for h, r in zip(hs, per_row)]
    return TraceReport(traces=traces, batch_sha256=batch_digest(batch), sizes=list(model.sizes))


def exact_trace(model: MLPModel, batch: Dataset, layer: int) -> float:
    """The closed-form Hessian trace over one layer's weights."""
    if not 0 <= layer < model.n_layers:
        raise IndexError(f"layer {layer} out of range")
    return layer_sensitivities(model, batch).traces[layer]


def save_trace_report(report: TraceReport, path: str) -> None:
    write_json_atomic(path, {
        "format": "hessquant-traces",
        "version": 3,
        "traces": report.traces,
        "batch_sha256": report.batch_sha256,
        "sizes": report.sizes,
    })


def load_trace_report(path: str) -> TraceReport:
    """A save_trace_report file.  A field not of its JSON type raises
    ValueError.  Version 1 and 2 files, which also stored the averages and
    weight counts, are refused: rerun trace."""
    doc = read_document(path, "hessquant-traces", (3,))
    return TraceReport(
        traces=typed(doc["traces"], [float], f"{path}: traces"),
        batch_sha256=typed(doc["batch_sha256"], str, f"{path}: batch_sha256"),
        sizes=typed(doc["sizes"], [int], f"{path}: sizes"),
    )
