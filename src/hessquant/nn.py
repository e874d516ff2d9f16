"""Minimal dense-network engine: forward, manual backprop, Adam training,
and finite-difference Hessian-vector products.

One mini-batch loop, `_train_loop`, serves float training (`train`) and
quantization-aware training (`quantize.qat_train`), which plug in their own
gradient step.  It keeps the parameters in one flat buffer that the layers
view and updates it in place.

Everything runs on float64 numpy arrays.  Matrices are C-order with shape
(fan_in, fan_out); a model's trainable parameters flatten canonically as
layer 0 weights (row-major), layer 0 bias, layer 1 weights, ... which every
gradient and checkpoint in the package relies on.  A model is always ReLU
hidden layers and a softmax head, so a layer is just its weights and bias;
batch norm is folded into the preceding dense layer before a model gets here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset

class ShapeError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite; carries the epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}: non-finite loss")
        self.epoch = epoch


@dataclass
class DenseLayer:
    weights: np.ndarray
    bias: np.ndarray

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


@dataclass
class MLPModel:
    """Dense layers with ReLU between them and a softmax on the last."""
    layers: list[DenseLayer]

    @property
    def sizes(self) -> list[int]:
        return [self.layers[0].fan_in] + [l.fan_out for l in self.layers]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return forward(self, x)

    def copy(self) -> "MLPModel":
        return MLPModel(layers=[DenseLayer(weights=l.weights.copy(), bias=l.bias.copy())
                                for l in self.layers])


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    l1: float = 0.0
    seed: int = 0
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)


def mlp(sizes: list[int], seed: int = 0) -> MLPModel:
    """Build a ReLU MLP with the given layer widths, e.g. [16, 64, 32, 32, 5].

    Hidden weights use He initialization, the output layer uses 1/fan_in
    scaling; biases start at zero.  Deterministic in the seed.
    """
    if len(sizes) < 2:
        raise ValueError("need at least input and output widths")
    if any(int(s) < 1 for s in sizes):
        raise ValueError("layer widths must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        last = i == len(sizes) - 2
        scale = math.sqrt(1.0 / fan_in) if last else math.sqrt(2.0 / fan_in)
        w = rng.standard_normal((fan_in, fan_out)) * scale
        layers.append(DenseLayer(weights=w, bias=np.zeros(fan_out)))
    return MLPModel(layers=layers)


def check_matrix(x: np.ndarray, cols: int | None = None, name: str = "input") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got shape {x.shape}")
    if cols is not None and x.shape[1] != cols:
        raise ShapeError(f"{name} must have {cols} columns, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _affine(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """h @ w + b with one temporary instead of two."""
    u = h @ w
    u += b
    return u


def forward_logits(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Pre-softmax outputs, with ReLU after every hidden layer."""
    h = check_matrix(x, cols=model.layers[0].fan_in)
    for i, layer in enumerate(model.layers):
        h = _affine(h, layer.weights, layer.bias)
        if i < model.n_layers - 1:
            np.maximum(h, 0.0, out=h)
    return h


def forward(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities (rows sum to 1)."""
    return softmax(forward_logits(model, x))


def _objective(logits: np.ndarray, labels: np.ndarray, model: MLPModel, l1: float) -> float:
    """Mean cross entropy of the logits plus l1 times the weight L1 norms."""
    zmax = logits.max(axis=1)
    lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
    ce = float(np.mean(lse - logits[np.arange(len(labels)), labels]))
    return ce + l1 * sum(float(np.abs(l.weights).sum()) for l in model.layers)


def loss(model: MLPModel, batch: Dataset, l1: float = 0.0) -> float:
    """Mean cross-entropy plus l1 times the sum of weight-matrix L1 norms."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    return _objective(forward_logits(model, batch.features), batch.labels, model, l1)


def parameter_vector(model: MLPModel) -> np.ndarray:
    """Canonical flattening: per layer, weights row-major then bias."""
    parts = []
    for layer in model.layers:
        parts.append(layer.weights.ravel())
        parts.append(layer.bias)
    return np.concatenate(parts)


def _view_model(model: MLPModel, flat: np.ndarray) -> MLPModel:
    """A model like `model` whose weights and biases are views into a flat
    vector in the canonical order."""
    layers = []
    off = 0
    for layer in model.layers:
        nw, nb = layer.weights.size, layer.bias.size
        layers.append(DenseLayer(weights=flat[off:off + nw].reshape(layer.weights.shape),
                                 bias=flat[off + nw:off + nw + nb]))
        off += nw + nb
    if off != flat.size:
        raise ShapeError(f"parameter vector has {flat.size} entries, model needs {off}")
    return MLPModel(layers=layers)


def replace_parameters(model: MLPModel, theta: np.ndarray) -> MLPModel:
    """A model copy with parameters taken from a canonical flat vector."""
    return _view_model(model, theta).copy()


def _forward_caches(model: MLPModel, x: np.ndarray):
    """Layer inputs (then the logits) and each hidden layer's ReLU mask, which
    backprop applies to its output gradient (None for the last layer)."""
    hs = [x]
    gates = []
    for i, layer in enumerate(model.layers):
        u = _affine(hs[-1], layer.weights, layer.bias)
        gate = None
        if i < model.n_layers - 1:
            gate = u > 0
            np.maximum(u, 0.0, out=u)
        gates.append(gate)
        hs.append(u)
    return hs, gates


def _backward(logits: np.ndarray, labels: np.ndarray, hs, gates, model: MLPModel, l1: float,
              grads: MLPModel, mats=None) -> None:
    """Back-propagate the mean softmax cross entropy of the logits into
    `grads`, a model-shaped set of arrays.  hs[i] is layer i's input, gates[i]
    multiplies the gradient at its output (None: unchanged), and mats[i] is
    the matrix the forward pass used when it is not the weights (under fake
    quantization); the L1 subgradient takes the weights' sign."""
    dz = softmax(logits)
    dz[np.arange(len(labels)), labels] -= 1.0
    dz /= len(labels)
    for i in reversed(range(model.n_layers)):
        if gates[i] is not None:
            dz = dz * gates[i]
        gw = grads.layers[i].weights
        np.matmul(hs[i].T, dz, out=gw)
        if l1 != 0.0:
            gw += l1 * np.sign(model.layers[i].weights)
        np.sum(dz, axis=0, out=grads.layers[i].bias)
        if i > 0:
            dz = dz @ (model.layers[i].weights if mats is None else mats[i]).T


def _backprop(model: MLPModel, x: np.ndarray, labels: np.ndarray, l1: float,
              grads: MLPModel | None = None) -> MLPModel:
    """Per-layer gradient of the loss on (x, labels), into `grads` if given."""
    hs, gates = _forward_caches(model, x)
    grads = model.copy() if grads is None else grads
    _backward(hs[-1], labels, hs, gates, model, l1, grads)
    return grads


def grad(model: MLPModel, batch: Dataset, l1: float = 0.0) -> np.ndarray:
    """Flat gradient in the canonical parameter order.

    The L1 term uses the sign subgradient, taken as 0 at exactly 0.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    x = check_matrix(batch.features, cols=model.layers[0].fan_in)
    return parameter_vector(_backprop(model, x, batch.labels, l1))


def fd_hvp(grad_fn, theta: np.ndarray, v: np.ndarray, eps_scale: float = 1e-4) -> np.ndarray:
    """Hessian-vector product by central differences of a gradient function.

    The step is eps_scale * max(1, ||theta||) / max(||v||, 1e-12), so probe
    vectors of any magnitude see a comparable relative perturbation.
    """
    theta = np.asarray(theta, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != theta.shape:
        raise ShapeError(f"v has shape {v.shape}, parameters have {theta.shape}")
    eps = eps_scale * max(1.0, float(np.linalg.norm(theta))) / max(float(np.linalg.norm(v)), 1e-12)
    gp = grad_fn(theta + eps * v)
    gm = grad_fn(theta - eps * v)
    return (gp - gm) / (2.0 * eps)


def layer_weight_count(model: MLPModel, layer: int) -> int:
    return model.layers[layer].weights.size


def hvp(model: MLPModel, batch: Dataset, layer: int, v: np.ndarray,
        eps_scale: float = 1e-4) -> np.ndarray:
    """Product of the layer-restricted weight Hessian with v.

    The Hessian block covers only the chosen layer's weight matrix (biases
    and other layers stay fixed), and the L1 penalty is excluded since its
    curvature is zero almost everywhere.  Uses central finite differences of
    the data-loss gradient.
    """
    if not 0 <= layer < model.n_layers:
        raise IndexError(f"layer {layer} out of range")
    if len(batch) == 0:
        raise ValueError("empty batch")
    w0 = model.layers[layer].weights
    v = np.asarray(v, dtype=np.float64)
    if v.size != w0.size:
        raise ShapeError(f"v must have {w0.size} entries for layer {layer}, got {v.size}")

    x = check_matrix(batch.features, cols=model.layers[0].fan_in)

    def layer_grad(theta_w: np.ndarray) -> np.ndarray:
        trial = model.copy()
        trial.layers[layer].weights = theta_w.reshape(w0.shape)
        return _backprop(trial, x, batch.labels, 0.0).layers[layer].weights.ravel()

    return fd_hvp(layer_grad, w0.ravel(), v, eps_scale=eps_scale)


def _update(theta: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
            cfg: TrainConfig) -> None:
    """Optimizer step t (Adam, or SGD) on theta and the moments, in place; each
    element sees the operations of the textbook form in its order, bit for bit."""
    if cfg.optimizer == "sgd":
        theta -= cfg.learning_rate * g
        return
    m *= cfg.beta1
    m += (1 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1 - cfg.beta2) * g * g
    denom = np.sqrt(v / (1 - cfg.beta2 ** t))
    denom += cfg.adam_eps
    theta -= cfg.learning_rate * (m / (1 - cfg.beta1 ** t)) / denom


def _train_loop(model: MLPModel, data: Dataset, cfg: TrainConfig, step, logits, predictor,
                val: Dataset | None = None, inputs: np.ndarray | None = None,
                max_loss: float = math.inf) -> tuple[MLPModel, TrainHistory]:
    """The mini-batch loop shared by float and quantization-aware training.

    `params` is a model of views into one flat parameter buffer and `grads`
    the same over a gradient buffer.  Each step hands a shuffled batch of
    rows of `inputs` (the training features unless given, checked once) to
    step(params, epoch, x, y, grads), which overwrites every gradient, then
    updates the buffer in place.  Each epoch records the loss of
    logits(params, inputs) and the accuracy of predictor(params) on `val`
    (else the training data); a loss that is not finite or exceeds max_loss
    raises TrainingDiverged.  The returned model owns its arrays.
    """
    if len(data) == 0:
        raise ValueError("empty training set")
    x = check_matrix(data.features if inputs is None else inputs,
                     cols=model.layers[0].fan_in, name="training input")
    y = data.labels
    rng = np.random.default_rng(cfg.seed)
    theta = parameter_vector(model)
    g, m, v = np.empty_like(theta), np.zeros_like(theta), np.zeros_like(theta)
    params, grads = _view_model(model, theta), _view_model(model, g)
    eval_set = val if val is not None else data
    history = TrainHistory()
    t = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            step(params, epoch, x[idx], y[idx], grads)
            t += 1
            _update(theta, g, m, v, t, cfg)
        epoch_loss = _objective(logits(params, x), y, params, cfg.l1)
        if not math.isfinite(epoch_loss) or epoch_loss > max_loss:
            raise TrainingDiverged(epoch)
        history.train_loss.append(epoch_loss)
        history.val_accuracy.append(accuracy(predictor(params), eval_set))
    return replace_parameters(params, theta), history


def train(model: MLPModel, data: Dataset, cfg: TrainConfig,
          val: Dataset | None = None) -> tuple[MLPModel, TrainHistory]:
    """Mini-batch training; bit-for-bit reproducible for a fixed seed.

    Shuffling, batching, and optimizer state all derive from cfg.seed.  The
    history records the full-set training loss after each epoch and accuracy
    on `val` (on the training data itself when no validation set is given).
    Raises TrainingDiverged when the epoch loss stops being finite or passes
    1e8 (the log-sum-exp keeps cross entropy finite even for absurd logits).
    """
    def step(params, epoch, x, y, grads):
        _backprop(params, x, y, cfg.l1, grads)

    return _train_loop(model, data, cfg, step, forward_logits, lambda params: params,
                       val=val, max_loss=1e8)


def accuracy(model, data: Dataset) -> float:
    """Fraction of argmax-correct predictions; model is anything with
    predict_proba (float model, fake-quant wrapper, or lowered model)."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    probs = model.predict_proba(data.features)
    return float(np.mean(probs.argmax(axis=1) == data.labels))


def sparsity(model: MLPModel, eps: float = 1e-6) -> list[float]:
    """Per-layer fraction of weight entries with |w| <= eps."""
    return [float(np.mean(np.abs(l.weights) <= eps)) for l in model.layers]


def _activation_names(n_layers: int) -> list[str]:
    """The fixed `activations` field of a checkpoint."""
    return ["relu"] * (n_layers - 1) + ["softmax"]


def save_model(model: MLPModel, path: str, mean: np.ndarray | None = None,
               std: np.ndarray | None = None) -> None:
    """JSON checkpoint: layer widths, activations, flat parameters, and the
    standardization statistics the model expects its inputs to be in."""
    from .ioutil import write_json_atomic

    doc = {
        "format": "hessquant-model",
        "version": 1,
        "sizes": model.sizes,
        "activations": _activation_names(model.n_layers),
        "params": [float(v) for v in parameter_vector(model)],
        "standardization": None if mean is None else {
            "mean": [float(v) for v in mean],
            "std": [float(v) for v in std],
        },
    }
    write_json_atomic(path, doc)


def load_model(path: str) -> tuple[MLPModel, np.ndarray | None, np.ndarray | None]:
    """A save_model checkpoint.  A malformed one, or one whose `activations`
    are not the fixed list, raises ValueError, KeyError or TypeError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "hessquant-model":
        raise ValueError(f"{path}: not a model checkpoint")
    skeleton = mlp(doc["sizes"], seed=0)
    want = _activation_names(skeleton.n_layers)
    if doc["activations"] != want:
        raise ValueError(f"{path}: activations must be {want}, got {doc['activations']}")
    model = replace_parameters(skeleton, np.array(doc["params"], dtype=np.float64))
    stats = doc.get("standardization")
    if stats is None:
        return model, None, None
    mean, std = np.array(stats["mean"]), np.array(stats["std"])
    if mean.shape != (model.layers[0].fan_in,) or std.shape != mean.shape:
        raise ValueError(f"{path}: standardization does not match the input width")
    return model, mean, std
