"""Minimal dense-network engine: forward pass, manual backprop and Adam
training.  `hessian` builds the exact layer curvature on the forward caches.

One mini-batch loop, `_train_loop`, serves float training (`train`) and
quantization-aware training (`quantize.qat_train_many`), which plug in their
own gradient step.  It trains a stack of K same-shape models in lockstep:
their parameters live in one (K, P) buffer that the layers view with a
leading member axis, and the buffer is updated in place.  The kernels
(`_affine`, `softmax`, `_forward_caches`, `_backward`) work on one model's
2-d arrays and on such stacks alike, and each stacked product equals the
member's own product bit for bit, so a member trains exactly as it would
alone; `train` is a stack of one.  The stack keeps its members for the
whole run: a member fails only at an epoch end, and its rows then keep
running unread.

Everything runs on float64 numpy arrays.  Matrices are C-order with shape
(fan_in, fan_out); a model's trainable parameters flatten canonically as
layer 0 weights (row-major), layer 0 bias, layer 1 weights, ... which every
gradient and checkpoint in the package relies on.  A model is always ReLU
hidden layers and a softmax head, so a layer is just its weights and bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset
from .ioutil import read_document, write_json_atomic

# Adam's moment decay rates and the epsilon of its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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

    def _logits(self, x: np.ndarray) -> np.ndarray:
        return forward_logits(self, x)

    def copy(self) -> "MLPModel":
        return MLPModel(layers=[DenseLayer(weights=l.weights.copy(), bias=l.bias.copy())
                                for l in self.layers])


@dataclass
class TrainConfig:
    """One mini-batch Adam training, float or quantization-aware."""
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    l1: float = 0.0
    seed: int = 0

    def __post_init__(self):
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


def check_finite(x, name: str) -> np.ndarray:
    """x as a float64 array; ValueError naming it when an entry is not finite."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x


def check_matrix(x: np.ndarray, cols: int | None = None, name: str = "input") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got shape {x.shape}")
    if cols is not None and x.shape[1] != cols:
        raise ShapeError(f"{name} must have {cols} columns, got {x.shape[1]}")
    return check_finite(x, name)


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _affine(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """h @ w + b with one temporary instead of two; b is (fan_out,) or, for
    a stack, (K, fan_out)."""
    u = h @ w
    u += b[..., None, :]
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
    vector in the canonical order, or into each row of a (K, P) stack of
    them, which gives the layers a leading member axis."""
    layers = []
    off = 0
    lead = flat.shape[:-1]
    for layer in model.layers:
        nw, nb = layer.weights.size, layer.bias.size
        layers.append(DenseLayer(
            weights=flat[..., off:off + nw].reshape(lead + layer.weights.shape),
            bias=flat[..., off + nw:off + nw + nb]))
        off += nw + nb
    if off != flat.shape[-1]:
        raise ShapeError(f"parameter vector has {flat.shape[-1]} entries, model needs {off}")
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
    quantization); the L1 subgradient takes the weights' sign.  For a stack,
    labels is (K, B) and every array carries the leading member axis."""
    dz = softmax(logits)  # a fresh C-order array, so the reshape below is a view
    dz.reshape(-1, dz.shape[-1])[np.arange(labels.size), labels.ravel()] -= 1.0
    dz /= labels.shape[-1]
    for i in reversed(range(model.n_layers)):
        if gates[i] is not None:
            np.multiply(dz, gates[i], out=dz)
        gw = grads.layers[i].weights
        np.matmul(hs[i].swapaxes(-1, -2), dz, out=gw)
        if l1 != 0.0:
            gw += l1 * np.sign(model.layers[i].weights)
        np.sum(dz, axis=-2, out=grads.layers[i].bias)
        if i > 0:
            dz = dz @ (model.layers[i].weights if mats is None else mats[i]).swapaxes(-1, -2)


def _backprop(model: MLPModel, x: np.ndarray, labels: np.ndarray, l1: float,
              grads: MLPModel | None = None) -> MLPModel:
    """Per-layer gradient of the loss on (x, labels), into `grads` if given."""
    hs, gates = _forward_caches(model, x)
    grads = model.copy() if grads is None else grads
    _backward(hs[-1], labels, hs, gates, model, l1, grads)
    return grads


def _update(theta: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
            cfg: TrainConfig) -> None:
    """Adam step t on theta and the moments, in place; each element sees the
    operations of the textbook form in its order, bit for bit.  It works in
    two scratch arrays, which keeps a wide stack's step cheap."""
    s = np.multiply(1 - ADAM_BETA1, g)
    m *= ADAM_BETA1
    m += s
    np.multiply(1 - ADAM_BETA2, g, out=s)
    s *= g
    v *= ADAM_BETA2
    v += s
    denom = np.divide(v, 1 - ADAM_BETA2 ** t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1 - ADAM_BETA1 ** t, out=s)
    np.multiply(cfg.learning_rate, s, out=s)
    s /= denom
    theta -= s


def _check_stack(models: list[MLPModel], cfgs: list[TrainConfig]) -> None:
    """Models trained as one stack need the same widths and every training
    setting but the seed in common."""
    if not models or len(cfgs) != len(models):
        raise ValueError(f"a stack needs one config per model and at least one model, "
                         f"got {len(models)} models and {len(cfgs)} configs")
    if any(m.sizes != models[0].sizes for m in models):
        raise ValueError("stacked models must have the same layer widths")
    differ = [f.name for f in fields(TrainConfig)
              if f.name != "seed" and len({getattr(c, f.name) for c in cfgs}) > 1]
    if differ:
        raise ValueError(f"stacked runs may differ only in seed, not in {', '.join(differ)}")


def _train_loop(models: list[MLPModel], data: Dataset, cfgs: list[TrainConfig], step,
                predictor, val: Dataset | None = None, x: np.ndarray | None = None,
                max_loss: float = math.inf) -> list:
    """The mini-batch loop shared by float and quantization-aware training;
    it trains a stack of same-shape models in lockstep.  The caller checks
    the stack (`_check_stack`) and that the training set is not empty.

    Member k starts from models[k], shuffles with default_rng(cfgs[k].seed)
    and reads rows of the training input x (else of the training features),
    which no member copies.  `params` and `grads` are models of views into
    the stack's (K, P) parameter and gradient buffers, with layers
    (K, fan_in, fan_out) and (K, fan_out).  Each step hands the (K, B, n)
    batches and (K, B) labels to step(params, epoch, x, y, grads), which
    overwrites every gradient, then the buffer is updated in place.  The
    stack keeps its members for the whole run.

    Each epoch ends per member on 2-d views, as one run would, with the
    model predictor(params_k, k): the loss of its `_logits(x)`, which raises
    TrainingDiverged when it is not finite or exceeds max_loss, and its
    accuracy on `val` (else the training data).  This is the one place a
    member fails: when its epoch end raises TrainingDiverged or a ValueError,
    that exception is its result, and its rows keep running unread.  The
    loop stops once every member has failed.  Returns per model (model,
    history), the model owning its arrays, or the exception that ended its
    run.
    """
    template, cfg, n = models[0], cfgs[0], len(data)
    x = check_matrix(data.features if x is None else x, cols=template.layers[0].fan_in,
                     name="training input")
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    theta = np.stack([parameter_vector(model) for model in models])
    g, m, v = np.empty_like(theta), np.zeros_like(theta), np.zeros_like(theta)
    params, grads = _view_model(template, theta), _view_model(template, g)
    results: list = [None] * len(models)
    histories = [TrainHistory() for _ in models]
    eval_set = val if val is not None else data
    t = 0
    for epoch in range(cfg.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        # a failed member's rows run on unread, and the epoch end checks the
        # others for non-finite values, so a floating-point warning here would
        # only end the whole stack where warnings are errors
        with np.errstate(all="ignore"):
            for start in range(0, n, cfg.batch_size):
                idx = order[:, start:start + cfg.batch_size]
                step(params, epoch, x[idx], data.labels[idx], grads)
                t += 1
                _update(theta, g, m, v, t, cfg)
        for k, result in enumerate(results):
            if result is not None:
                continue
            member = _view_model(template, theta[k])
            try:
                predicted = predictor(member, k)
                epoch_loss = _objective(predicted._logits(x), data.labels, member, cfg.l1)
                if not math.isfinite(epoch_loss) or epoch_loss > max_loss:
                    raise TrainingDiverged(epoch)
                histories[k].train_loss.append(epoch_loss)
                histories[k].val_accuracy.append(accuracy(predicted, eval_set))
            except (TrainingDiverged, ValueError) as exc:
                results[k] = exc
        if all(result is not None for result in results):
            break
    return [(replace_parameters(template, theta[k]), histories[k]) if result is None
            else result for k, result in enumerate(results)]


def _only(results: list):
    """The result of a stack of one; raises the exception that ended its run."""
    [result] = results
    if isinstance(result, Exception):
        raise result
    return result


def train(model: MLPModel, data: Dataset, cfg: TrainConfig,
          val: Dataset | None = None) -> tuple[MLPModel, TrainHistory]:
    """Mini-batch training; bit-for-bit reproducible for a fixed seed.

    Shuffling, batching, and optimizer state all derive from cfg.seed.  The
    history records the full-set training loss after each epoch and accuracy
    on `val` (on the training data itself when no validation set is given).
    Raises TrainingDiverged when the epoch loss stops being finite or passes
    1e8 (the log-sum-exp keeps cross entropy finite even for absurd logits).
    """
    if len(data) == 0:
        raise ValueError("empty training set")

    def step(params, epoch, x, y, grads):
        _backprop(params, x, y, cfg.l1, grads)

    return _only(_train_loop([model], data, [cfg], step, lambda p, k: p, val=val,
                             max_loss=1e8))


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
    """A save_model checkpoint.  A malformed one, one whose `activations`
    are not the fixed list or whose `params` are not a flat list, or one with
    a parameter or standardization statistic that is not finite raises
    ValueError, KeyError or TypeError."""
    doc = read_document(path, "hessquant-model", (1,))
    skeleton = mlp(doc["sizes"], seed=0)
    want = _activation_names(skeleton.n_layers)
    if doc["activations"] != want:
        raise ValueError(f"{path}: activations must be {want}, got {doc['activations']}")
    params = check_finite(doc["params"], "params")
    if params.ndim != 1:
        raise ValueError(f"{path}: params must be a flat list of numbers")
    model = replace_parameters(skeleton, params)
    stats = doc.get("standardization")
    if stats is None:
        return model, None, None
    mean, std = (check_finite(stats[k], f"standardization {k}") for k in ("mean", "std"))
    if mean.shape != (model.layers[0].fan_in,) or std.shape != mean.shape:
        raise ValueError(f"{path}: standardization does not match the input width")
    return model, mean, std
