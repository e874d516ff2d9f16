"""The shared training loop against reference copies of the two loops it replaced.

`ref_train` and `ref_qat_train` below are the float and quantization-aware
training loops as they stood before `nn.train` and `quantize.qat_train` were
folded into `nn._train_loop`, copied together with the private helpers they
called, for models of ReLU hidden layers and a softmax head.  The QAT
reference observes its activation ranges inside the forward that quantizes
with them: each hidden layer's range takes the EMA step with the batch's
post-ReLU maximum just before that output is quantized.  Every comparison
is exact: the new loop must reproduce their parameters, activation ranges,
EMA counts and histories bit for bit.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pytest

from hessquant import data, nn
from hessquant import quantize as qz
from hessquant.data import Dataset
from hessquant.nn import MLPModel, TrainConfig, TrainHistory, TrainingDiverged
from hessquant.quantize import QuantSchema, calibrate, fake_quant


# --- reference float training -------------------------------------------------

def ref_parameter_vector(model: MLPModel) -> np.ndarray:
    parts = []
    for layer in model.layers:
        parts.append(layer.weights.ravel())
        parts.append(layer.bias)
    return np.concatenate(parts)


def ref_replace_parameters(model: MLPModel, theta: np.ndarray) -> MLPModel:
    layers = []
    off = 0
    for layer in model.layers:
        nw = layer.weights.size
        w = theta[off:off + nw].reshape(layer.weights.shape).copy()
        off += nw
        b = theta[off:off + layer.bias.size].copy()
        off += layer.bias.size
        layers.append(nn.DenseLayer(weights=w, bias=b))
    return MLPModel(layers=layers)


def ref_forward_caches(model: MLPModel, x: np.ndarray):
    hs = [x]
    masks = []
    h = x
    for i, layer in enumerate(model.layers):
        u = h @ layer.weights + layer.bias
        if i < model.n_layers - 1:
            masks.append(u > 0)
            h = np.maximum(u, 0.0)
        else:
            masks.append(None)
            h = u
        hs.append(h)
    return hs, masks


def ref_backprop(model: MLPModel, batch: Dataset, l1: float, caches=None):
    x = nn.check_matrix(batch.features, cols=model.layers[0].fan_in)
    n = len(batch)
    hs, masks = caches if caches is not None else ref_forward_caches(model, x)
    probs = nn.softmax(hs[-1])
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), batch.labels] = 1.0
    dz = (probs - onehot) / n

    grads = [None] * model.n_layers
    for i in reversed(range(model.n_layers)):
        layer = model.layers[i]
        if masks[i] is not None:
            dz = dz * masks[i]
        dw = hs[i].T @ dz
        if l1 != 0.0:
            dw = dw + l1 * np.sign(layer.weights)
        db = dz.sum(axis=0)
        grads[i] = (dw, db)
        if i > 0:
            dz = dz @ layer.weights.T
    return grads


def ref_grad(model: MLPModel, batch: Dataset, l1: float = 0.0) -> np.ndarray:
    if len(batch) == 0:
        raise ValueError("empty batch")
    parts = []
    for dw, db in ref_backprop(model, batch, l1):
        parts.append(dw.ravel())
        parts.append(db)
    return np.concatenate(parts)


def ref_loss(model: MLPModel, batch: Dataset, l1: float = 0.0) -> float:
    if len(batch) == 0:
        raise ValueError("empty batch")
    logits = nn.forward_logits(model, batch.features)
    zmax = logits.max(axis=1)
    lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
    ce = float(np.mean(lse - logits[np.arange(len(batch)), batch.labels]))
    penalty = l1 * sum(float(np.abs(l.weights).sum()) for l in model.layers)
    return ce + penalty


def ref_adam_step(theta, g, state, cfg: TrainConfig):
    m, v, t = state
    t += 1
    m = nn.ADAM_BETA1 * m + (1 - nn.ADAM_BETA1) * g
    v = nn.ADAM_BETA2 * v + (1 - nn.ADAM_BETA2) * g * g
    mhat = m / (1 - nn.ADAM_BETA1 ** t)
    vhat = v / (1 - nn.ADAM_BETA2 ** t)
    theta = theta - cfg.learning_rate * mhat / (np.sqrt(vhat) + nn.ADAM_EPS)
    return theta, (m, v, t)


def ref_train(model: MLPModel, data: Dataset, cfg: TrainConfig,
              val: Dataset | None = None) -> tuple[MLPModel, TrainHistory]:
    if len(data) == 0:
        raise ValueError("empty training set")
    rng = np.random.default_rng(cfg.seed)
    theta = ref_parameter_vector(model)
    state = (np.zeros_like(theta), np.zeros_like(theta), 0)
    history = TrainHistory()
    current = ref_replace_parameters(model, theta)
    eval_set = val if val is not None else data
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            g = ref_grad(current, data.take(idx), l1=cfg.l1)
            theta, state = ref_adam_step(theta, g, state, cfg)
            current = ref_replace_parameters(current, theta)
        epoch_loss = ref_loss(current, data, l1=cfg.l1)
        if not math.isfinite(epoch_loss) or epoch_loss > 1e8:
            raise TrainingDiverged(epoch)
        history.train_loss.append(epoch_loss)
        history.val_accuracy.append(nn.accuracy(current, eval_set))
    return current, history


# --- reference quantization-aware training ------------------------------------

@dataclass
class RefFakeQuantModel:
    model: MLPModel
    schema: QuantSchema
    input_max: float
    act_max: list[float]
    history: TrainHistory | None = None
    ema_updates: list[int] = field(default_factory=list)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        h, _, _ = ref_fq_forward(self.model, self.schema, self.input_max, self.act_max,
                                 x, with_caches=False)
        return nn.softmax(h)


def ref_fq_weight(w: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    params = calibrate(w, bits, symmetric=True)
    return fake_quant(w, params), params.scale


def ref_fq_unsigned(a: np.ndarray, bits: int, amax: float) -> np.ndarray:
    qmax = 2 ** bits - 1
    scale = max(amax, 1e-12) / qmax
    return np.clip(np.rint(a / scale), 0, qmax) * scale


def ref_fq_signed(x: np.ndarray, bits: int, xmax: float) -> np.ndarray:
    scale = 2 * max(xmax, 1e-12) / (2 ** bits - 1)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return np.clip(np.rint(x / scale), lo, hi) * scale


def ref_observe(act_max: list[float], i: int, a: np.ndarray, seeded: bool,
                momentum: float = 0.95) -> None:
    m = float(a.max())
    act_max[i] = momentum * act_max[i] + (1 - momentum) * m if seeded else m


def ref_fq_forward(model: MLPModel, schema: QuantSchema, input_max: float,
                   act_max: list[float], x: np.ndarray, with_caches: bool = True,
                   observe: bool | None = None):
    """observe None: the ranges stay; False: each is seeded with its layer's
    maximum; True: each takes an EMA step towards it."""
    hq = ref_fq_signed(nn.check_matrix(x, cols=model.layers[0].fan_in),
                       schema.input_bits, input_max)
    hs = [hq] if with_caches else None
    relu_masks = []
    act_masks = []
    wqs = []
    for i, layer in enumerate(model.layers):
        wq, _ = ref_fq_weight(layer.weights, schema.weight_bits[i])
        wqs.append(wq)
        u = hq @ wq + layer.bias
        if i < model.n_layers - 1:
            if with_caches:
                relu_masks.append(u > 0)
            a = np.maximum(u, 0.0)
            if observe is not None:
                ref_observe(act_max, i, a, seeded=observe)
            if with_caches:
                act_masks.append(a <= act_max[i])
            hq = ref_fq_unsigned(a, schema.activation_bits[i], act_max[i])
        else:
            hq = u
        if with_caches:
            hs.append(hq)
    if not with_caches:
        return hq, None, None
    return hq, (hs, relu_masks, act_masks, wqs), None


def ref_fq_grad(model: MLPModel, schema: QuantSchema, input_max: float,
                act_max: list[float], batch: Dataset, l1: float,
                observe: bool | None = None) -> np.ndarray:
    logits, caches, _ = ref_fq_forward(model, schema, input_max, act_max, batch.features,
                                       observe=observe)
    hs, relu_masks, act_masks, wqs = caches
    n = len(batch)
    probs = nn.softmax(logits)
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), batch.labels] = 1.0
    dz = (probs - onehot) / n

    parts = [None] * (2 * model.n_layers)
    for i in reversed(range(model.n_layers)):
        layer = model.layers[i]
        if i < model.n_layers - 1:
            dz = dz * act_masks[i] * relu_masks[i]
        dw = hs[i].T @ dz
        if l1 != 0.0:
            dw = dw + l1 * np.sign(layer.weights)
        parts[2 * i] = dw.ravel()
        parts[2 * i + 1] = dz.sum(axis=0)
        if i > 0:
            dz = dz @ wqs[i].T
    return np.concatenate(parts)


def ref_fq_loss(fq: RefFakeQuantModel, batch: Dataset, l1: float) -> float:
    logits, _, _ = ref_fq_forward(fq.model, fq.schema, fq.input_max, fq.act_max,
                                  batch.features, with_caches=False)
    zmax = logits.max(axis=1)
    lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
    ce = float(np.mean(lse - logits[np.arange(len(batch)), batch.labels]))
    return ce + l1 * sum(float(np.abs(l.weights).sum()) for l in fq.model.layers)


def ref_adam(theta, g, state, cfg: TrainConfig):
    m, v, t = state
    t += 1
    m = nn.ADAM_BETA1 * m + (1 - nn.ADAM_BETA1) * g
    v = nn.ADAM_BETA2 * v + (1 - nn.ADAM_BETA2) * g * g
    mhat = m / (1 - nn.ADAM_BETA1 ** t)
    vhat = v / (1 - nn.ADAM_BETA2 ** t)
    return theta - cfg.learning_rate * mhat / (np.sqrt(vhat) + nn.ADAM_EPS), (m, v, t)


def ref_qat_train(model: MLPModel, data: Dataset, schema: QuantSchema, cfg: TrainConfig,
                  val: Dataset | None = None) -> RefFakeQuantModel:
    if len(data) == 0:
        raise ValueError("empty training set")
    if schema.n_layers != model.n_layers:
        raise ValueError(f"schema has {schema.n_layers} layers, model has {model.n_layers}")

    rng = np.random.default_rng(cfg.seed)
    theta = ref_parameter_vector(model)
    state = (np.zeros_like(theta), np.zeros_like(theta), 0)
    current = ref_replace_parameters(model, theta)
    input_max = float(np.max(np.abs(data.features)))
    act_max: list[float] = [0.0] * (model.n_layers - 1)
    seeded = False
    history = TrainHistory()
    ema_updates: list[int] = []
    eval_set = val if val is not None else data

    frozen_from = cfg.epochs - max(1, cfg.epochs // 5) if cfg.epochs >= 2 else cfg.epochs
    for epoch in range(cfg.epochs):
        updates = 0
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            batch = data.take(order[start:start + cfg.batch_size])
            observe = None
            if epoch < frozen_from:
                observe = seeded
                seeded = True
                updates += 1
            g = ref_fq_grad(current, schema, input_max, act_max, batch, cfg.l1, observe)
            theta, state = ref_adam(theta, g, state, cfg)
            current = ref_replace_parameters(current, theta)
        fq = RefFakeQuantModel(model=current, schema=schema, input_max=input_max,
                               act_max=list(act_max))
        epoch_loss = ref_fq_loss(fq, data, cfg.l1)
        if not math.isfinite(epoch_loss):
            raise TrainingDiverged(epoch)
        history.train_loss.append(epoch_loss)
        history.val_accuracy.append(nn.accuracy(fq, eval_set))
        ema_updates.append(updates)
    return RefFakeQuantModel(model=current, schema=schema, input_max=input_max,
                             act_max=list(act_max), history=history, ema_updates=ema_updates)


# --- comparisons ----------------------------------------------------------------

@pytest.fixture(scope="module")
def splits():
    ds = data.standardize(data.generate_synthetic(700, seed=31, separation=1.6))
    tr, va = data.split(ds, 0.2, 0)
    assert len(tr) % 64 != 0   # the last batch of every epoch is short
    return tr, va


def _snapshot(model: MLPModel) -> list[bytes]:
    return [a.tobytes() for l in model.layers for a in (l.weights, l.bias)]


def assert_same_model(got: MLPModel, want: MLPModel):
    assert _snapshot(got) == _snapshot(want)
    assert [l.weights.shape for l in got.layers] == [l.weights.shape for l in want.layers]


def assert_owns_arrays(model: MLPModel):
    for layer in model.layers:
        assert layer.weights.base is None and layer.bias.base is None


@pytest.mark.parametrize("lr", [pytest.param(1e-3, id="adam-0.001")])
@pytest.mark.parametrize("l1", [0.0, 1e-4])
@pytest.mark.parametrize("epochs", [1, 5])
def test_train_matches_reference_loop(splits, lr, l1, epochs):
    tr, va = splits
    cfg = TrainConfig(epochs=epochs, batch_size=64, learning_rate=lr, l1=l1, seed=7)
    start = nn.mlp([16, 12, 8, 5], seed=3)
    before = _snapshot(start)
    got, hist = nn.train(start, tr, cfg, val=va)
    want, want_hist = ref_train(nn.mlp([16, 12, 8, 5], seed=3), tr, cfg, val=va)
    assert_same_model(got, want)
    assert hist.train_loss == want_hist.train_loss
    assert hist.val_accuracy == want_hist.val_accuracy
    assert _snapshot(start) == before
    assert_owns_arrays(got)


def test_train_without_validation_set_matches_reference(splits):
    tr, _ = splits
    cfg = TrainConfig(epochs=3, batch_size=50, learning_rate=2e-3, l1=1e-4, seed=2)
    got, hist = nn.train(nn.mlp([16, 10, 5], seed=1), tr, cfg)
    want, want_hist = ref_train(nn.mlp([16, 10, 5], seed=1), tr, cfg)
    assert_same_model(got, want)
    assert (hist.train_loss, hist.val_accuracy) == (want_hist.train_loss,
                                                    want_hist.val_accuracy)


def test_grad_matches_reference(splits):
    tr, _ = splits
    m = nn.mlp([16, 12, 8, 5], seed=9)
    batch = tr.take(np.arange(40))
    for l1 in (0.0, 1e-3):
        got = nn.parameter_vector(nn._backprop(m, batch.features, batch.labels, l1))
        assert got.tobytes() == ref_grad(m, batch, l1=l1).tobytes()


@pytest.fixture(scope="module")
def pretrained(splits):
    tr, va = splits
    cfg = TrainConfig(epochs=4, batch_size=64, learning_rate=1e-3, seed=0)
    model, _ = nn.train(nn.mlp([16, 12, 8, 5], seed=0), tr, cfg, val=va)
    return model


def assert_same_fq(got, want):
    assert_same_model(got.model, want.model)
    assert got.input_max == want.input_max
    assert got.act_max == want.act_max
    assert got.ema_updates == want.ema_updates
    assert got.history.train_loss == want.history.train_loss
    assert got.history.val_accuracy == want.history.val_accuracy


@pytest.mark.parametrize("bits", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("epochs", [1, 5])
def test_qat_matches_reference_loop(splits, pretrained, bits, epochs):
    tr, va = splits
    schema = QuantSchema.coupled((bits,) * 3, input_bits=min(bits + 4, 32))
    cfg = TrainConfig(epochs=epochs, batch_size=64, learning_rate=5e-4, l1=1e-4, seed=11)
    before = _snapshot(pretrained)
    got = qz.qat_train(pretrained, tr, schema, cfg, val=va)
    want = ref_qat_train(pretrained, tr, schema, cfg, val=va)
    assert_same_fq(got, want)
    assert _snapshot(pretrained) == before
    assert_owns_arrays(got.model)
    assert got.history is not None and got.schema == schema


@pytest.mark.parametrize("lr", [pytest.param(1e-3, id="adam-0.001")])
def test_qat_without_validation_set_matches_reference(splits, pretrained, lr):
    tr, _ = splits
    schema = QuantSchema.coupled((5, 3, 6))
    cfg = TrainConfig(epochs=3, batch_size=48, learning_rate=lr, seed=4)
    assert_same_fq(qz.qat_train(pretrained, tr, schema, cfg),
                   ref_qat_train(pretrained, tr, schema, cfg))


@pytest.mark.parametrize("sizes", [[16, 12, 8, 5], [16, 12, 8, 8, 5]])
def test_an_observing_qat_step_runs_the_network_once(splits, monkeypatch, sizes):
    # the products counted when each step reaches its backward pass
    tr, _ = splits
    affine, backward = nn._affine, nn._backward
    products, at_backward = [], []
    monkeypatch.setattr(nn, "_affine", lambda *a: products.append(1) or affine(*a))
    monkeypatch.setattr(nn, "_backward",
                        lambda *a, **k: at_backward.append(len(products)) or backward(*a, **k))
    cfg = TrainConfig(epochs=1, batch_size=256, learning_rate=1e-3, seed=0)
    qz.qat_train(nn.mlp(sizes, seed=0), tr, QuantSchema.coupled((6,) * (len(sizes) - 1)), cfg)
    n_layers, steps = len(sizes) - 1, -(-len(tr) // cfg.batch_size)
    assert steps > 1
    assert at_backward == [n_layers * (k + 1) for k in range(steps)]


def test_concurrent_calls_share_no_state(splits, pretrained):
    # training calls keep all their state local, so concurrent calls cannot interfere
    tr, va = splits
    cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=1e-3, seed=6)
    schemas = [QuantSchema.coupled((b,) * 3) for b in (3, 5, 7, 9)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lambda s: qz.qat_train(pretrained, tr, s, cfg, val=va), schemas))
        floats = list(pool.map(lambda seed: nn.train(nn.mlp([16, 8, 5], seed=seed), tr, cfg),
                               (0, 1)))
    for fq, schema in zip(got, schemas):
        assert_same_fq(fq, ref_qat_train(pretrained, tr, schema, cfg, val=va))
    for (model, hist), seed in zip(floats, (0, 1)):
        want, want_hist = ref_train(nn.mlp([16, 8, 5], seed=seed), tr, cfg)
        assert_same_model(model, want)
        assert hist.train_loss == want_hist.train_loss
    a, b = nn.train(pretrained, tr, cfg)[0], nn.train(pretrained, tr, cfg)[0]
    a.layers[0].weights[0, 0] += 1.0
    assert b.layers[0].weights[0, 0] != a.layers[0].weights[0, 0]


# --- the once-per-step weight fake-quant and the divergence rules ---------------

@pytest.mark.parametrize("bits", range(2, 33))
def test_weight_fake_quant_equals_calibrate_then_fake_quant(bits):
    rng = np.random.default_rng(bits)
    mats = [rng.normal(size=(7, 5)) * s for s in (1e-3, 0.3, 1.0, 40.0)]
    mats += [np.zeros((4, 3)), rng.uniform(-1e-9, 1e-9, size=(6, 6)),
             np.array([[-1e-300, 0.0, -0.0, 2.5]])]
    for w in mats:
        want = fake_quant(w, calibrate(w, bits, symmetric=True))
        assert qz._fq_weight(w, bits).tobytes() == want.tobytes()


NON_FINITE_WEIGHTS = ([[1.0, np.nan]], [[1.0, np.inf]], [[1.7e308, 1.0]], [[5e-324]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_weight_fake_quant_rejects_non_finite_weights():
    # calibrate's error for a matrix: NaN, infinite weights, an overflowing
    # scale and one that underflows to 0
    for w in map(np.array, NON_FINITE_WEIGHTS):
        with pytest.raises(ValueError) as want:
            fake_quant(w, calibrate(w, 8, symmetric=True))
        with pytest.raises(ValueError) as got:
            qz._fq_weight(w, 8)
        assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_member_leaves_the_other_stacked_weights_alone():
    # a stack checks nothing: a non-finite member quantizes to whatever it
    # gives, and every other member to its own 2-d call, bit for bit
    rng = np.random.default_rng(5)
    for bad in map(np.array, NON_FINITE_WEIGHTS):
        others = [rng.normal(size=bad.shape) * s for s in (1e-3, 1.0, 40.0)] + [
            np.zeros(bad.shape)]
        for at in range(len(others) + 1):
            mats = others[:at] + [bad] + others[at:]
            widths = [2, 5, 8, 16, 32][:len(mats)]
            got = qz._fq_weight(np.stack(mats), widths)
            for k, (w, bits) in enumerate(zip(mats, widths)):
                if k != at:
                    assert got[k].tobytes() == qz._fq_weight(w, bits).tobytes()


def _runaway_bias_model(size: float) -> MLPModel:
    # finite parameters whose logits split by +-size: the cross entropy of every
    # row labelled 1 is about 2 * size
    m = nn.mlp([16, 8, 5], seed=0)
    m.layers[-1].bias[:2] = (size, -size)
    return m


def test_float_training_flags_a_huge_but_finite_loss(splits):
    tr, _ = splits
    cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=1e-3, seed=0)
    with pytest.raises(TrainingDiverged) as err:
        nn.train(_runaway_bias_model(1e10), tr, cfg)
    assert err.value.epoch == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_qat_flags_only_a_non_finite_loss(splits):
    tr, _ = splits
    cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=1e-3, seed=0)
    schema = QuantSchema.coupled((6, 6))
    fq = qz.qat_train(_runaway_bias_model(1e10), tr, schema, cfg)
    assert all(math.isfinite(v) and v > 1e8 for v in fq.history.train_loss)
    for qat in (qz.qat_train, ref_qat_train):
        with pytest.raises(TrainingDiverged) as err:
            qat(_runaway_bias_model(1.5e308), tr, schema, cfg)
        assert err.value.epoch == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bits", range(2, 33))
def test_activation_fake_quant_equals_the_clip_form(bits):
    rng = np.random.default_rng(100 + bits)
    a = np.maximum(rng.normal(size=(9, 7)) * 3.0, 0.0)
    a = np.concatenate([a.ravel(), [-0.0, 0.0, 1e-300, 2.5, 4.0, 1e300, np.inf, np.nan]])
    for amax in (0.0, 1e-15, 0.7, 2.5, 5.0):
        want = ref_fq_unsigned(a, bits, amax)
        assert qz._fq_unsigned(a.copy(), bits, amax).tobytes() == want.tobytes()


# --- stacked training -------------------------------------------------------------

STACK_SCHEMAS = [QuantSchema.coupled((4, 6, 3), input_bits=8),
                 QuantSchema.coupled((8, 8, 8), input_bits=8),
                 QuantSchema((2, 5, 7), (6, 3, 9), input_bits=8)]


@pytest.mark.parametrize("with_val", [True, False])
def test_stacked_qat_equals_each_reference_run(splits, pretrained, with_val):
    # three members with their own seeds and weight and activation widths
    tr, va = splits
    val = va if with_val else None
    cfgs = [TrainConfig(epochs=5, batch_size=64, learning_rate=5e-4, l1=1e-4, seed=s)
            for s in (11, 3, 29)]
    starts = [pretrained, nn.mlp([16, 12, 8, 5], seed=1), nn.mlp([16, 12, 8, 5], seed=2)]
    before = [_snapshot(m) for m in starts]
    got = qz.qat_train_many(starts, tr, STACK_SCHEMAS, cfgs, val=val)
    assert len(got) == 3
    for fq, start, schema, cfg in zip(got, starts, STACK_SCHEMAS, cfgs):
        assert_same_fq(fq, ref_qat_train(start, tr, schema, cfg, val=val))
        assert fq.schema == schema
        assert_owns_arrays(fq.model)
    assert [_snapshot(m) for m in starts] == before


def _huge_weight_model(w: float) -> MLPModel:
    # 1.7e308: the fake-quant scale overflows at the first step, which makes
    # the weights non-finite; 8e307: the first step's logits overflow, which
    # does it at the second step
    m = nn.mlp([16, 8, 5], seed=4)
    m.layers[0].weights[0, 0] = w
    return m


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kinds", [("ok", "runaway", "ok", "overflowing"),
                                   ("overflowing", "ok"), ("ok", "runaway"),
                                   ("runaway", "overflowing"), ("overflowing", "nan_later"),
                                   ("nan_later", "ok", "nan_later")],
                         ids=["two-of-four", "one-left-after-a-step", "one-left-after-an-epoch",
                              "none-left", "the-last-one-fails-at-a-step",
                              "two-fail-at-the-second-step"])
def test_a_failing_member_leaves_the_rest_of_the_stack_alone(splits, kinds):
    # a member whose own run diverges or cannot quantize its weights at an
    # epoch end reports that run's error; the others end exactly as their own
    # runs do, also when one member or none is left
    tr, va = splits
    make = {"ok": lambda k: nn.mlp([16, 8, 5], seed=k),
            "runaway": lambda k: _runaway_bias_model(1.5e308),
            "overflowing": lambda k: _huge_weight_model(1.7e308),
            "nan_later": lambda k: _huge_weight_model(8e307)}
    starts = [make[kind](k) for k, kind in enumerate(kinds)]
    cfgs = [TrainConfig(epochs=3, batch_size=64, learning_rate=1e-3, seed=k)
            for k in range(len(kinds))]
    schemas = [QuantSchema.coupled(b) for b in ((6, 6), (4, 5), (3, 8), (5, 4))][:len(kinds)]
    got = qz.qat_train_many(starts, tr, schemas, cfgs, val=va)
    for fq, kind, start, schema, cfg in zip(got, kinds, starts, schemas, cfgs):
        if kind == "ok":
            assert_same_fq(fq, qz.qat_train(start, tr, schema, cfg, val=va))
            assert_same_fq(fq, ref_qat_train(start, tr, schema, cfg, val=va))
            continue
        with pytest.raises((TrainingDiverged, ValueError)) as err:
            qz.qat_train(start, tr, schema, cfg, val=va)
        assert type(fq) is type(err.value) and str(fq) == str(err.value)
        assert str(fq) == {"runaway": str(TrainingDiverged(0)),
                           "overflowing": "calibration values contain non-finite entries",
                           "nan_later": "calibration values contain non-finite entries"}[kind]


def test_a_failing_member_raises_no_warning_into_the_stack(splits):
    # warnings are errors in this suite: the rows of a member whose weights
    # turn non-finite at the first step run on to the epoch end quietly
    tr, va = splits
    starts = [nn.mlp([16, 8, 5], seed=1), _huge_weight_model(1.7e308)]
    cfgs = [TrainConfig(epochs=2, batch_size=64, learning_rate=1e-3, seed=k) for k in (0, 1)]
    ok, failed = qz.qat_train_many(starts, tr, [QuantSchema.coupled((6, 6))] * 2, cfgs, val=va)
    assert isinstance(ok, qz.FakeQuantModel)
    assert str(failed) == "calibration values contain non-finite entries"


def test_stacked_float_training_equals_each_reference_run(splits):
    tr, va = splits
    cfgs = [TrainConfig(epochs=3, batch_size=50, learning_rate=2e-3, l1=1e-4, seed=s)
            for s in (2, 9)]
    starts = [nn.mlp([16, 10, 5], seed=s) for s in (1, 5)]

    def step(params, epoch, x, y, grads):
        nn._backprop(params, x, y, 1e-4, grads)

    got = nn._train_loop(starts, tr, cfgs, step, lambda p, k: p, val=va)
    for (model, hist), start, cfg in zip(got, starts, cfgs):
        want, want_hist = ref_train(start, tr, cfg, val=va)
        assert_same_model(model, want)
        assert (hist.train_loss, hist.val_accuracy) == (want_hist.train_loss,
                                                        want_hist.val_accuracy)


@pytest.mark.parametrize("field, value", [
    ("epochs", 3), ("batch_size", 32), ("learning_rate", 2e-3), ("l1", 1e-4),
    ("input_bits", 8)])
def test_stacked_qat_refuses_members_that_differ_in_a_shared_setting(splits, field, value):
    tr, _ = splits
    cfgs = [TrainConfig(epochs=2, seed=0), TrainConfig(epochs=2, seed=1)]
    schemas = [QuantSchema.coupled((4, 4))] * 2
    if field == "input_bits":
        schemas[1] = QuantSchema.coupled((4, 4), input_bits=value)
    else:
        setattr(cfgs[1], field, value)
    models = [nn.mlp([16, 8, 5], seed=s) for s in (0, 1)]
    with pytest.raises(ValueError, match=field):
        qz.qat_train_many(models, tr, schemas, cfgs)


def test_stacked_qat_refuses_an_empty_or_mismatched_stack(splits):
    tr, _ = splits
    cfg = TrainConfig(epochs=1, seed=0)
    schema = QuantSchema.coupled((4, 4))
    with pytest.raises(ValueError, match="at least one model"):
        qz.qat_train_many([], tr, [], [])
    with pytest.raises(ValueError, match="layer widths"):
        qz.qat_train_many([nn.mlp([16, 8, 5]), nn.mlp([16, 9, 5])], tr, [schema] * 2,
                          [cfg] * 2)
    with pytest.raises(ValueError, match="one config per model"):
        qz.qat_train_many([nn.mlp([16, 8, 5])] * 2, tr, [schema] * 2, [cfg])
    with pytest.raises(ValueError, match="schemas for"):
        qz.qat_train_many([nn.mlp([16, 8, 5])] * 2, tr, [schema], [cfg] * 2)
