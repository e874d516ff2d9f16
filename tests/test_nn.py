import json

import numpy as np
import pytest

from hessquant import data, nn


def tiny_batch(n=32, d=6, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return data.Dataset(features=rng.normal(size=(n, d)),
                        labels=rng.integers(0, classes, size=n))


def test_mlp_shapes_and_seeding():
    m = nn.mlp([6, 4, 3], seed=1)
    assert [l.weights.shape for l in m.layers] == [(6, 4), (4, 3)]
    assert all(np.all(l.bias == 0) for l in m.layers)
    again = nn.mlp([6, 4, 3], seed=1)
    other = nn.mlp([6, 4, 3], seed=2)
    assert np.array_equal(m.layers[0].weights, again.layers[0].weights)
    assert not np.array_equal(m.layers[0].weights, other.layers[0].weights)


def test_mlp_rejects_bad_sizes():
    with pytest.raises(ValueError):
        nn.mlp([6], seed=0)
    with pytest.raises(ValueError):
        nn.mlp([6, 0, 3], seed=0)


def test_forward_matches_hand_rolled_reference():
    # straight-line NumPy re-implementation, kept deliberately dumb
    m = nn.mlp([6, 5, 4, 3], seed=3)
    rng = np.random.default_rng(4)
    for layer in m.layers:
        layer.bias[:] = rng.normal(size=layer.bias.shape)
    x = rng.normal(size=(10, 6))

    h = x
    for i, layer in enumerate(m.layers):
        h = h @ layer.weights + layer.bias
        if i < len(m.layers) - 1:
            h = np.maximum(h, 0.0)
    expected = np.exp(h - h.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)

    assert np.allclose(nn.forward_logits(m, x), h, atol=1e-12)
    assert np.allclose(nn.forward(m, x), expected, atol=1e-12)


def test_softmax_rows_sum_to_one_and_survive_large_logits():
    z = np.array([[1000.0, 1000.0, 999.0], [-1000.0, 0.0, 3.0]])
    p = nn.softmax(z)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0)


def test_loss_matches_direct_cross_entropy():
    m = nn.mlp([6, 4, 3], seed=0)
    ds = tiny_batch(seed=1)
    z = nn.forward_logits(m, ds.features)
    # direct: mean over rows of logsumexp(z) - z[label]
    lse = np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1)) + z.max(axis=1)
    ce = float(np.mean(lse - z[np.arange(len(ds)), ds.labels]))
    assert nn.loss(m, ds, l1=0.0) == pytest.approx(ce, abs=1e-12)
    l1_term = sum(np.abs(l.weights).sum() for l in m.layers)
    assert nn.loss(m, ds, l1=0.01) == pytest.approx(ce + 0.01 * l1_term, abs=1e-10)


def test_grad_matches_finite_differences():
    m = nn.mlp([6, 5, 3], seed=2)
    rng = np.random.default_rng(5)
    for layer in m.layers:
        layer.bias[:] = 0.1 * rng.normal(size=layer.bias.shape)
    ds = tiny_batch(n=24, seed=6)

    g = nn.parameter_vector(nn._backprop(m, ds.features, ds.labels, 0.0))
    theta = nn.parameter_vector(m)
    eps = 1e-6
    idx = rng.choice(theta.size, size=25, replace=False)
    for i in idx:
        e = np.zeros_like(theta)
        e[i] = eps
        up = nn.loss(nn.replace_parameters(m, theta + e), ds, l1=0.0)
        dn = nn.loss(nn.replace_parameters(m, theta - e), ds, l1=0.0)
        assert g[i] == pytest.approx((up - dn) / (2 * eps), abs=5e-5)


def test_grad_includes_l1_subgradient_away_from_zero():
    m = nn.mlp([4, 3, 2], seed=1)
    ds = tiny_batch(n=16, d=4, classes=2, seed=2)
    g0, g1 = (nn.parameter_vector(nn._backprop(m, ds.features, ds.labels, l1))
              for l1 in (0.0, 0.05))
    theta = nn.parameter_vector(m)
    signs = np.zeros_like(theta)
    pos = 0
    for layer in m.layers:
        w = layer.weights.size
        signs[pos:pos + w] = np.sign(layer.weights).ravel()
        pos += w + layer.bias.size  # biases carry no penalty
    assert np.allclose(g1 - g0, 0.05 * signs, atol=1e-12)


def test_parameter_vector_round_trip():
    m = nn.mlp([5, 4, 3], seed=7)
    theta = nn.parameter_vector(m)
    assert theta.size == 5 * 4 + 4 + 4 * 3 + 3
    m2 = nn.replace_parameters(m, theta * 2.0)
    assert np.allclose(nn.parameter_vector(m2), theta * 2.0)
    # original untouched
    assert np.allclose(nn.parameter_vector(m), theta)


def test_train_improves_loss_and_is_deterministic():
    ds = data.generate_synthetic(600, seed=20, separation=1.5)
    ds = data.standardize(ds)
    tr, va = data.split(ds, 0.2, 0)
    cfg = nn.TrainConfig(epochs=8, batch_size=32, learning_rate=1e-3,
                         l1=0.0, seed=0)
    m1, h1 = nn.train(nn.mlp([16, 12, 5], seed=0), tr, cfg, val=va)
    m2, h2 = nn.train(nn.mlp([16, 12, 5], seed=0), tr, cfg, val=va)
    assert h1.train_loss[-1] < h1.train_loss[0]
    assert h1.train_loss == h2.train_loss
    assert np.array_equal(m1.layers[0].weights, m2.layers[0].weights)
    assert len(h1.val_accuracy) == cfg.epochs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_flags_divergence_with_epoch():
    ds = data.generate_synthetic(200, seed=21)
    cfg = nn.TrainConfig(epochs=5, batch_size=32, learning_rate=1e6,
                         l1=0.0, seed=0)
    with pytest.raises(nn.TrainingDiverged) as err:
        nn.train(nn.mlp([16, 8, 5], seed=0), ds, cfg)
    assert err.value.epoch >= 0


def test_l1_training_produces_sparser_weights():
    ds = data.generate_synthetic(800, seed=23, separation=1.5)
    ds = data.standardize(ds)
    base = nn.TrainConfig(epochs=12, batch_size=32, learning_rate=1e-3,
                          l1=0.0, seed=0)
    reg = nn.TrainConfig(epochs=12, batch_size=32, learning_rate=1e-3,
                         l1=5e-3, seed=0)
    m0, _ = nn.train(nn.mlp([16, 12, 5], seed=0), ds, base)
    m1, _ = nn.train(nn.mlp([16, 12, 5], seed=0), ds, reg)
    small = lambda m: np.mean([np.mean(np.abs(l.weights) < 1e-3) for l in m.layers])
    assert small(m1) > small(m0)


def test_sparsity_counts_near_zero_weights():
    m = nn.mlp([4, 4, 2], seed=0)
    m.layers[0].weights[:, :2] = 0.0
    s = nn.sparsity(m)
    assert s[0] == pytest.approx(0.5)
    assert 0.0 <= s[1] <= 1.0


def test_accuracy_on_trivial_model():
    # a model whose logits copy feature 0 into class 0 gets everything
    # labeled 0 right
    m = nn.mlp([2, 2], seed=0)
    m.layers[0].weights[:] = 0.0
    m.layers[0].bias[:] = [1.0, 0.0]
    ds = data.Dataset(features=np.zeros((6, 2)), labels=np.zeros(6, dtype=np.int64))
    assert nn.accuracy(m, ds) == 1.0


def test_save_load_model_round_trip(tmp_path, trained_model):
    path = tmp_path / "m.json"
    mean = np.arange(16, dtype=np.float64)
    std = np.full(16, 2.0)
    nn.save_model(trained_model, str(path), mean=mean, std=std)
    back, m2, s2 = nn.load_model(str(path))
    assert np.array_equal(m2, mean) and np.array_equal(s2, std)
    x = np.random.default_rng(0).normal(size=(8, 16))
    assert np.allclose(nn.forward_logits(back, x),
                       nn.forward_logits(trained_model, x), atol=0)


def test_checkpoint_activations_are_fixed(tmp_path):
    path = tmp_path / "m.json"
    nn.save_model(nn.mlp([4, 6, 5, 3], seed=0), str(path))
    doc = json.loads(path.read_text())
    assert doc["activations"] == ["relu", "relu", "softmax"]
    for acts in (["relu", "tanh", "softmax"], ["relu", "relu", "none"],
                 ["relu", "softmax"]):
        doc["activations"] = acts
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="m.json: activations must be"):
            nn.load_model(str(path))


def test_check_matrix_rejects_bad_input():
    with pytest.raises(nn.ShapeError):
        nn.check_matrix(np.zeros((2, 2, 2)), "w")
    with pytest.raises(nn.ShapeError):
        nn.check_matrix(np.array([[np.inf, 0.0]]), "w")
