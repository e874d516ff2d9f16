import json

import numpy as np
import pytest

from hessquant import data, hessian, nn


def fd_hvp(grad_fn, theta, v, eps_scale=1e-4):
    """Hessian-vector product by central differences of a gradient function.

    The step is eps_scale * max(1, ||theta||) / max(||v||, 1e-12), so probe
    vectors of any magnitude see a comparable relative perturbation.  A test
    oracle: in a ReLU network a step that crosses an activation kink biases
    it, so curvature checks use a step small enough to cross none.
    """
    eps = eps_scale * max(1.0, float(np.linalg.norm(theta))) / max(float(np.linalg.norm(v)), 1e-12)
    return (grad_fn(theta + eps * v) - grad_fn(theta - eps * v)) / (2.0 * eps)


def fd_layer_hvp(model, batch, layer, v, eps_scale):
    """fd_hvp of the data-loss gradient over one layer's weights."""
    w0 = model.layers[layer].weights

    def layer_grad(theta_w):
        trial = model.copy()
        trial.layers[layer].weights = theta_w.reshape(w0.shape)
        return nn._backprop(trial, batch.features, batch.labels, 0.0).layers[layer].weights.ravel()

    return fd_hvp(layer_grad, w0.ravel(), v, eps_scale=eps_scale)


def test_identity_surrogate_is_exact_per_probe():
    # v^T I v = ||v||^2 = d for Rademacher probes, so every sample equals d
    # and the standard error is zero
    est, stderr, samples = hessian.hutchinson_estimate(lambda v: v, 23, 8, seed=0)
    assert est == 23.0
    assert stderr == 0.0
    assert np.all(samples == 23.0)


def test_diagonal_surrogate_is_exact_per_probe():
    diag = np.arange(1.0, 11.0)
    est, stderr, _ = hessian.hutchinson_estimate(lambda v: diag * v, 10, 64, seed=1)
    assert est == pytest.approx(55.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_off_diagonal_surrogate_converges():
    # a dense symmetric matrix: per-sample estimates fluctuate, the mean
    # approaches the true trace as k grows
    rng = np.random.default_rng(2)
    a = rng.normal(size=(30, 30))
    a = a @ a.T
    true = float(np.trace(a))
    est, stderr, _ = hessian.hutchinson_estimate(lambda v: a @ v, 30, 4000, seed=3)
    assert stderr > 0
    assert abs(est - true) < 4 * stderr
    assert abs(est - true) / abs(true) < 0.1


def test_hutchinson_is_unbiased_across_seeds():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(12, 12))
    a = a @ a.T
    true = float(np.trace(a))
    means = [hessian.hutchinson_estimate(lambda v: a @ v, 12, 16, seed=s)[0]
             for s in range(200)]
    # the average over independent runs should tighten by sqrt(200)
    assert np.mean(means) == pytest.approx(true, rel=0.02)


def test_hutchinson_deterministic_per_seed():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(9, 9))
    a = a @ a.T
    r1 = hessian.hutchinson_estimate(lambda v: a @ v, 9, 32, seed=7)
    r2 = hessian.hutchinson_estimate(lambda v: a @ v, 9, 32, seed=7)
    r3 = hessian.hutchinson_estimate(lambda v: a @ v, 9, 32, seed=8)
    assert r1[0] == r2[0] and np.array_equal(r1[2], r2[2])
    assert r1[0] != r3[0]


def test_probes_are_rademacher():
    seen = []
    hessian.hutchinson_estimate(lambda v: (seen.append(v.copy()), v)[1], 40, 6, seed=0)
    flat = np.concatenate(seen)
    assert set(np.unique(flat)) == {-1.0, 1.0}


def test_stderr_uses_sample_std():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(8, 8))
    a = a @ a.T
    est, stderr, samples = hessian.hutchinson_estimate(lambda v: a @ v, 8, 50, seed=1)
    assert stderr == pytest.approx(np.std(samples, ddof=1) / np.sqrt(50))
    assert est == pytest.approx(np.mean(samples))


def test_hutchinson_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hessian.hutchinson_estimate(lambda v: v, 5, 0, seed=0)
    with pytest.raises(ValueError):
        hessian.hutchinson_estimate(lambda v: v, 0, 3, seed=0)


@pytest.fixture(scope="module")
def toy_model():
    # overlapping classes keep the loss curved at the optimum so layer
    # traces are comfortably nonzero
    ds = data.generate_synthetic(900, seed=50, separation=0.8)
    ds = data.standardize(ds)
    model = nn.mlp([16, 10, 5], seed=1)
    cfg = nn.TrainConfig(epochs=8, batch_size=32, learning_rate=1e-3,
                         l1=0.0, seed=1)
    model, _ = nn.train(model, ds, cfg)
    return model, ds


@pytest.fixture(scope="module")
def converged_tiny_model():
    # trained long enough that the loss surface is smooth at the iterate;
    # finite differences across fresh ReLU kinks would otherwise swamp the
    # comparison below
    ds = data.generate_synthetic(400, seed=50, separation=0.8)
    toy = data.Dataset(features=data.standardize(ds).features[:, :4],
                       labels=(ds.labels % 2).astype(np.int64))
    model = nn.mlp([4, 3, 2], seed=1)
    cfg = nn.TrainConfig(epochs=60, batch_size=32, learning_rate=3e-3,
                         l1=0.0, seed=1)
    model, _ = nn.train(model, toy, cfg)
    return model, toy


def test_model_trace_matches_exact_diagonalization(converged_tiny_model):
    model, ds = converged_tiny_model
    batch = hessian.calibration_batch(ds, 256)
    for layer in range(model.n_layers):
        exact = hessian.exact_trace(model, batch, layer)
        est, stderr = hessian.hutchinson_trace(model, batch, layer, k=1500, seed=0)
        assert abs(est - exact) <= max(5 * stderr, 0.08 * abs(exact))


def test_exact_trace_runs_on_a_wide_layer():
    # 80,000 weights: the closed form costs one backward pass per class,
    # not one curvature product per weight
    model = nn.mlp([16, 400, 200, 5], seed=0)
    ds = data.generate_synthetic(64, seed=0)
    tr = hessian.exact_trace(model, ds, 1)
    assert np.isfinite(tr) and tr > 0
    assert tr == hessian.layer_sensitivities(model, ds).traces[1]


@pytest.fixture(scope="module")
def default_size_model():
    ds = data.standardize(data.generate_synthetic(2000, seed=3, separation=1.5))
    model = nn.mlp([16, 64, 32, 32, 5], seed=3)
    cfg = nn.TrainConfig(epochs=8, batch_size=64, learning_rate=1e-3, l1=1e-4, seed=3)
    model, _ = nn.train(model, ds, cfg)
    return model, hessian.calibration_batch(ds, 512)


@pytest.mark.parametrize("layer", [2, 3])
def test_closed_form_matches_finite_difference_basis_sum(default_size_model, layer):
    # a 1e-7 step crosses no ReLU kink on this batch, so the basis sum of
    # finite-difference products is the exact trace up to rounding
    model, batch = default_size_model
    d = model.layers[layer].weights.size
    e = np.zeros(d)
    fd = 0.0
    for i in range(d):
        e[i] = 1.0
        fd += float(fd_layer_hvp(model, batch, layer, e, eps_scale=1e-7)[i])
        e[i] = 0.0
    exact = hessian.exact_trace(model, batch, layer)
    assert abs(fd - exact) <= 1e-6 * abs(exact)


def test_layer_hvp_basis_sum_equals_exact_trace(toy_model):
    model, ds = toy_model
    batch = hessian.calibration_batch(ds, 200)
    for layer in range(model.n_layers):
        hvp = hessian.layer_hvp(model, batch, layer)
        eye = np.eye(model.layers[layer].weights.size)
        total = sum(float(hvp(row)[i]) for i, row in enumerate(eye))
        assert total == pytest.approx(hessian.exact_trace(model, batch, layer), rel=1e-12)


def test_layer_hvp_is_symmetric():
    # u^T H v == v^T H u for the exact Hessian block
    m = nn.mlp([6, 5, 4, 3], seed=9)
    rng = np.random.default_rng(10)
    ds = data.Dataset(features=rng.normal(size=(40, 6)), labels=rng.integers(0, 3, size=40))
    for layer in range(m.n_layers):
        hvp = hessian.layer_hvp(m, ds, layer)
        d = m.layers[layer].weights.size
        for _ in range(4):
            u, v = rng.normal(size=d), rng.normal(size=d)
            uhv, vhu = float(u @ hvp(v)), float(v @ hvp(u))
            assert uhv == pytest.approx(vhu, rel=1e-10)


def test_layer_hvp_is_linear():
    m = nn.mlp([6, 4, 4, 3], seed=12)
    rng = np.random.default_rng(13)
    ds = data.Dataset(features=rng.normal(size=(30, 6)), labels=rng.integers(0, 3, size=30))
    hvp = hessian.layer_hvp(m, ds, 1)
    u, v = rng.normal(size=(2, m.layers[1].weights.size))
    assert np.allclose(hvp(3.0 * v), 3.0 * hvp(v), rtol=1e-12, atol=0)
    assert np.allclose(hvp(u + v), hvp(u) + hvp(v), rtol=1e-10, atol=1e-15)
    with pytest.raises(nn.ShapeError):
        hvp(np.ones(3))


def test_layer_sensitivities_report(toy_model):
    model, ds = toy_model
    batch = hessian.calibration_batch(ds, 200)
    rep = hessian.layer_sensitivities(model, batch)
    assert len(rep.traces) == model.n_layers
    assert rep.weight_counts == [160, 50]
    for tr, avg, wc in zip(rep.traces, rep.avg_traces, rep.weight_counts):
        assert tr > 0
        assert avg == tr / wc
    assert rep.batch_sha256 == hessian.batch_digest(batch)
    assert rep.sizes == [16, 10, 5]


def test_layer_sensitivities_is_exact_and_deterministic(toy_model):
    model, ds = toy_model
    batch = hessian.calibration_batch(ds, 128)
    r1 = hessian.layer_sensitivities(model, batch)
    r2 = hessian.layer_sensitivities(model, batch)
    assert r1.traces == r2.traces
    assert r1.traces == [hessian.exact_trace(model, batch, j) for j in range(model.n_layers)]


def test_curvature_rejects_bad_arguments(toy_model):
    model, ds = toy_model
    with pytest.raises(IndexError):
        hessian.exact_trace(model, ds, 2)
    with pytest.raises(IndexError):
        hessian.layer_hvp(model, ds, -1)
    with pytest.raises(ValueError):
        hessian.layer_sensitivities(model, ds.take(np.arange(0)))


def test_calibration_batch_takes_leading_slice(toy_model):
    _, ds = toy_model
    batch = hessian.calibration_batch(ds, 100)
    assert len(batch) == 100
    assert np.array_equal(batch.features, ds.features[:100])
    # asking for more than available returns everything
    big = hessian.calibration_batch(ds, 10**6)
    assert len(big) == len(ds)
    for n in (0, -5):
        with pytest.raises(ValueError, match="at least 1 row"):
            hessian.calibration_batch(ds, n)


def test_batch_digest_tracks_content(toy_model):
    _, ds = toy_model
    a = hessian.calibration_batch(ds, 50)
    d1 = hessian.batch_digest(a)
    assert d1 == hessian.batch_digest(a)
    mutated = data.Dataset(features=a.features + 1e-9, labels=a.labels)
    assert hessian.batch_digest(mutated) != d1


def test_trace_report_round_trip(tmp_path, toy_model):
    model, ds = toy_model
    batch = hessian.calibration_batch(ds, 64)
    rep = hessian.layer_sensitivities(model, batch)
    path = tmp_path / "traces.json"
    hessian.save_trace_report(rep, str(path))
    doc = json.loads(path.read_text())
    assert doc["version"] == 3
    # the averages and weight counts follow from traces and sizes
    assert set(doc) == {"format", "version", "traces", "batch_sha256", "sizes"}
    assert hessian.load_trace_report(str(path)) == rep
    doc["sizes"] = doc["sizes"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="2 traces need 3 sizes, got 2"):
        hessian.load_trace_report(str(path))


def test_fd_hvp_eps_scale_changes_little_on_smooth_problems():
    # the estimate should be stable to the step size on a well-scaled
    # quadratic; this is the knob for ill-conditioned cases
    rng = np.random.default_rng(8)
    a = rng.normal(size=(10, 10))
    a = a @ a.T
    theta = rng.normal(size=10)
    v = rng.normal(size=10)
    h1 = fd_hvp(lambda t: a @ t, theta, v, eps_scale=1e-4)
    h2 = fd_hvp(lambda t: a @ t, theta, v, eps_scale=5e-5)
    assert np.allclose(h1, h2, rtol=1e-4, atol=1e-8)


def test_fd_hvp_matches_quadratic_surrogate():
    # for f(w) = 0.5 w^T A w the Hessian-vector product is exactly A v;
    # run the same finite-difference machinery on an analytic gradient
    rng = np.random.default_rng(8)
    d = 12
    a = rng.normal(size=(d, d))
    a = a @ a.T
    theta = rng.normal(size=d)
    for _ in range(5):
        v = rng.normal(size=d)
        hv = fd_hvp(lambda t: a @ t, theta, v)
        assert np.allclose(hv, a @ v, rtol=1e-5, atol=1e-6)
