import numpy as np
import pytest

from hessquant import data, ir, nn


@pytest.fixture(scope="session")
def small_data():
    """Standardized train/val split on an easy synthetic problem."""
    ds = data.generate_synthetic(2400, seed=7, separation=1.8)
    ds_std = data.standardize(ds)
    return data.split(ds_std, 0.2, 0)


@pytest.fixture(scope="session")
def trained_model(small_data):
    """A float model trained once and shared read-only across tests."""
    train_ds, val_ds = small_data
    model = nn.mlp([16, 16, 8, 5], seed=0)
    cfg = nn.TrainConfig(epochs=15, batch_size=64, learning_rate=1e-3,
                         l1=1e-4, seed=0)
    model, _ = nn.train(model, train_ds, cfg, val=val_ds)
    assert nn.accuracy(model, val_ds) > 0.8
    return model


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def tier_forms(monkeypatch):
    """{bound: set of dtypes} of every exact form ir.evaluate holds integers
    in during the test, recorded from ir._in_tier."""
    forms: dict = {}
    convert = ir._in_tier

    def spy(a, bound):
        out = convert(a, bound)
        forms.setdefault(bound, set()).add(out.dtype)
        return out

    monkeypatch.setattr(ir, "_in_tier", spy)
    return forms
