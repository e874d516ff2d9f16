import numpy as np
import pytest

from hessquant import data


def test_synthetic_shapes_and_label_balance():
    ds = data.generate_synthetic(1000, seed=3)
    assert ds.features.shape == (1000, 16)
    assert ds.labels.shape == (1000,)
    counts = np.bincount(ds.labels, minlength=5)
    assert counts.tolist() == [200] * 5


def test_synthetic_is_deterministic_per_seed():
    a = data.generate_synthetic(100, seed=5)
    b = data.generate_synthetic(100, seed=5)
    c = data.generate_synthetic(100, seed=6)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_last_feature_is_pure_noise():
    # class means put nothing in the final coordinate, so its correlation
    # with the label should be near zero
    ds = data.generate_synthetic(4000, seed=1, separation=2.0)
    last = ds.features[:, 15]
    per_class = [last[ds.labels == c].mean() for c in range(5)]
    assert np.ptp(per_class) < 0.25


def test_bayes_style_nearest_mean_classifier_beats_chance():
    # oracle: with unit noise and the known means, classifying by the
    # nearest class mean should do far better than the 20% chance rate,
    # and better for wider separation
    scores = {}
    for sep in (0.5, 2.0):
        ds = data.generate_synthetic(2500, seed=11, separation=sep)
        means = np.stack([data.class_means(sep)[c] for c in range(5)])
        d2 = ((ds.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        pred = np.argmin(d2, axis=1)
        scores[sep] = float(np.mean(pred == ds.labels))
    assert scores[0.5] > 0.3
    assert scores[2.0] > 0.9
    assert scores[2.0] > scores[0.5]


def test_csv_round_trip_exact(tmp_path):
    ds = data.generate_synthetic(50, seed=0)
    path = tmp_path / "d.csv"
    data.write_csv(ds, str(path))
    back = data.ingest_csv(str(path))
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_ingest_csv_accepts_header_row(tmp_path):
    path = tmp_path / "h.csv"
    cols = ",".join(f"f{i}" for i in range(16)) + ",label\n"
    row = ",".join(["0.5"] * 16) + ",3\n"
    path.write_text(cols + row)
    ds = data.ingest_csv(str(path))
    assert len(ds) == 1
    assert ds.labels[0] == 3


@pytest.mark.parametrize("row,msg", [
    (",".join(["1.0"] * 5) + ",2", "column"),
    (",".join(["1.0"] * 16) + ",9", "label"),
    (",".join(["nan"] + ["1.0"] * 15) + ",2", "finite"),
])
def test_ingest_csv_rejects_bad_rows(tmp_path, row, msg):
    path = tmp_path / "bad.csv"
    path.write_text(row + "\n")
    with pytest.raises(data.CSVFormatError) as err:
        data.ingest_csv(str(path))
    assert msg in str(err.value)
    assert err.value.line == 1


def test_ingest_csv_rejects_non_integer_label(tmp_path):
    # needs a clean first row: a lone bad label on line 1 would pass for
    # a header
    good = ",".join(["0.0"] * 16) + ",0\n"
    bad = ",".join(["1.0"] * 16) + ",x\n"
    path = tmp_path / "bad.csv"
    path.write_text(good + bad)
    with pytest.raises(data.CSVFormatError) as err:
        data.ingest_csv(str(path))
    assert "label" in str(err.value)
    assert err.value.line == 2


def test_ingest_csv_reports_offending_line(tmp_path):
    good = ",".join(["0.0"] * 16) + ",0\n"
    bad = ",".join(["0.0"] * 16) + ",7\n"
    path = tmp_path / "mixed.csv"
    path.write_text(good + good + bad)
    with pytest.raises(data.CSVFormatError) as err:
        data.ingest_csv(str(path))
    assert err.value.line == 3


def test_standardize_zero_mean_unit_variance():
    ds = data.generate_synthetic(500, seed=2)
    std = data.standardize(ds)
    assert np.allclose(std.features.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(std.features.std(axis=0), 1.0, atol=1e-6)
    # stats survive for reuse
    again = data.standardize(ds, mean=std.mean, std=std.std)
    assert np.array_equal(again.features, std.features)


def test_split_is_disjoint_and_seeded():
    ds = data.generate_synthetic(100, seed=4)
    tr_a, va_a = data.split(ds, 0.25, seed=1)
    tr_b, va_b = data.split(ds, 0.25, seed=1)
    assert len(va_a) == 25 and len(tr_a) == 75
    assert np.array_equal(tr_a.features, tr_b.features)
    # all rows accounted for exactly once
    joined = np.vstack([tr_a.features, va_a.features])
    assert sorted(map(tuple, joined)) == sorted(map(tuple, ds.features))


def test_split_keeps_at_least_one_validation_row():
    ds = data.generate_synthetic(10, seed=0)
    _, va = data.split(ds, 0.01, seed=0)
    assert len(va) == 1
