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


GOOD = ",".join(["0.5"] * 16) + ",3"


def row_with(feature="0.5", label="3"):
    return ",".join([feature] + ["0.5"] * 15) + "," + label


@pytest.mark.parametrize("text, line, message", [
    (row_with() + ",1\n", 1, "expected 17 columns, got 18"),
    (GOOD + "\n" + row_with(feature="x") + "\n", 2,
     "non-numeric feature: could not convert string to float: 'x'"),
    (GOOD + "\n" + row_with(label="3.0") + "\n", 2, "label is not an integer: '3.0'"),
    (GOOD + "\n" + row_with(label="-1") + "\n", 2, "label -1 outside 0..4"),
    (GOOD + "\n" + row_with(feature="1e400") + "\n", 2, "non-finite feature value"),
    (GOOD + "\n#c\n", 2, "expected 17 columns, got 1"),
    ("", 1, "no data rows"),
    ("\n  \n", 1, "no data rows"),
    (",".join(f"f{i}" for i in range(16)) + ",label\n", 1, "no data rows"),
    # record 2 spans lines 2-3, so the fourth record starts on line 5
    (GOOD + "\n" + row_with(feature='"0.5\n"') + "\n" + GOOD + "\n" + row_with(label="7")
     + "\n", 5, "label 7 outside 0..4"),
], ids=["columns", "feature", "label-float", "label-range", "non-finite", "comment",
        "empty", "blank", "header-only", "after-a-record-on-two-lines"])
def test_ingest_csv_errors_name_their_line(tmp_path, text, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(data.CSVFormatError) as err:
        data.ingest_csv(str(path))
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


HEADER = ",".join(f"f{i}" for i in range(16)) + ",label"


# (file text, whether np.loadtxt reads it): the fast reader must accept a
# subset of what the line reader accepts, with bit-identical arrays.
@pytest.mark.parametrize("text, fast", [
    (GOOD + "\n" + row_with(label="3.0") + "\n", False),
    (GOOD + "\n" + row_with(label=" 3") + "\n", True),
    (GOOD + "\n" + row_with(label="+3") + "\n", True),
    (GOOD + "\n" + row_with(feature="1_0") + "\n", False),
    (GOOD + "\n" + row_with(feature="nan") + "\n", False),
    (GOOD + "\n" + row_with(feature="inf") + "\n", False),
    (GOOD + "\n" + row_with(feature="1e400") + "\n", False),
    (GOOD + "\n" + row_with(feature="-0.0") + "\n", True),
    (GOOD + "\n" + row_with(feature="5e-324") + "\n", True),
    (GOOD + "\n" + row_with(feature='"0.25"') + "\n", False),
    (row_with(feature='"0.25"') + "\n" + GOOD + "\n", False),
    ("#c\n" + GOOD + "\n", True),
    (GOOD + "\n#c\n" + GOOD + "\n", False),
    (GOOD + "\n\n" + GOOD + "\n", True),
    (GOOD + "\n  \n" + GOOD + "\n", False),
    (GOOD + "\r\n" + GOOD + "\r\n", True),
    (HEADER + "\n" + GOOD + "\n", True),
    (GOOD + "\n" + HEADER + "\n", False),
    ("", False),
], ids=["label-3.0", "label-space", "label-plus", "feature-underscore", "feature-nan",
        "feature-inf", "feature-overflow", "feature-negative-zero", "feature-subnormal",
        "quoted-cell", "quoted-first-line", "comment-on-line-1", "comment-mid-file",
        "blank-line", "whitespace-line", "crlf", "header", "header-on-line-2", "empty"])
def test_fast_reader_accepts_a_subset_bit_for_bit(tmp_path, text, fast):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode())
    got = data._ingest_fast(str(path), data.N_FEATURES, data.N_CLASSES)
    assert (got is not None) == fast
    try:
        want = data._ingest_lines(str(path), data.N_FEATURES, data.N_CLASSES)
    except data.CSVFormatError:
        assert got is None
        return
    if got is not None:
        assert got.features.flags.c_contiguous and got.features.dtype == np.float64
        assert got.labels.dtype == np.int64
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
    back = data.ingest_csv(str(path))
    assert back.features.tobytes() == want.features.tobytes()
    assert back.labels.tobytes() == want.labels.tobytes()


def test_written_csv_reads_back_exactly_without_the_line_reader(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a file write_csv produced reached the line reader")

    ds = data.generate_synthetic(30_000, seed=7)
    path = tmp_path / "big.csv"
    data.write_csv(ds, str(path))
    monkeypatch.setattr(data, "_ingest_lines", refuse)
    back = data.ingest_csv(str(path))
    assert back.features.flags.c_contiguous
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.dtype == np.int64
    assert np.array_equal(back.labels, ds.labels)


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
