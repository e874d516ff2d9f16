import hashlib
import json
import os

import numpy as np
import pytest

from hessquant import ioutil


def test_canonical_dumps_sorts_keys_and_ends_with_newline():
    text = ioutil.dumps_canonical({"b": 1, "a": [1, 2]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    # byte stability: same document, same text
    assert ioutil.dumps_canonical({"a": [1, 2], "b": 1}) == text


def test_dumps_canonical_handles_numpy_scalars_and_arrays():
    doc = {"x": np.float64(0.5), "n": np.int64(3), "v": np.arange(3)}
    parsed = json.loads(ioutil.dumps_canonical(doc))
    assert parsed == {"x": 0.5, "n": 3, "v": [0, 1, 2]}


def test_write_atomic_replaces_content(tmp_path):
    path = tmp_path / "f.txt"
    ioutil.write_atomic(str(path), "one\n")
    ioutil.write_atomic(str(path), "two\n")
    assert path.read_text() == "two\n"
    # no leftover temp files
    assert os.listdir(tmp_path) == ["f.txt"]


def test_write_json_atomic_round_trips(tmp_path):
    path = tmp_path / "doc.json"
    ioutil.write_json_atomic(str(path), {"k": [1.5, 2.5]})
    assert json.loads(path.read_text()) == {"k": [1.5, 2.5]}


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"hessquant")
    assert ioutil.sha256_file(str(path)) == hashlib.sha256(b"hessquant").hexdigest()


def test_to_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError):
        ioutil.dumps_canonical({"bad": object()})


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_dumps_canonical_rejects_values_json_cannot_hold(value):
    with pytest.raises(ValueError):
        ioutil.dumps_canonical({"budget": value})
    with pytest.raises(ValueError):
        ioutil.dumps_canonical({"v": np.array([1.0, value])})


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_read_document_refuses_a_number_that_is_not_finite(tmp_path, number):
    path = tmp_path / "doc.json"
    path.write_text('{"format": "f", "version": 1, "v": [1.5, %s]}' % number)
    with pytest.raises(ValueError, match=f"{number} is not a finite JSON number"):
        ioutil.read_document(str(path), "f", (1,))


@pytest.mark.parametrize("version, versions, ok", [
    (1, (1,), True), (2, (1, 2), True), (2, (1,), False), (None, (1,), False),
    ("1", (1,), False), (1.0, (1,), False), (True, (1,), False), ("any", None, True)])
def test_read_document_takes_only_the_listed_versions(tmp_path, version, versions, ok):
    path = tmp_path / "doc.json"
    doc = {"format": "f", "v": 1e300}
    if version is not None:
        doc["version"] = version
    path.write_text(json.dumps(doc))
    if ok:
        assert ioutil.read_document(str(path), "f", versions) == doc
    else:
        with pytest.raises(ValueError, match=f"unsupported f version {version!r}"):
            ioutil.read_document(str(path), "f", versions)
