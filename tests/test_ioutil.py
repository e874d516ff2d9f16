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


def test_sha256_text_matches_hashlib():
    assert ioutil.sha256_text("abc") == hashlib.sha256(b"abc").hexdigest()


def test_to_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError):
        ioutil.dumps_canonical({"bad": object()})


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_dumps_canonical_rejects_values_json_cannot_hold(value):
    with pytest.raises(ValueError):
        ioutil.dumps_canonical({"budget": value})
    with pytest.raises(ValueError):
        ioutil.dumps_canonical({"v": np.array([1.0, value])})
