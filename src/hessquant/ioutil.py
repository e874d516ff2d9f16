"""Small helpers for deterministic file I/O: canonical JSON, atomic writes, hashing."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays into plain Python types."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dumps_canonical(obj) -> str:
    """Serialize to JSON with a stable key order and formatting.

    The output is byte-stable for equal inputs, which the CLI relies on for
    reproducible artifacts.  Floats go through Python's repr, which
    round-trips exactly; NaN and infinities, which JSON cannot hold, raise
    ValueError.
    """
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, ensure_ascii=False,
                      allow_nan=False) + "\n"


def write_atomic(path: str, data: str | bytes) -> None:
    """Write a file via a temp file in the same directory plus rename."""
    mode = "wb" if isinstance(data, bytes) else "w"
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    write_atomic(path, dumps_canonical(obj))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def read_document(path: str, fmt: str) -> dict:
    """The JSON object in `path`; ValueError unless it is a dict whose
    "format" is `fmt`."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError(f"{path}: not a {fmt} document")
    return doc
