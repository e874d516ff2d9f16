"""Small helpers for deterministic file I/O: canonical JSON, atomic writes,
hashing, and the one check of a document field's JSON type."""

from __future__ import annotations

import hashlib
import json
import math
import os
import reprlib
import tempfile
from itertools import chain

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


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite JSON number")
    return value


def loads_finite(text: str):
    """json.loads that refuses, with ValueError, what no artifact holds: the
    NaN and Infinity tokens and numbers past the largest float."""
    return json.loads(text, parse_constant=_finite, parse_float=_finite)


# Per kind, the Python types json gives its values, and its name.
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          bool: ((bool,), "a boolean"), str: ((str,), "a string"), list: ((list,), "a list"),
          dict: ((dict,), "an object")}


def typed(value, kind, where: str):
    """`value`, a field of a parsed JSON document, if it is of `kind`;
    ValueError "<where> must be <kind>, got <value>" otherwise.  Nothing is
    coerced.  kind is int (never a bool), float (any number but a bool,
    returned as a float), bool, str, list or dict, or [kind], a list of that
    kind (nested once for a matrix), whose faulty item is named <where>[i]."""
    if type(kind) is not list:
        types, name = _KINDS[kind]
        if type(value) not in types:
            raise ValueError(f"{where} must be {name}, got {reprlib.repr(value)}")
        return float(value) if kind is float else value
    [item] = kind
    values = typed(value, list, where)
    # the entries' types in one pass in C, over every row of a matrix; only a
    # fault or an integer to return as a float goes item by item
    leaf, entries = item, values
    if type(item) is list:
        [leaf], entries = item, chain.from_iterable(typed(values, [list], where))
    found = set(map(type, entries))
    if not found.issubset(_KINDS[leaf][0]) or leaf is float and int in found:
        return [typed(v, item, f"{where}[{i}]") for i, v in enumerate(values)]
    return values


def read_document(path: str, fmt: str, versions: tuple[int, ...] | None) -> dict:
    """The JSON object in `path`, of finite numbers only; ValueError unless
    it is a dict whose "format" is `fmt` and, unless versions is None,
    whose "version" is an integer among `versions`."""
    with open(path) as fh:
        doc = loads_finite(fh.read())
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError(f"{path}: not a {fmt} document")
    version = doc.get("version")
    if versions is not None and not (type(version) is int and version in versions):
        raise ValueError(f"{path}: unsupported {fmt} version {version!r}")
    return doc
