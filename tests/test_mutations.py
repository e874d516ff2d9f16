"""Single-field mutations of every artifact a seed-0 chain writes, each run
through the fast commands that read it.

Every mutation must end with a documented exit code, never a traceback, and
one that changes the JSON type of a field the reader reads must not exit 0:
readers take each field as its JSON type and never coerce it.
"""

import contextlib
import io
import json
import math
import os
import shutil

import pytest

from hessquant import cli

CONFIG = {
    "data": {"n": 600, "seed": 0, "separation": 1.8},
    "arch": {"sizes": [16, 8, 8, 5]},
    "train": {"epochs": 2, "seed": 0},
    "qat": {"epochs": 1, "seed": 0},
    "trace": {"batch": 128},
    "allocation": {"budget": 1e6},
    "sweep": {"sample": 2, "epochs": 1, "seed": 0},
}
CHAIN = ("gen-data", "train", "trace", "allocate", "quantize", "export-ir", "sweep")
DOCUMENTED = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_DIVERGED,
              cli.EXIT_INFEASIBLE, cli.EXIT_IR}
# The artifact each command is run on and the other files it reads.
READERS = {
    "model.json": [("trace", ("dataset.csv",)), ("estimate", ("allocation.json",))],
    "traces.json": [("allocate", ("model.json",))],
    "allocation.json": [("estimate", ())],
    "intmodel.json": [("export-ir", ())],
    "graph.json": [("opt-ir", ())],
    "sweep.csv": [("report", ())],
    "dataset.csv": [("trace", ("model.json",))],
}
# A value of each JSON value kind, and two numbers no artifact holds: an
# infinity (written as the Infinity token) and an integer past int64.
VALUES = ("x", None, True, -1, 2.5, math.inf, 10 ** 30, [], {})
# Fields whose documented form may be null, so null is not a type change.
NULLABLE = {("model.json", ("standardization",))}
CELLS = ("x", "", "-1", "2.5", "nan", "1e309", "1" + "0" * 30)


def kind(value) -> str:
    if value is None:
        return "null"
    return {bool: "bool", int: "int", float: "float", str: "str", list: "list",
            dict: "dict"}[type(value)]


def fields(node, path=()):
    """The path of every field in a JSON document, but one item stands for a
    list of scalars (its first) and two for a list or name map of objects
    (the first and the last)."""
    if isinstance(node, dict) and node:
        keys = list(node)
        if all(isinstance(v, dict) for v in node.values()):
            keys = list(dict.fromkeys([keys[0], keys[-1]]))
        items = [(k, node[k]) for k in keys]
    elif isinstance(node, list) and node:
        ends = {0, len(node) - 1} if isinstance(node[0], dict) else {0}
        items = [(i, node[i]) for i in sorted(ends)]
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from fields(child, path + (key,))


def changes_type(old, value) -> bool:
    """Whether value has another JSON type than old: an integer field takes
    only integers, a number field any number."""
    return kind(old) != kind(value) and (kind(old), kind(value)) != ("float", "int")


def mutations(name, doc):
    """(id, text, changes type) of each mutation of one field of doc: a
    value of every kind, and deleting the field.  Of a graph's nodes, only
    the first of each kind is mutated."""
    firsts = {n["kind"]: i for i, n in reversed(list(enumerate(doc.get("nodes", []))))}
    for path in list(fields(doc)):
        if path[0] == "nodes" and len(path) > 1 and path[1] not in firsts.values():
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        label = ".".join(map(str, path))
        for value in VALUES:
            parent[path[-1]] = value
            changes = changes_type(old, value) and not (
                value is None and (name, path) in NULLABLE)
            yield f"{label}={value!r:.8}", json.dumps(doc), changes
        if isinstance(parent, dict):
            del parent[path[-1]]
            yield f"{label}=deleted", json.dumps(doc), False
        parent[path[-1]] = old


def csv_mutations(text):
    """(id, text, changes type) of each mutation of one cell of the second
    line (the first line may be a header), every cell of it, and of that
    line cut short or lengthened."""
    lines = text.split("\n")
    header = lines[0].split(",") if lines[0].startswith("config_id") else None

    def with_line(cells):
        return "\n".join([lines[0], ",".join(cells), *lines[2:]])

    cells = lines[1].split(",")
    for i, old in enumerate(cells):
        numeric = header is None or header[i] != "error"
        for value in CELLS:
            if value != old:
                yield (f"cell{i}={value[:6] or 'empty'}",
                       with_line(cells[:i] + [value] + cells[i + 1:]),
                       numeric and value in ("x", ""))
    yield "short", with_line(cells[:-1]), False
    yield "long", with_line(cells + ["1"]), False


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    out = str(root / "out")
    config = root / "config.json"
    config.write_text(json.dumps({**CONFIG, "out": out}))
    for command in CHAIN:
        assert cli.main([command, "--config", str(config)]) == 0, command
    return root, out


def cases(chain):
    _, out = chain
    for name in READERS:
        with open(os.path.join(out, name)) as fh:
            text = fh.read()
        found = (csv_mutations(text) if name.endswith(".csv")
                 else mutations(name, json.loads(text)))
        for label, mutated, changes in found:
            yield name, label, mutated, changes


def test_every_mutation_exits_with_a_documented_code(chain):
    root, out = chain
    work = str(root / "work")
    failed = []
    count = 0
    for name, label, mutated, changes in cases(chain):
        for command, upstream in READERS[name]:
            count += 1
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            for other in upstream:
                shutil.copyfile(os.path.join(out, other), os.path.join(work, other))
            with open(os.path.join(work, name), "w") as fh:
                fh.write(mutated)
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr):
                    code = cli.main([command, "--config", str(root / "config.json"),
                                     "--out", work])
            except Exception as exc:  # a traceback, which no mutation may end in
                failed.append(f"{command} {name} {label}: raised {exc!r}")
                continue
            if code not in DOCUMENTED:
                failed.append(f"{command} {name} {label}: exit {code}")
            elif changes and code == cli.EXIT_OK:
                failed.append(f"{command} {name} {label}: a type change exited 0")
    assert count > 500
    assert not failed, "\n".join(failed)
