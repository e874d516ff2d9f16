"""Command-line pipeline: data, training, traces, allocation, lowering, IR.

Every subcommand reads an optional JSON config file, applies flag overrides,
writes its artifacts atomically under the output directory, and finishes by
writing manifest-<command>.json recording the fully resolved config, library
versions, and the SHA-256 of everything consumed and produced; a run that
writes no artifact leaves the previous manifest in place.  Outputs
contain no timestamps, so rerunning a command with the same config (or from
its manifest's embedded config) reproduces byte-identical artifacts.

Exit codes: 0 success, 2 configuration error, 3 data, missing-artifact or
malformed-artifact error, 4 training divergence, 5 infeasible allocation,
6 IR validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, allocate, data, hessian, hwest, ir, nn, quantize
from .ioutil import sha256_file, write_atomic, write_json_atomic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_INFEASIBLE = 5
EXIT_IR = 6


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class Diverged(Exception):
    """QAT that drove a weight range past the finite floats."""


DEFAULT_CONFIG = {
    "out": "out",
    "data": {"n": 6000, "seed": 0, "separation": 1.5, "csv": None, "val_fraction": 0.2,
             "split_seed": 0},
    "arch": {"sizes": [16, 64, 32, 32, 5], "input_bits": 16},
    "train": {"epochs": 30, "batch_size": 64, "learning_rate": 1e-3, "l1": 1e-4, "seed": 0},
    "qat": {"epochs": 20, "batch_size": 64, "learning_rate": 1e-3, "l1": 0.0, "seed": 0},
    "trace": {"batch": 1024},
    "allocation": {"budget": 250000.0, "candidates": list(allocate.DEFAULT_CANDIDATES)},
    "schema": None,
    "quantize": {"accumulator_bits": 32},
    "sweep": {"sample": 10, "epochs": 5, "seed": 0},
    "run_ir": {"graph": "graph.json"},
    "estimate": {"coeffs": None},
}


# The schema section's keys, by type (its default is null).  activation_bits
# and input_bits may be absent or null: coupled activations, arch.input_bits.
SCHEMA_KEYS = {"weight_bits": [0], "activation_bits": [0], "input_bits": 0}
# Values a key takes besides those of its default's type.
_ALSO_TAKES = {"sweep.sample": ("all", None), "schema.activation_bits": (None,),
               "schema.input_bits": (None,)}
# Keys no longer read, each with "any" or the values it may still hold (a
# function of the loaded config giving a tuple).  Each loads and is dropped.
RETIRED_KEYS = {"trace.k": "any", "trace.seed": "any", "sweep.jobs": "any",
                "run_ir.batch": "any",
                "allocation.coupling_offset": lambda cfg: (quantize.COUPLING_OFFSET,),
                "sweep.candidates": lambda cfg: (cfg["allocation"]["candidates"],),
                **{f"{sec}.optimizer": lambda cfg: ("adam",) for sec in ("train", "qat", "sweep")},
                **{f"sweep.{key}": lambda cfg, key=key: (cfg["qat"][key],)
                   for key in ("batch_size", "learning_rate", "l1")},
                "data.source": lambda cfg: ("csv",) if cfg["data"]["csv"] else ("synthetic",),
                **{f"{cmd}.source": lambda cfg: ("allocation", "schema")
                   if cfg["schema"] is not None else ("allocation",)
                   for cmd in ("quantize", "estimate")}}
_KINDS = {dict: "an object", list: "a list", int: "an integer", float: "a finite number",
          str: "a string", type(None): "null or a string"}


def _load_config(path: str | None) -> dict:
    """DEFAULT_CONFIG overridden by the config (or manifest) at `path`."""
    user = {}
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if isinstance(user, dict) and {"config", "command", "versions"} <= set(user):
            user = user["config"]  # accept a manifest file as the config source
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    retired = {name: user[sec].pop(key) for name in RETIRED_KEYS
               for sec, key in [name.split(".")]
               if isinstance(user.get(sec), dict) and key in user[sec]}
    cfg = _typed(DEFAULT_CONFIG, user, "")
    for name, value in retired.items():
        kept = () if RETIRED_KEYS[name] == "any" else RETIRED_KEYS[name](cfg)
        if kept and value not in kept:
            raise ConfigError(f"{name} was removed; delete it or set it to {kept[0]!r}")
    return cfg


def _typed(default, value, key: str):
    """`value` of config key `key` as the type of its `default`, or a
    ConfigError naming the key: an object holds only the default's keys
    (absent ones filled from it), a list's elements are typed as its first."""
    if key == "schema" and value is not None:
        default = SCHEMA_KEYS
    if isinstance(default, dict) and isinstance(value, dict):
        prefix = f"{key}." if key else ""
        if unknown := sorted(set(value) - set(default)):
            raise ConfigError("unknown config keys: " + ", ".join(prefix + k for k in unknown))
        given = value if default is SCHEMA_KEYS else {**default, **value}
        return {k: _typed(default[k], v, prefix + k) for k, v in given.items()}
    if isinstance(default, list) and isinstance(value, list):
        return [_typed(default[0], v, f"{key}[{i}]") for i, v in enumerate(value)]
    if (value in _ALSO_TAKES.get(key, ()) or value is default is None
            or isinstance(value, str) and isinstance(default, (str, type(None)))):
        return value
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max  # not a bool
    if finite and (type(default) is float or type(default) is int and value == int(value)):
        return type(default)(value)
    also = "".join(f" or {json.dumps(v)}" for v in _ALSO_TAKES.get(key, ()))
    raise ConfigError(f"bad {key.partition('.')[0]} section: {key} must be "
                      f"{_KINDS[type(default)]}{also}, got {json.dumps(value)}")


def _consume(path: str, inputs: dict, hint: str, load):
    """load(path) for a file the command reads, with its SHA-256 recorded in
    `inputs`.  A missing file, or one whose load raises ValueError, KeyError,
    TypeError or OverflowError, is a data error naming the path once."""
    if not os.path.exists(path):
        raise DataError(f"missing artifact {path} ({hint})")
    inputs[path] = sha256_file(path)
    try:
        return load(path)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        named = str(exc).startswith(path)
        raise DataError(f"malformed artifact {'' if named else path + ': '}{exc}") from None


@contextlib.contextmanager
def _section(name: str):
    """Report a value of config section `name` that fails its range check
    (KeyError, TypeError or ValueError) as a ConfigError naming the section."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} section: {exc}") from None


def _train_config(cfg: dict, name: str) -> nn.TrainConfig:
    with _section(name):
        return nn.TrainConfig(**cfg[name])


def _arch_sizes(cfg: dict) -> list[int]:
    sizes = cfg["arch"]["sizes"]
    if len(sizes) < 2 or min(sizes) < 1:
        raise ConfigError(f"bad arch section: sizes {sizes} needs at least two positive widths")
    return sizes


def _input_bits(cfg: dict) -> int:
    with _section("arch"):
        return quantize.check_bit_width(cfg["arch"]["input_bits"])


def _candidates(cfg: dict) -> tuple[int, ...]:
    """allocation.candidates, the weight widths allocate and sweep choose from."""
    with _section("allocation"):
        candidates = tuple(map(quantize.check_bit_width, cfg["allocation"]["candidates"]))
        if not candidates:
            raise ValueError("candidates must not be empty")
    return candidates


def _load_dataset(cfg: dict, out_dir: str, inputs: dict) -> data.Dataset:
    """data.csv when it is set, else the synthetic <out>/dataset.csv."""
    path = cfg["data"]["csv"] or os.path.join(out_dir, "dataset.csv")
    return _consume(path, inputs, "run gen-data first or point data.csv at a file",
                    data.ingest_csv)


def _standardized_splits(cfg: dict, ds: data.Dataset,
                         mean: np.ndarray | None = None,
                         std: np.ndarray | None = None):
    """Standardize (fitting stats if none are given) and split train/val."""
    ds_std = data.standardize(ds, mean=mean, std=std)
    with _section("data"):
        train_ds, val_ds = data.split(ds_std, cfg["data"]["val_fraction"],
                                      cfg["data"]["split_seed"])
    return ds_std, train_ds, val_ds


def _load_model(out_dir: str, inputs: dict):
    path = os.path.join(out_dir, "model.json")
    model, mean, std = _consume(path, inputs, "run train first", nn.load_model)
    if mean is None or std is None:
        raise DataError(f"{path} lacks standardization stats")
    return model, mean, std


def _schema(cfg: dict, out_dir: str, inputs: dict, n_layers: int) -> quantize.QuantSchema:
    """The n_layers-layer schema: the schema section when it is set (coupled
    activations when it has no activation_bits, arch.input_bits when it has
    no input_bits), else allocation.json."""
    sec = cfg["schema"]
    if sec is None:
        schema = _consume(os.path.join(out_dir, "allocation.json"), inputs,
                          "run allocate first or set the schema section",
                          lambda p: allocate.load_allocation(p).schema)
    else:
        ab, input_bits = sec.get("activation_bits"), sec.get("input_bits")
        input_bits = cfg["arch"]["input_bits"] if input_bits is None else input_bits
        with _section("schema"):
            wb = tuple(sec["weight_bits"])
            schema = (quantize.QuantSchema.coupled(wb, input_bits=input_bits) if ab is None
                      else quantize.QuantSchema(weight_bits=wb, activation_bits=tuple(ab),
                                                input_bits=input_bits))
    if schema.n_layers != n_layers:
        raise ConfigError(f"schema has {schema.n_layers} layers, model has {n_layers}")
    return schema


# ---------------------------------------------------------------------------
# Subcommands.  Each records the files it reads in `inputs` and returns
# (exit_code, artifact paths).


def cmd_gen_data(cfg: dict, out_dir: str, inputs: dict) -> tuple[int, list[str]]:
    sec = cfg["data"]
    if sec["csv"]:
        raise ConfigError("gen-data writes the synthetic dataset; data.csv is set")
    with _section("data"):
        ds = data.generate_synthetic(sec["n"], seed=sec["seed"],
                                     separation=sec["separation"])
    path = os.path.join(out_dir, "dataset.csv")
    data.write_csv(ds, path)
    return EXIT_OK, [path]


def cmd_train(cfg: dict, out_dir: str, inputs: dict) -> tuple[int, list[str]]:
    ds = _load_dataset(cfg, out_dir, inputs)
    sizes = _arch_sizes(cfg)
    if sizes[0] != ds.features.shape[1]:
        raise ConfigError(f"arch expects {sizes[0]} features, dataset has "
                          f"{ds.features.shape[1]}")
    if sizes[-1] <= int(ds.labels.max()):
        raise ConfigError(f"arch has {sizes[-1]} outputs, labels reach "
                          f"{int(ds.labels.max())}")
    ds_std, train_ds, val_ds = _standardized_splits(cfg, ds)
    tcfg = _train_config(cfg, "train")
    model, history = nn.train(nn.mlp(sizes, seed=tcfg.seed), train_ds, tcfg, val=val_ds)
    model_path = os.path.join(out_dir, "model.json")
    nn.save_model(model, model_path, mean=ds_std.mean, std=ds_std.std)
    hist_path = os.path.join(out_dir, "history.json")
    write_json_atomic(hist_path, {
        "train_loss": history.train_loss,
        "val_accuracy": history.val_accuracy,
        "final_val_accuracy": history.val_accuracy[-1] if history.val_accuracy else None,
        "sparsity": nn.sparsity(model),
    })
    return EXIT_OK, [model_path, hist_path]


def cmd_trace(cfg: dict, out_dir: str, inputs: dict) -> tuple[int, list[str]]:
    model, mean, std = _load_model(out_dir, inputs)
    ds = _load_dataset(cfg, out_dir, inputs)
    _, train_ds, _ = _standardized_splits(cfg, ds, mean=mean, std=std)
    with _section("trace"):
        batch = hessian.calibration_batch(train_ds, cfg["trace"]["batch"])
    report = hessian.layer_sensitivities(model, batch)
    path = os.path.join(out_dir, "traces.json")
    hessian.save_trace_report(report, path)
    return EXIT_OK, [path]


def cmd_allocate(cfg: dict, out_dir: str, inputs: dict) -> tuple[int, list[str]]:
    model, _, _ = _load_model(out_dir, inputs)
    report = _consume(os.path.join(out_dir, "traces.json"), inputs, "run trace first",
                      hessian.load_trace_report)
    if report.sizes != list(model.sizes):
        raise DataError("traces.json was computed for a different architecture")
    sec = cfg["allocation"]
    arch = allocate.ArchSpec.from_model(model, sparsities=nn.sparsity(model),
                                        input_bits=_input_bits(cfg))
    with _section("allocation"):
        if not math.isfinite(sec["budget"]):
            raise ValueError(f"budget must be finite, got {sec['budget']}")
        problem = allocate.AllocationProblem(
            arch=arch, traces=report.avg_traces, weights=[l.weights for l in model.layers],
            budget=sec["budget"], candidates=_candidates(cfg))
    sol = allocate.solve_ilp(problem)
    path = os.path.join(out_dir, "allocation.json")
    allocate.save_allocation(sol, path)
    if not sol.feasible:
        print(f"budget {sec['budget']} is infeasible; minimum achievable BOPs "
              f"is {sol.bops}", file=sys.stderr)
        return EXIT_INFEASIBLE, [path]
    return EXIT_OK, [path]


def cmd_sweep(cfg: dict, out_dir: str, inputs: dict) -> tuple[int, list[str]]:
    """QAT over a sample of the candidate grid: qat's settings, sweep's epochs and seed."""
    sec = cfg["sweep"]
    arch = allocate.ArchSpec.from_sizes(_arch_sizes(cfg),
                                        input_bits=_input_bits(cfg))
    with _section("sweep"):
        tcfg = dataclasses.replace(_train_config(cfg, "qat"), epochs=sec["epochs"],
                                   seed=sec["seed"])
    candidates = _candidates(cfg)
    sample = None if sec["sample"] == "all" else sec["sample"]
    if sample is not None and sample < 0:
        raise ConfigError(f"bad sweep section: sample must be 'all' or at least 0, got {sample}")
    ds = _load_dataset(cfg, out_dir, inputs)
    _, train_ds, val_ds = _standardized_splits(cfg, ds)
    records = allocate.sweep(arch, candidates, train_ds, tcfg, val=val_ds, sample=sample)
    path = os.path.join(out_dir, "sweep.csv")
    write_atomic(path, allocate.sweep_csv(records))
    return EXIT_OK, [path]


def cmd_quantize(cfg: dict, out_dir: str, inputs: dict) -> tuple[int, list[str]]:
    model, mean, std = _load_model(out_dir, inputs)
    schema = _schema(cfg, out_dir, inputs, model.n_layers)
    accumulator_bits = cfg["quantize"]["accumulator_bits"]
    try:
        quantize.accumulator_widths(schema, [l.fan_in for l in model.layers],
                                    accumulator_bits)
    except quantize.LoweringError as exc:
        raise ConfigError(str(exc)) from None
    ds = _load_dataset(cfg, out_dir, inputs)
    _, train_ds, val_ds = _standardized_splits(cfg, ds, mean=mean, std=std)
    qcfg = _train_config(cfg, "qat")
    try:
        fq = quantize.qat_train(model, train_ds, schema, qcfg, val=val_ds)
    except ValueError as exc:  # model, schema and data passed their checks above
        raise Diverged(str(exc)) from None
    try:
        im = quantize.lower(fq, accumulator_bits=accumulator_bits)
    except quantize.LoweringError as exc:
        raise ConfigError(str(exc)) from None
    int_path = os.path.join(out_dir, "intmodel.json")
    quantize.save_integer_model(im, int_path)
    logits, _ = quantize.int_forward(im, val_ds.features)
    int_acc = float(np.mean(np.argmax(logits, axis=1) == val_ds.labels))
    report_path = os.path.join(out_dir, "fqreport.json")
    write_json_atomic(report_path, {
        "schema": {"weight_bits": list(schema.weight_bits),
                   "activation_bits": list(schema.activation_bits),
                   "input_bits": schema.input_bits},
        "float_accuracy": nn.accuracy(model, val_ds),
        "fq_accuracy": nn.accuracy(fq, val_ds),
        "int_accuracy": int_acc,
    })
    return EXIT_OK, [int_path, report_path]


def cmd_export_ir(cfg: dict, out_dir: str, inputs: dict) -> tuple[int, list[str]]:
    im = _consume(os.path.join(out_dir, "intmodel.json"), inputs, "run quantize first",
                  quantize.load_integer_model)
    g = ir.export_graph(im)
    path = os.path.join(out_dir, "graph.json")
    ir.save_graph(g, path)
    return EXIT_OK, [path]


def cmd_opt_ir(cfg: dict, out_dir: str, inputs: dict) -> tuple[int, list[str]]:
    g = _consume(os.path.join(out_dir, "graph.json"), inputs, "run export-ir first",
                 ir.load_graph)
    stages = [("input", g)]
    g = ir.infer_shapes(g)  # an IRError, the graph's first fault, exits 6
    stages.append(("infer_shapes", g))
    g = ir.fold_constants(g)
    stages.append(("fold_constants", g))
    out_path = os.path.join(out_dir, "graph_opt.json")
    ir.save_graph(g, out_path)
    report_path = os.path.join(out_dir, "opt_report.json")
    write_json_atomic(report_path, {
        "stages": [{"stage": name, "nodes": len(st.nodes),
                    "kinds": st.node_counts()} for name, st in stages],
    })
    return EXIT_OK, [out_path, report_path]


# run-ir evaluates the dataset in chunks of this many rows, which bounds its
# memory and changes no output byte.
RUN_IR_ROWS = 1024


def cmd_run_ir(cfg: dict, out_dir: str, inputs: dict) -> tuple[int, list[str]]:
    graph_path = os.path.join(out_dir, cfg["run_ir"]["graph"])
    g = _consume(graph_path, inputs, "run export-ir first", ir.load_graph)
    shapes = ir.infer_shapes(g).tensors  # an IRError, the graph's first fault, exits 6
    if "logits" not in g.outputs:
        raise DataError(f"{graph_path} has no logits output")
    model, mean, std = _load_model(out_dir, inputs)
    for name, width in (("x", len(mean)), ("logits", model.sizes[-1])):
        got = shapes[name].shape[-1] if name in shapes else None
        if got != width:
            raise DataError(f"{graph_path} has {name} width {got}, "
                            f"{os.path.join(out_dir, 'model.json')} needs {width}")
    ds = _load_dataset(cfg, out_dir, inputs)
    ds_std = data.standardize(ds, mean=mean, std=std)

    lines = ["row,prediction," + ",".join(f"logit_{c}" for c in range(model.sizes[-1]))]
    correct = 0
    for start in range(0, len(ds_std), RUN_IR_ROWS):
        x = ds_std.features[start:start + RUN_IR_ROWS]
        out = ir.evaluate(g, {"x": x})
        logits = np.asarray(out["logits"], dtype=np.float64)
        preds = np.argmax(logits, axis=1)
        correct += int(np.sum(preds == ds_std.labels[start:start + RUN_IR_ROWS]))
        # tolist() yields Python floats, whose repr is the shortest exact form
        lines += [f"{j},{pred},{','.join(map(repr, row))}" for j, (pred, row)
                  in enumerate(zip(preds.tolist(), logits.tolist()), start=start)]
    out_path = os.path.join(out_dir, "ir_outputs.csv")
    write_atomic(out_path, "\n".join(lines) + "\n")
    report_path = os.path.join(out_dir, "ir_report.json")
    write_json_atomic(report_path, {"rows": len(ds_std),
                                    "accuracy": correct / max(len(ds_std), 1)})
    return EXIT_OK, [out_path, report_path]


def _coeffs_from_config(cfg: dict, inputs: dict) -> hwest.EstimatorCoeffs:
    path = cfg["estimate"]["coeffs"]
    if path is None:
        return hwest.EstimatorCoeffs()
    if not os.path.exists(path):
        raise DataError(f"missing artifact {path} (coefficients file configured but missing)")
    inputs[path] = sha256_file(path)
    try:
        return hwest.load_coeffs(path)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad coefficients file: {exc}") from None


def cmd_estimate(cfg: dict, out_dir: str, inputs: dict) -> tuple[int, list[str]]:
    coeffs = _coeffs_from_config(cfg, inputs)
    sizes = _arch_sizes(cfg)
    sparsities = None
    model_path = os.path.join(out_dir, "model.json")
    if os.path.exists(model_path):
        model, _, _ = _consume(model_path, inputs, "run train first", nn.load_model)
        sizes = list(model.sizes)
        sparsities = nn.sparsity(model)
    schema = _schema(cfg, out_dir, inputs, len(sizes) - 1)
    arch = allocate.ArchSpec.from_sizes(sizes, sparsities=sparsities,
                                        input_bits=schema.input_bits)
    est = hwest.estimate(arch, schema, coeffs=coeffs)
    json_path = os.path.join(out_dir, "estimate.json")
    write_json_atomic(json_path, hwest.estimate_json(est))
    csv_path = os.path.join(out_dir, "estimate.csv")
    write_atomic(csv_path, hwest.estimate_csv(est))
    return EXIT_OK, [json_path, csv_path]


def cmd_report(cfg: dict, out_dir: str, inputs: dict) -> tuple[int, list[str]]:
    coeffs = _coeffs_from_config(cfg, inputs)
    sizes, input_bits = _arch_sizes(cfg), _input_bits(cfg)
    L = len(sizes) - 1

    def load(path: str) -> list:
        """sweep.csv's records, each with its schema and architecture, or
        None for a failed configuration's record."""
        records = allocate.parse_sweep_csv(Path(path).read_text())
        if any(len(rec.weight_bits) != L for rec in records):
            raise DataError("sweep.csv was written for a different architecture")
        return [(rec, None if rec.error else (
            quantize.QuantSchema(weight_bits=rec.weight_bits,
                                 activation_bits=rec.activation_bits, input_bits=input_bits),
            allocate.ArchSpec.from_sizes(sizes, sparsities=rec.sparsities,
                                         input_bits=input_bits))) for rec in records]

    rows = _consume(os.path.join(out_dir, "sweep.csv"), inputs, "run sweep first", load)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["config_id"] + [f"b_w_{i}" for i in range(L)]
                    + ["accuracy", "bops", "dsps", "luts", "ffs", "error"])
    for rec, design in rows:
        if design is None:
            writer.writerow([rec.config_id, *rec.weight_bits, "", "", "", "", "",
                             rec.error])
            continue
        schema, arch = design
        if allocate.model_bops(arch, schema) != rec.bops:
            raise DataError("sweep.csv was written for a different architecture")
        est = hwest.estimate(arch, schema, coeffs=coeffs)
        writer.writerow([rec.config_id, *rec.weight_bits, repr(rec.accuracy),
                         repr(rec.bops), est.dsps, est.luts, est.ffs, ""])
    path = os.path.join(out_dir, "report.csv")
    write_atomic(path, buf.getvalue())
    return EXIT_OK, [path]


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "trace": cmd_trace,
    "allocate": cmd_allocate,
    "sweep": cmd_sweep,
    "quantize": cmd_quantize,
    "export-ir": cmd_export_ir,
    "opt-ir": cmd_opt_ir,
    "run-ir": cmd_run_ir,
    "estimate": cmd_estimate,
    "report": cmd_report,
}

_SEED_KEY = {
    "gen-data": ("data", "seed"),
    "train": ("train", "seed"),
    "sweep": ("sweep", "seed"),
    "quantize": ("qat", "seed"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessquant",
        description="Train, quantize, allocate bit widths, and export "
                    "integer-only inference graphs for small dense classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        if name in _SEED_KEY:
            p.add_argument("--seed", type=int, default=None,
                           help="override the command's seed")
        if name == "allocate":
            p.add_argument("--budget", type=float, default=None,
                           help="BOPs budget override")
    return parser


def _write_manifest(command: str, cfg: dict, out_dir: str,
                    artifacts: list[str], inputs: dict) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "inputs": {os.path.basename(k): v for k, v in sorted(inputs.items())},
        "artifacts": {os.path.basename(p): sha256_file(p) for p in sorted(artifacts)},
    }
    write_json_atomic(os.path.join(out_dir, f"manifest-{command}.json"), manifest)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.out is not None:
            cfg["out"] = args.out
        if getattr(args, "seed", None) is not None:
            section, key = _SEED_KEY[args.command]
            cfg[section][key] = args.seed
        if getattr(args, "budget", None) is not None:
            cfg["allocation"]["budget"] = args.budget
        out_dir = cfg["out"]
        os.makedirs(out_dir, exist_ok=True)
        inputs: dict = {}
        code, artifacts = COMMANDS[args.command](cfg, out_dir, inputs)
        if artifacts:  # a run that wrote nothing leaves the last manifest alone
            _write_manifest(args.command, cfg, out_dir, artifacts, inputs)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (nn.TrainingDiverged, Diverged) as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ir.IRError as exc:
        print(f"graph error: {exc}", file=sys.stderr)
        return EXIT_IR


if __name__ == "__main__":
    sys.exit(main())
