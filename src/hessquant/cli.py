"""Command-line pipeline: data, training, traces, allocation, lowering, IR.

Every subcommand reads an optional JSON config file, applies flag overrides,
writes its artifacts atomically under the output directory, and finishes by
writing manifest-<command>.json recording the fully resolved config, library
versions, and the SHA-256 of everything consumed and produced.  Outputs
contain no timestamps, so rerunning a command with the same config (or from
its manifest's embedded config) reproduces byte-identical artifacts.

Exit codes: 0 success, 2 configuration error, 3 data, missing-artifact or
malformed-artifact error, 4 training divergence, 5 infeasible allocation,
6 IR validation failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import os
import platform
import sys

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


DEFAULT_CONFIG = {
    "out": "out",
    "data": {"source": "synthetic", "n": 6000, "seed": 0, "separation": 1.5,
             "csv": None, "val_fraction": 0.2, "split_seed": 0},
    "arch": {"sizes": [16, 64, 32, 32, 5], "input_bits": 16},
    "train": {"epochs": 30, "batch_size": 64, "learning_rate": 1e-3,
              "l1": 1e-4, "seed": 0, "optimizer": "adam"},
    "qat": {"epochs": 20, "batch_size": 64, "learning_rate": 1e-3,
            "l1": 0.0, "seed": 0, "optimizer": "adam"},
    "trace": {"k": 64, "seed": 0, "batch": 1024},
    "allocation": {"budget": 250000.0, "candidates": [4, 5, 6, 7, 8],
                   "coupling_offset": 3},
    "schema": None,
    "quantize": {"source": "allocation", "accumulator_bits": 32},
    "sweep": {"sample": 10, "epochs": 5, "batch_size": 64,
              "learning_rate": 1e-3, "l1": 0.0, "seed": 0, "optimizer": "adam",
              "jobs": 1, "candidates": [4, 5, 6, 7, 8]},
    "run_ir": {"graph": "graph.json", "batch": 1024},
    "estimate": {"source": "allocation", "coeffs": None},
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _load_config(path: str | None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            user = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if "config" in user and "command" in user and "versions" in user:
        user = user["config"]  # accept a manifest file as the config source
    unknown = set(user) - set(cfg)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return _deep_merge(cfg, user)


def _require_file(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise DataError(f"missing artifact {path} ({hint})")
    return path


def _load_artifact(load, path: str):
    """load(path), with a malformed artifact reported as a data error."""
    try:
        return load(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"malformed artifact {path}: {exc}") from None


def _train_config(section: dict) -> nn.TrainConfig:
    try:
        return nn.TrainConfig(epochs=int(section["epochs"]),
                              batch_size=int(section["batch_size"]),
                              learning_rate=float(section["learning_rate"]),
                              l1=float(section["l1"]), seed=int(section["seed"]),
                              optimizer=str(section["optimizer"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad training section: {exc}") from None


def _load_dataset(cfg: dict, out_dir: str) -> data.Dataset:
    src = cfg["data"]["source"]
    if src == "csv":
        path = cfg["data"]["csv"]
        if not path:
            raise ConfigError("data.source is 'csv' but data.csv is not set")
    elif src == "synthetic":
        path = os.path.join(out_dir, "dataset.csv")
    else:
        raise ConfigError(f"unknown data.source {src!r}")
    _require_file(path, "run gen-data first or point data.csv at a file")
    try:
        return data.ingest_csv(path)
    except data.CSVFormatError as exc:
        raise DataError(str(exc)) from None


def _standardized_splits(cfg: dict, ds: data.Dataset,
                         mean: np.ndarray | None = None,
                         std: np.ndarray | None = None):
    """Standardize (fitting stats if none are given) and split train/val."""
    ds_std = data.standardize(ds, mean=mean, std=std)
    train_ds, val_ds = data.split(ds_std, cfg["data"]["val_fraction"],
                                  cfg["data"]["split_seed"])
    return ds_std, train_ds, val_ds


def _load_model(out_dir: str):
    path = _require_file(os.path.join(out_dir, "model.json"), "run train first")
    model, mean, std = _load_artifact(nn.load_model, path)
    if mean is None or std is None:
        raise DataError(f"{path} lacks standardization stats")
    return model, mean, std, path


def _schema_section(cfg: dict, command: str) -> quantize.QuantSchema:
    """The schema section as a QuantSchema; coupled activations when it has
    no activation_bits, arch.input_bits when it has no input_bits."""
    sec = cfg["schema"]
    if sec is None:
        raise ConfigError(f"{command}.source is 'schema' but no schema is configured")
    try:
        wb = tuple(int(b) for b in sec["weight_bits"])
        ab = sec.get("activation_bits")
        input_bits = int(sec.get("input_bits", cfg["arch"]["input_bits"]))
        if ab is None:
            return quantize.QuantSchema.coupled(wb, input_bits=input_bits)
        return quantize.QuantSchema(weight_bits=wb,
                                    activation_bits=tuple(int(b) for b in ab),
                                    input_bits=input_bits)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad schema section: {exc}") from None


def _allocation_schema(path: str) -> quantize.QuantSchema:
    return allocate.load_allocation(path).schema


def _schema_from_config(cfg: dict, out_dir: str, inputs: dict) -> quantize.QuantSchema:
    source = cfg["quantize"]["source"]
    if source == "schema" or (source == "allocation" and cfg["schema"] is not None
                              and not os.path.exists(os.path.join(out_dir, "allocation.json"))):
        return _schema_section(cfg, "quantize")
    if source != "allocation":
        raise ConfigError(f"unknown quantize.source {source!r}")
    path = _require_file(os.path.join(out_dir, "allocation.json"),
                         "run allocate first or set quantize.source to 'schema'")
    inputs[path] = sha256_file(path)
    return _load_artifact(_allocation_schema, path)


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (exit_code, artifact paths, consumed paths).


def cmd_gen_data(cfg: dict, out_dir: str) -> tuple[int, list[str], dict]:
    sec = cfg["data"]
    if sec["source"] != "synthetic":
        raise ConfigError("gen-data only applies to data.source 'synthetic'")
    ds = data.generate_synthetic(int(sec["n"]), seed=int(sec["seed"]),
                                 separation=float(sec["separation"]))
    path = os.path.join(out_dir, "dataset.csv")
    data.write_csv(ds, path)
    return EXIT_OK, [path], {}


def cmd_train(cfg: dict, out_dir: str) -> tuple[int, list[str], dict]:
    inputs: dict = {}
    ds = _load_dataset(cfg, out_dir)
    src = cfg["data"]["source"]
    if src == "synthetic":
        inputs[os.path.join(out_dir, "dataset.csv")] = \
            sha256_file(os.path.join(out_dir, "dataset.csv"))
    sizes = [int(s) for s in cfg["arch"]["sizes"]]
    if sizes[0] != ds.features.shape[1]:
        raise ConfigError(f"arch expects {sizes[0]} features, dataset has "
                          f"{ds.features.shape[1]}")
    if sizes[-1] <= int(ds.labels.max()):
        raise ConfigError(f"arch has {sizes[-1]} outputs, labels reach "
                          f"{int(ds.labels.max())}")
    ds_std, train_ds, val_ds = _standardized_splits(cfg, ds)
    model = nn.mlp(sizes, seed=int(cfg["train"]["seed"]))
    tcfg = _train_config(cfg["train"])
    model, history = nn.train(model, train_ds, tcfg, val=val_ds)
    model_path = os.path.join(out_dir, "model.json")
    nn.save_model(model, model_path, mean=ds_std.mean, std=ds_std.std)
    hist_path = os.path.join(out_dir, "history.json")
    write_json_atomic(hist_path, {
        "train_loss": history.train_loss,
        "val_accuracy": history.val_accuracy,
        "final_val_accuracy": history.val_accuracy[-1] if history.val_accuracy else None,
        "sparsity": nn.sparsity(model),
    })
    return EXIT_OK, [model_path, hist_path], inputs


def cmd_trace(cfg: dict, out_dir: str) -> tuple[int, list[str], dict]:
    model, mean, std, model_path = _load_model(out_dir)
    inputs = {model_path: sha256_file(model_path)}
    ds = _load_dataset(cfg, out_dir)
    _, train_ds, _ = _standardized_splits(cfg, ds, mean=mean, std=std)
    batch = hessian.calibration_batch(train_ds, int(cfg["trace"]["batch"]))
    report = hessian.layer_sensitivities(model, batch, k=int(cfg["trace"]["k"]),
                                         seed=int(cfg["trace"]["seed"]))
    path = os.path.join(out_dir, "traces.json")
    hessian.save_trace_report(report, path)
    return EXIT_OK, [path], inputs


def cmd_allocate(cfg: dict, out_dir: str) -> tuple[int, list[str], dict]:
    model, _, _, model_path = _load_model(out_dir)
    traces_path = _require_file(os.path.join(out_dir, "traces.json"),
                                "run trace first")
    inputs = {model_path: sha256_file(model_path),
              traces_path: sha256_file(traces_path)}
    report = _load_artifact(hessian.load_trace_report, traces_path)
    if report.sizes and report.sizes != list(model.sizes):
        raise DataError("traces.json was computed for a different architecture")
    sec = cfg["allocation"]
    arch = allocate.ArchSpec.from_model(model, sparsities=nn.sparsity(model),
                                        input_bits=int(cfg["arch"]["input_bits"]))
    try:
        budget = float(sec["budget"])
        if not math.isfinite(budget):
            raise ValueError(f"budget must be finite, got {budget}")
        problem = allocate.AllocationProblem(
            arch=arch,
            traces=report.avg_traces,
            weights=[l.weights for l in model.layers],
            budget=budget,
            candidates=tuple(int(b) for b in sec["candidates"]),
            coupling_offset=int(sec["coupling_offset"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad allocation section: {exc}") from None
    sol = allocate.solve_ilp(problem)
    path = os.path.join(out_dir, "allocation.json")
    allocate.save_allocation(sol, path)
    if not sol.feasible:
        print(f"budget {sec['budget']} is infeasible; minimum achievable BOPs "
              f"is {sol.bops}", file=sys.stderr)
        return EXIT_INFEASIBLE, [path], inputs
    return EXIT_OK, [path], inputs


def cmd_sweep(cfg: dict, out_dir: str) -> tuple[int, list[str], dict]:
    ds = _load_dataset(cfg, out_dir)
    _, train_ds, val_ds = _standardized_splits(cfg, ds)
    sec = cfg["sweep"]
    sizes = [int(s) for s in cfg["arch"]["sizes"]]
    arch = allocate.ArchSpec.from_sizes(sizes,
                                        input_bits=int(cfg["arch"]["input_bits"]))
    tcfg = _train_config(sec)
    records = allocate.sweep(arch, sec["candidates"], train_ds, tcfg, val=val_ds,
                             sample=None if sec["sample"] in (None, "all")
                             else int(sec["sample"]),
                             seed=int(sec["seed"]), jobs=int(sec["jobs"]))
    path = os.path.join(out_dir, "sweep.csv")
    write_atomic(path, allocate.sweep_csv(records))
    return EXIT_OK, [path], {}


def cmd_quantize(cfg: dict, out_dir: str) -> tuple[int, list[str], dict]:
    model, mean, std, model_path = _load_model(out_dir)
    inputs = {model_path: sha256_file(model_path)}
    schema = _schema_from_config(cfg, out_dir, inputs)
    if schema.n_layers != model.n_layers:
        raise ConfigError(f"schema has {schema.n_layers} layers, model has "
                          f"{model.n_layers}")
    ds = _load_dataset(cfg, out_dir)
    _, train_ds, val_ds = _standardized_splits(cfg, ds, mean=mean, std=std)
    qcfg = _train_config(cfg["qat"])
    fq = quantize.qat_train(model, train_ds, schema, qcfg, val=val_ds)
    try:
        im = quantize.lower(fq, accumulator_bits=int(cfg["quantize"]["accumulator_bits"]))
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
    return EXIT_OK, [int_path, report_path], inputs


def cmd_export_ir(cfg: dict, out_dir: str) -> tuple[int, list[str], dict]:
    int_path = _require_file(os.path.join(out_dir, "intmodel.json"),
                             "run quantize first")
    inputs = {int_path: sha256_file(int_path)}
    im = _load_artifact(quantize.load_integer_model, int_path)
    g = ir.export_graph(im)
    path = os.path.join(out_dir, "graph.json")
    ir.save_graph(g, path)
    return EXIT_OK, [path], inputs


def _load_graph_checked(path: str) -> ir.IRGraph:
    return _load_artifact(ir.load_graph, _require_file(path, "run export-ir first"))


def cmd_opt_ir(cfg: dict, out_dir: str) -> tuple[int, list[str], dict]:
    in_path = os.path.join(out_dir, "graph.json")
    g = _load_graph_checked(in_path)
    inputs = {in_path: sha256_file(in_path)}
    diags = ir.validate(g)
    if diags:
        for d in diags:
            print(d, file=sys.stderr)
        return EXIT_IR, [], inputs
    stages = [("input", g)]
    g = ir.infer_shapes(g)
    stages.append(("infer_shapes", g))
    g = ir.fold_constants(g)
    stages.append(("fold_constants", g))
    g = ir.merge_scales_relu(g)
    stages.append(("merge_scales_relu", g))
    diags = ir.validate(g)
    if diags:
        for d in diags:
            print(d, file=sys.stderr)
        return EXIT_IR, [], inputs
    out_path = os.path.join(out_dir, "graph_opt.json")
    ir.save_graph(g, out_path)
    report_path = os.path.join(out_dir, "opt_report.json")
    write_json_atomic(report_path, {
        "stages": [{"stage": name, "nodes": len(st.nodes),
                    "kinds": st.node_counts()} for name, st in stages],
    })
    return EXIT_OK, [out_path, report_path], inputs


def cmd_run_ir(cfg: dict, out_dir: str) -> tuple[int, list[str], dict]:
    graph_path = os.path.join(out_dir, cfg["run_ir"]["graph"])
    g = _load_graph_checked(graph_path)
    inputs = {graph_path: sha256_file(graph_path)}
    diags = ir.validate(g)
    if diags:
        for d in diags:
            print(d, file=sys.stderr)
        return EXIT_IR, [], inputs
    model, mean, std, model_path = _load_model(out_dir)
    inputs[model_path] = sha256_file(model_path)
    ds = _load_dataset(cfg, out_dir)
    ds_std = data.standardize(ds, mean=mean, std=std)

    batch_size = int(cfg["run_ir"]["batch"])
    rows = []
    correct = 0
    for start in range(0, len(ds_std), batch_size):
        x = ds_std.features[start:start + batch_size]
        out = ir.evaluate(g, {"x": x})
        logits = np.asarray(out["logits"], dtype=np.float64)
        preds = np.argmax(logits, axis=1)
        correct += int(np.sum(preds == ds_std.labels[start:start + batch_size]))
        # tolist() yields Python floats, whose repr is the shortest exact form
        for j, (pred, row) in enumerate(zip(preds.tolist(), logits.tolist())):
            rows.append([start + j, pred] + [repr(v) for v in row])

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row", "prediction"] +
                    [f"logit_{c}" for c in range(len(rows[0]) - 2)])
    writer.writerows(rows)
    out_path = os.path.join(out_dir, "ir_outputs.csv")
    write_atomic(out_path, buf.getvalue())
    report_path = os.path.join(out_dir, "ir_report.json")
    write_json_atomic(report_path, {"rows": len(rows),
                                    "accuracy": correct / max(len(rows), 1)})
    return EXIT_OK, [out_path, report_path], inputs


def _coeffs_from_config(cfg: dict, inputs: dict) -> hwest.EstimatorCoeffs:
    path = cfg["estimate"]["coeffs"]
    if path is None:
        return hwest.EstimatorCoeffs()
    _require_file(path, "coefficients file configured but missing")
    inputs[path] = sha256_file(path)
    try:
        return hwest.load_coeffs(path)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad coefficients file: {exc}") from None


def cmd_estimate(cfg: dict, out_dir: str) -> tuple[int, list[str], dict]:
    inputs: dict = {}
    coeffs = _coeffs_from_config(cfg, inputs)
    source = cfg["estimate"]["source"]
    sizes = [int(s) for s in cfg["arch"]["sizes"]]
    sparsities = None
    model_path = os.path.join(out_dir, "model.json")
    if os.path.exists(model_path):
        model, _, _ = _load_artifact(nn.load_model, model_path)
        inputs[model_path] = sha256_file(model_path)
        sizes = list(model.sizes)
        sparsities = nn.sparsity(model)
    if source == "allocation":
        path = _require_file(os.path.join(out_dir, "allocation.json"),
                             "run allocate first or set estimate.source to 'schema'")
        inputs[path] = sha256_file(path)
        schema = _load_artifact(_allocation_schema, path)
    elif source == "schema":
        schema = _schema_section(cfg, "estimate")
    else:
        raise ConfigError(f"unknown estimate.source {source!r}")
    arch = allocate.ArchSpec.from_sizes(sizes, sparsities=sparsities,
                                        input_bits=schema.input_bits)
    est = hwest.estimate(arch, schema, coeffs=coeffs)
    json_path = os.path.join(out_dir, "estimate.json")
    write_json_atomic(json_path, hwest.estimate_json(est))
    csv_path = os.path.join(out_dir, "estimate.csv")
    write_atomic(csv_path, hwest.estimate_csv(est))
    return EXIT_OK, [json_path, csv_path], inputs


def _read_sweep_csv(path: str) -> list[allocate.SweepRecord]:
    with open(path) as fh:
        return allocate.parse_sweep_csv(fh.read())


def cmd_report(cfg: dict, out_dir: str) -> tuple[int, list[str], dict]:
    sweep_path = _require_file(os.path.join(out_dir, "sweep.csv"),
                               "run sweep first")
    inputs = {sweep_path: sha256_file(sweep_path)}
    coeffs = _coeffs_from_config(cfg, inputs)
    records = _load_artifact(_read_sweep_csv, sweep_path)
    sizes = [int(s) for s in cfg["arch"]["sizes"]]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    L = len(sizes) - 1
    writer.writerow(["config_id"] + [f"b_w_{i}" for i in range(L)]
                    + ["accuracy", "bops", "dsps", "luts", "ffs", "error"])
    for rec in records:
        if rec.error:
            writer.writerow([rec.config_id, *rec.weight_bits, "", "", "", "", "",
                             rec.error])
            continue
        schema = quantize.QuantSchema(weight_bits=rec.weight_bits,
                                      activation_bits=rec.activation_bits,
                                      input_bits=int(cfg["arch"]["input_bits"]))
        arch = allocate.ArchSpec.from_sizes(sizes, sparsities=rec.sparsities,
                                            input_bits=schema.input_bits)
        est = hwest.estimate(arch, schema, coeffs=coeffs)
        writer.writerow([rec.config_id, *rec.weight_bits, repr(rec.accuracy),
                         repr(rec.bops), est.dsps, est.luts, est.ffs, ""])
    path = os.path.join(out_dir, "report.csv")
    write_atomic(path, buf.getvalue())
    return EXIT_OK, [path], inputs


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
    "trace": ("trace", "seed"),
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
        p.add_argument("--seed", type=int, default=None,
                       help="override the command's seed")
        if name == "allocate":
            p.add_argument("--budget", type=float, default=None,
                           help="BOPs budget override")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=None,
                           help="worker threads for sweep configs")
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
        if args.seed is not None and args.command in _SEED_KEY:
            section, key = _SEED_KEY[args.command]
            cfg[section][key] = args.seed
        if getattr(args, "budget", None) is not None:
            cfg["allocation"]["budget"] = args.budget
        if getattr(args, "jobs", None) is not None:
            cfg["sweep"]["jobs"] = args.jobs
        out_dir = cfg["out"]
        os.makedirs(out_dir, exist_ok=True)
        code, artifacts, inputs = COMMANDS[args.command](cfg, out_dir)
        _write_manifest(args.command, cfg, out_dir, artifacts, inputs)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except nn.TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ir.IRError as exc:
        print(f"graph error: {exc}", file=sys.stderr)
        return EXIT_IR


if __name__ == "__main__":
    sys.exit(main())
