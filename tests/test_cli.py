import builtins
import csv
import dataclasses
import io
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from hessquant import allocate, cli, data, ir, nn, quantize


def write_config(tmp_path, **overrides):
    cfg = {
        "out": str(tmp_path / "out"),
        "data": {"n": 1200, "seed": 0, "separation": 1.8},
        "arch": {"sizes": [16, 12, 8, 5]},
        "train": {"epochs": 6, "l1": 1e-4, "seed": 0},
        "qat": {"epochs": 3, "seed": 0},
        "trace": {"k": 8, "seed": 0, "batch": 256},
        "allocation": {"budget": 160000},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg["out"]


def run(cmd, config, *extra):
    return cli.main([cmd, "--config", config, *extra])


def read_json(*parts):
    return json.loads(Path(*parts).read_text())


def copy_artifacts(src, dst, names):
    os.makedirs(dst, exist_ok=True)
    for name in names:
        shutil.copyfile(os.path.join(src, name), os.path.join(dst, name))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    config, out = write_config(tmp_path)
    for cmd in ("gen-data", "train", "trace", "allocate", "quantize",
                "export-ir", "run-ir"):
        assert run(cmd, config) == 0, cmd
    return tmp_path, config, out


def test_pipeline_writes_expected_artifacts(pipeline):
    _, _, out = pipeline
    for name in ("dataset.csv", "model.json", "history.json", "traces.json",
                 "allocation.json", "intmodel.json", "fqreport.json",
                 "graph.json", "ir_outputs.csv", "ir_report.json"):
        assert os.path.exists(os.path.join(out, name)), name


def test_manifests_record_config_and_hashes(pipeline):
    _, _, out = pipeline
    man = read_json(out, "manifest-train.json")
    assert man["command"] == "train"
    assert "model.json" in man["artifacts"]
    assert all(len(h) == 64 for h in man["artifacts"].values())
    assert man["versions"]["package"]
    assert "numpy" in man["versions"]
    # no wall-clock contamination
    assert "time" not in json.dumps(man).lower()


def test_rerun_is_byte_identical(pipeline, tmp_path):
    src_tmp, config, out = pipeline
    before = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            before[name] = fh.read()
    for cmd in ("gen-data", "train", "trace", "allocate", "quantize",
                "export-ir", "run-ir"):
        assert run(cmd, config) == 0
    for name, blob in before.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == blob, f"{name} changed between reruns"


def test_manifest_can_seed_a_new_run(pipeline, tmp_path):
    # the stored config in a manifest is a valid --config input
    _, config, out = pipeline
    man_path = os.path.join(out, "manifest-gen-data.json")
    new_out = str(tmp_path / "out2")
    assert cli.main(["gen-data", "--config", man_path, "--out", new_out]) == 0
    assert Path(out, "dataset.csv").read_bytes() == Path(new_out, "dataset.csv").read_bytes()


def test_run_ir_consumes_optimized_graph(pipeline):
    _, config, out = pipeline
    assert run("opt-ir", config) == 0
    report = read_json(out, "opt_report.json")
    assert [s["stage"] for s in report["stages"]] == ["input", "infer_shapes", "fold_constants"]
    counts = [s["nodes"] for s in report["stages"]]
    assert counts == sorted(counts, reverse=True)
    g = ir.load_graph(os.path.join(out, "graph_opt.json"))
    assert ir.validate(g) == []


def test_run_ir_logits_are_plain_floats_that_round_trip(pipeline):
    _, _, out = pipeline
    with open(os.path.join(out, "ir_outputs.csv")) as fh:
        lines = fh.read().splitlines()
    model, mean, std = nn.load_model(os.path.join(out, "model.json"))
    ds = data.standardize(data.ingest_csv(os.path.join(out, "dataset.csv")),
                          mean=mean, std=std)
    g = ir.load_graph(os.path.join(out, "graph.json"))
    want = ir.evaluate(g, {"x": ds.features})["logits"]
    got = [[float(cell) for cell in line.split(",")[2:]] for line in lines[1:]]
    assert got == want.tolist()


def test_estimate_and_report(pipeline, tmp_path):
    _, _, src_out = pipeline
    # a tiny sweep so report has input
    cfg2, out = write_config(tmp_path, sweep={"sample": 2, "epochs": 1})
    copy_artifacts(src_out, out, ("dataset.csv", "model.json", "allocation.json"))
    assert run("estimate", cfg2) == 0
    est = read_json(out, "estimate.json")
    assert est["dsps"] >= 0 and est["luts"] > 0
    assert cli.main(["sweep", "--config", cfg2]) == 0
    assert cli.main(["report", "--config", cfg2]) == 0
    lines = Path(out, "report.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + two sampled configs
    assert lines[0].split(",")[0] == "config_id"


def test_seed_flag_overrides_config(pipeline, tmp_path):
    _, config, out = pipeline
    alt = str(tmp_path / "alt")
    assert cli.main(["gen-data", "--config", config, "--seed", "9",
                     "--out", alt]) == 0
    assert Path(out, "dataset.csv").read_text() != Path(alt, "dataset.csv").read_text()
    man = read_json(alt, "manifest-gen-data.json")
    assert man["config"]["data"]["seed"] == 9


@pytest.mark.parametrize("command", ["trace", "allocate", "export-ir", "run-ir"])
def test_seed_flag_is_refused_by_commands_without_a_seed(tmp_path, capsys, command):
    config, _ = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", config, "--seed", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_budget_flag_overrides_config(pipeline, tmp_path):
    _, config, out = pipeline
    alt = str(tmp_path / "alt-budget")
    # copy the upstream artifacts the command needs
    copy_artifacts(out, alt, ("dataset.csv", "model.json", "traces.json"))
    assert cli.main(["allocate", "--config", config, "--out", alt,
                     "--budget", "1e9"]) == 0
    doc = read_json(alt, "allocation.json")
    assert doc["feasible"] is True
    assert doc["budget"] == 1e9
    man = read_json(alt, "manifest-allocate.json")
    assert man["config"]["allocation"]["budget"] == 1e9


# --- exit codes ---------------------------------------------------------------

def test_exit_2_on_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["train", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"nonsense": 1}))
    assert cli.main(["train", "--config", str(unknown)]) == 2


def test_exit_2_on_missing_config_file(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2


def test_exit_3_on_missing_upstream_artifact(tmp_path):
    config, _ = write_config(tmp_path)
    # train before gen-data: the dataset does not exist yet
    assert cli.main(["train", "--config", config]) == 3


def test_exit_3_on_corrupt_dataset(tmp_path):
    config, out = write_config(tmp_path)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "dataset.csv"), "w") as fh:
        fh.write("only,three,columns\n")
    assert cli.main(["train", "--config", config]) == 3


MODEL_WITH_THREE_MEANS = json.dumps({
    "format": "hessquant-model", "version": 1, "sizes": [16, 5], "activations": ["softmax"],
    "params": [0.0] * 85, "standardization": {"mean": [0.0] * 3, "std": [1.0] * 3}})


def truncated_intmodel(out):
    doc = read_json(out, "intmodel.json")
    doc["layers"] = doc["layers"][:2]
    return json.dumps(doc)


def model_with_a_nan(where):
    """A model.json whose first entry of where (a path of keys) is NaN."""
    def tamper(out):
        doc = read_json(out, "model.json")
        node = doc
        for key in where:
            node = node[key]
        node[0] = float("nan")
        return json.dumps(doc)
    return tamper


def intmodel_with_other_input_bits(out):
    doc = read_json(out, "intmodel.json")
    doc["input"]["bits"] = doc["schema"]["input_bits"] - 1
    return json.dumps(doc)


def intmodel_with_a_zero_scale(where):
    """An intmodel.json whose scale at where (a path of keys) is 0 / 2^0."""
    def tamper(out):
        doc = read_json(out, "intmodel.json")
        node = doc
        for key in where:
            node = node[key]
        node.update(mantissa=0, shift=0)
        return json.dumps(doc)
    return tamper


def intmodel_with_layer_entry(layer, key, value):
    """An intmodel.json whose layer entry key is value."""
    def tamper(out):
        doc = read_json(out, "intmodel.json")
        doc["layers"][layer][key] = value
        return json.dumps(doc)
    return tamper


def intmodel_with_another_output_scale(out):
    """An intmodel.json whose stored output scale is half the derived one."""
    doc = read_json(out, "intmodel.json")
    doc["output_scale"]["shift"] += 1
    return json.dumps(doc)


def graph_with_tensors_as_a_list(out):
    doc = read_json(out, "graph.json")
    doc["tensors"] = []
    return json.dumps(doc)


def graph_with_signedness_as_a_string(out):
    doc = read_json(out, "graph.json")
    info = next(t for t in doc["tensors"].values() if t["kind"] == "int")
    info["signed"] = "false"
    return json.dumps(doc)


@pytest.mark.parametrize("command, name, text, upstream", [
    ("quantize", "model.json", '{"format": "nope"}', ()),
    ("trace", "model.json", '{"format": "hessquant-model"', ()),
    ("trace", "model.json", "[]", ()),
    ("trace", "model.json", MODEL_WITH_THREE_MEANS, ("dataset.csv",)),
    ("trace", "model.json", model_with_a_nan(("params",)), ("dataset.csv",)),
    ("allocate", "model.json", model_with_a_nan(("standardization", "std")),
     ("traces.json",)),
    ("allocate", "traces.json", '{"format": "hessquant-traces", "version": 2}', ("model.json",)),
    ("quantize", "allocation.json",
     '{"format": "hessquant-allocation", "version": 1, "weight_bits": 4}', ("model.json",)),
    ("estimate", "allocation.json",
     '{"format": "hessquant-allocation", "version": 1, "weight_bits": [40, 8, 8], '
     '"activation_bits": [8, 8, 8], "omega": 0, "bops": 0, "feasible": true, '
     '"budget": 1}', ()),
    ("export-ir", "intmodel.json",
     '{"format": "hessquant-integer-model", "version": 1, "schema": []}', ()),
    ("export-ir", "intmodel.json", truncated_intmodel, ()),
    ("export-ir", "intmodel.json", intmodel_with_other_input_bits, ()),
    ("export-ir", "intmodel.json", intmodel_with_a_zero_scale(("input",)), ()),
    ("export-ir", "intmodel.json",
     intmodel_with_a_zero_scale(("layers", 1, "weight_scale")), ()),
    ("export-ir", "intmodel.json", intmodel_with_a_zero_scale(("layers", 0, "requant")), ()),
    ("export-ir", "intmodel.json", intmodel_with_a_zero_scale(("output_scale",)), ()),
    ("export-ir", "intmodel.json", intmodel_with_another_output_scale, ()),
    ("export-ir", "intmodel.json", intmodel_with_layer_entry(0, "requant", None), ()),
    ("export-ir", "intmodel.json", intmodel_with_layer_entry(0, "act_exp", None), ()),
    ("export-ir", "intmodel.json",
     intmodel_with_layer_entry(-1, "requant", {"mantissa": 3, "shift": 2}), ()),
    ("run-ir", "graph.json", '{"version": 1}', ()),
    ("opt-ir", "graph.json", graph_with_tensors_as_a_list, ()),
    ("run-ir", "graph.json", graph_with_signedness_as_a_string, ()),
    ("report", "sweep.csv", "config_id,b_w_0\nx,4\n", ()),
    ("trace", "dataset.csv", "0,1,2\n", ("model.json",)),
    ("run-ir", "dataset.csv", "0,1,2\n", ("graph.json", "model.json")),
], ids=["model-format", "model-truncated", "model-not-an-object", "model-three-means",
        "model-nan", "model-nan-std", "traces", "allocation", "allocation-bits-40",
        "intmodel", "intmodel-two-of-three", "intmodel-input-bits",
        "intmodel-zero-scale-input", "intmodel-zero-scale-weight", "intmodel-zero-scale-requant",
        "intmodel-zero-scale-output", "intmodel-output-scale-mismatch", "intmodel-hidden-without-requant",
        "intmodel-hidden-without-act-exp", "intmodel-last-with-requant", "graph",
        "graph-tensors-not-an-object", "graph-signed-a-string", "sweep", "dataset-at-trace", "dataset-at-run-ir"])
def test_exit_3_on_a_malformed_artifact(tmp_path, pipeline, capsys,
                                        command, name, text, upstream):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, upstream)
    Path(alt_out, name).write_text(text if isinstance(text, str) else text(out))
    capsys.readouterr()
    assert run(command, config) == 3
    assert f"malformed artifact {os.path.join(alt_out, name)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trace", "run-ir"])
@pytest.mark.parametrize("params", [lambda p: 5, lambda p: [p]], ids=["a-number", "nested"])
def test_exit_3_on_a_model_whose_params_are_not_a_flat_list(tmp_path, pipeline, capsys,
                                                           command, params):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "graph.json"))
    doc = read_json(out, "model.json")
    doc["params"] = params(doc["params"])
    Path(alt_out, "model.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(command, config) == 3
    assert "params must be a flat list" in capsys.readouterr().err


def test_run_ir_exits_3_on_a_graph_without_a_logits_output(tmp_path, pipeline, capsys):
    # logits stays among the graph's tensors, so only its outputs tell
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json"))
    doc = read_json(out, "graph.json")
    doc["outputs"] = ["probabilities"]
    Path(alt_out, "graph.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("run-ir", config) == 3
    assert "has no logits output" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(alt_out, "ir_outputs.csv"))


def with_field(name, keys, value):
    """The text of the pipeline's artifact `name` with the field at keys (a
    path of keys) set to value, or deleted when value is None; a float
    value is written as the token json writes for it, such as Infinity."""
    def tamper(out):
        doc = read_json(out, name)
        node = doc
        for key in keys[:-1]:
            node = node[key]
        if value is None:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        return json.dumps(doc)
    return tamper


@pytest.mark.parametrize("command, name, keys, value, upstream, message", [
    ("allocate", "traces.json", ("avg_traces", 0), float("inf"), ("model.json",),
     "Infinity is not a finite JSON number"),
    ("allocate", "traces.json", ("avg_traces", 0), "Infinity", ("model.json",),
     "traces contains non-finite values"),
    ("opt-ir", "graph.json", ("initializers", "out_scale", "data", 0), float("inf"), (),
     "Infinity is not a finite JSON number"),
    ("run-ir", "graph.json", ("initializers", "w0_scale", "data", 0), float("nan"),
     ("dataset.csv", "model.json"), "NaN is not a finite JSON number"),
    ("export-ir", "intmodel.json", ("layers", 0, "q_weights", 0, 0), -1e400, (),
     "-Infinity is not a finite JSON number"),
    ("trace", "model.json", ("version",), 2, ("dataset.csv",),
     "unsupported hessquant-model version 2"),
    ("allocate", "traces.json", ("version",), 3, ("model.json",),
     "unsupported hessquant-traces version 3"),
    ("quantize", "allocation.json", ("version",), "1", ("model.json", "dataset.csv"),
     "unsupported hessquant-allocation version '1'"),
    ("export-ir", "intmodel.json", ("version",), None, (),
     "unsupported hessquant-integer-model version None"),
], ids=["traces-infinity", "traces-infinity-as-a-string", "graph-infinity", "graph-nan", "intmodel-minus-infinity",
        "model-version-2", "traces-version-3", "allocation-version-a-string",
        "intmodel-no-version"])
def test_exit_3_on_a_number_that_is_not_finite_or_an_unknown_version(
        tmp_path, pipeline, capsys, command, name, keys, value, upstream, message):
    # both used to pass the reader: a non-finite number then crashed the
    # command while it wrote its artifact
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, upstream)
    Path(alt_out, name).write_text(with_field(name, keys, value)(out))
    capsys.readouterr()
    assert run(command, config) == 3
    err = capsys.readouterr().err
    assert f"malformed artifact {os.path.join(alt_out, name)}" in err and message in err
    assert not os.path.exists(os.path.join(alt_out, f"manifest-{command}.json"))


@pytest.mark.parametrize("command", ["opt-ir", "run-ir"])
@pytest.mark.parametrize("bits", [-1, 1, ir.MAX_TENSOR_BITS + 1, 10 ** 30])
def test_exit_3_on_a_declared_width_outside_the_cap(tmp_path, pipeline, capsys, command,
                                                    bits):
    # -1 used to pass opt-ir and end run-ir in "negative shift count"
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json"))
    Path(alt_out, "graph.json").write_text(
        with_field("graph.json", ("tensors", "b0", "bits"), bits)(out))
    capsys.readouterr()
    assert run(command, config) == 3
    assert f"tensors[b0]: bits {bits} outside 2..{ir.MAX_TENSOR_BITS}" in capsys.readouterr().err


def test_a_31_bit_schema_with_a_96_bit_accumulator_runs_through_the_ir(tmp_path, pipeline):
    # its bias and accumulator tensors are declared past 32 bits, within the cap
    _, _, out = pipeline
    config, alt_out = write_config(
        tmp_path, quantize={"accumulator_bits": 96}, qat={"epochs": 1},
        schema={"weight_bits": [31] * 3, "activation_bits": [31] * 3, "input_bits": 31})
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json"))
    for command in ("quantize", "export-ir", "opt-ir", "run-ir"):
        assert run(command, config) == 0, command
    widths = {name: t["bits"] for name, t in read_json(alt_out, "graph.json")["tensors"].items()
              if t["kind"] == "int"}
    assert quantize.MAX_BITS < max(widths.values()) <= ir.MAX_TENSOR_BITS
    assert widths["accb0"] > 64


@pytest.mark.parametrize("command", ["quantize", "estimate"])
@pytest.mark.parametrize("keys", [("weight_bits", 0), ("input_bits",)],
                         ids=["weight-bits", "input-bits"])
@pytest.mark.parametrize("width", ["4", 4.0, True])
def test_exit_3_on_an_allocation_width_that_is_not_an_integer(tmp_path, pipeline, capsys,
                                                             command, keys, width):
    # "4" used to load and end quantize in a TypeError from the cost model
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json"))
    Path(alt_out, "allocation.json").write_text(
        with_field("allocation.json", keys, width)(out))
    capsys.readouterr()
    assert run(command, config) == 3
    err = capsys.readouterr().err
    assert f"malformed artifact {os.path.join(alt_out, 'allocation.json')}" in err
    assert f"bit width {width!r} is not an integer" in err


@pytest.mark.parametrize("command", ["trace", "allocate", "quantize", "run-ir", "estimate"])
def test_exit_3_on_a_model_with_another_activation(tmp_path, pipeline, capsys, command):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "traces.json", "allocation.json",
                                  "graph.json"))
    doc = read_json(out, "model.json")
    doc["activations"][1] = "tanh"
    Path(alt_out, "model.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(command, config) == 3
    assert "activations must be ['relu', 'relu', 'softmax']" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, learning_rate",
                         [("train", "train", 1e9), ("quantize", "qat", 1e300)],
                         ids=["train", "quantize"])
def test_exit_4_on_divergence(tmp_path, pipeline, capsys, command, section, learning_rate):
    # at 1e300 QAT's weight ranges leave the finite floats before its loss does
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, **{section: {
        "learning_rate": learning_rate, "epochs": 3}})
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "allocation.json"))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert run(command, config) == 4
    assert "training diverged: " in capsys.readouterr().err


def test_exit_5_on_infeasible_budget_still_writes_solution(tmp_path, pipeline):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, allocation={"budget": 10})
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "traces.json"))
    assert cli.main(["allocate", "--config", config]) == 5
    doc = read_json(alt_out, "allocation.json")
    assert doc["feasible"] is False
    assert doc["bops"] > 10
    assert "allocation.json" in read_json(alt_out, "manifest-allocate.json")["artifacts"]


def test_a_failed_run_ir_leaves_the_last_manifest_alone(tmp_path, pipeline):
    # exit 6 writes no artifact, so the manifest of the run whose outputs are
    # still in out/ must stay as it was
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "graph.json"))
    assert run("run-ir", config) == 0
    before = Path(alt_out, "manifest-run-ir.json").read_bytes()
    doc = read_json(alt_out, "graph.json")
    next(n for n in doc["nodes"] if n["output"] == "h0")["attrs"]["bits"] = 70
    Path(alt_out, "graph.json").write_text(json.dumps(doc))
    assert run("run-ir", config) == 6
    assert Path(alt_out, "manifest-run-ir.json").read_bytes() == before


@pytest.mark.parametrize("allocation, flags", [
    ({}, ["--budget", "nan"]),
    ({}, ["--budget", "-5"]),
    ({}, ["--budget", "inf"]),
    ({"candidates": []}, []),
    ({"candidates": [40]}, []),
    ({"candidates": ["a"]}, []),
    ({"candidates": [0, 4]}, []),
], ids=["budget-nan", "budget-negative", "budget-inf", "no-candidates", "candidate-40",
        "candidate-not-a-number", "candidate-0"])
def test_exit_2_on_a_bad_allocation_section(tmp_path, pipeline, capsys,
                                            allocation, flags):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, allocation=allocation)
    copy_artifacts(out, alt_out, ("model.json", "traces.json"))
    capsys.readouterr()
    assert cli.main(["allocate", "--config", config, *flags]) == 2
    assert "bad allocation section" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(alt_out, "allocation.json"))


@pytest.mark.parametrize("overrides, key", [
    ({"allocation": {"coupling_offset": 2}}, "allocation.coupling_offset"),
    ({"sweep": {"candidates": [4, 8]}}, "sweep.candidates"),
    ({"train": {"optimizer": "sgd"}}, "train.optimizer"),
    ({"qat": {"optimizer": "sgd"}}, "qat.optimizer"),
    ({"sweep": {"optimizer": "sgd"}}, "sweep.optimizer"),
    ({"sweep": {"batch_size": 32}}, "sweep.batch_size"),
    ({"sweep": {"learning_rate": 2e-3}}, "sweep.learning_rate"),
    ({"qat": {"l1": 1e-4}, "sweep": {"l1": 0.0}}, "sweep.l1"),
], ids=["coupling-offset-2", "sweep-candidates-differ", "train-optimizer-sgd",
        "qat-optimizer-sgd", "sweep-optimizer-sgd", "sweep-batch-size-differs",
        "sweep-learning-rate-differs", "sweep-l1-differs-from-qat"])
def test_exit_2_on_a_removed_config_key_at_another_value(tmp_path, pipeline, capsys,
                                                         overrides, key):
    # at another value than the one now fixed, the key would have changed results
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, **overrides)
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "traces.json"))
    capsys.readouterr()
    for cmd in ("allocate", "sweep"):
        assert run(cmd, config) == 2, cmd
        assert f"{key} was removed" in capsys.readouterr().err
    assert sorted(os.listdir(alt_out)) == ["dataset.csv", "model.json", "traces.json"]


def test_a_manifest_that_still_holds_the_removed_keys_reruns_byte_identically(tmp_path,
                                                                            pipeline):
    # manifests written before allocation.coupling_offset, sweep.candidates,
    # the optimizer keys and sweep's own training keys were removed embed the
    # default config with those keys at their defaults; trace.k, trace.seed
    # and sweep.jobs load at any value.  All are dropped.
    _, _, out = pipeline
    alt_out = str(tmp_path / "out")
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "traces.json"))
    for cmd in ("allocate", "sweep"):
        assert cli.main([cmd, "--out", alt_out]) == 0, cmd
        manifest = Path(alt_out, f"manifest-{cmd}.json")
        doc = json.loads(manifest.read_text())
        names = [manifest.name, *doc["artifacts"]]
        before = {name: Path(alt_out, name).read_bytes() for name in names}
        doc["config"]["allocation"]["coupling_offset"] = 3
        doc["config"]["sweep"].update(candidates=[4, 5, 6, 7, 8], jobs=3, batch_size=64,
                                      learning_rate=1e-3, l1=0.0, optimizer="adam")
        doc["config"]["train"]["optimizer"] = doc["config"]["qat"]["optimizer"] = "adam"
        doc["config"]["trace"].update(k=17, seed=5)
        older = tmp_path / f"older-manifest-{cmd}.json"
        older.write_text(json.dumps(doc))
        assert cli.main([cmd, "--config", str(older)]) == 0, cmd
        assert {name: Path(alt_out, name).read_bytes() for name in names} == before, cmd


def test_every_retired_key_names_a_section_that_no_longer_has_it():
    for name in cli.RETIRED_KEYS:
        section, key = name.split(".")
        assert isinstance(cli.DEFAULT_CONFIG[section], dict), name
        assert key not in cli.DEFAULT_CONFIG[section], name


def test_sweep_trains_with_the_qat_settings_but_its_own_epochs_and_seed(tmp_path, pipeline,
                                                                         monkeypatch):
    # the retired sweep keys load at the qat section's values, not at defaults
    recipe = {"batch_size": 32, "learning_rate": 2e-3, "l1": 1e-4}
    config, alt_out = write_config(tmp_path, qat=recipe,
                                   sweep={**recipe, "epochs": 2, "seed": 5, "sample": 1})
    copy_artifacts(pipeline[2], alt_out, ("dataset.csv",))
    seen = []
    monkeypatch.setattr(allocate, "sweep",
                        lambda arch, candidates, data, cfg, **kw: seen.append(cfg) or [])
    assert run("sweep", config) == 0
    assert seen == [nn.TrainConfig(epochs=2, seed=5, **recipe)]
    assert sorted(read_json(alt_out, "manifest-sweep.json")["config"]["sweep"]) == [
        "epochs", "sample", "seed"]


def test_allocate_sweep_and_the_schema_section_couple_activations_alike(tmp_path, pipeline):
    # allocation.json, sweep.csv's b_a_* columns and the activations a schema
    # section implies all follow quantize.coupled_width; candidate 30 puts
    # them at the MAX_BITS cap
    _, _, out = pipeline
    config, alt_out = write_config(
        tmp_path, allocation={"budget": 1e12, "candidates": [4, 30]},
        sweep={"sample": 3, "epochs": 1}, estimate={"source": "schema"},
        schema={"weight_bits": [4, 30, 5]})
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "traces.json"))
    for cmd in ("allocate", "sweep", "estimate"):
        assert run(cmd, config) == 0, cmd
    coupled = []
    alloc = read_json(alt_out, "allocation.json")
    coupled.append((alloc["weight_bits"], alloc["activation_bits"]))
    with open(os.path.join(alt_out, "sweep.csv")) as fh:
        for row in csv.DictReader(fh):
            coupled.append(([int(row[f"b_w_{i}"]) for i in range(3)],
                            [int(row[f"b_a_{i}"]) for i in range(3)]))
    layers = read_json(alt_out, "estimate.json")["layers"]
    coupled.append(([4, 30], [l["act_bits_in"] for l in layers[1:]]))
    assert len(coupled) == 5
    for weight_bits, activation_bits in coupled:
        assert activation_bits == [quantize.coupled_width(b) for b in weight_bits]
    assert alloc["activation_bits"] == [32, 32, 32]


@pytest.mark.parametrize("sizes, tensor", [([16, 8, 8, 3], "logits"), ([12, 8, 8, 5], "x")],
                         ids=["three-classes", "twelve-inputs"])
def test_run_ir_exits_3_on_a_graph_for_another_model(tmp_path, pipeline, capsys,
                                                     sizes, tensor):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json"))
    rng = np.random.default_rng(0)
    calib = data.Dataset(features=rng.normal(size=(64, sizes[0])),
                         labels=rng.integers(0, sizes[-1], size=64))
    schema = quantize.QuantSchema.coupled((6, 6, 6))
    fq = quantize.calibrate_fake_quant(nn.mlp(sizes, seed=0), schema, calib)
    ir.save_graph(ir.export_graph(quantize.lower(fq)), os.path.join(alt_out, "graph.json"))
    capsys.readouterr()
    assert run("run-ir", config) == 3
    assert f"has {tensor} width" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(alt_out, "ir_outputs.csv"))


@pytest.mark.parametrize("command, section, value, message", [
    ("sweep", "sweep", {"sample": "x"}, 'sweep.sample must be an integer or "all" or null'),
    ("sweep", "allocation", {"candidates": ["a"]}, "allocation.candidates[0] must be an integer"),
    ("sweep", "allocation", {"candidates": [4, 40]}, "bit width 40 outside 2..32"),
    ("sweep", "allocation", {"candidates": []}, "candidates must not be empty"),
    ("gen-data", "data", {"n": "x"}, 'data.n must be an integer, got "x"'),
    ("train", "data", {"val_fraction": 2}, "val_fraction must be in (0, 1)"),
    ("train", "arch", {"sizes": [16, "z", 5]}, "arch.sizes[1] must be an integer"),
    ("allocate", "arch", {"input_bits": "x"}, "arch.input_bits must be an integer"),
    ("quantize", "quantize", {"accumulator_bits": None},
     "quantize.accumulator_bits must be an integer, got null"),
    # wrong types, refused at load by every command
    ("train", "train", {"epochs": 2.7}, "train.epochs must be an integer, got 2.7"),
    ("train", "train", {"epochs": True}, "train.epochs must be an integer, got true"),
    ("gen-data", "data", {"separation": "1.5"},
     'data.separation must be a finite number, got "1.5"'),
    ("gen-data", "allocation", {"budget": "30"},
     'allocation.budget must be a finite number, got "30"'),
    ("allocate", "allocation", {"budget": float("nan")},
     "allocation.budget must be a finite number, got NaN"),
    ("allocate", "allocation", {"candidates": [4, True]},
     "allocation.candidates[1] must be an integer, got true"),
    ("estimate", "estimate", {"coeffs": 5}, "estimate.coeffs must be null or a string, got 5"),
    ("run-ir", "run_ir", {"graph": None}, "run_ir.graph must be a string, got null"),
    ("trace", "trace", [1024], "trace must be an object, got [1024]"),
    ("quantize", "schema", {"weight_bits": [4, 4, 4], "input_bits": "16"},
     'schema.input_bits must be an integer or null, got "16"'),
    ("quantize", "schema", {"weight_bits": 4}, "schema.weight_bits must be a list, got 4"),
], ids=["sweep-sample", "sweep-candidates", "sweep-candidate-40", "sweep-no-candidates",
        "data-n", "data-val-fraction", "arch-sizes", "arch-input-bits",
        "quantize-accumulator-bits", "train-epochs-fraction", "train-epochs-bool",
        "data-separation-string", "allocation-budget-string-at-gen-data",
        "allocation-budget-nan", "allocation-candidate-bool",
        "estimate-coeffs-number", "run-ir-graph-null", "trace-not-an-object",
        "schema-input-bits-string", "schema-weight-bits-not-a-list"])
def test_exit_2_on_a_bad_config_value(tmp_path, pipeline, capsys, command, section, value,
                                      message):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, **{section: value})
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "traces.json",
                                  "allocation.json", "graph.json"))
    capsys.readouterr()
    assert run(command, config) == 2
    err = capsys.readouterr().err
    assert f"bad {section} section: " in err and message in err
    assert not os.path.exists(os.path.join(alt_out, f"manifest-{command}.json"))


@pytest.mark.parametrize("section", [name for name, sec in cli.DEFAULT_CONFIG.items()
                                     if isinstance(sec, dict)] + ["schema"])
def test_exit_2_on_a_misspelled_config_key(tmp_path, capsys, section):
    # the section's first key, less its last letter
    key = next(iter(cli.SCHEMA_KEYS if section == "schema" else cli.DEFAULT_CONFIG[section]))
    config, out = write_config(tmp_path, **{section: {key[:-1]: 1}})
    for command in ("gen-data", "report"):
        assert run(command, config) == 2, command
        assert f"unknown config keys: {section}.{key[:-1]}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_a_config_value_loads_as_its_default_type(tmp_path):
    # an integer budget is a float, an integral float epoch count an integer;
    # the manifest records the values that ran
    config, out = write_config(tmp_path, allocation={"budget": 160000},
                               train={"epochs": 6.0})
    assert run("gen-data", config) == 0
    resolved = read_json(out, "manifest-gen-data.json")["config"]
    assert repr(resolved["allocation"]["budget"]) == "160000.0"
    assert repr(resolved["train"]["epochs"]) == "6"
    assert "k" not in resolved["trace"] and "seed" not in resolved["trace"]


@pytest.mark.parametrize("batch", [0, -5])
def test_exit_2_on_a_bad_trace_batch(tmp_path, pipeline, capsys, batch):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, trace={"batch": batch})
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json"))
    capsys.readouterr()
    assert run("trace", config) == 2
    assert "bad trace section" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(alt_out, "traces.json"))


def test_exit_6_on_invalid_graph(tmp_path, pipeline):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json"))
    # corrupt the graph: point a node at a tensor that never exists
    doc = read_json(out, "graph.json")
    doc["nodes"][3]["inputs"][0] = "h777"
    Path(alt_out, "graph.json").write_text(json.dumps(doc))
    assert cli.main(["run-ir", "--config", config]) == 6


@pytest.mark.parametrize("command", ["opt-ir", "run-ir"])
def test_exit_6_on_a_matmul_without_a_static_inner_dimension(tmp_path, pipeline, capsys,
                                                             command):
    # 8-bit codes, both inner dimensions dynamic: the product width has no bound
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json"))
    g = ir.IRGraph(
        nodes=[ir.IRNode("MatMul", ("x", "w"), "logits", {})],
        inputs=["x", "w"], outputs=["logits"],
        tensors={"x": ir.TensorInfo((-1, -1), "int", bits=8, signed=True),
                 "w": ir.TensorInfo((-1, 4), "int", bits=8, signed=True)},
        initializers={})
    ir.save_graph(g, os.path.join(alt_out, "graph.json"))
    capsys.readouterr()
    assert run(command, config) == 6
    assert "node logits: integer MatMul" in capsys.readouterr().err


def _drop_shift(node, inits):
    del node["attrs"]["shift"]


def _even_mantissa(node, inits):
    node["attrs"]["mantissa"] = 2 * node["attrs"]["mantissa"]


def _wide_codes(node, inits):
    node["attrs"]["bits"] = 40


def _real_input(node, inits):
    node["inputs"] = ["x"]


def _set_attrs(**attrs):
    return lambda node, inits: node["attrs"].update(attrs)


def _drop_bits(node, inits):
    del node["attrs"]["bits"]


def _zero_scale(node, inits):
    inits[node["inputs"][1]]["data"] = [0.0]


@pytest.mark.parametrize("command", ["opt-ir", "run-ir"])
@pytest.mark.parametrize("node, tamper, message", [
    ("h1", _drop_shift, "missing attribute shift"),
    ("h1", _even_mantissa, "odd"),
    ("h1", _wide_codes, "width 40"),
    ("h1", _real_input, "needs an integer input"),
    ("h0", _drop_bits, "missing attribute bits"),
    ("h0", _set_attrs(bits="abc"), "bits must be an integer"),
    ("h0", _set_attrs(bits=1), "width 1 outside"),
    ("h0", _set_attrs(bits=33), "width 33 outside"),
    ("h0", _set_attrs(bits=70), "width 70 outside"),
    ("h0", _set_attrs(signed=0), "signed a boolean"),
    ("h0", _set_attrs(rounding="weird"), "unknown rounding mode 'weird'"),
    ("h0", _zero_scale, "scale must be positive and finite"),
], ids=["missing-attribute", "scale", "width", "real-input", "quant-missing-bits",
        "quant-bits-abc", "quant-bits-1", "quant-bits-33", "quant-bits-70",
        "quant-signed", "quant-rounding", "quant-zero-scale"])
def test_exit_6_on_a_malformed_requant(tmp_path, pipeline, capsys, command, node, tamper,
                                       message):
    # h1 is the first Requant node, h0 the input Quant
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json"))
    doc = read_json(out, "graph.json")
    target = next(n for n in doc["nodes"] if n["output"] == node)
    tamper(target, doc["initializers"])
    Path(alt_out, "graph.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(command, config) == 6
    err = capsys.readouterr().err
    assert f"node {node}: {target['kind']}" in err and message in err


def _split_scale(doc):
    # the older split-scale template, its two scale Muls fused: each Requant
    # becomes Mul(m / 2^c) -> Relu -> Quant(half_up) at scale 1
    doc["initializers"]["one"] = {"kind": "real", "shape": [], "data": [1.0]}
    nodes = []
    for node in doc["nodes"]:
        if node["kind"] != "Requant":
            nodes.append(node)
            continue
        h, attrs = node["output"], node["attrs"]
        doc["initializers"][f"s_{h}"] = {"kind": "real", "shape": [],
                                         "data": [attrs["mantissa"] / 2 ** attrs["shift"]]}
        nodes += [{"kind": "Mul", "inputs": [node["inputs"][0], f"s_{h}"],
                   "output": f"scaled_{h}", "attrs": {}},
                  {"kind": "Relu", "inputs": [f"scaled_{h}"], "output": f"relu_{h}",
                   "attrs": {}},
                  {"kind": "Quant", "inputs": [f"relu_{h}", "one", "zero"], "output": h,
                   "attrs": {"bits": attrs["bits"], "signed": False, "narrow": False,
                             "rounding": "half_up"}}]
    doc["nodes"] = nodes


def _half_up_input(doc):
    next(n for n in doc["nodes"] if n["output"] == "h0")["attrs"]["rounding"] = "half_up"


@pytest.mark.parametrize("command", ["opt-ir", "run-ir"])
@pytest.mark.parametrize("tamper, message", [
    (_split_scale, "node relu_h1: unknown operator Relu"),
    (_half_up_input, "node h0: Quant unknown rounding mode 'half_up'"),
], ids=["split-scale", "half-up"])
def test_exit_6_on_the_split_scale_template(tmp_path, pipeline, capsys, command, tamper,
                                            message):
    # the IR has no Relu node and no half_up rounding; the refused run writes
    # nothing, so the previous manifest stays in place
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "graph.json"))
    assert run(command, config) == 0
    manifest = Path(alt_out, f"manifest-{command}.json")
    before = manifest.read_bytes()
    doc = read_json(out, "graph.json")
    tamper(doc)
    Path(alt_out, "graph.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(command, config) == 6
    assert message in capsys.readouterr().err
    assert manifest.read_bytes() == before


def test_exit_2_on_lowering_error(tmp_path, pipeline, capsys, monkeypatch):
    # an accumulator too narrow for the schema is refused before QAT runs
    _, _, out = pipeline
    config, alt_out = write_config(
        tmp_path, quantize={"accumulator_bits": 8})
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "allocation.json"))

    def no_qat(*args, **kwargs):
        raise AssertionError("QAT ran on a schema that cannot lower")

    monkeypatch.setattr(quantize, "qat_train", no_qat)
    capsys.readouterr()
    assert cli.main(["quantize", "--config", config]) == 2
    assert "layer 0: accumulator needs" in capsys.readouterr().err


def test_exit_2_when_a_scale_rounds_to_zero(tmp_path, pipeline, capsys):
    # 32-bit layer-0 weights shrunk a thousandfold: its activation range
    # needs a scale under 2^-31, the clamp of activation exponents, so its
    # multiplier w_scale * in_scale / 2^-31 needs a shift past 31
    _, _, out = pipeline
    config, alt_out = write_config(
        tmp_path, quantize={"source": "schema", "accumulator_bits": 96},
        schema={"weight_bits": [32, 32, 32], "activation_bits": [32, 32, 32],
                "input_bits": 32},
        qat={"epochs": 1})
    copy_artifacts(out, alt_out, ("dataset.csv",))
    model, mean, std = nn.load_model(os.path.join(out, "model.json"))
    model.layers[0].weights *= 1e-3
    nn.save_model(model, os.path.join(alt_out, "model.json"), mean, std)
    capsys.readouterr()
    assert cli.main(["quantize", "--config", config]) == 2
    assert ("layer 0: requantization multiplier underflowed"
            in capsys.readouterr().err)


def _huge_layer1_weights(model):
    model.layers[1].weights *= 1e10


def _small_layer1_weights(model):
    model.layers[1].weights *= 0.25 / np.max(np.abs(model.layers[1].weights))


@pytest.mark.parametrize("tamper, bits, accumulator_bits", [
    (None, 24, 80), (_small_layer1_weights, 32, 96), (_huge_layer1_weights, 8, 32),
], ids=["output-below-2^-31", "weights-below-2^-31", "weights-past-2^24"])
def test_quantize_lowers_scales_past_the_old_dyadic_range(tmp_path, pipeline, tamper, bits,
                                                          accumulator_bits):
    # a 24-bit output scale, a 32-bit layer whose weights stay below 0.5 and
    # 8-bit weights near 1e10 all need real scales that no 24-bit mantissa at
    # a shift in 0..31 holds; the chain runs on with them
    _, _, out = pipeline
    config, alt_out = write_config(
        tmp_path, quantize={"source": "schema", "accumulator_bits": accumulator_bits},
        schema={"weight_bits": [bits] * 3, "activation_bits": [bits] * 3,
                "input_bits": 16},
        qat={"epochs": 1})
    copy_artifacts(out, alt_out, ("dataset.csv",))
    model, mean, std = nn.load_model(os.path.join(out, "model.json"))
    if tamper is not None:
        tamper(model)
    nn.save_model(model, os.path.join(alt_out, "model.json"), mean, std)
    for cmd in ("quantize", "export-ir", "run-ir"):
        assert cli.main([cmd, "--config", config]) == 0, cmd


def _huge_layer0_biases(model):
    model.layers[0].bias[:] = 1e4


def _vast_layer1_weights(model):
    model.layers[1].weights *= 1e21


@pytest.mark.parametrize("tamper, message", [
    (_vast_layer1_weights, "layer 1: requantization multiplier overflowed"),
    (_huge_layer0_biases, "layer 0: a bias code does not fit the 32-bit accumulator"),
], ids=["multiplier-past-its-budget", "bias-code-past-the-accumulator"])
def test_exit_2_when_a_scale_or_a_bias_does_not_fit(tmp_path, pipeline, capsys,
                                                    tamper, message):
    # 8-bit weights near 1e21 outgrow the widest activation scale, 2^31, so
    # layer 1's multiplier needs more than its 24-bit mantissa budget at
    # shift 0; a bias of 1e4 at the scale of 8-bit weights times 16-bit
    # inputs is a code past 2^31
    _, _, out = pipeline
    config, alt_out = write_config(
        tmp_path, quantize={"source": "schema", "accumulator_bits": 32},
        schema={"weight_bits": [8, 8, 8], "activation_bits": [8, 8, 8], "input_bits": 16},
        qat={"epochs": 1})
    copy_artifacts(out, alt_out, ("dataset.csv",))
    model, mean, std = nn.load_model(os.path.join(out, "model.json"))
    tamper(model)
    nn.save_model(model, os.path.join(alt_out, "model.json"), mean, std)
    capsys.readouterr()
    assert cli.main(["quantize", "--config", config]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(os.path.join(alt_out, "intmodel.json"))


def test_estimate_falls_back_to_the_schema_section(tmp_path):
    # no allocation.json: the configured schema stands in, as at quantize
    config, out = write_config(tmp_path, schema={"weight_bits": [4, 6, 8]})
    assert run("estimate", config) == 0
    est = read_json(out, "estimate.json")
    assert [l["weight_bits"] for l in est["layers"]] == [4, 6, 8]
    assert read_json(out, "manifest-estimate.json")["inputs"] == {}


@pytest.mark.parametrize("command", ["quantize", "estimate"])
def test_exit_2_on_an_unknown_schema_source(tmp_path, pipeline, capsys, command):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, **{command: {"source": "nope"}})
    copy_artifacts(out, alt_out, ("model.json",))
    capsys.readouterr()
    assert run(command, config) == 2
    assert (f"{command}.source was removed; delete it or set it to 'allocation'"
            in capsys.readouterr().err)


SCHEMA = {"weight_bits": [4, 6, 8]}


@pytest.mark.parametrize("overrides", [
    {"data": {"source": "synthetic"}},
    {"data": {"source": "csv", "csv": "elsewhere.csv"}},
    {"quantize": {"source": "allocation"}, "estimate": {"source": "allocation"}},
    {"quantize": {"source": "allocation"}, "estimate": {"source": "allocation"},
     "schema": SCHEMA},
    {"quantize": {"source": "schema"}, "estimate": {"source": "schema"}, "schema": SCHEMA},
    {"run_ir": {"batch": 7}},
    {"run_ir": {"batch": 0}},
], ids=["data-synthetic", "data-csv", "sources-allocation", "sources-allocation-with-schema",
        "sources-schema", "run-ir-batch-7", "run-ir-batch-0"])
def test_a_derived_key_loads_at_the_value_the_config_implies_and_is_dropped(
        tmp_path, pipeline, overrides):
    config, out = write_config(tmp_path, **overrides)
    copy_artifacts(pipeline[2], out, ("model.json", "allocation.json"))
    assert run("estimate", config) == 0
    resolved = read_json(out, "manifest-estimate.json")["config"]
    assert "source" not in resolved["data"] and "batch" not in resolved["run_ir"]
    assert resolved["quantize"] == {"accumulator_bits": 32}
    assert resolved["estimate"] == {"coeffs": None}


@pytest.mark.parametrize("overrides, key, kept", [
    ({"data": {"source": "csv"}}, "data.source", "synthetic"),
    ({"data": {"source": "synthetic", "csv": "elsewhere.csv"}}, "data.source", "csv"),
    ({"quantize": {"source": "schema"}}, "quantize.source", "allocation"),
    ({"estimate": {"source": "schema"}}, "estimate.source", "allocation"),
    ({"estimate": {"source": "nope"}, "schema": SCHEMA}, "estimate.source", "allocation"),
], ids=["data-csv-without-a-file", "data-synthetic-with-a-file", "quantize-schema-without-one",
        "estimate-schema-without-one", "estimate-nope"])
def test_exit_2_on_a_derived_key_the_config_contradicts(tmp_path, capsys, overrides, key, kept):
    config, out = write_config(tmp_path, **overrides)
    for command in ("gen-data", "estimate"):
        assert run(command, config) == 2, command
        assert (f"{key} was removed; delete it or set it to {kept!r}"
                in capsys.readouterr().err)
    assert not os.path.exists(out)


def test_the_schema_section_takes_precedence_over_allocation_json(tmp_path, pipeline):
    config, out = write_config(tmp_path, schema=SCHEMA, qat={"epochs": 1})
    copy_artifacts(pipeline[2], out, ("dataset.csv", "model.json", "allocation.json"))
    assert read_json(out, "allocation.json")["weight_bits"] != SCHEMA["weight_bits"]
    for command in ("quantize", "estimate"):
        assert run(command, config) == 0, command
        assert "allocation.json" not in read_json(out, f"manifest-{command}.json")["inputs"]
    assert read_json(out, "fqreport.json")["schema"]["weight_bits"] == SCHEMA["weight_bits"]
    est = read_json(out, "estimate.json")
    assert [l["weight_bits"] for l in est["layers"]] == SCHEMA["weight_bits"]


def test_gen_data_exits_2_when_data_csv_is_set(tmp_path, pipeline, capsys):
    csv_path = str(tmp_path / "mine.csv")
    shutil.copyfile(os.path.join(pipeline[2], "dataset.csv"), csv_path)
    config, out = write_config(tmp_path, data={"csv": csv_path})
    assert run("gen-data", config) == 2
    assert "data.csv is set" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "dataset.csv"))
    assert run("train", config) == 0
    assert list(read_json(out, "manifest-train.json")["inputs"]) == ["mine.csv"]


def test_run_ir_outputs_do_not_depend_on_the_chunk_size(tmp_path, pipeline, monkeypatch):
    # the retired run_ir.batch loads and changes nothing; neither does the
    # fixed chunk, which the 1,200-row dataset spans twice at its default
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, run_ir={"batch": 7})
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "graph.json"))
    names = ("ir_outputs.csv", "ir_report.json")
    assert run("run-ir", config) == 0
    assert [Path(alt_out, n).read_bytes() for n in names] == [Path(out, n).read_bytes()
                                                              for n in names]
    monkeypatch.setattr(cli, "RUN_IR_ROWS", 7)
    assert run("run-ir", config) == 0
    assert [Path(alt_out, n).read_bytes() for n in names] == [Path(out, n).read_bytes()
                                                              for n in names]


def test_each_manifest_lists_every_file_its_command_read(tmp_path, monkeypatch):
    config, out = write_config(tmp_path, sweep={"sample": 2, "epochs": 1})
    real_open = io.open
    read = set()

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            read.add(os.path.realpath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    for cmd in ("gen-data", "train", "trace", "allocate", "quantize", "export-ir",
                "opt-ir", "run-ir", "estimate", "sweep", "report"):
        read.clear()
        assert run(cmd, config) == 0, cmd
        # the config is embedded in the manifest; artifacts are hashed after writing
        consumed = {os.path.relpath(p, os.path.realpath(out))
                    for p in read if p != os.path.realpath(config)}
        man = read_json(out, f"manifest-{cmd}.json")
        assert consumed - set(man["artifacts"]) == set(man["inputs"]), cmd


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    assert json.loads(re.sub(r"//.*", "", block)) == cli.DEFAULT_CONFIG


def test_readme_retired_keys_table_is_the_retired_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| retired key |", 1)[1].split("\n\n", 1)[0]
    keys = [k for row in table.splitlines()[2:]
            for k in re.findall(r"`(\w+\.\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(cli.RETIRED_KEYS)


def test_estimate_exits_2_on_a_bad_schema_section(tmp_path, capsys):
    config, _ = write_config(tmp_path, estimate={"source": "schema"},
                             schema={"weight_bits": [40, 8, 8]})
    assert run("estimate", config) == 2
    assert "bad schema section" in capsys.readouterr().err


@pytest.mark.parametrize("with_model", [False, True], ids=["arch", "model"])
def test_estimate_exits_2_on_a_schema_of_another_layer_count(tmp_path, pipeline, capsys,
                                                             with_model):
    config, out = write_config(tmp_path, estimate={"source": "schema"},
                               schema={"weight_bits": [4, 4]})
    if with_model:
        copy_artifacts(pipeline[2], out, ("model.json",))
    assert run("estimate", config) == 2
    assert "schema has 2 layers, model has 3" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "estimate.json"))


def test_report_exits_3_on_a_sweep_for_another_architecture(tmp_path, capsys):
    config, out = write_config(tmp_path, arch={"sizes": [16, 8, 5]})
    os.makedirs(out)
    Path(out, "sweep.csv").write_text(allocate.sweep_csv([allocate.SweepRecord(
        config_id=0, weight_bits=(4, 6, 8), activation_bits=(7, 9, 11), accuracy=0.5,
        bops=1.0, sparsities=(0.0, 0.0, 0.0), seed=0)]))
    assert run("report", config) == 3
    assert "sweep.csv was written for a different architecture" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.csv"))


def test_report_exits_3_on_a_sweep_for_another_architecture_of_the_same_depth(
        tmp_path, pipeline, capsys):
    # the layer counts agree, so only the recorded BOPs tell the two apart
    config, out = write_config(tmp_path, sweep={"sample": 2, "epochs": 1})
    copy_artifacts(pipeline[2], out, ("dataset.csv",))
    assert run("sweep", config) == 0
    assert run("report", config) == 0
    os.remove(os.path.join(out, "report.csv"))
    for arch in ({"sizes": [16, 40, 8, 5]}, {"input_bits": 8}):
        config, _ = write_config(tmp_path, arch=arch)
        capsys.readouterr()
        assert run("report", config) == 3, arch
        assert "sweep.csv was written for a different architecture" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "report.csv"))


@pytest.mark.parametrize("field, value", [("sparsities", (2.0, 0.0, 0.0)),
                                          ("weight_bits", (40, 6, 8))],
                         ids=["sparsity-2", "width-40"])
def test_report_exits_3_on_a_sweep_record_out_of_range(tmp_path, capsys, field, value):
    config, out = write_config(tmp_path)
    os.makedirs(out)
    record = allocate.SweepRecord(
        config_id=0, weight_bits=(4, 6, 8), activation_bits=(7, 9, 11), accuracy=0.5,
        bops=1.0, sparsities=(0.0, 0.0, 0.0), seed=0)
    Path(out, "sweep.csv").write_text(allocate.sweep_csv([
        dataclasses.replace(record, **{field: value})]))
    assert run("report", config) == 3
    assert f"malformed artifact {os.path.join(out, 'sweep.csv')}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.csv"))


@pytest.mark.parametrize("command", ["estimate", "report"])
def test_exit_2_on_a_coefficients_file_with_a_value_of_the_wrong_type(tmp_path, capsys,
                                                                      command):
    coeffs = tmp_path / "coeffs.json"
    config, out = write_config(tmp_path, estimate={"source": "schema", "coeffs": str(coeffs)},
                               schema={"weight_bits": [4, 6, 8]})
    os.makedirs(out)
    Path(out, "sweep.csv").write_text(allocate.sweep_csv([allocate.SweepRecord(
        config_id=0, weight_bits=(4, 6, 8), activation_bits=(7, 9, 11), accuracy=0.5,
        bops=1.0, sparsities=(0.0, 0.0, 0.0), seed=0)]))
    # a list, values JSON reads as infinite (1e400) or not a number, and a
    # fractional threshold
    for key, value in [("dsp_threshold", "[1]"), ("lut_per_bit_product", "1e400"),
                       ("dsp_threshold", "1e400"), ("lut_per_bit_product", "NaN"),
                       ("dsp_threshold", "NaN"), ("dsp_threshold", "11.9")]:
        doc = {"dsp_threshold": "12", "lut_per_bit_product": "1.0", "lut_per_acc_bit": "1.0",
               "ff_per_acc_bit": "1.0", "softmax_lut": "1.0", "softmax_ff": "1.0",
               key: value}
        coeffs.write_text('{"format": "hessquant-coeffs", '
                          + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}")
        capsys.readouterr()
        assert run(command, config) == 2, (key, value)
        assert "bad coefficients file" in capsys.readouterr().err
