import builtins
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
    src_tmp, config, out = pipeline
    assert run("estimate", config) == 0
    est = read_json(out, "estimate.json")
    assert est["dsps"] >= 0 and est["luts"] > 0
    # a tiny sweep so report has input
    cfg2, _ = write_config(src_tmp, sweep={"sample": 2, "epochs": 1,
                                           "candidates": [4, 8]})
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
    "format": "hessquant-model", "sizes": [16, 5], "activations": ["softmax"],
    "params": [0.0] * 85, "standardization": {"mean": [0.0] * 3, "std": [1.0] * 3}})


def truncated_intmodel(out):
    doc = read_json(out, "intmodel.json")
    doc["layers"] = doc["layers"][:2]
    return json.dumps(doc)


@pytest.mark.parametrize("command, name, text, upstream", [
    ("quantize", "model.json", '{"format": "nope"}', ()),
    ("trace", "model.json", '{"format": "hessquant-model"', ()),
    ("trace", "model.json", "[]", ()),
    ("trace", "model.json", MODEL_WITH_THREE_MEANS, ("dataset.csv",)),
    ("allocate", "traces.json", '{"format": "hessquant-traces"}', ("model.json",)),
    ("quantize", "allocation.json",
     '{"format": "hessquant-allocation", "weight_bits": 4}', ("model.json",)),
    ("estimate", "allocation.json",
     '{"format": "hessquant-allocation", "weight_bits": [40, 8, 8], '
     '"activation_bits": [8, 8, 8], "omega": 0, "bops": 0, "feasible": true, '
     '"budget": 1}', ()),
    ("export-ir", "intmodel.json", '{"format": "hessquant-integer-model", "schema": []}', ()),
    ("export-ir", "intmodel.json", truncated_intmodel, ()),
    ("run-ir", "graph.json", '{"version": 1}', ()),
    ("report", "sweep.csv", "config_id,b_w_0\nx,4\n", ()),
    ("trace", "dataset.csv", "0,1,2\n", ("model.json",)),
    ("run-ir", "dataset.csv", "0,1,2\n", ("graph.json", "model.json")),
], ids=["model-format", "model-truncated", "model-not-an-object", "model-three-means",
        "traces", "allocation", "allocation-bits-40", "intmodel", "intmodel-two-of-three",
        "graph", "sweep", "dataset-at-trace", "dataset-at-run-ir"])
def test_exit_3_on_a_malformed_artifact(tmp_path, pipeline, capsys,
                                        command, name, text, upstream):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, upstream)
    Path(alt_out, name).write_text(text if isinstance(text, str) else text(out))
    capsys.readouterr()
    assert run(command, config) == 3
    assert f"malformed artifact {os.path.join(alt_out, name)}" in capsys.readouterr().err


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


def test_exit_4_on_divergence(tmp_path):
    config, _ = write_config(tmp_path,
                             train={"learning_rate": 1e9, "optimizer": "sgd",
                                    "epochs": 3})
    assert cli.main(["gen-data", "--config", config]) == 0
    with np.errstate(all="ignore"):
        assert cli.main(["train", "--config", config]) == 4


def test_exit_5_on_infeasible_budget_still_writes_solution(tmp_path, pipeline):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, allocation={"budget": 10})
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "traces.json"))
    assert cli.main(["allocate", "--config", config]) == 5
    doc = read_json(alt_out, "allocation.json")
    assert doc["feasible"] is False
    assert doc["bops"] > 10


@pytest.mark.parametrize("allocation, flags", [
    ({}, ["--budget", "nan"]),
    ({}, ["--budget", "-5"]),
    ({}, ["--budget", "inf"]),
    ({"candidates": []}, []),
    ({"candidates": [40]}, []),
    ({"candidates": ["a"]}, []),
    ({"candidates": [0, 4]}, []),
    ({"coupling_offset": -10}, []),
], ids=["budget-nan", "budget-negative", "budget-inf", "no-candidates", "candidate-40",
        "candidate-not-a-number", "candidate-0", "offset-minus-10"])
def test_exit_2_on_a_bad_allocation_section(tmp_path, pipeline, capsys,
                                            allocation, flags):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, allocation=allocation)
    copy_artifacts(out, alt_out, ("model.json", "traces.json"))
    capsys.readouterr()
    assert cli.main(["allocate", "--config", config, *flags]) == 2
    assert "bad allocation section" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(alt_out, "allocation.json"))


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


@pytest.mark.parametrize("command, section, value", [
    ("sweep", "sweep", {"sample": "x"}),
    ("sweep", "sweep", {"candidates": ["a"]}),
    ("sweep", "sweep", {"candidates": [4, 40]}),
    ("sweep", "sweep", {"candidates": []}),
    ("gen-data", "data", {"n": "x"}),
    ("train", "data", {"val_fraction": 2}),
    ("train", "arch", {"sizes": [16, "z", 5]}),
    ("run-ir", "run_ir", {"batch": 0}),
    ("allocate", "arch", {"input_bits": "x"}),
    ("quantize", "quantize", {"accumulator_bits": None}),
], ids=["sweep-sample", "sweep-candidates", "sweep-candidate-40", "sweep-no-candidates",
        "data-n", "data-val-fraction", "arch-sizes", "run-ir-batch", "arch-input-bits",
        "quantize-accumulator-bits"])
def test_exit_2_on_a_bad_config_value(tmp_path, pipeline, capsys, command, section, value):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, **{section: value})
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json", "traces.json",
                                  "allocation.json", "graph.json"))
    capsys.readouterr()
    assert run(command, config) == 2
    assert f"bad {section} section" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(alt_out, f"manifest-{command}.json"))


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


def _drop_shift(node):
    del node["attrs"]["shift"]


def _even_mantissa(node):
    node["attrs"]["mantissa"] = 2 * node["attrs"]["mantissa"]


def _wide_codes(node):
    node["attrs"]["bits"] = 40


def _real_input(node):
    node["inputs"] = ["x"]


@pytest.mark.parametrize("command", ["opt-ir", "run-ir"])
@pytest.mark.parametrize("tamper, message", [
    (_drop_shift, "missing attribute shift"),
    (_even_mantissa, "odd"),
    (_wide_codes, "width 40"),
    (_real_input, "needs an integer input"),
], ids=["missing-attribute", "scale", "width", "real-input"])
def test_exit_6_on_a_malformed_requant(tmp_path, pipeline, capsys, command, tamper,
                                       message):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    copy_artifacts(out, alt_out, ("dataset.csv", "model.json"))
    doc = read_json(out, "graph.json")
    tamper(next(n for n in doc["nodes"] if n["kind"] == "Requant"))
    Path(alt_out, "graph.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(command, config) == 6
    err = capsys.readouterr().err
    assert "node h1: Requant" in err and message in err


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


def test_exit_2_when_a_scale_rounds_to_zero(tmp_path, pipeline):
    # a 32-bit layer whose weights stay below 0.5 needs a scale under 2^-32
    _, _, out = pipeline
    config, alt_out = write_config(
        tmp_path, quantize={"source": "schema", "accumulator_bits": 96},
        schema={"weight_bits": [32, 32, 32], "activation_bits": [32, 32, 32],
                "input_bits": 32},
        qat={"epochs": 1})
    copy_artifacts(out, alt_out, ("dataset.csv",))
    model, mean, std = nn.load_model(os.path.join(out, "model.json"))
    model.layers[1].weights *= 0.25 / np.max(np.abs(model.layers[1].weights))
    nn.save_model(model, os.path.join(alt_out, "model.json"), mean, std)
    assert cli.main(["quantize", "--config", config]) == 2


def test_exit_2_when_the_output_scale_underflows(tmp_path, capsys):
    # the default model at 32 bits: every weight and input scale is nonzero,
    # but the output scale needs a shift past 31 and its mantissa rounds to 0
    cfg = {"out": str(tmp_path / "out"),
           "schema": {"weight_bits": [32] * 4, "activation_bits": [32] * 4,
                      "input_bits": 32},
           "quantize": {"source": "schema", "accumulator_bits": 96}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    for cmd in ("gen-data", "train"):
        assert run(cmd, str(path)) == 0, cmd
    capsys.readouterr()
    assert run("quantize", str(path)) == 2
    assert "output scale underflowed" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "intmodel.json")


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
    assert f"unknown {command}.source 'nope'" in capsys.readouterr().err


def test_each_manifest_lists_every_file_its_command_read(tmp_path, monkeypatch):
    config, out = write_config(tmp_path, sweep={"sample": 2, "epochs": 1,
                                                "candidates": [4, 8]})
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


def test_estimate_exits_2_on_a_bad_schema_section(tmp_path, capsys):
    config, _ = write_config(tmp_path, estimate={"source": "schema"},
                             schema={"weight_bits": [40, 8, 8]})
    assert run("estimate", config) == 2
    assert "bad schema section" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "report"])
def test_exit_2_on_a_coefficients_file_with_a_value_of_the_wrong_type(tmp_path, capsys,
                                                                      command):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({
        "format": "hessquant-coeffs", "dsp_threshold": [1], "lut_per_bit_product": 1.0,
        "lut_per_acc_bit": 1.0, "ff_per_acc_bit": 1.0, "softmax_lut": 1.0,
        "softmax_ff": 1.0}))
    config, out = write_config(tmp_path, estimate={"source": "schema", "coeffs": str(coeffs)},
                               schema={"weight_bits": [4, 6, 8]})
    os.makedirs(out)
    Path(out, "sweep.csv").write_text(allocate.sweep_csv([allocate.SweepRecord(
        config_id=0, weight_bits=(4, 6, 8), activation_bits=(7, 9, 11), accuracy=0.5,
        bops=1.0, sparsities=(0.0, 0.0, 0.0), seed=0)]))
    capsys.readouterr()
    assert run(command, config) == 2
    assert "bad coefficients file" in capsys.readouterr().err
