import json
import os

import numpy as np
import pytest

from hessquant import cli, data, ir, nn


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
    man = json.load(open(os.path.join(out, "manifest-train.json")))
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
    a = open(os.path.join(out, "dataset.csv"), "rb").read()
    b = open(os.path.join(new_out, "dataset.csv"), "rb").read()
    assert a == b


def test_run_ir_consumes_optimized_graph(pipeline):
    _, config, out = pipeline
    assert run("opt-ir", config) == 0
    report = json.load(open(os.path.join(out, "opt_report.json")))
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
    est = json.load(open(os.path.join(out, "estimate.json")))
    assert est["dsps"] >= 0 and est["luts"] > 0
    # a tiny sweep so report has input
    cfg2, _ = write_config(src_tmp, sweep={"sample": 2, "epochs": 1,
                                           "candidates": [4, 8]})
    assert cli.main(["sweep", "--config", cfg2]) == 0
    assert cli.main(["report", "--config", cfg2]) == 0
    lines = open(os.path.join(out, "report.csv")).read().strip().split("\n")
    assert len(lines) == 3  # header + two sampled configs
    assert lines[0].split(",")[0] == "config_id"


def test_seed_flag_overrides_config(pipeline, tmp_path):
    _, config, out = pipeline
    alt = str(tmp_path / "alt")
    assert cli.main(["gen-data", "--config", config, "--seed", "9",
                     "--out", alt]) == 0
    a = open(os.path.join(out, "dataset.csv")).read()
    b = open(os.path.join(alt, "dataset.csv")).read()
    assert a != b
    man = json.load(open(os.path.join(alt, "manifest-gen-data.json")))
    assert man["config"]["data"]["seed"] == 9


def test_budget_flag_overrides_config(pipeline, tmp_path):
    _, config, out = pipeline
    alt = str(tmp_path / "alt-budget")
    # copy the upstream artifacts the command needs
    os.makedirs(alt, exist_ok=True)
    for name in ("dataset.csv", "model.json", "traces.json"):
        with open(os.path.join(out, name), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(alt, name), "wb") as fh:
            fh.write(blob)
    assert cli.main(["allocate", "--config", config, "--out", alt,
                     "--budget", "1e9"]) == 0
    doc = json.load(open(os.path.join(alt, "allocation.json")))
    assert doc["feasible"] is True
    assert doc["budget"] == 1e9
    man = json.load(open(os.path.join(alt, "manifest-allocate.json")))
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
    os.makedirs(alt_out, exist_ok=True)
    for name in ("dataset.csv", "model.json", "traces.json"):
        with open(os.path.join(out, name), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(alt_out, name), "wb") as fh:
            fh.write(blob)
    assert cli.main(["allocate", "--config", config]) == 5
    doc = json.load(open(os.path.join(alt_out, "allocation.json")))
    assert doc["feasible"] is False
    assert doc["bops"] > 10


@pytest.mark.parametrize("allocation, flags", [
    ({}, ["--budget", "nan"]),
    ({}, ["--budget", "-5"]),
    ({"candidates": []}, []),
    ({"candidates": [40]}, []),
    ({"candidates": ["a"]}, []),
    ({"candidates": [0, 4]}, []),
    ({"coupling_offset": -10}, []),
], ids=["budget-nan", "budget-negative", "no-candidates", "candidate-40",
        "candidate-not-a-number", "candidate-0", "offset-minus-10"])
def test_exit_2_on_a_bad_allocation_section(tmp_path, pipeline, capsys,
                                            allocation, flags):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path, allocation=allocation)
    os.makedirs(alt_out, exist_ok=True)
    for name in ("model.json", "traces.json"):
        with open(os.path.join(out, name), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(alt_out, name), "wb") as fh:
            fh.write(blob)
    capsys.readouterr()
    assert cli.main(["allocate", "--config", config, *flags]) == 2
    assert "bad allocation section" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(alt_out, "allocation.json"))


def test_exit_6_on_invalid_graph(tmp_path, pipeline):
    _, _, out = pipeline
    config, alt_out = write_config(tmp_path)
    os.makedirs(alt_out, exist_ok=True)
    for name in ("dataset.csv", "model.json"):
        with open(os.path.join(out, name), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(alt_out, name), "wb") as fh:
            fh.write(blob)
    # corrupt the graph: point a node at a tensor that never exists
    doc = json.loads(open(os.path.join(out, "graph.json")).read())
    doc["nodes"][3]["inputs"][0] = "h777"
    with open(os.path.join(alt_out, "graph.json"), "w") as fh:
        fh.write(json.dumps(doc))
    assert cli.main(["run-ir", "--config", config]) == 6


def test_exit_2_on_lowering_error(tmp_path, pipeline):
    _, _, out = pipeline
    config, alt_out = write_config(
        tmp_path, quantize={"accumulator_bits": 8})
    os.makedirs(alt_out, exist_ok=True)
    for name in ("dataset.csv", "model.json", "allocation.json"):
        with open(os.path.join(out, name), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(alt_out, name), "wb") as fh:
            fh.write(blob)
    assert cli.main(["quantize", "--config", config]) == 2


def test_exit_2_when_a_scale_rounds_to_zero(tmp_path, pipeline):
    # a 32-bit layer whose weights stay below 0.5 needs a scale under 2^-32
    _, _, out = pipeline
    config, alt_out = write_config(
        tmp_path, quantize={"source": "schema", "accumulator_bits": 96},
        schema={"weight_bits": [32, 32, 32], "activation_bits": [32, 32, 32],
                "input_bits": 32},
        qat={"epochs": 1})
    os.makedirs(alt_out, exist_ok=True)
    with open(os.path.join(out, "dataset.csv"), "rb") as fh:
        blob = fh.read()
    with open(os.path.join(alt_out, "dataset.csv"), "wb") as fh:
        fh.write(blob)
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


def test_estimate_exits_2_on_a_bad_schema_section(tmp_path, capsys):
    config, _ = write_config(tmp_path, estimate={"source": "schema"},
                             schema={"weight_bits": [40, 8, 8]})
    assert run("estimate", config) == 2
    assert "bad schema section" in capsys.readouterr().err
