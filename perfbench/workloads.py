"""The four benchmark workloads.

Each workload has a set-up (run several times, untimed by the op clock), an
op (the timed unit), and a check that returns the op's artifact digests, the
problems the oracle or the exit codes found, and its quality numbers.  All
inputs derive from the workload seed.  Import this module only after the
thread variables are set and ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np

from hessquant import cli, data, ir, nn, quantize

import oracle

CHAIN = ("gen-data", "train", "trace", "allocate", "quantize", "export-ir",
         "opt-ir", "run-ir", "estimate")
ORACLE_ROWS = 48      # rows replayed by the oracle per op


def sha256_bytes(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


def dir_digests(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = sha256_bytes(fh.read())
    return out


def write_config(path: str, cfg: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)


def run_cli(commands, config: str) -> list[str]:
    """Run CLI subcommands in order in this process; problems on nonzero exit."""
    for cmd in commands:
        code = cli.main([cmd, "--config", config])
        if code != 0:
            return [f"{cmd} exited with code {code}"]
    return []


def seeded_config(out: str, seed: int, **sections) -> dict:
    cfg = {"out": out, "data": {"seed": seed}, "train": {"seed": seed},
           "trace": {"seed": seed}, "qat": {"seed": seed}, "sweep": {"seed": seed}}
    for key, val in sections.items():
        cfg[key] = {**cfg.get(key, {}), **val}
    return cfg


def parse_logit(cell: str) -> float:
    """A logit cell of ir_outputs.csv.  run-ir writes repr() of numpy scalars,
    which numpy 2 renders as np.float64(...); the value inside is exact."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


class RunIrCheck:
    """Oracle check of sampled rows of a run-ir output against intmodel.json."""

    def __init__(self, out_dir: str, rng: random.Random):
        self.out_dir = out_dir
        self.rng = rng
        with open(os.path.join(out_dir, "dataset.csv")) as fh:
            self.dataset_lines = fh.read().splitlines()
        with open(os.path.join(out_dir, "model.json")) as fh:
            stats = json.load(fh)["standardization"]
        self.mean, self.std = stats["mean"], stats["std"]

    def features(self, rows) -> dict:
        return {r: [float(v) for v in self.dataset_lines[r].split(",")[:-1]]
                for r in rows}

    def outputs(self, rows) -> dict:
        with open(os.path.join(self.out_dir, "ir_outputs.csv")) as fh:
            lines = fh.read().splitlines()
        got = {}
        for r in rows:
            cells = lines[r + 1].split(",")       # line 0 is the header
            if int(cells[0]) != r:
                raise ValueError(f"ir_outputs.csv line {r + 1} holds row {cells[0]}")
            got[r] = (int(cells[1]), [parse_logit(v) for v in cells[2:]])
        return got

    def check(self, int_oracle) -> list[str]:
        rows = self.rng.sample(range(len(self.dataset_lines)), ORACLE_ROWS)
        return oracle.check_run_ir_rows(int_oracle, self.features(rows),
                                        self.outputs(rows), self.mean, self.std)

    def self_test(self, int_oracle) -> bool:
        """The oracle passes the real output and flags a one-code change."""
        rows = self.rng.sample(range(len(self.dataset_lines)), 4)
        feats, outs = self.features(rows), self.outputs(rows)
        if oracle.check_run_ir_rows(int_oracle, feats, outs, self.mean, self.std):
            return False
        r = rows[0]
        pred, logits = outs[r]
        outs[r] = (pred, oracle.bump_one_code(int_oracle, logits, j=len(logits) - 1))
        return len(oracle.check_run_ir_rows(int_oracle, feats, outs,
                                            self.mean, self.std)) == 1


class Workload:
    name = ""
    setup_repeats = 3
    work_unit = "rows"
    split_after: tuple = ()     # (module, function): op segments end at its returns

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.dir = os.path.join(work, self.name)
        self.rng = random.Random(seed)
        self.setup_digests = None
        self.setup_problems: list[str] = []

    def prepare(self) -> None:
        """Untimed per-op preparation."""

    def note_setup(self, digests: dict) -> None:
        """Set-up repeats must produce identical artifacts."""
        if self.setup_digests is None:
            self.setup_digests = digests
        elif digests != self.setup_digests:
            self.setup_problems.append("set-up artifacts differ between repeats")


class ChainDefault(Workload):
    """The full CLI chain on the default config, in a fresh out dir per op."""

    name = "chain_default"
    setup_repeats = 5
    work_unit = "chains"
    split_after = (("cli", "main"),)

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.out = os.path.join(self.dir, "out")
        self.config = os.path.join(self.dir, "config.json")

    def setup(self):
        # What every CLI invocation pays before any work: a fresh interpreter
        # importing the package.
        write_config(self.config, seeded_config(self.out, self.seed))
        subprocess.run([sys.executable, "-c", "import hessquant.cli"], check=True)

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self):
        return run_cli(CHAIN, self.config)

    def check(self, problems):
        if problems:
            return {}, problems, {}
        int_oracle = oracle.IntOracle.from_file(os.path.join(self.out, "intmodel.json"))
        self.run_ir = RunIrCheck(self.out, self.rng)
        problems = self.run_ir.check(int_oracle)
        with open(os.path.join(self.out, "fqreport.json")) as fh:
            rep = json.load(fh)
        with open(os.path.join(self.out, "ir_report.json")) as fh:
            ir_rep = json.load(fh)
        quality = {"accuracy": rep["int_accuracy"],
                   "val_int_accuracy": rep["int_accuracy"],
                   "val_fq_accuracy": rep["fq_accuracy"],
                   "val_float_accuracy": rep["float_accuracy"],
                   "ir_accuracy": ir_rep["accuracy"],
                   "work": 1}
        self.int_oracle = int_oracle
        return dir_digests(self.out), problems, quality

    def self_test(self):
        return self.run_ir.self_test(self.int_oracle)


class SweepQat(Workload):
    """hessquant sweep on the default sweep section, then report."""

    name = "sweep_qat"
    work_unit = "configs"
    split_after = (("quantize", "qat_train"),)

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.out = os.path.join(self.dir, "out")
        self.data_dir = os.path.join(self.dir, "data")
        self.config = os.path.join(self.dir, "config.json")

    def setup(self):
        shutil.rmtree(self.data_dir, ignore_errors=True)
        cfg = os.path.join(self.dir, "data-config.json")
        write_config(cfg, seeded_config(self.data_dir, self.seed))
        self.setup_problems += run_cli(["gen-data"], cfg)
        write_config(self.config, seeded_config(self.out, self.seed))
        self.note_setup(dir_digests(self.data_dir))

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        shutil.copy(os.path.join(self.data_dir, "dataset.csv"), self.out)

    def op(self):
        return run_cli(["sweep", "report"], self.config)

    def check(self, problems):
        if problems:
            return {}, problems, {}
        with open(os.path.join(self.out, "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        problems = [f"sweep config {r['config_id']}: {r['error']}"
                    for r in rows if r["error"]]
        accs = [float(r["accuracy"]) for r in rows if not r["error"]]
        quality = {"accuracy": sum(accs) / len(accs) if accs else float("nan"),
                   "sweep_accuracy_min": min(accs, default=float("nan")),
                   "work": len(rows)}
        return dir_digests(self.out), problems, quality

    def self_test(self):
        return True   # no integer model on this workload


class InferNarrow(Workload):
    """run-ir over a 30k-row CSV with an allocated 4-8-bit schema."""

    name = "infer_narrow"
    rows = 30000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.out = os.path.join(self.dir, "out")
        self.config = os.path.join(self.dir, "config.json")

    def setup(self):
        shutil.rmtree(self.out, ignore_errors=True)
        write_config(self.config, seeded_config(
            self.out, self.seed, data={"n": self.rows}, train={"epochs": 1},
            qat={"epochs": 1}, trace={"k": 8}, run_ir={"graph": "graph_opt.json"}))
        self.setup_problems += run_cli(CHAIN[:7], self.config)
        self.note_setup(dir_digests(self.out))
        self.int_oracle = oracle.IntOracle.from_file(os.path.join(self.out, "intmodel.json"))
        self.run_ir = RunIrCheck(self.out, self.rng)

    def op(self):
        return run_cli(["run-ir"], self.config)

    def check(self, problems):
        if problems:
            return {}, problems, {}
        problems = self.run_ir.check(self.int_oracle)
        with open(os.path.join(self.out, "ir_report.json")) as fh:
            rep = json.load(fh)
        digests = {k: v for k, v in dir_digests(self.out).items()
                   if k in ("ir_outputs.csv", "ir_report.json", "manifest-run-ir.json")}
        return digests, problems, {"accuracy": rep["accuracy"], "work": rep["rows"]}

    def self_test(self):
        return self.run_ir.self_test(self.int_oracle)


class InferWide(Workload):
    """int_forward and ir.evaluate on a 16-bit schema with a 64-bit accumulator."""

    name = "infer_wide"
    rows = 20000
    bits = 16
    split_after = (("quantize", "int_forward"),)
    accumulator_bits = 64

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        ds = data.standardize(data.generate_synthetic(6000, seed=self.seed))
        train_ds, val_ds = data.split(ds, 0.2, self.seed)
        model = nn.mlp([16, 64, 32, 32, 5], seed=self.seed)
        model, _ = nn.train(model, train_ds, nn.TrainConfig(
            epochs=4, batch_size=64, learning_rate=1e-3, l1=1e-4, seed=self.seed),
            val=val_ds)
        schema = quantize.QuantSchema.coupled((self.bits,) * model.n_layers,
                                              input_bits=16)
        fq = quantize.qat_train(model, train_ds, schema, nn.TrainConfig(
            epochs=1, batch_size=64, learning_rate=1e-3, l1=0.0, seed=self.seed),
            val=val_ds)
        self.im = quantize.lower(fq, accumulator_bits=self.accumulator_bits)
        path = os.path.join(self.dir, "intmodel.json")
        quantize.save_integer_model(self.im, path)
        g = ir.merge_scales_relu(ir.fold_constants(ir.infer_shapes(
            ir.export_graph(self.im))))
        diags = ir.validate(g)
        self.setup_problems += diags
        self.graph = g
        batch = data.standardize(data.generate_synthetic(self.rows, seed=self.seed + 1),
                                 mean=ds.mean, std=ds.std)
        self.x, self.labels = batch.features, batch.labels
        self.fq_pred = np.argmax(fq.predict_proba(self.x), axis=1)
        self.int_oracle = oracle.IntOracle.from_file(path)
        self.note_setup({"intmodel.json": dir_digests(self.dir)["intmodel.json"]})

    def op(self):
        _, codes = quantize.int_forward(self.im, self.x)
        logits = ir.evaluate(self.graph, {"x": self.x})["logits"]
        return codes, logits

    def _sample(self, codes, logits, rows):
        x_rows = {r: self.x[r].tolist() for r in rows}
        return (x_rows, {r: list(codes[r]) for r in rows},
                {r: logits[r].tolist() for r in rows})

    def check(self, result):
        codes, logits = result
        rows = self.rng.sample(range(self.rows), ORACLE_ROWS)
        x_rows, code_rows, logit_rows = self._sample(codes, logits, rows)
        problems = (oracle.check_code_rows(self.int_oracle, x_rows, code_rows)
                    + oracle.check_logit_rows(self.int_oracle, x_rows, logit_rows))
        pred = np.argmax(np.asarray(logits, dtype=np.float64), axis=1)
        quality = {"accuracy": float(np.mean(pred == self.labels)),
                   "int_fq_agreement": float(np.mean(pred == self.fq_pred)),
                   "work": self.rows}
        digests = {"int_forward_codes": sha256_bytes(
                       ",".join(str(int(v)) for v in np.ravel(codes)).encode()),
                   "evaluate_logits": sha256_bytes(
                       np.ascontiguousarray(logits, dtype=np.float64).tobytes())}
        self.last = result
        return digests, problems, quality

    def self_test(self):
        codes, logits = self.last
        rows = self.rng.sample(range(self.rows), 4)
        x_rows, code_rows, logit_rows = self._sample(codes, logits, rows)
        if (oracle.check_code_rows(self.int_oracle, x_rows, code_rows)
                or oracle.check_logit_rows(self.int_oracle, x_rows, logit_rows)):
            return False
        r = rows[0]
        code_rows[r][0] = int(code_rows[r][0]) + 1
        logit_rows[r] = oracle.bump_one_code(self.int_oracle, logit_rows[r])
        return (len(oracle.check_code_rows(self.int_oracle, x_rows, code_rows)) == 1
                and len(oracle.check_logit_rows(self.int_oracle, x_rows, logit_rows)) == 1)


WORKLOADS = {w.name: w for w in (ChainDefault, SweepQat, InferNarrow, InferWide)}
