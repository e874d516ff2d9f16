"""Independent integer oracle: a pure-Python big-integer replay of intmodel.json.

It reads the integer model document with the json module only, never through
hessquant, and replays input quantization, every layer's matmul and bias add,
multiply-and-shift requantization with the clip at zero, and the final
dequantization, all on Python ints.  The benchmark checks sampled rows of the
program's outputs against it bit for bit.
"""

from __future__ import annotations

import json
import operator


class IntOracle:
    def __init__(self, doc: dict):
        if doc.get("format") != "hessquant-integer-model":
            raise ValueError("not an integer model document")
        inp = doc["input"]
        self.in_scale = inp["mantissa"] / (1 << inp["shift"])
        self.in_lo = -(1 << (inp["bits"] - 1))
        self.in_hi = (1 << (inp["bits"] - 1)) - 1
        out = doc["output_scale"]
        self.out_scale = out["mantissa"] / (1 << out["shift"])
        self.layers = []
        for entry in doc["layers"]:
            w = entry["q_weights"]
            cols = [[int(row[j]) for row in w] for j in range(len(w[0]))]
            bias = [int(b) for b in entry["q_bias"]]
            rq = entry["requant"]
            requant = None if rq is None else (int(rq["mantissa"]), int(rq["shift"]))
            self.layers.append((cols, bias, requant, (1 << entry["act_bits"]) - 1))

    @classmethod
    def from_file(cls, path: str) -> "IntOracle":
        with open(path) as fh:
            return cls(json.load(fh))

    def quantize_input(self, x) -> list[int]:
        """Round half to even, then clip, exactly as float64 numpy does."""
        return [min(max(round(v / self.in_scale), self.in_lo), self.in_hi)
                for v in x]

    def codes(self, x) -> list[int]:
        """Integer logit codes for one standardized feature row."""
        h = self.quantize_input(x)
        for cols, bias, requant, qmax in self.layers:
            acc = [sum(map(operator.mul, h, col)) + b for col, b in zip(cols, bias)]
            if requant is None:
                return acc
            m, c = requant
            if c > 0:
                acc = [(a * m + (1 << (c - 1))) >> c for a in acc]
            else:
                acc = [a * m for a in acc]
            h = [min(max(a, 0), qmax) for a in acc]
        raise ValueError("integer model has no layers")

    def logits(self, codes: list[int]) -> list[float]:
        return [float(q) * self.out_scale for q in codes]


def standardize_row(row: list[float], mean: list[float], std: list[float]) -> list[float]:
    return [(v - m) / s for v, m, s in zip(row, mean, std)]


def argmax(values) -> int:
    best = 0
    for j, v in enumerate(values):
        if v > values[best]:
            best = j
    return best


def check_run_ir_rows(oracle: IntOracle, features: dict, outputs: dict,
                      mean, std) -> list[str]:
    """Compare run-ir output rows with the replay.

    features maps row index -> raw feature list (from dataset.csv); outputs
    maps row index -> (prediction, logits) parsed from ir_outputs.csv.
    Returns one message per mismatching row.
    """
    bad = []
    for r, (pred, logits) in outputs.items():
        want = oracle.logits(oracle.codes(standardize_row(features[r], mean, std)))
        if logits != want or pred != argmax(want):
            bad.append(f"row {r}: run-ir {pred} {logits} != oracle "
                       f"{argmax(want)} {want}")
    return bad


def check_code_rows(oracle: IntOracle, x_rows: dict, codes: dict) -> list[str]:
    """Compare integer logit codes (row index -> list of ints) with the replay."""
    bad = []
    for r, got in codes.items():
        want = oracle.codes(x_rows[r])
        if [int(v) for v in got] != want:
            bad.append(f"row {r}: codes {list(got)} != oracle {want}")
    return bad


def check_logit_rows(oracle: IntOracle, x_rows: dict, logits: dict) -> list[str]:
    """Compare real logits (row index -> list of floats) with the replay."""
    bad = []
    for r, got in logits.items():
        want = oracle.logits(oracle.codes(x_rows[r]))
        if [float(v) for v in got] != want:
            bad.append(f"row {r}: logits {list(got)} != oracle {want}")
    return bad


def bump_one_code(oracle: IntOracle, logits: list[float], j: int = 0) -> list[float]:
    """The same logits with logit j moved by one integer code."""
    out = list(logits)
    out[j] = float(round(out[j] / oracle.out_scale) + 1) * oracle.out_scale
    return out
