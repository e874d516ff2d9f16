"""Span tracer that wraps the public functions of the hessquant modules.

The benchmark installs it in its own process for a traced run only.  Every
public function defined in a traced module is replaced by a wrapper that
records a span (name, start, end, parent, op id), and every module attribute
bound to such a function (names re-bound by ``from ... import``, such as
``cli.sha256_file``) is pointed at the same wrapper.  Calls that bypass module
attributes, like the ``cli.COMMANDS`` table, stay untraced; ``cli.main`` is
traced instead and named after its subcommand.

Spans are kept in memory.  ``op_summary`` turns the spans and counters of one
op into self time per span name; ``write`` saves everything when the run ends.
The tracer assumes one thread, which the benchmark guarantees (sweep jobs 1).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time

MODULES = ("data", "nn", "hessian", "allocate", "quantize", "ir", "hwest",
           "ioutil", "cli")


def _train_steps(args) -> int:
    """Optimizer steps a training call will take, from its config and data."""
    cfg, rows = args["cfg"], len(args["data"])
    return cfg.epochs * math.ceil(rows / cfg.batch_size)


def _first_len(inputs: dict) -> int:
    return len(next(iter(inputs.values()))) if inputs else 0


# Counters taken at the public boundary: function -> hook(bound args, result)
# returning {counter suffix: amount}.
COUNTERS = {
    "data.ingest_csv": lambda a, r: {"rows": len(r)},
    "nn.train": lambda a, r: {"steps": _train_steps(a)},
    "quantize.qat_train": lambda a, r: {"steps": _train_steps(a)},
    "quantize.int_forward": lambda a, r: {"rows": len(a["x"])},
    "ir.evaluate": lambda a, r: {"rows": _first_len(a["inputs"])},
    "ir.merge_scales_relu": lambda a, r: {"nodes": len(r.nodes)},
    "hessian.hutchinson_trace": lambda a, r: {"probes": a["k"]},
    "allocate.solve_ilp": lambda a, r: {
        "explored": r.explored,
        "grid": len(a["problem"].candidates) ** a["problem"].arch.n_layers},
    "ioutil.sha256_file": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "ioutil.write_atomic": lambda a, r: {"bytes": len(a["data"])},
}

# Span names that depend on the arguments.
NAMERS = {
    "cli.main": lambda a: f"cli.{a['argv'][0]}",
    "hessian.hutchinson_trace": lambda a: f"hessian.hutchinson_trace.layer{a['layer']}",
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []      # (name, start, end, parent index, op id)
        self.counts: list[tuple] = []     # (op id, counter name, amount)
        self.calls: dict = {}             # (op id, function name) -> calls
        self.op_id = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {m: getattr(self.package, m) for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        for mod in (self.package, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._originals.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._originals):
            setattr(mod, name, fn)
        self._originals.clear()

    def _wrap(self, qualname: str, fn):
        counter = COUNTERS.get(qualname)
        namer = NAMERS.get(qualname)
        sig = inspect.signature(fn) if (counter or namer) else None
        spans, stack, calls = self.spans, self._stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            name = namer(bound) if namer else qualname
            op = self.op_id
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
                key = (op, qualname)
                calls[key] = calls.get(key, 0) + 1
            if counter:
                for suffix, amount in counter(bound, result).items():
                    self.counts.append((op, f"{qualname}.{suffix}", amount))
            return result

        return wrapper

    # -- summaries --------------------------------------------------------

    def op_summary(self, op) -> tuple[dict, dict, dict]:
        """(self seconds, inclusive seconds, counts) per name for one op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, span_op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for i, (name, start, end, _, span_op) in enumerate(self.spans):
            if span_op != op:
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            total_s[name] = total_s.get(name, 0.0) + (end - start)
        counts: dict[str, float] = {}
        for (call_op, qualname), n in self.calls.items():
            if call_op == op:
                counts[f"{qualname}.calls"] = n
        for count_op, name, amount in self.counts:
            if count_op == op:
                counts[name] = counts.get(name, 0) + amount
        return self_s, total_s, counts

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                      for n, s, e, p, o in self.spans],
            "counts": [{"op": o, "name": n, "amount": a} for o, n, a in self.counts],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
