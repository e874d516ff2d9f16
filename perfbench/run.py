#!/usr/bin/env python3
"""hessquant benchmark: one closed-loop client, one process, four workloads.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload chain_default --seed 1 --seconds 10 --trace 0

Each run sets its workload up several times (reported as setup_s), runs one
untimed reference op whose artifact digests every later op must reproduce,
then runs timed ops back to back until their summed time reaches --seconds
(at least MIN_OPS of them).  Every op is checked: exit codes, sweep error
records, the integer oracle and the digests.  With --trace 1 the run instead
times untraced ops, then the same number of seconds of traced ops, and
reports per-layer self times and counts from the traced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is a JSON record of the
run's environment, artifact digests and workload-specific numbers.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_OPS = 4
REF_KERNEL_S = 0.040   # calibration kernel time at reference speed (SpeedClock)
MIN_SEGMENT_S = 0.5    # shortest timed segment of a split op (SpeedClock)
NET_LAYERS = 4      # the default architecture [16, 64, 32, 32, 5]
CLI_COMMANDS = ("gen-data", "train", "trace", "allocate", "quantize", "export-ir",
                "opt-ir", "run-ir", "estimate", "sweep", "report")

# Per-layer metrics: (name, unit, better, how).  how is ("self", span) for
# self time, ("total", span) for inclusive time, ("count", counter) for a
# count at the public boundary, or a key handled in per_layer_values.
PER_LAYER = (
    [(f"cli.{c}.total_s", "s", "lower", ("total", f"cli.{c}")) for c in CLI_COMMANDS]
    + [("cli.self.s", "s", "lower", "cli_self")]
    + [(f"data.{f}.s", "s", "lower", ("self", f"data.{f}"))
       for f in ("ingest_csv", "write_csv", "standardize")]
    + [("data.ingest_csv.calls", "count", "lower", ("count", "data.ingest_csv.calls")),
       ("data.ingest_csv.rows", "rows", "lower", ("count", "data.ingest_csv.rows"))]
    + [(f"nn.{f}.s", "s", "lower", ("self", f"nn.{f}"))
       for f in ("train", "grad", "loss", "accuracy", "replace_parameters", "hvp",
                 "fd_hvp")]
    + [("nn.train.total_s", "s", "lower", ("total", "nn.train")),
       ("nn.train.step_ms", "ms", "lower", ("step_ms", "nn.train"))]
    + [(f"nn.{f}.calls", "count", "lower", ("count", f"nn.{f}.calls"))
       for f in ("grad", "replace_parameters", "hvp")]
    + [("hessian.layer_sensitivities.s", "s", "lower",
        ("self", "hessian.layer_sensitivities")),
       ("hessian.hutchinson_estimate.s", "s", "lower",
        ("self", "hessian.hutchinson_estimate")),
       ("hessian.probes", "count", "lower", ("count", "hessian.hutchinson_trace.probes"))]
    + [(f"hessian.hutchinson_trace.layer{j}.total_s", "s", "lower",
        ("total", f"hessian.hutchinson_trace.layer{j}")) for j in range(NET_LAYERS)]
    + [("allocate.solve_ilp.s", "s", "lower", ("self", "allocate.solve_ilp")),
       ("allocate.solve_ilp.explored", "count", "lower",
        ("count", "allocate.solve_ilp.explored")),
       ("allocate.explored_ratio", "ratio", "lower", "explored_ratio"),
       ("allocate.sweep.s", "s", "lower", ("self", "allocate.sweep")),
       ("allocate.sweep.total_s", "s", "lower", ("total", "allocate.sweep"))]
    + [(f"quantize.{f}.s", "s", "lower", ("self", f"quantize.{f}"))
       for f in ("qat_train", "lower", "int_forward", "save_integer_model",
                 "calibrate", "fake_quant", "quantize", "requantize")]
    + [("quantize.qat_train.total_s", "s", "lower", ("total", "quantize.qat_train")),
       ("quantize.qat_train.calls", "count", "lower", ("count", "quantize.qat_train.calls")),
       ("quantize.qat_train.step_ms", "ms", "lower", ("step_ms", "quantize.qat_train")),
       ("quantize.int_forward.rows", "rows", "lower", ("count", "quantize.int_forward.rows"))]
    + [(f"ir.{f}.s", "s", "lower", ("self", f"ir.{f}"))
       for f in ("evaluate", "infer_shapes", "validate", "fold_constants",
                 "merge_scales_relu", "export_graph", "load_graph", "save_graph")]
    + [("ir.evaluate.calls", "count", "lower", ("count", "ir.evaluate.calls")),
       ("ir.evaluate.rows", "rows", "lower", ("count", "ir.evaluate.rows")),
       ("ir.infer_shapes.calls", "count", "lower", ("count", "ir.infer_shapes.calls")),
       ("ir.nodes_after_opt", "count", "lower", ("count", "ir.merge_scales_relu.nodes"))]
    + [("hwest.estimate.s", "s", "lower", ("self", "hwest.estimate"))]
    + [(f"ioutil.{f}.s", "s", "lower", ("self", f"ioutil.{f}"))
       for f in ("sha256_file", "write_atomic")]
    + [(f"ioutil.{f}.bytes", "B", "lower", ("count", f"ioutil.{f}.bytes"))
       for f in ("sha256_file", "write_atomic")]
    + [("trace.op_s_p50", "s", "lower", "traced_op_s"),
       ("trace.untraced_op_s_p50", "s", "lower", "untraced_op_s"),
       ("trace.overhead_s", "s", "lower", "overhead_s")]
)

# Counts that must repeat exactly from one traced op to the next.
EXACT_COUNT_SUFFIXES = (".calls", ".rows", ".explored", ".grid", ".probes", ".steps",
                        ".nodes")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


class SpeedClock:
    """Times intervals in wall seconds and in reference seconds.

    On a machine whose cores are shared with other tenants (measured on a
    2-core Xeon VM) the same code runs up to 1.7x slower or faster, in phases
    that last a few seconds.  The clock runs a fixed
    calibration kernel (a pure Python loop plus small numpy matmuls, like the
    program) at the start and end of every timed segment and scales the
    segment by REF_KERNEL_S over the mean of those two kernel times.  A
    reference second is the time a segment would take where the kernel takes
    REF_KERNEL_S.  Long ops are cut into segments that end when one of the
    functions named in split_after returns after at least MIN_SEGMENT_S, so
    each segment is short enough for the speed to stay about constant across
    it.  The kernels run between segments and are not part of the op's time.
    """

    def __init__(self, package):
        import numpy as np
        self._a = np.random.default_rng(0).standard_normal((64, 64))
        self._np = np
        self.package = package

    def kernel(self) -> float:
        np, a = self._np, self._a
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            s = 0
            for i in range(60000):
                s += i * i
            b = a
            for _ in range(300):
                b = np.tanh(b @ a * 0.01)
            best = min(best, time.perf_counter() - t0)
        return best

    def measure(self, fn, split_after=()):
        """(fn's result, wall seconds, reference seconds per wall second)."""
        segments = []               # (wall seconds, speed factor)
        before = self.kernel()
        t0 = time.perf_counter()

        def split(last=False):
            nonlocal before, t0
            wall = time.perf_counter() - t0
            if wall < MIN_SEGMENT_S and not last:
                return
            after = self.kernel()
            segments.append((wall, REF_KERNEL_S / ((before + after) / 2)))
            before = after
            t0 = time.perf_counter()

        def splitting(inner):
            @functools.wraps(inner)
            def wrapper(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                finally:
                    split()
            return wrapper

        patched = []
        for module, name in split_after:
            mod = getattr(self.package, module)
            patched.append((mod, name, getattr(mod, name)))
            setattr(mod, name, splitting(getattr(mod, name)))
        try:
            result = fn()
        finally:
            for mod, name, inner in reversed(patched):
                setattr(mod, name, inner)
        split(last=True)
        wall = sum(w for w, _ in segments)
        return result, wall, sum(w * f for w, f in segments) / wall


class Runner:
    """Runs and checks ops of one workload; counts attempts and failures."""

    def __init__(self, workload, clock: SpeedClock, split: bool = True):
        self.wl = workload
        self.clock = clock
        # Traced runs time whole ops: a kernel inside an op would land in
        # the spans around it.
        self.split_after = workload.split_after if split else ()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.quality: dict = {}

    def run_op(self) -> tuple[float, float]:
        """One op: untimed preparation, timed op, untimed check.  Returns its
        wall seconds and its speed factor."""
        self.wl.prepare()
        self.attempted += 1
        try:
            result, wall, factor = self.clock.measure(self.wl.op, self.split_after)
        except Exception:
            self._fail([traceback.format_exc()])
            return float("nan"), float("nan")
        try:
            digests, problems, quality = self.wl.check(result)
        except Exception:
            self._fail([traceback.format_exc()])
            return wall, factor
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(k for k in set(digests) | set(self.reference)
                             if digests.get(k) != self.reference.get(k))
            problems = problems + [f"artifacts differ from the first op: {changed}"]
        if problems:
            self._fail(problems)
        else:
            self.quality = quality
        return wall, factor

    def _fail(self, problems):
        self.failed += 1
        self.problems.extend(problems)
        for p in problems:
            print(f"op {self.attempted} failed: {p}", file=sys.stderr)

    def timed_ops(self, seconds: float, on_op=None) -> tuple[list, list]:
        """Ops back to back until their wall time sums to seconds; returns
        their wall seconds and speed factors."""
        walls: list[float] = []
        factors: list[float] = []
        while sum(walls) < seconds or len(walls) < MIN_OPS:
            if on_op:
                on_op(len(walls))
            wall, factor = self.run_op()
            if wall != wall:         # the op raised before it could be timed
                break
            walls.append(wall)
            factors.append(factor)
        return walls, factors


def ref_median(walls, factors) -> float:
    return statistics.median(w * f for w, f in zip(walls, factors))


def per_layer_values(tracer, op_ids, factors, traced_ref, untraced_ref):
    """Median over traced ops of each per-layer metric, times in reference
    seconds; also the ops whose exact counts differ from the first one's."""
    summaries = [tracer.op_summary(op) for op in op_ids]
    mismatches = []
    first = {k: v for k, v in summaries[0][2].items() if k.endswith(EXACT_COUNT_SUFFIXES)}
    for op, (_, _, counts) in zip(op_ids[1:], summaries[1:]):
        now = {k: v for k, v in counts.items() if k.endswith(EXACT_COUNT_SUFFIXES)}
        if now != first:
            diff = sorted(k for k in set(now) | set(first) if now.get(k) != first.get(k))
            mismatches.append(f"traced op {op}: per-layer counts differ: {diff}")

    def one(how, factor, self_s, total_s, counts):
        if how == "cli_self":
            return factor * sum(v for k, v in self_s.items() if k.startswith("cli."))
        if how == "explored_ratio":
            grid = counts.get("allocate.solve_ilp.grid", 0)
            return counts.get("allocate.solve_ilp.explored", 0) / grid if grid else 0.0
        kind, key = how
        if kind == "self":
            return factor * self_s.get(key, 0.0)
        if kind == "total":
            return factor * total_s.get(key, 0.0)
        if kind == "count":
            return counts.get(key, 0)
        steps = counts.get(f"{key}.steps", 0)   # step_ms
        return factor * 1000.0 * total_s.get(key, 0.0) / steps if steps else 0.0

    special = {"traced_op_s": traced_ref, "untraced_op_s": untraced_ref,
               "overhead_s": traced_ref - untraced_ref}
    values = {}
    for name, unit, _, how in PER_LAYER:
        if how in special:
            value = special[how]
        elif how == "explored_ratio" or how[0] == "count":   # equal in every op
            value = one(how, factors[0], *summaries[0])
        else:
            value = statistics.median(one(how, f, *s) for f, s in zip(factors, summaries))
        values[name] = {"value": value, "unit": unit}
    return values, mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:          # before numpy loads: one BLAS thread
        os.environ[var] = "1"
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hessquant", "__init__.py")):
        print(f"perfbench: no hessquant package under {src}; run from the root "
              "of a hessquant checkout", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = src   # for the set-up's fresh interpreters
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    import hessquant
    if os.path.dirname(os.path.abspath(hessquant.__file__)) != os.path.join(src, "hessquant"):
        print(f"perfbench: imported hessquant from {hessquant.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(root, ".perfbench_work")
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    shutil.rmtree(wl.dir, ignore_errors=True)
    clock = SpeedClock(hessquant)

    setups = [clock.measure(wl.setup)[1:] for _ in range(wl.setup_repeats)]
    runner = Runner(wl, clock, split=not args.trace)
    runner.problems += wl.setup_problems
    runner.run_op()                       # reference op: warms up, pins digests
    self_test = runner.failed == 0 and wl.self_test()
    if not self_test:
        runner.problems.append("oracle self-test did not flag a one-code change")

    walls, factors = runner.timed_ops(args.seconds)
    if not walls:
        print("perfbench: no op completed:\n" + "\n".join(runner.problems),
              file=sys.stderr)
        return 1
    op_ref = ref_median(walls, factors)
    details = {}
    if args.trace:
        tr = tracing.Tracer(hessquant)
        tr.install()
        start_op = runner.attempted + 1
        try:
            t_walls, t_factors = runner.timed_ops(
                args.seconds, on_op=lambda i: setattr(tr, "op_id", start_op + i))
        finally:
            tr.uninstall()
        if not t_walls:
            print("perfbench: no traced op completed:\n" + "\n".join(runner.problems),
                  file=sys.stderr)
            return 1
        metrics, mismatches = per_layer_values(
            tr, list(range(start_op, start_op + len(t_walls))), t_factors,
            ref_median(t_walls, t_factors), op_ref)
        runner.failed += len(mismatches)
        runner.problems += mismatches
        tr.write(os.path.join(work, f"spans-{args.workload}-seed{args.seed}.json"))
        details["traced_op_wall_s"] = t_walls
    else:
        metrics = {
            "setup_s": {"value": ref_median(*zip(*setups)), "unit": "s"},
            "op_s_p50": {"value": op_ref, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "accuracy": {"value": runner.quality.get("accuracy", 0.0), "unit": "ratio"},
        }

    q = runner.quality
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "setup_wall_s": [w for w, _ in setups],
        "op_wall_s": walls, "op_wall_s_p50": statistics.median(walls),
        "speed_factors": factors,
        "ops_timed": len(walls),
        "failed_op_ratio": runner.failed / runner.attempted,
        f"{wl.work_unit}_per_s": q.get("work", 0) / op_ref,
        "quality": {k: v for k, v in q.items() if k != "work"},
        "oracle_self_test": self_test,
        "digests": runner.reference,
        "problems": runner.problems,
    })
    print(json.dumps(details, sort_keys=True))
    shutil.rmtree(wl.dir, ignore_errors=True)
    correct = not runner.problems and runner.failed == 0 and self_test
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
