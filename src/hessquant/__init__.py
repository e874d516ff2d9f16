"""Hessian-guided mixed-precision quantization for small dense classifiers.

The pipeline: train a float MLP (`nn`), compute exact per-layer Hessian traces
(`hessian`), pick per-layer bit widths under a BOPs budget (`allocate`),
fake-quantize and lower to an integer-only model (`quantize`), export and
optimize a portable inference graph (`ir`), and estimate hardware resources
(`hwest`).  The `cli` module chains these as subcommands.
"""

__version__ = "0.1.0"

from .allocate import (AllocationProblem, AllocationSolution, ArchSpec,
                       layer_bops, model_bops, omega, solve_ilp, sweep)
from .data import Dataset, generate_synthetic, ingest_csv, split, standardize
from .hessian import (TraceReport, exact_trace, hutchinson_estimate,
                      hutchinson_trace, layer_sensitivities)
from .hwest import EstimatorCoeffs, ResourceEstimate, estimate
from .ir import (IRGraph, IRNode, evaluate, export_graph, fold_constants,
                 infer_shapes, merge_scales_relu, parse, serialize, validate)
from .nn import MLPModel, TrainConfig, TrainingDiverged, accuracy, mlp, train
# The quantization entry points live on the submodule; re-exporting the
# quantize() function here would shadow the hessquant.quantize module itself.
from .quantize import (DyadicScale, IntegerModel, LoweringError, QuantParams,
                       QuantSchema, calibrate, dequantize, fake_quant,
                       int_forward, lower, qat_train, to_dyadic)
from . import quantize  # noqa: E402  (restore the module binding)

__all__ = [
    "__version__",
    "AllocationProblem", "AllocationSolution", "ArchSpec", "layer_bops",
    "model_bops", "omega", "solve_ilp", "sweep",
    "Dataset", "generate_synthetic", "ingest_csv", "split", "standardize",
    "TraceReport", "exact_trace", "hutchinson_estimate", "hutchinson_trace",
    "layer_sensitivities",
    "EstimatorCoeffs", "ResourceEstimate", "estimate",
    "IRGraph", "IRNode", "evaluate", "export_graph", "fold_constants",
    "infer_shapes", "merge_scales_relu", "parse", "serialize", "validate",
    "MLPModel", "TrainConfig", "TrainingDiverged", "accuracy", "mlp", "train",
    "DyadicScale", "IntegerModel", "LoweringError", "QuantParams",
    "QuantSchema", "calibrate", "dequantize", "fake_quant", "int_forward",
    "lower", "qat_train", "quantize", "to_dyadic",
]  # "quantize" here names the submodule
