"""Compile inference graphs into self-contained attribution explainers.

The package turns a feed-forward classifier into a single deployable graph
that computes the model's prediction together with reference-based input
attributions.  Two compilation schemes are provided: a replicate-and-stack
baseline and an optimized form whose graph builder folds every
reference-only computation into constants at compile time, with the same
kernels the executor runs.
"""

from .corpus import (LINEAR_FAMILIES, MICRO_FAMILIES, CorpusEntry, MicroNet,
                     build_corpus, corpus_entry, demo_model, demo_sample,
                     micro_net, random_inputs, random_references,
                     zero_references)
from .errors import (GraphliftError, NoPathError, NumericError, ParseError,
                     ShapeError, StuckError, UnsupportedOp, ValidationError)
from .executor import ExecutionPlan, execute
from .explainer import (Attribution, ExplainerArtifact, compile_explainer,
                        explain, load_artifact, save_artifact, write_pgm)
from .ir import (GraphModel, Node, TensorValue, ValueSpec, load_model,
                 load_tensor, model_digest, save_model, save_tensor,
                 validate_model)
from .oracle import (ClosenessReport, compare_attributions, deeplift_oracle,
                     finite_diff)
from .refopt import (FlopReport, build_naive, build_optimized, count_flops,
                     op_census)
from .shapes import infer_graph_shapes

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "GraphliftError", "ParseError", "ValidationError", "ShapeError",
    "UnsupportedOp", "NumericError", "NoPathError", "StuckError",
    # model structure and serialization
    "GraphModel", "Node", "TensorValue", "ValueSpec", "validate_model",
    "save_model", "load_model", "save_tensor", "load_tensor",
    "model_digest", "infer_graph_shapes", "execute", "ExecutionPlan",
    # compilation and use
    "compile_explainer", "explain", "Attribution",
    "ExplainerArtifact", "save_artifact", "load_artifact", "write_pgm",
    "build_optimized", "build_naive", "FlopReport", "count_flops",
    "op_census",
    # verification
    "deeplift_oracle", "finite_diff", "compare_attributions",
    "ClosenessReport",
    # built-in models
    "CorpusEntry", "MicroNet", "MICRO_FAMILIES", "LINEAR_FAMILIES",
    "build_corpus", "corpus_entry", "micro_net", "demo_model", "demo_sample",
    "random_inputs", "random_references", "zero_references",
]
