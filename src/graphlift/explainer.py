"""Compile a forward graph into a self-contained explainer and run it.

The artifact is one graph with a single runtime input (the sample to explain)
and, in this order, two outputs: the model's prediction row and an
input-shaped attribution, then the input multipliers when they are exposed.
Everything else — reference rows or the reference activations folded at
compile time, gradient seeds, backward wiring — lives inside as constants, so
a saved artifact can be shipped and executed anywhere the executor runs, with
no other state.

The graph is the one statement of that interface: ``explain`` feeds its
input, coerced to the artifact's dtype once, and reads its outputs by
position, handing back the arrays the plan's scans have already covered.
The metadata holds what the graph cannot say, such as the explained class
and the mean reference output the completeness residual is taken against.
The rules' one epsilon, for the smooth activations, is a constant
(``rules.EPS_ACT``), so the metadata does not record it; an artifact whose
metadata still records epsilons, as older versions wrote it, explains as it
was compiled, and ``graphlift verify`` checks it against the rules as they
are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParseError, ShapeError, ValidationError
from .executor import ExecutionPlan, execute
from .ir import GraphModel, TensorValue, _as_array, _read_model, save_model
from .refopt import build_naive, build_optimized

__all__ = [
    "ExplainerArtifact",
    "Attribution",
    "compile_explainer",
    "explain",
    "save_artifact",
    "load_artifact",
    "write_pgm",
]

_SCHEMES = {"opt": "optimized", "optimized": "optimized", "naive": "naive"}


# metadata key -> accepted types, for every key ``explain`` or
# ``graphlift verify`` reads
_EXPLAIN_KEYS = {"output_index": int, "ref_output_mean": (int, float)}


def _check_metadata(model: GraphModel, meta) -> None:
    """Reject an artifact that ``explain`` could not act on."""
    if not isinstance(meta, dict):
        raise ValidationError("artifact metadata must be a JSON object")
    for key, kinds in _EXPLAIN_KEYS.items():
        if key not in meta:
            raise ValidationError(f"artifact metadata lacks {key!r}")
        if isinstance(meta[key], bool) or not isinstance(meta[key], kinds):
            raise ValidationError(
                f"artifact metadata {key!r} has the wrong type: {meta[key]!r}")
    if len(model.inputs) != 1 or len(model.outputs) < 2:
        raise ValidationError(
            f"an artifact takes one input and gives at least two outputs, not "
            f"{len(model.inputs)} and {len(model.outputs)}")
    if model.inputs[0].name in (out.name for out in model.outputs[:2]):
        raise ValidationError(
            "an artifact's prediction and attribution are computed from its "
            "input, not the input itself")
    shape = model.outputs[0].shape
    classes = shape[-1] if shape else 0
    if not 0 <= meta["output_index"] < classes:
        raise ValidationError(
            f"output index {meta['output_index']} outside the {classes}-class "
            "head")


@dataclass
class ExplainerArtifact:
    """A deployable graph plus the metadata describing how it was built.

    The execution plan is built, and the metadata checked, on the first
    ``explain``; neither the model nor the metadata may change after that.
    """

    model: GraphModel
    metadata: dict
    _plan: ExecutionPlan | None = field(default=None, init=False, repr=False,
                                        compare=False)

    @property
    def plan(self) -> ExecutionPlan:
        if self._plan is None:
            _check_metadata(self.model, self.metadata)
            self._plan = ExecutionPlan(self.model)
        return self._plan


@dataclass
class Attribution:
    """Input-shaped feature scores for one prediction."""

    phi: TensorValue
    residual: float
    prediction: TensorValue


def compile_explainer(model: GraphModel, references, output_index: int = 0,
                      scheme: str = "optimized", *,
                      expose_multipliers: bool = False) -> ExplainerArtifact:
    """Build the explainer for one output coordinate under one scheme."""
    if not isinstance(scheme, str) or scheme not in _SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; use opt or naive")
    build = build_optimized if _SCHEMES[scheme] == "optimized" else build_naive
    graph, meta = build(model, references, output_index,
                        expose_multipliers=expose_multipliers)
    return ExplainerArtifact(model=graph, metadata=meta)


def explain(artifact: ExplainerArtifact, sample) -> Attribution:
    """Run the artifact on one sample row.

    The sample is coerced to the artifact's dtype once, here, and
    ``execute`` takes that array as it is.  The attribution holds the
    prediction and φ arrays ``execute`` returned, with no second finiteness
    scan: the plan scans every output a step makes that could hold a
    non-finite value, a non-finite constant stops every ``execute``, and an
    artifact's first two outputs are never its input (``_check_metadata``),
    so a non-finite prediction or φ raises NumericError naming its node."""
    plan = artifact.plan
    meta = artifact.metadata
    spec = artifact.model.inputs[0]
    arr = _as_array(sample, spec.dtype, "sample")
    outputs, _ = execute(plan, {spec.name: arr})
    prediction, phi = (outputs[out.name] for out in artifact.model.outputs[:2])
    predicted = float(prediction.reshape(-1, prediction.shape[-1])
                      [0, meta["output_index"]])
    residual = abs(float(np.add.reduce(phi, None))
                   - (predicted - meta["ref_output_mean"]))
    return Attribution(phi=TensorValue._scanned(phi, spec.dtype),
                       residual=residual,
                       prediction=TensorValue._scanned(prediction, spec.dtype))


def save_artifact(artifact: ExplainerArtifact, path: str) -> None:
    save_model(artifact.model, path, metadata=artifact.metadata)


def load_artifact(path: str) -> ExplainerArtifact:
    """A saved artifact, or ParseError unless its container digest, which
    covers the metadata, recomputes and the metadata is an object.  Artifacts
    saved before the digest covered their metadata must be recompiled."""
    model, meta = _read_model(path)
    if meta is None:
        raise ParseError(f"{path!r} holds a plain model, not an explainer")
    if not isinstance(meta, dict):
        raise ParseError(f"{path!r}: artifact metadata is not a JSON object")
    return ExplainerArtifact(model=model, metadata=meta)


def write_pgm(phi, path: str) -> None:
    """Dump an attribution as a plain-text grayscale image.

    Channel axes are collapsed by summation; the value range is min-max
    scaled to 0..255, halved first when it overflows float64.  A non-numeric
    ``phi`` is a ValidationError and a non-finite one a NumericError, raised
    before the file is opened.
    """
    arr = _as_array(phi, "float64", "phi")
    arr = np.squeeze(arr, axis=0) if arr.ndim and arr.shape[0] == 1 else arr
    while arr.ndim > 2:
        arr = arr.sum(axis=0)
    if arr.ndim != 2:
        raise ShapeError(
            f"attribution with per-sample rank {arr.ndim} has no 2-D layout")
    if arr.size == 0:
        raise ShapeError(f"attribution of shape {arr.shape} holds no pixels")
    if not np.isfinite(arr).all():
        raise NumericError("attribution holds a non-finite value; no image "
                           "can scale it")
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo == np.inf:
        # a range past the float64 maximum: halving first keeps every gap finite
        arr, lo, hi = arr / 2, lo / 2, hi / 2
    scaled = np.full(arr.shape, 128, dtype=np.int64) if hi == lo else \
        np.rint((arr - lo) / (hi - lo) * 255).astype(np.int64)
    height, width = scaled.shape
    lines = [f"P2\n{width} {height}\n255"]
    for row in scaled:
        lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
