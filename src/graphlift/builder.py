"""Incremental graph construction with value numbering and constant folding.

Both artifact layouts add their forward nodes to a GraphBuilder, and the
gradient rules emit their operator nodes through it.  The builder folds every
node whose inputs are all known, forward or backward: the node is evaluated at
build time and its result becomes a known value.  That is what turns
constant-only forward chains, the reference-side copy of the forward graph
and reference-side expression chains into baked constants under the
optimized scheme, while the same rule code emits live nodes for the
replicated-batch scheme.  A compile-time constant is a known value and
nothing more: the builder stores no initializers, and ``refopt`` alone
decides which known values ship and how.  The builder keeps each folded
node that has inputs, so ``refopt`` can ship a constant as the node that
rebuilds it from others.  A folded value that is not finite raises
NumericError naming its node.  Each node is resolved once, when it is
added: its output shapes and, under its first output, its kernel
parameters are kept, so rules read shapes and parameters from the builder
and from nothing else.

``emit`` also numbers values (Click, "Global Code Motion / Global Value
Numbering", PLDI 1995): every op is pure, so an op emitted again with the
same inputs and attributes returns its earlier outputs, and a repeated pure
op is built once, however many rules ask for it.  ``const`` numbers constants
the same way, by shape and bytes, so equal constants share one name.

RuleEnv resolves, for any forward value name, where its target-side and
reference-side activations live: the forward value itself plus its folded
reference-side copy under the optimized scheme, or the two halves of the
stacked 2B-row stream under the replicated-batch scheme.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NumericError, ShapeError
from .executor import eval_node
from .ir import DTYPES, Node, all_finite
from .shapes import resolve_node

__all__ = ["GraphBuilder", "RuleEnv"]


class GraphBuilder:
    """Accumulates nodes, known values and value shapes for a graph under construction."""

    def __init__(self, dtype: str = "float64", prefix: str = "grad"):
        self.dtype = dtype
        self.prefix = prefix
        self.nodes: list[Node] = []
        self.shapes: dict[str, tuple[int, ...]] = {}
        # first output of every added node -> the kernel parameters its law
        # returned
        self.params: dict[str, object] = {}
        # values whose arrays are known at build time (model weights,
        # constants and anything computed only from them); folded booleans
        # live here too
        self.known: dict[str, np.ndarray] = {}
        # each output of a folded node that has inputs -> that node, in fold
        # order
        self.folds: dict[str, Node] = {}
        self._counter = itertools.count()
        # (op_type, inputs, canonical attributes) -> outputs of an emitted op,
        # and (shape, bytes) -> the name of a constant
        self._values: dict[tuple, str | list[str]] = {}

    def fresh(self, tag: str) -> str:
        return f"{self.prefix}/{next(self._counter)}_{tag}"

    def register_value(self, name: str, shape, array: np.ndarray | None = None) -> None:
        """Declare a value produced outside this builder (forward graph, inputs)."""
        self.shapes[name] = tuple(int(d) for d in shape)
        if array is not None:
            self.known[name] = array

    def shape(self, name: str) -> tuple[int, ...]:
        try:
            return self.shapes[name]
        except KeyError:
            raise ShapeError(f"no shape recorded for value {name!r}") from None

    def const(self, array, tag: str) -> str:
        """The name of a known value holding ``array`` in the builder's
        dtype; an equal constant, by shape and bytes, keeps its first name."""
        arr = np.asarray(array, dtype=DTYPES[self.dtype])
        key = (arr.shape, arr.tobytes())
        if key not in self._values:
            self._values[key] = name = self.fresh(tag)
            self.register_value(name, arr.shape, arr)
        return self._values[key]

    def add(self, node: Node) -> bool:
        """Fold a named node into ``known`` or append it; True when folded.

        The node is resolved once either way, its shapes and parameters
        are kept, and a folded node's kernel runs on those parameters.  A
        node folds when every input is known (a node with no inputs, such
        as a Constant, too); otherwise it is appended, and its known inputs
        stay known values for ``refopt`` to ship.  A folded node that has
        inputs, whatever their number, goes into ``folds`` under each of
        its outputs, so ``refopt`` can ship those as the node.
        A folded output that is not finite raises NumericError naming the
        node, as ``execute`` does for a node it runs.
        """
        out_shapes, params = resolve_node(node, [self.shape(i) for i in node.inputs])
        self.shapes.update(zip(node.outputs, map(tuple, out_shapes)))
        self.params[node.outputs[0]] = params
        if all(i in self.known for i in node.inputs):
            args = [self.known[i] for i in node.inputs]
            with np.errstate(all="ignore"):
                results = eval_node(node, args, params)
            for name, arr in zip(node.outputs, results):
                if not all_finite(arr):
                    raise NumericError(
                        f"{node.op_type} node {node.name!r} folded to non-finite "
                        f"values in {name!r}")
                self.known[name] = arr
                if node.inputs:
                    self.folds[name] = node
            return True
        self.nodes.append(node)
        return False

    def emit(self, op_type: str, inputs: list[str], attrs: dict | None = None,
             n_outputs: int = 1, tag: str | None = None):
        """Emit one op; returns the output name (or a list when n_outputs > 1).

        An op already emitted with the same inputs and attributes returns its
        earlier outputs.  A folded op takes fresh names for its outputs only.
        """
        attrs = dict(attrs or {})
        # repr of the sorted items is canonical for attribute values and far
        # cheaper per emit than a JSON encoding
        key = (op_type, tuple(inputs), repr(sorted(attrs.items())))
        if key in self._values:
            return self._values[key]
        tag = tag or op_type.lower()
        names = [self.fresh(tag if n_outputs == 1 else f"{tag}{k}")
                 for k in range(n_outputs)]
        node = Node(op_type, f"n_{tag}", list(inputs), names, attrs)
        if not self.add(node):
            node.name = self.fresh(f"n_{tag}")
        self._values[key] = names[0] if n_outputs == 1 else names
        return self._values[key]


class RuleEnv:
    """Target-side / reference-side name resolution for one compilation scheme.

    With ``joint=False`` (optimized) a forward name is the target activation
    itself and the reference side its folded copy in ``refs``, or the name
    itself when it does not depend on the graph input.  With ``joint=True``
    the forward names carry 2B stacked rows, halves are obtained through
    Split nodes, and gradient tensors ride the full 2B-row stream.
    """

    def __init__(self, builder: GraphBuilder, batch: int, joint: bool,
                 refs: dict[str, str] | None = None):
        self.builder = builder
        self.batch = batch
        self.joint = joint
        # forward names whose stream-width activations live elsewhere (the
        # stacked scheme reroutes the 1-row graph input to its 2B-row stack)
        self.alias: dict[str, str] = {}
        # forward name -> its reference-side copy
        self.refs = refs or {}
        # forward value that one forward node reads and no output names ->
        # the forward node that makes it (``autodiff.differentiate`` fills it)
        self.sole_sources: dict[str, Node] = {}
        # Conv output -> the per-channel scale its BatchNormalization reader
        # handed on, for the Conv's adjoint to fold into its filter
        self.filter_scales: dict[str, np.ndarray] = {}

    def act(self, name: str) -> str:
        """Stream-width activation of a forward value (broadcasts on the target side)."""
        return self.alias.get(name, name)

    def _halves(self, stream: str) -> list[str]:
        """Target-half and reference-half rows of a 2B-row stream."""
        b = self.batch
        return self.builder.emit("Split", [stream], {"axis": 0, "split": [b, b]},
                                 n_outputs=2, tag=f"half_{_short(stream)}")

    def x_of(self, name: str) -> str:
        """Target-side activations of a forward value."""
        return self._halves(self.act(name))[0] if self.joint else name

    def r_of(self, name: str) -> str:
        """Reference-side activations of a forward value."""
        if self.joint:
            return self._halves(self.act(name))[1]
        return self.refs.get(name, name)

    def _other(self, name: str) -> str:
        """The reference side, at stream width, to set against ``act(name)``."""
        if not self.joint:
            return self.r_of(name)
        x_name, r_name = self._halves(self.act(name))
        return self.builder.emit("Concat", [r_name, x_name], {"axis": 0},
                                 tag=f"swap_{_short(self.act(name))}")

    def delta(self, name: str) -> str:
        """Stream-width (target - reference) difference of a forward value."""
        key = self.act(name)
        return self.builder.emit("Sub", [key, self._other(name)],
                                 tag=f"delta_{_short(key)}")

    def mean_act(self, name: str) -> str:
        """Stream-width average of target-side and reference-side activations."""
        key = self.act(name)
        total = self.builder.emit("Add", [key, self._other(name)],
                                  tag=f"actsum_{_short(key)}")
        return self.builder.emit("Mul", [total, self.builder.const(0.5, "half")],
                                 tag=f"actmean_{_short(key)}")

    def grad_x_half(self, grad_name: str) -> str:
        """Target-half rows of a stream gradient."""
        return self._halves(grad_name)[0] if self.joint else grad_name

    def wrap_stream(self, grad_x: str) -> str:
        """Append B zero rows, the reference half, to a target-half tensor."""
        if not self.joint:
            return grad_x
        rank = len(self.builder.shape(grad_x))
        pads = [0] * rank + [self.batch] + [0] * (rank - 1)
        return self.builder.emit("Pad", [grad_x], {"pads": pads}, tag="jointgrad")


def _short(name: str) -> str:
    return name.rsplit("/", 1)[-1].replace(".", "_")[-24:]
