"""Incremental graph construction with constant folding.

Both artifact layouts add their forward nodes to a GraphBuilder, and the
gradient rules emit their operator nodes through it.  The builder folds every
node whose inputs are all known, forward or backward: the node is evaluated at
build time and its result becomes a known value, stored as an initializer
only if a runtime node reads it.  That is what turns constant-only forward
chains and reference-side expression chains into baked constants under the
reference-caching scheme, while the same rule code emits live nodes for the
replicated-batch scheme.

RuleEnv resolves, for any forward value name, where its target-side and
reference-side activations live: the forward value itself plus a cached
constant when references were precomputed, or the two halves of the stacked
2B-row stream when they were not.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import MissingCacheEntry, ShapeError
from .executor import bind, eval_node
from .ir import DTYPES, Node, TensorValue
from .shapes import infer_node_shapes

__all__ = ["GraphBuilder", "RuleEnv"]


class GraphBuilder:
    """Accumulates nodes, initializers and value shapes for a graph under construction."""

    def __init__(self, dtype: str = "float64", prefix: str = "grad"):
        self.dtype = dtype
        self.prefix = prefix
        self.nodes: list[Node] = []
        self.initializers: dict[str, TensorValue] = {}
        self.shapes: dict[str, tuple[int, ...]] = {}
        # values whose arrays are known at build time (initializers and
        # anything computed only from them); folded booleans live here too
        self.known: dict[str, np.ndarray] = {}
        self._counter = itertools.count()
        self._scalars: dict[float, str] = {}

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
        """Register a new initializer and return its name."""
        arr = np.asarray(array, dtype=DTYPES[self.dtype])
        name = self.fresh(tag)
        self.initializers[name] = TensorValue(arr, self.dtype)
        self.shapes[name] = arr.shape
        self.known[name] = arr
        return name

    def scalar(self, value: float, tag: str) -> str:
        key = float(value)
        if key not in self._scalars:
            self._scalars[key] = self.const(
                np.asarray(value, dtype=DTYPES[self.dtype]), tag
            )
        return self._scalars[key]

    def _materialize(self, name: str) -> None:
        # a folded boolean (or any folded value) becoming a runtime operand
        # must exist as a real initializer; booleans are stored as 0/1 floats
        if name in self.initializers:
            return
        arr = self.known[name]
        if arr.dtype == np.bool_:
            arr = arr.astype(DTYPES[self.dtype])
        self.initializers[name] = TensorValue(np.asarray(arr, dtype=DTYPES[self.dtype]),
                                              self.dtype)

    def add(self, node: Node) -> bool:
        """Fold a named node into ``known`` or append it; True when folded.

        The node's shape law runs once either way.  A node folds when every
        input is known (a node with no inputs, such as a Constant, too);
        otherwise its known inputs become initializers and it is appended.
        """
        out_shapes = infer_node_shapes(node, [self.shape(i) for i in node.inputs])
        self.shapes.update(zip(node.outputs, map(tuple, out_shapes)))
        if all(i in self.known for i in node.inputs):
            args = [self.known[i] for i in node.inputs]
            self.known.update(zip(node.outputs, eval_node(
                node, args, bind(node, [a.shape for a in args]))))
            return True
        for i in node.inputs:
            if i in self.known:
                self._materialize(i)
        self.nodes.append(node)
        return False

    def emit(self, op_type: str, inputs: list[str], attrs: dict | None = None,
             n_outputs: int = 1, tag: str | None = None):
        """Emit one op; returns the output name (or a list when n_outputs > 1).

        A folded op takes fresh names for its outputs only.
        """
        tag = tag or op_type.lower()
        names = [self.fresh(tag if n_outputs == 1 else f"{tag}{k}")
                 for k in range(n_outputs)]
        node = Node(op_type, f"n_{tag}", list(inputs), names, dict(attrs or {}))
        if not self.add(node):
            node.name = self.fresh(f"n_{tag}")
        return names[0] if n_outputs == 1 else names


class RuleEnv:
    """Target-side / reference-side name resolution for one compilation scheme.

    With ``joint=False`` (reference caching) a forward name is the target
    activation itself and the reference side is a baked constant pulled from
    the cache.  With ``joint=True`` the forward names carry 2B stacked rows,
    halves are obtained through shared Split nodes, and gradient tensors ride
    the full 2B-row stream.
    """

    def __init__(self, builder: GraphBuilder, batch: int, joint: bool,
                 sample_shapes: dict[str, tuple[int, ...]],
                 ref_values: dict[str, np.ndarray] | None = None):
        self.builder = builder
        self.batch = batch
        self.joint = joint
        self.sample_shapes = sample_shapes
        # forward names whose stream-width activations live elsewhere (the
        # stacked scheme reroutes the 1-row graph input to its 2B-row stack)
        self.alias: dict[str, str] = {}
        self._ref_values = ref_values or {}
        self._splits: dict[str, tuple[str, str]] = {}
        self._swaps: dict[str, str] = {}
        self._deltas: dict[str, str] = {}
        self._means: dict[str, str] = {}
        self._ref_names: dict[str, str] = {}
        self._x_grads: dict[str, str] = {}
        self._zeros: dict[tuple[int, ...], str] = {}

    @property
    def rows(self) -> int:
        """Rows carried by gradient tensors on the backward stream."""
        return 2 * self.batch if self.joint else self.batch

    def act(self, name: str) -> str:
        """Stream-width activation of a forward value (broadcasts on the target side)."""
        return self.alias.get(name, name)

    def split_halves(self, name: str) -> tuple[str, str]:
        name = self.alias.get(name, name)
        if name not in self._splits:
            b = self.batch
            x_name, r_name = self.builder.emit(
                "Split", [name], {"axis": 0, "split": [b, b]}, n_outputs=2,
                tag=f"half_{_short(name)}")
            self._splits[name] = (x_name, r_name)
        return self._splits[name]

    def x_of(self, name: str) -> str:
        """Target-side activations of a forward value."""
        return self.split_halves(name)[0] if self.joint else name

    def r_of(self, name: str) -> str:
        """Reference-side activations of a forward value."""
        if self.joint:
            return self.split_halves(name)[1]
        if name not in self._ref_names:
            if name not in self._ref_values:
                raise MissingCacheEntry(
                    f"reference cache holds no entry for value {name!r}")
            self._ref_names[name] = self.builder.const(
                self._ref_values[name], f"ref_{_short(name)}")
        return self._ref_names[name]

    def swap(self, name: str) -> str:
        """Stream with target and reference halves exchanged (joint mode only)."""
        name = self.alias.get(name, name)
        if name not in self._swaps:
            x_name, r_name = self.split_halves(name)
            self._swaps[name] = self.builder.emit(
                "Concat", [r_name, x_name], {"axis": 0}, tag=f"swap_{_short(name)}")
        return self._swaps[name]

    def delta(self, name: str) -> str:
        """Stream-width (target - reference) difference of a forward value."""
        key = self.alias.get(name, name)
        if key not in self._deltas:
            other = self.swap(key) if self.joint else self.r_of(name)
            self._deltas[key] = self.builder.emit(
                "Sub", [key, other], tag=f"delta_{_short(key)}")
        return self._deltas[key]

    def mean_act(self, name: str) -> str:
        """Stream-width average of target-side and reference-side activations."""
        key = self.alias.get(name, name)
        if key not in self._means:
            other = self.swap(key) if self.joint else self.r_of(name)
            total = self.builder.emit("Add", [key, other], tag=f"actsum_{_short(key)}")
            half = self.builder.scalar(0.5, "half")
            self._means[key] = self.builder.emit(
                "Mul", [total, half], tag=f"actmean_{_short(key)}")
        return self._means[key]

    def baked_refs(self) -> dict[str, str]:
        """Forward-value name -> initializer name of each baked reference entry."""
        return dict(self._ref_names)

    def grad_x_half(self, grad_name: str) -> str:
        """Target-half rows of a stream gradient."""
        if not self.joint:
            return grad_name
        if grad_name not in self._x_grads:
            b = self.batch
            x_name, _ = self.builder.emit(
                "Split", [grad_name], {"axis": 0, "split": [b, b]}, n_outputs=2,
                tag="gradhalf")
            self._x_grads[grad_name] = x_name
        return self._x_grads[grad_name]

    def wrap_stream(self, grad_x: str, sample_shape: tuple[int, ...]) -> str:
        """Lift a target-half gradient back to stream width (joint mode only)."""
        if not self.joint:
            return grad_x
        shape = (self.batch,) + tuple(sample_shape[1:])
        if shape not in self._zeros:
            self._zeros[shape] = self.builder.const(np.zeros(shape), "deadhalf")
        return self.builder.emit("Concat", [grad_x, self._zeros[shape]],
                                 {"axis": 0}, tag="jointgrad")

    def sample_shape(self, name: str) -> tuple[int, ...]:
        try:
            return self.sample_shapes[name]
        except KeyError:
            raise ShapeError(f"no per-sample shape for value {name!r}") from None


def _short(name: str) -> str:
    return name.rsplit("/", 1)[-1].replace(".", "_")[-24:]
