"""Span recording around the graphlift layers, from outside the package.

The package's modules import each other's functions by name (``executor``
and ``refopt`` hold their own ``topological_order`` binding, ``autodiff``
holds ``f_grad``), so wrapping a function in its home module alone would miss
most calls.  ``SpanRecorder.install`` therefore replaces every binding of each
wrapped function in the layer modules and in the ``graphlift`` package
namespace, records which bindings it replaced, and ``remove`` puts the
originals back.  ``graphlift.oracle`` is never touched: it is the checker,
not a layer, and its calls must not show up as layer work.

Spans are kept in memory as flat lists and written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

# The timed layers, in dependency order.  ``corpus`` only generates the load
# and ``oracle`` is the checker, so neither is wrapped.
LAYERS = ("ir", "shapes", "executor", "builder", "rules", "parser",
          "autodiff", "refopt", "explainer")

# Span fields, one list per span.
NAME, START, END, PARENT, REQUEST, KEY, VALUE = range(7)


def _emit_pre(args):
    return len(args[0].nodes)


def _emit_post(args, result, before):
    # 1 when the op was folded to a build-time constant instead of appended
    return int(len(args[0].nodes) == before)


def _f_grad_post(args, result, before):
    return len(result.new_nodes)


# span name -> (key of the call, value taken before, value taken after)
_PROBES = {
    "executor.eval_node": (lambda a: a[0].op_type, None, None),
    "rules.f_grad": (lambda a: a[0].node.op_type, None, _f_grad_post),
    "builder.emit": (lambda a: a[1], _emit_pre, _emit_post),
}


class SpanRecorder:
    """Wraps the layer functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self.requests: dict[int, dict] = {}
        self.bindings: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("span recorder is already installed")
        package = importlib.import_module("graphlift")
        modules = {layer: importlib.import_module(f"graphlift.{layer}")
                   for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._replace(holder, name, wrapper)
        builder_cls = modules["builder"].GraphBuilder
        self._replace(builder_cls, "emit",
                      self._wrap("builder.emit", builder_cls.emit))

    def _replace(self, holder, name: str, wrapper) -> None:
        where = f"{holder.__module__}.{holder.__qualname__}" \
            if inspect.isclass(holder) else holder.__name__
        self._restore.append((holder, name, vars(holder)[name]))
        setattr(holder, name, wrapper)
        self.bindings.append(f"{where}.{name} -> {wrapper.__qualname__}")

    def remove(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _wrap(self, span_name: str, fn):
        key_of, pre, post = _PROBES.get(span_name, (None, None, None))
        spans, stack = self.spans, self._stack
        recorder = self

        def wrapper(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1,
                    recorder.request, key_of(args) if key_of else None, None]
            stack.append(len(spans))
            spans.append(span)
            before = pre(args) if pre else None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if post:
                span[VALUE] = post(args, result, before)
            return result

        wrapper.__qualname__ = span_name
        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ---------------------------------------------------------

    def check_nesting(self) -> int:
        """Count spans that do not fit inside their parent.

        Self time is duration minus child time, so self plus child time adds
        up to the parent by construction; what can break that is a child
        outside its parent's interval or two children that overlap, either of
        which would make a self time wrong.  Each such span counts once.
        """
        bad = 0
        last_child_end: dict[int, float] = {}
        for span in self.spans:
            p = span[PARENT]
            if p < 0:
                continue
            parent = self.spans[p]
            inside = parent[START] <= span[START] <= span[END] <= parent[END]
            after_sibling = span[START] >= last_child_end.get(p, parent[START])
            bad += not (inside and after_sibling)
            last_child_end[p] = span[END]
        return bad

    def summarize(self, requests=None) -> dict:
        """Per span name: calls, total and self seconds; per (name, key):
        seconds and summed values.  Only spans of the given request ids count
        when ``requests`` is set."""
        spans = self.spans
        child = defaultdict(float)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        by_key = defaultdict(float)
        values = defaultdict(int)
        for i, span in enumerate(spans):
            if requests is not None and span[REQUEST] not in requests:
                continue
            name = span[NAME]
            dur = span[END] - span[START]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
            if span[KEY] is not None:
                by_key[(name, span[KEY])] += dur
            if span[VALUE] is not None:
                values[(name, span[KEY])] += span[VALUE]
        return {"calls": calls, "total": total, "self": own,
                "by_key": by_key, "values": values}

    def time_under(self, name: str, ancestor: str) -> float:
        """Seconds spent in spans called ``name`` nested inside ``ancestor``."""
        inside: list[bool] = []
        seconds = 0.0
        for span in self.spans:
            p = span[PARENT]
            under = p >= 0 and inside[p]
            inside.append(under or span[NAME] == ancestor)
            if under and span[NAME] == name:
                seconds += span[END] - span[START]
        return seconds

    def dump(self, path, extra: dict) -> None:
        """Write every span, the bindings and the request table as gzip JSON."""
        doc = {**extra, "bindings": self.bindings,
               "requests": {str(k): v for k, v in self.requests.items()},
               "fields": ["name", "start", "end", "parent", "request", "key",
                          "value"],
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
