"""Shared fixtures: corpus entries and compiled artifacts, built once."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

import graphlift as gl
from graphlift.cli import cast_model

BATCH = 5

_CRITERION_LINES: list[str] = []


@pytest.fixture(scope="session")
def criterion_log():
    """Recorder for the acceptance suite's one-line verdicts."""

    def record(number: int, name: str, ok: bool) -> None:
        line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
        print(line)
        _CRITERION_LINES.append(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def edit_header():
    """Read a saved container's JSON header and, given ``change``, rewrite
    the header in place through it, leaving the payload bytes as they are."""

    def edit(path, change=None) -> dict:
        data = Path(path).read_bytes()
        size = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16:16 + size])
        if change is not None:
            change(header)
            text = json.dumps(header, separators=(",", ":")).encode()
            text += b" " * (-(len(text) + 16) % 64)
            Path(path).write_bytes(data[:8] + struct.pack("<Q", len(text))
                                   + text + data[16 + size:])
        return header

    return edit


@pytest.fixture(scope="session")
def forward_rows():
    """The leading extents that the source model's nodes run at in an
    artifact's forward pass, read from the artifact graph."""

    def rows(model, graph, metadata) -> set[int]:
        shapes = gl.infer_graph_shapes(graph)
        forward = set(metadata["forward_nodes"]) & {n.name for n in model.nodes}
        return {shapes[out][0] for node in graph.nodes if node.name in forward
                for out in node.outputs}

    return rows


@pytest.fixture(scope="session")
def corpus_f32():
    return gl.build_corpus(seed=0, batch=BATCH)


@pytest.fixture(scope="session")
def corpus_f64(corpus_f32):
    recast = []
    for entry in corpus_f32:
        recast.append(gl.CorpusEntry(
            name=entry.name,
            description=entry.description,
            model=cast_model(entry.model, "float64"),
            sample=entry.sample.astype(np.float64),
            references=entry.references.astype(np.float64),
        ))
    return recast


@pytest.fixture(scope="session")
def artifacts(corpus_f32, corpus_f64):
    """(entry name, dtype, scheme) -> compiled artifact, built lazily."""
    table = {}
    entries = {("float32", e.name): e for e in corpus_f32}
    entries.update({("float64", e.name): e for e in corpus_f64})

    def build(name: str, dtype: str = "float32", scheme: str = "optimized",
              output_index: int = 0):
        key = (name, dtype, scheme, output_index)
        if key not in table:
            entry = entries[(dtype, name)]
            table[key] = gl.compile_explainer(
                entry.model, entry.references, output_index=output_index,
                scheme=scheme)
        return table[key]

    return build


@pytest.fixture(scope="session")
def demo_pair():
    model = gl.demo_model()
    refs = gl.random_references(model, BATCH, seed=3)
    return model, refs
