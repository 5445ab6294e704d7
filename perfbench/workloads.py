"""The benchmark's three workloads, driven through the public graphlift API.

One process, one closed-loop client: the next request is sent only after the
previous one returned.  The workload seed picks the reference set and the
input stream of every net; the corpus nets themselves are fixed.  References
are random, never zero: zero references would make all B reference rows
identical, which a real background set never is.

* ``serve-b16-f32``: optimized artifacts at float32 and B=16 are compiled,
  saved to a file and loaded back; the client explains a seeded stream of
  fresh inputs round-robin over the four corpus nets.  This is the paper's
  deployment path at the acceptance suite's B, and it is bound by
  interpreter overhead, so a sort, plan, dispatch or node-count change shows
  here first.
* ``serve-b64-f64``: the same loop at float64 and B=64.  Every backward node
  broadcasts against 64 cached rows, so the kernels carry the time: a kernel
  change shows here and barely moves ``serve-b16-f32``.
* ``compile-b64-f64``: compiles the four nets under both schemes, saves each
  artifact, loads it back and runs its first explain (and, for a naive
  artifact, warm explains), and repeats.  It is the only workload whose timed
  phase runs ``refopt``, ``autodiff``, ``rules``, ``builder``, ``parser`` and
  ``shapes``, and both directions of ``ir`` serialization, and the only one
  that times the naive layout at run time.

Untraced runs give the end-to-end metrics.  A traced run measures half of
its time untraced and half with every layer wrapped (see ``spans``), and
reports per-layer busy time and counts.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import graphlift as gl
from graphlift.cli import cast_model
from graphlift.executor import execute as forward
from graphlift.oracle import deeplift_oracle

from checks import Gate, completeness_ok, oracle_ok
from spans import NAME, REQUEST, SpanRecorder

NETS = ("plain_deep", "residual_add", "dense_concat", "scaled_add_mul")
SCHEMES = ("optimized", "naive")


@dataclass(frozen=True)
class Workload:
    kind: str       # "serve" or "compile"
    dtype: str
    batch: int
    schemes: tuple[str, ...]
    setups: int     # set-ups per run, spread over it; setup_s is their median


# The serve workloads take their compile_s and cold_s from the set-ups, so
# they set up often; the compile workload takes them from its set-ups and ten
# or so full rounds besides.  BENCHMARK.json declares only the serve
# workloads: on a shared 2-CPU host the compile workload's figures spread
# past the declared bounds (see README.md), so it is run by hand.
WORKLOADS = {
    "serve-b16-f32": Workload("serve", "float32", 16, ("optimized",), 20),
    "serve-b64-f64": Workload("serve", "float64", 64, ("optimized",), 12),
    "compile-b64-f64": Workload("compile", "float64", 64, SCHEMES, 4),
}

WARM_EXPLAINS = 3      # explains per artifact after the cold one, in set-up
NAIVE_WARM_S = 0.3     # warm explains of a naive artifact, per round: for
                       # at least this long, at least one
POOL = 512             # distinct stream inputs per net; cycled if exhausted
ORACLE_SUBSET = 2      # stream inputs per net also checked against the oracle
TAIL = 90              # the tail percentile printed next to the median


@dataclass
class Net:
    """One corpus net with the workload's references and inputs."""

    name: str
    model: gl.GraphModel
    model64: gl.GraphModel        # float64 copy, for the checker
    refs: np.ndarray
    probe: np.ndarray             # first explain after a load, and warm-up
    stream: list[np.ndarray]      # serve inputs, in order
    ref_mean: float | None = None  # float64 mean_b f(r_b)[0]


def make_nets(wl: Workload, seed: int) -> list[Net]:
    """Seeded references and inputs for each net; nothing else varies."""
    rng = np.random.default_rng(seed)
    nets = []
    for name in NETS:
        base = gl.corpus_entry(name, seed=0).model
        model = cast_model(base, wl.dtype)
        ref_seed, input_seed, probe_seed = (
            int(s) for s in rng.integers(0, 2**31, size=3))
        refs = gl.random_references(model, wl.batch, seed=ref_seed)
        stream = gl.random_inputs(model, POOL, seed=input_seed) \
            if wl.kind == "serve" else []
        probe = gl.random_inputs(model, 1, seed=probe_seed)[0]
        nets.append(Net(name, model, cast_model(base, "float64"), refs, probe,
                        stream))
    return nets


# -- checker --------------------------------------------------------------


def _forward64(net: Net, rows: np.ndarray, chunk: int = 64) -> np.ndarray:
    """Explained output coordinate of the net, evaluated in float64.

    Rows go through in chunks so the checker's own memory stays small."""
    model = net.model64
    heads = []
    for i in range(0, len(rows), chunk):
        feed = {model.inputs[0].name: rows[i:i + chunk].astype(np.float64)}
        out, _ = forward(model, feed)
        heads.append(out[model.outputs[0].name][:, 0])
    return np.concatenate(heads)


def _deltas(net: Net, rows: np.ndarray) -> np.ndarray:
    """f(x)[0] - mean_b f(r_b)[0] for each row x, in float64."""
    if net.ref_mean is None:
        net.ref_mean = float(_forward64(net, net.refs).mean())
    return _forward64(net, rows) - net.ref_mean


def _oracle_phi(net: Net, x: np.ndarray) -> np.ndarray:
    return deeplift_oracle(net.model, x, net.refs).phi.array


# -- set-up: compile, save, load, first explain, warm ---------------------


@dataclass
class Build:
    seconds: float = 0.0
    loaded: dict = field(default_factory=dict)
    memory_phi: dict = field(default_factory=dict)
    first_phi: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def artifact_counts(art, path: Path) -> dict:
    census = gl.op_census(art.model)
    return {"artifact_bytes": path.stat().st_size,
            "artifact_nodes": len(art.model.nodes),
            "split_concat_nodes": census["Split"] + census["Concat"],
            "cache_bytes": int(art.metadata["cache_bytes"]),
            "flops": gl.count_flops(art.model).total}


def build(wl: Workload, nets: list[Net], workdir: Path, gate: Gate,
          in_memory: bool, loop: Loop) -> Build:
    """One set-up: every artifact compiled, saved, loaded, run and warmed.

    Its per-artifact compile and cold-start times are added to ``loop``'s
    samples.  With ``in_memory`` the in-memory artifact also explains the probe, outside
    the timed sections, for the save -> load bit-identity check."""
    out = Build()
    warm = WARM_EXPLAINS if wl.kind == "serve" else 0
    for net in nets:
        for scheme in wl.schemes:
            key = (net.name, scheme)
            path = workdir / f"{net.name}-{scheme}.sgm"
            gate.attempt(3 + warm)
            t0 = perf_counter()
            art = gl.compile_explainer(net.model, net.refs, scheme=scheme)
            gl.save_artifact(art, str(path))
            t1 = perf_counter()
            loaded = gl.load_artifact(str(path))
            first = gl.explain(loaded, net.probe)
            t2 = perf_counter()
            for _ in range(warm):
                gl.explain(loaded, net.probe)
            t3 = perf_counter()
            out.seconds += t3 - t0
            loop.add_artifact(key, t1 - t0, t2 - t1)
            out.loaded[key] = loaded
            out.first_phi[key] = first.phi.array
            out.counts[key] = artifact_counts(art, path)
            if in_memory:
                gate.attempt()
                out.memory_phi[key] = gl.explain(art, net.probe).phi.array
    return out


def check_builds(wl: Workload, nets: list[Net], builds: list[Build],
                 gate: Gate) -> None:
    """Counts repeat exactly across set-ups; the first explain of a loaded
    artifact is correct and bit-identical to the in-memory artifact's."""
    ref = builds[0]
    for other in builds[1:]:
        for key, counts in ref.counts.items():
            for name, value in counts.items():
                gate.same(f"{key} {name}", value, other.counts[key][name])
    for net in nets:
        delta = float(_deltas(net, net.probe)[0])
        want = _oracle_phi(net, net.probe)
        for scheme in wl.schemes:
            key = (net.name, scheme)
            phi = ref.memory_phi[key]
            gate.attempt()
            if not completeness_ok(float(phi.sum()), delta, wl.dtype):
                gate.fail(f"{key}: completeness on the probe input")
            gate.attempt()
            if not oracle_ok(phi, want, wl.dtype):
                gate.fail(f"{key}: oracle disagreement on the probe input")
            for b in builds:
                gate.attempt()
                if not np.array_equal(b.first_phi[key], phi):
                    gate.fail(f"{key}: save -> load -> explain is not "
                              "bit-identical to the in-memory artifact")


# -- timed loops ------------------------------------------------------------


@dataclass
class Loop:
    seconds: float = 0.0
    rounds: int = 0
    latency: dict = field(default_factory=dict)      # net -> [s]
    explains: int = 0
    round_s: list = field(default_factory=list)      # per round (serve)
    compile_s: dict = field(default_factory=dict)    # artifact -> [s]
    cold_s: dict = field(default_factory=dict)       # artifact -> [s]
    results: list = field(default_factory=list)      # explanations to check

    def add_artifact(self, key, compile_s, cold_s):
        """One artifact's compile + save time and load + first explain time."""
        self.compile_s.setdefault(key, []).append(compile_s)
        self.cold_s.setdefault(key, []).append(cold_s)


def fastest_total(samples: dict) -> float:
    """Sum over the artifacts of each one's fastest time.

    The host runs some stretches markedly slower than others; a slower
    repetition of the same work is the host, not the program (the rule
    behind ``timeit``'s minimum of repeats).  Taking the minimum per
    artifact, over several short repetitions spread across the run, finds a
    quiet stretch for each far more often than the minimum of whole rounds."""
    return sum(min(times) for times in samples.values())


def serve_loop(loop: Loop, nets: list[Net], arts: dict, seconds: float,
               gate: Gate, recorder: SpanRecorder | None = None) -> None:
    """Explain round-robin over the nets for ``seconds``, at least one round,
    adding to ``loop``."""
    start = perf_counter()
    deadline = start + seconds
    first_round = loop.rounds
    while loop.rounds == first_round or perf_counter() < deadline:
        k = loop.rounds % POOL
        round_start = perf_counter()
        for net in nets:
            art = arts[(net.name, "optimized")]
            if recorder is not None:
                recorder.request = loop.explains
                recorder.requests[loop.explains] = {"net": net.name,
                                                    "scheme": "optimized"}
            gate.attempt()
            x = net.stream[k]
            t0 = perf_counter()
            try:
                res = gl.explain(art, x)
            except Exception:
                gate.exception(f"explain {net.name} input {k}")
                continue
            t1 = perf_counter()
            loop.latency[net.name].append(t1 - t0)
            loop.explains += 1
            phi = res.phi.array
            loop.results.append((net, k, float(phi.sum()),
                                 phi if k < ORACLE_SUBSET else None))
        loop.round_s.append(perf_counter() - round_start)
        loop.rounds += 1
    loop.seconds += perf_counter() - start


def check_stream(nets: list[Net], loop: Loop, gate: Gate) -> None:
    """Completeness of every explanation; the oracle on the seeded subset."""
    dtype = nets[0].model.inputs[0].dtype
    deltas = {}
    for net in nets:
        used = sorted({k for n, k, _, _ in loop.results if n is net})
        if used:
            rows = np.concatenate([net.stream[k] for k in used])
            deltas.update(((net.name, k), float(d))
                          for k, d in zip(used, _deltas(net, rows)))
    oracle: dict = {}
    for net, k, phi_sum, phi in loop.results:
        if not completeness_ok(phi_sum, deltas[(net.name, k)], dtype):
            gate.fail(f"{net.name} input {k}: completeness")
        elif phi is not None:
            if (net.name, k) not in oracle:
                oracle[(net.name, k)] = _oracle_phi(net, net.stream[k])
            if not oracle_ok(phi, oracle[(net.name, k)], dtype):
                gate.fail(f"{net.name} input {k}: oracle disagreement")


def compile_loop(loop: Loop, wl: Workload, nets: list[Net], workdir: Path,
                 seconds: float, gate: Gate, reference: Build,
                 recorder: SpanRecorder | None = None) -> None:
    """Rounds of compile + save, then load + first explain, per artifact, for
    ``seconds``, at least one round, adding to ``loop``.

    Untraced, a naive artifact then explains the probe again for
    ``NAIVE_WARM_S``: these warm explains are the latency samples of the
    naive layout."""
    start = perf_counter()
    deadline = start + seconds
    first_round = loop.rounds
    while loop.rounds == first_round or perf_counter() < deadline:
        for net in nets:
            for scheme in wl.schemes:
                key = (net.name, scheme)
                path = workdir / f"{net.name}-{scheme}.sgm"
                if recorder is not None:
                    recorder.request = len(recorder.requests)
                    recorder.requests[recorder.request] = {"net": net.name,
                                                           "scheme": scheme}
                gate.attempt(3)
                try:
                    t0 = perf_counter()
                    art = gl.compile_explainer(net.model, net.refs,
                                               scheme=scheme)
                    gl.save_artifact(art, str(path))
                    t1 = perf_counter()
                    loaded = gl.load_artifact(str(path))
                    res = gl.explain(loaded, net.probe)
                    t2 = perf_counter()
                except Exception:
                    gate.exception(f"compile round {loop.rounds} {key}")
                    continue
                loop.add_artifact(key, t1 - t0, t2 - t1)
                loop.explains += 1
                if scheme == "naive" and recorder is None:
                    warm_start = t4 = perf_counter()
                    while t4 - warm_start < NAIVE_WARM_S:
                        gate.attempt()
                        t3 = perf_counter()
                        again = gl.explain(loaded, net.probe)
                        t4 = perf_counter()
                        loop.latency[net.name].append(t4 - t3)
                        if not np.array_equal(again.phi.array,
                                              res.phi.array):
                            gate.fail(f"{key}: round {loop.rounds}: warm "
                                      "explain differs from the first")
                del art, loaded
                gate.same(f"{key} artifact_bytes", path.stat().st_size,
                          reference.counts[key]["artifact_bytes"])
                gate.attempt()
                if not np.array_equal(res.phi.array,
                                      reference.memory_phi[key]):
                    gate.fail(f"{key}: round {loop.rounds}: save -> load -> "
                              "explain is not bit-identical to the in-memory "
                              "artifact")
        loop.rounds += 1
    loop.seconds += perf_counter() - start


# -- traced pass --------------------------------------------------------------


def traced_build(wl: Workload, nets: list[Net], workdir: Path) -> dict:
    """One set-up with the layers wrapped: every artifact compiled, saved,
    loaded and explained once; exact counts and per-artifact busy times."""
    recorder = SpanRecorder()
    with recorder:
        for net in nets:
            for scheme in wl.schemes:
                recorder.request = len(recorder.requests)
                recorder.requests[recorder.request] = {"net": net.name,
                                                       "scheme": scheme}
                path = str(workdir / f"{net.name}-{scheme}-traced.sgm")
                art = gl.compile_explainer(net.model, net.refs, scheme=scheme)
                gl.save_artifact(art, path)
                gl.explain(gl.load_artifact(path), net.probe)
    summary = recorder.summarize()
    values = summary["values"]
    return {
        "recorder": recorder,
        "summary": summary,
        "artifacts": len(recorder.requests),
        "rule_nodes": {op: n for (name, op), n in values.items()
                       if name == "rules.f_grad"},
        "emits": summary["calls"].get("builder.emit", 0),
        "folded": sum(n for (name, _), n in values.items()
                      if name == "builder.emit"),
    }


def check_trace(recorder: SpanRecorder, gate: Gate) -> None:
    """Spans nest, and every request of one artifact runs the same number of
    ``eval_node`` calls."""
    gate.attempt()
    bad = recorder.check_nesting()
    if bad:
        gate.fail(f"{bad} spans do not nest inside their parent")
    calls: dict[int, int] = {}
    for span in recorder.spans:
        if span[NAME] == "executor.eval_node":
            calls[span[REQUEST]] = calls.get(span[REQUEST], 0) + 1
    per_artifact: dict[tuple, set] = {}
    for request, info in recorder.requests.items():
        key = (info["net"], info["scheme"])
        per_artifact.setdefault(key, set()).add(calls.get(request, 0))
    for key, seen in per_artifact.items():
        gate.attempt()
        if len(seen) != 1:
            gate.fail(f"{key}: eval_node calls vary between requests: "
                      f"{sorted(seen)}")


def layer_metric(name: str, summary: dict, ops: int, extra: dict,
                 build_info: dict):
    """Value of one per-layer metric, by the naming scheme in the README.

    A span the timed loop never enters (in serve-*, the compile and
    serialization layers) is read from the traced build, per artifact."""
    if name in extra:
        return extra[name]
    if name.startswith("executor.op.") and name.endswith(".ms"):
        op = name[len("executor.op."):-len(".ms")]
        return summary["by_key"].get(("executor.eval_node", op), 0.0) * 1e3 / ops
    if name.startswith("rules.op.") and name.endswith(".nodes"):
        op = name[len("rules.op."):-len(".nodes")]
        return build_info["rule_nodes"].get(op, 0) / build_info["artifacts"]
    for suffix, table, scale in ((".self.ms", "self", 1e3),
                                 (".ms", "total", 1e3),
                                 (".calls", "calls", 1)):
        if name.endswith(suffix):
            span = name[:-len(suffix)]
            if summary["calls"].get(span):
                return summary[table][span] * scale / ops
            build = build_info["summary"]
            return build[table].get(span, 0) * scale / build_info["artifacts"]
    raise KeyError(f"no rule computes per-layer metric {name!r}")


def profile_lines(recorder: SpanRecorder, top: int = 4) -> list[str]:
    """Per artifact: the spans with the most self time and the slowest op."""
    groups: dict[tuple, set] = {}
    for request, info in recorder.requests.items():
        groups.setdefault((info["net"], info["scheme"]), set()).add(request)
    lines = []
    for (net, scheme), requests in groups.items():
        s = recorder.summarize(requests)
        n = len(requests)
        ranked = sorted(s["self"].items(), key=lambda kv: -kv[1])[:top]
        ops = sorted(((op, t) for (name, op), t in s["by_key"].items()
                      if name == "executor.eval_node"), key=lambda kv: -kv[1])
        self_part = ", ".join(f"{k} {v * 1e3 / n:.3f}" for k, v in ranked)
        op_part = f"{ops[0][0]} {ops[0][1] * 1e3 / n:.3f}" if ops else "-"
        lines.append(f"profile {net}/{scheme} ({n} requests), ms per request: "
                     f"self: {self_part}; top op: {op_part}")
    return lines


# -- one run ----------------------------------------------------------------


def _percentile(samples, q):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        layer_names: list[str]) -> dict:
    """Set up, measure and check one workload.

    The set-ups are spread over the run, each followed by an equal slice of
    the measured time, so that set-up and loop figures both sample the whole
    run rather than one stretch of it.  A slice ends after the round that
    brings the loop's total time to its share, so a slice that ran over
    shortens the next.  Returns the end-to-end metrics
    (untraced) or the named per-layer metrics (traced), the gate,
    human-readable notes and the recorders to write out.
    """
    wl = WORKLOADS[name]
    gate = Gate()
    nets = make_nets(wl, seed)
    measured = seconds / 2 if trace else seconds
    loop = Loop(latency={net.name: [] for net in nets})
    builds: list[Build] = []
    for i in range(wl.setups):
        if builds:
            builds[-1].loaded.clear()
        builds.append(build(wl, nets, workdir, gate, i == 0, loop))
        share = measured * (i + 1) / wl.setups - loop.seconds
        if wl.kind == "serve":
            serve_loop(loop, nets, builds[-1].loaded, share, gate)
        else:
            compile_loop(loop, wl, nets, workdir, share, gate, builds[0])
    # peak RSS before any check runs, so the checker's memory is not counted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    last = builds[-1]
    check_builds(wl, nets, builds, gate)
    if wl.kind == "serve":
        check_stream(nets, loop, gate)

    keys = list(last.counts)
    metrics = {
        "setup_s": statistics.median(b.seconds for b in builds),
        "compile_s": fastest_total(loop.compile_s),
        "cold_s": fastest_total(loop.cold_s),
        "artifact_bytes": sum(last.counts[k]["artifact_bytes"] for k in keys),
        # serve: the fastest of thousands of rounds; compile: its ten or so
        # rounds are too few for that, so each artifact's fastest compile
        # and cold start, as in compile_s and cold_s
        "explains_per_s": len(keys) / (
            min(loop.round_s) if wl.kind == "serve" else
            fastest_total(loop.compile_s) + fastest_total(loop.cold_s)),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [f"{loop.rounds} rounds in {loop.seconds:.2f} s; "
             f"{loop.explains / loop.seconds:.4g} explains/s over the whole "
             f"loop, {len(next(iter(loop.compile_s.values())))} compile and "
             "cold-start samples per artifact"]
    for net, lat in loop.latency.items():
        metrics[f"explain_min_ms.{net}"] = min(lat) * 1e3
        notes.append(f"latency {net}: {len(lat)} samples, min "
                     f"{min(lat) * 1e3:.4g} ms, p50 "
                     f"{statistics.median(lat) * 1e3:.4g} ms, p{TAIL} "
                     f"{_percentile(lat, TAIL) * 1e3:.4g} ms")
    if not trace:
        return {"metrics": metrics, "gate": gate, "notes": notes,
                "recorders": {}}

    first = traced_build(wl, nets, workdir)
    second = traced_build(wl, nets, workdir)
    for what in ("rule_nodes", "emits", "folded"):
        gate.same(f"traced build {what}", first[what], second[what])
    traced = Loop(latency={net.name: [] for net in nets})
    recorder = SpanRecorder()
    with recorder:
        if wl.kind == "serve":
            serve_loop(traced, nets, last.loaded, measured, gate, recorder)
        else:
            compile_loop(traced, wl, nets, workdir, measured, gate, builds[0],
                         recorder)
    check_trace(recorder, gate)
    if wl.kind == "serve":
        check_stream(nets, traced, gate)
        ops = traced.explains
        overhead = (loop.explains / loop.seconds) / \
            (traced.explains / traced.seconds)
    else:
        ops = len(recorder.requests)
        overhead = fastest_total(traced.compile_s) / metrics["compile_s"]
    # every request ends in one explain of its artifact
    flops = sum(last.counts[(r["net"], r["scheme"])]["flops"]
                for r in recorder.requests.values())
    kernel_s = recorder.time_under("executor.eval_node", "explainer.explain")
    mean = {c: statistics.mean(last.counts[k][c] for k in keys)
            for c in ("artifact_nodes", "split_concat_nodes", "cache_bytes",
                      "flops")}
    extra = {
        "executor.gflops": flops / kernel_s / 1e9 if kernel_s else 0.0,
        "builder.fold_ratio": first["folded"] / first["emits"]
        if first["emits"] else 0.0,
        "refopt.artifact_nodes": mean["artifact_nodes"],
        "refopt.split_concat_nodes": mean["split_concat_nodes"],
        "refopt.cache_bytes": mean["cache_bytes"],
        "refopt.flops": mean["flops"],
        "trace.overhead_ratio": overhead,
    }
    summary = recorder.summarize()
    layers = {m: layer_metric(m, summary, ops, extra, first)
              for m in layer_names}
    notes.append(f"traced: {traced.rounds} rounds, {ops} requests, "
                 f"{len(recorder.spans)} spans, {len(recorder.bindings)} "
                 "bindings wrapped")
    notes.extend(profile_lines(recorder))
    return {"metrics": layers, "gate": gate, "notes": notes,
            "recorders": {"build": first["recorder"], "loop": recorder}}
