"""Command line front end.

Subcommands:
  corpus   write a built-in model with a sample and reference batch
  compile  turn a model plus references into an explainer artifact
  run      execute an explainer on one input row
  verify   score an explainer against an independent recomputation
  bench    wall-clock comparison of the two compilation schemes
  flops    arithmetic cost tables across reference batch sizes

Exit codes: 0 on success, 2 for load/validation/compilation problems,
3 when a verification run fails its closeness threshold.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

import numpy as np

from .corpus import (build_corpus, corpus_entry, demo_model, demo_sample,
                     random_inputs, zero_references)
from .errors import GraphliftError, ValidationError
from .explainer import (compile_explainer, explain, load_artifact,
                        save_artifact, write_pgm)
from .ir import (DTYPES, GraphModel, TensorValue, ValueSpec, dumps_model,
                 load_model, load_tensor, save_model, save_tensor)
from .oracle import compare_attributions, deeplift_oracle
from .refopt import count_flops, op_census, row_passes

_DTYPE_FLAGS = {"f32": "float32", "f64": "float64"}


def cast_model(model: GraphModel, dtype: str) -> GraphModel:
    """Re-type every spec, weight and constant of a model."""
    np_dtype = DTYPES[dtype]

    def respec(spec: ValueSpec) -> ValueSpec:
        return ValueSpec(spec.name, dtype, spec.shape)

    nodes = []
    for node in model.nodes:
        attrs = dict(node.attributes)
        if node.op_type == "Constant":
            attrs["dtype"] = dtype
        nodes.append(type(node)(node.op_type, node.name, list(node.inputs),
                                list(node.outputs), attrs))
    return GraphModel(
        name=model.name,
        inputs=[respec(s) for s in model.inputs],
        outputs=[respec(s) for s in model.outputs],
        initializers={k: TensorValue(v.array.astype(np_dtype), dtype)
                      for k, v in model.initializers.items()},
        nodes=nodes,
    )


def _load_pair(args) -> tuple[GraphModel, np.ndarray]:
    model = load_model(args.model)
    refs = load_tensor(args.refs).array
    if args.dtype:
        dtype = _DTYPE_FLAGS[args.dtype]
        model = cast_model(model, dtype)
        refs = refs.astype(DTYPES[dtype])
    return model, refs


def cmd_corpus(args) -> int:
    if args.list:
        for entry in build_corpus(args.seed, args.batch):
            print(f"{entry.name:<16} {entry.description}")
        return 0
    if args.name == "demo":
        model, sample = demo_model(), demo_sample(args.seed + 11)
        refs = zero_references(model, args.batch)
    else:
        entry = corpus_entry(args.name, args.seed, args.batch)
        model, sample, refs = entry.model, entry.sample, entry.references
    base = f"{args.out_dir}/{args.name}"
    save_model(model, f"{base}.sgm")
    save_tensor(TensorValue(sample, model.inputs[0].dtype),
                f"{base}_sample.stn", name=model.inputs[0].name)
    save_tensor(TensorValue(refs, model.inputs[0].dtype),
                f"{base}_refs.stn", name=model.inputs[0].name)
    print(f"wrote {base}.sgm, {base}_sample.stn, {base}_refs.stn")
    return 0


def cmd_compile(args) -> int:
    model, refs = _load_pair(args)
    artifact = compile_explainer(
        model, refs, output_index=args.output_index, scheme=args.scheme,
        expose_multipliers=args.expose_multipliers)
    save_artifact(artifact, args.out)
    meta = artifact.metadata
    census = op_census(artifact.model)
    print(f"scheme {meta['scheme']}  batch {meta['batch']}  "
          f"nodes {sum(census.values())}")
    print("census: " + ", ".join(f"{op}={n}"
                                 for op, n in sorted(census.items())))
    print(f"cache: {len(meta['cache_entries'])} baked reference tensors, "
          f"{meta['cache_bytes']} bytes")
    print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    artifact = load_artifact(args.explainer)
    sample = load_tensor(args.input).array
    result = explain(artifact, sample)
    k = artifact.metadata["output_index"]
    print(f"prediction[{k}] = {result.prediction.array[0, k]:+.6f}")
    print(f"attribution sum = {float(result.phi.array.sum()):+.6f}  "
          f"completeness residual = {result.residual:.3e}")
    if args.out:
        save_tensor(result.phi, args.out, name="attribution")
        print(f"wrote {args.out}")
    if args.pgm:
        write_pgm(result.phi.array, args.pgm)
        print(f"wrote {args.pgm}")
    return 0


def cmd_verify(args) -> int:
    if args.inputs < 1 or not 0 < args.min_fraction <= 1:
        raise ValidationError(f"--inputs must be at least 1 and --min-fraction in "
                              f"(0, 1], got {args.inputs} and {args.min_fraction}")
    if not (args.atol >= 0 and args.rtol >= 0):
        raise ValidationError(f"--atol and --rtol must be non-negative, got "
                              f"{args.atol} and {args.rtol}")
    model, refs = _load_pair(args)
    artifact = load_artifact(args.explainer)
    artifact.plan  # checks the metadata read here
    k = artifact.metadata["output_index"]
    if args.input:
        samples = [load_tensor(args.input).array]
    else:
        samples = random_inputs(model, args.inputs, seed=args.seed)
    if args.against == "naive":
        other = compile_explainer(model, refs, output_index=k, scheme="naive")
    failures = 0
    for i, sample in enumerate(samples):
        mine = explain(artifact, sample)
        if args.against == "oracle":
            theirs = deeplift_oracle(model, sample, refs,
                                     output_index=k).phi.array
        else:
            theirs = explain(other, sample).phi
        report = compare_attributions(mine.phi, theirs,
                                      atol=args.atol, rtol=args.rtol)
        ok = report.passed(args.min_fraction)
        failures += 0 if ok else 1
        print(f"input {i}: {'pass' if ok else 'FAIL'}  {report.format()}")
    print(f"{len(samples) - failures}/{len(samples)} inputs passed "
          f"(min fraction {args.min_fraction})")
    return 0 if failures == 0 else 3


def cmd_bench(args) -> int:
    if args.images < 1:
        raise ValidationError(f"--images must be at least 1, got {args.images}")
    model, refs = _load_pair(args)
    schemes = ["optimized", "naive"] if args.schemes == "both" else [args.schemes]
    samples = random_inputs(model, args.images, seed=args.seed)
    artifacts, compile_ms = [], []
    for scheme in schemes:
        start = time.perf_counter()
        artifacts.append(compile_explainer(model, refs, scheme=scheme,
                                           output_index=args.output_index))
        compile_ms.append((time.perf_counter() - start) * 1e3)
    # the schemes take turns on each input, so a drift of the host's speed
    # hits every scheme alike instead of landing in the ratio
    timings = [[] for _ in artifacts]
    for sample in samples:
        for artifact, laps in zip(artifacts, timings):
            start = time.perf_counter()
            explain(artifact, sample)
            laps.append((time.perf_counter() - start) * 1e3)
    records = []
    for artifact, laps, ms in zip(artifacts, timings, compile_ms):
        warm = laps[1:] if len(laps) > 1 else laps
        census = op_census(artifact.model)
        _, ready = artifact.plan.resolved
        # a full-size pass covers the B reference rows, or the naive
        # layout's 2B-row stream
        rows = refs.shape[0] * (1 if artifact.metadata["scheme"] == "optimized" else 2)
        passes, written = row_passes(artifact.model, rows)
        records.append({
            "model": model.name, "scheme": artifact.metadata["scheme"],
            "dtype": model.inputs[0].dtype, "batch": int(refs.shape[0]),
            "images": len(warm),
            "p50_ms": float(np.percentile(warm, 50)),
            "p95_ms": float(np.percentile(warm, 95)),
            "cold_ms": laps[0], "compile_ms": ms,
            "artifact_bytes": len(dumps_model(artifact.model, artifact.metadata)),
            "nodes": len(artifact.model.nodes),
            "steps": len(artifact.plan.steps),
            "split_concat_nodes": census["Split"] + census["Concat"],
            "scans": sum(len(scan) for *_, scan in ready),
            "row_passes": passes, "row_pass_bytes": written,
        })
    print(f"model {model.name}  batch {refs.shape[0]}  "
          f"(first run excluded from p50 and p95)")
    for r in records:
        print(f"{r['scheme']:<10} {r['images']:>4} images  "
              f"p50 {r['p50_ms']:8.3f} ms  p95 {r['p95_ms']:8.3f}  "
              f"cold {r['cold_ms']:8.3f}")
    if len(records) == 2:
        ratio = records[1]["p50_ms"] / records[0]["p50_ms"]
        print(f"naive/optimized p50 ratio: {ratio:.2f}x")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"records": records}, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def _batch_sizes(text: str) -> list[int]:
    """Parse a comma separated list of positive batch sizes."""
    batches = []
    for tok in (t.strip() for t in text.split(",")):
        if not tok:
            continue
        try:
            batch = int(tok)
        except ValueError:
            raise ValidationError(
                f"--b-range entry {tok!r} is not an integer") from None
        if batch < 1:
            raise ValidationError(
                f"--b-range batch sizes must be positive, got {batch}")
        batches.append(batch)
    if not batches:
        raise ValidationError("--b-range must name at least one batch size")
    return batches


def cmd_flops(args) -> int:
    batches = _batch_sizes(args.b_range)
    model, refs = _load_pair(args)
    rows = []
    for batch in batches:
        picked = np.resize(refs, (batch,) + refs.shape[1:])
        per_scheme = {}
        for scheme in ("optimized", "naive"):
            artifact = compile_explainer(model, picked, scheme=scheme,
                                         output_index=args.output_index)
            meta = artifact.metadata
            report = count_flops(artifact.model, batch=1,
                                 forward_nodes=meta["forward_nodes"],
                                 cache_bytes=meta["cache_bytes"])
            per_scheme[scheme] = report
        rows.append((batch, per_scheme))
    header = (f"{'B':>4} {'naive flops':>14} {'opt flops':>14} {'gap':>14} "
              f"{'naive fwd peak':>15} {'opt fwd peak':>13} {'cache B':>10}")
    print(f"model {model.name}")
    print(header)
    payload = {"model": model.name, "batches": []}
    for batch, per_scheme in rows:
        naive, opt = per_scheme["naive"], per_scheme["optimized"]
        gap = naive.total - opt.total
        print(f"{batch:>4} {naive.total:>14} {opt.total:>14} {gap:>14} "
              f"{naive.forward_peak_bytes:>15} {opt.forward_peak_bytes:>13} "
              f"{opt.cache_bytes:>10}")
        payload["batches"].append({
            "batch": batch,
            "naive": naive.as_dict(),
            "optimized": opt.as_dict(),
            "gap": gap,
        })
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def _add_pair_flags(sub, with_dtype: bool = True) -> None:
    sub.add_argument("--model", required=True, help="model file (.sgm)")
    sub.add_argument("--refs", required=True,
                     help="reference batch tensor (.stn)")
    if with_dtype:
        sub.add_argument("--dtype", choices=sorted(_DTYPE_FLAGS),
                         help="re-type the model and references")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a negative number written with an
    exponent (``--rtol -1e-9``) is read as a value, as ``-1`` and ``-0.5``
    are, and not taken for an option; its subcommand parsers are of this
    class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphlift",
        description="compile inference graphs into self-contained "
                    "attribution explainers")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("corpus", help="write a built-in model to disk")
    c.add_argument("--name", default="demo",
                   help="model name, or 'demo' (see --list)")
    c.add_argument("--out-dir", default=".")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--batch", type=int, default=5)
    c.add_argument("--list", action="store_true",
                   help="list available models and exit")
    c.set_defaults(func=cmd_corpus)

    c = sub.add_parser("compile", help="build an explainer artifact")
    _add_pair_flags(c)
    c.add_argument("--output-index", type=int, default=0)
    c.add_argument("--scheme", choices=["opt", "optimized", "naive"],
                   default="optimized")
    c.add_argument("--expose-multipliers", action="store_true")
    c.add_argument("--out", required=True, help="artifact file (.sgm)")
    c.set_defaults(func=cmd_compile)

    c = sub.add_parser("run", help="explain one input row")
    c.add_argument("--explainer", required=True)
    c.add_argument("--input", required=True, help="input tensor (.stn)")
    c.add_argument("--out", help="attribution tensor to write (.stn)")
    c.add_argument("--pgm", help="grayscale heatmap to write (.pgm)")
    c.set_defaults(func=cmd_run)

    c = sub.add_parser("verify", help="cross-check an explainer")
    _add_pair_flags(c)
    c.add_argument("--explainer", required=True)
    c.add_argument("--against", choices=["oracle", "naive"],
                   default="oracle")
    c.add_argument("--input", help="single input tensor (.stn)")
    c.add_argument("--inputs", type=int, default=8,
                   help="random input count when --input is absent")
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--atol", type=float, default=1e-8)
    c.add_argument("--rtol", type=float, default=1e-5)
    c.add_argument("--min-fraction", type=float, default=0.99)
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("bench", help="time both schemes")
    _add_pair_flags(c)
    c.add_argument("--output-index", type=int, default=0)
    c.add_argument("--images", type=int, default=100)
    c.add_argument("--schemes", choices=["opt", "optimized", "naive", "both"],
                   default="both")
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--json", help="also write one timing record per scheme")
    c.set_defaults(func=cmd_bench)

    c = sub.add_parser("flops", help="arithmetic cost across batch sizes")
    _add_pair_flags(c)
    c.add_argument("--output-index", type=int, default=0)
    c.add_argument("--b-range", default="1,2,5,16,64",
                   help="comma separated reference batch sizes")
    c.add_argument("--json", help="also write a machine readable report")
    c.set_defaults(func=cmd_flops)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphliftError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
