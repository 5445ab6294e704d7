"""graphlift benchmark: one workload, one seed, one measurement.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload serve-b16-f32 --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the same checkout, never from an
installed copy.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end metrics declared in ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  Lines before it are for people: every
metric with its unit, the sample counts, the recorded environment and, when
traced, a per-artifact profile.  A record of the run (and, when traced, every
span) is written under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# One closed-loop client in one process: BLAS gets a fixed single thread, at
# or below nproc on any machine, so kernel timings do not depend on how many
# cores happen to be idle.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads_in_effect():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" /
                         "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_fixed": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphlift" / "__init__.py").is_file():
        print(f"error: no graphlift sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import graphlift
    if Path(graphlift.__file__).resolve().parent != SRC / "graphlift":
        print(f"error: imported graphlift from {graphlift.__file__}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir,
                               [m["name"] for m in spec["per_layer"]])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for name, unit in units.items():
        if name not in result["metrics"]:
            print(f"error: metric {name!r} was not measured", file=sys.stderr)
            return 3
        metrics[name] = {"value": float(result["metrics"][name]), "unit": unit}
    gate = result["gate"]
    env = environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for name, recorder in result["recorders"].items():
        recorder.dump(OUT / f"{stem}-{name}.spans.json.gz",
                      {"workload": args.workload, "seed": args.seed,
                       "phase": name, "environment": env})
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "notes": result["notes"],
              "attempted": gate.attempted, "failed": gate.failed,
              "failures": gate.reasons, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for line in result["notes"]:
        print(line)
    print(f"environment {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": gate.failed == 0,
                      "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
