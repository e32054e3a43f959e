"""Run one metrovec benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sv_city --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout: it imports the program from ``src/``
and works in ``.bench_work/`` (removed at exit). With ``--trace 0`` the last
line of standard output holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics, and the spans go to
``.bench_out/trace_<workload>_seed<seed>.jsonl``. Workloads, metrics and the
map between them are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sv_city", "poi_city")  # defined in workloads.py
# One BLAS thread (at most nproc) keeps runs steady; set before numpy loads.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time after set-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args, run, np) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    files = sorted(run.inputs.iterdir())

    def rows(name):
        with open(run.inputs / name, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    return {
        "git_sha": git_sha(ROOT), "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke,
        "inputs": {"neighborhoods": rows("centroids.csv") - 1, "street_views": rows("street_views.csv") - 1,
                   "pois": rows("poi.jsonl"), "bytes": {f.name: f.stat().st_size for f in files}},
        "setups": len(run.samples[False]["setup_s"]) + len(run.samples[True]["setup_s"]),
        "iterations": len(run.samples[False]["eval_s"]) + len(run.samples[True]["eval_s"]),
        "similar_samples": len(run.similar_ms), "attempted": run.attempted, "failed": run.failed,
        "peak_rss_set_by": run.peak[1], "host_speed": run.host.summary(),
        "samples": dict(run.samples[False]),
    }


def write_trace(path: Path, meta: dict, tracer, run) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"metadata": meta, "units": run.units, "hook_errors": tracer.hook_errors,
                             "fields": ["name", "start", "end", "parent", "unit", "counts"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "metrovec" / "cli.py").is_file():
        print(f"error: no program sources at {src / 'metrovec'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Quiet the program's INFO log; cli.main's basicConfig keeps this handler.
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(levelname)s %(message)s")

    import numpy as np

    import spans
    import workloads
    from metrovec import cli, corpus, fileio

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    run = workloads.Run(args.workload, args.seed, workdir, (cli, fileio, corpus), tracer, smoke=args.smoke)
    try:
        run.run(args.seconds)
        meta = metadata(args, run, np)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not run.problems
    if tracer is None:
        metrics = run.end_to_end()
    else:
        metrics, absent = run.per_layer()
        nesting = spans.check_nesting(tracer.spans)
        for problem in nesting[:10]:
            print(f"check failed: {problem}", file=sys.stderr)
        correct = correct and not nesting
        meta["absent"] = absent
        write_trace(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl", meta, tracer, run)
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            print(f"check failed: {name} is {metric['value']}", file=sys.stderr)
            metric["value"], correct = 0.0, False
    print(json.dumps(meta, sort_keys=True), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
