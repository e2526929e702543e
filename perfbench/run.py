"""alignfuse benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

Runs one workload in this process against the package under ``src/``. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
the same work untraced and then traced and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and run details. Spans of a traced run and every
result are also written under ``.perfbench_work/``. Exits 0 when every
output check passed, 1 when one failed, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use. Must run before
    numpy is imported."""
    requested = NPROC
    for var in BLAS_THREAD_VARS:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            requested = min(requested, int(os.environ[var]))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(requested)
    return requested


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; "unknown"
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {"nproc": NPROC, "blas": vendor, "blas_threads": blas_threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "alignfuse" / "__init__.py").is_file():
        print(f"no alignfuse package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    out_dir = ROOT / ".perfbench_work"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), work)
    except workloads.PACKAGE_ERRORS as exc:
        print(f"{tag}: operation failed: {exc!r}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in result.ops.failures:
        print(f"{tag}: check failed: {failure}", file=sys.stderr)
    summary = {
        "correct": result.correct,
        "attempted": result.ops.attempted,
        "failed": len(result.ops.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "environment": environment(blas_threads), **result.details}
    if result.tracer is not None:
        result.tracer.write(out_dir / f"spans-{tag}.jsonl")
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({**info, **summary}, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps(summary))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
