#!/usr/bin/env python3
"""Seeded benchmark of tripletboost: each workload in its own process, outputs checked.

    python3 perfbench/run.py --workload paper_cell --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere inside a source checkout; it imports the package from
the checkout's ``src/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.  Per-run details,
provenance and (traced runs) the span file go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("paper_cell", "gen_scale", "score_bulk")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Later performance claims are checked again on this seed offset from the one
# the change was written against.
CHECK_SEED_OFFSET = 1000


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for the timed passes of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spin() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - t0


def pin_to_fastest_cpu() -> dict:
    """Pin this process to the CPU that currently runs a fixed loop fastest.

    On a shared virtual machine the CPUs can differ in speed by a fifth, and a
    process the scheduler moves between them, or starts on either, makes run
    times bimodal.  One CPU for the whole run removes both.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = {cpu: [] for cpu in cpus}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu].append(_spin())
    best = min(cpus, key=lambda cpu: sorted(times[cpu])[1])
    os.sched_setaffinity(0, {best})
    return {"cpu": best, "spin_s": {str(cpu): t for cpu, t in times.items()}}


def git_rev() -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tripletboost").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_all(args) -> int:
    """Every workload in a fresh process, so peak memory belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tripletboost" / "__init__.py").is_file():
        print(f"error: no tripletboost sources at {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return run_all(args)

    for var in THREAD_VARS:  # one workload, one thread of math libraries
        os.environ[var] = "1"
    pinning = pin_to_fastest_cpu()
    spin_start = sorted(_spin() for _ in range(11))[5]
    sys.path[:0] = [str(SRC), str(HERE)]
    load_start = os.getloadavg()
    import numpy
    import scipy
    import tripletboost
    if Path(tripletboost.__file__).resolve().parent != (SRC / "tripletboost").resolve():
        print(f"error: imported tripletboost from {tripletboost.__file__}", file=sys.stderr)
        return 2
    import workloads

    scratch = OUT / f"run-{args.workload}-{os.getpid()}"
    try:
        checks, attempted, e2e, layers, details = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), str(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "check_seed": args.seed + CHECK_SEED_OFFSET, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "pinned": pinning,
        "spin_s_start": spin_start, "spin_s_end": sorted(_spin() for _ in range(11))[5],
    }
    values = layers if args.trace else e2e
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": checks.failed == 0, "attempted": attempted, "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"provenance": provenance, "end_to_end": e2e, "per_layer": layers,
              "details": details, "result": result}
    OUT.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"provenance": provenance}))
    for name, value in sorted(values.items()):
        print(f"  {name:34s} {value:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
