"""Benchmark of the peierls CLI: three scripted studies, end to end and per layer.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload kink_wall --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it are a readable table of every metric with its unit, median,
quartiles and sample count.  Full results (seed, generated inputs,
per-session samples, machine facts, spans) go to
``.perfbench_out/results/``.

``--workload all`` runs every workload, each in its own fresh process.
``--small`` runs each workload at its smallest size (used by
``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("landscape_scan", "attractor_sweep", "kink_wall")

# One BLAS thread: the landscape pool already uses both CPUs of the
# reference machine, and a pinned count keeps dense eigensolves steady.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# fresh-interpreter repeats, spread over the run, whose fastest is setup_s
SETUP_REPEATS = 12

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import peierls.cli
from peierls.config import load_config, reference_config_path
load_config(reference_config_path(sys.argv[2]))
print(time.perf_counter() - start)
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="smallest sizes, for the self-test")
    return parser.parse_args(argv)


def summary(values: list[float]) -> dict[str, float]:
    if not values:
        return {"median": float("nan"), "p25": float("nan"), "p75": float("nan"), "n": 0}
    if len(values) > 1:
        p25, median, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = median = p75 = values[0]
    return {"median": statistics.median(values), "p25": p25, "p75": p75, "n": len(values)}


def fastest_calls(sessions: list[dict[str, Any]]) -> dict[str, float]:
    """Each call's fastest time over the sessions of a run.

    Other tenants of the machine only ever slow a call down, in bursts
    of a few seconds; the fastest repeat is the steadiest estimate of
    what the call itself costs (see README.md, "Why the fastest repeat").
    """
    return {key: min(r["times"][key] for r in sessions) for key in sessions[0]["times"]}


def measure_setup(reference: str) -> dict[str, Any]:
    """Seconds to import peierls.cli and load a reference config in a fresh
    interpreter, as an operation."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), reference],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    op: dict[str, Any] = {"argv": ["setup", reference], "rc": proc.returncode, "error": None}
    try:
        op["seconds"] = float(proc.stdout.split()[-1])
    except (IndexError, ValueError):
        op["error"] = f"setup failed: {proc.stderr[-2000:]}"
    if proc.returncode != 0:
        op["error"] = f"setup exit {proc.returncode}: {proc.stderr[-2000:]}"
    return op


def machine_facts() -> dict[str, Any]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def children_peak_kib() -> int:
    """Peak RSS of the largest child ended so far; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def run_workload(args: argparse.Namespace) -> int:
    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics
    from workloads import STUDIES, Session

    study = STUDIES[args.workload](args.seed, args.small)
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    warm = Session(work)
    study.warm_up(warm)
    ops = warm.ops
    # setup interpreters run only in untraced runs, and only after the
    # first session, so that the children's peak read then is the pool's
    setup_repeats = 0 if args.trace else 2 if args.small else SETUP_REPEATS
    setup_ops: list[dict[str, Any]] = []
    pool_kib = 0

    tracer = Tracer() if args.trace else None
    sessions: list[dict[str, Any]] = []
    spans: list[dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        # the traced run alternates untraced and traced sessions, so the
        # two walls it compares see the same machine state
        traced = tracer is not None and len(sessions) % 2 == 1
        s = Session(work)
        if traced:
            tracer.reset(len(sessions))
            tracer.install()
        try:
            work_done = study.session(s)
        finally:
            if traced:
                tracer.uninstall()
        work_done["bytes_written"] = s.bytes_written
        record: dict[str, Any] = {
            "traced": traced,
            "times": s.times,
            "metrics": study.metrics(s.times, work_done),
            "work": work_done,
            "failed": s.failed,
        }
        if traced:
            record["layers"] = layer_metrics(tracer, work_done)
            spans += tracer.spans
        sessions.append(record)
        ops += s.ops
        if len(sessions) == 1:
            pool_kib = children_peak_kib()
        # the setups are spread over the run, between sessions, so that a
        # burst of the neighbours' load slows only a few of them
        elapsed = time.perf_counter() - start
        done = elapsed >= args.seconds
        due = setup_repeats if done else min(setup_repeats, math.ceil(setup_repeats * elapsed / args.seconds))
        while len(setup_ops) < due:
            setup_ops.append(measure_setup(study.reference))
        if done and (tracer is None or len(sessions) >= 2):
            break
    ops += setup_ops
    # own peak plus the largest pool worker's, read before any setup
    # interpreter (also a child) had ended
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + pool_kib) / 1024.0

    untraced = [r for r in sessions if not r["traced"]]
    best = study.metrics(fastest_calls(untraced), untraced[0]["work"])
    e2e: dict[str, dict[str, Any]] = {
        name: {"unit": unit, "value": best[name], **summary([r["metrics"][name] for r in untraced])}
        for name, unit in study.units.items()
    }
    if tracer is None:
        setup_times = [op["seconds"] for op in setup_ops if op["error"] is None]
        setup = {"unit": "s", "value": min(setup_times, default=float("nan")), **summary(setup_times)}
        e2e = {"setup_s": setup, **e2e}
    e2e["peak_rss_mb"] = {"unit": "MB", "value": rss, **summary([rss])}
    failed = sum(op["error"] is not None for op in ops)
    e2e["error_rate"] = {"unit": "ratio", "value": failed / len(ops), **summary([failed / len(ops)])}

    if tracer is None:
        table = e2e
        gated = {
            "setup_s": e2e["setup_s"],
            "wall_s": e2e["wall_s"],
            "primary_per_s": e2e[study.primary],
            "secondary_per_s": e2e[study.secondary],
            "peak_rss_mb": e2e["peak_rss_mb"],
        }
    else:
        traced_runs = [r for r in sessions if r["traced"]]
        table = {}
        for name, unit in PER_LAYER_UNITS.items():
            if name != "trace.overhead_s":
                stats = summary([r["layers"][name] for r in traced_runs])
                table[name] = {"unit": unit, "value": stats["median"], **stats}
        traced_best = study.metrics(fastest_calls(traced_runs), traced_runs[0]["work"])
        overhead = traced_best["wall_s"] - best["wall_s"]
        table["trace.overhead_s"] = {"unit": "s", "value": overhead, **summary([overhead])}
        gated = table

    result_dir = OUT / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "inputs": study.inputs,
        "machine": machine_facts(),
        "metrics": table,
        "end_to_end": e2e,
        "sessions": sessions,
        "failed_ops": [op for op in ops if op["error"] is not None],
        "spans": spans,
    }
    path = result_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} results={path.relative_to(ROOT)}")
    print(f"{'metric':34} {'unit':>11} {'value':>12} {'median':>12} {'p25':>12} {'p75':>12} {'n':>3}")
    for name, m in table.items():
        print(f"{name:34} {m['unit']:>11} {m['value']:12.6g} {m['median']:12.6g} {m['p25']:12.6g} "
              f"{m['p75']:12.6g} {m['n']:3d}")
    for op in result["failed_ops"]:
        print(f"FAILED {' '.join(op['argv'])}: {op['error'][:300]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in gated.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; exit 1 if any run is incorrect."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            argv.append("--small")
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "peierls" / "cli.py").is_file():
        print(f"error: no peierls sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS  # before numpy loads, inherited by children
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
