"""Benchmark command for mzi-duality.

    python3 bench/run.py --workload {verify,sweep,figures,points} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the run repeats batches of the workload
for S seconds and prints the end-to-end metrics; with ``--trace 1`` it
repeats rounds of one untraced and one traced batch on the same inputs and
prints the per-layer metrics. The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. Earlier
lines record the environment and the run's details, including the raw figures.

End-to-end times are scaled to the reference speed of calibrate.py, measured
between batches, because the host's speed drifts. BLAS and OpenMP threads are
capped at 1 (the work is 2x2 and 4x4 algebra), so each run is one process and
one thread. CPUs are not pinned and frequency is not controlled; medians are
the figures of merit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60


def cap_threads() -> dict[str, str | None]:
    """Set every thread-count variable to 1 before numpy loads; returns the inherited values."""
    inherited = {name: os.environ.get(name) for name in THREAD_VARS}
    for name in THREAD_VARS:
        os.environ[name] = "1"
    return inherited


def import_package() -> None:
    if not (SRC / "mzi_duality" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mzi_duality

    if not Path(mzi_duality.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: mzi_duality was imported from {mzi_duality.__file__}, not {SRC}")


def environment(inherited: dict[str, str | None]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_vars_inherited": inherited,
        "thread_vars_set": {name: os.environ[name] for name in THREAD_VARS},
        "note": (
            "BLAS and OpenMP threads capped at 1; one process, one thread. CPUs are "
            "not pinned and frequency is not controlled, so medians are the figures of "
            "merit. End-to-end times are scaled to the reference speed of calibrate.py."
        ),
    }


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its workload inputs being ready,
    as (scaled to reference speed, raw).

    The child prints its CLOCK_MONOTONIC reading once numpy and mzi_duality are
    imported and the inputs generated; that clock is system-wide on Linux.
    """
    from calibrate import speed_factor

    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1",
        "--trace", "0", "--size", args.size, "--setup-probe",
    ]
    raw, factors = [], [speed_factor()]
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic_ns()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        fields = out.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[0] != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        raw.append((int(fields[1]) - start) / 1e9)
        factors.append(speed_factor())
    return [t / scale for t, scale in zip(raw, neighbour_means(factors))], raw


def neighbour_means(samples: list[float]) -> list[float]:
    """Mean of each pair of consecutive samples: the speed around the step between them."""
    return [(a + b) / 2 for a, b in zip(samples, samples[1:])]


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def quartiles(values) -> list[float]:
    return [percentile(values, 25), percentile(values, 50), percentile(values, 75)]


def op_latencies_ms(batches, scales) -> list[float]:
    """Per-query latency where queries are timed one by one, else each batch's time per op."""
    if all(b.latencies is not None for b in batches):
        return [t * 1e3 / scale for b, scale in zip(batches, scales) for t in b.latencies]
    return [b.elapsed * 1e3 / scale / b.completed for b, scale in zip(batches, scales) if b.completed]


def timed_run(workload, seconds: float, setup: tuple[list[float], list[float]]):
    """Batches for ``seconds``, with a speed sample between consecutive batches.

    Each batch's time is divided by the mean speed factor of the samples just
    before and after it, so the times are at the reference speed of calibrate.py.
    """
    from calibrate import speed_factor

    batches, factors = [], [speed_factor()]
    start = time.perf_counter()
    while not batches or time.perf_counter() - start < seconds:
        batches.append(workload.batch(len(batches)))
        factors.append(speed_factor())
    scales = neighbour_means(factors)
    ones = [1.0] * len(batches)
    attempted = sum(b.attempted for b in batches)
    completed = sum(b.completed for b in batches)
    latencies = op_latencies_ms(batches, scales)
    raw_latencies = op_latencies_ms(batches, ones)
    metrics = {
        "ops_per_s": completed / sum(b.elapsed / scale for b, scale in zip(batches, scales)),
        "ok_share": completed / attempted,
        "setup_s": statistics.median(setup[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": percentile(latencies, 50),
        "op_ms_p90": percentile(latencies, 90),
    }
    info = {
        "batches": len(batches),
        "latency_samples": len(latencies),
        "speed_factor_quartiles": quartiles(factors),
        "raw": {
            "ops_per_s": completed / sum(b.elapsed for b in batches),
            "ops_per_s_batch_quartiles": quartiles([b.completed / b.elapsed for b in batches]),
            "setup_s_samples": setup[1],
            "op_ms_p50": percentile(raw_latencies, 50),
            "op_ms_p90": percentile(raw_latencies, 90),
        },
    }
    return batches, metrics, info


def traced_run(workload, seconds: float):
    from tracing import Tracer

    tracer = Tracer()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        plain = workload.batch(0)
        tracer.reset()
        with tracer:
            traced = workload.batch(0)
        layers = tracer.layer_metrics(int(traced.elapsed * 1e9), traced.rows_written)
        layers["trace.overhead_share"] = traced.elapsed / plain.elapsed - 1.0
        rounds.append((plain, traced, tracer.exact_counts(), layers))
    first_plain, _, first_counts, _ = rounds[0]
    identical = all(
        p.digest == first_plain.digest and t.digest == first_plain.digest
        for p, t, _, _ in rounds
    )
    repeatable = all(counts == first_counts for _, _, counts, _ in rounds)
    metrics = {
        name: statistics.median(r[3][name] for r in rounds) for name in rounds[0][3]
    }
    info = {
        "rounds": len(rounds),
        "traced_output_identical": identical,
        "exact_counts_repeat": repeatable,
        "exact_counts": first_counts,
    }
    batches = [b for p, t, _, _ in rounds for b in (p, t)]
    return batches, metrics, info, identical and repeatable


def main(argv=None) -> int:
    inherited = cap_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["verify", "sweep", "figures", "points"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny batches, for the benchmark's self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, args.size, str(workdir))
        print("ready", time.monotonic_ns(), flush=True)
        return 0

    setup = None if args.trace else measure_setup(args)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, str(workdir))
        if args.trace:
            batches, metrics, info, trace_ok = traced_run(workload, args.seconds)
        else:
            batches, metrics, info = timed_run(workload, args.seconds, setup)
            trace_ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when empty: another run may still be using it

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    attempted = sum(b.attempted for b in batches)
    failed = attempted - sum(b.completed for b in batches)
    failures = sum((b.failures for b in batches), start=Counter())
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "failures": dict(failures),
        "first_batch_output_sha256": batches[0].digest,
    })
    result = {
        "correct": trace_ok and all(b.wrong == 0 for b in batches),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps({"env": environment(inherited)}))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
