"""Self-tests of the benchmark: python3 -m pytest -q bench

A tiny-size run of every workload must emit every declared metric with its
unit, and every correctness check must fail on a deliberately corrupted row.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from mzi_duality import cli  # noqa: E402
from tracing import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("figures", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _sweep_lines(tmp_path, argv):
    out = tmp_path / "sweep.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text().splitlines()


def test_sweep_check_fails_on_a_corrupted_row(tmp_path):
    argv = ["sweep", "--param", "sx", "--lo", "-0.6", "--hi", "0.6", "--steps", "5",
            "--lam", "0.36", "--A", "0.5", "--beta", "pi/2", "--gamma", "0.3"]
    lines = _sweep_lines(tmp_path, argv)
    assert checks.check_sweep_rows(lines, "s_x", math.pi / 2) == (5, 0, 0)
    fields = lines[2].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)  # V_scan
    lines[2] = ",".join(fields)
    assert checks.check_sweep_rows(lines, "s_x", math.pi / 2) == (5, 0, 1)


def test_blank_sweep_row_fails_only_off_the_dark_port():
    header = checks.SWEEP_HEADER
    blank = ",,,,,,,"
    assert checks.check_sweep_rows([header, "0.5" + blank], "beta", -0.9) == (1, 1, 0)
    assert checks.check_sweep_rows([header, "0" + blank], "beta", -1.0) == (1, 0, 0)


def test_figure_check_fails_on_a_corrupted_row(tmp_path):
    assert cli.main(["figures", "--out-dir", str(tmp_path)]) == 0
    for stem in checks.FIGURES:
        lines = (tmp_path / f"{stem}.csv").read_text().splitlines()
        assert checks.check_figure(stem, lines) == (checks.FIGURE_ROWS, 0)
    lines = (tmp_path / "fig3c.csv").read_text().splitlines()
    label, param, value = lines[700].split(",")
    lines[700] = f"{label},{param},{float(value) + 1e-9!r}"
    assert checks.check_figure("fig3c", lines) == (checks.FIGURE_ROWS, 1)
    assert checks.check_figure("fig3c", lines[:-1]) == (checks.FIGURE_ROWS - 1, checks.FIGURE_ROWS)


def test_point_check_fails_on_a_corrupted_value():
    point = workloads.Points(5, "tiny", "unused").points[0]
    rho, rho_closed, _, p, report, _, d_trace, _ = workloads.Points.query(*point)
    s_x, s_y, s_z, a, gamma, _, beta, phi = point
    p_closed = checks.port_probability(s_x, s_y, s_z, a, gamma, beta, phi)
    d = report.distinguishability
    assert checks.check_point(rho.matrix, rho_closed.matrix, p, p_closed, d_trace, d)
    assert not checks.check_point(rho.matrix, rho_closed.matrix, p + 1e-9, p_closed, d_trace, d)
    assert not checks.check_point(rho.matrix, rho_closed.matrix + 1e-11, p, p_closed, d_trace, d)
    assert not checks.check_point(rho.matrix, rho_closed.matrix, p, p_closed, d_trace + 1e-9, d)


def test_verify_check_fails_on_a_failing_suite():
    clean = {"a": {"cases": 4, "failures": 0}, "b": {"cases": 4, "failures": 0}}
    assert checks.check_verify_summary(clean, 4) == 0
    assert checks.check_verify_summary({**clean, "b": {"cases": 4, "failures": 2}}, 4) == 2
    assert checks.check_verify_summary({**clean, "b": {"cases": 3, "failures": 0}}, 4) == 1


def test_points_keep_their_dark_port_share():
    points = workloads.Points(11, "full", "unused").points
    dark = [p for i, p in enumerate(points) if i % workloads.DARK_EVERY == workloads.DARK_EVERY - 1]
    ports = [1.0 + s_x * math.cos(beta) for s_x, *_, beta, _ in dark]
    assert all(1e-12 < port <= 1e-4 for port in ports)
    interior = [p for i, p in enumerate(points) if i % workloads.DARK_EVERY != workloads.DARK_EVERY - 1]
    assert all(1.0 + s_x * math.cos(beta) > 1e-2 for s_x, *_, beta, _ in interior)


def test_dark_port_failures_are_the_same_in_every_batch_and_seed():
    counts = {
        (seed, k): workloads.Points(seed, "full", "unused").batch(k).failures
        for seed in (2, 13) for k in (0, 7, 16)
    }
    first = counts[2, 0]
    assert sum(first.values()) > 0
    assert all(c == first for c in counts.values())


def test_inputs_depend_only_on_the_seed():
    first = workloads.Points(8, "full", "unused").points
    assert workloads.Points(8, "full", "unused").points == first
    assert workloads.Points(9, "full", "unused").points != first


def test_tracer_keeps_types_and_restores_the_package():
    import mzi_duality
    from mzi_duality import duality, interferometer, linalg

    before = {name: getattr(mzi_duality, name) for name in mzi_duality.__all__}
    post_init = linalg.DensityOperator.__post_init__
    tracer = Tracer()
    with tracer:
        state = mzi_duality.BlochState(0.1, 0.2, 0.3)
        rho = interferometer.bloch_to_density(state)
        assert type(rho) is mzi_duality.DensityOperator
        assert isinstance(rho, linalg.DensityOperator)
        assert mzi_duality.visibility_closed is not before["visibility_closed"]
        assert duality.phase_probe is not interferometer.phase_probe
    assert tracer.calls["interferometer.BlochState"] == 1
    assert tracer.calls["linalg.DensityOperator"] == 1
    assert {name: getattr(mzi_duality, name) for name in mzi_duality.__all__} == before
    assert linalg.DensityOperator.__post_init__ is post_init
    assert duality.phase_probe is interferometer.phase_probe
