"""The four benchmark workloads: seeded inputs and one batch of work each.

Inputs come from this file's own generator, seeded by the benchmark's
``--seed``; the package receives only the generated values. A batch times
only the calls into the package and checks the outputs afterwards.

- ``verify``: one ``verify`` command of ``draws`` draws per suite; an op is one
  suite draw.
- ``sweep``: the README's 241-row s_x sweep plus a 61-row beta sweep next to
  the dark port; an op is one CSV row.
- ``figures``: one ``figures`` command; an op is one CSV row.
- ``points``: single-point queries through the public library; an op is one
  query. Every tenth point lies near the dark port, at (s_x, beta) pairs that
  do not depend on the seed, so every batch has the same dark-port failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import checks
import mzi_duality as mzi
from mzi_duality import cli

TWO_PI = 2.0 * math.pi
INPUT_POOL = 4096
DARK_EVERY = 10
DARK_SX = -0.9999999999

SIZES = {
    "full": {"draws": 10, "sx_steps": 241, "beta_steps": 61, "queries": 250},
    "tiny": {"draws": 1, "sx_steps": 9, "beta_steps": 7, "queries": 20},
}


@dataclass
class Batch:
    """Outcome of one batch. ``elapsed`` covers only the calls into the package."""

    elapsed: float
    attempted: int
    completed: int
    wrong: int
    digest: str  # SHA-256 of every byte the batch's calls produced
    rows_written: int = 0
    latencies: list[float] | None = None
    failures: Counter = field(default_factory=Counter)


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Run ``mzi_duality.cli.main`` in this process; (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _take_file(path: str) -> bytes:
    """Contents of a file the command wrote, which is then removed; empty if missing."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        os.remove(path)
    except OSError:
        return b""
    return data


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, sum(map(ord, workload))])


class Verify:
    name = "verify"

    def __init__(self, seed: int, size: str, workdir: str):
        self.seeds = _rng(self.name, seed).integers(0, 2**31 - 1, size=INPUT_POOL)
        self.draws = SIZES[size]["draws"]

    def batch(self, k: int) -> Batch:
        seed = int(self.seeds[k % len(self.seeds)])
        code, out, err, elapsed = run_cli(
            ["verify", "--seed", str(seed), "--draws", str(self.draws)]
        )
        try:
            summary = json.loads(out)
        except json.JSONDecodeError:
            summary = {}
        attempted = sum(int(e.get("cases", 0)) for e in summary.values()) or 1
        wrong = checks.check_verify_summary(summary, self.draws)
        wrong += wrong == 0 and code != 0
        failures = Counter({"failing suite case": wrong} if wrong else {})
        digest = hashlib.sha256((out + err).encode()).hexdigest()
        return Batch(elapsed, attempted, max(attempted - wrong, 0), wrong, digest,
                     failures=failures)


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, size: str, workdir: str):
        # A, gamma, delta and yz-angle for each of the two commands of a batch.
        rng = _rng(self.name, seed)
        self.params = np.column_stack([
            rng.uniform(0.05, 1.0, size=(INPUT_POOL, 2)),
            rng.uniform(0.0, TWO_PI, size=(INPUT_POOL, 6)),
        ])
        self.sx_steps = SIZES[size]["sx_steps"]
        self.beta_steps = SIZES[size]["beta_steps"]
        self.workdir = workdir

    def _commands(self, k: int):
        a1, a2, g1, g2, d1, d2, y1, y2 = (repr(float(v)) for v in self.params[k % INPUT_POOL])
        sx_out = os.path.join(self.workdir, "sweep_sx.csv")
        beta_out = os.path.join(self.workdir, "sweep_beta.csv")
        sx_argv = ["sweep", "--param", "sx", "--lo", "-0.6", "--hi", "0.6",
                   "--steps", str(self.sx_steps), "--lam", "0.36", "--A", a1, "--beta", "pi/2",
                   "--gamma", g1, "--delta", d1, "--yz-angle", y1, "--out", sx_out]
        beta_argv = ["sweep", "--param", "beta", "--lo", "0", "--hi", "1e-3",
                     "--steps", str(self.beta_steps), "--lam", "1", "--A", a2, "--sx", repr(DARK_SX),
                     "--gamma", g2, "--delta", d2, "--yz-angle", y2, "--out", beta_out]
        return [(sx_argv, sx_out, "s_x", math.pi / 2, self.sx_steps),
                (beta_argv, beta_out, "beta", DARK_SX, self.beta_steps)]

    def batch(self, k: int) -> Batch:
        elapsed, attempted, completed, wrong, rows_written = 0.0, 0, 0, 0, 0
        digest = hashlib.sha256()
        failures = Counter()
        for argv, path, swept, fixed, steps in self._commands(k):
            code, _, err, seconds = run_cli(argv)
            elapsed += seconds
            data = _take_file(path)
            lines = data.decode("ascii", "replace").splitlines()
            rows, blank, bad = checks.check_sweep_rows(lines, swept, fixed)
            bad += (code != 0) + (rows != steps)
            rows_written += rows
            attempted += steps
            completed += max(rows - blank - bad, 0)
            wrong += bad
            failures.update({f"blank {swept} row": blank} if blank else {})
            digest.update(data)
            digest.update(err.encode())
        failures.update({"wrong row": wrong} if wrong else {})
        return Batch(elapsed, attempted, completed, wrong, digest.hexdigest(),
                     rows_written=rows_written, failures=failures)


class Figures:
    name = "figures"

    def __init__(self, seed: int, size: str, workdir: str):
        # The command takes no parameters, so the seed selects nothing here.
        self.out_dir = os.path.join(workdir, "figures")

    def batch(self, k: int) -> Batch:
        code, _, err, elapsed = run_cli(["figures", "--out-dir", self.out_dir])
        attempted, rows_written, wrong, digest = 0, 0, 0, hashlib.sha256()
        for stem in checks.FIGURES:
            path = os.path.join(self.out_dir, f"{stem}.csv")
            data = _take_file(path)
            rows, bad = checks.check_figure(stem, data.decode("ascii", "replace").splitlines())
            attempted += checks.FIGURE_ROWS
            rows_written += rows
            wrong += bad
            digest.update(data)
        digest.update(err.encode())
        wrong = max(wrong, int(code != 0))
        failures = Counter({"wrong row": wrong} if wrong else {})
        return Batch(elapsed, attempted, attempted - wrong, wrong, digest.hexdigest(),
                     rows_written=rows_written, failures=failures)


def dark_port_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n fixed (s_x, beta) pairs with 1 + s_x cos(beta) log-spaced in [10^-11.5, 10^-4].

    The exponents are the centres of n equal cells; the sign of s_x alternates.
    Whether a dark-port query fails depends only on its (s_x, beta), so taking
    these pairs from no seed gives every batch, on every seed, the same failures.
    """
    port = 10.0 ** (-11.5 + 7.5 * (np.arange(n) + 0.5) / n)
    magnitude = 1.0 - 0.5 * port
    angle = np.arccos((1.0 - port) / magnitude)
    negative = np.arange(n) % 2 == 0
    s_x = np.where(negative, -magnitude, magnitude)
    beta = np.where(negative, angle, math.pi - angle)
    return s_x, beta


class Points:
    name = "points"

    def __init__(self, seed: int, size: str, workdir: str):
        rng = _rng(self.name, seed)
        self.queries = SIZES[size]["queries"]
        n = INPUT_POOL - INPUT_POOL % self.queries  # a batch never wraps around the pool
        s_x = rng.uniform(-0.95, 0.95, size=n)
        beta = rng.uniform(0.05, math.pi - 0.05, size=n)
        dark = np.arange(n) % DARK_EVERY == DARK_EVERY - 1
        dark_s_x, dark_beta = dark_port_points(self.queries // DARK_EVERY)
        s_x[dark] = np.tile(dark_s_x, n // self.queries)
        beta[dark] = np.tile(dark_beta, n // self.queries)
        radius = np.sqrt(rng.uniform(size=n) * (1.0 - s_x * s_x))
        yz_angle = rng.uniform(0.0, TWO_PI, size=n)
        columns = [
            s_x,
            radius * np.sin(yz_angle),
            radius * np.cos(yz_angle),
            rng.uniform(0.0, 1.0, size=n),
            rng.uniform(0.0, TWO_PI, size=n),
            rng.uniform(0.0, TWO_PI, size=n),
            beta,
            rng.uniform(0.0, TWO_PI, size=n),
        ]
        self.points = [tuple(map(float, row)) for row in np.column_stack(columns)]

    @staticmethod
    def query(s_x, s_y, s_z, a, gamma, delta, b, phi):
        state = mzi.BlochState(s_x, s_y, s_z)
        det = mzi.DetectorConfig(a, gamma, delta)
        beta = mzi.BeamSplitterAngle(b)
        shift = mzi.PhaseShift(phi)
        rho = mzi.evolve(state, det, beta, shift)
        rho_closed = mzi.evolve_closed_form(state, det, beta, shift)
        detector = mzi.partial_trace_path(rho)
        p = mzi.detection_probability_numeric(rho)
        report = mzi.duality_report(state, det, beta)
        weights = mzi.path_weights(s_x, beta)
        d_trace = mzi.distinguishability_trace_norm(det, weights)
        try:
            basis = mzi.min_error_basis(det, weights)
        except mzi.DegenerateBasisError as exc:
            basis = exc.basis
        return rho, rho_closed, detector, p, report, weights, d_trace, basis

    def batch(self, k: int) -> Batch:
        start = k * self.queries
        points = [self.points[(start + i) % len(self.points)] for i in range(self.queries)]
        results, latencies = [], []
        batch_start = time.perf_counter()
        for point in points:
            t0 = time.perf_counter()
            try:
                result = self.query(*point)
            except Exception as exc:  # any exception on a valid input is a failed op
                result = exc
            latencies.append(time.perf_counter() - t0)
            results.append(result)
        elapsed = time.perf_counter() - batch_start

        digest = hashlib.sha256()
        failures = Counter()
        wrong = 0
        ok_latencies = []
        for point, result, seconds in zip(points, results, latencies):
            if isinstance(result, Exception):
                failures[type(result).__name__] += 1
                digest.update(f"{type(result).__name__}: {result}\n".encode())
                continue
            rho, rho_closed, detector, p, report, weights, d_trace, basis = result
            s_x, s_y, s_z, a, gamma, _, b, phi = point
            p_closed = checks.port_probability(s_x, s_y, s_z, a, gamma, b, phi)
            if checks.check_point(rho.matrix, rho_closed.matrix, p, p_closed, d_trace,
                                  report.distinguishability):
                ok_latencies.append(seconds)
            else:
                wrong += 1
            for array in (rho.matrix, rho_closed.matrix, detector.matrix, basis.m_a, basis.m_b):
                digest.update(array.tobytes())
            digest.update(repr((p, report, weights, d_trace)).encode())
        failures.update({"oracle disagreement": wrong} if wrong else {})
        return Batch(elapsed, len(points), len(ok_latencies), wrong, digest.hexdigest(),
                     latencies=ok_latencies, failures=failures)


WORKLOADS = {cls.name: cls for cls in (Verify, Sweep, Figures, Points)}
