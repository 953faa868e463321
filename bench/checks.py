"""Correctness checks on the program's outputs.

Every check returns the number of wrong answers it found. A wrong answer is
a value the program produced that disagrees with its oracle; a missing value
(a blank sweep row, an exception) is a failure but not a wrong answer, and is
tallied by the workload itself.

The figure rows are re-derived here from the paper's printed closed forms,
independently of the package:
    V = A sin(beta) sqrt(lam - s_x^2) / (1 + s_x cos(beta))
    D = sqrt(1 - (A sin(beta) / (1 + s_x cos(beta)))^2 (1 - s_x^2))
"""

from __future__ import annotations

import math

import numpy as np

SWEEP_HEADER = "param,V_closed,V_scan,D_closed,D_trace,residual,omega_a,omega_b"
VISIBILITY_TOL = 1e-9
DISTINGUISHABILITY_TOL = 1e-10
IDENTITY_TOL = 1e-12
PIPELINE_TOL = 1e-12
PROBABILITY_TOL = 1e-10
FIGURE_TOL = 1e-12
DARK_PORT = 1e-12

FIGURE_POINTS = 501
FIGURE_ROWS = 3 * FIGURE_POINTS
THIRD = 1.0 / 3.0
BETA_CURVES = {"beta=pi/4": math.pi / 4, "beta=pi/2": math.pi / 2, "beta=3pi/4": 3 * math.pi / 4}
SX_CURVES = {"sx=-0.5": -0.5, "sx=0": 0.0, "sx=0.5": 0.5}
# stem -> (quantity, swept parameter, lam, A); lam is unused for D.
FIGURES = {
    "fig2a": ("V_closed", "s_x", 9.0 / 25.0, THIRD),
    "fig2b": ("V_closed", "beta", 9.0 / 25.0, THIRD),
    "fig2c": ("V_closed", "s_x", 1.0, THIRD),
    "fig2d": ("V_closed", "beta", 1.0, THIRD),
    "fig3a": ("D_closed", "s_x", 1.0, THIRD),
    "fig3b": ("D_closed", "beta", 1.0, THIRD),
    "fig3c": ("D_closed", "s_x", 1.0, 0.8),
    "fig3d": ("D_closed", "beta", 1.0, 0.8),
}


def visibility(s_x, beta, lam, a):
    sin_b = np.where(beta == math.pi, 0.0, np.sin(beta))
    amp = np.sqrt(np.maximum(lam - s_x * s_x, 0.0))
    return np.clip(a * sin_b * amp / (1.0 + s_x * np.cos(beta)), 0.0, 1.0)


def distinguishability(s_x, beta, a):
    sin_b = np.where(beta == math.pi, 0.0, np.sin(beta))
    ratio = (a * sin_b / (1.0 + s_x * np.cos(beta))) ** 2 * (1.0 - s_x) * (1.0 + s_x)
    return np.sqrt(np.maximum(1.0 - ratio, 0.0))


def check_sweep_rows(lines: list[str], swept: str, fixed: float) -> tuple[int, int, int]:
    """(rows, blank rows on valid input, wrong rows) of one sweep CSV.

    ``fixed`` is beta when s_x is swept and s_x when beta is swept. A non-blank
    row must satisfy |V_closed - V_scan| <= 1e-9, |D_closed - D_trace| <= 1e-10,
    |1 - V^2 - D^2 - residual| <= 1e-12 and omega_a + omega_b = 1 (to 1e-12).
    A blank row is a failure unless 1 + s_x cos(beta) <= 1e-12.
    """
    if not lines or lines[0] != SWEEP_HEADER:
        return 0, 0, 1
    rows, blank, wrong = 0, 0, 0
    for line in lines[1:]:
        fields = line.split(",")
        rows += 1
        if len(fields) != 8:
            wrong += 1
            continue
        param = float(fields[0])
        if all(f == "" for f in fields[1:]):
            s_x, beta = (param, fixed) if swept == "s_x" else (fixed, param)
            blank += 1 + s_x * math.cos(beta) > DARK_PORT
            continue
        try:
            v, v_scan, d, d_trace, residual, w_a, w_b = map(float, fields[1:])
        except ValueError:
            wrong += 1
            continue
        ok = (
            abs(v - v_scan) <= VISIBILITY_TOL
            and abs(d - d_trace) <= DISTINGUISHABILITY_TOL
            and abs(1.0 - v * v - d * d - residual) <= IDENTITY_TOL
            and abs(w_a + w_b - 1.0) <= IDENTITY_TOL
        )
        wrong += not ok
    return rows, blank, wrong


def check_figure(stem: str, lines: list[str]) -> tuple[int, int]:
    """(rows, wrong rows) of one figure CSV; every row is re-derived from its
    closed form, and a missing or malformed row counts as wrong, so the wrong
    count is at most FIGURE_ROWS."""
    quantity, swept, lam, a = FIGURES[stem]
    body = [line.split(",") for line in lines[1:]]
    header_ok = bool(lines) and lines[0] == f"curve,param,{quantity}"
    if not header_ok or len(body) != FIGURE_ROWS or any(len(f) != 3 for f in body):
        return len(body), FIGURE_ROWS
    curves = BETA_CURVES if swept == "s_x" else SX_CURVES
    if swept == "s_x":
        edge = math.sqrt(lam) if quantity == "V_closed" else 1.0
        grid = np.linspace(-edge, edge, FIGURE_POINTS)
    else:
        grid = np.linspace(0.0, math.pi, FIGURE_POINTS)
    labels = np.array([f[0] for f in body])
    try:
        params = np.array([float(f[1]) for f in body])
        values = np.array([float(f[2]) for f in body])
    except ValueError:
        return len(body), FIGURE_ROWS
    curve = np.array([curves.get(label, math.nan) for label in labels])
    s_x, beta = (params, curve) if swept == "s_x" else (curve, params)
    if quantity == "V_closed":
        expected = visibility(s_x, beta, lam, a)
    else:
        expected = distinguishability(s_x, beta, a)
    bad = (
        (labels != np.repeat(list(curves), FIGURE_POINTS))
        | ~(np.abs(params - np.tile(grid, len(curves))) <= FIGURE_TOL)
        | ~(np.abs(values - expected) <= FIGURE_TOL)
    )
    return len(body), int(bad.sum())


def port_probability(s_x, s_y, s_z, a, gamma, beta, phi) -> float:
    """Printed closed form of the port-a probability."""
    alpha = math.atan2(s_y, s_z)
    fringe = 0.5 * a * math.hypot(s_y, s_z) * math.sin(beta) * math.cos(alpha + gamma + 2.0 * phi)
    return 0.5 * (1.0 + s_x * math.cos(beta)) + fringe


def check_point(rho, rho_closed, p_numeric, p_closed, d_trace, d_closed) -> bool:
    """True when one point query agrees with its closed forms: evolve against
    evolve_closed_form to 1e-12, the numeric port probability and the
    trace-norm D to 1e-10."""
    return (
        float(np.abs(rho - rho_closed).max()) <= PIPELINE_TOL
        and abs(p_numeric - p_closed) <= PROBABILITY_TOL
        and abs(d_trace - d_closed) <= DISTINGUISHABILITY_TOL
    )


def check_verify_summary(summary: dict, draws: int) -> int:
    """Wrong answers in a verify summary: failing cases, plus one if any suite
    ran another number of cases than ``draws``."""
    failures = sum(int(entry.get("failures", 0)) for entry in summary.values())
    malformed = not summary or any(entry.get("cases") != draws for entry in summary.values())
    return failures + malformed
