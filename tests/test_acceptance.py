"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4, 6, 7 and 8 run the ``verify`` registry's checks on their own
seeds; what no registry check covers (reference values, named loci,
saturation slices, figures) is checked here directly.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
from draws import draw_beta, draw_bloch_state

from mzi_duality.cli import figure_tables, main
from mzi_duality.duality import (
    distinguishability_closed,
    distinguishability_valley,
    visibility_closed,
    visibility_peak_fixed_beta,
    visibility_peak_fixed_sx,
)
from mzi_duality.interferometer import BeamSplitterAngle, BlochState
from mzi_duality.verify import (
    grid_distinguishability_valley,
    grid_visibility_peak_fixed_beta,
    grid_visibility_peak_fixed_sx,
    run_check,
)

DRAWS = 1000
THIRD = 1.0 / 3.0


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def check(name, rng, tol, draws=DRAWS):
    """Run one registry check; (passed, detail) for the report line."""
    failures, worst = run_check(name, rng, draws, tol)
    return failures == 0, f"{name} max error {worst:.3e} (tol {tol:g}, {failures} failures)"


def test_criterion_1_pipeline_equivalence():
    start = time.perf_counter()
    ok, detail = check("pipeline_equivalence", np.random.default_rng(101), 1e-12)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 pipeline equivalence",
        ok and elapsed < 5.0,
        f"{detail}, {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_2_detection_probability():
    ok, detail = check("detection_probability", np.random.default_rng(102), 1e-10)
    report("criterion 2 closed-form detection probability", ok, detail)


def test_criterion_3_visibility_oracle():
    start = time.perf_counter()
    ok, detail = check("visibility_oracle", np.random.default_rng(103), 1e-9)
    elapsed = time.perf_counter() - start
    report(
        "criterion 3 visibility fringe-extrema oracle",
        ok and elapsed < 60.0,
        f"{detail}, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_4_distinguishability_oracle():
    pair_ok, pair = check("distinguishability_oracle", np.random.default_rng(104), 1e-10)
    identity_ok, identity = check("weights_identity", np.random.default_rng(104), 1e-12)
    report(
        "criterion 4 distinguishability trace-norm oracle",
        pair_ok and identity_ok,
        f"{pair}, {identity}",
    )


def test_criterion_5_reference_point_values():
    v = visibility_closed(BlochState(0.0, 0.6, 0.0), THIRD, BeamSplitterAngle(math.pi / 2))
    v_ok = abs(v - 0.2) <= 1e-12

    d_ok = True
    for s_x in (-0.6, -0.25, 0.0, 0.25, 0.6):
        d = distinguishability_closed(s_x, BeamSplitterAngle(math.acos(-s_x)), 0.8)
        d_ok = d_ok and abs(d - 0.6) <= 1e-12

    edges_ok = True
    state = BlochState(0.2, 0.5, 0.1)
    for beta_value in (0.0, math.pi):
        beta = BeamSplitterAngle(beta_value)
        edges_ok = edges_ok and visibility_closed(state, 0.7, beta) == 0.0
        edges_ok = edges_ok and distinguishability_closed(state.s_x, beta, 0.7) == 1.0

    report(
        "criterion 5 reference point values",
        v_ok and d_ok and edges_ok,
        f"V(lam=9/25, sx=0, beta=pi/2, A=1/3)={v!r} (want 0.2), "
        f"D on the balanced locus at A=4/5 = 0.6, boundary V=0/D=1 exact: {edges_ok}",
    )


def test_criterion_6_extremum_loci():
    worst = 0.0

    # visibility peaks over s_x at fixed splitter angles
    for lam in (9.0 / 25.0, 1.0):
        for beta_value in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            beta = BeamSplitterAngle(beta_value)
            predicted, _ = visibility_peak_fixed_beta(lam, THIRD, beta)
            found, _ = grid_visibility_peak_fixed_beta(lam, THIRD, beta.beta)
            worst = max(worst, abs(found - predicted))

    # visibility peaks over the splitter angle at fixed s_x
    for lam in (9.0 / 25.0, 1.0):
        for s_x in (-0.5, 0.0, 0.5):
            predicted, _ = visibility_peak_fixed_sx(s_x, lam, THIRD)
            found, _ = grid_visibility_peak_fixed_sx(s_x, lam, THIRD)
            worst = max(worst, abs(found - predicted))

    # distinguishability valleys, including the three named positions
    named = {-0.5: math.pi / 3, 0.0: math.pi / 2, 0.5: 2 * math.pi / 3}
    for a_overlap in (THIRD, 0.8):
        for s_x, beta_expected in named.items():
            predicted, _ = distinguishability_valley(s_x, a_overlap)
            found, _ = grid_distinguishability_valley(s_x, a_overlap)
            worst = max(worst, abs(found - predicted), abs(found - beta_expected))

    # randomized sweep across the parameter domain
    sweep_ok, sweep = check("extremum_loci", np.random.default_rng(106), 1e-3, draws=50)

    report(
        "criterion 6 extremum loci by brute-force grid search",
        worst <= 1e-3 and sweep_ok,
        f"named loci: max |grid argopt - predicted locus| {worst:.3e} (tol 1e-3, "
        f"grid step 1e-4); randomized: {sweep}",
    )


def test_criterion_7_complementarity():
    rng = np.random.default_rng(107)
    identity_ok, identity = check("complementarity", rng, 1e-12)

    worst_saturation = 0.0

    def saturation_error(state, a_overlap, beta):
        v = visibility_closed(state, a_overlap, beta)
        d = distinguishability_closed(state.s_x, beta, a_overlap)
        return abs(v * v + d * d - 1.0)

    # trivial recombiner, both endpoints
    for beta_value in (0.0, math.pi):
        beta = BeamSplitterAngle(beta_value)
        for _ in range(100):
            state = draw_bloch_state(rng)
            if abs(1.0 + state.s_x * math.cos(beta_value)) <= 1e-12:
                continue
            worst_saturation = max(
                worst_saturation, saturation_error(state, rng.uniform(), beta)
            )
    # pure total state
    for _ in range(100):
        s_x = float(rng.uniform(-0.9, 0.9))
        r = math.sqrt(1.0 - s_x * s_x)
        angle = rng.uniform(0, 2 * math.pi)
        state = BlochState(s_x, r * math.sin(angle), r * math.cos(angle))
        worst_saturation = max(
            worst_saturation, saturation_error(state, rng.uniform(), draw_beta(rng))
        )
    # orthogonal detector states
    for _ in range(100):
        worst_saturation = max(
            worst_saturation, saturation_error(draw_bloch_state(rng), 0.0, draw_beta(rng))
        )

    report(
        "criterion 7 complementarity identity and saturation slices",
        identity_ok and worst_saturation <= 1e-12,
        f"{identity}, "
        f"max |V^2 + D^2 - 1| on saturation slices {worst_saturation:.3e} (tol 1e-12)",
    )


def test_criterion_8_minimum_error_measurement():
    helstrom_ok, helstrom = check("min_error_measurement", np.random.default_rng(108), 1e-10)
    literal_ok, literal = check(
        "measurement_basis_closed_form", np.random.default_rng(108), 1e-8
    )
    report(
        "criterion 8 minimum-error measurement",
        helstrom_ok and literal_ok,
        f"{helstrom}, {literal}",
    )


def test_criterion_9_figure_reproduction(tmp_path):
    start = time.perf_counter()
    assert main(["figures", "--out-dir", str(tmp_path / "run1")]) == 0
    elapsed = time.perf_counter() - start
    assert main(["figures", "--out-dir", str(tmp_path / "run2")]) == 0

    stems = ["fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b", "fig3c", "fig3d"]
    byte_exact = all(
        (tmp_path / "run1" / f"{stem}.csv").read_bytes()
        == (tmp_path / "run2" / f"{stem}.csv").read_bytes()
        for stem in stems
    )

    shape_ok = True
    for stem, text in figure_tables().items():
        curves = {}
        for line in text.splitlines()[1:]:
            label, _, value = line.split(",")
            curves.setdefault(label, []).append(float(value))
        for values in curves.values():
            diffs = np.diff(values)
            signs = np.sign(diffs[np.abs(diffs) > 1e-14])
            changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
            rising_first = signs[0] > 0
            if stem.startswith("fig2"):
                shape_ok = shape_ok and changes == 1 and rising_first
            else:
                shape_ok = shape_ok and changes == 1 and not rising_first

    report(
        "criterion 9 figure reproduction",
        elapsed < 10.0 and byte_exact and shape_ok,
        f"{elapsed:.2f}s (budget 10s), byte-exact reruns: {byte_exact}, "
        f"single-sign-change curve shapes: {shape_ok}",
    )
