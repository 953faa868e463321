import math
import os
import platform
import subprocess
import sys
import textwrap
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from draws import draw_beta, draw_bloch_state, draw_detector
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mzi_duality import duality, interferometer
from mzi_duality.cli import SweepSpec, run_sweep
from mzi_duality.duality import (
    DualityReport,
    MeasurementBasis,
    PathWeights,
    _detector_branches,
    closed_form_lengths,
    complementarity_residual,
    distinguishability_closed,
    distinguishability_trace_norm,
    distinguishability_valley,
    duality_report,
    min_error_basis,
    path_weights,
    visibility_closed,
    visibility_peak_fixed_beta,
    visibility_peak_fixed_sx,
    visibility_scan,
    visibility_scans,
)
from mzi_duality.errors import (
    DarkPortError,
    DegenerateBasisError,
    DualityError,
    InvalidInputError,
    NoExtremumError,
    UndefinedVisibilityError,
)
from mzi_duality.interferometer import (
    BLOCH_NORM_TOL,
    TWO_PI,
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    PhaseShift,
    detection_probability_numeric,
    evolve,
    phase_probe,
)
from mzi_duality.linalg import DensityOperator
from mzi_duality.verify import (
    grid_distinguishability_valley,
    grid_visibility_peak_fixed_beta,
    grid_visibility_peak_fixed_sx,
)
from mzi_duality.verify import _min_error_basis_closed_form

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THIRD = 1.0 / 3.0
HALF_PI = math.pi / 2
# The detector's reference (unmarked) state, its first basis state; a
# detector's marked state is the first column of its unitary.
REFERENCE = np.array([1, 0], dtype=complex)


def pure_state(s_x, seed_angle=0.0):
    r = math.sqrt(max(1.0 - s_x * s_x, 0.0))
    return BlochState(s_x, r * math.sin(seed_angle), r * math.cos(seed_angle))


# --- visibility, closed form ----------------------------------------------------


def test_visibility_known_maximum_for_mixed_state():
    state = BlochState(0.0, 0.6, 0.0)  # lam = 9/25
    v = visibility_closed(state, THIRD, BeamSplitterAngle(HALF_PI))
    assert v == pytest.approx(0.2, abs=1e-12)


def test_visibility_reaches_overlap_for_pure_state_on_the_locus():
    for beta in (0.7, HALF_PI, 2.5):
        state = pure_state(-math.cos(beta))
        v = visibility_closed(state, THIRD, BeamSplitterAngle(beta))
        assert v == pytest.approx(THIRD, abs=1e-12)


def test_visibility_vanishes_at_trivial_splitter():
    state = BlochState(0.1, 0.4, 0.2)
    assert visibility_closed(state, 0.9, BeamSplitterAngle(0.0)) == 0.0
    assert visibility_closed(state, 0.9, BeamSplitterAngle(math.pi)) == 0.0


def test_visibility_vanishes_when_path_is_fully_biased():
    state = BlochState(math.sqrt(0.49), 0.0, 0.0)  # s_x = sqrt(lam)
    assert visibility_closed(state, 0.8, BeamSplitterAngle(1.0)) == 0.0


def test_visibility_undefined_on_dark_port():
    with pytest.raises(UndefinedVisibilityError):
        visibility_closed(BlochState(1, 0, 0), 0.5, BeamSplitterAngle(math.pi))


def test_undefined_visibility_error_is_the_dark_port_error():
    # An alias, not a subclass: an except clause naming either catches
    # every dark port, whichever closed form raised it.
    assert UndefinedVisibilityError is DarkPortError
    assert not issubclass(DarkPortError, InvalidInputError)
    with pytest.raises(UndefinedVisibilityError):
        distinguishability_closed(-1.0, BeamSplitterAngle(0.0), 0.5)


def test_lit_port_on_arrays_is_the_float_preamble_per_point():
    # The closed forms' preamble over a stack of points: each point's
    # (sin beta, denominator) as for floats, and the floats' error if any
    # one point fails.
    s_x = np.array([0.3, -0.9, -1.0])
    beta = np.array([1.1, 0.2, math.pi])
    sin_beta, den = duality._lit_port(s_x, beta)
    assert list(zip(sin_beta, den)) == [duality._lit_port(x, b) for x, b in zip(s_x, beta)]
    with pytest.raises(DarkPortError, match=duality.DARK_PORT):
        duality._lit_port(np.array([0.3, -1.0]), np.array([1.1, 0.0]))
    with pytest.raises(InvalidInputError):
        duality._lit_port(np.array([0.3, 1.5]), np.array([1.1, 1.1]))


def test_visibility_rejects_bad_overlap():
    with pytest.raises(InvalidInputError):
        visibility_closed(BlochState(0, 0, 0), 1.5, BeamSplitterAngle(1.0))


# --- visibility, scan oracle ----------------------------------------------------


def test_scan_is_zero_for_orthogonal_marking():
    state = BlochState(0.2, 0.5, 0.1)
    det = DetectorConfig(0.0, 0.0, 0.0)
    assert visibility_scan(state, det, BeamSplitterAngle(1.0)) <= 1e-15


def test_scan_matches_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(100):
        state = draw_bloch_state(rng)
        det = draw_detector(rng)
        beta = draw_beta(rng)
        scan = visibility_scan(state, det, beta)
        closed = visibility_closed(state, det.a_overlap, beta)
        assert abs(scan - closed) <= 1e-9


def test_scan_is_invariant_under_detector_phases():
    rng = np.random.default_rng(32)
    for _ in range(25):
        state = draw_bloch_state(rng)
        beta = draw_beta(rng)
        a = rng.uniform()
        base = visibility_scan(state, DetectorConfig(a, 0.0, 0.0), beta)
        other = visibility_scan(
            state,
            DetectorConfig(a, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
            beta,
        )
        assert abs(base - other) <= 1e-10


@pytest.fixture
def probe_calls(monkeypatch):
    """Phase arrays of each bracket evaluation a scan makes, in order: each
    refinement round's brackets, then the refined extrema, one row of
    absolute phases lo_j + offset_k per bracket (maxima first, then minima)."""
    calls = []
    evaluate = interferometer._bracket_probabilities

    def recording(m, lo, offsets, work):
        calls.append(lo[:, None] + offsets)
        return evaluate(m, lo, offsets, work)

    monkeypatch.setattr(interferometer, "_bracket_probabilities", recording)
    return calls


def test_default_scan_makes_at_most_16_probe_calls(probe_calls):
    state = BlochState(0.2, -0.4, 0.5)
    det = DetectorConfig(0.7, 0.3, 1.9)
    beta = BeamSplitterAngle(0.8)
    scan = visibility_scan(state, det, beta)
    # 11 refinement rounds from the full turn, then the final evaluation: 12.
    assert len(probe_calls) <= 16
    assert abs(scan - visibility_closed(state, det.a_overlap, beta)) <= 1e-12


@pytest.mark.parametrize("extremum,offset", [("max", 0.0), ("min", math.pi)])
def test_scan_refines_across_zero_phase(probe_calls, extremum, offset):
    # alpha = 0, so the fringe cos(gamma + 2*phi) peaks (or, shifted by pi,
    # dips) at phi = target mod pi: exactly at 0, the start of every bracket,
    # and just below it, where the extremum's copies in [0, 2*pi] are
    # pi - 1e-7 and 2*pi - 1e-7. Every sampled phase stays in the full turn,
    # and the refined phase lands on a copy of the extremum.
    state = BlochState(0.1, 0.0, 0.9)
    beta = BeamSplitterAngle(1.1)
    row = 0 if extremum == "max" else 1
    for target in (0.0, -1e-7):
        det = DetectorConfig(0.8, offset - 2.0 * target, 0.4)
        probe = phase_probe(state, det, beta)
        values = probe(target + np.array([-1e-3, 0.0, 1e-3]))
        assert (np.argmax(values) if extremum == "max" else np.argmin(values)) == 1
        probe_calls.clear()
        scan = visibility_scan(state, det, beta)
        assert all(0.0 <= phis.min() and phis.max() <= TWO_PI for phis in probe_calls)
        refined = probe_calls[-1][row, 0]
        assert abs(math.remainder(refined - target, math.pi)) <= 1e-6
        assert abs(scan - visibility_closed(state, det.a_overlap, beta)) <= 1e-12


# --- the stacked scan ---------------------------------------------------------------

# Pure, pure, mixed and maximally mixed inputs at the splitter edges and
# midpoint, ahead of seeded draws.
EDGE_POINTS = [
    (state, BeamSplitterAngle(beta))
    for state in (
        BlochState(0.6, 0.0, 0.8),
        BlochState(0.0, 1.0, 0.0),
        BlochState(-0.3, 0.2, -0.4),
        BlochState(0.0, 0.0, 0.0),
    )
    for beta in (0.0, math.pi, HALF_PI)
]


def stack(points):
    states = [state for state, _ in points]
    return (
        [s.s_x for s in states],
        [s.s_y for s in states],
        [s.s_z for s in states],
    ), [beta.beta for _, beta in points]


@pytest.mark.parametrize("a_overlap", [0.0, 1.0, 0.37])
@pytest.mark.parametrize(
    "n",
    [
        # One point and partial blocks of several sizes, then one full block,
        # one point past it, and two blocks and one point.
        1,
        32,
        33,
        65,
        interferometer._SCAN_CHUNK,
        interferometer._SCAN_CHUNK + 1,
        2 * interferometer._SCAN_CHUNK + 1,
    ],
)
def test_stacked_scan_equals_scalar_scans(n, a_overlap):
    rng = np.random.default_rng(71)
    det = DetectorConfig(a_overlap, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
    points = (EDGE_POINTS + [(draw_bloch_state(rng), draw_beta(rng)) for _ in range(n)])[:n]
    (s_x, s_y, s_z), betas = stack(points)
    visibility, defined = visibility_scans(s_x, s_y, s_z, det.unitary, betas)
    assert visibility.shape == (n,) and defined.all()
    for (state, beta), v in zip(points, visibility):
        assert abs(v - visibility_scan(state, det, beta)) <= 1e-15


def test_bracket_evaluation_matches_the_pipeline():
    # The refinement's evaluator, each bracket's base phase folded into its
    # point's matrix and every row evaluated on one table of offsets,
    # against the operator pipeline at each sampled phase: edge points at
    # A = 0, 1 and one interior overlap, then seeded draws, each with
    # brackets across phi = 0, across 2*pi and at a seeded base phase.
    rng = np.random.default_rng(83)
    cases = [
        (state, DetectorConfig(a_overlap, 0.4, 1.3), beta)
        for a_overlap in (0.0, 1.0, 0.37)
        for state, beta in EDGE_POINTS
    ]
    cases += [(draw_bloch_state(rng), draw_detector(rng), draw_beta(rng)) for _ in range(12)]
    (s_x, s_y, s_z), betas = stack([(state, beta) for state, _, beta in cases])
    unitary = np.stack([det.unitary for _, det, _ in cases])
    m = interferometer._port_matrices(s_x, s_y, s_z, unitary, betas)
    spacing = 1e-3
    for offsets in (spacing * interferometer._SAMPLE_INDEX, np.array([0.5 * spacing])):
        half = 0.5 * (offsets[-1] + spacing)
        lo = np.concatenate(
            [np.full(len(m), -half), np.full(len(m), TWO_PI - half), rng.uniform(0, TWO_PI, len(m))]
        )
        work = np.empty((2, 3 * len(m), len(offsets)))
        values = interferometer._bracket_probabilities(np.concatenate([m] * 3), lo, offsets, work)
        for (state, det, beta), base, row in zip(cases * 3, lo, values):
            for offset, value in zip(offsets, row):
                rho = evolve(state, det, beta, PhaseShift(base + offset))
                assert abs(value - detection_probability_numeric(rho)) <= 1e-14


def test_consecutive_scans_equal_fresh_calls_bit_for_bit():
    # Each call owns its work array: a scan of many blocks followed by a
    # smaller scan, and the reverse order, give the same bits.
    rng = np.random.default_rng(73)
    dets = [draw_detector(rng) for _ in range(2)]
    inputs = []
    for det, n in zip(dets, (2 * interferometer._SCAN_CHUNK + 1, 5)):
        (s_x, s_y, s_z), betas = stack([(draw_bloch_state(rng), draw_beta(rng)) for _ in range(n)])
        inputs.append((s_x, s_y, s_z, det.unitary, betas))
    first = [visibility_scans(*args) for args in inputs]
    second = [visibility_scans(*args) for args in reversed(inputs)][::-1]
    for (v1, d1), (v2, d2) in zip(first, second):
        assert v1.tobytes() == v2.tobytes() and np.array_equal(d1, d2)


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="fault counts depend on glibc's allocator"
)
def test_scan_reuses_its_work_memory_across_blocks():
    # A 241-point scan, one block, allocates its refinement arrays, a few
    # hundred kB, afresh in each of its 12 rounds: with glibc made to return
    # freed memory at once, a warm call takes about 4500 minor page faults.
    # The call's one work array and the allocator's reuse of freed heap keep
    # a warm call far below that.
    code = textwrap.dedent(
        """
        import resource
        import numpy as np
        from mzi_duality import DetectorConfig
        from mzi_duality.duality import visibility_scans

        s_x = np.linspace(-0.6, 0.6, 241)
        s_z = np.sqrt(np.maximum(0.36 - s_x * s_x, 0.0))
        args = (s_x, np.zeros(241), s_z, DetectorConfig(0.8, 0.3, 0.2).unitary, np.full(241, 1.5))
        for _ in range(2):
            visibility_scans(*args)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        visibility_scans(*args)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 256


def test_stacked_scan_flags_only_the_dark_port():
    det = DetectorConfig(0.5, 0.2, 0.1)
    points = [(BlochState(0.2, 0.3, 0.1), BeamSplitterAngle(1.0)),
              (BlochState(1.0, 0.0, 0.0), BeamSplitterAngle(math.pi))]
    (s_x, s_y, s_z), betas = stack(points)
    visibility, defined = visibility_scans(s_x, s_y, s_z, det.unitary, betas)
    assert defined.tolist() == [True, False]
    (lit, lit_beta), (dark, dark_beta) = points
    assert abs(visibility[0] - visibility_scan(lit, det, lit_beta)) <= 1e-15
    assert math.isnan(visibility[1])
    with pytest.raises(UndefinedVisibilityError):
        visibility_scan(dark, det, dark_beta)


def test_scan_undefined_on_dark_port():
    with pytest.raises(UndefinedVisibilityError):
        visibility_scan(BlochState(1, 0, 0), DetectorConfig(0.5), BeamSplitterAngle(math.pi))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DetectorConfig(1.5), "a_overlap must lie in [0, 1], got 1.5"),
        (lambda: DetectorConfig(math.nan), "a_overlap must be finite, got nan"),
        (lambda: visibility_closed(BlochState(0, 0, 0), -0.5, BeamSplitterAngle(1.0)),
         "a_overlap must lie in [0, 1], got -0.5"),
        (lambda: complementarity_residual(BlochState(0, 0, 0), math.inf, BeamSplitterAngle(1.0)),
         "a_overlap must be finite, got inf"),
        (lambda: distinguishability_valley(0.2, 2.0), "a_overlap must lie in [0, 1], got 2.0"),
        (lambda: PathWeights(1.5, -0.5), "omega_a out of [0, 1]: 1.5"),
        (lambda: PathWeights(0.5, 1.5), "omega_b out of [0, 1]: 1.5"),
        (lambda: PathWeights(math.nan, 0.5), "omega_a must be finite, got nan"),
        (lambda: PathWeights(0.6, 0.6), "path weights must sum to 1"),
    ],
)
def test_range_checks_keep_their_messages(build, message):
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value) == message


# 1 + s_x cos(beta) about 1e-13 and about 1e-10, reached along s_x and along beta.
@pytest.mark.parametrize(
    "s_x, beta",
    [
        (1.0 - 1e-13, math.pi),
        (-(1.0 - 1e-13), 0.0),
        (1.0, math.pi - math.sqrt(2e-13)),
        (1.0 - 1e-10, math.pi),
        (-(1.0 - 1e-10), 0.0),
        (1.0, math.pi - math.sqrt(2e-10)),
    ],
)
def test_scan_and_closed_form_share_the_dark_port_threshold(s_x, beta, capsys):
    # Every route calls the port dark at the same points, all with one class
    # and one message; elsewhere it returns or raises something else.
    state = pure_state(s_x)
    angle = BeamSplitterAngle(beta)
    routes = [
        lambda: visibility_closed(state, 0.5, angle),
        lambda: visibility_scan(state, DetectorConfig(0.5), angle),
        lambda: distinguishability_closed(s_x, angle, 0.5),
        lambda: complementarity_residual(state, 0.5, angle),
        lambda: path_weights(s_x, angle),
    ]
    outcomes = []
    for route in routes:
        try:
            route()
            outcomes.append(False)
        except DualityError as exc:
            outcomes.append((type(exc), str(exc)) == (DarkPortError, duality.DARK_PORT))
    # The sweep row at this point, the first or last row of a two-row beta sweep.
    lo, hi = sorted((beta, HALF_PI))
    spec = SweepSpec(swept="beta", lo=lo, hi=hi, steps=2, lam=1.0, a_overlap=0.5, s_x=s_x)
    row = run_sweep(spec)[1 if beta == lo else 2]
    warning = f"warning: beta={row.split(',')[0]} is degenerate ({duality.DARK_PORT})"
    outcomes.append(row.endswith(",,,,,,,") and warning in capsys.readouterr().err.splitlines())
    undefined = 1.0 + s_x * math.cos(beta) <= duality.DENOMINATOR_TOL
    assert outcomes == [undefined] * 6


# --- path weights ---------------------------------------------------------------


def test_weights_balance_on_the_valley_locus():
    for s_x in (-0.7, 0.0, 0.4):
        w = path_weights(s_x, BeamSplitterAngle(math.acos(-s_x)))
        assert w.omega_a == pytest.approx(0.5, abs=1e-12)
        assert w.omega_b == pytest.approx(0.5, abs=1e-12)


def test_weights_at_full_transmission():
    for s_x in (-0.99, 0.0, 1.0):
        w = path_weights(s_x, BeamSplitterAngle(0.0))
        assert w.omega_a == pytest.approx(1.0, abs=1e-12)
        assert w.omega_b == pytest.approx(0.0, abs=1e-12)


def test_weights_symmetric_case():
    w = path_weights(0.0, BeamSplitterAngle(HALF_PI))
    assert w.omega_a == pytest.approx(0.5, abs=1e-12)
    assert w.omega_b == pytest.approx(0.5, abs=1e-12)


def test_weights_degenerate_port_raises():
    with pytest.raises(DarkPortError):
        path_weights(-1.0, BeamSplitterAngle(0.0))


def test_weights_reject_out_of_range_sx():
    with pytest.raises(InvalidInputError):
        path_weights(1.5, BeamSplitterAngle(1.0))


def test_path_weights_type_enforces_normalization():
    with pytest.raises(InvalidInputError):
        PathWeights(0.7, 0.7)


# --- detector mixture -------------------------------------------------------------


def detector_mixture(det, weights):
    # The detector state conditioned on the monitored port.
    unmarked, marked = _detector_branches(det.unitary)
    return DensityOperator(weights.omega_b * unmarked + weights.omega_a * marked)


def test_mixture_ignores_pure_phase_marking():
    det = DetectorConfig(1.0, gamma=0.9)
    rho = detector_mixture(det, PathWeights(0.3, 0.7))
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_mixture_with_all_weight_on_marked_branch():
    det = DetectorConfig(0.6, 0.5, 0.2)
    rho = detector_mixture(det, PathWeights(1.0, 0.0))
    u = det.unitary
    np.testing.assert_allclose(rho.matrix, u @ np.diag([1.0, 0.0]) @ u.conj().T, atol=1e-15)


def test_mixture_has_unit_trace():
    rng = np.random.default_rng(33)
    for _ in range(50):
        det = draw_detector(rng)
        w = path_weights(rng.uniform(-0.9, 0.9), draw_beta(rng))
        assert abs(detector_mixture(det, w).matrix.trace() - 1) <= 1e-12


# --- distinguishability ------------------------------------------------------------


def test_distinguishability_lower_bound_on_the_locus():
    for s_x in (-0.3, 0.0, 0.5):
        d = distinguishability_closed(s_x, BeamSplitterAngle(math.acos(-s_x)), 0.8)
        assert d == pytest.approx(0.6, abs=1e-12)


def test_distinguishability_is_one_at_trivial_splitter():
    assert distinguishability_closed(0.3, BeamSplitterAngle(0.0), 0.9) == 1.0
    assert distinguishability_closed(0.3, BeamSplitterAngle(math.pi), 0.9) == 1.0


def test_distinguishability_is_one_for_certain_path():
    assert distinguishability_closed(1.0, BeamSplitterAngle(1.0), 0.9) == 1.0
    assert distinguishability_closed(-1.0, BeamSplitterAngle(1.0), 0.9) == 1.0


def test_distinguishability_is_one_for_orthogonal_marking():
    assert distinguishability_closed(0.2, BeamSplitterAngle(1.2), 0.0) == 1.0


def test_trace_norm_route_matches_closed_form():
    rng = np.random.default_rng(34)
    for _ in range(300):
        s_x = rng.uniform(-0.99, 0.99)
        det = draw_detector(rng)
        beta = draw_beta(rng)
        w = path_weights(s_x, beta)
        assert abs(
            distinguishability_trace_norm(det, w)
            - distinguishability_closed(s_x, beta, det.a_overlap)
        ) <= 1e-10


def test_trace_norm_route_on_orthogonal_equal_priors():
    det = DetectorConfig(0.0, 0.0, 0.0)
    assert distinguishability_trace_norm(det, PathWeights(0.5, 0.5)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_trace_norm_route_is_phase_invariant():
    rng = np.random.default_rng(35)
    for _ in range(50):
        a = rng.uniform()
        w = path_weights(rng.uniform(-0.9, 0.9), draw_beta(rng))
        base = distinguishability_trace_norm(DetectorConfig(a, 0.0, 0.0), w)
        other = distinguishability_trace_norm(
            DetectorConfig(a, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)), w
        )
        assert abs(base - other) <= 1e-10


# --- minimum-error measurement -------------------------------------------------------


def test_basis_vectors_are_eigenvectors_of_the_weighted_difference():
    rng = np.random.default_rng(36)
    for _ in range(200):
        det = draw_detector(rng)
        w = path_weights(rng.uniform(-0.95, 0.95), draw_beta(rng))
        u = det.unitary
        rho = np.diag([1.0, 0.0]).astype(complex)
        gamma_op = w.omega_a * (u @ rho @ u.conj().T) - w.omega_b * rho
        try:
            basis = min_error_basis(det, w)
        except DegenerateBasisError:
            continue
        for vec, sign in ((basis.m_a, 1.0), (basis.m_b, -1.0)):
            lam = np.vdot(vec, gamma_op @ vec).real
            assert sign * lam >= -1e-12
            assert np.abs(gamma_op @ vec - lam * vec).max() <= 1e-10


def test_basis_for_orthogonal_states_is_the_states_themselves():
    det = DetectorConfig(0.0, 0.0, 0.7)
    basis = min_error_basis(det, PathWeights(0.5, 0.5))
    overlap_a = abs(np.vdot(basis.m_a, det.unitary[:, 0]))
    overlap_b = abs(np.vdot(basis.m_b, REFERENCE))
    assert overlap_a == pytest.approx(1.0, abs=1e-12)
    assert overlap_b == pytest.approx(1.0, abs=1e-12)


def test_basis_is_finite_for_a_subnormal_overlap():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        basis = min_error_basis(DetectorConfig(1e-320, 0.3, 0.2), PathWeights(0.4, 0.6))
    vectors = np.column_stack([basis.m_a, basis.m_b])
    assert np.isfinite(vectors).all()
    assert np.abs(vectors.conj().T @ vectors - np.eye(2)).max() <= 1e-12


def test_basis_degenerates_when_states_coincide():
    with pytest.raises(DegenerateBasisError) as excinfo:
        min_error_basis(DetectorConfig(1.0, 0.3), PathWeights(0.5, 0.5))
    fallback = excinfo.value.basis
    np.testing.assert_allclose(fallback.m_a, [1, 0])
    np.testing.assert_allclose(fallback.m_b, [0, 1])


def literal_basis(det, w):
    # The literal closed-form basis, which takes arrays, at one point.
    m_a, m_b = _min_error_basis_closed_form(
        np.array([det.a_overlap]),
        np.array([det.gamma]),
        det.unitary[None, :, 0],
        np.array([w.omega_a]),
        np.array([w.omega_b]),
    )
    return m_a[0], m_b[0]


def test_basis_matches_literal_closed_form_on_interior_points():
    rng = np.random.default_rng(37)
    for _ in range(200):
        det = DetectorConfig(rng.uniform(0.05, 0.95), 0.0, rng.uniform(0, 2 * math.pi))
        omega_a = rng.uniform(0.05, 0.95)
        w = PathWeights(omega_a, 1.0 - omega_a)
        numeric = min_error_basis(det, w)
        literal_a, literal_b = literal_basis(det, w)
        for v, ref in ((numeric.m_a, literal_a), (numeric.m_b, literal_b)):
            overlap = np.vdot(ref, v)
            aligned = ref * (overlap / abs(overlap))
            assert np.linalg.norm(v - aligned) <= 1e-8


def test_literal_closed_form_preconditions():
    w = PathWeights(0.5, 0.5)
    with pytest.raises(InvalidInputError):
        literal_basis(DetectorConfig(0.0), w)
    with pytest.raises(InvalidInputError):
        literal_basis(DetectorConfig(1.0), w)
    with pytest.raises(InvalidInputError):
        literal_basis(DetectorConfig(0.5, gamma=1.0), w)
    with pytest.raises(InvalidInputError):
        literal_basis(DetectorConfig(0.5), PathWeights(0.0, 1.0))
    # One bad point of a stack fails the whole stack: a guard, and the
    # normalization self-check (a marked state that does not match A).
    good, bad = DetectorConfig(0.5), DetectorConfig(1.0)
    marked = np.stack([good.unitary[:, 0], bad.unitary[:, 0]])
    weights = np.full(2, 0.5), np.full(2, 0.5)
    with pytest.raises(InvalidInputError, match="0 < a_overlap < 1"):
        _min_error_basis_closed_form(np.array([0.5, 1.0]), np.zeros(2), marked, *weights)
    with pytest.raises(InvalidInputError, match="self-check"):
        _min_error_basis_closed_form(np.array([0.5, 0.5]), np.zeros(2), marked, *weights)


def test_measurement_reaches_the_optimal_success_probability():
    rng = np.random.default_rng(38)
    for _ in range(200):
        det = draw_detector(rng)
        w = path_weights(rng.uniform(-0.95, 0.95), draw_beta(rng))
        try:
            basis = min_error_basis(det, w)
        except DegenerateBasisError:
            continue
        success = (
            w.omega_b * abs(np.vdot(basis.m_b, REFERENCE)) ** 2
            + w.omega_a * abs(np.vdot(basis.m_a, det.unitary[:, 0])) ** 2
        )
        d = distinguishability_trace_norm(det, w)
        assert abs(success - 0.5 * (1.0 + d)) <= 1e-10
        assert success >= max(w.omega_a, w.omega_b) - 1e-12


def test_measurement_basis_type_rejects_non_orthonormal_input():
    with pytest.raises(InvalidInputError):
        MeasurementBasis(np.array([1, 0]), np.array([1, 0]))
    with pytest.raises(InvalidInputError):
        MeasurementBasis(np.array([2, 0]), np.array([0, 1]))


# --- complementarity -----------------------------------------------------------------


def test_residual_is_zero_for_pure_states():
    state = BlochState(0.0, 0.0, 1.0)  # lam exactly 1
    assert complementarity_residual(state, 0.7, BeamSplitterAngle(1.1)) == 0.0


def test_residual_is_zero_at_trivial_splitter():
    state = BlochState(0.1, 0.2, 0.3)
    assert complementarity_residual(state, 0.7, BeamSplitterAngle(0.0)) == 0.0
    assert complementarity_residual(state, 0.7, BeamSplitterAngle(math.pi)) == 0.0


def test_residual_is_zero_for_orthogonal_marking():
    state = BlochState(0.1, 0.2, 0.3)
    assert complementarity_residual(state, 0.0, BeamSplitterAngle(1.0)) == 0.0


def test_residual_frozen_value_and_two_route_agreement():
    state = BlochState(0.0, 0.3, 0.4)  # lam = 1/4
    beta = BeamSplitterAngle(math.pi / 3)
    residual = complementarity_residual(state, THIRD, beta)
    assert residual == pytest.approx(0.0625, abs=1e-12)
    v = visibility_closed(state, THIRD, beta)
    d = distinguishability_closed(state.s_x, beta, THIRD)
    assert abs(1.0 - v * v - d * d - residual) <= 1e-12


def test_residual_undefined_on_dark_port():
    with pytest.raises(DarkPortError):
        complementarity_residual(BlochState(-1, 0, 0), 0.5, BeamSplitterAngle(0.0))


def test_report_accepts_lam_slack_above_one():
    # lam - 1 = 1.0e-12 is within BLOCH_NORM_TOL; the closed forms used to
    # amplify it into a residual of -4.94e-10, below RESIDUAL_FLOOR.
    state = BlochState(-0.999, 0.0, math.sqrt(1 + 1e-12 - 0.999**2))
    assert 1.0 < state.lam <= 1.0 + BLOCH_NORM_TOL
    rep = duality_report(state, DetectorConfig(1.0), BeamSplitterAngle(0.05))
    assert rep.residual == 0.0


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-0.999, max_value=0.999),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=0.0, max_value=BLOCH_NORM_TOL, exclude_min=True),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=math.pi),
)
def test_lam_slack_above_one_counts_as_a_pure_state(s_x, angle, excess, a, beta_value):
    r = math.sqrt(1.0 + excess - s_x * s_x)
    s_y, s_z = r * math.sin(angle), r * math.cos(angle)
    # Rounding can carry the length past the slack BlochState admits.
    assume(1.0 < s_x * s_x + s_y * s_y + s_z * s_z <= 1.0 + BLOCH_NORM_TOL)
    state = BlochState(s_x, s_y, s_z)
    beta = BeamSplitterAngle(beta_value)
    rep = duality_report(state, DetectorConfig(a), beta)
    assert rep.residual == 0.0
    assert abs(rep.visibility**2 + rep.distinguishability**2 - 1.0) <= 1e-12
    point = (s_x, state.lam, state.yz_norm)
    columns = closed_form_lengths(*(np.array([v]) for v in point))
    assert [float(c[0]) for c in columns] == list(closed_form_lengths(*point))


# --- peaks and valleys -----------------------------------------------------------------


def test_peak_fixed_beta_for_pure_states():
    # Next to beta = 0 and pi the peak sits next to the dark port, where the
    # peak value is still exactly A; lam's rounding slack above 1 is pure.
    cases = [(1.0, beta) for beta in (0.6, HALF_PI, 2.2, 1e-7, 1e-5, math.pi - 1e-7)]
    for lam, beta in cases + [(1.0 + 1e-12, 1e-7)]:
        s_x_star, v_star = visibility_peak_fixed_beta(lam, THIRD, BeamSplitterAngle(beta))
        assert s_x_star == pytest.approx(-lam * math.cos(beta), abs=1e-12)
        assert v_star == pytest.approx(THIRD, abs=1e-12)


def test_peak_fixed_beta_location_stays_a_valid_s_x():
    # lam's rounding slack above 1 used to carry into the location -lam
    # cos(beta), which left [-1, 1] next to beta = 0 (-1.000000000000995
    # here) and which BlochState then rejected. It counts as a pure state,
    # and lam <= 1 keeps its location -lam cos(beta) bit for bit.
    s_x_star, _ = visibility_peak_fixed_beta(1.0 + 1e-12, 0.5, BeamSplitterAngle(1e-7))
    assert s_x_star == -math.cos(1e-7)
    BlochState(s_x_star, 0.0, 0.0)
    rng = np.random.default_rng(41)
    cases = [(1.0, 1e-7), (1.0, math.pi - 1e-7), (0.36, HALF_PI)]
    cases += [(rng.uniform(1e-3, 1.0), rng.uniform(1e-3, math.pi - 1e-3)) for _ in range(200)]
    for lam, beta in cases:
        s_x_star, _ = visibility_peak_fixed_beta(lam, 0.5, BeamSplitterAngle(beta))
        assert s_x_star == -lam * math.cos(beta)


def test_peak_fixed_beta_for_the_reference_mixed_state():
    s_x_star, v_star = visibility_peak_fixed_beta(0.36, THIRD, BeamSplitterAngle(HALF_PI))
    assert s_x_star == pytest.approx(0.0, abs=1e-15)
    assert v_star == pytest.approx(0.2, abs=1e-12)


def test_peak_fixed_beta_matches_closed_form_expression():
    rng = np.random.default_rng(39)
    for _ in range(100):
        lam = rng.uniform(0.05, 1.0)
        a = rng.uniform(0.05, 1.0)
        beta = BeamSplitterAngle(rng.uniform(0.05, math.pi - 0.05))
        _, v_star = visibility_peak_fixed_beta(lam, a, beta)
        expected = (
            a * math.sqrt(lam) * math.sin(beta.beta)
            / math.sqrt(1.0 - lam * math.cos(beta.beta) ** 2)
        )
        assert v_star == pytest.approx(expected, abs=1e-12)


def test_peak_fixed_beta_agrees_with_grid_search():
    beta = BeamSplitterAngle(2 * math.pi / 5)
    s_x_star, v_star = visibility_peak_fixed_beta(0.36, THIRD, beta)
    s_x_grid, v_grid = grid_visibility_peak_fixed_beta(0.36, THIRD, beta.beta)
    assert abs(s_x_grid - s_x_star) <= 1e-3
    assert v_grid <= v_star + 1e-12


def test_peak_fixed_beta_errors():
    with pytest.raises(NoExtremumError):
        visibility_peak_fixed_beta(0.0, 0.5, BeamSplitterAngle(1.0))
    with pytest.raises(InvalidInputError):
        visibility_peak_fixed_beta(0.5, 0.5, BeamSplitterAngle(0.0))
    with pytest.raises(InvalidInputError):
        visibility_peak_fixed_beta(1.5, 0.5, BeamSplitterAngle(1.0))


def test_peak_fixed_sx_location_and_value():
    beta_star, v_star = visibility_peak_fixed_sx(0.0, 0.36, THIRD)
    assert beta_star == pytest.approx(HALF_PI, abs=1e-12)
    assert v_star == pytest.approx(0.2, abs=1e-12)
    # pure state: the peak value is the overlap, independent of s_x
    for s_x in (-0.8, 0.1, 0.6):
        _, v_star = visibility_peak_fixed_sx(s_x, 1.0, THIRD)
        assert v_star == pytest.approx(THIRD, abs=1e-12)


def test_peak_fixed_sx_is_at_most_the_overlap_next_to_a_certain_path():
    # lam - s_x^2 cancels next to |s_x| = 1: lam's slack above 1, and even
    # lam = 1 exactly, used to put the peak above A (1.00000025 and
    # 1.00000000025 here). A pure state's peak is A exactly.
    assert visibility_peak_fixed_sx(0.999999, 1.0 + 1e-12, 1.0) == (math.acos(-0.999999), 1.0)
    assert visibility_peak_fixed_sx(0.999999999, 1.0, 1.0)[1] == 1.0
    rng = np.random.default_rng(73)
    for _ in range(5000):
        s_x = math.copysign(1.0 - 10.0 ** rng.uniform(-15.0, -1.0), rng.uniform(-1.0, 1.0))
        a = float(rng.uniform(0.0, 1.0))
        pure = (1.0, 1.0 + float(rng.uniform(0.0, 1e-12)))[int(rng.integers(2))]
        mixed = s_x * s_x + (1.0 - s_x * s_x) * float(rng.uniform(0.0, 1.0))
        assert visibility_peak_fixed_sx(s_x, pure, a)[1] == a
        _, v_star = visibility_peak_fixed_sx(s_x, mixed, a)
        assert v_star <= a
        # Against the exact (lam - s_x^2) / (1 - s_x^2) of the same floats.
        with localcontext() as context:
            context.prec = 60
            exact = (Decimal(mixed) - Decimal(s_x) ** 2) / (1 - Decimal(s_x) ** 2)
        if a > 0.0:
            assert abs((v_star / a) ** 2 - float(exact)) <= 1e-14


def test_peak_fixed_sx_agrees_with_grid_search():
    beta_star, v_star = visibility_peak_fixed_sx(0.3, 0.7, 0.6)
    beta_grid, v_grid = grid_visibility_peak_fixed_sx(0.3, 0.7, 0.6)
    assert abs(beta_grid - beta_star) <= 1e-3
    assert v_grid <= v_star + 1e-12


def test_peak_fixed_sx_errors():
    with pytest.raises(NoExtremumError):
        visibility_peak_fixed_sx(1.0, 1.0, 0.5)
    with pytest.raises(InvalidInputError):
        visibility_peak_fixed_sx(0.8, 0.5, 0.5)  # lam < s_x^2


def test_valley_locations_for_reference_inputs():
    expectations = {-0.5: math.pi / 3, 0.0: HALF_PI, 0.5: 2 * math.pi / 3}
    for s_x, beta_expected in expectations.items():
        beta_star, d_star = distinguishability_valley(s_x, THIRD)
        assert beta_star == pytest.approx(beta_expected, abs=1e-12)
        assert d_star == pytest.approx(math.sqrt(8.0) / 3.0, abs=1e-12)
        assert d_star == pytest.approx(0.942809, abs=1e-6)


def test_valley_agrees_with_grid_search():
    beta_star, d_star = distinguishability_valley(0.5, THIRD)
    beta_grid, d_grid = grid_distinguishability_valley(0.5, THIRD)
    assert abs(beta_grid - beta_star) <= 1e-3
    assert abs(d_grid - d_star) <= 1e-6


def test_valley_errors():
    with pytest.raises(NoExtremumError):
        distinguishability_valley(-1.0, 0.5)
    with pytest.raises(InvalidInputError):
        distinguishability_valley(0.5, 1.5)


# --- aggregated report --------------------------------------------------------------


def test_report_saturates_for_pure_states():
    rng = np.random.default_rng(40)
    for _ in range(100):
        s_x = rng.uniform(-0.9, 0.9)
        state = pure_state(s_x, rng.uniform(0, 2 * math.pi))
        det = DetectorConfig(rng.uniform(), rng.uniform(0, 2 * math.pi))
        rep = duality_report(state, det, draw_beta(rng))
        assert abs(rep.visibility**2 + rep.distinguishability**2 - 1.0) <= 1e-12


def test_report_for_maximally_mixed_input():
    rep = duality_report(BlochState(0, 0, 0), DetectorConfig(THIRD), BeamSplitterAngle(HALF_PI))
    assert rep.visibility == 0.0
    assert rep.distinguishability == pytest.approx(math.sqrt(1.0 - 1.0 / 9.0), abs=1e-12)


def test_report_identity_holds_on_random_draws():
    rng = np.random.default_rng(41)
    for _ in range(200):
        state = draw_bloch_state(rng)
        det = draw_detector(rng)
        rep = duality_report(state, det, draw_beta(rng))
        total = rep.visibility**2 + rep.distinguishability**2 + rep.residual
        assert abs(total - 1.0) <= 1e-12
        assert rep.visibility**2 + rep.distinguishability**2 <= 1.0 + 1e-12


def test_report_type_rejects_complementarity_violation():
    with pytest.raises(InvalidInputError):
        DualityReport(visibility=0.9, distinguishability=0.9, residual=0.0)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0.01, max_value=math.pi - 0.01),
)
def test_duality_measures_stay_in_the_unit_interval(x, frac, a, beta_value):
    s_x = x * math.sqrt(frac)
    r = math.sqrt(max(frac - s_x * s_x, 0.0))
    state = BlochState(s_x, 0.0, r)
    beta = BeamSplitterAngle(beta_value)
    v = visibility_closed(state, a, beta)
    d = distinguishability_closed(s_x, beta, a)
    assert 0.0 <= v <= 1.0
    assert 0.0 <= d <= 1.0
    assert v * v + d * d <= 1.0 + 1e-12
