import math
import os
import platform
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzi_duality import duality, interferometer
from mzi_duality.cli import SweepSpec, run_sweep
from mzi_duality.duality import (
    DualityReport,
    MeasurementBasis,
    PathWeights,
    _detector_branches,
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
    DegenerateBasisError,
    InvalidInputError,
    NoExtremumError,
    UndefinedVisibilityError,
)
from mzi_duality.interferometer import (
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    phase_probe,
)
from mzi_duality.linalg import DensityOperator
from mzi_duality.verify import (
    draw_beta,
    draw_bloch_state,
    draw_detector,
    grid_distinguishability_valley,
    grid_visibility_peak_fixed_beta,
    grid_visibility_peak_fixed_sx,
)
from mzi_duality.verify import _min_error_basis_closed_form

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THIRD = 1.0 / 3.0
HALF_PI = math.pi / 2


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
        scan = visibility_scan(state, det, beta, grid_size=256)
        closed = visibility_closed(state, det.a_overlap, beta)
        assert abs(scan - closed) <= 1e-9


def test_scan_is_invariant_under_detector_phases():
    rng = np.random.default_rng(32)
    for _ in range(25):
        state = draw_bloch_state(rng)
        beta = draw_beta(rng)
        a = rng.uniform()
        base = visibility_scan(state, DetectorConfig(a, 0.0, 0.0), beta, grid_size=256)
        other = visibility_scan(
            state,
            DetectorConfig(a, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
            beta,
            grid_size=256,
        )
        assert abs(base - other) <= 1e-10


@pytest.fixture
def probe_calls(monkeypatch):
    """Phase arrays of each probe evaluation a scan makes, in order: the grid
    (probabilities_on, whose cached table _scan_grid holds with the grid),
    then each refinement round's brackets (probabilities_at)."""
    calls = []
    evaluate_on, evaluate_at = duality.probabilities_on, duality.probabilities_at

    def recording_on(m, re, im, work):
        grid, grid_re, grid_im = interferometer._scan_grid(re.shape[1])
        assert grid_re is re and grid_im is im
        calls.append(np.array(grid))
        return evaluate_on(m, re, im, work)

    def recording_at(m, phis):
        calls.append(np.array(phis))
        return evaluate_at(m, phis)

    monkeypatch.setattr(duality, "probabilities_on", recording_on)
    monkeypatch.setattr(duality, "probabilities_at", recording_at)
    return calls


def test_default_scan_makes_at_most_16_probe_calls(probe_calls):
    state = BlochState(0.2, -0.4, 0.5)
    det = DetectorConfig(0.7, 0.3, 1.9)
    beta = BeamSplitterAngle(0.8)
    scan = visibility_scan(state, det, beta)
    assert len(probe_calls) <= 16
    assert abs(scan - visibility_closed(state, det.a_overlap, beta)) <= 1e-12


@pytest.mark.parametrize("extremum,offset", [("max", 0.0), ("min", math.pi)])
def test_scan_refines_across_zero_phase(probe_calls, extremum, offset):
    # alpha = 0, so the fringe cos(gamma + 2*phi) peaks (or, shifted by pi,
    # dips) at phi = -0.15 step, just below 0: that extremum sits at grid
    # index 0 and its bracket [-step, step] crosses phi = 0. An odd grid keeps
    # the twin extremum half a turn away off the grid, so index 0 wins outright.
    grid_size = 4095
    step = 2 * math.pi / grid_size
    state = BlochState(0.1, 0.0, 0.9)
    det = DetectorConfig(0.8, offset + 0.3 * step, 0.4)
    beta = BeamSplitterAngle(1.1)
    scan = visibility_scan(state, det, beta, grid_size=grid_size)
    grid, refinements = probe_calls[0], probe_calls[1:]
    values = phase_probe(state, det, beta)(grid)
    assert (np.argmax(values) if extremum == "max" else np.argmin(values)) == 0
    assert min(phis.min() for phis in refinements) < 0.0
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
    "n", [1, duality._SCAN_CHUNK, duality._SCAN_CHUNK + 1, 2 * duality._SCAN_CHUNK + 1]
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


def test_consecutive_scans_equal_fresh_calls_bit_for_bit():
    # Each call owns its work array: a scan of many blocks followed by a
    # smaller scan on another grid, and the reverse order, give the same bits.
    rng = np.random.default_rng(73)
    dets = [draw_detector(rng) for _ in range(2)]
    inputs = []
    for det, n, grid_size in zip(dets, (2 * duality._SCAN_CHUNK + 1, 5), (4096, 512)):
        (s_x, s_y, s_z), betas = stack([(draw_bloch_state(rng), draw_beta(rng)) for _ in range(n)])
        inputs.append((s_x, s_y, s_z, det.unitary, betas, grid_size))
    first = [visibility_scans(*args) for args in inputs]
    second = [visibility_scans(*args) for args in reversed(inputs)][::-1]
    for (v1, d1), (v2, d2) in zip(first, second):
        assert v1.tobytes() == v2.tobytes() and np.array_equal(d1, d2)


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="fault counts depend on glibc's allocator"
)
def test_scan_reuses_its_work_memory_across_blocks():
    # A 241-point scan runs 8 blocks of 2 x 32 x 4096 doubles. Writing every
    # block into the call's one work array keeps the minor page faults of a
    # warm call far below the 512 pages that array spans.
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
    visibility, defined = visibility_scans(s_x, s_y, s_z, det.unitary, betas, grid_size=256)
    assert defined.tolist() == [True, False]
    (lit, lit_beta), (dark, dark_beta) = points
    assert abs(visibility[0] - visibility_scan(lit, det, lit_beta, grid_size=256)) <= 1e-15
    assert math.isnan(visibility[1])
    with pytest.raises(UndefinedVisibilityError):
        visibility_scan(dark, det, dark_beta, grid_size=256)


def test_scan_rejects_small_grid():
    with pytest.raises(InvalidInputError):
        visibility_scan(BlochState(0, 0, 0), DetectorConfig(1.0), BeamSplitterAngle(1.0), grid_size=32)


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
    # Every route calls the port dark at the same points, each with its own
    # class and message; elsewhere it returns or raises something else.
    state = pure_state(s_x)
    angle = BeamSplitterAngle(beta)
    routes = [
        (lambda: visibility_closed(state, 0.5, angle),
         UndefinedVisibilityError, duality.DARK_PORT_CONTRAST),
        (lambda: visibility_scan(state, DetectorConfig(0.5), angle),
         UndefinedVisibilityError, duality.DARK_PORT_CONTRAST),
        (lambda: distinguishability_closed(s_x, angle, 0.5),
         InvalidInputError, "monitored port has zero intensity; distinguishability undefined"),
        (lambda: complementarity_residual(state, 0.5, angle),
         InvalidInputError, "monitored port has zero intensity; residual undefined"),
        (lambda: path_weights(s_x, angle), InvalidInputError, duality.DARK_PORT_WEIGHTS),
    ]
    outcomes = []
    for route, error, message in routes:
        try:
            route()
            outcomes.append(False)
        except (UndefinedVisibilityError, InvalidInputError) as exc:
            outcomes.append((type(exc), str(exc)) == (error, message))
    # The sweep row at this point, the first or last row of a two-row beta sweep.
    lo, hi = sorted((beta, HALF_PI))
    spec = SweepSpec(swept="beta", lo=lo, hi=hi, steps=2, lam=1.0, a_overlap=0.5, s_x=s_x)
    row = run_sweep(spec)[1 if beta == lo else 2]
    warning = f"warning: beta={row.split(',')[0]} is degenerate ({duality.DARK_PORT_WEIGHTS})"
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
    with pytest.raises(InvalidInputError):
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
    overlap_a = abs(np.vdot(basis.m_a, det.marked_state))
    overlap_b = abs(np.vdot(basis.m_b, det.reference_state))
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


def test_basis_matches_literal_closed_form_on_interior_points():
    rng = np.random.default_rng(37)
    for _ in range(200):
        det = DetectorConfig(rng.uniform(0.05, 0.95), 0.0, rng.uniform(0, 2 * math.pi))
        omega_a = rng.uniform(0.05, 0.95)
        w = PathWeights(omega_a, 1.0 - omega_a)
        numeric = min_error_basis(det, w)
        literal = _min_error_basis_closed_form(det, w)
        for v, ref in ((numeric.m_a, literal.m_a), (numeric.m_b, literal.m_b)):
            overlap = np.vdot(ref, v)
            aligned = ref * (overlap / abs(overlap))
            assert np.linalg.norm(v - aligned) <= 1e-8


def test_literal_closed_form_preconditions():
    w = PathWeights(0.5, 0.5)
    with pytest.raises(InvalidInputError):
        _min_error_basis_closed_form(DetectorConfig(0.0), w)
    with pytest.raises(InvalidInputError):
        _min_error_basis_closed_form(DetectorConfig(1.0), w)
    with pytest.raises(InvalidInputError):
        _min_error_basis_closed_form(DetectorConfig(0.5, gamma=1.0), w)
    with pytest.raises(InvalidInputError):
        _min_error_basis_closed_form(DetectorConfig(0.5), PathWeights(0.0, 1.0))


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
            w.omega_b * abs(np.vdot(basis.m_b, det.reference_state)) ** 2
            + w.omega_a * abs(np.vdot(basis.m_a, det.marked_state)) ** 2
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
    with pytest.raises(InvalidInputError):
        complementarity_residual(BlochState(-1, 0, 0), 0.5, BeamSplitterAngle(0.0))


# --- peaks and valleys -----------------------------------------------------------------


def test_peak_fixed_beta_for_pure_states():
    for beta in (0.6, HALF_PI, 2.2):
        s_x_star, v_star = visibility_peak_fixed_beta(1.0, THIRD, BeamSplitterAngle(beta))
        assert s_x_star == pytest.approx(-math.cos(beta), abs=1e-12)
        assert v_star == pytest.approx(THIRD, abs=1e-12)


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
    s_x_grid, v_grid = grid_visibility_peak_fixed_beta(0.36, THIRD, beta)
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
