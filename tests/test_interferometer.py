import cmath
import math

import numpy as np
import pytest
from draws import draw_point
from hypothesis import given, settings
from hypothesis import strategies as st

from mzi_duality import interferometer
from mzi_duality.errors import InvalidInputError
from mzi_duality.interferometer import (
    BLOCH_NORM_TOL,
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    PhaseShift,
    _beam_splitters,
    _marking_operators,
    _phase_shifters,
    bloch_to_density,
    detection_probability_closed,
    detection_probability_numeric,
    evolve,
    evolve_closed_form,
    evolve_closed_form_stack,
    evolve_stack,
    marking_unitaries,
    phase_probe,
    port_extrema,
    port_terms,
)
from mzi_duality.linalg import DensityOperator, partial_trace_path

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

angles = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
phases = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
overlaps = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def unitarity_defect(u):
    return np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()


# --- domain types ----------------------------------------------------------------


def test_bloch_state_derived_quantities():
    s = BlochState(0.1, 0.3, -0.4)
    assert s.lam == pytest.approx(0.26)
    assert s.yz_norm == pytest.approx(math.hypot(0.3, -0.4))
    assert s.alpha == pytest.approx(math.atan2(0.3, -0.4))
    assert s.lam < 1.0 - BLOCH_NORM_TOL


def test_bloch_state_pure_flag():
    assert abs(BlochState(0.0, 0.0, 1.0).lam - 1.0) <= BLOCH_NORM_TOL
    assert abs(BlochState(0.6, 0.8, 0.0).lam - 1.0) <= BLOCH_NORM_TOL


def test_bloch_state_alpha_is_zero_on_the_axis():
    assert BlochState(0.5, 0.0, 0.0).alpha == 0.0


def test_bloch_state_rejects_long_vectors():
    with pytest.raises(InvalidInputError):
        BlochState(1.0, 0.1, 0.0)


def test_bloch_state_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        BlochState(math.nan, 0.0, 0.0)


def test_beam_splitter_angle_domain():
    with pytest.raises(InvalidInputError):
        BeamSplitterAngle(-0.1)
    with pytest.raises(InvalidInputError):
        BeamSplitterAngle(math.pi + 0.1)


def test_phase_shift_canonicalization():
    assert PhaseShift(-math.pi / 2).phi == pytest.approx(3 * math.pi / 2)
    assert PhaseShift(2 * math.pi).phi == 0.0
    assert 0.0 <= PhaseShift(123.456).phi < 2 * math.pi
    # Float % rounds these up to 2*pi itself; the canonical phase is 0.
    for tiny in (-5e-17, -1e-300, -5e-324):
        assert PhaseShift(tiny).phi == 0.0


def test_detector_config_overlap_matches_request():
    det = DetectorConfig(0.37, gamma=1.2, delta=0.4)
    u = det.unitary
    overlap = u[0, 0]
    assert abs(abs(overlap) - 0.37) <= 1e-12
    assert abs(math.remainder(np.angle(overlap) - 1.2, 2 * math.pi)) <= 1e-12
    assert unitarity_defect(u) <= 1e-12


def test_detector_config_trivial_and_orthogonal_marking():
    np.testing.assert_allclose(DetectorConfig(1.0).unitary, I2, atol=1e-15)
    np.testing.assert_allclose(
        DetectorConfig(0.0).unitary, np.array([[0, -1], [1, 0]]), atol=1e-15
    )


def test_detector_unitary_is_built_once_and_read_only():
    # Bit-equal to the marking-unitary formula, including the A = 0, 1 edges.
    rng = np.random.default_rng(29)
    for a in [0.0, 1.0, *rng.uniform(0.0, 1.0, 20).tolist()]:
        gamma, delta = rng.uniform(-10.0, 10.0, 2).tolist()
        det = DetectorConfig(a, gamma, delta)
        assert det.unitary is det.unitary
        assert not det.unitary.flags.writeable
        b = math.sqrt(max(1.0 - a * a, 0.0))
        eg, ed = cmath.exp(1j * gamma), cmath.exp(1j * delta)
        expected = np.array([[a * eg, -b * np.conj(ed)], [b * ed, a * np.conj(eg)]], dtype=complex)
        assert det.unitary.tobytes() == expected.tobytes()
        same = DetectorConfig(a, gamma, delta)
        assert same == det and hash(same) == hash(det)


def test_marking_unitaries_of_a_stack_equal_each_detector_unitary():
    # Bit for bit, at A in {0, 1}, at zero marking phases and on seeded draws.
    rng = np.random.default_rng(31)
    dets = [
        DetectorConfig(a, gamma, delta)
        for a in (0.0, 1.0, 0.37)
        for gamma, delta in [(0.0, 0.0), (0.0, 2.5), tuple(rng.uniform(-10.0, 10.0, 2).tolist())]
    ]
    dets += [draw_point(rng)[1] for _ in range(200)]
    stack = marking_unitaries(
        *(np.array([getattr(d, name) for d in dets]) for name in ("a_overlap", "gamma", "delta"))
    )
    assert stack.shape == (len(dets), 2, 2)
    for det, u in zip(dets, stack):
        assert u.tobytes() == det.unitary.tobytes()


def test_detector_config_rejects_bad_overlap():
    with pytest.raises(InvalidInputError):
        DetectorConfig(1.2)
    with pytest.raises(InvalidInputError):
        DetectorConfig(-0.1)


@settings(max_examples=100, deadline=None)
@given(overlaps, phases, phases)
def test_detector_unitary_is_always_unitary(a, gamma, delta):
    assert unitarity_defect(DetectorConfig(a, gamma, delta).unitary) <= 1e-12


# --- elementary operators ----------------------------------------------------------


def test_phase_shifter_values():
    np.testing.assert_allclose(_phase_shifters(0.0), I2, atol=1e-15)
    np.testing.assert_allclose(_phase_shifters(math.pi), -I2, atol=1e-12)
    np.testing.assert_allclose(
        _phase_shifters(math.pi / 2), np.diag([-1j, 1j]), atol=1e-12
    )


def test_beam_splitter_values():
    np.testing.assert_allclose(_beam_splitters(0.0), I2, atol=1e-15)
    np.testing.assert_allclose(
        _beam_splitters(math.pi), np.array([[0, -1], [1, 0]]), atol=1e-15
    )
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(
        _beam_splitters(math.pi / 2),
        np.array([[s, -s], [s, s]]),
        atol=1e-15,
    )


def test_marking_operator_block_structure():
    np.testing.assert_allclose(_marking_operators(DetectorConfig(1.0).unitary), I4, atol=1e-15)
    m = _marking_operators(DetectorConfig(0.0).unitary)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = I2
    expected[2:, 2:] = np.array([[0, -1], [1, 0]])
    np.testing.assert_allclose(m, expected, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(angles, phases, overlaps, phases, phases)
def test_pipeline_operators_are_unitary(beta, phi, a, gamma, delta):
    assert unitarity_defect(_beam_splitters(beta)) <= 1e-12
    assert unitarity_defect(_phase_shifters(phi)) <= 1e-12
    assert unitarity_defect(_marking_operators(DetectorConfig(a, gamma, delta).unitary)) <= 1e-12


# --- Bloch vector to density -------------------------------------------------------


def test_bloch_to_density_examples():
    np.testing.assert_allclose(
        bloch_to_density(BlochState(0, 0, 0)).matrix, I2 / 2, atol=1e-15
    )
    np.testing.assert_allclose(
        bloch_to_density(BlochState(0, 0, 1)).matrix, np.diag([1.0, 0.0]), atol=1e-15
    )
    np.testing.assert_allclose(
        bloch_to_density(BlochState(0, 0.6, 0)).matrix,
        np.array([[0.5, -0.3j], [0.3j, 0.5]]),
        atol=1e-15,
    )


# --- evolution ----------------------------------------------------------------------


def test_evolve_preserves_trace_and_positivity():
    rng = np.random.default_rng(21)
    for _ in range(100):
        state, det, beta, phi = draw_point(rng)
        rho = evolve(state, det, beta, phi)
        assert abs(rho.matrix.trace() - 1) <= 1e-12
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10


def test_evolve_with_trivial_tail_is_a_rotated_product_state():
    # full transmission at the recombiner, no phase, trivial marking
    state = BlochState(0, 0, 1)
    rho = evolve(state, DetectorConfig(1.0), BeamSplitterAngle(0.0), PhaseShift(0.0))
    bs1 = _beam_splitters(math.pi / 2)
    path = bs1 @ np.diag([1.0, 0.0]) @ bs1.conj().T
    expected = np.kron(path, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)


def test_evolve_matches_closed_form():
    rng = np.random.default_rng(22)
    for _ in range(200):
        state, det, beta, phi = draw_point(rng)
        a = evolve(state, det, beta, phi).matrix
        b = evolve_closed_form(state, det, beta, phi).matrix
        assert np.abs(a - b).max() <= 1e-12


# Pure, mixed and maximally mixed inputs at the overlap and splitter edges,
# each at an arbitrary phase and marking phases gamma and delta.
EDGE_STATES = [BlochState(0.6, 0.0, 0.8), BlochState(0.0, 1.0, 0.0),
               BlochState(-0.3, 0.2, -0.4), BlochState(0.0, 0.0, 0.0)]


def edge_points(rng):
    return [
        (state, DetectorConfig(a, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
         BeamSplitterAngle(beta), PhaseShift(rng.uniform(0, 2 * math.pi)))
        for state in EDGE_STATES
        for a in (0.0, 1.0)
        for beta in (0.0, math.pi / 2, math.pi)
    ]


def stacked_arguments(points):
    states, dets, betas, phis = zip(*points)
    return (
        [s.s_x for s in states], [s.s_y for s in states], [s.s_z for s in states],
        np.stack([d.unitary for d in dets]), [b.beta for b in betas], [p.phi for p in phis],
    )


def test_stacked_pipeline_equals_scalar_pipeline_at_edges_and_on_draws():
    rng = np.random.default_rng(24)
    points = edge_points(rng) + [draw_point(rng) for _ in range(200)]
    stacked = evolve_stack(*stacked_arguments(points))
    closed = evolve_closed_form_stack(*stacked_arguments(points))
    assert stacked.shape == closed.shape == (len(points), 4, 4)
    for point, m, c in zip(points, stacked, closed):
        np.testing.assert_array_equal(m, evolve(*point).matrix)
        assert np.abs(c - evolve_closed_form(*point).matrix).max() <= 1e-15


def test_stacked_pipeline_takes_one_shared_unitary():
    rng = np.random.default_rng(25)
    det = DetectorConfig(0.4, 1.3, 2.1)
    points = [(state, det, beta, phi) for state, _, beta, phi in edge_points(rng)]
    s_x, s_y, s_z, _, beta, phi = stacked_arguments(points)
    stacked = evolve_stack(s_x, s_y, s_z, det.unitary, beta, phi)
    closed = evolve_closed_form_stack(s_x, s_y, s_z, det.unitary, beta, phi)
    for point, m, c in zip(points, stacked, closed):
        np.testing.assert_array_equal(m, evolve(*point).matrix)
        assert np.abs(c - evolve_closed_form(*point).matrix).max() <= 1e-15


def test_closed_form_single_term_survival():
    # s_x = +-1 kills all but one of the four terms
    det = DetectorConfig(0.3, 0.7, 0.2)
    beta = BeamSplitterAngle(1.1)
    phi = PhaseShift(0.4)
    u = det.unitary
    rho_d = np.diag([1.0, 0.0]).astype(complex)
    b = beta.beta

    plus = evolve_closed_form(BlochState(1, 0, 0), det, beta, phi).matrix
    expected_plus = 0.5 * np.kron(
        I2 - math.cos(b) * np.diag([1, -1]) - math.sin(b) * np.array([[0, 1], [1, 0]]),
        u @ rho_d @ u.conj().T,
    )
    np.testing.assert_allclose(plus, expected_plus, atol=1e-14)

    minus = evolve_closed_form(BlochState(-1, 0, 0), det, beta, phi).matrix
    expected_minus = 0.5 * np.kron(
        I2 + math.cos(b) * np.diag([1, -1]) + math.sin(b) * np.array([[0, 1], [1, 0]]),
        rho_d,
    )
    np.testing.assert_allclose(minus, expected_minus, atol=1e-14)


def test_reduced_detector_state_is_a_two_branch_mixture():
    # tracing out the path leaves a beta- and phi-independent mixture
    rng = np.random.default_rng(23)
    for _ in range(100):
        state, det, beta, phi = draw_point(rng)
        reduced = partial_trace_path(evolve(state, det, beta, phi)).matrix
        u = det.unitary
        rho_d = np.diag([1.0, 0.0]).astype(complex)
        expected = 0.5 * (1 - state.s_x) * rho_d + 0.5 * (1 + state.s_x) * (
            u @ rho_d @ u.conj().T
        )
        assert np.abs(reduced - expected).max() <= 1e-12


# --- detection probability ------------------------------------------------------------


def test_detection_probability_numeric_on_port_states():
    rho_det = np.diag([0.25, 0.75]).astype(complex)
    port_a = DensityOperator(np.kron(np.diag([0.0, 1.0]), rho_det))
    port_b = DensityOperator(np.kron(np.diag([1.0, 0.0]), rho_det))
    assert detection_probability_numeric(port_a) == 1.0
    assert detection_probability_numeric(port_b) == 0.0
    assert detection_probability_numeric(DensityOperator(I4 / 4)) == 0.5


def test_detection_probability_numeric_rejects_single_qubit():
    with pytest.raises(InvalidInputError):
        detection_probability_numeric(DensityOperator(I2 / 2))


def test_detection_probability_closed_at_full_transmission():
    state = BlochState(0.4, 0.2, 0.3)
    det = DetectorConfig(0.8, 1.0, 2.0)
    beta = BeamSplitterAngle(0.0)
    for phi in (0.0, 1.0, 2.5):
        p = detection_probability_closed(state, det, beta, PhaseShift(phi))
        assert p == pytest.approx(0.5 * (1 + state.s_x), abs=1e-15)


def test_port_terms_of_arrays_are_the_float_terms_per_point():
    rng = np.random.default_rng(31)
    s_x = np.concatenate([rng.uniform(-1.0, 1.0, 500), [-1.0, 1.0, 0.5, -0.5, 0.0]])
    edges = [0.0, math.nextafter(0.0, 1.0), math.pi / 2, math.nextafter(math.pi, 0.0), math.pi]
    beta = np.concatenate([rng.uniform(0.0, math.pi, 500), edges])
    sin_beta, den = port_terms(s_x, beta)
    per_point = [port_terms(x, b) for x, b in zip(s_x.tolist(), beta.tolist())]
    assert list(zip(sin_beta.tolist(), den.tolist())) == per_point


def test_port_terms_take_the_half_turn_as_exact():
    # sin(pi) in floats is 1.2e-16; the boundary takes it as 0 on both paths.
    assert port_terms(0.3, math.pi) == (0.0, 1.0 - 0.3)
    sin_beta, den = port_terms(np.array([0.3, -0.5]), np.array([math.pi, math.pi]))
    assert sin_beta.tolist() == [0.0, 0.0]
    assert den.tolist() == [1.0 - 0.3, 1.0 + 0.5]
    # At the half turn the fringe vanishes: the port-a probability is
    # (1 - s_x) / 2 at every phase.
    state, det = BlochState(0.3, 0.5, -0.2), DetectorConfig(0.6, 0.9, 0.1)
    for phi in (0.0, 0.7, 2.0, 5.5):
        p = detection_probability_closed(state, det, BeamSplitterAngle(math.pi), PhaseShift(phi))
        assert p == 0.5 * (1.0 - 0.3)


def test_detection_probability_mean_over_phase_grid():
    state = BlochState(0.3, 0.5, -0.2)
    det = DetectorConfig(0.6, 0.9, 0.1)
    beta = BeamSplitterAngle(2.0)
    grid = np.linspace(0, 2 * math.pi, 360, endpoint=False)
    mean = np.mean(
        [detection_probability_closed(state, det, beta, PhaseShift(p)) for p in grid]
    )
    assert abs(mean - 0.5 * (1 + state.s_x * math.cos(beta.beta))) <= 1e-10


def test_detection_probability_closed_matches_pipeline():
    rng = np.random.default_rng(24)
    for _ in range(200):
        state, det, beta, phi = draw_point(rng)
        numeric = detection_probability_numeric(evolve(state, det, beta, phi))
        closed = detection_probability_closed(state, det, beta, phi)
        assert abs(numeric - closed) <= 1e-10


def test_detection_probability_sweep_matches_scalar_pipeline():
    state = BlochState(0.2, -0.4, 0.5)
    det = DetectorConfig(0.7, 0.3, 1.9)
    beta = BeamSplitterAngle(0.8)
    phis = np.array([0.0, 0.31, 2.9, 5.5])
    batch = phase_probe(state, det, beta)(phis)
    for k, phi in enumerate(phis):
        scalar = detection_probability_numeric(evolve(state, det, beta, PhaseShift(phi)))
        assert abs(batch[k] - scalar) <= 1e-14


def test_folded_probe_matches_pipeline_at_edges_and_on_draws():
    rng = np.random.default_rng(41)
    states = [
        BlochState(0.6, 0.0, 0.8),
        BlochState(0.0, 1.0, 0.0),
        BlochState(-1.0, 0.0, 0.0),
        BlochState(-0.3, 0.2, -0.4),
        BlochState(0.0, 0.0, 0.0),
    ]
    cases = [
        (state, DetectorConfig(a, rng.uniform(-10, 10), rng.uniform(-10, 10)), BeamSplitterAngle(b))
        for state in states
        for a in (0.0, 1.0, rng.uniform())
        for b in (0.0, math.pi / 2, math.pi, rng.uniform(0, math.pi))
    ]
    cases += [draw_point(rng)[:3] for _ in range(50)]
    for state, det, beta in cases:
        phis = rng.uniform(-10, 10, 6)
        batch = phase_probe(state, det, beta)(phis)
        for phi, p in zip(phis, batch):
            scalar = detection_probability_numeric(evolve(state, det, beta, PhaseShift(phi)))
            assert abs(p - scalar) <= 1e-14


def test_port_extrema_bound_every_probe_value():
    # One point past a block, so the second block reuses the work arrays.
    # Both sides of each comparison are sums of 16 terms of modulus at most
    # 1, each rounding by at most 16 eps.
    rng = np.random.default_rng(43)
    points = [draw_point(rng)[:3] for _ in range(interferometer._SCAN_CHUNK + 1)]
    s_x, s_y, s_z = (np.array([getattr(p[0], c) for p in points]) for c in ("s_x", "s_y", "s_z"))
    unitary = np.stack([det.unitary for _, det, _ in points])
    p_max, p_min = port_extrema(s_x, s_y, s_z, unitary, [p[2].beta for p in points])
    slack = 2 * 16 * np.finfo(float).eps
    for (state, det, beta), hi, lo in zip(points, p_max, p_min):
        values = phase_probe(state, det, beta)(rng.uniform(0.0, 2 * math.pi, 300))
        assert lo - slack <= values.min() and values.max() <= hi + slack

