import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzi_duality.errors import InvalidInputError
from mzi_duality.interferometer import (
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    PhaseShift,
    beam_splitter,
    bloch_to_density,
    detection_probability_closed,
    detection_probability_numeric,
    evolve,
    evolve_closed_form,
    marking_operator,
    phase_probe,
    phase_shifter,
)
from mzi_duality.linalg import DensityOperator, partial_trace_path, tensor
from mzi_duality.verify import draw_point

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
    assert not s.is_pure


def test_bloch_state_pure_flag():
    assert BlochState(0.0, 0.0, 1.0).is_pure
    assert BlochState(0.6, 0.8, 0.0).is_pure


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
    np.testing.assert_allclose(phase_shifter(PhaseShift(0.0)), I2, atol=1e-15)
    np.testing.assert_allclose(phase_shifter(PhaseShift(math.pi)), -I2, atol=1e-12)
    np.testing.assert_allclose(
        phase_shifter(PhaseShift(math.pi / 2)), np.diag([-1j, 1j]), atol=1e-12
    )


def test_beam_splitter_values():
    np.testing.assert_allclose(beam_splitter(BeamSplitterAngle(0.0)), I2, atol=1e-15)
    np.testing.assert_allclose(
        beam_splitter(BeamSplitterAngle(math.pi)), np.array([[0, -1], [1, 0]]), atol=1e-15
    )
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(
        beam_splitter(BeamSplitterAngle(math.pi / 2)),
        np.array([[s, -s], [s, s]]),
        atol=1e-15,
    )


def test_marking_operator_block_structure():
    np.testing.assert_allclose(marking_operator(DetectorConfig(1.0)), I4, atol=1e-15)
    m = marking_operator(DetectorConfig(0.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = I2
    expected[2:, 2:] = np.array([[0, -1], [1, 0]])
    np.testing.assert_allclose(m, expected, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(angles, phases, overlaps, phases, phases)
def test_pipeline_operators_are_unitary(beta, phi, a, gamma, delta):
    assert unitarity_defect(beam_splitter(BeamSplitterAngle(beta))) <= 1e-12
    assert unitarity_defect(phase_shifter(PhaseShift(phi))) <= 1e-12
    assert unitarity_defect(marking_operator(DetectorConfig(a, gamma, delta))) <= 1e-12


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
    bs1 = beam_splitter(BeamSplitterAngle(math.pi / 2))
    path = bs1 @ np.diag([1.0, 0.0]) @ bs1.conj().T
    expected = tensor(path, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)


def test_evolve_matches_closed_form():
    rng = np.random.default_rng(22)
    for _ in range(200):
        state, det, beta, phi = draw_point(rng)
        a = evolve(state, det, beta, phi).matrix
        b = evolve_closed_form(state, det, beta, phi).matrix
        assert np.abs(a - b).max() <= 1e-12


def test_closed_form_single_term_survival():
    # s_x = +-1 kills all but one of the four terms
    det = DetectorConfig(0.3, 0.7, 0.2)
    beta = BeamSplitterAngle(1.1)
    phi = PhaseShift(0.4)
    u = det.unitary
    rho_d = np.diag([1.0, 0.0]).astype(complex)
    b = beta.beta

    plus = evolve_closed_form(BlochState(1, 0, 0), det, beta, phi).matrix
    expected_plus = 0.5 * tensor(
        I2 - math.cos(b) * np.diag([1, -1]) - math.sin(b) * np.array([[0, 1], [1, 0]]),
        u @ rho_d @ u.conj().T,
    )
    np.testing.assert_allclose(plus, expected_plus, atol=1e-14)

    minus = evolve_closed_form(BlochState(-1, 0, 0), det, beta, phi).matrix
    expected_minus = 0.5 * tensor(
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
    port_a = DensityOperator(tensor(np.diag([0.0, 1.0]), rho_det))
    port_b = DensityOperator(tensor(np.diag([1.0, 0.0]), rho_det))
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
