import cmath
import itertools
import math

import numpy as np
import pytest
from draws import draw_point, marking_phase_pairs
from hypothesis import given, settings
from hypothesis import strategies as st
from lifted import beam_splitters, kron2, lifted_tail

from mzi_duality import interferometer
from mzi_duality.errors import InvalidInputError
from mzi_duality.interferometer import (
    BLOCH_NORM_TOL,
    DENOMINATOR_TOL,
    TWO_PI,
    WEIGHT_TOL,
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    PhaseShift,
    _outcomes,
    _phase_diagonals,
    _tail,
    bloch_to_density,
    detection_probability_closed,
    detection_probability_numeric,
    evolve,
    evolve_closed_form,
    evolve_closed_form_stack,
    evolve_stack,
    marking_unitaries,
    phase_probe,
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


def test_yz_norm_is_np_hypot_where_math_hypot_differs():
    # The one modulus rule (linalg.check_densities): yz_norm rounds as the
    # np.hypot columns of sweep and verify do, which math.hypot does not on
    # about 0.6% of normal draws.
    rng = np.random.default_rng(25)
    pairs = (rng.standard_normal((20000, 2)) / 8.0).tolist()
    differing = [(y, z) for y, z in pairs if math.hypot(y, z) != np.hypot(y, z)]
    assert len(differing) > 50
    for y, z in differing:
        assert BlochState(0.0, y, z).yz_norm == np.hypot(y, z)


def test_alpha_is_the_stacked_np_arctan2():
    # The one phase rule: alpha rounds as the np.arctan2 column of verify's
    # detection_probability suite, which libm's atan2 does not everywhere.
    rng = np.random.default_rng(27)
    y, z = rng.standard_normal((2, 20000)) / 8.0
    stacked = np.arctan2(y, z).tolist()
    assert [BlochState(0.0, s_y, s_z).alpha for s_y, s_z in zip(y.tolist(), z.tolist())] == stacked


def test_bloch_state_pure_flag():
    assert abs(BlochState(0.0, 0.0, 1.0).lam - 1.0) <= BLOCH_NORM_TOL
    assert abs(BlochState(0.6, 0.8, 0.0).lam - 1.0) <= BLOCH_NORM_TOL


def test_bloch_state_holds_lam_slack_projected_onto_the_sphere():
    # Within the slack above 1 the vector is divided by sqrt(lam), s_x is
    # clipped to [-1, 1] and lam is exactly 1; other vectors keep their bits.
    s = BlochState(1.0000000000004, 0.0, 0.0)
    assert (s.s_x, s.s_y, s.s_z, s.lam) == (1.0, 0.0, 0.0, 1.0)
    slack = BlochState(0.6, 0.0, math.sqrt(1.0 + 1e-12 - 0.36))
    assert slack.lam == 1.0 and slack.s_z < math.sqrt(1.0 + 1e-12 - 0.36)
    assert slack == BlochState(slack.s_x, slack.s_y, slack.s_z) and "lam" not in repr(slack)
    inside = BlochState(0.6, 0.8, 1e-9)
    assert (inside.s_x, inside.s_y, inside.s_z) == (0.6, 0.8, 1e-9)
    assert inside.lam == 0.6 * 0.6 + 0.8 * 0.8 + 1e-9 * 1e-9


def test_a_projected_bloch_state_is_its_own_rebuild():
    # One division by sqrt(lam) used to leave 1523 of these 19993 states with
    # a rounded squared length whose square root exceeds 1, so that a state
    # rebuilt from their components was projected again and moved by an ulp.
    # The array route, whose points take one or two divisions, holds the same
    # vectors to the bit.
    rng = np.random.default_rng(3)
    raw, states = [], []
    for u, excess, angle in rng.uniform(size=(20000, 3)).tolist():
        s_x = 2.0 * u - 1.0
        r = math.sqrt(1.0 + BLOCH_NORM_TOL * excess - s_x * s_x)
        s_y, s_z = r * math.sin(TWO_PI * angle), r * math.cos(TWO_PI * angle)
        if not 1.0 < s_x * s_x + s_y * s_y + s_z * s_z <= 1.0 + BLOCH_NORM_TOL:
            continue  # rounding carried the length out of the slack
        state = BlochState(s_x, s_y, s_z)
        assert BlochState(state.s_x, state.s_y, state.s_z) == state
        raw.append((s_x, s_y, s_z, s_x * s_x + s_y * s_y + s_z * s_z))
        states.append((state.s_x, state.s_y, state.s_z, state.lam))
    assert len(states) >= 19900
    columns = interferometer._onto_bloch_ball(*np.array(raw).T)
    np.testing.assert_array_equal(np.array(columns).T, states)


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
    # Bit-equal to the marking-unitary formula, including the A = 0, 1 edges,
    # at phases in [-10, 10] and on MARKING_PHASES and up to |1e6|.
    rng = np.random.default_rng(29)
    overlaps = [0.0, 1.0, *rng.uniform(0.0, 1.0, 20).tolist()]
    phases = [tuple(rng.uniform(-10.0, 10.0, 2).tolist()) for _ in overlaps]
    phases += marking_phase_pairs(rng, 100)
    for i, (gamma, delta) in enumerate(phases):
        a = overlaps[i % len(overlaps)]
        det = DetectorConfig(a, gamma, delta)
        assert det.unitary is det.unitary
        assert not det.unitary.flags.writeable
        # [[a e^{i gamma}, -b e^{-i delta}], [b e^{i delta}, a e^{-i gamma}]],
        # each real and imaginary part one product.
        b = math.sqrt(max(1.0 - a * a, 0.0))
        cg, sg, cd, sd = math.cos(gamma), math.sin(gamma), math.cos(delta), math.sin(delta)
        expected = np.array([
            [complex(a * cg, a * sg), complex(-b * cd, b * sd)],
            [complex(b * cd, b * sd), complex(a * cg, -a * sg)],
        ])  # fmt: skip
        assert det.unitary.tobytes() == expected.tobytes()
        same = DetectorConfig(a, gamma, delta)
        assert same == det and hash(same) == hash(det)


def test_marking_unitaries_of_a_stack_equal_each_detector_unitary():
    # Bit for bit, a detector's math sin and cos and Python products against
    # the stack's numpy ones: at A in {0, 1}, at zero marking phases, on
    # MARKING_PHASES (products that underflow included) and up to |1e6|, and
    # on seeded draws.
    rng = np.random.default_rng(31)
    dets = [
        DetectorConfig(a, gamma, delta)
        for a in (0.0, 1.0, 0.37)
        for gamma, delta in [(0.0, 0.0), (0.0, 2.5), tuple(rng.uniform(-10.0, 10.0, 2).tolist())]
    ]
    dets += [DetectorConfig(0.37, gamma, delta) for gamma, delta in marking_phase_pairs(rng, 100)]
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
    # The diagonal of the phase shifter diag(e^{-i*phi}, e^{+i*phi}) lifted
    # onto path (x) detector.
    np.testing.assert_array_equal(_phase_diagonals(0.0), np.ones(4))
    np.testing.assert_allclose(_phase_diagonals(math.pi), -np.ones(4), atol=1e-12)
    np.testing.assert_allclose(_phase_diagonals(math.pi / 2), [-1j, -1j, 1j, 1j], atol=1e-12)
    phis = np.array([0.3, -2.0, 7.5])
    expected = [np.diag(np.kron(np.diag(np.exp(phi * np.array([-1j, 1j]))), I2)) for phi in phis]
    np.testing.assert_array_equal(_phase_diagonals(phis), expected)
    # At a signed zero phase, the zero parts carry the signs of exp(phi * -+1j).
    for phi in (0.0, -0.0):
        assert _phase_diagonals(phi).tobytes() == np.exp(phi * np.array([-1j, -1j, 1j, 1j])).tobytes()
    # A float phase (math sin and cos) is its row of a stack (numpy's) to the bit.
    phis = [0.0, -0.0, 5e-324, -5e-324, 1e-300, math.pi, TWO_PI - 1e-9, 1e6]
    phis += np.random.default_rng(32).uniform(0, 7, 200).tolist()
    stack = _phase_diagonals(np.array(phis))
    for phi, row in zip(phis, stack):
        assert _phase_diagonals(float(phi)).tobytes() == row.tobytes()


def test_beam_splitter_values():
    # The tail with no marking is the recombiner lifted onto path (x) detector.
    s = 1 / math.sqrt(2)
    for beta, splitter in [(0.0, I2), (math.pi, [[0, -1], [1, 0]]), (math.pi / 2, [[s, -s], [s, s]])]:
        np.testing.assert_allclose(_tail(I2, beta)[0], np.kron(splitter, I2), atol=1e-15)


def test_marking_operator_block_structure():
    # The tail at full transmission is the marking operator 1 (+) U.
    np.testing.assert_allclose(_tail(DetectorConfig(1.0).unitary, 0.0)[0], I4, atol=1e-15)
    m = _tail(DetectorConfig(0.0).unitary, 0.0)[0]
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = I2
    expected[2:, 2:] = np.array([[0, -1], [1, 0]])
    np.testing.assert_allclose(m, expected, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(angles, phases, overlaps, phases, phases)
def test_pipeline_operators_are_unitary(beta, phi, a, gamma, delta):
    assert np.abs(np.abs(_phase_diagonals(phi)) - 1.0).max() <= 1e-12
    assert unitarity_defect(_tail(DetectorConfig(a, gamma, delta).unitary, beta)[0]) <= 1e-12


def assert_tail_is_the_lifted_product(dets, betas):
    # The tail of each point (Python floats), of the stack of them and of the
    # stack of betas with each point's one shared unitary (arrays), to the
    # bit of the lift-and-multiply reference.
    unitary = np.stack([det.unitary for det in dets])
    stack = _tail(unitary, np.array(betas))
    assert stack.tobytes() == lifted_tail(unitary, betas).tobytes()
    for det, beta, row in zip(dets, betas, stack):
        point = _tail(det.unitary, beta)
        assert point.shape == (1, 4, 4)
        assert point.tobytes() == lifted_tail(det.unitary, [beta]).tobytes() == row.tobytes()
    shared = _tail(dets[0].unitary, np.array(betas))
    assert shared.tobytes() == lifted_tail(dets[0].unitary, betas).tobytes()


@pytest.mark.parametrize("n", [1, 10, 241])
def test_tail_is_the_lifted_product_on_draws(n):
    rng = np.random.default_rng(700 + n)
    points = [draw_point(rng) for _ in range(n)]
    assert_tail_is_the_lifted_product([p[1] for p in points], [p[2].beta for p in points])


def test_tail_is_the_lifted_product_at_the_edges():
    # beta in {0, pi/2, pi} and A in {0, 1}, at zero, signed-zero and seeded
    # marking phases, where entries of U and of T are zeros of either sign.
    rng = np.random.default_rng(701)
    phases = [(0.0, 0.0), (-0.0, math.pi), (math.pi / 2, -0.0), *rng.uniform(-10, 10, (3, 2)).tolist()]
    dets = [DetectorConfig(a, *pair) for a in (0.0, 1.0) for pair in phases]
    for beta in (0.0, -0.0, math.pi / 2, math.pi):
        assert_tail_is_the_lifted_product(dets, [beta] * len(dets))
    assert_tail_is_the_lifted_product(dets, [0.0, math.pi / 2, math.pi] * (len(dets) // 3))


def test_tail_equals_the_lifted_product_where_a_product_underflows():
    # s = sin(beta/2) times a part of U below 2^-1074: the tail's part is
    # +0.0, the lifted product's keeps the product's sign where its BLAS
    # kernel fuses the multiply-add, so only the values are held equal here.
    det = DetectorConfig(1e-200, 0.5, math.pi)
    for tail in (_tail(det.unitary, 1e-300), _tail(det.unitary, np.array([1e-300]))):
        np.testing.assert_array_equal(tail, lifted_tail(det.unitary, [1e-300]))


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


def test_bloch_density_of_a_point_is_its_stack_row():
    # A point's floats against a stack's arrays, to the bit, at signed zeros,
    # the smallest subnormals, the poles and on seeded draws; zero parts are
    # +0.0.
    edges = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.3]
    points = [(x, y, z) for x in edges for y in edges for z in edges]
    points += [tuple(v) for v in np.random.default_rng(33).uniform(-0.57, 0.57, (200, 3)).tolist()]
    stack = interferometer._bloch_densities(*(np.array(c) for c in zip(*points)))
    for point, row in zip(points, stack):
        density = interferometer._bloch_densities(*point)
        assert density.shape == (2, 2) and density.tobytes() == row.tobytes()
        parts = density.view(float)
        assert not np.signbit(parts[parts == 0.0]).any()


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
    bs1 = beam_splitters(math.pi / 2)
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


def edge_points(rng, states=EDGE_STATES):
    return [
        (state, DetectorConfig(a, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
         BeamSplitterAngle(beta), PhaseShift(rng.uniform(0, 2 * math.pi)))
        for state in states
        for a in (0.0, 1.0)
        for beta in (0.0, math.pi / 2, math.pi)
    ]


def stacked_arguments(points):
    states, dets, betas, phis = zip(*points)
    return (
        [s.s_x for s in states], [s.s_y for s in states], [s.s_z for s in states],
        np.stack([d.unitary for d in dets]), [b.beta for b in betas], [p.phi for p in phis],
    )


# Detectors whose marking products underflow: gamma = +-5e-324, delta = -gamma.
UNDERFLOW_DETECTORS = [DetectorConfig(a, g, -g) for a in (0.37, 1e-300) for g in (5e-324, -5e-324)]


def underflow_points(rng):
    return [
        (state, det, BeamSplitterAngle(rng.uniform(0, math.pi)), PhaseShift(rng.uniform(0, 2 * math.pi)))
        for state in EDGE_STATES
        for det in UNDERFLOW_DETECTORS
    ]


def assert_points_are_their_rows(points, stacked, closed):
    # tobytes(), not array_equal, which takes -0.0 == 0.0.
    for point, m, c in zip(points, stacked, closed):
        assert m.tobytes() == evolve(*point).matrix.tobytes()
        assert c.tobytes() == evolve_closed_form(*point).matrix.tobytes()


def test_stacked_pipeline_equals_scalar_pipeline_at_edges_and_on_draws():
    rng = np.random.default_rng(24)
    points = edge_points(rng) + underflow_points(rng) + [draw_point(rng) for _ in range(200)]
    stacked = evolve_stack(*stacked_arguments(points))
    closed = evolve_closed_form_stack(*stacked_arguments(points))
    assert stacked.shape == closed.shape == (len(points), 4, 4)
    assert_points_are_their_rows(points, stacked, closed)


def test_stacked_pipeline_takes_one_shared_unitary():
    rng = np.random.default_rng(25)
    for det in [DetectorConfig(0.4, 1.3, 2.1), *UNDERFLOW_DETECTORS]:
        points = [(state, det, beta, phi) for state, _, beta, phi in edge_points(rng)]
        s_x, s_y, s_z, _, beta, phi = stacked_arguments(points)
        stacked = evolve_stack(s_x, s_y, s_z, det.unitary, beta, phi)
        closed = evolve_closed_form_stack(s_x, s_y, s_z, det.unitary, beta, phi)
        assert_points_are_their_rows(points, stacked, closed)


def kron_sum_closed_form(s_x, s_y, s_z, unitary, beta, phi):
    # The closed form as four Kronecker products, path factor (x) detector
    # factor, weighted and summed in numpy: the reference for the library's
    # entry-by-entry real arithmetic.
    path_entry = np.array([[[1, 0], [0, 2]], [[0, 1], [2, 0]], [[0, 2], [1, 0]], [[2, 0], [0, 1]]])
    path_sign = np.array([[[1, 1], [1, 1]], [[1, -1], [1, -1]], [[1, 1], [-1, -1]], [[1, -1], [-1, 1]]])
    s_x, s_y, s_z, beta, phi = np.array([s_x, s_y, s_z, beta, phi], dtype=float)
    trig = np.array([np.sin(beta), 1.0 + np.cos(beta), 1.0 - np.cos(beta)]).T
    paths = trig[:, path_entry] * path_sign
    # r r^H, r m^H, m r^H and m m^H of the start state r and m = U r.
    kets = np.zeros((len(s_x), 2, 2), dtype=complex)
    kets[:, 0, 0] = 1.0
    kets[:, 1] = np.asarray(unitary)[..., :, 0]
    detectors = (kets[:, :, None, :, None] * kets.conj()[:, None, :, None, :]).reshape(-1, 4, 2, 2)
    cross = -0.25 * np.exp(2j * phi) * (s_z + 1j * s_y)
    weights = np.array([0.25 * (1.0 - s_x), cross.conj(), cross, 0.25 * (1.0 + s_x)]).T
    return (weights[:, :, None, None] * kron2(paths, detectors)).sum(axis=1)


# Pure states projected from BlochState's slack above the unit sphere.
SLACK_STATES = [BlochState(1.0000000000004, 0.0, 0.0), BlochState(1.0, 0.0, 1e-6),
                BlochState(0.6, 0.0, math.sqrt(1.0 + 1e-12 - 0.36))]


def test_closed_form_matches_the_kron_sum_reference():
    # Entries are at most 1 in modulus and each is a short sum of rounded
    # products, summed in another order than the reference's: 1e-15 is
    # about 4.5 float64 epsilons.
    rng = np.random.default_rng(27)
    points = edge_points(rng) + edge_points(rng, SLACK_STATES)
    points += [draw_point(rng) for _ in range(3000)]
    args = stacked_arguments(points)
    assert np.abs(evolve_closed_form_stack(*args) - kron_sum_closed_form(*args)).max() <= 1e-15


def test_stacked_pipeline_is_the_literal_product():
    # W (rho (x) |r><r|) W^H, every factor lifted with np.kron: the pipeline
    # takes the input through the detector's start columns alone.
    def rotation(angle):
        c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
        return np.array([[c, -s], [s, c]])

    rng = np.random.default_rng(26)
    points = edge_points(rng) + [draw_point(rng) for _ in range(200)]
    stacked = evolve_stack(*stacked_arguments(points))
    start, zero = np.diag([1.0, 0.0]), np.zeros((2, 2))
    for (state, det, beta, phi), m in zip(points, stacked):
        shifter = np.diag(np.exp(phi.phi * np.array([-1j, 1j])))
        marking = np.block([[I2, zero], [zero, det.unitary]])
        w = (np.kron(rotation(beta.beta), I2) @ marking @ np.kron(shifter, I2)
             @ np.kron(rotation(math.pi / 2), I2))
        joint = np.kron(bloch_to_density(state).matrix, start)
        assert np.abs(m - w @ joint @ w.conj().T).max() <= 1e-15


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


def test_detection_probability_numeric_checks_a_raw_array_as_a_density_operator():
    assert detection_probability_numeric(I4 / 4) == 0.5
    with pytest.raises(InvalidInputError, match=r"^density operator trace deviates from 1 by 3\.000e\+00$"):
        detection_probability_numeric(I4)


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


# --- the outcome screen ----------------------------------------------------------------


def first_broken_rule(lam, den, omega_a, omega_b, scan_lit):
    # The outcome code written out as the scalar API's checks, in their order.
    if lam > 1.0 + BLOCH_NORM_TOL:
        return 1
    if den <= DENOMINATOR_TOL:
        return 2
    for code, weight in ((3, omega_a), (4, omega_b)):
        if not -WEIGHT_TOL <= weight <= 1.0 + WEIGHT_TOL:
            return code
    if not abs(omega_a + omega_b - 1.0) <= WEIGHT_TOL:
        return 5
    return 0 if scan_lit else 2


def test_a_points_outcome_is_its_stack_row():
    # Every combination of values on both sides of each rule, exactly at its
    # tolerance among them, and NaN: many points break several rules at once.
    up, down = math.inf, -math.inf
    lams = [0.0, 1.0, 1.0 + 1e-12, math.nextafter(1.0 + 1e-12, up), 2.0, math.nan]
    dens = [1.0, math.nextafter(1e-12, up), 1e-12, 0.0, -1.0, math.nan]
    weights = [0.0, 0.4, 0.6, 1.0, -1e-12, math.nextafter(-1e-12, down), 1.0 + 1e-12,
               math.nextafter(1.0 + 1e-12, up), math.nan]
    points = list(itertools.product(lams, dens, weights, weights, [True, False]))
    per_point = [_outcomes(*point) for point in points]
    stack = _outcomes(*(np.array(column) for column in zip(*points)))
    assert stack.tolist() == per_point == [first_broken_rule(*point) for point in points]
    assert set(per_point) == {0, 1, 2, 3, 4, 5}
    # A stage of the scalar API screens only what it knows: the same code as
    # a point whose other values are lit.
    lit = dict(lam=0.0, den=1.0, omega_a=1.0, omega_b=0.0, scan_lit=True)
    stages = [{"lam": v} for v in lams] + [{"den": v} for v in dens]
    stages += [{"omega_a": a, "omega_b": b} for a, b in itertools.product(weights, weights)]
    stages += [{"scan_lit": True}, {"scan_lit": False}]
    for known in stages:
        assert _outcomes(**known) == _outcomes(**{**lit, **known}), known


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


def fringe_extrema(s_x, s_y, s_z, unitary, beta):
    # c0 +- |c2| of each point's fringe coefficients: the extrema over the
    # phase dial from which duality.visibility_scans forms its contrast.
    c0, c2 = interferometer._fringe_coefficients(s_x, s_y, s_z, unitary, beta)
    return c0 + np.abs(c2), c0 - np.abs(c2)


def test_fringe_extrema_bound_every_probe_value():
    # The probe and the extrema come from the same two fringe coefficients,
    # sums of 16 terms of modulus at most 1, and each side of a comparison
    # rounds by at most 16 eps. The operator pipeline at the same phases is
    # held to the probe's own 1e-14 agreement with it.
    rng = np.random.default_rng(43)
    points = [draw_point(rng)[:3] for _ in range(257)]
    s_x, s_y, s_z = (np.array([getattr(p[0], c) for p in points]) for c in ("s_x", "s_y", "s_z"))
    unitary = np.stack([det.unitary for _, det, _ in points])
    p_max, p_min = fringe_extrema(s_x, s_y, s_z, unitary, [p[2].beta for p in points])
    slack = 2 * 16 * np.finfo(float).eps
    for (state, det, beta), hi, lo in zip(points, p_max, p_min):
        phis = rng.uniform(0.0, 2 * math.pi, 300)
        values = phase_probe(state, det, beta)(phis)
        assert lo - slack <= values.min() and values.max() <= hi + slack
        point = (np.full(len(phis), x) for x in (state.s_x, state.s_y, state.s_z))
        rho = evolve_stack(*point, det.unitary, np.full(len(phis), beta.beta), phis)
        pipeline = interferometer._port_a_probabilities(rho)
        assert lo - 1e-14 <= pipeline.min() and pipeline.max() <= hi + 1e-14


def test_fringe_extrema_are_attained():
    # The pipeline reaches c0 + |c2| at phi = arg(c2) / 2 and c0 - |c2| a
    # quarter turn later, so the extrema are the fringe's own values, not
    # only bounds on it. Edge points first (c2 = 0 at A = 0, where every
    # phase attains both), then seeded draws.
    rng = np.random.default_rng(47)
    points = [
        (state, DetectorConfig(a_overlap, 0.4, 1.3), BeamSplitterAngle(beta))
        for state in (BlochState(0.6, 0.0, 0.8), BlochState(-0.3, 0.2, -0.4))
        for a_overlap in (0.0, 1.0)
        for beta in (0.0, math.pi / 2, math.pi)
    ]
    points += [draw_point(rng)[:3] for _ in range(200)]
    s_x, s_y, s_z = (np.array([getattr(p[0], c) for p in points]) for c in ("s_x", "s_y", "s_z"))
    unitary = np.stack([det.unitary for _, det, _ in points])
    betas = [beta.beta for _, _, beta in points]
    p_max, p_min = fringe_extrema(s_x, s_y, s_z, unitary, betas)
    _, c2 = interferometer._fringe_coefficients(s_x, s_y, s_z, unitary, betas)
    for (state, det, beta), hi, lo, k2 in zip(points, p_max, p_min, c2):
        peak = 0.5 * cmath.phase(k2)
        for phi, extremum in ((peak, hi), (peak + 0.5 * math.pi, lo)):
            rho = evolve(state, det, beta, PhaseShift(phi))
            assert abs(detection_probability_numeric(rho) - extremum) <= 1e-14


def block_fold(s_x, s_y, s_z, unitary, beta):
    # The fold written on the whole 4x4: the prepared state S0 rho S0^H times
    # Q = T[2:]^T conj(T[2:]) elementwise, each 2x2 block of the phase
    # diagonal's pattern summed, then c0 and c2 read off the four block sums.
    rho = interferometer._bloch_densities(s_x, s_y, s_z)
    start = interferometer._SPLITTER_ON_START
    prepared = start @ rho @ start.conj().T
    port_a = interferometer._tail(unitary, beta)[:, 2:, :]
    m = prepared * (port_a.transpose(0, 2, 1) @ port_a.conj())
    blocks = m.reshape(-1, 2, 2, 2, 2).sum(axis=(2, 4))
    return (blocks[:, 0, 0] + blocks[:, 1, 1]).real, blocks[:, 0, 1] + blocks[:, 1, 0].conj()


def assert_fold_is_the_block_fold(*args):
    c0, c2 = interferometer._fringe_coefficients(*args)
    ref0, ref2 = block_fold(*args)
    np.testing.assert_array_equal(c0, ref0)
    np.testing.assert_array_equal(c2, ref2)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 241, 400])
def test_fold_on_the_start_support_is_the_block_fold(n):
    # The prepared state is zero off the detector's start rows and columns,
    # so the fold reads only those entries: to the bit, on seeded stacks with
    # one unitary per point and with one shared (2, 2) unitary.
    rng = np.random.default_rng(500 + n)
    points = [draw_point(rng) for _ in range(n)]
    s_x, s_y, s_z, unitary, beta, _ = stacked_arguments(points)
    assert_fold_is_the_block_fold(s_x, s_y, s_z, unitary, beta)
    assert_fold_is_the_block_fold(s_x, s_y, s_z, points[0][1].unitary, beta)


def test_fold_on_the_start_support_is_the_block_fold_at_the_edges():
    # EDGE_STATES x A in {0, 1} x beta in {0, pi/2, pi}, with a stack of
    # unitaries and with one shared unitary per overlap.
    points = edge_points(np.random.default_rng(501))
    s_x, s_y, s_z, unitary, beta, _ = stacked_arguments(points)
    assert_fold_is_the_block_fold(s_x, s_y, s_z, unitary, beta)
    for a in (0.0, 1.0):
        assert_fold_is_the_block_fold(s_x, s_y, s_z, DetectorConfig(a, 0.4, 1.3).unitary, beta)
