import math
import os
import platform
import re
import subprocess
import sys
import textwrap
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from draws import (
    draw_beta,
    draw_bloch_state,
    draw_detector,
    draw_point,
    marking_phase_pairs,
    stacked_marked,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mzi_duality import duality, interferometer, verify
from mzi_duality.cli import SweepSpec, run_sweep
from mzi_duality.duality import (
    DualityReport,
    MeasurementBasis,
    PathWeights,
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
from mzi_duality.linalg import DensityOperator, _hermitian_eig2, hermitian_eig2, trace_norm
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


def test_closed_form_columns_are_the_scalar_api_per_point():
    # The array pass against duality_report and path_weights, to the bit, on
    # seeded draws and the edges: lam's slack above 1 (the state holds its
    # projection), the exact half turn beta == pi, A = 0, and A = 1 at the
    # peak over s_x, where V before its clip rounds to 1.000000000000033.
    rng = np.random.default_rng(27)
    points = [
        (draw_bloch_state(rng), float(rng.uniform(0.0, 1.0)), draw_beta(rng).beta)
        for _ in range(500)
    ]
    s_z = math.sqrt(1 + 1e-12 - 0.999**2)
    slack = BlochState(-0.999, 0.0, s_z)
    assert slack.lam == 1.0 and (slack.s_x, slack.s_z) != (-0.999, s_z)
    points += [
        (slack, 0.7, 0.05),
        (BlochState(0.3, -0.4, 0.5), 0.6, math.pi),
        (BlochState(-0.2, 0.1, 0.9), 0.0, 1.2),
        (BlochState(-math.cos(0.05), 0.0, math.sin(0.05)), 1.0, 0.05),
    ]
    states, overlaps, betas = zip(*points)
    columns = duality.closed_form_columns(
        *(np.array([getattr(s, name) for s in states]) for name in ("s_x", "s_y", "s_z", "lam")),
        np.array(overlaps),
        np.array(betas),
    )
    for state, a, beta, v, d, residual, omega_a, omega_b, _ in zip(
        states, overlaps, betas, *(c.tolist() for c in columns)
    ):
        angle = BeamSplitterAngle(beta)
        rep, weights = duality_report(state, DetectorConfig(a), angle), path_weights(state.s_x, angle)
        assert (v, d, residual) == (rep.visibility, rep.distinguishability, rep.residual)
        assert (omega_a, omega_b) == (weights.omega_a, weights.omega_b)


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


@pytest.mark.parametrize("extremum,offset", [("max", 0.0), ("min", math.pi)])
def test_scan_matches_closed_form_with_the_extremum_at_zero_phase(extremum, offset):
    # alpha = 0, so the fringe cos(gamma + 2*phi) peaks (or, shifted by pi,
    # dips) at phi = target mod pi: exactly at 0, where the phase dial wraps,
    # and just below it, at -1e-7.
    state = BlochState(0.1, 0.0, 0.9)
    beta = BeamSplitterAngle(1.1)
    for target in (0.0, -1e-7):
        det = DetectorConfig(0.8, offset - 2.0 * target, 0.4)
        probe = phase_probe(state, det, beta)
        values = probe(target + np.array([-1e-3, 0.0, 1e-3]))
        assert (np.argmax(values) if extremum == "max" else np.argmin(values)) == 1
        scan = visibility_scan(state, det, beta)
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
        # One point, then stacks of several sizes up to a few hundred points.
        1,
        32,
        33,
        65,
        256,
        257,
        513,
    ],
)
def test_stacked_scan_equals_scalar_scans(n, a_overlap):
    rng = np.random.default_rng(71)
    det = DetectorConfig(a_overlap, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
    points = (EDGE_POINTS + [(draw_bloch_state(rng), draw_beta(rng)) for _ in range(n)])[:n]
    (s_x, s_y, s_z), betas = stack(points)
    visibility, code = visibility_scans(s_x, s_y, s_z, det.marked, betas)
    assert visibility.shape == (n,) and code.tolist() == [0] * n
    for (state, beta), v in zip(points, visibility):
        assert v == visibility_scan(state, det, beta)


def dark_port_rows(n):
    # n pure-state (s_x, s_y, s_z, beta) rows with the port denominator
    # 1 + s_x cos(beta) log-spaced in [10^-11.5, 10^-4], as the benchmark's
    # dark-port points are built, the sign of s_x alternating.
    port = 10.0 ** (-11.5 + 7.5 * (np.arange(n) + 0.5) / n)
    magnitude = 1.0 - 0.5 * port
    angle = np.arccos((1.0 - port) / magnitude)
    negative = np.arange(n) % 2 == 0
    s_x = np.where(negative, -magnitude, magnitude)
    beta = np.where(negative, angle, math.pi - angle)
    yz = np.sqrt(1.0 - s_x * s_x)
    yz_angle = np.linspace(0.0, TWO_PI, n, endpoint=False)
    return s_x, yz * np.sin(yz_angle), yz * np.cos(yz_angle), beta


def test_harmonic_identity_matches_the_pipeline():
    # The two fringe coefficients that the scan takes its extrema from, as
    # c0 + Re(c2 e^{-2i*phi}), against the operator pipeline at random phases:
    # edge points at A = 0, 1 and one interior overlap, verify's own draws,
    # and pure states next to the dark port. A harmonic that the fold left
    # out would show here, and not in the extrema alone.
    rng = np.random.default_rng(83)
    cases = [
        (state, DetectorConfig(a_overlap, 0.4, 1.3), beta)
        for a_overlap in (0.0, 1.0, 0.37)
        for state, beta in EDGE_POINTS
    ]
    columns = verify._uniform_columns(rng, 60, verify._POINT_RANGES)
    p = verify._points(columns)
    cases += [
        (BlochState(x, y, z), DetectorConfig(a, g, d), BeamSplitterAngle(b))
        for x, y, z, a, g, d, b in zip(
            *(c.tolist() for c in (p.s_x, p.s_y, p.s_z, p.a_overlap, p.gamma, columns[5], p.beta))
        )
    ]
    cases += [
        (BlochState(x, y, z), draw_detector(rng), BeamSplitterAngle(b))
        for x, y, z, b in zip(*(c.tolist() for c in dark_port_rows(30)))
    ]
    (s_x, s_y, s_z), betas = stack([(state, beta) for state, _, beta in cases])
    marked = stacked_marked(det for _, det, _ in cases)
    c0, c2 = interferometer._fringe_coefficients(s_x, s_y, s_z, marked, betas)
    for (state, det, beta), k0, k2 in zip(cases, c0, c2):
        for phi in rng.uniform(-TWO_PI, 2 * TWO_PI, 5):
            value = k0 + (k2 * np.exp(-2j * phi)).real
            rho = evolve(state, det, beta, PhaseShift(phi))
            assert abs(value - detection_probability_numeric(rho)) <= 1e-14


def test_scan_of_a_point_is_its_stack_row_bit_for_bit():
    # visibility_scans on a point's floats, as visibility_scan passes them,
    # against the point's row of a stack: the fringe coefficients, the
    # visibility and its outcome code, to the bit. Edge points at A = 0, 1
    # and one interior overlap, detectors on MARKING_PHASES, verify's draws,
    # pure states next to the dark port and two on it, whose visibility is
    # NaN and whose code is 2.
    rng = np.random.default_rng(107)
    cases = [
        (state, DetectorConfig(a_overlap, 0.4, 1.3), beta)
        for a_overlap in (0.0, 1.0, 0.37)
        for state, beta in EDGE_POINTS
    ]
    cases += [
        (draw_bloch_state(rng), DetectorConfig(0.37, gamma, delta), draw_beta(rng))
        for gamma, delta in marking_phase_pairs(rng, 0)
    ]
    cases += [draw_point(rng)[:3] for _ in range(100)]
    cases += [
        (BlochState(x, y, z), draw_detector(rng), BeamSplitterAngle(b))
        for x, y, z, b in zip(*(c.tolist() for c in dark_port_rows(30)))
    ]
    cases += [
        (BlochState(s_x, 0.0, 0.0), DetectorConfig(0.5), BeamSplitterAngle(beta))
        for s_x, beta in ((-1.0, 0.0), (1.0, math.pi))
    ]
    (s_x, s_y, s_z), betas = stack([(state, beta) for state, _, beta in cases])
    marked = stacked_marked(det for _, det, _ in cases)
    rows = interferometer._fringe_coefficients(s_x, s_y, s_z, marked, betas)
    stacked = visibility_scans(s_x, s_y, s_z, marked, betas)
    assert np.count_nonzero(stacked[1]) == 2
    for i, (state, det, beta) in enumerate(cases):
        point = (state.s_x, state.s_y, state.s_z, det.marked, beta.beta)
        for got, row in zip(
            (*interferometer._fringe_coefficients(*point), *visibility_scans(*point)),
            (*rows, *stacked),
        ):
            assert got.tobytes() == row[i : i + 1].tobytes()


def test_consecutive_scans_equal_fresh_calls_bit_for_bit():
    # A scan keeps no state between calls: a scan of 513 points followed by
    # a smaller scan, and the reverse order, give the same bits.
    rng = np.random.default_rng(73)
    dets = [draw_detector(rng) for _ in range(2)]
    inputs = []
    for det, n in zip(dets, (513, 5)):
        (s_x, s_y, s_z), betas = stack([(draw_bloch_state(rng), draw_beta(rng)) for _ in range(n)])
        inputs.append((s_x, s_y, s_z, det.marked, betas))
    first = [visibility_scans(*args) for args in inputs]
    second = [visibility_scans(*args) for args in reversed(inputs)][::-1]
    for (v1, d1), (v2, d2) in zip(first, second):
        assert v1.tobytes() == v2.tobytes() and np.array_equal(d1, d2)


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="fault counts depend on glibc's allocator"
)
def test_scan_reuses_its_work_memory_across_calls():
    # A 241-point scan allocates its fold's arrays afresh on every call, the
    # largest a 241 x 4 x 4 complex stack (62 kB): with glibc made to map
    # every allocation afresh, a warm call takes about 260 minor page faults.
    # Arrays that small come from the heap, and the allocator's reuse of
    # freed heap keeps a warm call far below that.
    code = textwrap.dedent(
        """
        import resource
        import numpy as np
        from mzi_duality import DetectorConfig
        from mzi_duality.duality import visibility_scans

        s_x = np.linspace(-0.6, 0.6, 241)
        s_z = np.sqrt(np.maximum(0.36 - s_x * s_x, 0.0))
        args = (s_x, np.zeros(241), s_z, DetectorConfig(0.8, 0.3, 0.2).marked, np.full(241, 1.5))
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


def scan_and_columns(s_x, s_y, s_z, lam, det, beta):
    return (
        *visibility_scans(s_x, s_y, s_z, det.marked, beta),
        *duality.closed_form_columns(s_x, s_y, s_z, lam, det.a_overlap, beta),
    )


@pytest.mark.parametrize("fixed", ["beta", "state"])
def test_a_length_1_column_is_one_value_for_every_point(fixed):
    # A sweep passes its fixed parameter once: beta in an s_x sweep, the
    # state in a beta sweep. The scan and the closed-form columns take the
    # length-1 column as that value for every point, to the bit of the same
    # call with the column repeated by np.full.
    rng = np.random.default_rng(79)
    n = 241
    det = draw_detector(rng)
    states = [draw_bloch_state(rng) for _ in range(n)]
    state = [np.array([getattr(s, name) for s in states]) for name in ("s_x", "s_y", "s_z", "lam")]
    beta = np.array([0.0, math.pi] + [draw_beta(rng).beta for _ in range(n - 2)])
    if fixed == "beta":
        got = scan_and_columns(*state, det, beta[2:3])
        want = scan_and_columns(*state, det, np.full(n, beta[2]))
    else:
        got = scan_and_columns(*(c[:1] for c in state), det, beta)
        want = scan_and_columns(*(np.full(n, c[0]) for c in state), det, beta)
    for g, w in zip(got, want):
        assert g.shape == (n,) and g.tobytes() == w.tobytes()


def test_stacked_scan_flags_only_the_dark_port():
    det = DetectorConfig(0.5, 0.2, 0.1)
    points = [(BlochState(0.2, 0.3, 0.1), BeamSplitterAngle(1.0)),
              (BlochState(1.0, 0.0, 0.0), BeamSplitterAngle(math.pi))]
    (s_x, s_y, s_z), betas = stack(points)
    visibility, code = visibility_scans(s_x, s_y, s_z, det.marked, betas)
    assert code.tolist() == [0, 2]
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
            outcomes.append((type(exc), str(exc)) == (DarkPortError, interferometer.OUTCOMES[2][1]))
    # The sweep row at this point, the first or last row of a two-row beta sweep.
    lo, hi = sorted((beta, HALF_PI))
    spec = SweepSpec(swept="beta", lo=lo, hi=hi, steps=2, lam=1.0, a_overlap=0.5, s_x=s_x)
    row = run_sweep(spec).splitlines()[1 if beta == lo else 2]
    warning = f"warning: beta={row.split(',')[0]} is degenerate ({interferometer.OUTCOMES[2][1]})"
    outcomes.append(row.endswith(",,,,,,,") and warning in capsys.readouterr().err.splitlines())
    undefined = 1.0 + s_x * math.cos(beta) <= interferometer.DENOMINATOR_TOL
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


def detector_states(det):
    # r r^H and U r r^H U^H, the detector states that paths b and a leave from
    # the reference state r: of U r = (m0, m1), U's first column, each entry
    # m_j conj(m_k) in real products, which no multiply-add fuses.
    (m0, _), (m1, _) = det.unitary.tolist()

    def times_conj(x, y):
        return complex(x.real * y.real + x.imag * y.imag, x.imag * y.real - x.real * y.imag)

    marked = np.array([[times_conj(x, y) for y in (m0, m1)] for x in (m0, m1)])
    return np.outer(REFERENCE, REFERENCE), marked


def detector_mixture(det, weights):
    # The detector state conditioned on the monitored port.
    unmarked, marked = detector_states(det)
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


def test_unchecked_eigen_routes_equal_the_checked_ones_bit_for_bit():
    # distinguishability_trace_norm and min_error_basis write their 2x2
    # operator's entries from validated inputs and skip linalg's input
    # checks on it: their results are the bits of the checked trace_norm and
    # hermitian_eig2 on the operator built from U's first column, at the
    # splitter edges with A = 0, 1 and one interior overlap, then on seeded
    # draws.
    rng = np.random.default_rng(97)
    cases = [
        (DetectorConfig(a_overlap, 0.4, 1.3), path_weights(state.s_x, beta))
        for a_overlap in (0.0, 1.0, 0.37)
        for state, beta in EDGE_POINTS
    ]
    cases += [
        (draw_detector(rng), path_weights(draw_bloch_state(rng).s_x, draw_beta(rng)))
        for _ in range(50)
    ]
    degenerate = 0
    for det, w in cases:
        unmarked, marked = detector_states(det)
        op = w.omega_a * marked - w.omega_b * unmarked
        assert distinguishability_trace_norm(det, w) == trace_norm(op)
        values, vectors = hermitian_eig2(op)
        if duality._basis_is_degenerate(values):
            degenerate += 1
            with pytest.raises(DegenerateBasisError):
                min_error_basis(det, w)
            continue
        basis = min_error_basis(det, w)
        assert basis.m_a.tobytes() == vectors[:, 0].tobytes()
        assert basis.m_b.tobytes() == vectors[:, 1].tobytes()
    assert 0 < degenerate < len(cases)


def discrimination_cases(rng):
    # Detectors at A = 0, 1 and one interior overlap on MARKING_PHASES (whose
    # products underflow) and seeded phases up to |1e6|, then verify's draws;
    # each under the edge weights (1, 0), (0, 1), (1/2, 1/2) and one drawn pair.
    dets = [DetectorConfig(a, g, d) for a in (0.0, 1.0, 0.37) for g, d in marking_phase_pairs(rng, 20)]
    dets += [draw_point(rng)[1] for _ in range(200)]
    edges = [PathWeights(1.0, 0.0), PathWeights(0.0, 1.0), PathWeights(0.5, 0.5)]
    drawn = [path_weights(draw_bloch_state(rng).s_x, draw_beta(rng)) for _ in dets]
    return [(det, w) for det, other in zip(dets, drawn) for w in (*edges, other)]


def test_trace_norm_and_basis_of_a_point_are_its_stack_row():
    # The operator's entries, its trace norm and its eigenbasis: one
    # real-arithmetic formula on a point's floats and a stack's arrays, so
    # each point is its stack row to the bit, degenerate bases included. A
    # shared marked state over arrays of weights, as the sweep passes it,
    # gives the same rows.
    rng = np.random.default_rng(101)
    cases = discrimination_cases(rng)
    marked = stacked_marked(det for det, _ in cases)
    omega_a, omega_b = (np.array([getattr(w, name) for _, w in cases]) for name in ("omega_a", "omega_b"))
    entries = duality._discrimination_entries(marked, omega_a, omega_b)
    rows = np.array(entries).T
    norms = duality.distinguishability_trace_norms(marked, omega_a, omega_b)
    values, vectors = _hermitian_eig2(*entries)
    degenerate = 0
    for i, (det, w) in enumerate(cases):
        point = duality._discrimination_entries(det.marked, w.omega_a, w.omega_b)
        assert np.array(point).tobytes() == rows[i].tobytes()
        assert float(norms[i]).hex() == distinguishability_trace_norm(det, w).hex()
        try:
            basis = min_error_basis(det, w)
        except DegenerateBasisError:
            degenerate += 1
            assert duality._basis_is_degenerate(values[i])
            continue
        assert not duality._basis_is_degenerate(values[i])
        assert basis.m_a.tobytes() == vectors[i, :, 0].tobytes()
        assert basis.m_b.tobytes() == vectors[i, :, 1].tobytes()
    assert 0 < degenerate < len(cases)
    for start in range(0, 40, 4):  # one detector's four cases
        shared = duality.distinguishability_trace_norms(
            cases[start][0].marked, omega_a[start : start + 4], omega_b[start : start + 4]
        )
        assert shared.tobytes() == norms[start : start + 4].tobytes()


def test_discrimination_entries_are_within_four_roundings_of_exact():
    # An entry of omega_a m m^H - omega_b r r^H takes at most four rounded
    # operations on the float parts of the marked state m = U r = (m0, m1) and the
    # weights: two products, their sum, the product by omega_a and, for a,
    # the subtraction of omega_b. Every operand and partial result is at
    # most 1 + O(u) in magnitude, u = 2^-53 (|m0|^2 + |m1|^2 rounds to 1,
    # the weights lie in [0, 1]), so each rounding adds at most u (1 + O(u)):
    # an entry is within 4u (1 + 2^-48) of the exact value, in fractions, of
    # the same float inputs.
    bound = Fraction(4, 2**53) * (1 + Fraction(1, 2**48))
    rng = np.random.default_rng(103)
    for det, w in discrimination_cases(rng):
        x0, y0, x1, y1, wa, wb = map(Fraction, (*det.marked, w.omega_a, w.omega_b))
        exact = (
            wa * (x0 * x0 + y0 * y0) - wb,
            wa * (x1 * x1 + y1 * y1),
            wa * (x0 * x1 + y0 * y1),
            wa * (y0 * x1 - x0 * y1),
        )
        got = duality._discrimination_entries(det.marked, w.omega_a, w.omega_b)
        assert all(type(v) is float for v in got)
        assert max(abs(Fraction(v) - e) for v, e in zip(got, exact)) <= bound


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


def test_measurement_basis_copies_and_leaves_the_callers_arrays_writable():
    m_a, m_b = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    basis = MeasurementBasis(m_a, m_b)
    assert m_a.flags.writeable and m_b.flags.writeable
    assert basis.m_a is not m_a and basis.m_b is not m_b
    assert not basis.m_a.flags.writeable and not basis.m_b.flags.writeable
    m_a[0] = 5.0
    np.testing.assert_array_equal(basis.m_a, [1, 0])


@pytest.mark.parametrize(
    "m_a, m_b, message",
    [
        ([1, 0, 0], [0, 1], "basis vectors must be complex 2-vectors"),
        ([[1, 0]], [0, 1], "basis vectors must be complex 2-vectors"),
        ([1, 0], [0, complex(np.inf, 0)], "basis vectors must be finite"),
        ([complex(0, np.nan), 1], [1, 0], "basis vectors must be finite"),
        ([1 + 2e-12, 0], [0, 1], "basis vectors must be normalized"),
        ([1, 0], [0, 1 - 2e-12], "basis vectors must be normalized"),
        ([1, 0], [2e-10, math.sqrt(1 - 4e-20)], "basis vectors must be orthogonal"),
    ],
    ids=["long", "matrix", "inf", "nan", "norm above", "norm below", "overlap"],
)
def test_measurement_basis_rejects_each_invalid_input_with_its_message(m_a, m_b, message):
    with pytest.raises(InvalidInputError) as err:
        MeasurementBasis(np.array(m_a, dtype=complex), np.array(m_b, dtype=complex))
    assert str(err.value) == message


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
    s_z = math.sqrt(1 + 1e-12 - 0.999**2)
    assert 1.0 < 0.999 * 0.999 + s_z * s_z <= 1.0 + BLOCH_NORM_TOL
    state = BlochState(-0.999, 0.0, s_z)
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
    # The state holds the projection, which a point and a stack of one share to the bit.
    raw = (s_x, s_y, s_z, s_x * s_x + s_y * s_y + s_z * s_z)
    projected = interferometer._onto_bloch_ball(*raw)
    assert (state.s_x, state.s_y, state.s_z, state.lam) == projected and state.lam == 1.0
    columns = interferometer._onto_bloch_ball(*(np.array([v]) for v in raw))
    assert [float(c[0]).hex() for c in columns] == [float(v).hex() for v in projected]


def test_slack_state_has_one_visibility_on_both_routes():
    # lam - 1 = 1.0e-12: the closed form used to read this state as the pure
    # s_x = 1 (V = 0) and the scan as the raw vector (V = 2.73e-7).
    state = BlochState(1.0, 0.0, 1e-6)
    beta = BeamSplitterAngle(1.0)
    v_closed = visibility_closed(state, 0.5, beta)
    assert abs(v_closed - visibility_scan(state, DetectorConfig(0.5), beta)) <= 1e-12
    assert complementarity_residual(state, 0.5, beta) == 0.0


def test_slack_states_next_to_a_certain_path_agree_on_both_routes():
    # |s_x| = 1 - 10**U(-15, -1) and lam - 1 in (0, BLOCH_NORM_TOL]: a folded
    # closed form against the raw scan was off by up to 2.5e-5 here.
    rng = np.random.default_rng(44)
    worst, drawn = 0.0, 0
    for sign, u, excess, angle, beta_u, a in rng.uniform(size=(2000, 6)).tolist():
        s_x = math.copysign(1.0 - 10.0 ** (-15.0 + 14.0 * u), sign - 0.5)
        r = math.sqrt(1.0 + BLOCH_NORM_TOL * (1.0 - excess) - s_x * s_x)
        s_y, s_z = r * math.sin(TWO_PI * angle), r * math.cos(TWO_PI * angle)
        if not 1.0 < s_x * s_x + s_y * s_y + s_z * s_z <= 1.0 + BLOCH_NORM_TOL:
            continue  # rounding carried the length out of the slack
        drawn += 1
        state, beta = BlochState(s_x, s_y, s_z), BeamSplitterAngle(0.05 + (math.pi - 0.1) * beta_u)
        gap = visibility_closed(state, a, beta) - visibility_scan(state, DetectorConfig(a), beta)
        worst = max(worst, abs(gap))
    assert drawn >= 1900
    assert worst <= 1e-12


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


def test_visibility_peaks_of_a_negative_zero_overlap_are_a_positive_zero():
    # A = -0.0 made both peak values -0.0; clipping keeps a zero's sign.
    for _, v_star in (
        visibility_peak_fixed_beta(0.5, -0.0, BeamSplitterAngle(1.0)),
        visibility_peak_fixed_sx(0.1, 0.5, -0.0),
    ):
        assert v_star == 0.0 and math.copysign(1.0, v_star) == 1.0


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


# |s_x| - 1 = 4e-13 lies within BlochState's slack (BLOCH_NORM_TOL); 2e-12 beyond it.
S_X_SLACK = 1.0 + 4e-13
S_X_BEYOND = 1.0 + 2e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_s_x_slack_above_one_counts_as_a_certain_path(sign):
    # The slack folds onto s_x = +-1, as lam's folds onto a pure state: D
    # used to come out above 1 and one path weight below 0.
    beta = BeamSplitterAngle(1.0)
    d = distinguishability_closed(sign * S_X_SLACK, beta, 0.5)
    assert d <= 1.0 and d == distinguishability_closed(sign, beta, 0.5)
    weights = path_weights(sign * S_X_SLACK, beta)
    assert weights == path_weights(sign, beta)
    assert weights.omega_a >= 0.0 and weights.omega_b >= 0.0
    rep = duality_report(BlochState(sign * S_X_SLACK, 0.0, 0.0), DetectorConfig(0.5), beta)
    assert (rep.visibility, rep.distinguishability, rep.residual) == (0.0, 1.0, 0.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_extrema_classify_s_x_slack_as_a_certain_path(sign):
    # Admitted |s_x| >= 1 is a certain path, with no extremum; beyond the
    # slack s_x is invalid, with the one s_x message.
    with pytest.raises(NoExtremumError):
        visibility_peak_fixed_sx(sign * S_X_SLACK, 1.0, 0.5)
    with pytest.raises(NoExtremumError):
        distinguishability_valley(sign * S_X_SLACK, 0.5)
    message = "^" + re.escape(f"s_x must lie in [-1, 1], got {sign * S_X_BEYOND!r}") + "$"
    with pytest.raises(InvalidInputError, match=message):
        visibility_peak_fixed_sx(sign * S_X_BEYOND, 1.0, 0.5)
    with pytest.raises(InvalidInputError, match=message):
        distinguishability_valley(sign * S_X_BEYOND, 0.5)
    with pytest.raises(InvalidInputError, match=message):
        path_weights(sign * S_X_BEYOND, BeamSplitterAngle(1.0))


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


def test_report_equals_the_three_closed_forms_bit_for_bit():
    # duality_report computes the port terms once; each field must carry the
    # bits of the public closed form it stands for, on seeded draws, next to
    # the dark port, at A and beta on their bounds and with lam's slack above 1.
    rng = np.random.default_rng(43)
    cases = [draw_point(rng)[:3] for _ in range(300)]
    s_z = math.sqrt(1 + 1e-12 - 0.999**2)
    assert 0.999 * 0.999 + s_z * s_z > 1.0
    slack = BlochState(-0.999, 0.0, s_z)
    near_dark = BlochState(-1.0 + 1e-11, 0.0, 0.0)
    for beta in (0.0, 1e-7, 0.05, HALF_PI, math.pi):
        for a in (0.0, THIRD, 1.0):
            cases += [(state, DetectorConfig(a), BeamSplitterAngle(beta)) for state in (slack, near_dark)]
    for state, det, beta in cases:
        rep = duality_report(state, det, beta)
        separate = (
            visibility_closed(state, det.a_overlap, beta),
            distinguishability_closed(state.s_x, beta, det.a_overlap),
            complementarity_residual(state, det.a_overlap, beta),
        )
        fields = (rep.visibility, rep.distinguishability, rep.residual)
        assert [float(x).hex() for x in fields] == [float(x).hex() for x in separate]


@pytest.mark.parametrize(
    "state, beta, error",
    [
        (BlochState(-1.0, 0.0, 0.0), 0.0, DarkPortError),
        (BlochState(1.0, 0.0, 0.0), math.pi, DarkPortError),
        (SimpleNamespace(s_x=1.5, lam=2.25, yz_norm=0.0), HALF_PI, InvalidInputError),
        (SimpleNamespace(s_x=-1.5, lam=2.25, yz_norm=0.0), HALF_PI, InvalidInputError),
    ],
    ids=["dark at beta 0", "dark at beta pi", "s_x above 1", "s_x below -1"],
)
def test_report_raises_as_the_closed_forms_do(state, beta, error):
    det, angle = DetectorConfig(0.5), BeamSplitterAngle(beta)
    for call in (
        lambda: duality_report(state, det, angle),
        lambda: visibility_closed(state, det.a_overlap, angle),
        lambda: distinguishability_closed(state.s_x, angle, det.a_overlap),
        lambda: complementarity_residual(state, det.a_overlap, angle),
    ):
        with pytest.raises(error) as raised:
            call()
        assert type(raised.value) is error


def test_report_type_rejects_complementarity_violation():
    with pytest.raises(InvalidInputError):
        DualityReport(visibility=0.9, distinguishability=0.9, residual=0.0)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((1.5, 0.0, 0.0), "visibility out of [0, 1]: 1.5"),
        ((0.0, -0.1, 0.0), "distinguishability out of [0, 1]: -0.1"),
        ((0.0, 0.5, -1e-11), "residual must be nonnegative: -1e-11"),
    ],
    ids=["visibility", "distinguishability", "residual"],
)
def test_report_type_rejects_out_of_range_fields(fields, message):
    with pytest.raises(InvalidInputError, match="^" + re.escape(message) + "$"):
        DualityReport(*fields)


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
