import math

import numpy as np
import pytest
from draws import draw_point as uniform_draw_point

from mzi_duality import verify
from mzi_duality.duality import distinguishability_kernel
from mzi_duality.interferometer import TWO_PI, port_terms
from mzi_duality.verify import (
    GRID_STEP,
    grid_distinguishability_valley,
    grid_visibility_peak_fixed_beta,
    grid_visibility_peak_fixed_sx,
)

# The per-call exhaustive references: every lattice point start + k * GRID_STEP,
# as many as np.arange(start, stop, GRID_STEP) has, evaluated on every call, on
# sin beta and the port denominator from interferometer.port_terms.


def lattice(start, stop):
    return start + np.arange(len(np.arange(start, stop, GRID_STEP))) * GRID_STEP


def per_call_peak_fixed_beta(lam, a_overlap, beta):
    r = math.sqrt(lam)
    s_x = lattice(-r, r + 0.5 * GRID_STEP)
    amp = np.sqrt(np.maximum(lam - s_x * s_x, 0.0))
    # beta as an array, as the grid oracle passes it to port_terms.
    sin_beta, den = port_terms(s_x, np.full(len(s_x), beta))
    values = a_overlap * sin_beta * amp / den
    k = int(np.argmax(values))
    return float(s_x[k]), float(values[k])


def per_call_peak_fixed_sx(s_x, lam, a_overlap):
    beta = lattice(GRID_STEP, math.pi)
    amp = math.sqrt(max(lam - s_x * s_x, 0.0))
    sin_beta, den = port_terms(s_x, beta)
    values = a_overlap * sin_beta * amp / den
    k = int(np.argmax(values))
    return float(beta[k]), float(values[k])


def per_call_valley(s_x, a_overlap):
    beta = lattice(GRID_STEP, math.pi)
    values = distinguishability_kernel(s_x, a_overlap, *port_terms(s_x, beta))
    k = int(np.argmin(values))
    return float(beta[k]), float(values[k])


def oracle_points():
    # (lam, s_x, a_overlap, beta): random points, then peaks at or next to
    # both ends of each lattice (|s_x| -> 1; beta next to 0 and pi), A = 1,
    # and s_x lattices shorter than one 64-point stride.
    rng = np.random.default_rng(2024)
    points = []
    for _ in range(200):
        lam = float(rng.uniform(0.0, 1.0))
        s_x = float(rng.uniform(-1.0, 1.0)) * math.sqrt(lam)
        points.append((lam, s_x, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, math.pi))))
    for sign in (-1.0, 1.0):
        # The beta peak and valley at an end of the beta lattice.
        for gap in (1e-12, 1e-9, 1e-6, 3e-4):
            points.append((1.0, sign * (1.0 - gap), 0.7, 2.0))
        # The s_x peak at an end of the s_x lattice (closer to 0 or pi, the
        # end point's port would be dark).
        for gap in (1e-7, 1e-5, 3e-4):
            points.append((1.0, 0.2 * sign, 1.0, 0.5 * math.pi - sign * (0.5 * math.pi - gap)))
    for lam in (0.0, 1e-12, 1e-9, 1e-6, 9e-6, 4e-5):
        points.append((lam, 0.3 * math.sqrt(lam), 1.0, 2.0))
        points.append((lam, -math.sqrt(lam), 0.4, 0.1))
    return points


def test_grid_oracles_match_per_call_grid_exactly():
    points = oracle_points()
    for lam, s_x, a_overlap, beta in points:
        assert grid_visibility_peak_fixed_beta(lam, a_overlap, beta) == per_call_peak_fixed_beta(
            lam, a_overlap, beta
        )
        assert grid_visibility_peak_fixed_sx(s_x, lam, a_overlap) == per_call_peak_fixed_sx(
            s_x, lam, a_overlap
        )
        assert grid_distinguishability_valley(s_x, a_overlap) == per_call_valley(s_x, a_overlap)
    # One stacked call per oracle returns the per-point calls' floats.
    lam, s_x, a_overlap, beta = (np.array(column) for column in zip(*points))
    stacked = [
        grid_visibility_peak_fixed_beta(lam, a_overlap, beta),
        grid_visibility_peak_fixed_sx(s_x, lam, a_overlap),
        grid_distinguishability_valley(s_x, a_overlap),
    ]
    per_point = [
        [grid_visibility_peak_fixed_beta(*p) for p in zip(lam, a_overlap, beta)],
        [grid_visibility_peak_fixed_sx(*p) for p in zip(s_x, lam, a_overlap)],
        [grid_distinguishability_valley(*p) for p in zip(s_x, a_overlap)],
    ]
    for (location, value), calls in zip(stacked, per_point):
        assert location.shape == value.shape == (len(points),)
        assert list(zip(location.tolist(), value.tolist())) == calls


def test_lattice_is_start_plus_k_steps_with_np_arange_length():
    # On the oracles' bounds.
    rng = np.random.default_rng(8)
    lams = np.concatenate([rng.uniform(0.0, 1.0, 300), 10.0 ** rng.uniform(-16.0, -4.0, 300)])
    bounds = [(-math.sqrt(lam), math.sqrt(lam) + 0.5 * GRID_STEP) for lam in [0.0, 1.0, *lams]]
    bounds.append((GRID_STEP, math.pi))
    for start, stop in bounds:
        points, last = verify._lattice(start, stop)
        assert last + 1 == len(np.arange(start, stop, GRID_STEP))
        k = np.arange(last + 1)
        np.testing.assert_array_equal(points(k).view(np.int64), (start + k * GRID_STEP).view(np.int64))


def register(monkeypatch, name, errors):
    checks = dict(verify.CHECKS, **{name: verify.Check(errors, 1.0)})
    monkeypatch.setattr(verify, "CHECKS", checks)


def test_nan_error_counts_as_a_failure(monkeypatch):
    register(
        monkeypatch,
        "nan_check",
        lambda rng, draws: (np.full(draws, math.nan), np.zeros(draws, dtype=bool)),
    )
    failures, worst = verify.run_check("nan_check", np.random.default_rng(0), 5, 1.0)
    assert failures == 5
    assert math.isnan(worst)


def test_check_with_every_draw_skipped_reports_nothing(monkeypatch):
    # The skipped slots hold errors that would fail; the mask drops them.
    register(
        monkeypatch,
        "skip_check",
        lambda rng, draws: (np.full(draws, math.nan), np.ones(draws, dtype=bool)),
    )
    assert verify.run_check("skip_check", np.random.default_rng(0), 5, 1.0) == (0, 0.0)


def test_min_error_measurement_skips_degenerate_draws_through_the_mask(monkeypatch):
    # Every other draw is a point where the detector states coincide and the
    # path weights are equal, so the discrimination operator has no gap.
    # (s_x, s_y, s_z, a_overlap, gamma, delta, beta, phi)
    degenerate = (0.0, 0.0, 0.5, 1.0, 0.0, 0.0, math.pi / 2, 0.0)
    calls = []
    draw_point = verify._draw_point

    def alternating(rng):
        calls.append(None)
        return draw_point(rng) if len(calls) % 2 else degenerate

    monkeypatch.setattr(verify, "_draw_point", alternating)
    errors, skipped = verify.CHECKS["min_error_measurement"].errors(np.random.default_rng(4), 6)
    assert skipped.tolist() == [False, True] * 3
    assert np.isnan(errors[skipped]).all() and np.isfinite(errors[~skipped]).all()
    calls.clear()
    failures, worst = verify.run_check("min_error_measurement", np.random.default_rng(4), 6, 1e-10)
    assert (failures, worst) == (0, float(errors[~skipped].max()))


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_errors_do_not_depend_on_how_the_draws_are_batched(name):
    draws, first = 40, 17
    errors = verify.CHECKS[name].errors
    whole_rng, split_rng = np.random.default_rng([9, 1]), np.random.default_rng([9, 1])
    whole, whole_skipped = errors(whole_rng, draws)
    head, head_skipped = errors(split_rng, first)
    tail, tail_skipped = errors(split_rng, draws - first)
    split = np.concatenate([head, tail])
    assert whole.shape == whole_skipped.shape == (draws,)
    np.testing.assert_array_equal(whole_skipped, np.concatenate([head_skipped, tail_skipped]))
    np.testing.assert_array_equal(whole, split)
    assert whole_rng.bit_generator.state == split_rng.bit_generator.state


class ZeroDirection:
    """A generator whose standard_normal returns zeros, the draw's
    zero-direction branch; every other call goes to the wrapped generator."""

    def __init__(self, rng):
        self._rng = rng

    def standard_normal(self, size):
        return np.zeros(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def reference_point(rng):
    # The per-parameter draws, one rng.uniform call per value, as the floats
    # that verify._draw_point returns.
    state, det, beta, phi = uniform_draw_point(rng)
    return (
        state.s_x, state.s_y, state.s_z, det.a_overlap, det.gamma, det.delta, beta.beta, phi.phi
    )


@pytest.mark.parametrize("seed", [0, 11, 42, [7, 3], [42, 12]])
def test_draw_point_stream_is_pinned(seed):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2000):
        assert verify._draw_point(new) == reference_point(old)
    assert new.bit_generator.state == old.bit_generator.state


# Each suite's ranges for verify._uniform_columns, in its per-draw order.
UNIFORM_RANGES = {
    "measurement_basis_closed_form": ((0.05, 0.95), (0.0, TWO_PI), (0.05, 0.95)),
    "eig_reconstruction": ((-1.0, 1.0),) * 4,
    "extremum_loci": ((0.05, 1.0), (0.05, 1.0), (0.05, math.pi - 0.05), (-0.95, 0.95)),
}


@pytest.mark.parametrize("ranges", list(UNIFORM_RANGES.values()), ids=list(UNIFORM_RANGES))
@pytest.mark.parametrize("batches", [[1], [40], [17, 23]], ids=["1", "40", "17+23"])
def test_uniform_columns_stream_is_pinned(ranges, batches):
    # The columns are one rng.uniform(low, high) call per value, draw by draw, to the bit.
    new, old = np.random.default_rng(3), np.random.default_rng(3)
    for draws in batches:
        columns = np.array(verify._uniform_columns(new, draws, ranges))
        expected = [[old.uniform(low, high) for low, high in ranges] for _ in range(draws)]
        assert columns.tobytes() == np.array(expected).T.tobytes()
    assert new.bit_generator.state == old.bit_generator.state


def test_phase_invariance_angles_are_pinned(monkeypatch):
    # Each draw's point, then its two re-phasing angles, each one rng.uniform(0, TWO_PI) call.
    calls = []
    marking_unitaries = verify.marking_unitaries

    def recording(*args):
        calls.append(args)
        return marking_unitaries(*args)

    monkeypatch.setattr(verify, "marking_unitaries", recording)
    draws = 40
    new, old = np.random.default_rng(6), np.random.default_rng(6)
    verify.CHECKS["phase_invariance"].errors(new, draws)
    expected = []
    for _ in range(draws):
        reference_point(old)
        expected.append((old.uniform(0.0, TWO_PI), old.uniform(0.0, TWO_PI)))
    _, gamma, delta = calls[-1]
    assert np.array([gamma, delta]).tobytes() == np.array(expected).T.tobytes()
    assert new.bit_generator.state == old.bit_generator.state


def test_draw_point_stream_is_pinned_for_the_zero_direction():
    new, old = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        point = verify._draw_point(ZeroDirection(new))
        assert point == reference_point(ZeroDirection(old))
        assert point[:3] == (0.0, 0.0, 0.0)
    assert new.bit_generator.state == old.bit_generator.state
