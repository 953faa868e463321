import math

import numpy as np
import pytest
from draws import draw_point as uniform_draw_point

from mzi_duality import verify
from mzi_duality.duality import distinguishability_kernel
from mzi_duality.verify import (
    GRID_STEP,
    grid_distinguishability_valley,
    grid_visibility_peak_fixed_sx,
)


def per_call_peak_fixed_sx(s_x, lam, a_overlap):
    # Reference: the beta grid and its trig rebuilt on every call.
    beta = np.arange(GRID_STEP, math.pi, GRID_STEP)
    amp = math.sqrt(max(lam - s_x * s_x, 0.0))
    values = a_overlap * np.sin(beta) * amp / (1.0 + s_x * np.cos(beta))
    k = int(np.argmax(values))
    return float(beta[k]), float(values[k])


def per_call_valley(s_x, a_overlap):
    beta = np.arange(GRID_STEP, math.pi, GRID_STEP)
    values = distinguishability_kernel(s_x, a_overlap, np.sin(beta), 1.0 + s_x * np.cos(beta))
    k = int(np.argmin(values))
    return float(beta[k]), float(values[k])


def test_beta_grid_is_built_once_and_read_only():
    first = verify._beta_grid()
    second = verify._beta_grid()
    assert len(first) == 3
    for a, b in zip(first, second):
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_grid_oracles_match_per_call_grid_exactly():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        lam = float(rng.uniform(0.0, 1.0))
        s_x = float(rng.uniform(-1.0, 1.0)) * math.sqrt(lam)
        a_overlap = float(rng.uniform(0.0, 1.0))
        assert grid_visibility_peak_fixed_sx(s_x, lam, a_overlap) == per_call_peak_fixed_sx(
            s_x, lam, a_overlap
        )
        assert grid_distinguishability_valley(s_x, a_overlap) == per_call_valley(s_x, a_overlap)


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


# The scans refine in blocks of points, so a different split moves their
# errors in the last bits only, as in test_stacked_scan_equals_scalar_scans.
SCAN_SUITES = {"visibility_oracle", "phase_invariance"}


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
    if name in SCAN_SUITES:
        assert np.abs(whole - split).max() <= 1e-15
    else:
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


def test_draw_point_stream_is_pinned_for_the_zero_direction():
    new, old = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        point = verify._draw_point(ZeroDirection(new))
        assert point == reference_point(ZeroDirection(old))
        assert point[:3] == (0.0, 0.0, 0.0)
    assert new.bit_generator.state == old.bit_generator.state
