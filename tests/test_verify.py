import math

import numpy as np
import pytest

from mzi_duality import verify
from mzi_duality.duality import distinguishability_kernel
from mzi_duality.interferometer import BeamSplitterAngle, BlochState, DetectorConfig, PhaseShift
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
    degenerate = (
        BlochState(0.0, 0.0, 0.5),
        DetectorConfig(1.0),
        BeamSplitterAngle(math.pi / 2),
        PhaseShift(0.0),
    )
    calls = []
    draw_point = verify.draw_point

    def alternating(rng):
        calls.append(None)
        return draw_point(rng) if len(calls) % 2 else degenerate

    monkeypatch.setattr(verify, "draw_point", alternating)
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
