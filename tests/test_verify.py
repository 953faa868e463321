import math

import numpy as np
import pytest

from mzi_duality import verify
from mzi_duality.duality import distinguishability_kernel
from mzi_duality.verify import (
    GRID_STEP,
    grid_distinguishability_valley,
    grid_visibility_peak_fixed_sx,
)


def per_call_peak_fixed_sx(s_x, lam, a_overlap, step=GRID_STEP):
    # Reference: the beta grid and its trig rebuilt on every call.
    beta = np.arange(step, math.pi, step)
    amp = math.sqrt(max(lam - s_x * s_x, 0.0))
    values = a_overlap * np.sin(beta) * amp / (1.0 + s_x * np.cos(beta))
    k = int(np.argmax(values))
    return float(beta[k]), float(values[k])


def per_call_valley(s_x, a_overlap, step=GRID_STEP):
    beta = np.arange(step, math.pi, step)
    values = distinguishability_kernel(s_x, a_overlap, np.sin(beta), np.cos(beta))
    k = int(np.argmin(values))
    return float(beta[k]), float(values[k])


def test_beta_grid_is_built_once_and_read_only():
    first = verify._beta_grid(GRID_STEP)
    second = verify._beta_grid(GRID_STEP)
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


def test_non_default_step_gets_its_own_grid():
    step = 1e-2
    beta, sin_beta, cos_beta = verify._beta_grid(step)
    assert beta is not verify._beta_grid(GRID_STEP)[0]
    np.testing.assert_array_equal(beta, np.arange(step, math.pi, step))
    np.testing.assert_array_equal(sin_beta, np.sin(beta))
    np.testing.assert_array_equal(cos_beta, np.cos(beta))
    assert grid_visibility_peak_fixed_sx(0.3, 0.7, 0.6, step) == per_call_peak_fixed_sx(
        0.3, 0.7, 0.6, step
    )
    assert grid_distinguishability_valley(0.3, 0.6, step) == per_call_valley(0.3, 0.6, step)


def test_nan_error_counts_as_a_failure(monkeypatch):
    checks = dict(verify.CHECKS, nan_check=verify.Check(lambda rng: math.nan, 1.0))
    monkeypatch.setattr(verify, "CHECKS", checks)
    failures, worst = verify.run_check("nan_check", np.random.default_rng(0), 5, 1.0)
    assert failures == 5
    assert math.isnan(worst)
