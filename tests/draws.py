"""Per-parameter random draws for the tests, one rng.uniform call per value.

They are verify._draw_point's distributions in its order: draw_point is
draw_bloch_state, draw_detector, draw_beta and draw_phase drawn in turn, and
its objects hold the floats that verify._draw_point returns, to the bit and
to the generator state (test_verify.py pins it). So a test that draws here
takes the same values from the same stream that verify does.
"""

import math

import numpy as np

from mzi_duality.interferometer import (
    TWO_PI,
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    PhaseShift,
)


def draw_bloch_state(rng):
    # Uniform in the closed unit ball (cube-root radius law); no radius is
    # drawn for the measure-zero zero direction.
    direction = rng.standard_normal(3)
    norm = float(np.linalg.norm(direction))
    if norm < 1e-12:
        return BlochState(0.0, 0.0, 0.0)
    radius = rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
    v = direction * (radius / norm)
    return BlochState(float(v[0]), float(v[1]), float(v[2]))


def draw_detector(rng):
    return DetectorConfig(
        a_overlap=float(rng.uniform(0.0, 1.0)),
        gamma=float(rng.uniform(0.0, TWO_PI)),
        delta=float(rng.uniform(0.0, TWO_PI)),
    )


def draw_beta(rng):
    return BeamSplitterAngle(float(rng.uniform(0.01, math.pi - 0.01)))


def draw_phase(rng):
    return PhaseShift(float(rng.uniform(0.0, TWO_PI)))


def draw_point(rng):
    return draw_bloch_state(rng), draw_detector(rng), draw_beta(rng), draw_phase(rng)
