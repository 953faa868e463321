"""Per-parameter random draws for the tests, one rng.uniform call per value.

draw_point is draw_bloch_state, draw_detector, draw_beta and draw_phase
drawn in turn: the Bloch vector uniform in the closed unit ball (a normal
direction and the cube-root radius law), the detector, beta in
[0.01, pi - 0.01] and the phase. These are the distributions that verify
draws, but not its stream: verify takes each suite's values from one
generator call and maps them onto the ball in its own way (test_verify.py
pins that). The marking phases at the end are the edge phases that the
bit-for-bit tests of a detector against its stack row share, and
stacked_marked stacks detectors' marked states as the routes take them.
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


def stacked_marked(dets):
    # The detectors' marked states as one stack, the way the stacked routes
    # take it: each of DetectorConfig.marked's four parts as a 1-D array, one
    # entry per detector.
    return tuple(np.array(part) for part in zip(*(det.marked for det in dets)))


# Marking phases at the signed zeros, at the smallest subnormals and at tiny
# and large magnitudes, where libm's sin and cos, under math (a detector's
# marked state) and numpy (a stack's), take their small-argument and
# argument-reduction paths.
MARKING_PHASES = [0.0, -0.0, 5e-324, -5e-324, -1e-300, 1e-8, math.pi, -math.pi, 1e3, -1e5, 1e6, -1e6]


def marking_phase_pairs(rng, count):
    # Every pair of MARKING_PHASES, then count seeded pairs up to |1e6|.
    pairs = [(g, d) for g in MARKING_PHASES for d in MARKING_PHASES]
    return pairs + [tuple(rng.uniform(-1e6, 1e6, 2).tolist()) for _ in range(count)]
