"""Randomized self-verification suites behind the ``verify`` CLI command.

Each suite draws random parameter points (seeded, so reruns are bit-identical),
computes one quantity along two independent routes or checks one invariant,
and reports the case count, failure count, and worst observed error. The
suites live in one registry, ``CHECKS``, shared with the acceptance gate.
Points are drawn one at a time; the suites that run the pipeline or the scan
then evaluate all their draws in one stacked pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .duality import (
    MeasurementBasis,
    PathWeights,
    _detector_branches,
    _discrimination_operator,
    _min_error_eig,
    complementarity_residual,
    distinguishability_closed,
    distinguishability_kernel,
    distinguishability_trace_norm,
    distinguishability_trace_norms,
    distinguishability_valley,
    min_error_basis,
    path_weights,
    visibility_closed,
    visibility_kernel,
    visibility_peak_fixed_beta,
    visibility_peak_fixed_sx,
    visibility_scans,
)
from .errors import DegenerateBasisError, InvalidInputError
from .interferometer import (
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    PhaseShift,
    _port_a_probabilities,
    detection_probability_closed,
    evolve_closed_form_stack,
    evolve_stack,
    port_denominator,
)
from .linalg import check_densities, hermitian_eig2, hermiticity_defect, trace_errors, trace_path

TWO_PI = 2.0 * math.pi

# Brute-force extremum searches walk the closed forms at this resolution and
# must land within 1e-3 of the predicted locus.
GRID_STEP = 1e-4


@dataclass(frozen=True)
class RunConfig:
    """Seed, draw count, and per-suite tolerance overrides for one verify run."""

    seed: int = 42
    draws: int = 1000
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.draws < 1:
            raise InvalidInputError("draws must be at least 1")
        for name, value in self.tolerances.items():
            if name not in CHECKS:
                known = ", ".join(sorted(CHECKS))
                raise InvalidInputError(f"unknown tolerance {name!r}; known: {known}")
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"tolerance {name!r} must be finite and positive")

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, CHECKS[name].tolerance))


def draw_bloch_state(rng: np.random.Generator) -> BlochState:
    """Bloch vector uniform in the closed unit ball (cube-root radius law)."""
    direction = rng.standard_normal(3)
    norm = float(np.linalg.norm(direction))
    if norm < 1e-12:
        return BlochState(0.0, 0.0, 0.0)
    radius = rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
    v = direction * (radius / norm)
    return BlochState(float(v[0]), float(v[1]), float(v[2]))


def draw_detector(rng: np.random.Generator) -> DetectorConfig:
    return DetectorConfig(
        a_overlap=float(rng.uniform(0.0, 1.0)),
        gamma=float(rng.uniform(0.0, TWO_PI)),
        delta=float(rng.uniform(0.0, TWO_PI)),
    )


def draw_beta(rng: np.random.Generator) -> BeamSplitterAngle:
    # [0.01, pi - 0.01] keeps the measure-zero degenerate edge out of the draws.
    return BeamSplitterAngle(float(rng.uniform(0.01, math.pi - 0.01)))


def draw_phase(rng: np.random.Generator) -> PhaseShift:
    return PhaseShift(float(rng.uniform(0.0, TWO_PI)))


def draw_point(rng):
    return draw_bloch_state(rng), draw_detector(rng), draw_beta(rng), draw_phase(rng)


# --- brute-force extremum oracles (the closed-form kernels on a fine grid) ---


@functools.cache
def _beta_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The splitter-angle grid and its trig do not depend on the draw; build
    # them on first use (not at import) and share them read-only.
    beta = np.arange(GRID_STEP, math.pi, GRID_STEP)
    arrays = (beta, np.sin(beta), np.cos(beta))
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def grid_visibility_peak_fixed_beta(
    lam: float, a_overlap: float, beta: BeamSplitterAngle
) -> tuple[float, float]:
    """Argmax and max of V over s_x in [-sqrt(lam), sqrt(lam)] by exhaustive grid."""
    r = math.sqrt(lam)
    s_x = np.arange(-r, r + 0.5 * GRID_STEP, GRID_STEP)
    yz = np.sqrt(np.maximum(lam - s_x * s_x, 0.0))
    den = port_denominator(s_x, math.cos(beta.beta))
    values = visibility_kernel(yz, a_overlap, math.sin(beta.beta), den)
    k = int(np.argmax(values))
    return float(s_x[k]), float(values[k])


def grid_visibility_peak_fixed_sx(s_x: float, lam: float, a_overlap: float) -> tuple[float, float]:
    """Argmax and max of V over the splitter angle by exhaustive grid.

    Every grid point is evaluated on each call; the beta grid and its sine and
    cosine are computed once and reused.
    """
    beta, sin_beta, cos_beta = _beta_grid()
    yz = math.sqrt(max(lam - s_x * s_x, 0.0))
    values = visibility_kernel(yz, a_overlap, sin_beta, port_denominator(s_x, cos_beta))
    k = int(np.argmax(values))
    return float(beta[k]), float(values[k])


def grid_distinguishability_valley(s_x: float, a_overlap: float) -> tuple[float, float]:
    """Argmin and min of D over the splitter angle by exhaustive grid.

    Every grid point is evaluated on each call; the beta grid and its sine and
    cosine are computed once and reused.
    """
    beta, sin_beta, cos_beta = _beta_grid()
    values = distinguishability_kernel(s_x, a_overlap, sin_beta, port_denominator(s_x, cos_beta))
    k = int(np.argmin(values))
    return float(beta[k]), float(values[k])


# --- stacked checks: errors(rng, draws) -> (one error per draw, skipped mask) ---


def _none_skipped(errors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return errors, np.zeros(len(errors), dtype=bool)


def _draw_points(rng, draws):
    # draw_point, one draw at a time, and the draws' stacked pipeline arguments.
    points = [draw_point(rng) for _ in range(draws)]
    states, dets, betas, phis = zip(*points)
    stacked = (
        np.array([s.s_x for s in states]),
        np.array([s.s_y for s in states]),
        np.array([s.s_z for s in states]),
        np.stack([d.unitary for d in dets]),
        np.array([b.beta for b in betas]),
        np.array([p.phi for p in phis]),
    )
    return points, stacked


def _largest_entries(m: np.ndarray) -> np.ndarray:
    return np.abs(m).max(axis=(1, 2))


def _pipeline_equivalence(rng, draws):
    _, stacked = _draw_points(rng, draws)
    return _none_skipped(_largest_entries(evolve_stack(*stacked) - evolve_closed_form_stack(*stacked)))


def _detection_probability(rng, draws):
    points, stacked = _draw_points(rng, draws)
    numeric = _port_a_probabilities(evolve_stack(*stacked))
    closed = np.array([detection_probability_closed(*point) for point in points])
    return _none_skipped(np.abs(numeric - closed))


def _state_validity(rng, draws):
    _, stacked = _draw_points(rng, draws)
    m = evolve_stack(*stacked)
    negativity = np.maximum(0.0, -np.linalg.eigvalsh(m)[:, 0])
    return _none_skipped(
        np.maximum(np.maximum(hermiticity_defect(m, axis=(1, 2)), trace_errors(m)), negativity)
    )


def _reduced_detector_state(rng, draws):
    _, stacked = _draw_points(rng, draws)
    reduced = check_densities(trace_path(evolve_stack(*stacked)))
    unmarked, marked = _detector_branches(stacked[3])
    s_x = stacked[0][:, None, None]
    expected = 0.5 * (1.0 - s_x) * unmarked + 0.5 * (1.0 + s_x) * marked
    return _none_skipped(_largest_entries(reduced - expected))


def _visibility_oracle(rng, draws):
    points, (s_x, s_y, s_z, unitary, beta, _) = _draw_points(rng, draws)
    scanned, _ = visibility_scans(s_x, s_y, s_z, unitary, beta)
    closed = np.array([visibility_closed(state, det.a_overlap, b) for state, det, b, _ in points])
    return _none_skipped(np.abs(scanned - closed))


def _phase_invariance(rng, draws):
    # gamma and delta shift the fringe and the unobservable off-diagonal phase
    # of the marking unitary; neither measured quantity may move. Each draw
    # is scanned under its own and a re-phased detector: the draws, then
    # their re-phased copies, 2 * draws points in one 512-grid pass.
    points, others = [], []
    for _ in range(draws):
        state, det, beta, _ = draw_point(rng)
        others.append(
            DetectorConfig(
                det.a_overlap,
                gamma=float(rng.uniform(0.0, TWO_PI)),
                delta=float(rng.uniform(0.0, TWO_PI)),
            )
        )
        points.append((state, det, path_weights(state.s_x, beta), beta.beta))
    states, dets, weights, betas = zip(*points)
    s_x, s_y, s_z = (np.tile([getattr(s, c) for s in states], 2) for c in ("s_x", "s_y", "s_z"))
    unitary = np.stack([d.unitary for d in dets + tuple(others)])
    scanned, _ = visibility_scans(s_x, s_y, s_z, unitary, np.tile(betas, 2), grid_size=512)
    omega_a, omega_b = (np.tile([getattr(w, c) for w in weights], 2) for c in ("omega_a", "omega_b"))
    norms = distinguishability_trace_norms(unitary, omega_a, omega_b)
    return _none_skipped(
        np.maximum(np.abs(scanned[:draws] - scanned[draws:]), np.abs(norms[:draws] - norms[draws:]))
    )


# --- per-draw checks: each returns its error, or None for a skipped draw ---


def _per_draw(error: Callable[[np.random.Generator], float | None]):
    """The registry form errors(rng, draws) of a per-draw check: draws run
    in order, and a None draw is skipped (its error slot holds NaN)."""

    def errors(rng, draws):
        values = [error(rng) for _ in range(draws)]
        skipped = np.array([v is None for v in values])
        return np.array([np.nan if v is None else v for v in values], dtype=float), skipped

    return errors


def _distinguishability_oracle(rng):
    state, det, beta, _ = draw_point(rng)
    weights = path_weights(state.s_x, beta)
    return abs(
        distinguishability_trace_norm(det, weights)
        - distinguishability_closed(state.s_x, beta, det.a_overlap)
    )


def _weights_identity(rng):
    state, det, beta, _ = draw_point(rng)
    weights = path_weights(state.s_x, beta)
    d = distinguishability_closed(state.s_x, beta, det.a_overlap)
    return max(
        abs(d * d + 4.0 * weights.omega_a * weights.omega_b * det.a_overlap**2 - 1.0),
        abs(weights.omega_a + weights.omega_b - 1.0),
    )


def _min_error_measurement(rng):
    state, det, beta, _ = draw_point(rng)
    weights = path_weights(state.s_x, beta)
    gamma_op = _discrimination_operator(det, weights)
    try:
        values, basis = _min_error_eig(gamma_op)
    except DegenerateBasisError:
        return None
    eig_err = max(
        float(np.abs(gamma_op @ basis.m_a - values[0] * basis.m_a).max()),
        float(np.abs(gamma_op @ basis.m_b - values[1] * basis.m_b).max()),
    )
    ortho_err = max(
        abs(float(np.linalg.norm(basis.m_a)) - 1.0),
        abs(float(np.linalg.norm(basis.m_b)) - 1.0),
        abs(np.vdot(basis.m_a, basis.m_b)),
    )
    success = weights.omega_b * abs(
        np.vdot(basis.m_b, det.reference_state)
    ) ** 2 + weights.omega_a * abs(np.vdot(basis.m_a, det.marked_state)) ** 2
    helstrom_err = abs(success - 0.5 * (1.0 + distinguishability_trace_norm(det, weights)))
    prior_gap = max(weights.omega_a, weights.omega_b) - success
    return max(eig_err, ortho_err, helstrom_err, prior_gap - 1e-12)


def _min_error_basis_closed_form(
    det: DetectorConfig, weights: PathWeights
) -> MeasurementBasis:
    """Textbook closed-form expressions for the optimal discrimination basis.

    Valid on interior parameter points only: 0 < a_overlap < 1, omega_a > 0,
    and a real positive overlap (gamma = 0); the formulas are singular at the
    domain edges. The secondary oracle for min_error_basis.
    """
    a = det.a_overlap
    if not 0.0 < a < 1.0:
        raise InvalidInputError("closed-form basis requires 0 < a_overlap < 1")
    if weights.omega_a <= 0.0:
        raise InvalidInputError("closed-form basis requires omega_a > 0")
    if abs(math.remainder(det.gamma, TWO_PI)) > 1e-9:
        raise InvalidInputError("closed-form basis assumes a real overlap (gamma = 0)")

    wa = weights.omega_a
    wb = weights.omega_b
    bias = math.sqrt(1.0 - 4.0 * wa * wb * a * a)
    root = math.sqrt(1.0 - a * a)
    coeff_a = (1.0 - bias) / (2.0 * wa * a)
    coeff_b = (1.0 + bias) / (2.0 * wa * a)
    norm_a = math.sqrt(
        (1.0 - 4.0 * wa * wb * a * a - bias * (1.0 - 2.0 * wa * a * a))
        / (2.0 * wa * wa * a * a * (1.0 - a * a))
    )
    norm_b = math.sqrt(
        (1.0 - 4.0 * wa * wb * a * a + bias * (1.0 - 2.0 * wa * a * a))
        / (2.0 * wa * wa * a * a * (1.0 - a * a))
    )
    marked = det.marked_state
    reference = det.reference_state
    m_a = (marked - coeff_a * reference) / (norm_a * root)
    m_b = (marked - coeff_b * reference) / (norm_b * root)
    # The printed normalization constants cancel to ~1e-12 near the domain
    # corners; certify them at a conditioning-appropriate tolerance, then
    # tighten to machine precision so the basis contract holds.
    norm_defect = max(abs(np.linalg.norm(m_a) - 1.0), abs(np.linalg.norm(m_b) - 1.0))
    if norm_defect > 1e-9:
        raise InvalidInputError(
            f"closed-form normalization failed its self-check ({norm_defect:.3e})"
        )
    return MeasurementBasis(m_a / np.linalg.norm(m_a), m_b / np.linalg.norm(m_b))


def _measurement_basis_closed_form(rng):
    # The printed closed-form basis assumes a real overlap and is numerically
    # singular at the domain edges, so the draws stay comfortably interior.
    det = DetectorConfig(
        a_overlap=float(rng.uniform(0.05, 0.95)),
        gamma=0.0,
        delta=float(rng.uniform(0.0, TWO_PI)),
    )
    omega_a = float(rng.uniform(0.05, 0.95))
    weights = PathWeights(omega_a, 1.0 - omega_a)
    numeric = min_error_basis(det, weights)
    literal = _min_error_basis_closed_form(det, weights)
    return max(
        _phase_aligned_distance(numeric.m_a, literal.m_a),
        _phase_aligned_distance(numeric.m_b, literal.m_b),
    )


def _phase_aligned_distance(v: np.ndarray, w: np.ndarray) -> float:
    overlap = np.vdot(w, v)
    if abs(overlap) < 1e-300:
        return float(np.linalg.norm(v - w))
    aligned = w * (overlap / abs(overlap))
    return float(np.linalg.norm(v - aligned))


def _complementarity(rng):
    state, det, beta, _ = draw_point(rng)
    v = visibility_closed(state, det.a_overlap, beta)
    d = distinguishability_closed(state.s_x, beta, det.a_overlap)
    residual = complementarity_residual(state, det.a_overlap, beta)
    return max(abs(1.0 - v * v - d * d - residual), v * v + d * d - 1.0 - 1e-12)


def _eig_reconstruction(rng):
    diag = rng.uniform(-1.0, 1.0, size=2)
    off = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    h = np.array([[diag[0], off], [np.conj(off), diag[1]]], dtype=complex)
    values, vectors = hermitian_eig2(h)
    rebuilt = (vectors * values) @ vectors.conj().T
    return max(
        float(np.abs(rebuilt - h).max()),
        float(np.abs(vectors.conj().T @ vectors - np.eye(2)).max()),
    )


def _extremum_loci(rng):
    lam = float(rng.uniform(0.05, 1.0))
    a_overlap = float(rng.uniform(0.05, 1.0))
    beta = BeamSplitterAngle(float(rng.uniform(0.05, math.pi - 0.05)))
    s_x = float(rng.uniform(-0.95, 0.95)) * math.sqrt(lam)

    sx_pred, _ = visibility_peak_fixed_beta(lam, a_overlap, beta)
    sx_grid, _ = grid_visibility_peak_fixed_beta(lam, a_overlap, beta)
    beta_pred, _ = visibility_peak_fixed_sx(s_x, lam, a_overlap)
    beta_grid, _ = grid_visibility_peak_fixed_sx(s_x, lam, a_overlap)
    valley_pred, _ = distinguishability_valley(s_x, a_overlap)
    valley_grid, _ = grid_distinguishability_valley(s_x, a_overlap)
    return max(
        abs(sx_grid - sx_pred),
        abs(beta_grid - beta_pred),
        abs(valley_grid - valley_pred),
    )


# --- the registry ---


class Check(NamedTuple):
    # errors(rng, draws) -> (one error per draw, mask of skipped draws)
    errors: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    tolerance: float


# Every verify suite with its default tolerance. The order is part of the
# output contract: a suite's position seeds its rng as [seed, index].
CHECKS: dict[str, Check] = {
    "pipeline_equivalence": Check(_pipeline_equivalence, 1e-12),
    "detection_probability": Check(_detection_probability, 1e-10),
    "state_validity": Check(_state_validity, 1e-10),
    "reduced_detector_state": Check(_reduced_detector_state, 1e-12),
    "visibility_oracle": Check(_visibility_oracle, 1e-9),
    "distinguishability_oracle": Check(_per_draw(_distinguishability_oracle), 1e-10),
    "weights_identity": Check(_per_draw(_weights_identity), 1e-12),
    "phase_invariance": Check(_phase_invariance, 1e-10),
    "min_error_measurement": Check(_per_draw(_min_error_measurement), 1e-10),
    "measurement_basis_closed_form": Check(_per_draw(_measurement_basis_closed_form), 1e-8),
    "complementarity": Check(_per_draw(_complementarity), 1e-12),
    "eig_reconstruction": Check(_per_draw(_eig_reconstruction), 1e-10),
    "extremum_loci": Check(_per_draw(_extremum_loci), 1e-3),
}


def run_check(
    name: str, rng: np.random.Generator, draws: int, tol: float
) -> tuple[int, float]:
    """(failures, worst error) of one registered check over ``draws`` draws.

    Skipped draws count neither way; an all-skipped run reports (0, 0.0).
    """
    errors, skipped = CHECKS[name].errors(rng, draws)
    kept = errors[~skipped]
    # The negated test and np.max let a NaN error fail and stick.
    return int(np.count_nonzero(~(kept <= tol))), float(np.max(kept, initial=0.0))


def run_verification(config: RunConfig) -> dict[str, dict[str, float]]:
    """Run every suite; returns {suite: {cases, failures, max_error}}."""
    summary: dict[str, dict[str, float]] = {}
    for index, name in enumerate(CHECKS):
        rng = np.random.default_rng([config.seed, index])
        failures, worst = run_check(name, rng, config.draws, config.tolerance(name))
        summary[name] = {
            "cases": config.draws,
            "failures": int(failures),
            "max_error": float(worst),
        }
    return summary


def all_passed(summary: Mapping[str, Mapping[str, float]]) -> bool:
    return all(entry["failures"] == 0 for entry in summary.values())
