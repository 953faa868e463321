"""Randomized self-verification suites behind the ``verify`` CLI command.

Each suite draws random parameter points (seeded, so reruns are bit-identical),
computes one quantity along two independent routes or checks one invariant,
and reports the case count, failure count, and worst observed error. The
suites live in one registry, ``CHECKS``, shared with the acceptance gate.
A suite of full parameter points draws them one at a time (_draw_point,
two generator calls each), straight into floats, and stacks them as
columns; a suite of plain uniforms takes all of them from one generator
call. Either way each value and the stream are those of one rng.uniform
call per value, in draw order. Every suite then evaluates all its draws in
one stacked pass. extremum_loci's grid oracles search their lattices for
every draw at once, in two passes that return the exhaustive grid's argmax.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .duality import (
    _basis_is_degenerate,
    _discrimination_entries,
    closed_form_columns,
    distinguishability_kernel,
    distinguishability_trace_norms,
    distinguishability_valley,
    visibility_kernel,
    visibility_peak_fixed_beta,
    visibility_peak_fixed_sx,
    visibility_scans,
)
from .errors import DualityError, InvalidInputError, _setting
from .interferometer import (
    BeamSplitterAngle,
    TWO_PI,
    _evolve,
    _evolve_closed_form,
    _port_a_closed,
    _port_a_probabilities,
    marking_unitaries,
    port_terms,
)
from .linalg import _hermitian_eig2, check_densities, hermiticity_defect, trace_errors, trace_path

# Brute-force extremum searches walk the closed forms at this resolution and
# must land within 1e-3 of the predicted locus.
GRID_STEP = 1e-4


@dataclass(frozen=True)
class RunConfig:
    """Seed, draw count, and per-suite tolerance overrides for one verify run,
    checked here for library callers and the CLI alike: taken by int() and
    float(), so 5, 5.0 and "5" agree, with booleans and fractional counts invalid."""

    seed: int = 42
    draws: int = 1000
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.tolerances, Mapping):
            raise InvalidInputError("tolerances must be a mapping of name: value")
        tolerances = {k: _setting(float, v, f"tolerance {k!r}") for k, v in self.tolerances.items()}
        object.__setattr__(self, "tolerances", tolerances)
        object.__setattr__(self, "seed", _setting(int, self.seed, "seed"))
        object.__setattr__(self, "draws", _setting(int, self.draws, "draws"))
        if self.draws < 1:
            raise InvalidInputError("draws must be at least 1")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed!r}")
        for name, value in tolerances.items():
            if name not in CHECKS:
                known = ", ".join(sorted(CHECKS))
                raise InvalidInputError(f"unknown tolerance {name!r}; known: {known}")
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"tolerance {name!r} must be finite and positive")

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, CHECKS[name].tolerance)


def _draw_point(rng: np.random.Generator) -> tuple[float, ...]:
    """A random point (s_x, s_y, s_z, a_overlap, gamma, delta, beta, phi),
    in two generator calls.

    The Bloch vector is uniform in the closed unit ball (cube-root radius
    law): its direction, then one rng.random call for the radius's uniform
    (none for the measure-zero zero direction) and the five uniforms of the
    overlap, gamma, delta, beta and the phase. The stream and the values are
    those of one rng.uniform call per value: each value is
    rng.uniform(low, high) to the bit, written out as low + (high - low) * u
    for a unit uniform u, with a zero low and a unit factor left out, as
    they are exact. The direction's three entries are scaled by one product
    each, as numpy scales an array. Each value is one that the domain types
    accept as is.
    """
    direction = rng.standard_normal(3)
    norm = math.sqrt(direction.dot(direction))  # np.linalg.norm, without its dispatch
    if norm < 1e-12:
        s_x = s_y = s_z = 0.0
        u_overlap, u_gamma, u_delta, u_beta, u_phi = rng.random(5).tolist()
    else:
        radius, u_overlap, u_gamma, u_delta, u_beta, u_phi = rng.random(6).tolist()
        x, y, z = direction.tolist()
        scale = radius ** (1.0 / 3.0) / norm
        s_x, s_y, s_z = x * scale, y * scale, z * scale
    # [0.01, pi - 0.01] keeps the measure-zero degenerate edge out of the draws.
    beta = 0.01 + (math.pi - 0.01 - 0.01) * u_beta
    gamma, delta, phi = TWO_PI * u_gamma, TWO_PI * u_delta, (TWO_PI * u_phi) % TWO_PI
    return s_x, s_y, s_z, u_overlap, gamma, delta, beta, phi


# --- brute-force extremum oracles, of floats or of 1-D arrays (one entry per point) ---

_STRIDE = 64


def _lattice(start, stop):
    # The lattice start + k * GRID_STEP of floats or (n, 1) columns, as (points at indices k,
    # last index), with np.arange(start, stop, GRID_STEP)'s length.
    last = np.ceil((stop - start) / GRID_STEP).astype(int) - 1
    return lambda k: start + k * GRID_STEP, last


def _lattice_argmax(query, values_at, start, stop) -> tuple:
    # The first argmax and the max over _lattice(start, stop) of values_at, which maps points
    # broadcast against (n, 1) to (n, m) values: (n,) arrays, or floats for a query of floats.
    # Pass 1 reads every _STRIDE-th point, pass 2 the _STRIDE on each side of its winner
    # (clipped into the lattice): for one peak along the lattice, the exhaustive argmax.
    # Pass 1's j-th point is the lattice's min(j * _STRIDE, last)-th, so its argmax gives the
    # winner's index; pass 2 picks its winner's point from the points it evaluated.
    points, last = _lattice(start, stop)
    k = np.minimum(np.arange(0, last.max() + 1, _STRIDE), last)
    coarse = values_at(points(k)).argmax(axis=1)
    k = np.minimum(coarse[:, None] * _STRIDE, last) + np.arange(-_STRIDE, _STRIDE + 1)
    at = points(np.clip(k, 0, last))
    values = values_at(at)
    pick = np.arange(len(values)), values.argmax(axis=1)
    location, value = at[pick], values[pick]
    return (location, value) if np.ndim(query) else (float(location[0]), float(value[0]))


def grid_visibility_peak_fixed_beta(lam, a_overlap, beta) -> tuple:
    """Argmax and max of V over s_x in [-sqrt(lam), sqrt(lam)] at beta (radians), by grid."""
    lam_c, a_c, beta_c = (np.reshape(x, (-1, 1)) for x in (lam, a_overlap, beta))
    r = np.sqrt(lam_c)

    def values_at(s_x):
        yz = np.sqrt(np.maximum(lam_c - s_x * s_x, 0.0))
        return visibility_kernel(yz, a_c, *port_terms(s_x, beta_c))

    return _lattice_argmax(lam, values_at, -r, r + 0.5 * GRID_STEP)


def grid_visibility_peak_fixed_sx(s_x, lam, a_overlap) -> tuple:
    """Argmax and max of V over the beta lattice GRID_STEP + k * GRID_STEP below pi."""
    s_x_c, lam_c, a_c = (np.reshape(x, (-1, 1)) for x in (s_x, lam, a_overlap))
    yz = np.sqrt(np.maximum(lam_c - s_x_c * s_x_c, 0.0))

    def values_at(beta):
        return visibility_kernel(yz, a_c, *port_terms(s_x_c, beta))

    return _lattice_argmax(s_x, values_at, GRID_STEP, math.pi)


def grid_distinguishability_valley(s_x, a_overlap) -> tuple:
    """Argmin and min of D over the beta lattice, as the argmax of -D."""
    s_x_c, a_c = (np.reshape(x, (-1, 1)) for x in (s_x, a_overlap))

    def values_at(beta):
        return -distinguishability_kernel(s_x_c, a_c, *port_terms(s_x_c, beta))

    beta, value = _lattice_argmax(s_x, values_at, GRID_STEP, math.pi)
    return beta, -value


# --- checks: errors(rng, draws) -> (one error per draw, skipped mask) ---


def _none_skipped(errors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return errors, np.zeros(len(errors), dtype=bool)


# Drawn points as columns, one entry per point, and their (n, 2, 2) marking unitaries.
_Points = namedtuple("_Points", "s_x s_y s_z a_overlap gamma delta beta phi unitary")


def _uniform_columns(rng, draws, ranges) -> list:
    # One column per range: per draw, one rng.uniform(low, high) value per range, in order,
    # all from one generator call. rng.uniform(low, high) is low + (high - low) * u to the
    # bit, for the unit uniform u that rng.random draws in its place, as in _draw_point.
    u = rng.random((draws, len(ranges)))
    return [low + (high - low) * u[:, i] for i, (low, high) in enumerate(ranges)]


def _stack_points(rows) -> _Points:
    # Rows of floats as contiguous columns, one per field.
    columns = np.array(rows, dtype=float).T.copy()
    return _Points(*columns, marking_unitaries(*columns[3:6]))


def _draw_points(rng, draws) -> _Points:
    return _stack_points([_draw_point(rng) for _ in range(draws)])


def _pipeline(p: _Points) -> tuple:
    # _evolve's and _evolve_closed_form's arguments.
    return p.s_x, p.s_y, p.s_z, p.unitary, p.beta, p.phi


def _closed_columns(p: _Points) -> tuple:
    # closed_form_columns of the draws, whose residual reads their raw squared length.
    lam = p.s_x * p.s_x + p.s_y * p.s_y + p.s_z * p.s_z
    return closed_form_columns(p.s_x, p.s_y, p.s_z, lam, p.a_overlap, p.beta)


def _hermitian(a, c, b_re, b_im) -> np.ndarray:
    # The stack of Hermitian [[a, b], [conj(b), c]], b = b_re + i b_im, of 1-D arrays.
    b = b_re + 1j * b_im
    return np.array([[a, b], [b.conj(), c]], dtype=complex).transpose(2, 0, 1)


def _largest_entries(m: np.ndarray) -> np.ndarray:
    return np.abs(m).max(axis=(1, 2))


def _pipeline_equivalence(rng, draws):
    args = _pipeline(_draw_points(rng, draws))
    return _none_skipped(_largest_entries(_evolve(*args) - _evolve_closed_form(*args)))


def _detection_probability(rng, draws):
    p = _draw_points(rng, draws)
    numeric = _port_a_probabilities(_evolve(*_pipeline(p)))
    yz, alpha = np.hypot(p.s_y, p.s_z), np.arctan2(p.s_y, p.s_z)
    closed = _port_a_closed(p.s_x, yz, alpha, p.a_overlap, p.gamma, p.beta, p.phi)
    return _none_skipped(np.abs(numeric - closed))


def _state_validity(rng, draws):
    m = _evolve(*_pipeline(_draw_points(rng, draws)))
    negativity = np.maximum(0.0, -np.linalg.eigvalsh(m)[:, 0])
    return _none_skipped(
        np.maximum(np.maximum(hermiticity_defect(m, axis=(1, 2)), trace_errors(m)), negativity)
    )


def _reduced_detector_state(rng, draws):
    p = _draw_points(rng, draws)
    reduced = check_densities(trace_path(_evolve(*_pipeline(p))))
    # (1 - s_x)/2 r r^H + (1 + s_x)/2 U r r^H U^H, the start state r = (1, 0)
    # and U r the first column of U, entry by entry.
    marked = p.unitary[:, :, 0]
    expected = 0.5 * (1.0 + p.s_x)[:, None, None] * (marked[:, :, None] * marked[:, None, :].conj())
    expected[:, 0, 0] += 0.5 * (1.0 - p.s_x)
    return _none_skipped(_largest_entries(reduced - expected))


def _visibility_oracle(rng, draws):
    p = _draw_points(rng, draws)
    scanned, _ = visibility_scans(p.s_x, p.s_y, p.s_z, p.unitary, p.beta)
    return _none_skipped(np.abs(scanned - _closed_columns(p)[0]))


def _distinguishability_oracle(rng, draws):
    p = _draw_points(rng, draws)
    _, d, _, omega_a, omega_b, _ = _closed_columns(p)
    return _none_skipped(np.abs(distinguishability_trace_norms(p.unitary, omega_a, omega_b) - d))


def _weights_identity(rng, draws):
    p = _draw_points(rng, draws)
    a_overlap = p.a_overlap
    _, d, _, omega_a, omega_b, _ = _closed_columns(p)
    return _none_skipped(
        np.maximum(
            np.abs(d * d + 4.0 * omega_a * omega_b * (a_overlap * a_overlap) - 1.0),
            np.abs(omega_a + omega_b - 1.0),
        )
    )


def _phase_invariance(rng, draws):
    # gamma and delta shift the fringe and the unobservable off-diagonal phase
    # of the marking unitary; neither measured quantity may move. Each draw
    # is scanned under its own and a re-phased detector: the draws, then
    # their re-phased copies, 2 * draws points in one stacked scan.
    # Each re-phasing angle is rng.uniform(0.0, TWO_PI) to the bit, written out as TWO_PI * u
    # with both u of a draw from one rng.random call, as in _draw_point.
    rows, phases = [], []
    for _ in range(draws):
        rows.append(_draw_point(rng))
        phases.append(rng.random(2))
    p = _stack_points(rows)
    s_x, s_y, s_z, beta, omega_a, omega_b = (
        np.concatenate([x, x]) for x in (p.s_x, p.s_y, p.s_z, p.beta, *_closed_columns(p)[3:5])
    )
    gamma, delta = TWO_PI * np.array(phases).T
    unitary = np.concatenate([p.unitary, marking_unitaries(p.a_overlap, gamma, delta)])
    scanned, _ = visibility_scans(s_x, s_y, s_z, unitary, beta)
    norms = distinguishability_trace_norms(unitary, omega_a, omega_b)
    return _none_skipped(
        np.maximum(np.abs(scanned[:draws] - scanned[draws:]), np.abs(norms[:draws] - norms[draws:]))
    )


def _min_error_measurement(rng, draws):
    # The eigenbasis of the discrimination operator against its defining
    # properties: the eigen-equations, orthonormality, the Helstrom success
    # probability (1 + D) / 2, and success no worse than guessing the likelier
    # path. Draws whose operator is degenerate (no basis singled out) skip.
    p = _draw_points(rng, draws)
    omega_a, omega_b = _closed_columns(p)[3:5]
    entries = _discrimination_entries(p.unitary, omega_a, omega_b)
    values, vectors = _hermitian_eig2(*entries)
    gamma_op = _hermitian(*entries)
    eig_err = np.abs(gamma_op @ vectors - vectors * values[:, None, :]).max(axis=(1, 2))
    m_a, m_b = vectors[:, :, 0], vectors[:, :, 1]
    ortho_err = np.maximum(
        np.abs(np.linalg.norm(vectors, axis=1) - 1.0).max(axis=1),
        np.abs((m_a.conj() * m_b).sum(axis=1)),
    )
    # <m_b|r> is the conjugate of m_b's first entry, r being the first basis
    # state; the marked state U r is the first column of U.
    success = omega_b * np.abs(m_b[:, 0]) ** 2 + omega_a * np.abs(
        (m_a.conj() * p.unitary[:, :, 0]).sum(axis=1)
    ) ** 2
    helstrom_err = np.abs(
        success - 0.5 * (1.0 + distinguishability_trace_norms(p.unitary, omega_a, omega_b))
    )
    prior_gap = np.maximum(omega_a, omega_b) - success
    errors = np.maximum(np.maximum(eig_err, ortho_err), np.maximum(helstrom_err, prior_gap - 1e-12))
    skipped = _basis_is_degenerate(values)
    return np.where(skipped, np.nan, errors), skipped


def _min_error_basis_closed_form(a_overlap, gamma, marked, omega_a, omega_b):
    """Textbook closed-form expressions for the optimal discrimination basis.

    Takes 1-D arrays with one entry per point, and the marked detector
    states U|r> as the rows of ``marked`` (n, 2); returns (m_a, m_b), each
    (n, 2), one basis vector per row. Valid on interior parameter points
    only: 0 < a_overlap < 1, omega_a > 0, and a real positive overlap
    (gamma = 0); the formulas are singular at the domain edges, and
    InvalidInputError is raised if any point lies outside them. The
    secondary oracle for min_error_basis.
    """
    a, wa, wb = a_overlap, omega_a, omega_b
    if not ((0.0 < a) & (a < 1.0)).all():
        raise InvalidInputError("closed-form basis requires 0 < a_overlap < 1")
    if not (wa > 0.0).all():
        raise InvalidInputError("closed-form basis requires omega_a > 0")
    # gamma's distance to the nearest multiple of 2 pi.
    if (np.abs(gamma - TWO_PI * np.round(gamma / TWO_PI)) > 1e-9).any():
        raise InvalidInputError("closed-form basis assumes a real overlap (gamma = 0)")

    bias = np.sqrt(1.0 - 4.0 * wa * wb * a * a)
    root = np.sqrt(1.0 - a * a)
    coeff_a = (1.0 - bias) / (2.0 * wa * a)
    coeff_b = (1.0 + bias) / (2.0 * wa * a)
    spread = 1.0 - 4.0 * wa * wb * a * a
    tilt = bias * (1.0 - 2.0 * wa * a * a)
    scale = 2.0 * wa * wa * a * a * (1.0 - a * a)
    norm_a = np.sqrt((spread - tilt) / scale)
    norm_b = np.sqrt((spread + tilt) / scale)
    reference = np.array([1.0, 0.0])
    m_a = (marked - coeff_a[:, None] * reference) / (norm_a * root)[:, None]
    m_b = (marked - coeff_b[:, None] * reference) / (norm_b * root)[:, None]
    # The printed normalization constants cancel to ~1e-12 near the domain
    # corners; certify them at a conditioning-appropriate tolerance, then
    # tighten to machine precision so the basis contract holds.
    length_a, length_b = np.linalg.norm(m_a, axis=1), np.linalg.norm(m_b, axis=1)
    norm_defect = np.maximum(np.abs(length_a - 1.0), np.abs(length_b - 1.0)).max()
    if not norm_defect <= 1e-9:  # a NaN length fails too
        raise InvalidInputError(
            f"closed-form normalization failed its self-check ({norm_defect:.3e})"
        )
    return m_a / length_a[:, None], m_b / length_b[:, None]


def _measurement_basis_closed_form(rng, draws):
    # The printed closed-form basis assumes a real overlap and is numerically
    # singular at the domain edges, so the draws stay comfortably interior.
    # Per draw: the overlap, delta, then omega_a; gamma is 0.
    ranges = ((0.05, 0.95), (0.0, TWO_PI), (0.05, 0.95))
    a_overlap, delta, omega_a = _uniform_columns(rng, draws, ranges)
    omega_b = 1.0 - omega_a
    gamma = np.zeros(draws)
    unitary = marking_unitaries(a_overlap, gamma, delta)
    _, numeric = _hermitian_eig2(*_discrimination_entries(unitary, omega_a, omega_b))
    literal = _min_error_basis_closed_form(a_overlap, gamma, unitary[:, :, 0], omega_a, omega_b)
    return _none_skipped(
        np.maximum(
            _phase_aligned_distances(numeric[:, :, 0], literal[0]),
            _phase_aligned_distances(numeric[:, :, 1], literal[1]),
        )
    )


def _phase_aligned_distances(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    # |v - e^{i theta} w| per row, theta aligning w's phase with v's; where
    # the overlap vanishes there is no phase to align, and w is taken as is.
    overlap = (w.conj() * v).sum(axis=1)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size >= 1e-300)
    return np.linalg.norm(v - w * phase[:, None], axis=1)


def _complementarity(rng, draws):
    v, d, residual, *_ = _closed_columns(_draw_points(rng, draws))
    return _none_skipped(
        np.maximum(np.abs(1.0 - v * v - d * d - residual), v * v + d * d - 1.0 - 1e-12)
    )


def _eig_reconstruction(rng, draws):
    # Per draw: the two diagonal entries, then the off-diagonal's real and
    # imaginary parts.
    entries = _uniform_columns(rng, draws, [(-1.0, 1.0)] * 4)
    h = _hermitian(*entries)
    values, vectors = _hermitian_eig2(*entries)
    adjoint = vectors.conj().swapaxes(1, 2)
    rebuilt = (vectors * values[:, None, :]) @ adjoint
    return _none_skipped(
        np.maximum(_largest_entries(rebuilt - h), _largest_entries(adjoint @ vectors - np.eye(2)))
    )


def _extremum_loci(rng, draws):
    # Per draw: lam, the overlap, beta, and s_x / sqrt(lam). The scalar API
    # predicts each draw's loci; each grid oracle searches every draw at once.
    ranges = ((0.05, 1.0), (0.05, 1.0), (0.05, math.pi - 0.05), (-0.95, 0.95))
    lam, a, beta, share = _uniform_columns(rng, draws, ranges)
    s_x = share * np.sqrt(lam)
    lams, overlaps, betas, xs = (c.tolist() for c in (lam, a, beta, s_x))
    angles = map(BeamSplitterAngle, betas)
    predicted = [
        [visibility_peak_fixed_beta(*p)[0] for p in zip(lams, overlaps, angles)],
        [visibility_peak_fixed_sx(*p)[0] for p in zip(xs, lams, overlaps)],
        [distinguishability_valley(*p)[0] for p in zip(xs, overlaps)],
    ]
    found = [
        grid_visibility_peak_fixed_beta(lam, a, beta)[0],
        grid_visibility_peak_fixed_sx(s_x, lam, a)[0],
        grid_distinguishability_valley(s_x, a)[0],
    ]
    return _none_skipped(np.abs(np.array(found) - predicted).max(axis=0))


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
    "distinguishability_oracle": Check(_distinguishability_oracle, 1e-10),
    "weights_identity": Check(_weights_identity, 1e-12),
    "phase_invariance": Check(_phase_invariance, 1e-10),
    "min_error_measurement": Check(_min_error_measurement, 1e-10),
    "measurement_basis_closed_form": Check(_measurement_basis_closed_form, 1e-8),
    "complementarity": Check(_complementarity, 1e-12),
    "eig_reconstruction": Check(_eig_reconstruction, 1e-10),
    "extremum_loci": Check(_extremum_loci, 1e-3),
}


def run_check(
    name: str, rng: np.random.Generator, draws: int, tol: float
) -> tuple[int, float]:
    """(failures, worst error) of one registered check over ``draws`` draws.

    Skipped draws count neither way; an all-skipped run reports (0, 0.0).
    """
    errors, skipped = CHECKS[name].errors(rng, draws)
    kept = errors[~skipped]
    # The negated test and max let a NaN error fail and stick.
    return int(np.count_nonzero(~(kept <= tol))), float(kept.max(initial=0.0))


def run_verification(config: RunConfig) -> dict[str, dict[str, float]]:
    """Run every suite; returns {suite: {cases, failures, max_error}}.

    A suite that raises DualityError (say, a density check failing on the
    library's own output) fails every draw with max_error NaN, noted on stderr.
    """
    summary: dict[str, dict[str, float]] = {}
    for index, name in enumerate(CHECKS):
        rng = np.random.default_rng([config.seed, index])
        try:
            failures, worst = run_check(name, rng, config.draws, config.tolerance(name))
        except DualityError as exc:
            print(f"warning: suite {name} raised: {exc}", file=sys.stderr)
            failures, worst = config.draws, math.nan
        summary[name] = {
            "cases": config.draws,
            "failures": int(failures),
            "max_error": float(worst),
        }
    return summary


def all_passed(summary: Mapping[str, Mapping[str, float]]) -> bool:
    return all(entry["failures"] == 0 for entry in summary.values())
