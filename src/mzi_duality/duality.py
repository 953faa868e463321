"""Wave-particle duality measures for the asymmetric-output interferometer.

Fringe visibility (wave side) and which-path distinguishability (particle
side) each come in two independent flavors: a closed-form expression and a
brute-force route through the operator pipeline (explicit fringe
extremization, trace-norm state discrimination). Their agreement, the
complementarity identity V^2 + D^2 + residual = 1, and the location of every
peak and valley are enforced by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBasisError,
    InvalidInputError,
    NoExtremumError,
    UndefinedVisibilityError,
    require_finite,
)
from .interferometer import (
    TWO_PI,
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    phase_probe,
)
from .linalg import DensityOperator, hermitian_eig2, trace_norm

DENOMINATOR_TOL = 1e-12
WEIGHT_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
NORM_TOL = 1e-12
BASIS_GAP_TOL = 1e-12
COMPLEMENTARITY_TOL = 1e-10
RESIDUAL_FLOOR = -1e-12
PHASE_REFINE_TOL = 1e-12
MIN_SCAN_GRID = 64
DEFAULT_SCAN_GRID = 4096


def splitter_trig(beta):
    """(sin beta, cos beta) of a splitter angle or an array of them.

    The closest double to the half-turn boundary is treated as an exact half
    turn, so the boundary statements V=0, D=1, residual=0 hold exactly.
    """
    if isinstance(beta, np.ndarray):
        return np.where(beta == math.pi, 0.0, np.sin(beta)), np.cos(beta)
    return (0.0 if beta == math.pi else math.sin(beta)), math.cos(beta)


def _port_denominator(s_x: float, beta: float) -> float:
    den = 1.0 + s_x * math.cos(beta)
    return den


# The closed forms for V and D, written once. Arguments are scalars or
# broadcastable arrays; callers supply the trig (splitter_trig) and check the
# port denominator 1 + s_x cos(beta) themselves. V comes back unclipped.


def visibility_kernel(s_x, yz, a_overlap, sin_beta, cos_beta):
    """V = A sin(beta) |(s_y, s_z)| / (1 + s_x cos(beta))."""
    return a_overlap * sin_beta * yz / (1.0 + s_x * cos_beta)


def distinguishability_kernel(s_x, a_overlap, sin_beta, cos_beta):
    """D = sqrt(1 - (A sin(beta) / (1 + s_x cos(beta)))^2 (1 - s_x)(1 + s_x))."""
    ratio = (a_overlap * sin_beta / (1.0 + s_x * cos_beta)) ** 2 * (1.0 - s_x) * (1.0 + s_x)
    return np.sqrt(np.maximum(1.0 - ratio, 0.0))


def _check_overlap(a_overlap: float) -> None:
    require_finite(a_overlap=a_overlap)
    if not 0.0 <= a_overlap <= 1.0:
        raise InvalidInputError(f"a_overlap must lie in [0, 1], got {a_overlap!r}")


@dataclass(frozen=True)
class PathWeights:
    """Prior probabilities of the two paths conditioned on the monitored port."""

    omega_a: float
    omega_b: float

    def __post_init__(self):
        require_finite(omega_a=self.omega_a, omega_b=self.omega_b)
        if not -WEIGHT_TOL <= self.omega_a <= 1.0 + WEIGHT_TOL:
            raise InvalidInputError(f"omega_a out of [0, 1]: {self.omega_a!r}")
        if not -WEIGHT_TOL <= self.omega_b <= 1.0 + WEIGHT_TOL:
            raise InvalidInputError(f"omega_b out of [0, 1]: {self.omega_b!r}")
        if abs(self.omega_a + self.omega_b - 1.0) > WEIGHT_TOL:
            raise InvalidInputError("path weights must sum to 1")


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Orthonormal detector basis of a two-outcome projective measurement."""

    m_a: np.ndarray
    m_b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.m_a, dtype=complex)
        b = np.asarray(self.m_b, dtype=complex)
        if a.shape != (2,) or b.shape != (2,):
            raise InvalidInputError("basis vectors must be complex 2-vectors")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise InvalidInputError("basis vectors must be finite")
        if abs(np.linalg.norm(a) - 1.0) > NORM_TOL or abs(np.linalg.norm(b) - 1.0) > NORM_TOL:
            raise InvalidInputError("basis vectors must be normalized")
        if abs(np.vdot(a, b)) > ORTHONORMALITY_TOL:
            raise InvalidInputError("basis vectors must be orthogonal")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "m_a", a)
        object.__setattr__(self, "m_b", b)


@dataclass(frozen=True)
class DualityReport:
    """Visibility, distinguishability, and the complementarity residual 1 - V^2 - D^2."""

    visibility: float
    distinguishability: float
    residual: float

    def __post_init__(self):
        require_finite(
            visibility=self.visibility,
            distinguishability=self.distinguishability,
            residual=self.residual,
        )
        if not 0.0 <= self.visibility <= 1.0:
            raise InvalidInputError(f"visibility out of [0, 1]: {self.visibility!r}")
        if not 0.0 <= self.distinguishability <= 1.0:
            raise InvalidInputError(
                f"distinguishability out of [0, 1]: {self.distinguishability!r}"
            )
        if self.residual < RESIDUAL_FLOOR:
            raise InvalidInputError(f"residual must be nonnegative: {self.residual!r}")
        if self.visibility**2 + self.distinguishability**2 > 1.0 + COMPLEMENTARITY_TOL:
            raise InvalidInputError("V^2 + D^2 exceeds 1")


def visibility_closed(
    state: BlochState, a_overlap: float, beta: BeamSplitterAngle
) -> float:
    """Fringe contrast (max-min)/(max+min) of the port-a probability, closed form."""
    _check_overlap(a_overlap)
    den = _port_denominator(state.s_x, beta.beta)
    if den <= DENOMINATOR_TOL:
        raise UndefinedVisibilityError(
            "monitored port has zero intensity; fringe contrast is 0/0"
        )
    v = visibility_kernel(state.s_x, state.yz_norm, a_overlap, *splitter_trig(beta.beta))
    return min(max(v, 0.0), 1.0)


# Interior samples per bracket and refinement round. Narrowing a bracket to
# its best sample +- one spacing shrinks it by (n + 1) / 2 = 8 per round.
_REFINE_SAMPLES = 15
_SAMPLE_INDEX = np.arange(1, _REFINE_SAMPLES + 1)


def _refine_extrema(probe, phi_max: float, phi_min: float, step: float) -> np.ndarray:
    # Bracket search on [phi - step, phi + step] around the grid maximum and
    # minimum, both brackets in one probe call per round. Each bracket holds
    # exactly one extremum of the (sinusoidal, hence locally unimodal)
    # fringe, so the extremum lies within one spacing of the best sample.
    lo = np.array([phi_max, phi_min]) - step
    width = 2.0 * step
    while width > PHASE_REFINE_TOL:
        spacing = width / (_REFINE_SAMPLES + 1)
        samples = lo[:, None] + spacing * _SAMPLE_INDEX
        values = probe(samples.ravel()).reshape(samples.shape)
        best = np.array([samples[0, values[0].argmax()], samples[1, values[1].argmin()]])
        lo = best - spacing
        width = 2.0 * spacing
    return probe(lo + 0.5 * width)


def visibility_scan(
    state: BlochState,
    det: DetectorConfig,
    beta: BeamSplitterAngle,
    grid_size: int = DEFAULT_SCAN_GRID,
) -> float:
    """Fringe contrast measured by explicit extremization over the phase dial.

    Evaluates the port-a probability through the full operator pipeline on a
    uniform phase grid over [0, 2*pi), then refines the maximum and the
    minimum together: each round samples both brackets at 15 interior phases
    in a single probe call and narrows each to its best sample +- one
    spacing, until the brackets are narrower than PHASE_REFINE_TOL. Serves as
    the independent oracle for visibility_closed.
    """
    if grid_size < MIN_SCAN_GRID:
        raise InvalidInputError(f"grid_size must be at least {MIN_SCAN_GRID}")
    probe = phase_probe(state, det, beta)
    step = TWO_PI / grid_size
    phis = step * np.arange(grid_size)
    values = probe(phis)
    k_max = int(np.argmax(values))  # ties resolve toward the smallest phase
    k_min = int(np.argmin(values))
    refined_max, refined_min = _refine_extrema(probe, phis[k_max], phis[k_min], step)
    p_max = max(float(refined_max), float(values[k_max]))
    p_min = min(float(refined_min), float(values[k_min]))
    total = p_max + p_min
    if total <= DENOMINATOR_TOL:
        raise UndefinedVisibilityError(
            "monitored port has zero intensity; fringe contrast is 0/0"
        )
    return (p_max - p_min) / total


def path_weights(s_x: float, beta: BeamSplitterAngle) -> PathWeights:
    """Prior weights of paths a and b given detection at the monitored port."""
    require_finite(s_x=s_x)
    if abs(s_x) > 1.0 + WEIGHT_TOL:
        raise InvalidInputError(f"s_x must lie in [-1, 1], got {s_x!r}")
    den = _port_denominator(s_x, beta.beta)
    if den <= DENOMINATOR_TOL:
        raise InvalidInputError("monitored port has zero intensity; weights undefined")
    half = 0.5 * beta.beta
    omega_a = math.cos(half) ** 2 * (1.0 + s_x) / den
    omega_b = math.sin(half) ** 2 * (1.0 - s_x) / den
    return PathWeights(omega_a, omega_b)


def _detector_branches(det: DetectorConfig) -> tuple[np.ndarray, np.ndarray]:
    # Detector states left by path b (unmarked, rho_d) and path a (marked,
    # U rho_d U^dagger).
    u = det.unitary
    rho_d = np.outer(det.reference_state, det.reference_state.conj())
    return rho_d, u @ rho_d @ u.conj().T


def detector_mixture(det: DetectorConfig, weights: PathWeights) -> DensityOperator:
    """Detector state conditioned on the monitored port: a two-branch mixture."""
    unmarked, marked = _detector_branches(det)
    return DensityOperator(weights.omega_b * unmarked + weights.omega_a * marked)


def distinguishability_closed(
    s_x: float, beta: BeamSplitterAngle, a_overlap: float
) -> float:
    """Optimal which-path guessing bias, closed form.

    Algebraically equal to sqrt(1 - 4*omega_a*omega_b*a_overlap^2).
    """
    require_finite(s_x=s_x)
    _check_overlap(a_overlap)
    if abs(s_x) > 1.0 + WEIGHT_TOL:
        raise InvalidInputError(f"s_x must lie in [-1, 1], got {s_x!r}")
    den = _port_denominator(s_x, beta.beta)
    if den <= DENOMINATOR_TOL:
        raise InvalidInputError(
            "monitored port has zero intensity; distinguishability undefined"
        )
    return float(distinguishability_kernel(s_x, a_overlap, *splitter_trig(beta.beta)))


def _discrimination_operator(det: DetectorConfig, weights: PathWeights) -> np.ndarray:
    unmarked, marked = _detector_branches(det)
    return weights.omega_a * marked - weights.omega_b * unmarked


def distinguishability_trace_norm(det: DetectorConfig, weights: PathWeights) -> float:
    """Trace-norm route to the distinguishability; oracle for the closed form."""
    return trace_norm(_discrimination_operator(det, weights))


def min_error_basis(det: DetectorConfig, weights: PathWeights) -> MeasurementBasis:
    """Projective measurement that discriminates the two detector states optimally.

    ``m_a`` is the eigenvector of the weighted state difference with positive
    eigenvalue (outcome a means: guess the marked state, i.e. path a), ``m_b``
    the one with negative eigenvalue. Computed by eigendecomposition, which
    stays well-conditioned over the whole parameter domain.
    """
    gamma_op = _discrimination_operator(det, weights)
    values, vectors = hermitian_eig2(gamma_op)
    if values[0] - values[1] <= BASIS_GAP_TOL:
        canonical = MeasurementBasis(
            np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
        )
        raise DegenerateBasisError(
            "detector states coincide; any orthonormal basis is optimal", canonical
        )
    return MeasurementBasis(m_a=vectors[:, 0], m_b=vectors[:, 1])


def complementarity_residual(
    state: BlochState, a_overlap: float, beta: BeamSplitterAngle
) -> float:
    """The gap 1 - V^2 - D^2, in closed form; zero exactly on the saturation slices."""
    _check_overlap(a_overlap)
    den = _port_denominator(state.s_x, beta.beta)
    if den <= DENOMINATOR_TOL:
        raise InvalidInputError("monitored port has zero intensity; residual undefined")
    sin_beta, _ = splitter_trig(beta.beta)
    return (a_overlap * sin_beta / den) ** 2 * (1.0 - state.lam)


def visibility_peak_fixed_beta(
    lam: float, a_overlap: float, beta: BeamSplitterAngle
) -> tuple[float, float]:
    """Location and value of the visibility peak over s_x at a fixed splitter angle."""
    require_finite(lam=lam)
    _check_overlap(a_overlap)
    if lam < 0.0 or lam > 1.0 + WEIGHT_TOL:
        raise InvalidInputError(f"lam must lie in [0, 1], got {lam!r}")
    if not 0.0 < beta.beta < math.pi:
        raise InvalidInputError("peak over s_x requires beta strictly inside (0, pi)")
    if lam == 0.0:
        raise NoExtremumError("visibility is identically zero for a maximally mixed input")
    s_x_star = -lam * math.cos(beta.beta)
    state = BlochState(s_x_star, 0.0, math.sqrt(max(lam - s_x_star * s_x_star, 0.0)))
    return s_x_star, visibility_closed(state, a_overlap, beta)


def visibility_peak_fixed_sx(
    s_x: float, lam: float, a_overlap: float
) -> tuple[float, float]:
    """Location and value of the visibility peak over the splitter angle at fixed s_x."""
    require_finite(s_x=s_x, lam=lam)
    _check_overlap(a_overlap)
    if abs(s_x) > 1.0:
        raise InvalidInputError(f"s_x must lie in [-1, 1], got {s_x!r}")
    if abs(s_x) == 1.0:
        raise NoExtremumError("visibility is identically zero when the path is certain")
    if not s_x * s_x <= lam <= 1.0 + WEIGHT_TOL:
        raise InvalidInputError("lam must satisfy s_x^2 <= lam <= 1")
    beta_star = math.acos(-s_x)
    v_star = (
        a_overlap
        * math.sqrt(max(lam - s_x * s_x, 0.0))
        / math.sqrt((1.0 - s_x) * (1.0 + s_x))
    )
    return beta_star, v_star


def distinguishability_valley(s_x: float, a_overlap: float) -> tuple[float, float]:
    """Location and value of the distinguishability minimum over the splitter angle."""
    require_finite(s_x=s_x)
    _check_overlap(a_overlap)
    if abs(s_x) > 1.0:
        raise InvalidInputError(f"s_x must lie in [-1, 1], got {s_x!r}")
    if abs(s_x) == 1.0:
        raise NoExtremumError(
            "distinguishability is identically 1 when the path is certain"
        )
    beta_star = math.acos(-s_x)
    d_star = math.sqrt(max(1.0 - a_overlap * a_overlap, 0.0))
    return beta_star, d_star


def duality_report(
    state: BlochState, det: DetectorConfig, beta: BeamSplitterAngle
) -> DualityReport:
    """Closed-form V, D, and complementarity residual for one parameter point."""
    return DualityReport(
        visibility=visibility_closed(state, det.a_overlap, beta),
        distinguishability=distinguishability_closed(state.s_x, beta, det.a_overlap),
        residual=complementarity_residual(state, det.a_overlap, beta),
    )
