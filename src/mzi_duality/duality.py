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
    require_in_range,
)
from .interferometer import (
    _DETECTOR_START,
    TWO_PI,
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    _scan_grid,
    port_denominator,
    port_matrices,
    probabilities_at,
    probabilities_on,
)
from .interferometer import phase_probe  # noqa: F401  (kept importable here; bench/tracing.py wraps it)
from .linalg import _trace_norms, hermitian_eig2, trace_norm

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

DARK_PORT_WEIGHTS = "monitored port has zero intensity; weights undefined"
DARK_PORT_CONTRAST = "monitored port has zero intensity; fringe contrast is 0/0"
WEIGHT_RANGE_MESSAGE = "{name} out of [0, 1]: {value!r}"
WEIGHT_SUM_MESSAGE = "path weights must sum to 1"


def splitter_trig(beta):
    """(sin beta, cos beta) of a splitter angle or an array of them.

    The closest double to the half-turn boundary is treated as an exact half
    turn, so the boundary statements V=0, D=1, residual=0 hold exactly.
    """
    if isinstance(beta, np.ndarray):
        return np.where(beta == math.pi, 0.0, np.sin(beta)), np.cos(beta)
    return (0.0 if beta == math.pi else math.sin(beta)), math.cos(beta)


def port_is_dark(den):
    """Whether a port denominator (interferometer.port_denominator), or each
    of an array of them, leaves the monitored port dark, so that V, D, the
    residual and the path weights are undefined there."""
    return den <= DENOMINATOR_TOL


# The closed forms for V, D, the residual and the path weights, written once.
# Arguments are scalars or broadcastable arrays; callers supply the trig
# (splitter_trig) and the port denominator den = 1 + s_x cos(beta)
# (port_denominator), and check the latter with port_is_dark themselves. V
# comes back unclipped. Squares are written as products, which round the same
# for floats and arrays (a float's ** 2 goes through pow).


def visibility_kernel(yz, a_overlap, sin_beta, den):
    """V = A sin(beta) |(s_y, s_z)| / den."""
    return a_overlap * sin_beta * yz / den


def distinguishability_kernel(s_x, a_overlap, sin_beta, den):
    """D = sqrt(1 - (A sin(beta) / den)^2 (1 - s_x)(1 + s_x))."""
    ratio = a_overlap * sin_beta / den
    return np.sqrt(np.maximum(1.0 - ratio * ratio * (1.0 - s_x) * (1.0 + s_x), 0.0))


def residual_kernel(lam, a_overlap, sin_beta, den):
    """1 - V^2 - D^2 = (A sin(beta) / den)^2 (1 - lam)."""
    ratio = a_overlap * sin_beta / den
    return ratio * ratio * (1.0 - lam)


def weights_kernel(s_x, beta, den):
    """(omega_a, omega_b) = (cos^2(beta/2) (1 + s_x), sin^2(beta/2) (1 - s_x)) / den."""
    cos_half, sin_half = np.cos(0.5 * beta), np.sin(0.5 * beta)
    return cos_half * cos_half * (1.0 + s_x) / den, sin_half * sin_half * (1.0 - s_x) / den


def weights_message(omega_a: float, omega_b: float) -> str | None:
    """Why finite path weights are invalid, or None when each lies in [0, 1]
    and they sum to 1, both within WEIGHT_TOL: the rule PathWeights enforces."""
    for name, value in (("omega_a", omega_a), ("omega_b", omega_b)):
        if not -WEIGHT_TOL <= value <= 1.0 + WEIGHT_TOL:
            return WEIGHT_RANGE_MESSAGE.format(name=name, value=value)
    if abs(omega_a + omega_b - 1.0) > WEIGHT_TOL:
        return WEIGHT_SUM_MESSAGE
    return None


@dataclass(frozen=True)
class PathWeights:
    """Prior probabilities of the two paths conditioned on the monitored port."""

    omega_a: float
    omega_b: float

    def __post_init__(self):
        require_finite(omega_a=self.omega_a, omega_b=self.omega_b)
        message = weights_message(self.omega_a, self.omega_b)
        if message is not None:
            raise InvalidInputError(message)


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
    require_finite(a_overlap=a_overlap)
    require_in_range("a_overlap", a_overlap)
    sin_beta, cos_beta = splitter_trig(beta.beta)
    den = port_denominator(state.s_x, cos_beta)
    if port_is_dark(den):
        raise UndefinedVisibilityError(DARK_PORT_CONTRAST)
    v = visibility_kernel(state.yz_norm, a_overlap, sin_beta, den)
    return min(max(v, 0.0), 1.0)


# Interior samples per bracket and refinement round. Narrowing a bracket to
# its best sample +- one spacing shrinks it by (n + 1) / 2 = 16 per round, so
# a default scan refines in 8 rounds. Each round costs about the same as the
# whole cached 4096-point grid, so 31 samples beat 15 (11 rounds) end to end.
_REFINE_SAMPLES = 31
_SAMPLE_INDEX = np.arange(1, _REFINE_SAMPLES + 1)
# Points per block: a block's grid probabilities, 32 x 4096 doubles, are 1 MB
# (the scan's work array holds them and the second product, 2 MB), and its
# refinement arrays a fraction of that, whatever the number of points.
_SCAN_CHUNK = 32


def _refine_extrema(m: np.ndarray, phi_max: np.ndarray, phi_min: np.ndarray, step: float):
    # Bracket search on [phi - step, phi + step] around each point's grid
    # maximum and minimum, all 2n brackets in one probe call per round. Each
    # bracket holds exactly one extremum of the (sinusoidal, hence locally
    # unimodal) fringe, so the extremum lies within one spacing of the best
    # sample.
    n = len(m)
    pairs = np.concatenate([m, m])
    rows = np.arange(2 * n)
    lo = np.concatenate([phi_max, phi_min]) - step
    width = 2.0 * step
    while width > PHASE_REFINE_TOL:
        spacing = width / (_REFINE_SAMPLES + 1)
        samples = lo[:, None] + spacing * _SAMPLE_INDEX
        values = probabilities_at(pairs, samples)
        best = np.concatenate([values[:n].argmax(axis=1), values[n:].argmin(axis=1)])
        lo = samples[rows, best] - spacing
        width = 2.0 * spacing
    refined = probabilities_at(pairs, (lo + 0.5 * width)[:, None])[:, 0]
    return refined[:n], refined[n:]


def _scan_block(m: np.ndarray, grid: tuple, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # p_max and p_min of each folded point of a block: the probabilities on
    # the grid (phases and phase-product table), written into the scan's work
    # array, then the refinement, keeping the grid value where it is better.
    phis, re, im = grid
    values = probabilities_on(m, re, im, work)
    rows = np.arange(len(m))
    k_max = values.argmax(axis=1)  # ties resolve toward the smallest phase
    k_min = values.argmin(axis=1)
    grid_max, grid_min = values[rows, k_max], values[rows, k_min]
    refined_max, refined_min = _refine_extrema(m, phis[k_max], phis[k_min], TWO_PI / len(phis))
    return np.maximum(refined_max, grid_max), np.minimum(refined_min, grid_min)


def visibility_scans(s_x, s_y, s_z, unitary, beta, grid_size: int = DEFAULT_SCAN_GRID):
    """Fringe contrast of n points by explicit extremization over the phase dial.

    ``s_x``, ``s_y``, ``s_z`` and ``beta`` are 1-D arrays, one entry per
    point, of validated inputs; ``unitary`` is one (2, 2) marking unitary
    for every point or an (n, 2, 2) stack of them, one per point. Returns
    ``(visibility, defined)``: ``defined`` is False, and the visibility NaN,
    where p_max + p_min, the scan's own port denominator, leaves the port
    dark (port_is_dark; contrast 0/0).

    Folds all points at once (interferometer.port_matrices), then scans them
    in blocks of _SCAN_CHUNK points. A block's port-a probabilities on a
    uniform phase grid over [0, 2*pi) come from one product with the grid's
    cached phase-product table, written into one work array of shape
    (2, min(n, _SCAN_CHUNK), grid_size) that the call allocates once and
    every block reuses. The block's maxima and minima are then
    refined together: each round samples all its brackets at 31 interior
    phases in a single probe call and narrows each to its best sample +- one
    spacing, until the brackets are narrower than PHASE_REFINE_TOL. Every
    sampled phase sums all 16 terms of the pipeline's quadratic form.
    """
    if grid_size < MIN_SCAN_GRID:
        raise InvalidInputError(f"grid_size must be at least {MIN_SCAN_GRID}")
    m = port_matrices(s_x, s_y, s_z, unitary, beta)
    grid = _scan_grid(grid_size)
    # One work array for every block's grid products, allocated per call so
    # that the scan keeps no state between calls.
    work = np.empty((2, min(len(m), _SCAN_CHUNK), grid_size))
    p_max, p_min = np.empty((2, len(m)))
    for start in range(0, len(m), _SCAN_CHUNK):
        block = slice(start, start + _SCAN_CHUNK)
        p_max[block], p_min[block] = _scan_block(m[block], grid, work)
    total = p_max + p_min
    defined = ~port_is_dark(total)
    visibility = np.full(len(m), np.nan)
    np.divide(p_max - p_min, total, out=visibility, where=defined)
    return visibility, defined


def visibility_scan(
    state: BlochState,
    det: DetectorConfig,
    beta: BeamSplitterAngle,
    grid_size: int = DEFAULT_SCAN_GRID,
) -> float:
    """Fringe contrast measured by explicit extremization over the phase dial.

    The one-point case of visibility_scans, which holds the method: the
    port-a probability through the full operator pipeline on a uniform phase
    grid over [0, 2*pi), then both extrema refined to PHASE_REFINE_TOL, every
    sampled phase summing all 16 terms of the pipeline's quadratic form.
    Serves as the independent oracle for visibility_closed.
    """
    visibility, defined = visibility_scans(
        [state.s_x], [state.s_y], [state.s_z], det.unitary, [beta.beta], grid_size
    )
    if not defined[0]:
        raise UndefinedVisibilityError(DARK_PORT_CONTRAST)
    return float(visibility[0])


def path_weights(s_x: float, beta: BeamSplitterAngle) -> PathWeights:
    """Prior weights of paths a and b given detection at the monitored port."""
    require_finite(s_x=s_x)
    if abs(s_x) > 1.0 + WEIGHT_TOL:
        raise InvalidInputError(f"s_x must lie in [-1, 1], got {s_x!r}")
    den = port_denominator(s_x, math.cos(beta.beta))
    if port_is_dark(den):
        raise InvalidInputError(DARK_PORT_WEIGHTS)
    omega_a, omega_b = weights_kernel(s_x, beta.beta, den)
    return PathWeights(float(omega_a), float(omega_b))


def _detector_branches(unitary) -> tuple[np.ndarray, np.ndarray]:
    # Detector states left by path b (unmarked, rho_d) and path a (marked,
    # U rho_d U^dagger), for a (2, 2) marking unitary or an (n, 2, 2) stack.
    u = np.asarray(unitary)
    return _DETECTOR_START, u @ _DETECTOR_START @ u.conj().swapaxes(-1, -2)


def distinguishability_closed(
    s_x: float, beta: BeamSplitterAngle, a_overlap: float
) -> float:
    """Optimal which-path guessing bias, closed form.

    Algebraically equal to sqrt(1 - 4*omega_a*omega_b*a_overlap^2).
    """
    require_finite(s_x=s_x, a_overlap=a_overlap)
    require_in_range("a_overlap", a_overlap)
    if abs(s_x) > 1.0 + WEIGHT_TOL:
        raise InvalidInputError(f"s_x must lie in [-1, 1], got {s_x!r}")
    sin_beta, cos_beta = splitter_trig(beta.beta)
    den = port_denominator(s_x, cos_beta)
    if port_is_dark(den):
        raise InvalidInputError(
            "monitored port has zero intensity; distinguishability undefined"
        )
    return float(distinguishability_kernel(s_x, a_overlap, sin_beta, den))


def _discrimination_operator(det: DetectorConfig, weights: PathWeights) -> np.ndarray:
    unmarked, marked = _detector_branches(det.unitary)
    return weights.omega_a * marked - weights.omega_b * unmarked


def distinguishability_trace_norm(det: DetectorConfig, weights: PathWeights) -> float:
    """Trace-norm route to the distinguishability; oracle for the closed form."""
    return trace_norm(_discrimination_operator(det, weights))


def distinguishability_trace_norms(unitary, omega_a, omega_b) -> np.ndarray:
    """distinguishability_trace_norm over 1-D arrays of path weights.

    ``unitary`` is one (2, 2) marking unitary for every point or an
    (n, 2, 2) stack of them. The weights are taken as validated (see
    PathWeights); the trace norms come from one stacked 2x2 eigenvalue pass.
    """
    unmarked, marked = _detector_branches(unitary)
    ops = np.asarray(omega_a)[:, None, None] * marked - np.asarray(omega_b)[:, None, None] * unmarked
    return _trace_norms(ops)


def _min_error_eig(gamma_op: np.ndarray) -> tuple[np.ndarray, MeasurementBasis]:
    # Eigenvalues (descending) of a discrimination operator and the basis of
    # its eigenvectors; DegenerateBasisError when the gap is at most
    # BASIS_GAP_TOL.
    values, vectors = hermitian_eig2(gamma_op)
    if values[0] - values[1] <= BASIS_GAP_TOL:
        canonical = MeasurementBasis(
            np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
        )
        raise DegenerateBasisError(
            "detector states coincide; any orthonormal basis is optimal", canonical
        )
    return values, MeasurementBasis(m_a=vectors[:, 0], m_b=vectors[:, 1])


def min_error_basis(det: DetectorConfig, weights: PathWeights) -> MeasurementBasis:
    """Projective measurement that discriminates the two detector states optimally.

    ``m_a`` is the eigenvector of the weighted state difference with positive
    eigenvalue (outcome a means: guess the marked state, i.e. path a), ``m_b``
    the one with negative eigenvalue. Computed by eigendecomposition, which
    stays well-conditioned over the whole parameter domain.
    """
    return _min_error_eig(_discrimination_operator(det, weights))[1]


def complementarity_residual(
    state: BlochState, a_overlap: float, beta: BeamSplitterAngle
) -> float:
    """The gap 1 - V^2 - D^2, in closed form; zero exactly on the saturation slices."""
    require_finite(a_overlap=a_overlap)
    require_in_range("a_overlap", a_overlap)
    sin_beta, cos_beta = splitter_trig(beta.beta)
    den = port_denominator(state.s_x, cos_beta)
    if port_is_dark(den):
        raise InvalidInputError("monitored port has zero intensity; residual undefined")
    return residual_kernel(state.lam, a_overlap, sin_beta, den)


def visibility_peak_fixed_beta(
    lam: float, a_overlap: float, beta: BeamSplitterAngle
) -> tuple[float, float]:
    """Location and value of the visibility peak over s_x at a fixed splitter angle."""
    require_finite(lam=lam, a_overlap=a_overlap)
    require_in_range("a_overlap", a_overlap)
    require_in_range("lam", lam, hi=1.0 + WEIGHT_TOL)
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
    require_finite(s_x=s_x, lam=lam, a_overlap=a_overlap)
    require_in_range("a_overlap", a_overlap)
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
    require_finite(s_x=s_x, a_overlap=a_overlap)
    require_in_range("a_overlap", a_overlap)
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
