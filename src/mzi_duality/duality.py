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
    DarkPortError,
    DegenerateBasisError,
    InvalidInputError,
    NoExtremumError,
    require_finite,
    require_in_range,
)
from .interferometer import (
    _DETECTOR_START,
    BLOCH_NORM_TOL,
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    port_extrema,
    port_terms,
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

DARK_PORT = "monitored port has zero intensity; V, D, the residual and the path weights are undefined"
WEIGHT_RANGE_MESSAGE = "{name} out of [0, 1]: {value!r}"
WEIGHT_SUM_MESSAGE = "path weights must sum to 1"


def port_is_dark(den):
    """Whether a port denominator (interferometer.port_terms), or each
    of an array of them, leaves the monitored port dark, so that V, D, the
    residual and the path weights are undefined there."""
    return den <= DENOMINATOR_TOL


def _lit_port(s_x, beta):
    # The closed forms' shared preamble: (sin beta, port denominator) of a
    # point with |s_x| <= 1 (within WEIGHT_TOL) whose port is lit, else
    # InvalidInputError or DarkPortError; for arrays of points, (sin beta,
    # port denominator) arrays, or the error if any point fails. A float's
    # comparison is its own answer: np.any on it would cost microseconds.
    failing = np.any if isinstance(s_x, np.ndarray) else bool
    if failing(abs(s_x) > 1.0 + WEIGHT_TOL):
        raise InvalidInputError(f"s_x must lie in [-1, 1], got {s_x!r}")
    sin_beta, den = port_terms(s_x, beta)
    if failing(port_is_dark(den)):
        raise DarkPortError(DARK_PORT)
    return sin_beta, den


def closed_form_lengths(s_x, lam, yz):
    """(lam, |(s_y, s_z)|) as the closed forms use them, of a point or of
    arrays of points. A squared Bloch length above 1 (BlochState admits up
    to BLOCH_NORM_TOL more) is rounding slack of a pure state: it counts as
    lam = 1, with yz = sqrt(1 - s_x^2). Other points keep their own."""
    if isinstance(lam, np.ndarray):
        over = lam > 1.0
        pure_yz = np.sqrt(np.maximum(1.0 - s_x * s_x, 0.0))
        return np.where(over, 1.0, lam), np.where(over, pure_yz, yz)
    if lam > 1.0:
        return 1.0, math.sqrt(max(1.0 - s_x * s_x, 0.0))
    return lam, yz


# The closed forms for V, D, the residual and the path weights, written once.
# Arguments are scalars or broadcastable arrays; callers supply sin(beta) and
# den = 1 + s_x cos(beta) from interferometer.port_terms, and check den with
# port_is_dark (the scalar API and verify's stacked suites through _lit_port;
# verify's extremum oracles run them on lattices). V comes back unclipped.
# Squares are products, which round the same for floats and arrays (** uses pow).


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
    sin_beta, den = _lit_port(state.s_x, beta.beta)
    _, yz = closed_form_lengths(state.s_x, state.lam, state.yz_norm)
    v = visibility_kernel(yz, a_overlap, sin_beta, den)
    return min(max(v, 0.0), 1.0)


def visibility_scans(s_x, s_y, s_z, unitary, beta):
    """Fringe contrast of n points by explicit extremization over the phase dial.

    ``s_x``, ``s_y``, ``s_z`` and ``beta`` are 1-D arrays, one entry per
    point, of validated inputs; ``unitary`` is one (2, 2) marking unitary
    for every point or an (n, 2, 2) stack of them, one per point. Returns
    ``(visibility, defined)``: the contrast (p_max - p_min) / (p_max + p_min)
    of each point's port-a extrema over the phase dial
    (interferometer.port_extrema, which holds the search), with ``defined``
    False, and the visibility NaN, where p_max + p_min, the scan's own port
    denominator, leaves the port dark (port_is_dark; contrast 0/0).
    """
    p_max, p_min = port_extrema(s_x, s_y, s_z, unitary, beta)
    total = p_max + p_min
    defined = ~port_is_dark(total)
    visibility = np.full(len(total), np.nan)
    np.divide(p_max - p_min, total, out=visibility, where=defined)
    return visibility, defined


def visibility_scan(state: BlochState, det: DetectorConfig, beta: BeamSplitterAngle) -> float:
    """Fringe contrast measured by explicit extremization over the phase dial.

    The one-point case of visibility_scans: the port-a probability through
    the full operator pipeline, its maximum and minimum each found by
    bracket refinement from the full turn [0, 2*pi] down to
    interferometer.PHASE_REFINE_TOL, every sampled phase summing all 16
    terms of the pipeline's quadratic form. Serves as the independent oracle
    for visibility_closed.
    """
    visibility, defined = visibility_scans(
        [state.s_x], [state.s_y], [state.s_z], det.unitary, [beta.beta]
    )
    if not defined[0]:
        raise DarkPortError(DARK_PORT)
    return float(visibility[0])


def path_weights(s_x: float, beta: BeamSplitterAngle) -> PathWeights:
    """Prior weights of paths a and b given detection at the monitored port."""
    require_finite(s_x=s_x)
    _, den = _lit_port(s_x, beta.beta)
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
    sin_beta, den = _lit_port(s_x, beta.beta)
    return float(distinguishability_kernel(s_x, a_overlap, sin_beta, den))


def _discrimination_operator(unitary, omega_a, omega_b) -> np.ndarray:
    # omega_a * marked - omega_b * unmarked: one (2, 2) operator for float
    # weights, or an (n, 2, 2) stack for 1-D arrays of them.
    unmarked, marked = _detector_branches(unitary)
    if isinstance(omega_a, np.ndarray):
        omega_a, omega_b = omega_a[:, None, None], omega_b[:, None, None]
    return omega_a * marked - omega_b * unmarked


def distinguishability_trace_norm(det: DetectorConfig, weights: PathWeights) -> float:
    """Trace-norm route to the distinguishability; oracle for the closed form."""
    return trace_norm(_discrimination_operator(det.unitary, weights.omega_a, weights.omega_b))


def distinguishability_trace_norms(unitary, omega_a, omega_b) -> np.ndarray:
    """distinguishability_trace_norm over 1-D arrays of path weights.

    ``unitary`` is one (2, 2) marking unitary for every point or an
    (n, 2, 2) stack of them. The weights are taken as validated (see
    PathWeights); the trace norms come from one stacked 2x2 eigenvalue pass.
    """
    return _trace_norms(_discrimination_operator(unitary, omega_a, omega_b))


def _basis_is_degenerate(values):
    # Whether the descending eigenvalues of a discrimination operator, or of
    # each operator of a stack (shape (n, 2)), leave a gap of at most
    # BASIS_GAP_TOL, so that no measurement basis is singled out.
    return values[..., 0] - values[..., 1] <= BASIS_GAP_TOL


def _min_error_eig(gamma_op: np.ndarray) -> tuple[np.ndarray, MeasurementBasis]:
    # Eigenvalues (descending) of a discrimination operator and the basis of
    # its eigenvectors; DegenerateBasisError when the gap is degenerate.
    values, vectors = hermitian_eig2(gamma_op)
    if _basis_is_degenerate(values):
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
    return _min_error_eig(
        _discrimination_operator(det.unitary, weights.omega_a, weights.omega_b)
    )[1]


def complementarity_residual(
    state: BlochState, a_overlap: float, beta: BeamSplitterAngle
) -> float:
    """The gap 1 - V^2 - D^2, in closed form; zero exactly on the saturation slices."""
    require_finite(a_overlap=a_overlap)
    require_in_range("a_overlap", a_overlap)
    sin_beta, den = _lit_port(state.s_x, beta.beta)
    lam, _ = closed_form_lengths(state.s_x, state.lam, state.yz_norm)
    return residual_kernel(lam, a_overlap, sin_beta, den)


def visibility_peak_fixed_beta(
    lam: float, a_overlap: float, beta: BeamSplitterAngle
) -> tuple[float, float]:
    """Location and value of the visibility peak over s_x at a fixed splitter angle."""
    require_finite(lam=lam, a_overlap=a_overlap)
    require_in_range("a_overlap", a_overlap)
    require_in_range("lam", lam, hi=1.0 + BLOCH_NORM_TOL)
    if not 0.0 < beta.beta < math.pi:
        raise InvalidInputError("peak over s_x requires beta strictly inside (0, pi)")
    if lam == 0.0:
        raise NoExtremumError("visibility is identically zero for a maximally mixed input")
    sin_beta, cos_beta = math.sin(beta.beta), math.cos(beta.beta)
    # The peak sits at s_x = -lam cos(beta), with value A sin(beta) sqrt(lam)
    # / sqrt(1 - lam cos^2(beta)), not V at the peak, whose 1 + s_x_star
    # cos(beta) cancels next to beta = 0 and pi. In both, lam's rounding
    # slack above 1 counts as a pure state (closed_form_lengths), which keeps
    # the location in [-1, 1].
    pure = min(lam, 1.0)
    v_star = a_overlap * math.sqrt(pure) * sin_beta / math.sqrt(
        sin_beta * sin_beta + (1.0 - pure) * cos_beta * cos_beta
    )
    return -pure * cos_beta, min(max(v_star, 0.0), 1.0)


def visibility_peak_fixed_sx(s_x: float, lam: float, a_overlap: float) -> tuple[float, float]:
    """Location and value of the visibility peak over the splitter angle at fixed s_x."""
    require_finite(s_x=s_x, lam=lam, a_overlap=a_overlap)
    require_in_range("a_overlap", a_overlap)
    if abs(s_x) > 1.0:
        raise InvalidInputError(f"s_x must lie in [-1, 1], got {s_x!r}")
    if abs(s_x) == 1.0:
        raise NoExtremumError("visibility is identically zero when the path is certain")
    if not s_x * s_x <= lam <= 1.0 + BLOCH_NORM_TOL:
        raise InvalidInputError("lam must satisfy s_x^2 <= lam <= 1")
    # A sqrt((lam - s_x^2) / (1 - s_x^2)), lam - s_x^2 written without its
    # cancellation as (lam - 1) + (1 - s_x)(1 + s_x): the ratio is at most 1,
    # and exactly 1 for a pure state (lam's slack above 1 included), so v_star <= A.
    transverse = (1.0 - s_x) * (1.0 + s_x)
    ratio = max((min(lam, 1.0) - 1.0) + transverse, 0.0) / transverse
    return math.acos(-s_x), a_overlap * math.sqrt(ratio)


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
