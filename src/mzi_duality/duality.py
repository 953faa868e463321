"""Wave-particle duality measures for the asymmetric-output interferometer.

Fringe visibility (wave side) and which-path distinguishability (particle
side) each come in two independent flavors: a closed-form expression and a
route through the operator pipeline (the extrema of the fringe into which
the pipeline folds, trace-norm state discrimination). Their agreement, the
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
    require_finite,
    require_in_range,
)
from .interferometer import (
    BLOCH_NORM_TOL,
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    _first_column,
    _fringe_coefficients,
    _outcomes,
    _screen,
    port_terms,
)
# Kept importable here: phase_probe, which bench/tracing.py wraps.
from .interferometer import phase_probe  # noqa: F401
from .linalg import IDENTITY_2, _hermitian_eig2, _sin_cos, _trace_norm

ORTHONORMALITY_TOL = 1e-10
NORM_TOL = 1e-12
BASIS_GAP_TOL = 1e-12
COMPLEMENTARITY_TOL = 1e-10
RESIDUAL_FLOOR = -1e-12


def _bounded_s_x(s_x: float) -> float:
    # The closed forms' s_x rule: |s_x| may exceed 1 by BLOCH_NORM_TOL,
    # BlochState's slack, else InvalidInputError. The slack folds onto +-1,
    # a certain path, as BlochState projects lam's onto a pure state.
    if abs(s_x) > 1.0 + BLOCH_NORM_TOL:
        raise InvalidInputError(f"s_x must lie in [-1, 1], got {s_x!r}")
    return min(max(s_x, -1.0), 1.0)


def _lit_port(s_x: float, beta: float) -> tuple[float, float, float]:
    # (s_x as _bounded_s_x returns it, sin beta, port denominator) of a point
    # whose port is lit, else the dark port's error (_screen).
    s_x = _bounded_s_x(s_x)
    sin_beta, den = port_terms(s_x, beta)
    _screen(den=den)
    return s_x, sin_beta, den


def _checked_port(s_x, a_overlap, beta):
    # The closed forms' preamble: finite inputs, a_overlap in [0, 1], then _lit_port.
    require_finite(s_x=s_x, a_overlap=a_overlap)
    require_in_range("a_overlap", a_overlap)
    return _lit_port(s_x, beta.beta)


# The closed forms for V, D, the residual and the path weights, written once.
# Arguments are scalars or broadcastable arrays; callers supply sin(beta) and
# den = 1 + s_x cos(beta) from interferometer.port_terms. The scalar API
# screens den through _lit_port and the sweep the rows of closed_form_columns,
# both by interferometer._outcomes; verify's extremum oracles and the figures
# run V and D on grids. V comes back unclipped. Squares are products, which
# round the same for floats and arrays (** uses pow).


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
    sin_half, cos_half = _sin_cos(0.5 * beta)
    return cos_half * cos_half * (1.0 + s_x) / den, sin_half * sin_half * (1.0 - s_x) / den


def closed_form_columns(s_x, s_y, s_z, lam, a_overlap, beta) -> tuple:
    """(V clipped to [0, 1], D, residual, omega_a, omega_b, den) of 1-D arrays
    of points, one entry per point, in one pass.

    The points are taken as validated: nothing is checked, and a point whose
    port is dark divides by its own denominator ``den`` (1 + s_x cos beta),
    which the caller screens (interferometer._outcomes); ``lam`` is the
    squared length the residual reads. A length-1 column, or a float, is one value for all points.
    """
    sin_beta, den = port_terms(s_x, beta)
    v = visibility_kernel(np.hypot(s_y, s_z), a_overlap, sin_beta, den).clip(0.0, 1.0)
    d = distinguishability_kernel(s_x, a_overlap, sin_beta, den)
    residual = residual_kernel(lam, a_overlap, sin_beta, den)
    return (v, d, residual, *weights_kernel(s_x, beta, den), den)


@dataclass(frozen=True)
class PathWeights:
    """Prior probabilities of the two paths conditioned on the monitored port."""

    omega_a: float
    omega_b: float

    def __post_init__(self):
        require_finite(omega_a=self.omega_a, omega_b=self.omega_b)
        _screen(omega_a=self.omega_a, omega_b=self.omega_b)


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Orthonormal detector basis of a two-outcome projective measurement."""

    m_a: np.ndarray
    m_b: np.ndarray

    def __post_init__(self):
        # Copies, as DensityOperator takes, so the caller's arrays stay writable.
        a, b = np.array(self.m_a, dtype=complex), np.array(self.m_b, dtype=complex)
        if a.shape != (2,) or b.shape != (2,):
            raise InvalidInputError("basis vectors must be complex 2-vectors")
        (a0, a1), (b0, b1) = a.tolist(), b.tolist()
        parts = (a0.real, a0.imag, a1.real, a1.imag, b0.real, b0.imag, b1.real, b1.imag)
        if not all(map(math.isfinite, parts)):
            raise InvalidInputError("basis vectors must be finite")
        norm_a, norm_b = math.hypot(*parts[:4]), math.hypot(*parts[4:])
        if abs(norm_a - 1.0) > NORM_TOL or abs(norm_b - 1.0) > NORM_TOL:
            raise InvalidInputError("basis vectors must be normalized")
        if abs(a0.conjugate() * b0 + a1.conjugate() * b1) > ORTHONORMALITY_TOL:
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


def _closed_forms(state: BlochState, a_overlap: float, beta: BeamSplitterAngle) -> tuple:
    # (V clipped to [0, 1], D, residual) of one checked point: the whole body
    # of visibility_closed, complementarity_residual and duality_report.
    s_x, sin_beta, den = _checked_port(state.s_x, a_overlap, beta)
    v = min(max(visibility_kernel(state.yz_norm, a_overlap, sin_beta, den), 0.0), 1.0)
    d = float(distinguishability_kernel(s_x, a_overlap, sin_beta, den))
    return v, d, residual_kernel(state.lam, a_overlap, sin_beta, den)


def visibility_closed(
    state: BlochState, a_overlap: float, beta: BeamSplitterAngle
) -> float:
    """Fringe contrast (max-min)/(max+min) of the port-a probability, closed form."""
    return _closed_forms(state, a_overlap, beta)[0]


def visibility_scans(s_x, s_y, s_z, unitary, beta):
    """Fringe contrast of n points from the pipeline's extrema over the phase dial.

    ``s_x``, ``s_y``, ``s_z`` and ``beta`` are 1-D arrays of validated inputs,
    one entry per point, or one point's floats. The state's three columns
    together, or ``beta``, may have length 1, one value for every point, as
    one (2, 2) marking ``unitary`` is; else it is an (n, 2, 2) stack. A
    point is its stack row to the bit. Returns ``(visibility, code)``,
    shape (n,), or (1,) for a point: the contrast (p_max - p_min) / (p_max +
    p_min) of each point's port-a extrema over the phase dial, c0 +- |c2| of
    the pipeline's fringe c0 + Re(c2 e^{-2i*phi}), folded on the start
    state's support alone (_fringe_coefficients), and each point's outcome
    code: 0, or 2 with the visibility NaN where p_max + p_min, the scan's
    own port denominator, leaves the port dark (_outcomes' dark-port rule).
    """
    c0, c2 = _fringe_coefficients(s_x, s_y, s_z, unitary, beta)
    amplitude = np.abs(c2)
    p_max, p_min = c0 + amplitude, c0 - amplitude
    total = p_max + p_min
    code = _outcomes(den=total)
    visibility = np.full(total.shape, np.nan)
    np.divide(p_max - p_min, total, out=visibility, where=code == 0)
    return visibility, code


def visibility_scan(state: BlochState, det: DetectorConfig, beta: BeamSplitterAngle) -> float:
    """Fringe contrast from the operator pipeline's extrema over the phase dial.

    The one-point case of visibility_scans. Shares no formula with
    visibility_closed, whose independent oracle it is.
    """
    visibility, code = visibility_scans(
        state.s_x, state.s_y, state.s_z, det.unitary, float(beta.beta)
    )
    _screen(scan=int(code[0]))
    return float(visibility[0])


def path_weights(s_x: float, beta: BeamSplitterAngle) -> PathWeights:
    """Prior weights of paths a and b given detection at the monitored port."""
    require_finite(s_x=s_x)
    s_x, _, den = _lit_port(s_x, beta.beta)
    omega_a, omega_b = weights_kernel(s_x, beta.beta, den)
    return PathWeights(float(omega_a), float(omega_b))


def distinguishability_closed(
    s_x: float, beta: BeamSplitterAngle, a_overlap: float
) -> float:
    """Optimal which-path guessing bias, closed form.

    Algebraically equal to sqrt(1 - 4*omega_a*omega_b*a_overlap^2).
    """
    s_x, sin_beta, den = _checked_port(s_x, a_overlap, beta)
    return float(distinguishability_kernel(s_x, a_overlap, sin_beta, den))


def _discrimination_entries(unitary, omega_a, omega_b) -> tuple:
    # (a, c, b_re, b_im) of omega_a U r r^H U^H - omega_b r r^H = [[a, b],
    # [conj(b), c]], r = (1, 0) the start state, from U's first column
    # (m0, m1) = U r: a = omega_a |m0|^2 - omega_b, c = omega_a |m1|^2, b =
    # omega_a m0 conj(m1). Floats for a (2, 2) U and float weights, else 1-D
    # arrays; real arithmetic, so a point is its stack row to the bit.
    m0_re, m0_im, m1_re, m1_im = _first_column(unitary)
    n0, n1 = m0_re * m0_re + m0_im * m0_im, m1_re * m1_re + m1_im * m1_im
    b_re, b_im = m0_re * m1_re + m0_im * m1_im, m0_im * m1_re - m0_re * m1_im
    return omega_a * n0 - omega_b, omega_a * n1, omega_a * b_re, omega_a * b_im


def distinguishability_trace_norm(det: DetectorConfig, weights: PathWeights) -> float:
    """Trace-norm route to the distinguishability; oracle for the closed form."""
    return _trace_norm(*_discrimination_entries(det.unitary, weights.omega_a, weights.omega_b))


def distinguishability_trace_norms(unitary, omega_a, omega_b) -> np.ndarray:
    """distinguishability_trace_norm over 1-D arrays of path weights.

    ``unitary`` is one (2, 2) marking unitary for every point or an
    (n, 2, 2) stack of them. The weights are taken as validated (see
    PathWeights). Each point's trace norm is distinguishability_trace_norm's
    to the bit.
    """
    return _trace_norm(*_discrimination_entries(unitary, omega_a, omega_b))


def _basis_is_degenerate(values):
    # Whether the descending eigenvalues of a discrimination operator, or of
    # each operator of a stack (shape (n, 2)), leave a gap of at most
    # BASIS_GAP_TOL, so that no measurement basis is singled out.
    return values[..., 0] - values[..., 1] <= BASIS_GAP_TOL


def min_error_basis(det: DetectorConfig, weights: PathWeights) -> MeasurementBasis:
    """Projective measurement that discriminates the two detector states optimally.

    ``m_a`` is the eigenvector of the weighted state difference with positive
    eigenvalue (outcome a means: guess the marked state, i.e. path a), ``m_b``
    the one with negative eigenvalue. Computed by eigendecomposition, which
    stays well-conditioned over the whole parameter domain.
    """
    entries = _discrimination_entries(det.unitary, weights.omega_a, weights.omega_b)
    values, vectors = _hermitian_eig2(*entries)
    if _basis_is_degenerate(values):
        raise DegenerateBasisError(
            "detector states coincide; any orthonormal basis is optimal",
            MeasurementBasis(*IDENTITY_2),
        )
    return MeasurementBasis(m_a=vectors[:, 0], m_b=vectors[:, 1])


def complementarity_residual(
    state: BlochState, a_overlap: float, beta: BeamSplitterAngle
) -> float:
    """The gap 1 - V^2 - D^2, in closed form; zero exactly on the saturation slices."""
    return _closed_forms(state, a_overlap, beta)[2]


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
    # slack above 1 counts as a pure state, as BlochState holds it, which
    # keeps the location in [-1, 1].
    pure = min(lam, 1.0)
    v_star = a_overlap * math.sqrt(pure) * sin_beta / math.sqrt(
        sin_beta * sin_beta + (1.0 - pure) * cos_beta * cos_beta
    )
    return -pure * cos_beta, min(max(v_star, 0.0), 1.0)


def visibility_peak_fixed_sx(s_x: float, lam: float, a_overlap: float) -> tuple[float, float]:
    """Location and value of the visibility peak over the splitter angle at fixed s_x."""
    require_finite(s_x=s_x, lam=lam, a_overlap=a_overlap)
    require_in_range("a_overlap", a_overlap)
    s_x = _bounded_s_x(s_x)
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
    if abs(_bounded_s_x(s_x)) == 1.0:
        raise NoExtremumError("distinguishability is identically 1 when the path is certain")
    beta_star = math.acos(-s_x)
    d_star = math.sqrt(max(1.0 - a_overlap * a_overlap, 0.0))
    return beta_star, d_star


def duality_report(
    state: BlochState, det: DetectorConfig, beta: BeamSplitterAngle
) -> DualityReport:
    """Closed-form V, D, and complementarity residual for one parameter point.

    Equal, bit for bit and error for error, to visibility_closed,
    distinguishability_closed and complementarity_residual: all but the
    second share its body.
    """
    return DualityReport(*_closed_forms(state, det.a_overlap, beta))
