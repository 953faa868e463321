"""Two-path interferometer with a which-path detector on one arm.

The particle enters through a symmetric beam splitter, picks up a relative
phase between the arms, marks a detector qubit when it travels arm ``a``,
and recombines on a second, generally asymmetric beam splitter. Everything
is expressed on the path basis (|b>, |a>), detector appended second.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DarkPortError, InvalidInputError, require_finite, require_in_range
from .linalg import DensityOperator, _from_parts, _select, _sin_cos

BLOCH_NORM_TOL = 1e-12
DENOMINATOR_TOL = 1e-12
WEIGHT_TOL = 1e-12
TWO_PI = 2.0 * math.pi

# --- the outcome of a point -------------------------------------------------------

# The error a point raises where it is undefined: outcome code -> (error
# class, message), the codes in the order _outcomes screens their rules (the
# scan's own dark port, the chain's base, is code 2 too). Code 0 is lit. Each
# message names the value it quotes.
OUTCOMES = {
    1: (InvalidInputError, "Bloch vector length squared {lam!r} exceeds 1"),
    2: (DarkPortError, "monitored port has zero intensity; V, D, the residual and the path weights are undefined"),
    3: (InvalidInputError, "omega_a out of [0, 1]: {omega_a!r}"),
    4: (InvalidInputError, "omega_b out of [0, 1]: {omega_b!r}"),
    5: (InvalidInputError, "path weights must sum to 1"),
}


def _outcomes(lam=None, den=None, omega_a=None, omega_b=None, scan=0):
    # The outcome code of a point's floats, or of each point of a stack's
    # arrays: the first rule it breaks, or 0. In the scalar API's order: lam
    # at most 1 + BLOCH_NORM_TOL, the port denominator den above
    # DENOMINATOR_TOL, omega_a and then omega_b in [0, 1] (NaN is not) and
    # their sum 1, both within WEIGHT_TOL, then the scan's own code (scan, as
    # duality.visibility_scans returns it). A value left out (None) is not
    # screened, so each scalar stage screens what it knows. The chain runs
    # from the last rule to the first, on _select: one point makes no numpy call.
    code = scan
    if omega_a is not None:
        code = _select(abs(omega_a + omega_b - 1.0) <= WEIGHT_TOL, code, 5)
        for rule, weight in ((4, omega_b), (3, omega_a)):
            code = _select((-WEIGHT_TOL <= weight) & (weight <= 1.0 + WEIGHT_TOL), code, rule)
    if den is not None:
        code = _select(den <= DENOMINATOR_TOL, 2, code)
    return code if lam is None else _select(lam > 1.0 + BLOCH_NORM_TOL, 1, code)


def _screen(lam=None, den=None, omega_a=None, omega_b=None, scan=0) -> None:
    # Raise the error of a point's first broken rule (_outcomes' code, OUTCOMES'
    # class and message quoting the point's values); return where it is lit.
    code = _outcomes(lam, den, omega_a, omega_b, scan)
    if code:
        kind, message = OUTCOMES[code]
        raise kind(message.format(lam=lam, omega_a=omega_a, omega_b=omega_b))


def _onto_bloch_ball(s_x, s_y, s_z, lam):
    # (s_x, s_y, s_z, lam) by the slack rule, of a point or of 1-D arrays of
    # points: a squared length lam above 1 is a pure state's rounding slack,
    # so the vector is divided by sqrt(lam), s_x clipped to [-1, 1] (the
    # quotient can round past 1) and lam is exactly 1. Other points are kept.
    # The division repeats on the result's own rounded squared length until
    # its square root rounds to 1, which leaves that length at most one ulp
    # above 1: the result is a fixed point, so a state rebuilt from its
    # components is the same state. A point's values come back as numpy scalars.
    root = np.sqrt(np.maximum(lam, 1.0))
    while (root > 1.0).any():
        s_x, s_y, s_z = np.clip(s_x / root, -1.0, 1.0), s_y / root, s_z / root
        root = np.sqrt(np.maximum(s_x * s_x + s_y * s_y + s_z * s_z, 1.0))
    return s_x, s_y, s_z, np.minimum(lam, 1.0)


@dataclass(frozen=True)
class BlochState:
    """Input path qubit given by its Bloch vector (s_x, s_y, s_z).

    The squared length ``lam`` may not exceed 1; up to BLOCH_NORM_TOL above 1
    it is a pure state's rounding slack, held projected onto the sphere
    (_onto_bloch_ball) with ``lam == 1``.
    ``alpha`` is the phase of s_z + i*s_y, the complex amplitude that feeds
    the interference fringe.
    """

    s_x: float
    s_y: float
    s_z: float
    lam: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_finite(s_x=self.s_x, s_y=self.s_y, s_z=self.s_z)
        lam = self.s_x * self.s_x + self.s_y * self.s_y + self.s_z * self.s_z
        _screen(lam=lam)
        object.__setattr__(self, "lam", lam)
        if lam > 1.0:  # the only points _onto_bloch_ball moves
            projected = _onto_bloch_ball(self.s_x, self.s_y, self.s_z, lam)
            for name, value in zip(("s_x", "s_y", "s_z", "lam"), projected):
                object.__setattr__(self, name, float(value))

    @property
    def yz_norm(self) -> float:
        """Length of the (s_y, s_z) projection, sqrt(lam - s_x**2)."""
        return abs(complex(self.s_y, self.s_z))

    @property
    def alpha(self) -> float:
        # np.arctan2, as verify's stacked columns take it, whose SIMD loop
        # can differ from libm's atan2 in the last bit. arctan2(0, 0) = 0
        # keeps the (unobservable) phase deterministic when the fringe
        # amplitude vanishes.
        return float(np.arctan2(self.s_y, self.s_z))


@dataclass(frozen=True)
class BeamSplitterAngle:
    """Mixing angle of the recombining beam splitter, in [0, pi].

    0 is full transmission, pi full reflection, pi/2 the symmetric splitter.
    """

    beta: float

    def __post_init__(self):
        require_finite(beta=self.beta)
        if not 0.0 <= self.beta <= math.pi:
            raise InvalidInputError(f"beta must lie in [0, pi], got {self.beta!r}")


@dataclass(frozen=True)
class PhaseShift:
    """Phase-shifter dial setting, canonicalized into [0, 2*pi)."""

    phi: float

    def __post_init__(self):
        require_finite(phi=self.phi)
        phi = self.phi % TWO_PI
        # Float % rounds a tiny negative phase up to TWO_PI itself, which is 0.
        object.__setattr__(self, "phi", 0.0 if phi == TWO_PI else phi)


def _floats_or_arrays(*values):
    # Each of a point's floats as it is, and each other value as a float array.
    return (v if isinstance(v, float) else np.asarray(v, dtype=float) for v in values)


def marking_unitaries(a_overlap, gamma, delta) -> np.ndarray:
    """DetectorConfig's marking unitary [[A e^{i gamma}, -B e^{-i delta}],
    [B e^{i delta}, A e^{-i gamma}]], B = sqrt(1 - A^2), unit determinant by
    construction: (2, 2) of floats, or an (n, 2, 2) stack of 1-D arrays.
    Each real and imaginary part is one rounded product of A or B and a sine
    or cosine (math for floats, numpy for arrays), or its negation, which
    rounds alike in Python and in numpy, so a detector's unitary is its row
    of a stack to the bit. Inputs are taken as validated; 0 <= a_overlap <= 1 keeps
    1 - a_overlap**2 nonnegative."""
    a, gamma, delta = _floats_or_arrays(a_overlap, gamma, delta)
    b = (np.sqrt if isinstance(a, np.ndarray) else math.sqrt)(1.0 - a * a)
    sin_g, cos_g = _sin_cos(gamma)
    sin_d, cos_d = _sin_cos(delta)
    # A e^{i gamma} and B e^{i delta}; the other two entries negate a part of each.
    g_re, g_im, d_re, d_im = a * cos_g, a * sin_g, b * cos_d, b * sin_d
    return _from_parts([g_re, g_im, -d_re, d_im, d_re, d_im, g_re, -g_im], (2, 2))


@dataclass(frozen=True)
class DetectorConfig:
    """Which-path detector: the marking unitary U on a detector that starts
    in its first basis state r.

    ``a_overlap`` is the magnitude and ``gamma`` the phase of the overlap
    <r|U|r> between the unmarked and marked detector states; ``delta`` is the
    free phase of the off-diagonal of U and does not affect any duality
    measure (a tested property).
    """

    a_overlap: float
    gamma: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        require_finite(a_overlap=self.a_overlap, gamma=self.gamma, delta=self.delta)
        require_in_range("a_overlap", self.a_overlap)

    @functools.cached_property
    def unitary(self) -> np.ndarray:
        """The marking unitary, marking_unitaries of this detector.

        Built on first access and kept read-only on the instance; the cache
        lives outside the dataclass fields, so equality and hashing ignore it.
        """
        u = marking_unitaries(self.a_overlap, self.gamma, self.delta)
        u.setflags(write=False)
        return u


def _bloch_densities(s_x, s_y, s_z) -> np.ndarray:
    # (1 + s . sigma) / 2 = [[1 + s_z, s_x - i s_y], [s_x + i s_y, 1 - s_z]] / 2
    # in real and imaginary parts: of a point's floats, shape (2, 2), or of
    # each point of 1-D Bloch component arrays, (n, 2, 2), of validated
    # (finite) inputs. The + 0.0 makes every zero part +0.0.
    s_x, s_y, s_z = _floats_or_arrays(s_x, s_y, s_z)
    zero = 0.0 * s_x
    parts = 0.5 * np.array([1.0 + s_z, zero, s_x, -s_y, s_x, s_y, 1.0 - s_z, zero]) + 0.0
    return _from_parts(parts, (2, 2))


def bloch_to_density(state: BlochState) -> DensityOperator:
    """Density operator (1 + s . sigma) / 2 of a Bloch vector."""
    return DensityOperator(_bloch_densities(state.s_x, state.s_y, state.s_z))


# The input splitter is always the symmetric one H = R(pi/2), whose entries
# are real: cos(pi/4) on the diagonal, -sin(pi/4) and sin(pi/4) off it.
_H00 = _H11 = math.cos(math.pi / 4)
_H10 = math.sin(math.pi / 4)
_H01 = -_H10
# H's entries, 1/2 and 1 as _prepared takes them: Python floats for a point's floats,
# 0-d arrays for a stack's arrays. numpy multiplies an array by a 0-d array in about
# two thirds of the time it takes with a Python float; the bits are the same.
_PREPARING_FLOATS = (_H00, _H01, _H10, _H11, 0.5, 1.0)
_PREPARING_ARRAYS = tuple(np.array(value) for value in _PREPARING_FLOATS)


def _first_column(unitary):
    # (m0_re, m0_im, m1_re, m1_im): the real and imaginary parts of the marked
    # state U r = (m0, m1), U's first column on the detector's start state
    # r = (1, 0). Floats for a (2, 2) U, 1-D arrays for an (n, 2, 2) stack.
    column = np.asarray(unitary)[..., 0]
    m0, m1 = column.tolist() if column.ndim == 1 else column.T
    return m0.real, m0.imag, m1.real, m1.imag


def _prepared(s_x, s_y, s_z):
    # The prepared state P = H rho H^H on the start rows and columns 0 and 2
    # (_evolve), of a point's floats or a stack's arrays: (P00, P22, Re P02,
    # Im P02), and the real parts (A20, A21) of the row of A = H rho from which
    # the fold forms P20 in its own rounding. P_jk = A_j0 H_k0 + A_j1 H_k1 of
    # rho = [[r0, x - iy], [x + iy, r1]] and the real H.
    h00, h01, h10, h11, half, one = (
        _PREPARING_ARRAYS if isinstance(s_x, np.ndarray) else _PREPARING_FLOATS
    )
    r0, r1, x, y = half * (one + s_z), half * (one - s_z), half * s_x, half * s_y
    # Re A, rows 0 and 2; H01 x = -(H10 x) and H11 x = H00 x to the bit.
    h0x, h1x = h00 * x, h10 * x
    a00, a01 = h00 * r0 - h1x, h0x - h10 * r1
    a20, a21 = h10 * r0 + h0x, h1x + h00 * r1
    p00, p22 = a00 * h00 + a01 * h01, a20 * h10 + a21 * h11
    p02_re, p02_im = a00 * h10 + a01 * h11, h01 * y * h10 - h00 * y * h11
    return p00, p22, p02_re, p02_im, a20, a21


def _evolve(s_x, s_y, s_z, unitary, beta, phi) -> np.ndarray:
    # The joint state T_s P' T_s^H of validated inputs, unchecked: of a
    # point's floats, shape (4, 4); of 1-D arrays with one entry per point,
    # (n, 4, 4). unitary is one (2, 2) marking unitary for every point or an
    # (n, 2, 2) stack of them. The detector starts in r, so the joint input
    # rho (x) |r><r| is rho on the start rows and columns 0 and 2 and zero
    # elsewhere: there the splitter H makes it P (_prepared), and the phase
    # diagonal (e^{-i*phi}, e^{+i*phi}) makes it P' = [[P00, z], [conj(z),
    # P22]], z = P02 e^{-2i*phi}. The tail T = (R(beta) x 1)(1 (+) U) acts
    # through its two start columns T_s, (c, 0, s, 0) and (-s m, c m), with
    # c, s = cos, sin(beta/2) and m = U r (_first_column). So path block
    # (p, q) of the joint state, R = [[c, -s], [s, c]], is
    #   R_p0 R_q0 P00 r r^H + R_p1 R_q1 P22 m m^H
    #     + R_p0 R_q1 z r m^H + R_p1 R_q0 conj(z) m r^H,
    # written out below with w_k = z conj(m_k), |m_k|^2 and m0 conj(m1). Every
    # product is real, so a point is its stack row to the bit; only the upper
    # triangle is computed, and the lower is its conjugate to the bit.
    s_x, s_y, s_z, beta, phi = _floats_or_arrays(s_x, s_y, s_z, beta, phi)
    a, g, p_re, p_im, _, _ = _prepared(s_x, s_y, s_z)
    sin_2phi, cos_2phi = _sin_cos(phi + phi)
    z_re, z_im = p_re * cos_2phi + p_im * sin_2phi, p_im * cos_2phi - p_re * sin_2phi
    s, c = _sin_cos(0.5 * beta)
    c2, s2, cs = c * c, s * s, c * s
    m0_re, m0_im, m1_re, m1_im = _first_column(unitary)
    w0_re, w0_im = z_re * m0_re + z_im * m0_im, z_im * m0_re - z_re * m0_im
    w1_re, w1_im = z_re * m1_re + z_im * m1_im, z_im * m1_re - z_re * m1_im
    n0, n1 = m0_re * m0_re + m0_im * m0_im, m1_re * m1_re + m1_im * m1_im
    x_re, x_im = m0_re * m1_re + m0_im * m1_im, m0_im * m1_re - m0_re * m1_im
    # P22 R_p1 R_q1 for blocks (0, 0), (1, 1) and (0, 1).
    gs2, gc2, k = g * s2, g * c2, -g * cs
    fringe = (cs + cs) * w0_re
    r00, r22 = a * c2 + gs2 * n0 - fringe, a * s2 + gc2 * n0 + fringe
    r11, r13, r33 = gs2 * n1, k * n1, gc2 * n1
    v_re, v_im = cs * w1_re, cs * w1_im
    r01, i01 = gs2 * x_re - v_re, gs2 * x_im - v_im
    r23, i23 = gc2 * x_re + v_re, gc2 * x_im + v_im
    r02, i02 = a * cs + k * n0 + (c2 - s2) * w0_re, w0_im  # (c^2 + s^2) Im w0
    kx_re, kx_im = k * x_re, k * x_im
    r03, i03 = kx_re + c2 * w1_re, kx_im + c2 * w1_im
    r12, i12 = kx_re - s2 * w1_re, s2 * w1_im - kx_im
    zero = s2 - s2  # +0.0
    return _from_parts([
        r00, zero, r01, i01, r02, i02, r03, i03,
        r01, -i01, r11, zero, r12, i12, r13, zero,
        r02, -i02, r12, -i12, r22, zero, r23, i23,
        r03, -i03, r13, -zero, r23, -i23, r33, zero,
    ], (4, 4))  # fmt: skip


def evolve(
    state: BlochState,
    det: DetectorConfig,
    beta: BeamSplitterAngle,
    phi: PhaseShift,
) -> DensityOperator:
    """Full pipeline: symmetric splitter, phase shift, marking, then recombiner.

    The one-point view of the stacked pipeline, checked as a DensityOperator.
    """
    return DensityOperator(
        _evolve(state.s_x, state.s_y, state.s_z, det.unitary, float(beta.beta), phi.phi)
    )


def _evolve_closed_form(s_x, s_y, s_z, unitary, beta, phi) -> np.ndarray:
    # evolve_closed_form's four terms summed entry by entry, unchecked, of
    # _evolve's validated inputs (one (2, 2) U or an (n, 2, 2) stack): shape
    # (4, 4) for a point's floats, (n, 4, 4) for 1-D arrays with one entry
    # per point. U enters only through the marked state m = U r = (m0, m1)
    # (_first_column), and every complex product is written out in real
    # arithmetic, which rounds alike in Python and in numpy, so a point is
    # its stack row to the bit.
    # With s = sin(beta), c = cos(beta), the terms b, ba, ab and a are
    #   (1 - s_x)/4 [[1 + c, s], [s, 1 - c]]    (x) r r^H,
    #   conj(cross) [[s, -(1 + c)], [1 - c, -s]] (x) r m^H,
    #   cross       [[s, 1 - c], [-(1 + c), -s]] (x) m r^H,
    #   (1 + s_x)/4 [[1 - c, -s], [-s, 1 + c]]   (x) m m^H,
    # for the start state r = (1, 0) and cross = -e^{2i*phi} (s_z + i*s_y) / 4.
    # So path block (p, q) is f r r^H + g r m^H + h m r^H + k m m^H, with
    # f, g, h, k the terms' weights times their path entries (p, q):
    #   [[f + g conj(m0) + h m0 + k |m0|^2, (g + k m0) conj(m1)],
    #    [(h + k conj(m0)) m1,              k |m1|^2]].
    # Only the upper triangle is computed; the lower is its conjugate.
    s_x, s_y, s_z, beta, phi = _floats_or_arrays(s_x, s_y, s_z, beta, phi)
    m0_re, m0_im, m1_re, m1_im = _first_column(unitary)
    sin_b, cos_b = _sin_cos(beta)
    sin_2phi, cos_2phi = _sin_cos(2.0 * phi)
    plus, minus = 1.0 + cos_b, 1.0 - cos_b
    w_b, w_a = 0.25 * (1.0 - s_x), 0.25 * (1.0 + s_x)
    x = -0.25 * (cos_2phi * s_z - sin_2phi * s_y)  # cross = x + i*y
    y = -0.25 * (sin_2phi * s_z + cos_2phi * s_y)
    # cross m0 and cross m1, |m0|^2 and |m1|^2, and m0 conj(m1).
    h0_re, h0_im = x * m0_re - y * m0_im, x * m0_im + y * m0_re
    h1_re, h1_im = x * m1_re - y * m1_im, x * m1_im + y * m1_re
    n0, n1 = m0_re * m0_re + m0_im * m0_im, m1_re * m1_re + m1_im * m1_im
    c_re, c_im = m0_re * m1_re + m0_im * m1_im, m0_im * m1_re - m0_re * m1_im
    # Blocks (0, 0) and (1, 1): f = w_b (1 +- c), g = conj(h), h = +-s cross,
    # k = w_a (1 -+ c); so g conj(m0) + h m0 = +-2 s Re(cross m0).
    k0, k1 = w_a * minus, w_a * plus
    fringe = 2.0 * sin_b * h0_re
    r00, r01, r11 = w_b * plus + fringe + k0 * n0, sin_b * h1_re + k0 * c_re, k0 * n1
    i01 = k0 * c_im - sin_b * h1_im
    r22, r23, r33 = w_b * minus - fringe + k1 * n0, k1 * c_re - sin_b * h1_re, k1 * n1
    i23 = sin_b * h1_im + k1 * c_im
    # Block (0, 1): f = w_b s, g = -(1 + c) conj(cross), h = (1 - c) cross,
    # k = -w_a s; so g conj(m0) + h m0 = -2c Re(cross m0) + 2i Im(cross m0).
    k01 = w_a * sin_b
    r02 = w_b * sin_b - k01 * n0 - 2.0 * cos_b * h0_re
    i02 = 2.0 * h0_im
    r03, i03 = -plus * h1_re - k01 * c_re, plus * h1_im - k01 * c_im
    r12, i12 = minus * h1_re - k01 * c_re, minus * h1_im + k01 * c_im
    r13 = -k01 * n1
    # The real and imaginary parts of each entry in row-major order.
    zero = 0.0 * s_x + 0.0  # +0.0, a float or an array as s_x is
    return _from_parts([
        r00, zero, r01, i01, r02, i02, r03, i03,
        r01, -i01, r11, zero, r12, i12, r13, zero,
        r02, -i02, r12, -i12, r22, zero, r23, i23,
        r03, -i03, r13, zero, r23, -i23, r33, zero,
    ], (4, 4))  # fmt: skip


def evolve_closed_form(
    state: BlochState,
    det: DetectorConfig,
    beta: BeamSplitterAngle,
    phi: PhaseShift,
) -> DensityOperator:
    """Final joint state written out as four tensor-product terms.

    Independent of :func:`evolve`; tests enforce entrywise agreement. The
    cross terms carry e^{-+2i*phi} because conjugating by
    diag(e^{-i*phi}, e^{+i*phi}) advances the inter-arm phase by 2*phi.
    The sixteen entries are the terms summed entry by entry, in real
    arithmetic on the point's Python floats; the stacked closed form runs
    the same formula on arrays, and its row for this point is this matrix
    to the bit.
    """
    return DensityOperator(
        _evolve_closed_form(state.s_x, state.s_y, state.s_z, det.unitary, float(beta.beta), phi.phi)
    )


def _port_a_probabilities(m: np.ndarray) -> np.ndarray:
    # Port-a probability of a joint state or of each of a stack, clipped to [0, 1].
    return np.minimum(np.maximum(m[..., 2, 2].real + m[..., 3, 3].real, 0.0), 1.0)


def detection_probability_numeric(rho_f: DensityOperator) -> float:
    """Probability of finding the particle at port a, read off the joint state."""
    if not isinstance(rho_f, DensityOperator):
        rho_f = DensityOperator(rho_f)
    if rho_f.dim != 4:
        raise InvalidInputError("detection probability expects a 4x4 density operator")
    return float(_port_a_probabilities(rho_f.matrix))


def port_terms(s_x, beta):
    """(sin beta, 1 + s_x cos beta) of a point, by math, or of arrays of points.

    The port denominator 1 + s_x cos beta is twice the phase-averaged port-a
    probability: every closed form divides by it, and the monitored port is
    dark where it vanishes. The closest double to pi counts as an exact half
    turn, so the boundary statements V=0, D=1, residual=0 hold exactly.
    """
    sin_beta, cos_beta = _sin_cos(beta)
    return _select(beta == math.pi, 0.0, sin_beta), 1.0 + s_x * cos_beta


def _port_a_closed(s_x, yz_norm, alpha, a_overlap, gamma, beta, phi):
    # detection_probability_closed's formula, of floats or of 1-D arrays with
    # one entry per point.
    sin_beta, den = port_terms(s_x, beta)
    return 0.5 * den + 0.5 * a_overlap * yz_norm * sin_beta * np.cos(alpha + gamma + 2.0 * phi)


def detection_probability_closed(
    state: BlochState,
    det: DetectorConfig,
    beta: BeamSplitterAngle,
    phi: PhaseShift,
) -> float:
    """Port-a probability in closed form: a constant plus one fringe term.

    The fringe oscillates at twice the phase dial (see evolve_closed_form)
    with offset alpha + gamma and amplitude proportional to the transverse
    Bloch component and the detector overlap.
    """
    return float(
        _port_a_closed(
            state.s_x, state.yz_norm, state.alpha, det.a_overlap, det.gamma, beta.beta, phi.phi
        )
    )


# --- the fringe coefficients ----------------------------------------------------


def _fringe_coefficients(s_x, s_y, s_z, unitary, beta) -> tuple[np.ndarray, np.ndarray]:
    # (c0, c2), shape (n,) each or (1,) for a point's floats; a length-1 column or a
    # (2, 2) unitary serves every point. The port-a probability at phase phi, c0 +
    # Re(c2 e^{-2i*phi}), is Re sum_jk P_jk Q_jk d_j conj(d_k) of the phase diagonal d,
    # Q = T[2:]^T conj(T[2:]) of the tail T and the prepared P = H rho H^H, zero off the
    # start rows and columns 0 and 2 (_evolve): c0 = P00 Q00 + P22 Q22, c2 = P02 Q02 +
    # conj(P20 Q20), P from _prepared. Re P20 = A20 H00 + A21 H01 in its own rounding;
    # Im P20 = (H11 y) H00 - (H10 y) H01, y = s_y / 2, is -Im P02 to the bit, as H01 = -H10
    # and H11 = H00. T[2:]'s start columns, (s, 0) and c U r = (t0, t1), s, c = sin,
    # cos(beta/2), give Q00 = s^2, Q22 = |t0|^2 + |t1|^2, Q20 = conj(Q02) = s t0. In real
    # arithmetic a point is its stack row to the bit; + 0.0 makes c2's zero parts +0.0.
    s_x, s_y, s_z, beta = _floats_or_arrays(s_x, s_y, s_z, beta)
    p00, p22, p02_re, p02_im, a20, a21 = _prepared(s_x, s_y, s_z)
    p20_re, p20_im = a20 * _H00 + a21 * _H01, -p02_im
    s, c = _sin_cos(0.5 * beta)
    t0_re, t0_im, t1_re, t1_im = (c * m for m in _first_column(unitary))
    q_re, q_im = s * t0_re, s * t0_im  # Q20
    c0 = p00 * (s * s) + p22 * ((t0_re * t0_re + t0_im * t0_im) + (t1_re * t1_re + t1_im * t1_im))
    c2_re = (p02_re * q_re + p02_im * q_im) + (p20_re * q_re - p20_im * q_im) + 0.0
    c2_im = (p02_im * q_re - p02_re * q_im) - (p20_re * q_im + p20_im * q_re) + 0.0
    return np.array(c0, ndmin=1), _from_parts([c2_re, c2_im]).reshape(-1)


def phase_probe(state: BlochState, det: DetectorConfig, beta: BeamSplitterAngle):
    """Fast port-a probability evaluator over 1-D arrays of phase settings.

    Equal to detection_probability_numeric(evolve(...)) per element, only
    reorganized: c0 + Re(c2 e^{-2i*phi}) on the point's two fringe
    coefficients, the ones whose extrema c0 +- |c2| duality.visibility_scans
    takes.
    """
    c0, c2 = _fringe_coefficients(state.s_x, state.s_y, state.s_z, det.unitary, float(beta.beta))

    def probe(phis: np.ndarray) -> np.ndarray:
        return c0 + (c2 * np.exp(-2j * np.asarray(phis, dtype=float))).real

    return probe
