"""Two-path interferometer with a which-path detector on one arm.

The particle enters through a symmetric beam splitter, picks up a relative
phase between the arms, marks a detector qubit when it travels arm ``a``,
and recombines on a second, generally asymmetric beam splitter. Everything
is expressed on the path basis (|b>, |a>), detector appended second.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_finite, require_in_range
from .linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    _kron2,
    check_densities,
)

BLOCH_NORM_TOL = 1e-12
BLOCH_LENGTH_MESSAGE = "Bloch vector length squared {!r} exceeds 1"
TWO_PI = 2.0 * math.pi

# The detector starts in the first basis state of its own qubit.
_DETECTOR_START = np.array([[1, 0], [0, 0]], dtype=complex)


def bloch_length_message(lam: float) -> str | None:
    """Why a squared Bloch length ``lam`` is invalid, or None when it is at
    most 1 within BLOCH_NORM_TOL: the rule BlochState enforces."""
    if lam > 1.0 + BLOCH_NORM_TOL:
        return BLOCH_LENGTH_MESSAGE.format(lam)
    return None


@dataclass(frozen=True)
class BlochState:
    """Input path qubit given by its Bloch vector (s_x, s_y, s_z).

    The squared length ``lam`` may not exceed 1; ``lam == 1`` is a pure state.
    ``alpha`` is the phase of s_z + i*s_y, the complex amplitude that feeds
    the interference fringe.
    """

    s_x: float
    s_y: float
    s_z: float

    def __post_init__(self):
        require_finite(s_x=self.s_x, s_y=self.s_y, s_z=self.s_z)
        message = bloch_length_message(self.lam)
        if message is not None:
            raise InvalidInputError(message)

    @property
    def lam(self) -> float:
        return self.s_x * self.s_x + self.s_y * self.s_y + self.s_z * self.s_z

    @property
    def yz_norm(self) -> float:
        """Length of the (s_y, s_z) projection, sqrt(lam - s_x**2)."""
        return math.hypot(self.s_y, self.s_z)

    @property
    def alpha(self) -> float:
        # atan2(0, 0) = 0 keeps the (unobservable) phase deterministic when
        # the fringe amplitude vanishes.
        return math.atan2(self.s_y, self.s_z)


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
        object.__setattr__(self, "phi", self.phi % TWO_PI)


@dataclass(frozen=True)
class DetectorConfig:
    """Which-path detector: reference state plus the marking unitary.

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
        """The marking unitary, unit determinant by construction.

        Built on first access and kept read-only on the instance; the cache
        lives outside the dataclass fields, so equality and hashing ignore it.
        """
        a = self.a_overlap
        b = math.sqrt(max(1.0 - a * a, 0.0))
        eg = cmath.exp(1j * self.gamma)
        ed = cmath.exp(1j * self.delta)
        u = np.array([[a * eg, -b * np.conj(ed)], [b * ed, a * np.conj(eg)]], dtype=complex)
        u.setflags(write=False)
        return u

    @property
    def reference_state(self) -> np.ndarray:
        return np.array([1, 0], dtype=complex)

    @property
    def marked_state(self) -> np.ndarray:
        """Detector state after marking, U|r>."""
        return self.unitary[:, 0].copy()


# The Pauli matrices X, Y, Z as the rows of a (3, 4) matrix.
_PAULI_ROWS = np.array([PAULI_X, PAULI_Y, PAULI_Z]).reshape(3, 4)


def _bloch_densities(s_x, s_y, s_z) -> np.ndarray:
    # (1 + s . sigma) / 2 of each point of 1-D Bloch component arrays: (n, 2, 2).
    # Each real and imaginary part of s . sigma is one component up to sign,
    # so the product is exact.
    s_dot_sigma = np.array([s_x, s_y, s_z], dtype=float).T @ _PAULI_ROWS
    return 0.5 * (IDENTITY_2 + s_dot_sigma.reshape(-1, 2, 2))


def bloch_to_density(state: BlochState) -> DensityOperator:
    """Density operator (1 + s . sigma) / 2 of a Bloch vector."""
    return DensityOperator(_bloch_densities([state.s_x], [state.s_y], [state.s_z])[0])


def _phase_shifters(phi) -> np.ndarray:
    # diag(e^{-i*phi}, e^{+i*phi}) of a phase or of each of an array of them.
    phi = np.asarray(phi, dtype=float)
    d = np.zeros(phi.shape + (2, 2), dtype=complex)
    d[..., 0, 0] = np.exp(-1j * phi)
    d[..., 1, 1] = np.exp(1j * phi)
    return d


def phase_shifter(phi: PhaseShift) -> np.ndarray:
    """Arm-phase unitary diag(e^{-i*phi}, e^{+i*phi})."""
    return _phase_shifters(phi.phi)


def _beam_splitters(beta) -> np.ndarray:
    # Rotation by beta about the y axis, for an angle or each of an array of them.
    half = 0.5 * np.asarray(beta, dtype=float)
    cos_h, sin_h = np.cos(half), np.sin(half)
    splitter = np.empty(half.shape + (2, 2), dtype=complex)
    splitter[..., 0, 0], splitter[..., 0, 1] = cos_h, -sin_h
    splitter[..., 1, 0], splitter[..., 1, 1] = sin_h, cos_h
    return splitter


def beam_splitter(angle: BeamSplitterAngle) -> np.ndarray:
    """Beam-splitter unitary, a rotation by beta about the y axis."""
    return _beam_splitters(angle.beta)


def _marking_operators(unitary) -> np.ndarray:
    # 1 (+) U for a (2, 2) marking unitary or each of an (n, 2, 2) stack.
    unitary = np.asarray(unitary)
    m = np.zeros(unitary.shape[:-2] + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = 1.0
    m[..., 2:, 2:] = unitary
    return m


def marking_operator(det: DetectorConfig) -> np.ndarray:
    """Joint unitary that applies U on the detector exactly when the path is |a>."""
    return _marking_operators(det.unitary)


def _lift_path(u: np.ndarray) -> np.ndarray:
    # u (x) 1 for a 2x2 path operator or each of a stack of them.
    return _kron2(u, IDENTITY_2)


# The input splitter is always the symmetric one, so it is lifted once.
_INPUT_SPLITTER = _lift_path(beam_splitter(BeamSplitterAngle(math.pi / 2)))


def _one_point(state, det, beta, phi) -> tuple:
    # The stacked pipeline's arguments for a single point.
    return [state.s_x], [state.s_y], [state.s_z], det.unitary, [beta.beta], [phi.phi]


def _evolve(s_x, s_y, s_z, unitary, beta, phi) -> np.ndarray:
    rho = check_densities(_bloch_densities(s_x, s_y, s_z))
    w = (
        _lift_path(_beam_splitters(beta))
        @ _marking_operators(unitary)
        @ _lift_path(_phase_shifters(phi))
        @ _INPUT_SPLITTER
    )
    return w @ _kron2(rho, _DETECTOR_START) @ w.conj().swapaxes(-1, -2)


def evolve_stack(s_x, s_y, s_z, unitary, beta, phi) -> np.ndarray:
    """evolve of n points at once: shape (n, 4, 4).

    ``s_x``, ``s_y``, ``s_z``, ``beta`` and ``phi`` are 1-D arrays with one
    entry per point, of validated inputs; ``unitary`` is one (2, 2) marking
    unitary for every point or an (n, 2, 2) stack of them. The factors are
    stacked along the first axis and multiplied as broadcast matrix
    products, and every input and output matrix passes DensityOperator's
    checks (linalg.check_densities).
    """
    return check_densities(_evolve(s_x, s_y, s_z, unitary, beta, phi))


def evolve(
    state: BlochState,
    det: DetectorConfig,
    beta: BeamSplitterAngle,
    phi: PhaseShift,
) -> DensityOperator:
    """Full pipeline: symmetric splitter, phase shift, marking, then recombiner.

    The one-point view of evolve_stack.
    """
    return DensityOperator(_evolve(*_one_point(state, det, beta, phi))[0])


# The path factors of evolve_closed_form's terms b, ba, ab and a, with
# s = sin(beta), c = cos(beta) and cross = s Z - c X:
#   1 + c Z + s X = [[1 + c, s], [s, 1 - c]],
#   cross - iY    = [[s, -(1 + c)], [1 - c, -s]],
#   cross + iY    = [[s, 1 - c], [-(1 + c), -s]],
#   1 - c Z - s X = [[1 - c, -s], [-s, 1 + c]],
# as indices into (s, 1 + c, 1 - c) and signs.
_PATH_ENTRY = np.array([[[1, 0], [0, 2]], [[0, 1], [2, 0]], [[0, 2], [1, 0]], [[2, 0], [0, 1]]])
_PATH_SIGN = np.array([[[1, 1], [1, 1]], [[1, -1], [1, -1]], [[1, 1], [-1, -1]], [[1, -1], [-1, 1]]])


def _evolve_closed_form(s_x, s_y, s_z, unitary, beta, phi) -> np.ndarray:
    s_x, s_y, s_z, beta, phi = (np.asarray(v, dtype=float) for v in (s_x, s_y, s_z, beta, phi))
    sin_b, cos_b = np.sin(beta), np.cos(beta)
    trig = np.stack([sin_b, 1.0 + cos_b, 1.0 - cos_b], axis=-1)
    paths = trig[:, _PATH_ENTRY] * _PATH_SIGN
    # The detector factors r r^H, r m^H, m r^H and m m^H of the reference
    # state r, the first basis state, and the marked state m = U r.
    kets = np.zeros((len(s_x), 2, 2), dtype=complex)
    kets[:, 0, 0] = 1.0
    kets[:, 1] = np.asarray(unitary)[..., :, 0]
    detectors = (kets[:, :, None, :, None] * kets.conj()[:, None, :, None, :]).reshape(-1, 4, 2, 2)
    fringe = np.exp(2j * phi)
    amp = s_z + 1j * s_y
    weights = np.stack(
        [
            0.25 * (1.0 - s_x),
            -0.25 * np.conj(fringe) * np.conj(amp),
            -0.25 * fringe * amp,
            0.25 * (1.0 + s_x),
        ],
        axis=-1,
    )
    return (weights[:, :, None, None] * _kron2(paths, detectors)).sum(axis=1)


def evolve_closed_form_stack(s_x, s_y, s_z, unitary, beta, phi) -> np.ndarray:
    """evolve_closed_form of n points at once: shape (n, 4, 4).

    Takes evolve_stack's arguments; every matrix passes DensityOperator's
    checks (linalg.check_densities).
    """
    return check_densities(_evolve_closed_form(s_x, s_y, s_z, unitary, beta, phi))


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
    The one-point view of evolve_closed_form_stack.
    """
    return DensityOperator(_evolve_closed_form(*_one_point(state, det, beta, phi))[0])


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


def port_denominator(s_x, cos_beta):
    """The port-a intensity scale 1 + s_x cos(beta), of scalars or arrays.

    Twice the phase-averaged port-a probability; every closed form divides by
    it, and the monitored port is dark where it vanishes.
    """
    return 1.0 + s_x * cos_beta


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
    b = beta.beta
    base = 0.5 * port_denominator(state.s_x, math.cos(b))
    osc = (
        0.5
        * det.a_overlap
        * state.yz_norm
        * math.sin(b)
        * math.cos(state.alpha + det.gamma + 2.0 * phi.phi)
    )
    return base + osc


def _phase_products(phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Real and imaginary parts of the 16-row table d_j conj(d_k), row 4j + k,
    # one column per phase, for the phase diagonal d of each phase.
    phase = np.exp(-1j * phis)
    d = np.empty((4, phase.size), dtype=complex)
    d[:2] = phase
    d[2:] = phase.conj()
    table = (d[:, None, :] * d.conj()[None, :, :]).reshape(16, phase.size)
    return np.ascontiguousarray(table.real), np.ascontiguousarray(table.imag)


@functools.cache
def _scan_grid(grid_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uniform phase grid step * arange(grid_size), step = 2*pi/grid_size,
    and its phase-product table (re, im): built once per grid size, on first
    use, and read-only."""
    grid = (TWO_PI / grid_size) * np.arange(grid_size)
    arrays = (grid, *_phase_products(grid))
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def port_matrices(s_x, s_y, s_z, unitary, beta) -> np.ndarray:
    """Port-a matrices of n points, folded in one stacked pass: shape (n, 4, 4).

    ``s_x``, ``s_y``, ``s_z`` and ``beta`` are 1-D arrays with one entry per
    point; ``unitary`` is one (2, 2) marking unitary for every point or an
    (n, 2, 2) stack of them, one per point. With the tail
    T = (recombiner x 1)(marking) and the prepared state P behind the input
    splitter, each point's matrix is M = P o (T[2:]^T conj(T[2:])), an
    elementwise product, so the port-a probability at phase phi is
    Re sum_jk M_jk d_j conj(d_k) for the phase diagonal
    d = (e^{-i*phi}, e^{-i*phi}, e^{+i*phi}, e^{+i*phi}). The factors are
    evolve_stack's, stacked along the first axis; inputs are taken as
    validated.
    """
    rho = _bloch_densities(s_x, s_y, s_z)
    prepared = _INPUT_SPLITTER @ _kron2(rho, _DETECTOR_START) @ _INPUT_SPLITTER.conj().T
    port_a = (_lift_path(_beam_splitters(beta)) @ _marking_operators(unitary))[:, 2:, :]
    return prepared * (port_a.transpose(0, 2, 1) @ port_a.conj())


def probabilities_on(m: np.ndarray, re: np.ndarray, im: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Port-a probabilities of the folded points ``m`` (n, 4, 4) at the k
    phases of one shared phase-product table: shape (n, k).

    ``(re, im)`` is the 16-row table of products d_j conj(d_k), row 4j + k,
    with one column per phase (_phase_products; _scan_grid caches a scan
    grid's). Every phase sums all 16 terms as two real matrix products,
    Re(M) @ re - Im(M) @ im, written into ``work``, a float64 array of shape
    (2, n', k) with n' >= n. The result is a view of ``work[0]``, valid until
    ``work`` is written again, so callers that evaluate many blocks pass one
    work array for all of them.
    """
    flat = m.reshape(len(m), 16)
    values, products = work[:, : len(m)]
    np.matmul(np.ascontiguousarray(flat.real), re, out=values)
    values -= np.matmul(np.ascontiguousarray(flat.imag), im, out=products)
    return values


def probabilities_at(m: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Port-a probabilities of each folded point of ``m`` (n, 4, 4) at its own
    row of phases ``phis`` (n, k): shape (n, k).

    Evaluates the quadratic form Re sum_j d_j (M conj(d))_j with one batched
    (n, 4, 4) @ (n, 4, k) product, so every phase still sums all 16 terms
    M_jk d_j conj(d_k).
    """
    phase = np.exp(-1j * phis)[:, None, :]
    d_conj = np.concatenate([phase.conj(), phase.conj(), phase, phase], axis=1)
    terms = m @ d_conj
    terms *= np.conjugate(d_conj, out=d_conj)  # d itself, conjugated in place
    return terms.sum(axis=1).real


def phase_probe(
    state: BlochState, det: DetectorConfig, beta: BeamSplitterAngle
):
    """Fast port-a probability evaluator over 1-D arrays of phase settings.

    Equal to detection_probability_numeric(evolve(...)) per element, only
    reorganized: the one-point view of port_matrices, evaluated by
    probabilities_on on a phase-product table and work array built per call.
    """
    m = port_matrices([state.s_x], [state.s_y], [state.s_z], det.unitary, [beta.beta])

    def probe(phis: np.ndarray) -> np.ndarray:
        re, im = _phase_products(np.asarray(phis, dtype=float))
        return probabilities_on(m, re, im, np.empty((2, 1, re.shape[1])))[0]

    return probe
