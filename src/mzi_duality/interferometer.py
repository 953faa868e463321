"""Two-path interferometer with a which-path detector on one arm.

The particle enters through a symmetric beam splitter, picks up a relative
phase between the arms, marks a detector qubit when it travels arm ``a``,
and recombines on a second, generally asymmetric beam splitter. Everything
is expressed on the path basis (|b>, |a>), detector appended second.
"""

from __future__ import annotations

import cmath
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
    tensor,
)

BLOCH_NORM_TOL = 1e-12
BLOCH_LENGTH_MESSAGE = "Bloch vector length squared {!r} exceeds 1"
TWO_PI = 2.0 * math.pi

# The detector starts in the first basis state of its own qubit.
_DETECTOR_START = np.array([[1, 0], [0, 0]], dtype=complex)


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
        if self.lam > 1.0 + BLOCH_NORM_TOL:
            raise InvalidInputError(BLOCH_LENGTH_MESSAGE.format(self.lam))

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

    @property
    def is_pure(self) -> bool:
        return abs(self.lam - 1.0) <= BLOCH_NORM_TOL


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

    @property
    def unitary(self) -> np.ndarray:
        """The marking unitary, unit determinant by construction."""
        a = self.a_overlap
        b = math.sqrt(max(1.0 - a * a, 0.0))
        eg = cmath.exp(1j * self.gamma)
        ed = cmath.exp(1j * self.delta)
        return np.array(
            [[a * eg, -b * np.conj(ed)], [b * ed, a * np.conj(eg)]], dtype=complex
        )

    @property
    def reference_state(self) -> np.ndarray:
        return np.array([1, 0], dtype=complex)

    @property
    def marked_state(self) -> np.ndarray:
        """Detector state after marking, U|r>."""
        return self.unitary[:, 0].copy()


def bloch_to_density(state: BlochState) -> DensityOperator:
    """Density operator (1 + s . sigma) / 2 of a Bloch vector."""
    m = 0.5 * (
        IDENTITY_2
        + state.s_x * PAULI_X
        + state.s_y * PAULI_Y
        + state.s_z * PAULI_Z
    )
    return DensityOperator(m)


def phase_shifter(phi: PhaseShift) -> np.ndarray:
    """Arm-phase unitary diag(e^{-i*phi}, e^{+i*phi})."""
    return np.array(
        [[cmath.exp(-1j * phi.phi), 0], [0, cmath.exp(1j * phi.phi)]], dtype=complex
    )


def beam_splitter(angle: BeamSplitterAngle) -> np.ndarray:
    """Beam-splitter unitary, a rotation by beta about the y axis."""
    h = 0.5 * angle.beta
    return np.array(
        [[math.cos(h), -math.sin(h)], [math.sin(h), math.cos(h)]], dtype=complex
    )


def marking_operator(det: DetectorConfig) -> np.ndarray:
    """Joint unitary that applies U on the detector exactly when the path is |a>."""
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = IDENTITY_2
    m[2:, 2:] = det.unitary
    return m


def _lift_path(u: np.ndarray) -> np.ndarray:
    return tensor(u, IDENTITY_2)


# The input splitter is always the symmetric one, so it is lifted once.
_INPUT_SPLITTER = _lift_path(beam_splitter(BeamSplitterAngle(math.pi / 2)))


def evolve(
    state: BlochState,
    det: DetectorConfig,
    beta: BeamSplitterAngle,
    phi: PhaseShift,
) -> DensityOperator:
    """Full pipeline: symmetric splitter, phase shift, marking, then recombiner."""
    joint_in = tensor(bloch_to_density(state).matrix, _DETECTOR_START)
    w = (
        _lift_path(beam_splitter(beta))
        @ marking_operator(det)
        @ _lift_path(phase_shifter(phi))
        @ _INPUT_SPLITTER
    )
    return DensityOperator(w @ joint_in @ w.conj().T)


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
    """
    u = det.unitary
    rho_d = _DETECTOR_START
    b = beta.beta
    cos_b = math.cos(b)
    sin_b = math.sin(b)
    cross_path = sin_b * PAULI_Z - cos_b * PAULI_X
    amp = state.s_z + 1j * state.s_y
    fringe = cmath.exp(2j * phi.phi)

    term_b = 0.25 * (1.0 - state.s_x) * tensor(
        IDENTITY_2 + cos_b * PAULI_Z + sin_b * PAULI_X, rho_d
    )
    term_ba = -0.25 * np.conj(fringe) * np.conj(amp) * tensor(
        cross_path - 1j * PAULI_Y, rho_d @ u.conj().T
    )
    term_ab = -0.25 * fringe * amp * tensor(cross_path + 1j * PAULI_Y, u @ rho_d)
    term_a = 0.25 * (1.0 + state.s_x) * tensor(
        IDENTITY_2 - cos_b * PAULI_Z - sin_b * PAULI_X, u @ rho_d @ u.conj().T
    )
    return DensityOperator(term_b + term_ba + term_ab + term_a)


def detection_probability_numeric(rho_f: DensityOperator) -> float:
    """Probability of finding the particle at port a, read off the joint state."""
    if not isinstance(rho_f, DensityOperator):
        rho_f = DensityOperator(rho_f)
    if rho_f.dim != 4:
        raise InvalidInputError("detection probability expects a 4x4 density operator")
    p = rho_f.matrix[2, 2].real + rho_f.matrix[3, 3].real
    return min(max(p, 0.0), 1.0)


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
    base = 0.5 * (1.0 + state.s_x * math.cos(b))
    osc = (
        0.5
        * det.a_overlap
        * state.yz_norm
        * math.sin(b)
        * math.cos(state.alpha + det.gamma + 2.0 * phi.phi)
    )
    return base + osc


# Phase-product tables of the visibility scan's uniform grids, one entry
# (grid, re, im) per grid size, filled on first use and read-only.
_SCAN_GRIDS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _phase_products(phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Real and imaginary parts of the 16-row table d_j conj(d_k), row 4j + k,
    # one column per phase, for the phase diagonal d of each phase.
    phase = np.exp(-1j * phis)
    d = np.empty((4, phase.size), dtype=complex)
    d[:2] = phase
    d[2:] = phase.conj()
    table = (d[:, None, :] * d.conj()[None, :, :]).reshape(16, phase.size)
    return np.ascontiguousarray(table.real), np.ascontiguousarray(table.imag)


def _phase_table(phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The cached table serves only the cached grid array itself; any other
    # array, an equal copy included, gets its table built on the fly.
    cached = _SCAN_GRIDS.get(phis.size)
    if cached is not None and cached[0] is phis:
        return cached[1], cached[2]
    return _phase_products(phis)


def _scan_grid(grid_size: int) -> np.ndarray:
    """The uniform phase grid step * arange(grid_size), step = 2*pi/grid_size.

    Built once per grid size together with its phase-product table, both
    read-only; a probe handed this very array reads the cached table.
    """
    cached = _SCAN_GRIDS.get(grid_size)
    if cached is None:
        grid = (TWO_PI / grid_size) * np.arange(grid_size)
        cached = (grid, *_phase_products(grid))
        for arr in cached:
            arr.setflags(write=False)
        _SCAN_GRIDS[grid_size] = cached
    return cached[0]


def port_matrices(s_x, s_y, s_z, det: DetectorConfig, beta) -> np.ndarray:
    """Port-a matrices of n points, folded in one stacked pass: shape (n, 4, 4).

    ``s_x``, ``s_y``, ``s_z`` and ``beta`` are 1-D arrays with one entry per
    point; ``det`` marks every point. With the tail
    T = (recombiner x 1)(marking) and the prepared state P behind the input
    splitter, each point's matrix is M = P o (T[2:]^T conj(T[2:])), an
    elementwise product, so the port-a probability at phase phi is
    Re sum_jk M_jk d_j conj(d_k) for the phase diagonal
    d = (e^{-i*phi}, e^{-i*phi}, e^{+i*phi}, e^{+i*phi}). The density and
    splitter factors are stacked along the first axis and multiplied with
    the marking operator as in evolve; inputs are taken as validated.
    """
    column = [np.asarray(v, dtype=float)[:, None, None] for v in (s_x, s_y, s_z)]
    rho = 0.5 * (IDENTITY_2 + column[0] * PAULI_X + column[1] * PAULI_Y + column[2] * PAULI_Z)
    prepared = _INPUT_SPLITTER @ _kron2(rho, _DETECTOR_START) @ _INPUT_SPLITTER.conj().T
    half = 0.5 * np.asarray(beta, dtype=float)
    cos_h, sin_h = np.cos(half), np.sin(half)
    splitter = np.empty(half.shape + (2, 2), dtype=complex)
    splitter[:, 0, 0], splitter[:, 0, 1] = cos_h, -sin_h
    splitter[:, 1, 0], splitter[:, 1, 1] = sin_h, cos_h
    port_a = (_kron2(splitter, IDENTITY_2) @ marking_operator(det))[:, 2:, :]
    return prepared * (port_a.transpose(0, 2, 1) @ port_a.conj())


def probabilities_on(m: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Port-a probabilities of the folded points ``m`` (n, 4, 4) at one shared
    1-D phase array: shape (n, len(phis)).

    Sums all 16 terms at every phase as two real matrix products,
    Re(M) @ re - Im(M) @ im, where (re, im) is the 16-row table of products
    d_j conj(d_k), row 4j + k. The table of a grid from _scan_grid is built
    once per grid size; any other phase array gets one built per call.
    """
    flat = m.reshape(len(m), 16)
    re, im = _phase_table(phis)
    values = np.ascontiguousarray(flat.real) @ re
    values -= np.ascontiguousarray(flat.imag) @ im
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
    probabilities_on, which reads the cached table of a scan grid and builds
    one for any other phase array.
    """
    m = port_matrices([state.s_x], [state.s_y], [state.s_z], det, [beta.beta])

    def probe(phis: np.ndarray) -> np.ndarray:
        return probabilities_on(m, np.asarray(phis, dtype=float))[0]

    return probe
