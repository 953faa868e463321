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

from .errors import InvalidInputError, require_finite
from .linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    tensor,
)

BLOCH_NORM_TOL = 1e-12
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
            raise InvalidInputError(
                f"Bloch vector length squared {self.lam!r} exceeds 1"
            )

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
        if not 0.0 <= self.a_overlap <= 1.0:
            raise InvalidInputError(
                f"a_overlap must lie in [0, 1], got {self.a_overlap!r}"
            )

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


def phase_probe(
    state: BlochState, det: DetectorConfig, beta: BeamSplitterAngle
):
    """Fast port-a probability evaluator over arrays of phase settings.

    Equal to detection_probability_numeric(evolve(...)) per element, only
    reorganized. With the tail T = (recombiner x 1)(marking), the phase
    diagonal d = (e^{-i*phi}, e^{-i*phi}, e^{+i*phi}, e^{+i*phi}) and the
    prepared state P behind the input splitter, the final state is
    W P W^dagger with W = T diag(d), so the port-a probability is
    Re sum_jk M_jk d_j conj(d_k) with M = P o (T[2:]^T conj(T[2:])), an
    elementwise product built once per probe. Each call then costs one exp,
    one (4x4)@(4xN) product and one reduction over the phase vectors.
    """
    joint_in = tensor(bloch_to_density(state).matrix, _DETECTOR_START)
    prepared = _INPUT_SPLITTER @ joint_in @ _INPUT_SPLITTER.conj().T
    port_a = (_lift_path(beam_splitter(beta)) @ marking_operator(det))[2:, :]
    m = prepared * (port_a.T @ port_a.conj())

    def probe(phis: np.ndarray) -> np.ndarray:
        phase = np.exp(-1j * np.asarray(phis, dtype=float))
        d = np.empty((4, phase.size), dtype=complex)
        d[:2] = phase
        d[2:] = phase.conj()
        return (d * (m @ d.conj())).sum(axis=0).real

    return probe
