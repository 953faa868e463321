"""Two-path interferometer with a which-path detector on one arm.

The particle enters through a symmetric beam splitter, picks up a relative
phase between the arms, marks a detector qubit when it travels arm ``a``,
and recombines on a second, generally asymmetric beam splitter. Everything
is expressed on the path basis (|b>, |a>), detector appended second.
"""

from __future__ import annotations

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


def _yz_norms(s_y: np.ndarray, s_z: np.ndarray) -> np.ndarray:
    # BlochState.yz_norm of each point of 1-D component arrays, by math.hypot
    # per element: np.hypot differs from it in the last bit on some inputs.
    return np.array(list(map(math.hypot, s_y.tolist(), s_z.tolist())))


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


def marking_unitaries(a_overlap, gamma, delta) -> np.ndarray:
    """DetectorConfig's marking unitary, unit determinant by construction:
    (2, 2) of floats, or an (n, 2, 2) stack of 1-D arrays. Inputs are taken
    as validated; 0 <= a_overlap <= 1 keeps 1 - a_overlap**2 nonnegative."""
    a = a_overlap
    b = np.sqrt(1.0 - a * a)
    eg, ed = np.exp(1j * gamma), np.exp(1j * delta)
    # b.shape, not np.shape(a): a float's np.shape costs more than the formula.
    u = np.empty(b.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = a * eg
    u[..., 0, 1] = -b * np.conj(ed)
    u[..., 1, 0] = b * ed
    u[..., 1, 1] = a * np.conj(eg)
    return u


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


def _beam_splitters(beta) -> np.ndarray:
    # Rotation by beta about the y axis, for an angle or each of an array of them.
    half = 0.5 * np.asarray(beta, dtype=float)
    cos_h, sin_h = np.cos(half), np.sin(half)
    splitter = np.empty(half.shape + (2, 2), dtype=complex)
    splitter[..., 0, 0], splitter[..., 0, 1] = cos_h, -sin_h
    splitter[..., 1, 0], splitter[..., 1, 1] = sin_h, cos_h
    return splitter


def _marking_operators(unitary) -> np.ndarray:
    # 1 (+) U for a (2, 2) marking unitary or each of an (n, 2, 2) stack.
    unitary = np.asarray(unitary)
    m = np.zeros(unitary.shape[:-2] + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = 1.0
    m[..., 2:, 2:] = unitary
    return m


def _lift_path(u: np.ndarray) -> np.ndarray:
    # u (x) 1 for a 2x2 path operator or each of a stack of them.
    return _kron2(u, IDENTITY_2)


# The input splitter is always the symmetric one, so it is lifted once.
_INPUT_SPLITTER = _lift_path(_beam_splitters(math.pi / 2))


def _one_point(state, det, beta, phi) -> tuple:
    # The stacked pipeline's arguments for a single point.
    return [state.s_x], [state.s_y], [state.s_z], det.unitary, [beta.beta], [phi.phi]


def _tail(unitary, beta) -> np.ndarray:
    # The pipeline after the phase shifter, T = (recombiner x 1)(1 (+) U),
    # of each point: (n, 4, 4).
    return _lift_path(_beam_splitters(beta)) @ _marking_operators(unitary)


def _evolve(s_x, s_y, s_z, unitary, beta, phi) -> np.ndarray:
    rho = check_densities(_bloch_densities(s_x, s_y, s_z))
    w = _tail(unitary, beta) @ _lift_path(_phase_shifters(phi)) @ _INPUT_SPLITTER
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


def port_terms(s_x, beta):
    """(sin beta, 1 + s_x cos beta) of a point, by math, or of arrays of points.

    The port denominator 1 + s_x cos beta is twice the phase-averaged port-a
    probability: every closed form divides by it, and the monitored port is
    dark where it vanishes. The closest double to pi counts as an exact half
    turn, so the boundary statements V=0, D=1, residual=0 hold exactly.
    """
    if isinstance(beta, np.ndarray):
        sin_beta, cos_beta = np.where(beta == math.pi, 0.0, np.sin(beta)), np.cos(beta)
    else:
        sin_beta, cos_beta = (0.0 if beta == math.pi else math.sin(beta)), math.cos(beta)
    return sin_beta, 1.0 + s_x * cos_beta


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


# --- the phase search ----------------------------------------------------------

PHASE_REFINE_TOL = 1e-12
# Interior samples per bracket and refinement round. The port-a probability
# has only the frequencies 0 and 2 in phi (a constant plus one fringe of
# period pi), so the first round's 31 samples over the full turn [0, 2*pi],
# about 16 per period, already leave each extremum within one spacing of the
# best sample. Narrowing a bracket to its best sample +- one spacing shrinks
# it by (n + 1) / 2 = 16 per round, so a scan refines in 11 rounds.
_REFINE_SAMPLES = 31
_SAMPLE_INDEX = np.arange(1, _REFINE_SAMPLES + 1)
# Points per block. Each round costs a fixed few numpy calls per block, so
# blocks of 32 points made a 1000-point scan about 2.7 times as slow as
# blocks of 256, past which it no longer gets faster. A block's arrays stay
# bounded, under 1 MB (the work array alone is 2 x 2 x 256 x 31 doubles);
# one block of every point would take about 2 kB per point, 445 MB more for
# a 200 000-row sweep.
_SCAN_CHUNK = 256


def _phase_products(phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Real and imaginary parts of the 16-row table d_j conj(d_k), row 4j + k,
    # one column per phase, for the phase diagonal d of each phase.
    phase = np.exp(-1j * phis)
    d = np.empty((4, phase.size), dtype=complex)
    d[:2] = phase
    d[2:] = phase.conj()
    table = (d[:, None, :] * d.conj()[None, :, :]).reshape(16, phase.size)
    return np.ascontiguousarray(table.real), np.ascontiguousarray(table.imag)


def _port_matrices(s_x, s_y, s_z, unitary, beta) -> np.ndarray:
    # Port-a matrices of n points, folded in one stacked pass: (n, 4, 4).
    # With the tail T (_tail) and the prepared state P behind the input
    # splitter, each point's matrix is M = P o (T[2:]^T conj(T[2:])), an
    # elementwise product, so the port-a probability at phase phi is
    # Re sum_jk M_jk d_j conj(d_k) for the phase diagonal
    # d = (e^{-i*phi}, e^{-i*phi}, e^{+i*phi}, e^{+i*phi}).
    rho = _bloch_densities(s_x, s_y, s_z)
    prepared = _INPUT_SPLITTER @ _kron2(rho, _DETECTOR_START) @ _INPUT_SPLITTER.conj().T
    port_a = _tail(unitary, beta)[:, 2:, :]
    return prepared * (port_a.transpose(0, 2, 1) @ port_a.conj())


def _probabilities_on(m: np.ndarray, re: np.ndarray, im: np.ndarray, work: np.ndarray) -> np.ndarray:
    # Port-a probabilities of the folded points m (n, 4, 4) at the k phases
    # of one phase-product table (re, im) of _phase_products: shape (n, k).
    # Every phase sums all 16 terms as two real matrix products,
    # Re(M) @ re - Im(M) @ im, written into work, a float64 array of shape
    # (2, n', k) with n' >= n; the result is a view of work[0], valid until
    # work is written again.
    flat = m.reshape(len(m), 16)
    values, products = work[:, : len(m)]
    np.matmul(np.ascontiguousarray(flat.real), re, out=values)
    values -= np.matmul(np.ascontiguousarray(flat.imag), im, out=products)
    return values


def _bracket_probabilities(m, lo, offsets, work) -> np.ndarray:
    # Port-a probabilities of each folded point of ``m`` at its own base
    # phase lo_j plus each of the shared ``offsets``: shape (len(m),
    # len(offsets)). The phase-product table is multiplicative in the phase,
    # P(lo + s) = P(lo) o P(s), so each base phase is folded into its
    # point's matrix and every row is evaluated on one offset table.
    base_re, base_im = _phase_products(lo)
    folded = m * (base_re + 1j * base_im).T.reshape(-1, 4, 4)
    return _probabilities_on(folded, *_phase_products(offsets), work[..., : len(offsets)])


def _refine_extrema(m, work: np.ndarray):
    # Bracket search for each point's maximum and minimum over the phase dial,
    # all 2n brackets in one evaluation per round, every bracket starting as
    # the full turn [0, 2*pi]. After the first round each bracket holds one
    # extremum of the sinusoidal, hence locally unimodal, fringe, so the
    # extremum lies within one spacing of the best sample.
    n = len(m)
    pairs = np.concatenate([m, m])
    lo = np.zeros(2 * n)
    width = TWO_PI
    while width > PHASE_REFINE_TOL:
        spacing = width / (_REFINE_SAMPLES + 1)
        offsets = spacing * _SAMPLE_INDEX
        values = _bracket_probabilities(pairs, lo, offsets, work)
        best = np.concatenate([values[:n].argmax(axis=1), values[n:].argmin(axis=1)])
        lo = lo + offsets[best] - spacing
        width = 2.0 * spacing
    refined = _bracket_probabilities(pairs, lo, np.array([0.5 * width]), work)[:, 0]
    return refined[:n], refined[n:]


def port_extrema(s_x, s_y, s_z, unitary, beta) -> tuple[np.ndarray, np.ndarray]:
    """(p_max, p_min): the extrema over the phase dial of n points' port-a
    probability, found by explicit search; two arrays of shape (n,).

    ``s_x``, ``s_y``, ``s_z`` and ``beta`` are 1-D arrays, one entry per
    point, of validated inputs; ``unitary`` is one (2, 2) marking unitary
    for every point or an (n, 2, 2) stack of them, one per point.

    Folds all points at once (_port_matrices), then refines them in blocks
    of _SCAN_CHUNK points. Each point's maximum and minimum start as one
    bracket each over the full turn [0, 2*pi]; each round samples every
    bracket at 31 interior phases, with each bracket's base phase folded
    into its point's matrix, and narrows it to its best sample +- one
    spacing, until the brackets are narrower than PHASE_REFINE_TOL. Every
    sampled phase sums all 16 terms of the pipeline's quadratic form. The
    refinement writes into one work array that the call allocates once and
    every block reuses.
    """
    m = _port_matrices(s_x, s_y, s_z, unitary, beta)
    work = np.empty((2, 2 * min(len(m), _SCAN_CHUNK), _REFINE_SAMPLES))
    p_max, p_min = np.empty((2, len(m)))
    for start in range(0, len(m), _SCAN_CHUNK):
        block = slice(start, start + _SCAN_CHUNK)
        p_max[block], p_min[block] = _refine_extrema(m[block], work)
    return p_max, p_min


def phase_probe(
    state: BlochState, det: DetectorConfig, beta: BeamSplitterAngle
):
    """Fast port-a probability evaluator over 1-D arrays of phase settings.

    Equal to detection_probability_numeric(evolve(...)) per element, only
    reorganized: the one-point case of the scan's evaluator, on a
    phase-product table and work array built per call.
    """
    m = _port_matrices([state.s_x], [state.s_y], [state.s_z], det.unitary, [beta.beta])

    def probe(phis: np.ndarray) -> np.ndarray:
        re, im = _phase_products(np.asarray(phis, dtype=float))
        return _probabilities_on(m, re, im, np.empty((2, 1, re.shape[1])))[0]

    return probe
