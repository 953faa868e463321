"""Dense complex linear algebra for the one- and two-qubit operators used here.

All matrices are numpy arrays of complex128 with dimension fixed at 2 or 4.
The composite index convention is path-first: the basis vector
|path> (x) |detector| sits at row 2*path + detector, so the path basis order
(|b>, |a>) makes sigma_z = diag(1, -1) = |b><b| - |a><a|.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Algebraic identities are held to 1e-12; anything routed through an
# eigendecomposition is certified to 1e-10 (two orders above float64 noise).
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
EIGEN_TOL = 1e-10
DEGENERATE_GAP = 1e-14
_SMALLEST_NORMAL = sys.float_info.min

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_matrix(value, name: str = "matrix", finite: bool = True) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] not in (2, 4):
        raise InvalidInputError(f"{name} must be 2x2 or 4x4, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must have finite entries")
    return arr


def hermiticity_defect(matrix, axis=None):
    """Largest entrywise deviation of a matrix from its own adjoint.

    For an (n, d, d) stack: the largest over the stack, or one defect per
    matrix with ``axis=(1, 2)``.
    """
    m = np.asarray(matrix)
    return abs(m - m.conj().swapaxes(-1, -2)).max(axis=axis)


def trace_errors(m: np.ndarray) -> np.ndarray:
    """|tr(rho) - 1| of a matrix or of each matrix of an (n, d, d) stack."""
    return abs(m.trace(0, -2, -1) - 1.0)


def check_densities(m: np.ndarray) -> np.ndarray:
    """DensityOperator's checks on a d x d matrix or on every matrix of an
    (n, d, d) stack, d = 2 or 4: finite entries, Hermitian, unit trace and
    positive semidefinite. Returns ``m``.

    Raises InvalidInputError with DensityOperator's message for the first
    check, in DensityOperator's order, that any member fails, quoting the
    worst member.
    """
    if not np.isfinite(m).all():
        raise InvalidInputError("density operator must have finite entries")
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise InvalidInputError(f"density operator is not Hermitian (defect {defect:.3e})")
    # The builtin max and min over one value per matrix: for a single matrix
    # a numpy reduction would cost more than the comparison it feeds.
    trace_err = max(trace_errors(m).flat)
    if trace_err > TRACE_TOL:
        raise InvalidInputError(f"density operator trace deviates from 1 by {trace_err:.3e}")
    smallest = min(np.linalg.eigvalsh(m)[..., 0].flat)
    if smallest < -POSITIVITY_TOL:
        raise InvalidInputError(f"density operator has negative eigenvalue {smallest:.3e}")
    return m


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated quantum state: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.matrix, "density operator", finite=False).copy()
        check_densities(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Entry (2i+k, 2j+l) is the single product a[i,j]*b[k,l], as in np.kron,
    # without np.kron's generic-shape overhead. Leading axes are stack axes
    # and broadcast.
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (4, 4))


def _coerce_density(rho, name: str) -> DensityOperator:
    if isinstance(rho, DensityOperator):
        return rho
    return DensityOperator(_as_matrix(rho, name))


def trace_path(m: np.ndarray) -> np.ndarray:
    """Trace out the path (first) factor of a 4x4 matrix or of each matrix of
    an (n, 4, 4) stack: shape (2, 2) or (n, 2, 2)."""
    return m.reshape(m.shape[:-2] + (2, 2, 2, 2)).trace(axis1=-4, axis2=-2)


def partial_trace_path(rho) -> DensityOperator:
    """Trace out the path (first) factor of a two-qubit state, keeping the detector."""
    state = _coerce_density(rho, "two-qubit state")
    if state.dim != 4:
        raise InvalidInputError("partial_trace_path expects a 4x4 density operator")
    return DensityOperator(trace_path(state.matrix))


def _phase_normalized(vector: np.ndarray) -> np.ndarray:
    # Rotate the global phase so the leading component is real and positive;
    # both construction branches below guarantee it is nonzero.
    v = vector / np.linalg.norm(vector)
    lead = v[0]
    if abs(lead) < _SMALLEST_NORMAL:
        # Below the normal range 1/|lead| overflows, and v[0] may even have
        # underflowed to zero: take the phase of the unnormalized lead,
        # scaled exactly by a power of two to order one.
        lead = vector[0]
        shift = -math.frexp(max(abs(lead.real), abs(lead.imag)))[1]
        lead = complex(math.ldexp(lead.real, shift), math.ldexp(lead.imag, shift))
    return v * (np.conj(lead) / abs(lead))


def _mean_radius(a, c, off):
    # Mean and half-gap of the eigenvalues mean +- radius of the Hermitian
    # [[a, b], [conj(b), c]] with off = |b|; scalars, or arrays over a stack.
    hypot = np.hypot if isinstance(a, np.ndarray) else math.hypot
    return 0.5 * (a + c), hypot(0.5 * (a - c), off)


def _eigen_parts(h, caller: str) -> tuple[np.ndarray, float, float]:
    # The validated Hermitian 2x2 matrix with the mean and the half-gap of
    # its eigenvalues, which are mean +- radius.
    m = _as_matrix(h, "hermitian matrix")
    if m.shape != (2, 2):
        raise InvalidInputError(f"{caller} expects a 2x2 matrix")
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise InvalidInputError(f"matrix is not Hermitian (defect {defect:.3e})")
    mean, radius = _mean_radius(m[0, 0].real, m[1, 1].real, abs(complex(m[0, 1])))
    return m, mean, radius


def hermitian_eig2(h) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a Hermitian 2x2 matrix.

    Returns (values, vectors) with the two real eigenvalues sorted in
    descending order and the matching orthonormal eigenvectors as the
    columns of ``vectors``. Each eigenvector is phase-fixed so its first
    nonzero component is real and positive, making the output deterministic.
    A spectrum with gap below ``DEGENERATE_GAP`` returns the canonical basis.
    """
    m, mean, radius = _eigen_parts(h, "hermitian_eig2")
    a = m[0, 0].real
    c = m[1, 1].real
    b = complex(m[0, 1])
    half_diff = 0.5 * (a - c)
    values = np.array([mean + radius, mean - radius])

    if b == 0:
        if a >= c:
            vectors = np.eye(2, dtype=complex)
        else:
            vectors = np.eye(2, dtype=complex)[:, ::-1]
        return values, vectors
    if 2.0 * radius < DEGENERATE_GAP:
        return values, np.eye(2, dtype=complex)

    # Pick, per eigenvalue, the null-space construction whose leading entry
    # involves no cancellation (|lambda - diagonal| is maximal), and build
    # that entry as |half_diff| + radius: lambda - diagonal written out, so it
    # stays nonzero even where mean +- radius rounds back to the diagonal.
    lead = abs(half_diff) + radius
    if half_diff >= 0:
        v_top = np.array([lead, np.conj(b)])
        v_bot = np.array([b, -lead])
    else:
        v_top = np.array([b, lead])
        v_bot = np.array([-lead, np.conj(b)])
    vectors = np.column_stack([_phase_normalized(v_top), _phase_normalized(v_bot)])
    return values, vectors


def trace_norm(h) -> float:
    """Sum of the absolute eigenvalues of a Hermitian 2x2 matrix."""
    _, mean, radius = _eigen_parts(h, "trace_norm")
    return float(abs(mean + radius) + abs(mean - radius))


def _trace_norms(h: np.ndarray) -> np.ndarray:
    # trace_norm of each matrix of an (n, 2, 2) stack the caller built
    # Hermitian and finite; |b| is np.hypot of its parts, as abs(complex) is.
    off = h[:, 0, 1]
    mean, radius = _mean_radius(h[:, 0, 0].real, h[:, 1, 1].real, np.hypot(off.real, off.imag))
    return np.abs(mean + radius) + np.abs(mean - radius)
