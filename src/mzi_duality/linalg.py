"""Dense complex linear algebra for the one- and two-qubit operators used here.

All matrices are numpy arrays of complex128 with dimension fixed at 2 or 4.
The composite index convention is path-first: the basis vector
|path> (x) |detector| sits at row 2*path + detector, so the path basis order
(|b>, |a>) makes sigma_z = diag(1, -1) = |b><b| - |a><a|.
"""

from __future__ import annotations

import math
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

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_matrix(value, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] not in (2, 4):
        raise InvalidInputError(f"{name} must be 2x2 or 4x4, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must have finite entries")
    return arr


def hermiticity_defect(matrix) -> float:
    """Largest entrywise deviation of a matrix from its own adjoint."""
    m = np.asarray(matrix)
    return float(np.abs(m - m.conj().T).max())


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated quantum state: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.matrix, "density operator")
        defect = hermiticity_defect(arr)
        if defect > HERMITIAN_TOL:
            raise InvalidInputError(f"density operator is not Hermitian (defect {defect:.3e})")
        trace_err = abs(complex(arr.trace()) - 1.0)
        if trace_err > TRACE_TOL:
            raise InvalidInputError(f"density operator trace deviates from 1 by {trace_err:.3e}")
        smallest = float(np.linalg.eigvalsh(arr)[0])
        if smallest < -POSITIVITY_TOL:
            raise InvalidInputError(f"density operator has negative eigenvalue {smallest:.3e}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def tensor(path_factor, detector_factor) -> np.ndarray:
    """Kronecker product with the path factor first and the detector factor second."""
    a = _as_matrix(path_factor, "path factor")
    b = _as_matrix(detector_factor, "detector factor")
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise InvalidInputError("tensor expects two 2x2 factors")
    # Entry (2i+k, 2j+l) is the single product a[i,j]*b[k,l], as in np.kron,
    # without np.kron's generic-shape overhead.
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _coerce_density(rho, name: str) -> DensityOperator:
    if isinstance(rho, DensityOperator):
        return rho
    return DensityOperator(_as_matrix(rho, name))


def partial_trace_path(rho) -> DensityOperator:
    """Trace out the path (first) factor of a two-qubit state, keeping the detector."""
    state = _coerce_density(rho, "two-qubit state")
    if state.dim != 4:
        raise InvalidInputError("partial_trace_path expects a 4x4 density operator")
    reduced = state.matrix.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    return DensityOperator(reduced)


def partial_trace_detector(rho) -> DensityOperator:
    """Trace out the detector (second) factor of a two-qubit state, keeping the path."""
    state = _coerce_density(rho, "two-qubit state")
    if state.dim != 4:
        raise InvalidInputError("partial_trace_detector expects a 4x4 density operator")
    reduced = state.matrix.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    return DensityOperator(reduced)


def _phase_normalized(vector: np.ndarray) -> np.ndarray:
    # Rotate the global phase so the leading component is real and positive;
    # both construction branches below guarantee it is nonzero.
    v = vector / np.linalg.norm(vector)
    lead = v[0]
    return v * (np.conj(lead) / abs(lead))


def hermitian_eig2(h) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a Hermitian 2x2 matrix.

    Returns (values, vectors) with the two real eigenvalues sorted in
    descending order and the matching orthonormal eigenvectors as the
    columns of ``vectors``. Each eigenvector is phase-fixed so its first
    nonzero component is real and positive, making the output deterministic.
    A spectrum with gap below ``DEGENERATE_GAP`` returns the canonical basis.
    """
    m = _as_matrix(h, "hermitian matrix")
    if m.shape != (2, 2):
        raise InvalidInputError("hermitian_eig2 expects a 2x2 matrix")
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise InvalidInputError(f"matrix is not Hermitian (defect {defect:.3e})")

    a = m[0, 0].real
    c = m[1, 1].real
    b = complex(m[0, 1])
    mean = 0.5 * (a + c)
    half_diff = 0.5 * (a - c)
    radius = math.hypot(half_diff, abs(b))
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
    # involves no cancellation (|lambda - diagonal| is maximal).
    if half_diff >= 0:
        v_top = np.array([values[0] - c, np.conj(b)])
        v_bot = np.array([b, values[1] - a])
    else:
        v_top = np.array([b, values[0] - a])
        v_bot = np.array([values[1] - c, np.conj(b)])
    vectors = np.column_stack([_phase_normalized(v_top), _phase_normalized(v_bot)])
    return values, vectors


def trace_norm(h) -> float:
    """Sum of the absolute eigenvalues of a Hermitian 2x2 matrix."""
    values, _ = hermitian_eig2(h)
    return float(np.abs(values).sum())
