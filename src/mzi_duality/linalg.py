"""Dense complex linear algebra for the one- and two-qubit operators used here.

All matrices are numpy arrays of complex128 with dimension fixed at 2 or 4.
The composite index convention is path-first: the basis vector
|path> (x) |detector| sits at row 2*path + detector, so the path basis order
(|b>, |a>) makes sigma_z = diag(1, -1) = |b><b| - |a><a|.
"""

from __future__ import annotations

import cmath
import itertools
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
DEGENERATE_GAP = 1e-14
_SMALLEST_NORMAL = sys.float_info.min
# From this eigenvalue half-gap on, the squared norm of a 2x2 eigensolver's
# raw eigenvector, at most (2 radius)^2 + radius^2, can overflow.
_SCALED_RADIUS = 2.0**510
_SIGNS = np.array([1.0, -1.0])
# The identity and the swapped identity: the eigenvectors of a diagonal
# matrix whose first entry is and is not the larger.
_CANONICAL_BASES = np.array([np.eye(2), np.eye(2)[::-1]], dtype=complex)

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _all_finite(arr: np.ndarray) -> bool:
    # np.isfinite(arr).all() as a byte search of the mask for a False (0): on a
    # few matrices a numpy reduction costs more to set up than the search.
    return b"\x00" not in np.isfinite(arr).tobytes()


def _as_matrix(value, name: str = "matrix", finite: bool = True) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} entries must be numbers") from exc
    if arr.shape not in ((2, 2), (4, 4)):
        raise InvalidInputError(f"{name} must be 2x2 or 4x4, got shape {arr.shape}")
    if finite and not _all_finite(arr):
        raise InvalidInputError(f"{name} must have finite entries")
    return arr


# A difference beyond the float range is an inf defect, which the checks reject, not an
# overflow warning. As a decorator, errstate adds about 0.45 us per call, a with block
# about 0.8 us.
@np.errstate(over="ignore")
def hermiticity_defect(matrix, axis=None):
    """Largest entrywise deviation of a matrix from its own adjoint.

    For an (n, d, d) stack: the largest over the stack, or one defect per
    matrix with ``axis=(1, 2)``.
    """
    m = np.asarray(matrix)
    d = m - m.conj().swapaxes(-1, -2)
    return np.maximum.reduce(np.hypot(d.real, d.imag), axis=axis)


def trace_errors(m: np.ndarray) -> np.ndarray:
    """|tr(rho) - 1| of a matrix or of each matrix of an (n, d, d) stack."""
    return abs(m.trace(0, -2, -1) - 1.0)


def check_densities(m: np.ndarray) -> np.ndarray:
    """DensityOperator's checks on a d x d matrix or on every matrix of an
    (n, d, d) stack, d = 2 or 4: finite entries, Hermitian, unit trace and
    positive semidefinite. Returns ``m``.

    Raises InvalidInputError with DensityOperator's message for the first
    check, in DensityOperator's order, that any member fails, quoting the
    worst member. One matrix of either size, alone or as a stack of one, is
    checked on its entries as Python complex numbers (_check_density): finite
    entries, the Hermitian defect and the trace, summed in numpy's order; a
    longer stack in numpy. Both take the lowest 2x2 eigenvalue as
    mean - radius, _mean_radius's, and the lowest 4x4 one from eigvalsh.

    The one modulus rule: where a one-point path and its stacked form each
    take a modulus (these checks, the 2x2 eigensolvers, BlochState.yz_norm),
    both take libm's hypot, as abs of a Python complex or np.hypot, so they
    agree to the bit; numpy's complex abs and math.hypot can differ in the last.
    """
    if m.size == m.shape[-1] ** 2:
        try:
            _check_density(m.reshape(m.shape[-2:]))
            return m
        except OverflowError:
            pass  # a modulus beyond the float range: the stacked checks quote inf
    if not _all_finite(m):
        raise InvalidInputError("density operator must have finite entries")
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise InvalidInputError(f"density operator is not Hermitian (defect {defect:.3e})")
    # The builtin max and min over one value per matrix: for a single matrix
    # a numpy reduction would cost more than the comparison it feeds.
    trace_err = max(trace_errors(m).flat)
    if trace_err > TRACE_TOL:
        raise InvalidInputError(f"density operator trace deviates from 1 by {trace_err:.3e}")
    lowest = np.subtract(*_mean_radius(m)) if m.shape[-1] == 2 else np.linalg.eigvalsh(m)[..., 0]
    smallest = min(lowest.flat)
    if smallest < -POSITIVITY_TOL:
        raise InvalidInputError(f"density operator has negative eigenvalue {smallest:.3e}")
    return m


def _check_density(m: np.ndarray) -> None:
    # check_densities on one 2x2 or 4x4 matrix, each check computed as the
    # stacked path computes it, on the entries as Python complex numbers. abs
    # raises OverflowError where a modulus exceeds the float range.
    rows = m.tolist()
    d = len(rows)
    if not all(map(cmath.isfinite, itertools.chain.from_iterable(rows))):
        raise InvalidInputError("density operator must have finite entries")
    # |m[j][i] - conj(m[i][j])| equals |m[i][j] - conj(m[j][i])|, so the upper
    # triangle holds every defect.
    defect = max(abs(rows[i][j] - rows[j][i].conjugate()) for i in range(d) for j in range(i, d))
    if defect > HERMITIAN_TOL:
        raise InvalidInputError(f"density operator is not Hermitian (defect {defect:.3e})")
    # numpy's trace sums two diagonal entries in order and four in pairs.
    if d == 2:
        trace = rows[0][0] + rows[1][1]
    else:
        trace = (rows[0][0] + rows[1][1]) + (rows[2][2] + rows[3][3])
    trace_err = abs(trace - 1.0)
    if trace_err > TRACE_TOL:
        raise InvalidInputError(f"density operator trace deviates from 1 by {trace_err:.3e}")
    if d == 2:
        (a, b), (_, c) = rows
        lowest = 0.5 * (a.real + c.real) - abs(complex(0.5 * (a.real - c.real), abs(b)))
    else:
        lowest = float(np.linalg.eigvalsh(m)[0])
    if lowest < -POSITIVITY_TOL:
        raise InvalidInputError(f"density operator has negative eigenvalue {lowest:.3e}")


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


def _checked_hermitian(h, caller: str) -> np.ndarray:
    # h as a 2x2 complex matrix with finite entries and Hermitian within
    # HERMITIAN_TOL, or InvalidInputError naming the caller.
    m = _as_matrix(h, "hermitian matrix")
    if m.shape != (2, 2):
        raise InvalidInputError(f"{caller} expects a 2x2 matrix")
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise InvalidInputError(f"matrix is not Hermitian (defect {defect:.3e})")
    return m


def _eigen_parts(m: np.ndarray) -> tuple[float, float, complex, float, float]:
    # The entries of a Hermitian [[a, b], [conj(b), c]] (a, c real) and the
    # mean and half-gap of its eigenvalues, which are mean +- radius. Python
    # floats overflow to inf without a numpy warning; abs raises OverflowError
    # where a modulus of finite parts exceeds the float range.
    (a, b), (_, c) = m.tolist()
    a, c, b = a.real, c.real, complex(b)
    mean = 0.5 * (a + c)
    try:
        radius = abs(complex(0.5 * (a - c), abs(b)))
    except OverflowError:
        radius = math.inf
    if abs(mean) + radius == math.inf:
        raise InvalidInputError("matrix eigenvalues exceed the float range")
    return a, c, b, mean, radius


# hermitian_eig2, trace_norm and check_densities work on one matrix in plain
# Python, apart from their stacked forms (_hermitian_eig2s, _trace_norms and
# check_densities' numpy checks). Through the stacked forms (the first two on
# a stack of one, after the same validation) the eigensolver takes 34.6 us per
# call on a 2x2 matrix against 5.8 us with its eigenvectors built on Python
# complex numbers (9.2 us when it built them as numpy 2-vectors; best of 9
# in-process rounds of 20 000 calls). The trace norm and the check took 5.9
# and 6.1 us against 3.5 and 0.8 us, and the check took 7.6 us on a 4x4
# against 5.5 us (3.0 of them eigvalsh's). The benchmark's
# single-point queries call the first two once each and check two 2x2 and
# two 4x4 matrices (evolve's Bloch input, partial_trace_path's result, and
# evolve's and evolve_closed_form's results): with the stacked eigensolver
# and trace norm they took 32% longer, with the stacked 2x2 check 11-16%
# longer (medians of 8 interleaved in-process rounds, two sets of rounds for
# the check) and with the stacked 4x4 check 7% longer, 102.9 against 96.3 us
# (medians of 8 interleaved processes; 2-vCPU x86-64 VM).
# The unchecked forms of the first two take a complex matrix that the caller
# built Hermitian and finite.


def hermitian_eig2(h) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a Hermitian 2x2 matrix.

    Returns (values, vectors) with the two real eigenvalues sorted in
    descending order and the matching orthonormal eigenvectors as the
    columns of ``vectors``. Each eigenvector is phase-fixed so its first
    nonzero component is real and positive, making the output deterministic.
    A spectrum with gap below ``DEGENERATE_GAP`` returns the canonical basis.
    """
    return _hermitian_eig2(_checked_hermitian(h, "hermitian_eig2"))


def _hermitian_eig2(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, c, b, mean, radius = _eigen_parts(h)
    half_diff = 0.5 * (a - c)
    values = np.array([mean + radius, mean - radius])

    if b == 0:
        return values, _CANONICAL_BASES[int(a < c)].copy()
    if 2.0 * radius < DEGENERATE_GAP:
        return values, _CANONICAL_BASES[0].copy()

    if radius >= _SCALED_RADIUS:
        # The vectors are built from half_diff, radius and b scaled exactly
        # by a power of two, radius to [1/2, 1); below, nothing is scaled,
        # so those matrices keep their bits.
        shift = -math.frexp(radius)[1]
        half_diff, radius = math.ldexp(half_diff, shift), math.ldexp(radius, shift)
        b = complex(math.ldexp(b.real, shift), math.ldexp(b.imag, shift))
    # Pick, per eigenvalue, the null-space construction whose leading entry
    # involves no cancellation (|lambda - diagonal| is maximal), and build
    # that entry as |half_diff| + radius: lambda - diagonal written out, so it
    # stays nonzero even where mean +- radius rounds back to the diagonal.
    lead = abs(half_diff) + radius
    if half_diff >= 0:
        raw = ((complex(lead), b.conjugate()), (b, complex(-lead)))
    else:
        raw = ((b, complex(lead)), (complex(-lead), b.conjugate()))
    columns = []
    for top, bottom in raw:
        # Normalized with the stacked form's sums, then phase-fixed by
        # conj(lead) / |lead| so that the leading entry is real and positive.
        norm = math.sqrt(
            (top.real * top.real + bottom.real * bottom.real)
            + (top.imag * top.imag + bottom.imag * bottom.imag)
        )
        unit_top = complex(top.real / norm, top.imag / norm)
        unit_bottom = complex(bottom.real / norm, bottom.imag / norm)
        lead = unit_top
        if abs(lead) < _SMALLEST_NORMAL:
            # The raw lead is nonzero, but below the normal range 1/|lead|
            # overflows, and the unit lead may even have underflowed to
            # zero: take the phase of the raw lead, scaled exactly by a
            # power of two to order one.
            shift = -math.frexp(max(abs(top.real), abs(top.imag)))[1]
            lead = complex(math.ldexp(top.real, shift), math.ldexp(top.imag, shift))
        phase = lead.conjugate() / abs(lead)
        columns.append([unit_top * phase, unit_bottom * phase])
    return values, np.array(columns).T


def trace_norm(h) -> float:
    """Sum of the absolute eigenvalues of a Hermitian 2x2 matrix."""
    return _trace_norm(_checked_hermitian(h, "trace_norm"))


def _trace_norm(h: np.ndarray) -> float:
    *_, mean, radius = _eigen_parts(h)
    return float(abs(mean + radius) + abs(mean - radius))


def _mean_radius(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Mean and half-gap of the eigenvalues mean +- radius of a Hermitian
    # [[a, b], [conj(b), c]] or of each of an (n, 2, 2) stack.
    a, c, b = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1]
    return 0.5 * (a + c), np.hypot(0.5 * (a - c), np.hypot(b.real, b.imag))


def _hermitian_eig2s(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # hermitian_eig2 of each matrix of an (n, 2, 2) stack the caller built
    # Hermitian and finite: values (n, 2) in descending order and the
    # phase-fixed eigenvectors as the columns of (n, 2, 2).
    a, c, b = h[:, 0, 0].real, h[:, 1, 1].real, h[:, 0, 1]
    mean, radius = _mean_radius(h)
    values = mean[:, None] + radius[:, None] * _SIGNS
    # The canonical basis where b == 0 (swapped where a < c, so that the
    # larger diagonal entry comes first) and where the gap is below
    # DEGENERATE_GAP. The other matrices are general; on the canonical ones
    # the null-space construction below runs on the stand-ins b = lead = 1,
    # so it divides by nothing there, and its result is discarded.
    canonical = _CANONICAL_BASES[((b == 0) & (a < c)).view(np.int8)]
    general = (b != 0) & (radius >= 0.5 * DEGENERATE_GAP)  # 2 * radius can overflow
    half_diff = 0.5 * (a - c)
    # Scaled as in _hermitian_eig2, where radius reaches _SCALED_RADIUS.
    big = radius >= _SCALED_RADIUS
    shift = np.where(big, -np.frexp(radius)[1], 0)
    half_diff, radius = np.ldexp(half_diff, shift), np.ldexp(radius, shift)
    b = np.where(big, np.ldexp(b.real, shift) + 1j * np.ldexp(b.imag, shift), b)
    # Per eigenvalue, pick the null-space construction whose leading entry
    # involves no cancellation (|lambda - diagonal| is maximal), and build
    # that entry as |half_diff| + radius: lambda - diagonal written out, so
    # it stays nonzero even where mean +- radius rounds back to the diagonal.
    # The unnormalized eigenvectors are the columns of raw.
    b = np.where(general, b, 1.0)
    lead = np.where(general, abs(half_diff) + radius, 1.0)
    top = half_diff >= 0
    conj_b = b.conj()
    raw = np.empty(h.shape, dtype=complex)
    raw[:, 0, 0] = np.where(top, lead, b)
    raw[:, 0, 1] = np.where(top, b, -lead)
    raw[:, 1, 0] = np.where(top, conj_b, lead)
    raw[:, 1, 1] = np.where(top, -lead, conj_b)
    # Real parts, then imaginary, as the one-matrix form sums them. That form
    # divides and phase-fixes on Python complex numbers; numpy's complex
    # division scales by a reciprocal and its complex product may fuse
    # multiply-adds, so the two forms' vectors can differ in the last bit:
    # parity tests hold them to 1e-15.
    norm = np.sqrt((raw.real * raw.real).sum(axis=1) + (raw.imag * raw.imag).sum(axis=1))
    unit = raw / norm[:, None, :]
    # conj(lead) / |lead| makes a unit vector's leading entry real and
    # positive. The unnormalized leading entry is nonzero, but below the
    # normal range 1/|lead| overflows, and the unit lead may even have
    # underflowed to zero: there take the phase of the unnormalized lead,
    # scaled exactly by a power of two to order one.
    lead, raw_lead = unit[:, 0, :], raw[:, 0, :]
    shift = -np.frexp(np.maximum(abs(raw_lead.real), abs(raw_lead.imag)))[1]
    scaled = np.ldexp(raw_lead.real, shift) + 1j * np.ldexp(raw_lead.imag, shift)
    lead = np.where(abs(lead) < _SMALLEST_NORMAL, scaled, lead)
    phased = unit * (lead.conj() / abs(lead))[:, None, :]
    return values, np.where(general[:, None, None], phased, canonical)


def _trace_norms(h: np.ndarray) -> np.ndarray:
    # trace_norm of each matrix of an (n, 2, 2) stack the caller built
    # Hermitian and finite.
    mean, radius = _mean_radius(h)
    return np.abs(mean + radius) + np.abs(mean - radius)
