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

IDENTITY_2 = np.eye(2, dtype=complex)


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
    take a modulus (these checks, the 2x2 eigensolver and trace norm,
    BlochState.yz_norm), both take libm's hypot, as abs of a Python complex or
    np.hypot (the shared helper _modulus), so they agree to the bit; numpy's
    complex abs and math.hypot can differ in the last.
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
    if m.shape[-1] == 2:
        with np.errstate(over="ignore"):  # a modulus beyond the float range: -inf
            mean, radius = _mean_radius(*_entries(m.reshape(-1, 2, 2)))
        lowest = mean - radius
    else:
        lowest = np.linalg.eigvalsh(m)[..., 0]
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
        mean, radius = _mean_radius(a.real, c.real, b.real, b.imag)
        lowest = mean - radius
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


def _checked_hermitian(h, caller: str) -> tuple[float, float, float, float]:
    # The entries (a, c, b_re, b_im) of h = [[a, b], [conj(b), c]] as Python
    # floats, where h is 2x2 with finite entries, Hermitian within
    # HERMITIAN_TOL and with eigenvalues in the float range; else
    # InvalidInputError naming the caller.
    m = _as_matrix(h, "hermitian matrix")
    if m.shape != (2, 2):
        raise InvalidInputError(f"{caller} expects a 2x2 matrix")
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise InvalidInputError(f"matrix is not Hermitian (defect {defect:.3e})")
    entries = _entries(m)
    try:
        mean, radius = _mean_radius(*entries)
    except OverflowError:
        mean, radius = 0.0, math.inf
    if abs(mean) + radius == math.inf:
        raise InvalidInputError("matrix eigenvalues exceed the float range")
    return entries


def _entries(h: np.ndarray):
    # (a, c, b_re, b_im) of a Hermitian h = [[a, b], [conj(b), c]]: Python
    # floats for one matrix, 1-D arrays for an (n, 2, 2) stack.
    if h.ndim == 2:
        (a, b), (_, c) = h.tolist()
        return a.real, c.real, b.real, b.imag
    b = h[:, 0, 1]
    return h[:, 0, 0].real, h[:, 1, 1].real, b.real, b.imag


def _from_parts(parts, shape=None) -> np.ndarray:
    # The complex vector, or matrix of the given shape, whose real and
    # imaginary parts in row-major order are the items of parts: a point's
    # floats, or a stack's 1-D arrays, one entry per point (shape (n, ...)).
    # Fortran order lays each point's parts out contiguously: a point's
    # array is not copied, a stack's parts are copied once.
    entries = np.asarray(parts, order="F").T.view(complex)
    return entries if shape is None else entries.reshape(entries.shape[:-1] + shape)


def _select(cond, x, y):
    # x where cond holds, else y: a branch on a point's Python scalars, or
    # np.where on a stack's arrays, which computes both sides on every lane.
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def _any(cond) -> bool:
    # Whether cond holds for a point, or on any lane of a stack.
    if isinstance(cond, np.ndarray):
        return bool(cond.any())
    return cond


def _sin_cos(angle):
    # (sin, cos) of an angle by math, or of an array of them by numpy.
    if isinstance(angle, np.ndarray):
        return np.sin(angle), np.cos(angle)
    return math.sin(angle), math.cos(angle)


def _modulus(x, y):
    # |x + iy| by libm's hypot, of floats or of arrays (the one modulus rule,
    # check_densities). Of floats, abs raises OverflowError where the modulus
    # of finite parts exceeds the float range.
    if isinstance(x, np.ndarray):
        return np.hypot(x, y)
    return abs(complex(x, y))


def _mean_radius(a, c, b_re, b_im):
    # Mean and half-gap of the eigenvalues mean +- radius of the Hermitian
    # [[a, b], [conj(b), c]], of floats or of 1-D arrays (see _entries).
    return 0.5 * (a + c), _modulus(0.5 * (a - c), _modulus(b_re, b_im))


def _trace_norm(a, c, b_re, b_im):
    # trace_norm of the Hermitian [[a, b], [conj(b), c]], of floats or arrays.
    mean, radius = _mean_radius(a, c, b_re, b_im)
    return abs(mean + radius) + abs(mean - radius)


def hermitian_eig2(h) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a Hermitian 2x2 matrix.

    Returns (values, vectors) with the two real eigenvalues sorted in
    descending order and the matching orthonormal eigenvectors as the
    columns of ``vectors``. Each eigenvector is phase-fixed so its first
    nonzero component is real and positive, making the output deterministic.
    A spectrum with gap below ``DEGENERATE_GAP`` returns the canonical basis.
    The one formula, _hermitian_eig2, also takes a stack as arrays, and its
    row for this matrix is this result to the bit.
    """
    return _hermitian_eig2(*_checked_hermitian(h, "hermitian_eig2"))


def _hermitian_eig2(a, c, b_re, b_im) -> tuple[np.ndarray, np.ndarray]:
    # hermitian_eig2 of [[a, b], [conj(b), c]], b = b_re + i b_im, which the
    # caller built Hermitian and finite: of floats, values (2,) and vectors
    # (2, 2); of 1-D arrays, (n, 2) and (n, 2, 2). Every step is real
    # arithmetic, which rounds alike in Python and in numpy, so each stack row
    # is its point to the bit, as in interferometer._evolve_closed_form.
    xp = np if isinstance(a, np.ndarray) else math
    mean, radius = _mean_radius(a, c, b_re, b_im)
    values = np.array([mean + radius, mean - radius]).T
    # The canonical basis where b == 0, swapped where a < c so that the larger
    # diagonal entry comes first, and where the gap is below DEGENERATE_GAP
    # (2 * radius can overflow). Elsewhere the matrix is general; on the
    # canonical ones the construction below runs on the stand-ins
    # b = lead = 1, so it divides by nothing, and its result is discarded.
    general = ((b_re != 0) | (b_im != 0)) & (radius >= 0.5 * DEGENERATE_GAP)
    off = _select((b_re == 0) & (b_im == 0) & (a < c), 1.0, 0.0)
    on, zero = 1.0 - off, 0.0 * off  # +0.0, a float or an array as off is
    # From a half-gap of _SCALED_RADIUS on, half_diff, radius and b are scaled
    # exactly by a power of two, radius to [1/2, 1), so that no squared norm
    # overflows; ldexp by 0 keeps every bit of the others. (Here and below,
    # the rare side is computed only where some lane takes it.)
    half_diff = 0.5 * (a - c)
    big = radius >= _SCALED_RADIUS
    if _any(big):
        shift = _select(big, -xp.frexp(radius)[1], 0)
        half_diff, radius, b_re, b_im = (xp.ldexp(x, shift) for x in (half_diff, radius, b_re, b_im))
    # Per eigenvalue, the null-space construction whose leading entry,
    # lambda - diagonal, involves no cancellation, that entry written out as
    # |half_diff| + radius so that it stays nonzero even where mean +- radius
    # rounds back to the diagonal: the columns (lead, conj b) and (b, -lead)
    # where half_diff >= 0, else (b, lead) and (-lead, conj b).
    one = 1.0 + zero
    lead, b_re, b_im = _select(general, (abs(half_diff) + radius, b_re, b_im), (one, one, zero))
    columns = _select(
        half_diff >= 0,
        ((lead, zero, b_re, -b_im), (b_re, b_im, -lead, zero)),
        ((b_re, b_im, lead, zero), (-lead, zero, b_re, -b_im)),
    )
    # The two columns' one norm: either's (re^2 + re^2) + (im^2 + im^2), with
    # its exact zero term dropped.
    norm = xp.sqrt((lead * lead + b_re * b_re) + b_im * b_im)
    tops, lows = [], []
    for top_re, top_im, low_re, low_im in columns:
        t_re, t_im, u_re, u_im = top_re / norm, top_im / norm, low_re / norm, low_im / norm
        # Phase-fixed by conj(lead) / |lead|, the lead real and positive. The
        # raw lead is nonzero, but below the normal range 1/|lead| overflows,
        # and the unit lead may even underflow to zero: there take the phase
        # of the raw lead, scaled exactly by a power of two to order one.
        l_re, l_im, size = t_re, t_im, _modulus(t_re, t_im)
        small = size < _SMALLEST_NORMAL
        if _any(small):
            peak = _select(abs(top_im) > abs(top_re), abs(top_im), abs(top_re))  # as max() picks
            exponent = -xp.frexp(peak)[1]
            scaled = (xp.ldexp(top_re, exponent), xp.ldexp(top_im, exponent))
            l_re, l_im = _select(small, scaled, (l_re, l_im))
            size = _modulus(l_re, l_im)
        # As Python's complex division by (size, 0.0) and product compute
        # them: the products with the zero fix the signs of zeros.
        p_re, p_im = (l_re - l_im * 0.0) / size, (-l_im - l_re * 0.0) / size
        tops += (t_re * p_re - t_im * p_im, t_re * p_im + t_im * p_re)
        lows += (u_re * p_re - u_im * p_im, u_re * p_im + u_im * p_re)
    # Real and imaginary parts of the entries in row-major order.
    parts = _select(general, tops + lows, [on, zero, off, zero, off, zero, on, zero])
    return values, _from_parts(parts, (2, 2))


def trace_norm(h) -> float:
    """Sum of the absolute eigenvalues of a Hermitian 2x2 matrix."""
    norm = _trace_norm(*_checked_hermitian(h, "trace_norm"))
    if norm == math.inf:  # each eigenvalue is in the float range, their sum is not
        raise InvalidInputError("matrix trace norm exceeds the float range")
    return norm
