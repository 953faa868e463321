import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzi_duality.errors import InvalidInputError
from mzi_duality.linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    _trace_norms,
    hermitian_eig2,
    hermiticity_defect,
    partial_trace_detector,
    partial_trace_path,
    tensor,
    trace_norm,
)

I4 = np.eye(4, dtype=complex)


def random_density(rng, dim=2):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityOperator(rho / rho.trace())


def random_hermitian(rng):
    diag = rng.uniform(-1, 1, size=2)
    off = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return np.array([[diag[0], off], [np.conj(off), diag[1]]])


finite_entry = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def complex_2x2(draw):
    re = np.array([draw(finite_entry) for _ in range(4)]).reshape(2, 2)
    im = np.array([draw(finite_entry) for _ in range(4)]).reshape(2, 2)
    return re + 1j * im


# --- tensor -------------------------------------------------------------------


def test_tensor_identity():
    np.testing.assert_array_equal(tensor(IDENTITY_2, IDENTITY_2), I4)


def test_tensor_pauli_z_with_identity_is_diagonal():
    # basis order |b0>, |b1>, |a0>, |a1>
    np.testing.assert_array_equal(tensor(PAULI_Z, IDENTITY_2), np.diag([1, 1, -1, -1]))


def test_tensor_xx_squares_to_identity():
    xx = tensor(PAULI_X, PAULI_X)
    np.testing.assert_allclose(xx @ xx, I4, atol=1e-15)


def test_tensor_rejects_wrong_dimension():
    with pytest.raises(InvalidInputError):
        tensor(np.eye(3), IDENTITY_2)
    with pytest.raises(InvalidInputError):
        tensor(IDENTITY_2, np.eye(4))


def test_tensor_rejects_nonfinite():
    bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(InvalidInputError):
        tensor(bad, IDENTITY_2)


@given(complex_2x2(), complex_2x2())
def test_tensor_is_bitwise_kron(a, b):
    assert np.array_equal(tensor(a, b), np.kron(a, b))


@settings(max_examples=100, deadline=None)
@given(complex_2x2(), complex_2x2(), complex_2x2(), complex_2x2())
def test_tensor_mixed_product_property(a, b, c, d):
    lhs = tensor(a, b) @ tensor(c, d)
    rhs = tensor(a @ c, b @ d)
    assert np.abs(lhs - rhs).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(complex_2x2(), complex_2x2(), finite_entry, finite_entry)
def test_tensor_is_bilinear(a, b, x, y):
    lhs = tensor(x * a + y * b, a)
    rhs = x * tensor(a, a) + y * tensor(b, a)
    assert np.abs(lhs - rhs).max() <= 1e-12


# --- density operator validation ------------------------------------------------


def test_density_operator_accepts_valid_state():
    rho = DensityOperator(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert rho.dim == 2


def test_density_operator_rejects_nonhermitian():
    with pytest.raises(InvalidInputError):
        DensityOperator(np.array([[0.5, 0.5], [0.2, 0.5]]))


def test_density_operator_rejects_bad_trace():
    with pytest.raises(InvalidInputError):
        DensityOperator(np.eye(2))


def test_density_operator_rejects_negative_eigenvalue():
    with pytest.raises(InvalidInputError):
        DensityOperator(np.diag([1.5, -0.5]))


def test_density_operator_matrix_is_read_only():
    rho = DensityOperator(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 2.0


# --- partial traces -------------------------------------------------------------


def test_partial_traces_of_product_state():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho_path = random_density(rng)
        rho_det = random_density(rng)
        joint = DensityOperator(tensor(rho_path.matrix, rho_det.matrix))
        np.testing.assert_allclose(
            partial_trace_path(joint).matrix, rho_det.matrix, atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace_detector(joint).matrix, rho_path.matrix, atol=1e-12
        )


def test_partial_trace_of_maximally_mixed():
    joint = DensityOperator(I4 / 4)
    np.testing.assert_allclose(partial_trace_path(joint).matrix, IDENTITY_2 / 2, atol=1e-15)
    np.testing.assert_allclose(partial_trace_detector(joint).matrix, IDENTITY_2 / 2, atol=1e-15)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(4)
    for _ in range(50):
        joint = random_density(rng, dim=4)
        assert abs(partial_trace_detector(joint).matrix.trace() - 1) <= 1e-12
        assert abs(partial_trace_path(joint).matrix.trace() - 1) <= 1e-12


def test_partial_trace_rejects_wrong_dim():
    rho = DensityOperator(IDENTITY_2 / 2)
    with pytest.raises(InvalidInputError):
        partial_trace_path(rho)


def test_partial_trace_rejects_invalid_density():
    with pytest.raises(InvalidInputError):
        partial_trace_path(np.eye(4))  # trace 4


# --- eigendecomposition ----------------------------------------------------------


def test_eig_of_pauli_z():
    values, vectors = hermitian_eig2(PAULI_Z)
    np.testing.assert_allclose(values, [1, -1])
    np.testing.assert_allclose(vectors[:, 0], [1, 0])
    np.testing.assert_allclose(vectors[:, 1], [0, 1])


def test_eig_of_pauli_x():
    values, vectors = hermitian_eig2(PAULI_X)
    np.testing.assert_allclose(values, [1, -1])
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(vectors[:, 0], [s, s], atol=1e-15)
    np.testing.assert_allclose(vectors[:, 1], [s, -s], atol=1e-15)


def test_eig_spectral_reconstruction_bulk():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        h = random_hermitian(rng)
        values, vectors = hermitian_eig2(h)
        assert values[0] >= values[1]
        rebuilt = (vectors * values) @ vectors.conj().T
        worst = max(worst, np.abs(rebuilt - h).max())
        # orthonormal to 1e-12, eigen-equation residual to 1e-10
        assert np.abs(vectors.conj().T @ vectors - np.eye(2)).max() <= 1e-12
        assert np.abs(h @ vectors - vectors * values).max() <= 1e-10
    assert worst <= 1e-10


def test_eig_phase_convention_leading_component_real_positive():
    rng = np.random.default_rng(6)
    for _ in range(200):
        _, vectors = hermitian_eig2(random_hermitian(rng))
        for k in range(2):
            lead = vectors[np.nonzero(np.abs(vectors[:, k]) > 1e-14)[0][0], k]
            assert abs(lead.imag) <= 1e-14
            assert lead.real > 0


def test_eig_degenerate_returns_canonical_basis():
    _, vectors = hermitian_eig2(IDENTITY_2)
    np.testing.assert_array_equal(vectors, np.eye(2))
    # near-degenerate, off-diagonal below the gap threshold
    h = np.array([[1.0, 1e-15], [1e-15, 1.0]])
    values, vectors = hermitian_eig2(h)
    np.testing.assert_array_equal(vectors, np.eye(2))
    np.testing.assert_allclose(values, [1, 1], atol=1e-14)


def test_eig_diagonal_sorting():
    values, vectors = hermitian_eig2(np.diag([-2.0, 3.0]))
    np.testing.assert_allclose(values, [3, -2])
    np.testing.assert_allclose(vectors[:, 0], [0, 1])
    np.testing.assert_allclose(vectors[:, 1], [1, 0])


def test_eig_rejects_nonhermitian():
    with pytest.raises(InvalidInputError):
        hermitian_eig2(np.array([[0, 1], [0, 0]]))


def test_eig_rejects_wrong_shape():
    with pytest.raises(InvalidInputError):
        hermitian_eig2(np.eye(4))
    with pytest.raises(InvalidInputError):
        trace_norm(np.eye(4))


@pytest.mark.parametrize(
    "h",
    [
        [[0, 5e-324j], [-5e-324j, 1]],  # subnormal leading entry
        [[0, 2e-308j], [-2e-308j, 1]],  # just below the normal range
        [[0, 1e-320], [1e-320, 1e10]],  # lead underflows to zero on normalizing
    ],
)
def test_eig_vectors_stay_finite_for_a_tiny_lead(h):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values, vectors = hermitian_eig2(h)
    assert np.isfinite(vectors).all()
    assert np.abs(vectors.conj().T @ vectors - np.eye(2)).max() <= 1e-12
    assert np.abs(np.asarray(h) @ vectors - vectors * values).max() <= 1e-10 * max(1.0, values[0])


def test_eig_vectors_stay_finite_when_the_gap_rounds_away():
    # The gap 2e-14 passes DEGENERATE_GAP, but mean +- radius rounds back to
    # the diagonal, so an eigenvalue minus the diagonal cancels to zero.
    h = np.array([[1e10, 1e-14], [1e-14, 1e10]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values, vectors = hermitian_eig2(h)
    assert np.isfinite(vectors).all()
    assert np.abs(vectors.conj().T @ vectors - np.eye(2)).max() <= 1e-12
    assert np.abs((vectors * values) @ vectors.conj().T - h).max() <= 1e-15 * 1e10


def test_stacked_trace_norms_match_the_scalar_trace_norm():
    rng = np.random.default_rng(8)
    stack = np.array([random_hermitian(rng) for _ in range(200)])
    expected = np.array([trace_norm(h) for h in stack])
    assert np.abs(_trace_norms(stack) - expected).max() <= 1e-15 * np.abs(expected).max()


def test_hermiticity_defect_measures_asymmetry():
    assert hermiticity_defect(PAULI_X) == 0.0
    assert hermiticity_defect(np.array([[0, 1], [0, 0]])) == 1.0


# --- trace norm ------------------------------------------------------------------


def test_trace_norm_of_pauli_z():
    assert trace_norm(PAULI_Z) == pytest.approx(2.0, abs=1e-15)


def test_trace_norm_of_zero():
    assert trace_norm(np.zeros((2, 2))) == 0.0


def test_trace_norm_rejects_nonhermitian():
    with pytest.raises(InvalidInputError):
        trace_norm(np.array([[0, 1], [0, 0]]))


@settings(max_examples=200, deadline=None)
@given(finite_entry, finite_entry, finite_entry, finite_entry)
def test_trace_norm_dominates_trace(d0, d1, re, im):
    h = np.array([[d0, re + 1j * im], [re - 1j * im, d1]])
    assert trace_norm(h) >= abs(d0 + d1) - 1e-12


@settings(max_examples=200, deadline=None)
@given(finite_entry, finite_entry, finite_entry, finite_entry)
def test_trace_norm_is_the_eigensolver_sum_bitwise(d0, d1, re, im):
    h = np.array([[d0, re + 1j * im], [re - 1j * im, d1]])
    values, _ = hermitian_eig2(h)
    norm = trace_norm(h)
    assert type(norm) is float
    assert norm == float(np.abs(values).sum())
