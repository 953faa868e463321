import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lifted import kron2

from mzi_duality.errors import InvalidInputError
from mzi_duality.linalg import (
    IDENTITY_2,
    DEGENERATE_GAP,
    DensityOperator,
    _entries,
    _hermitian_eig2,
    _trace_norm,
    check_densities,
    hermitian_eig2,
    hermiticity_defect,
    partial_trace_path,
    trace_norm,
    trace_path,
)

I4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


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


# --- Kronecker product (lifted.kron2, the tail reference's lift) -------------


def test_tensor_identity():
    np.testing.assert_array_equal(kron2(IDENTITY_2, IDENTITY_2), I4)


def test_tensor_pauli_z_with_identity_is_diagonal():
    # basis order |b0>, |b1>, |a0>, |a1>
    np.testing.assert_array_equal(kron2(PAULI_Z, IDENTITY_2), np.diag([1, 1, -1, -1]))


def test_tensor_xx_squares_to_identity():
    xx = kron2(PAULI_X, PAULI_X)
    np.testing.assert_allclose(xx @ xx, I4, atol=1e-15)


@given(complex_2x2(), complex_2x2())
@example(
    np.array([[complex(-0.0, 0.0), 1.0], [complex(0.0, -0.0), complex(-0.0, -0.0)]]),
    np.array([[complex(-1.0, -0.0), -0.0], [complex(5e-324, -5e-324), complex(1e300, -1e-300)]]),
)
def test_tensor_is_bitwise_kron(a, b):
    # tobytes(), not array_equal, which takes -0.0 == 0.0: the tail's bit
    # tests rest on the lift's zero signs too.
    lifted, reference = kron2(a, b), np.kron(a, b)
    assert lifted.shape == reference.shape and lifted.tobytes() == reference.tobytes()


@settings(max_examples=100, deadline=None)
@given(complex_2x2(), complex_2x2(), complex_2x2(), complex_2x2())
def test_tensor_mixed_product_property(a, b, c, d):
    lhs = kron2(a, b) @ kron2(c, d)
    rhs = kron2(a @ c, b @ d)
    assert np.abs(lhs - rhs).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(complex_2x2(), complex_2x2(), finite_entry, finite_entry)
def test_tensor_is_bilinear(a, b, x, y):
    lhs = kron2(x * a + y * b, a)
    rhs = x * kron2(a, a) + y * kron2(b, a)
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
        joint = DensityOperator(np.kron(rho_path.matrix, rho_det.matrix))
        np.testing.assert_allclose(
            partial_trace_path(joint).matrix, rho_det.matrix, atol=1e-12
        )


def test_partial_trace_of_maximally_mixed():
    joint = DensityOperator(I4 / 4)
    np.testing.assert_allclose(partial_trace_path(joint).matrix, IDENTITY_2 / 2, atol=1e-15)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(4)
    for _ in range(50):
        joint = random_density(rng, dim=4)
        assert abs(partial_trace_path(joint).matrix.trace() - 1) <= 1e-12


def test_trace_path_of_a_stack_matches_each_partial_trace():
    rng = np.random.default_rng(5)
    joints = [random_density(rng, dim=4) for _ in range(20)]
    reduced = trace_path(np.array([j.matrix for j in joints]))
    assert reduced.shape == (20, 2, 2)
    for joint, r in zip(joints, reduced):
        assert r.tobytes() == partial_trace_path(joint).matrix.tobytes()


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex),
        np.diag([0.6, 0.6]).astype(complex),
        np.diag([1.2, -0.2]).astype(complex),
        np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex),
        np.full((2, 2), np.nan, dtype=complex),
    ],
    ids=["not hermitian", "trace", "negative eigenvalue", "inf", "nan"],
)
@pytest.mark.parametrize("position", [0, 3, 6])
def test_stack_with_one_invalid_member_raises_density_operator_message(bad, position):
    rng = np.random.default_rng(6)
    members = [random_density(rng).matrix for _ in range(6)]
    members.insert(position, bad)
    stack = np.array(members)
    with pytest.raises(InvalidInputError) as single:
        DensityOperator(bad)
    with pytest.raises(InvalidInputError) as stacked:
        check_densities(stack)
    assert str(stacked.value) == str(single.value)
    assert check_densities(np.delete(stack, position, axis=0)).shape == (6, 2, 2)


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("entry", [(1, 1), (0, 1)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize(
    "value", [complex(np.inf, 0), complex(0, np.inf), complex(np.nan, 0)],
    ids=["inf real", "inf imag", "nan"],
)
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_check_densities_rejects_non_finite_entries_without_warnings(dim, entry, value, stacked):
    bad = np.eye(dim, dtype=complex) / dim
    bad[entry] = value
    m = np.array([np.eye(dim, dtype=complex) / dim, bad]) if stacked else bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidInputError) as checked:
            check_densities(m)
        with pytest.raises(InvalidInputError) as constructed:
            DensityOperator(bad)
    assert str(checked.value) == str(constructed.value) == "density operator must have finite entries"


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize("off_diagonal", [False, True], ids=["diagonal", "rotated"])
def test_2x2_positivity_holds_its_tolerance(stacked, off_diagonal):
    # Eigenvalues 1 + x and -x: -0.9e-10 lies within POSITIVITY_TOL, -1.1e-10
    # does not and is quoted.
    def state(x):
        if off_diagonal:
            return np.array([[0.5, 0.5 + x], [0.5 + x, 0.5]], dtype=complex)
        return np.diag([1.0 + x, -x]).astype(complex)

    def checked(x):
        return check_densities(np.array([IDENTITY_2 / 2, state(x)]) if stacked else state(x))

    checked(0.9e-10)
    with pytest.raises(InvalidInputError) as err:
        checked(1.1e-10)
    assert str(err.value) == "density operator has negative eigenvalue -1.100e-10"


def _check_outcome(m):
    # None if check_densities passes m, else the InvalidInputError's message.
    try:
        check_densities(m)
    except InvalidInputError as exc:
        return str(exc)
    return None


@st.composite
def density_matrices(draw, dim):
    # A state, whole or spoiled in one way next to the tolerance of the check
    # that catches it: (1 + s . sigma) / 2, or for dim 4 the product of two.
    def bloch_density():
        s = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        s /= max(1.0, float(np.linalg.norm(s)))
        return 0.5 * (IDENTITY_2 + s[0] * PAULI_X + s[1] * PAULI_Y + s[2] * PAULI_Z)

    m = bloch_density() if dim == 2 else np.kron(bloch_density(), bloch_density())
    kind = draw(st.sampled_from(["valid", "non-finite", "hermiticity", "trace", "negative"]))
    entry = draw(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)))
    if kind == "non-finite":
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        m[entry] += value * draw(st.sampled_from([1.0, 1j]))
    elif kind == "hermiticity":
        size = draw(st.floats(0.25e-12, 2e-12))
        m[entry] += size * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    elif kind == "trace":
        m[entry[0], entry[0]] += draw(st.floats(-2e-12, 2e-12))
    elif kind == "negative":
        # Eigenvalues 1 + x and -x, in a drawn eigenbasis of two drawn axes.
        x = draw(st.floats(0.5e-10, 2e-10))
        theta, phase = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2 * np.pi))
        axes = draw(st.permutations(range(dim)))[:2]
        v, w = np.zeros(dim, dtype=complex), np.zeros(dim, dtype=complex)
        v[axes] = np.cos(theta), np.exp(1j * phase) * np.sin(theta)
        w[axes] = -np.exp(-1j * phase) * np.sin(theta), np.cos(theta)
        m = (1.0 + x) * np.outer(v, v.conj()) - x * np.outer(w, w.conj())
    return m


def _check_outcomes(m):
    # _check_outcome of m alone, as a stack of one and next to a valid member.
    valid = np.eye(len(m)) / len(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return [_check_outcome(m), _check_outcome(m[None]), _check_outcome(np.array([m, valid]))]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(density_matrices))
def test_one_matrix_check_matches_the_stacked_check(m):
    # m alone and as a stack of one are checked on Python scalars, m next to
    # a valid member in numpy, where the stack quotes m's own values.
    single, *stacked = _check_outcomes(m)
    assert stacked == [single, single]


@pytest.mark.parametrize(
    "diagonal, outcome",
    [
        ([0.3151996467131973, 0.2698146090414814, 0.04425018292454937, 0.3707355613217719], None),
        (
            [0.2969871292021174, 0.0838641962939976, 0.5429479724171589, 0.0762007020877261],
            "density operator trace deviates from 1 by 1.000e-12",
        ),
    ],
    ids=["passes in pairs", "fails in pairs"],
)
def test_one_4x4_check_sums_the_trace_as_numpy(diagonal, outcome):
    # numpy sums a 4x4 diagonal in pairs, (m00 + m11) + (m22 + m33). Summed in
    # order, these traces land on the other side of TRACE_TOL.
    assert _check_outcomes(np.diag(diagonal).astype(complex)) == [outcome] * 3


def test_stacked_hermiticity_defect_rounds_as_the_one_2x2_check():
    # A defect whose modulus numpy's complex abs rounds one bit above libm's
    # hypot, onto 1.0000000000000002e-12 past HERMITIAN_TOL: the stacked
    # check used to reject the matrix that the 2x2 check accepts.
    b = complex(float.fromhex("0x1.09781099f8508p-40"), float.fromhex("0x1.764259851c3e9p-42"))
    m = np.array([[0.5, b], [0.0, 0.5]])
    assert hermiticity_defect(np.array([m, IDENTITY_2 / 2])) == abs(b)
    for checked in (m, m[None], np.array([m, IDENTITY_2 / 2])):
        assert check_densities(checked) is checked


@pytest.mark.parametrize(
    "call, value, message",
    [
        (DensityOperator, [["a", "b"], ["c", "d"]], "density operator entries must be numbers"),
        (hermitian_eig2, "ab", "hermitian matrix entries must be numbers"),
        (trace_norm, [[object(), 0], [0, 1]], "hermitian matrix entries must be numbers"),
        (partial_trace_path, [[1, 0], [0]], "two-qubit state entries must be numbers"),
    ],
    ids=["density strings", "eig string", "trace norm object", "ragged"],
)
def test_unconvertible_matrices_raise_invalid_input(call, value, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        call(value)


def test_2x2_check_quotes_a_defect_beyond_the_float_range_as_inf():
    m = np.array([[0.5, 1.5e308 + 1.5e308j], [0.0, 0.5]])
    for checked in (m, np.array([m, IDENTITY_2 / 2])):
        with pytest.raises(InvalidInputError, match=r"^density operator is not Hermitian \(defect inf\)$"):
            check_densities(checked)


# A finite diagonal entry whose imaginary part is so large that m - m^H overflows.
OVERFLOWING_DIAGONAL = np.diag([1.5e308 + 1.5e308j, -1.5e308])
OVERFLOWING_DIAGONAL_4X4 = np.diag([1.5e308 + 1.5e308j, -1.5e308, 0.0, 0.0])
# A finite, Hermitian, unit-trace 2x2 whose off-diagonal modulus, and so its
# eigenvalue half-gap, overflows.
OVERFLOWING_OFF_DIAGONAL = np.array([[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.5]])
DEFECT_INF = r"is not Hermitian \(defect inf\)"
NEGATIVE_INF = "density operator has negative eigenvalue -inf"


@pytest.mark.parametrize(
    "call, m, message",
    [
        (check_densities, np.array([OVERFLOWING_DIAGONAL, IDENTITY_2 / 2]), f"density operator {DEFECT_INF}"),
        (check_densities, OVERFLOWING_DIAGONAL_4X4, f"density operator {DEFECT_INF}"),
        (check_densities, np.array([OVERFLOWING_DIAGONAL_4X4, np.eye(4) / 4]), f"density operator {DEFECT_INF}"),
        (DensityOperator, OVERFLOWING_DIAGONAL_4X4, f"density operator {DEFECT_INF}"),
        (hermitian_eig2, OVERFLOWING_DIAGONAL, f"matrix {DEFECT_INF}"),
        (DensityOperator, OVERFLOWING_OFF_DIAGONAL, NEGATIVE_INF),
        (check_densities, np.array([OVERFLOWING_OFF_DIAGONAL, IDENTITY_2 / 2]), NEGATIVE_INF),
    ],
    ids=["2x2 stack", "4x4", "4x4 stack", "4x4 density operator", "eig",
         "off-diagonal density operator", "off-diagonal 2x2 stack"],
)
def test_checks_quote_an_overflowing_defect_as_inf(call, m, message):
    # The defect, or the 2x2 eigenvalue half-gap, overflows where it is
    # computed; the check rejects it, quoting inf, with no RuntimeWarning.
    with pytest.raises(InvalidInputError, match=rf"^{message}$"):
        call(m)


@pytest.mark.parametrize(
    "m",
    [
        [[0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0]],
        [[1.6e308, 1.7e308], [1.7e308, 0]],
        [[1.7e308, 0], [0, -1.7e308]],
        [[1.7e308, 0], [0, 1.7e308]],
    ],
    ids=["off-diagonal modulus", "half-gap", "diagonal difference", "diagonal sum"],
)
@pytest.mark.parametrize("call", [hermitian_eig2, trace_norm])
def test_a_modulus_beyond_the_float_range_is_invalid_input(call, m):
    # Finite Hermitian entries whose eigenvalue half-gap or mean overflows:
    # abs used to let a bare OverflowError escape, and a - c or a + c to
    # return inf eigenvalues with a RuntimeWarning.
    with pytest.raises(InvalidInputError, match="^matrix eigenvalues exceed the float range$"):
        call(np.array(m))


def test_a_trace_norm_beyond_the_float_range_is_invalid_input():
    # The eigenvalues +-1.72e308 are in the float range, and hermitian_eig2
    # returns them; the trace norm, their absolute sum, is not.
    m = np.array([[0.85e308, 1.5e308], [1.5e308, -0.85e308]])
    values, _ = hermitian_eig2(m)
    assert np.isfinite(values).all() and values[0] == -values[1]
    with pytest.raises(InvalidInputError, match="^matrix trace norm exceeds the float range$"):
        trace_norm(m)


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


def test_eig_rejects_a_shape_no_operator_has_and_a_nan_entry():
    with pytest.raises(InvalidInputError, match=r"^hermitian matrix must be 2x2 or 4x4, got shape \(3, 3\)$"):
        hermitian_eig2(np.eye(3))
    with pytest.raises(InvalidInputError, match="^hermitian matrix must have finite entries$"):
        hermitian_eig2([[np.nan, 0.0], [0.0, 1.0]])


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


def assert_stacked_eig_matches_scalar(stack):
    # The eigensolver on a stack against hermitian_eig2, matrix by matrix,
    # with every RuntimeWarning an error: the values and vectors exactly.
    # Returns the stack's vectors.
    stack = np.asarray(stack, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values, vectors = _hermitian_eig2(*_entries(stack))
        expected = [hermitian_eig2(h) for h in stack]
    assert values.shape == (len(stack), 2) and vectors.shape == (len(stack), 2, 2)
    for got_values, got_vectors, (want_values, want_vectors) in zip(values, vectors, expected):
        np.testing.assert_array_equal(got_values, want_values)
        np.testing.assert_array_equal(got_vectors, want_vectors)
    return vectors


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(finite_entry, finite_entry, finite_entry, finite_entry), min_size=1, max_size=8))
def test_stacked_eig_matches_the_scalar_eig(entries):
    stack = [[[d0, re + 1j * im], [re - 1j * im, d1]] for d0, d1, re, im in entries]
    assert_stacked_eig_matches_scalar(stack)


def test_stacked_eig_takes_the_scalar_canonical_branches_exactly():
    assert_stacked_eig_matches_scalar(
        [
            np.diag([3.0, -2.0]),  # b == 0 with a >= c: the identity
            np.diag([-2.0, 3.0]),  # b == 0 with a < c: the swapped identity
            np.diag([1.0, 1.0]),  # b == 0 with a == c
            np.zeros((2, 2)),
            [[1.0, 0.1 * DEGENERATE_GAP], [0.1 * DEGENERATE_GAP, 1.0]],  # gap below DEGENERATE_GAP
            [[2.0, 0.2 * DEGENERATE_GAP], [0.2 * DEGENERATE_GAP, 2.0 + 0.1 * DEGENERATE_GAP]],
        ]
    )


def test_stacked_eig_matches_the_scalar_eig_at_the_edges():
    # The general branch next to its limits, stacked with canonical lanes so
    # that their masks are exercised in one call.
    scaled, unscaled = 2.0**510, np.nextafter(2.0**510, 0)  # the half-gaps either side of scaling
    stack = [
        [[0, 5e-324j], [-5e-324j, 1]],  # subnormal leading entry
        [[0, 2e-308j], [-2e-308j, 1]],  # just below the normal range
        [[0, 1e-320], [1e-320, 1e10]],  # lead underflows to zero on normalizing
        [[1e10, 1e-300], [1e-300, 0]],  # lead underflows below the normal range
        [[1e10, 1e-14], [1e-14, 1e10]],  # the gap passes, mean +- radius rounds back
        [[0, scaled], [scaled, 0]],
        [[0, unscaled], [unscaled, 0]],
        [[scaled, 1.0], [1.0, -scaled]],
        [[unscaled, 1.0], [1.0, -unscaled]],
        np.diag([-2.0, 3.0]),
        [[1.0, 1e-15], [1e-15, 1.0]],
        PAULI_X,
        PAULI_Z,
    ]
    vectors = assert_stacked_eig_matches_scalar(stack)
    assert np.abs(vectors.conj().swapaxes(1, 2) @ vectors - np.eye(2)).max() <= 1e-15


def test_eig_vectors_are_orthonormal_from_1e_300_to_1e300():
    # The raw eigenvectors' squared norms used to overflow from a half-gap of
    # about 1e154: hermitian_eig2 returned zero vectors ("overflow encountered
    # in dot") and the stacked form warned in multiply.
    rng = np.random.default_rng(12)
    shapes = [np.array([[1.0, 1.0], [1.0, -1.0]])] + [random_hermitian(rng) for _ in range(4)]
    stack = [scale * h for scale in 10.0 ** np.arange(-300, 301, 20) for h in shapes]
    stack.append(np.array([[0.85e308, 1.5e308], [1.5e308, -0.85e308]]))  # half-gap 1.72e308
    vectors = assert_stacked_eig_matches_scalar(stack)
    assert np.abs(vectors.conj().swapaxes(1, 2) @ vectors - np.eye(2)).max() <= 1e-15


def test_stacked_trace_norms_match_the_scalar_trace_norm():
    rng = np.random.default_rng(8)
    stack = np.array([random_hermitian(rng) for _ in range(200)])
    expected = np.array([trace_norm(h) for h in stack])
    assert _trace_norm(*_entries(stack)).tobytes() == expected.tobytes()


def test_one_matrix_eigenvalues_and_trace_norms_are_the_stacked_ones_exactly():
    # One real-arithmetic formula on floats and on arrays, each modulus by
    # libm's hypot (the one modulus rule, check_densities), so a point and its
    # stack row agree to the bit over six decades of scale; with math.hypot's
    # half-gap, 43 eigenvalue pairs and 37 trace norms differed here.
    rng = np.random.default_rng(25)
    d0, d1, re, im = rng.standard_normal((4, 20000)) * 10.0 ** rng.uniform(-3.0, 3.0, (4, 20000))
    off = re + 1j * im
    stack = np.array([[d0, off], [off.conj(), d1]]).transpose(2, 0, 1)
    values, vectors = _hermitian_eig2(*_entries(stack))
    expected = [hermitian_eig2(h) for h in stack]
    assert values.tobytes() == np.array([want for want, _ in expected]).tobytes()
    assert vectors.tobytes() == np.array([want for _, want in expected]).tobytes()
    norms = np.array([trace_norm(h) for h in stack])
    assert _trace_norm(*_entries(stack)).tobytes() == norms.tobytes()


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
