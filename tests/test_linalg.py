import numpy as np
import pytest
from conftest import random_unitary

from spinqc.gates import SIGMA_X, SIGMA_Y, SIGMA_Z, not_all_matrix, rotation_matrix
from spinqc.linalg import expm_hermitian, is_unitary, kron, max_abs

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def test_kron_gate_on_spin_1_is_block_diagonal(rng):
    r = random_unitary(rng, 2)
    got = kron(r, I2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 0:2] = r
    expected[2:4, 2:4] = r
    assert max_abs(got - expected) == 0.0


def test_kron_gate_on_spin_2_has_scaled_identity_blocks(rng):
    r = random_unitary(rng, 2)
    got = kron(I2, r)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            expected[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = r[i, j] * np.eye(2)
    assert max_abs(got - expected) == 0.0


def test_kron_xx_is_antidiagonal():
    got = kron(SIGMA_X, SIGMA_X)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        expected[3 - i, i] = 1.0
    assert np.array_equal(got, expected)


def test_kron_mixed_product_property(rng):
    for _ in range(20):
        a, b, c, d = (random_unitary(rng, 2) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert max_abs(lhs - rhs) <= 1e-10


def test_adjoint_of_hermitian_matrix():
    assert np.array_equal(SIGMA_Y.conj().T, SIGMA_Y)


def test_adjoint_negates_z_rotation_angle():
    theta = 0.731
    rz = rotation_matrix("z", theta)
    assert max_abs(rz.conj().T - rotation_matrix("z", -theta)) == 0.0


def test_is_unitary_accepts_identity():
    assert is_unitary(I4, tol=1e-12)


def test_is_unitary_detects_perturbation():
    m = I4.copy()
    m[0, 1] += 1e-3
    assert not is_unitary(m, tol=1e-6)


def test_is_unitary_rejects_non_square():
    with pytest.raises(ValueError):
        is_unitary(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_is_unitary_rejects_non_finite_entries(bad):
    m = I4.copy()
    m[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        is_unitary(m)
    with pytest.raises(ValueError, match="non-finite"):
        is_unitary(m.real)


def test_is_unitary_on_a_stack_needs_every_matrix_unitary(rng):
    u = random_unitary(rng, 4)
    assert is_unitary(np.array((u, I4, u.conj().T)), tol=1e-12)
    bad = I4.copy()
    bad[3, 3] = 1.0 + 1e-3
    assert not is_unitary(np.array((u, bad)), tol=1e-6)
    assert not is_unitary(np.array((bad, u)), tol=1e-6)
    with pytest.raises(ValueError):
        is_unitary(np.ones((2, 4, 3)))
    with pytest.raises(ValueError):
        is_unitary(np.ones(4))


def test_rotations_are_unitary_at_random_angles(rng):
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=100):
        for axis in "xyz":
            assert is_unitary(rotation_matrix(axis, theta), tol=1e-12)


def test_expm_free_evolution_gives_z_rotation():
    omega1, t = 157.08, 0.0123
    h = -0.5 * omega1 * SIGMA_Z
    got = expm_hermitian(h, t)
    assert max_abs(got - rotation_matrix("z", omega1 * t / 2)) < 1e-12


def test_expm_at_zero_time_is_identity():
    h = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -3.0]])
    assert max_abs(expm_hermitian(h, 0.0) - I2) < 1e-15


def test_expm_transverse_generator_gives_x_rotation():
    omega_p, t = 27.4, 0.05
    h = -0.5 * omega_p * SIGMA_X
    assert max_abs(expm_hermitian(h, t) - rotation_matrix("x", omega_p * t / 2)) < 1e-12


def test_expm_output_unitary_for_random_hermitian(rng):
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T) / 2
        t = 1e3 / max_abs(h)  # |t| * ||h|| up to 1e3
        assert is_unitary(expm_hermitian(h, t), tol=1e-10)


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_expm_rejects_complex_non_hermitian():
    h = np.array([[1.0, 2.0 - 1j], [2.0 - 1j, -3.0]])  # symmetric but not Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        expm_hermitian(h, 1.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        expm_hermitian(np.array([[0.5j, 0.0], [0.0, 1.0]]), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_rejects_non_finite_generators(bad, dtype):
    h = np.array([[1.0, bad], [bad, -1.0]], dtype=dtype)
    with pytest.raises(ValueError, match="non-finite"):
        expm_hermitian(h, 1.0)


def test_expm_of_a_real_generator_matches_its_complex_copy(rng):
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        h = (a + a.T) / 2
        got = expm_hermitian(h, 0.7)
        assert got.dtype == complex
        assert max_abs(got - expm_hermitian(h.astype(complex), 0.7)) < 1e-13
    # integer and single-precision inputs are taken in double precision
    assert max_abs(expm_hermitian(np.array([[0, 1], [1, 0]]), 0.3) - rotation_matrix("x", -0.3)) < 1e-15
    h32 = np.array([[0.0, 0.1], [0.1, 0.0]], dtype=np.float32)
    assert max_abs(expm_hermitian(h32, 2.0) - expm_hermitian(h32.astype(float), 2.0)) == 0.0


def test_expm_rejects_non_square():
    with pytest.raises(ValueError):
        expm_hermitian(np.ones((2, 3)), 1.0)


def test_quarter_turn_product_is_minus_the_register_not():
    # not2's recorded global phase: rx(1, pi/2) rx(2, pi/2) = -NOT
    product = kron(rotation_matrix("x", np.pi / 2), I2) @ kron(I2, rotation_matrix("x", np.pi / 2))
    assert max_abs(product + not_all_matrix(2)) <= 1e-12
