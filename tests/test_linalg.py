import numpy as np
import pytest
from conftest import random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinqc import gates
from spinqc.gates import embed, not_all, rotation_matrix
from spinqc.linalg import expm_hermitian, is_unitary, max_abs

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


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


def _dense_identity_deviation(a) -> float:
    """The deviation is_unitary used to compute: the Gram matrix minus a dense identity."""
    a = np.asarray(a)
    return max_abs(a.swapaxes(-1, -2).conj() @ a - np.eye(a.shape[-1]))


_I2 = np.eye(2)
_TILT = 1e-3
UNITARITY_STACKS = {
    # (1 + 1e-3)^2 on the Gram diagonal, zero off it
    "diagonal": np.array((_I2, (1.0 + _TILT) * _I2, _I2)),
    # unit columns at an angle: sin(1e-3) off the Gram diagonal, 1 on it to rounding
    "off-diagonal": np.array((_I2, [[1.0, np.sin(_TILT)], [0.0, np.cos(_TILT)]], _I2)),
    "complex": 1j * np.array((_I2, [[1.0, _TILT], [0.0, 1.0]])),
    "0x0": np.zeros((0, 0)),
    "stack of 0x0": np.zeros((3, 0, 0)),
}


@pytest.mark.parametrize("a", UNITARITY_STACKS.values(), ids=UNITARITY_STACKS.keys())
def test_is_unitary_draws_the_line_where_the_dense_identity_does(a):
    # subtracting 1 on the diagonal in place leaves the deviation bit for bit
    given = a.copy()
    deviation = _dense_identity_deviation(a)
    assert is_unitary(a, tol=deviation)
    if a.size:
        assert deviation >= 1e-4
        assert not is_unitary(a, tol=np.nextafter(deviation, 0.0))
    else:
        assert deviation == 0.0
    assert np.array_equal(a, given)


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


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_expm_rejects_a_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        expm_hermitian(np.diag([1.0, -1.0]), t)


def test_expm_of_a_real_generator_matches_its_complex_copy():
    # integer and single-precision inputs are taken in double precision
    assert max_abs(expm_hermitian(np.array([[0, 1], [1, 0]]), 0.3) - rotation_matrix("x", -0.3)) < 1e-15
    h32 = np.array([[0.0, 0.1], [0.1, 0.0]], dtype=np.float32)
    assert max_abs(expm_hermitian(h32, 2.0) - expm_hermitian(h32.astype(float), 2.0)) == 0.0


_ENTRIES = st.floats(-1e6, 1e6)


@st.composite
def real_symmetric(draw):
    d = draw(st.integers(2, 4))
    a = draw(arrays(float, (d, d), elements=_ENTRIES))
    return (a + a.T) / 2


@settings(max_examples=300, deadline=None)
@given(real_symmetric(), _ENTRIES)
def test_expm_takes_a_real_generator_through_the_complex_path(h, t):
    # one dtype path: a real generator and its complex copy give the same bits
    got = expm_hermitian(h, t)
    assert got.dtype == complex and np.array_equal(got, expm_hermitian(h.astype(complex), t))


def test_expm_rejects_non_square():
    with pytest.raises(ValueError):
        expm_hermitian(np.ones((2, 3)), 1.0)


def test_quarter_turn_product_is_minus_the_register_not():
    # not2's recorded global phase: rx(1, pi/2) rx(2, pi/2) = -NOT
    product = embed(gates.rx(1, np.pi / 2), 2) @ embed(gates.rx(2, np.pi / 2), 2)
    assert max_abs(product + embed(not_all(), 2)) <= 1e-12
