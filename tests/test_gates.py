import numpy as np
import pytest

from spinqc.gates import (
    I2,
    SIGMA_X,
    bell_readout_matrix,
    bell_state,
    cnot,
    cnot_matrix,
    embed,
    not_all,
    not_all_matrix,
    qft,
    qft_matrix,
    rotation_matrix,
    rx,
    ry,
    rz,
)
from spinqc.gates import _cnot_permutation
from spinqc.linalg import is_unitary, max_abs
from spinqc.register import StateLabel, basis_state, translate_label

EQ_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def test_quarter_turn_x_is_i_sigma_x():
    assert max_abs(rotation_matrix("x", np.pi / 2) - 1j * SIGMA_X) < 1e-15


def test_y_eighth_turn_collapses_equal_superposition():
    plus_mix = np.array([1, 1], dtype=complex) / np.sqrt(2)
    out = rotation_matrix("y", np.pi / 4) @ plus_mix
    assert max_abs(out - np.array([1, 0])) < 1e-15


def test_zero_angle_z_rotation_is_identity():
    assert max_abs(rotation_matrix("z", 0.0) - I2) == 0.0


def test_rotation_rejects_bad_axis_and_angle():
    with pytest.raises(ValueError):
        rotation_matrix("w", 0.1)
    with pytest.raises(ValueError):
        rotation_matrix("x", np.inf)


def test_cnot_matrix_flip_spin1_on_spin2_down():
    assert np.array_equal(cnot_matrix(1, 2, "minus"), EQ_CNOT)


def test_cnot_disentangles_the_symmetric_pair():
    state = bell_state("phi+")
    out = cnot_matrix(1, 2, "minus") @ state.amplitudes
    expected = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    assert max_abs(out - expected) < 1e-15


def _flip_by_labels(matrix, target, control, condition):
    # truth-table oracle: act on each basis label as a string
    want = "-" if condition == "minus" else "+"
    for value in range(4):
        signs = list(StateLabel(2, value).signs)
        expected = signs.copy()
        if signs[control - 1] == want:
            expected[target - 1] = "-" if signs[target - 1] == "+" else "+"
        out = matrix @ basis_state(2, "".join(signs)).amplitudes
        assert out[translate_label("".join(expected))] == 1.0
        assert np.count_nonzero(out) == 1


@pytest.mark.parametrize("target,control", [(1, 2), (2, 1)])
@pytest.mark.parametrize("condition", ["plus", "minus"])
def test_all_four_cnots_follow_their_truth_tables(target, control, condition):
    matrix = cnot_matrix(target, control, condition)
    _flip_by_labels(matrix, target, control, condition)
    # permutation of zeros and ones, and an involution
    assert set(np.unique(matrix.real)) <= {0.0, 1.0} and max_abs(matrix.imag) == 0.0
    assert max_abs(matrix @ matrix - np.eye(4)) == 0.0


def test_cnot_flipping_spin2_on_spin1_down_swaps_e2_e4():
    matrix = cnot_matrix(2, 1, "minus")
    assert matrix[3, 1] == 1.0 and matrix[1, 3] == 1.0
    assert matrix[0, 0] == 1.0 and matrix[2, 2] == 1.0


def test_cnot_rejects_equal_spins_and_far_spins():
    with pytest.raises(ValueError):
        cnot_matrix(1, 1, "minus")
    with pytest.raises(ValueError):
        cnot_matrix(1, 3, "minus")


def test_not_all_two_spins_is_antidiagonal():
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        expected[3 - i, i] = 1.0
    assert np.array_equal(not_all_matrix(2), expected)


def test_not_all_single_spin_is_x():
    assert np.array_equal(not_all_matrix(1), SIGMA_X)


def test_not_all_equals_minus_product_of_quarter_turns():
    product = embed(rx(1, np.pi / 2), 2) @ embed(rx(2, np.pi / 2), 2)
    assert max_abs(not_all_matrix(2) - (-1.0) * product) <= 1e-12


def test_not_all_three_spins_flips_every_label():
    matrix = not_all_matrix(3)
    for value in range(8):
        out = matrix @ basis_state(3, StateLabel(3, value).signs).amplitudes
        assert out[7 - value] == 1.0


def test_bell_readout_matrix_entries():
    expected = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [-1, 0, 0, 1], [0, -1, 1, 0]], dtype=complex
    ) / np.sqrt(2)
    assert np.array_equal(bell_readout_matrix(), expected)


def test_bell_readout_translation():
    t = bell_readout_matrix()
    e = np.eye(4, dtype=complex)
    assert max_abs(t @ bell_state("phi+").amplitudes - e[0]) < 1e-15
    assert max_abs(t @ bell_state("psi+").amplitudes - e[1]) < 1e-15
    assert max_abs(t @ (-bell_state("phi-").amplitudes) - e[2]) < 1e-15
    # the printed translation table lists -psi- for index 3; the matrix
    # itself sends +psi- there (readout index is the same either way)
    assert max_abs(t @ bell_state("psi-").amplitudes - e[3]) < 1e-15


def test_bell_readout_maps_each_bell_state_to_one_detector():
    t = bell_readout_matrix()
    for which, index in (("phi+", 0), ("psi+", 1), ("phi-", 2), ("psi-", 3)):
        out = t @ bell_state(which).amplitudes
        assert abs(out[index]) == pytest.approx(1.0, abs=1e-15)


def test_bell_readout_decomposition():
    built = embed(ry(2, np.pi / 4), 2) @ cnot_matrix(1, 2, "minus")
    assert max_abs(bell_readout_matrix() - built) <= 1e-12


def test_bell_states_are_not_eigenvectors_of_anything_but_not():
    n = not_all_matrix(2)
    for which, eig in (("phi+", 1.0), ("phi-", -1.0), ("psi+", 1.0), ("psi-", -1.0)):
        v = bell_state(which).amplitudes
        assert max_abs(n @ v - eig * v) <= 1e-12


def test_qft_two_spins_matches_the_quarter_phase_matrix():
    expected = np.array(
        [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]], dtype=complex
    ) / 2
    assert np.array_equal(qft_matrix(2), expected)


def test_qft_single_spin_is_the_balanced_mixer():
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert np.array_equal(qft_matrix(1), expected)


def test_qft_unitary_for_all_supported_sizes():
    for n in range(1, 7):
        f = qft_matrix(n)
        assert max_abs(f.conj().T @ f - np.eye(2**n)) <= 1e-12


def test_qft_rows_and_columns_have_unit_norm():
    for n in range(1, 7):
        f = qft_matrix(n)
        assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)


def test_qft_fourth_power_is_identity_small_sizes():
    for n in (1, 2):
        f = qft_matrix(n)
        assert max_abs(f @ f @ f @ f - np.eye(2**n)) <= 1e-12


def test_qft_rejects_unsupported_sizes():
    for n in (0, 7):
        with pytest.raises(ValueError):
            qft_matrix(n)


def test_embed_rotation_on_spin_1_is_block_diagonal():
    r = rotation_matrix("x", 0.37)
    got = embed(rx(1, 0.37), 2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 0:2] = r
    expected[2:4, 2:4] = r
    assert max_abs(got - expected) == 0.0


def test_embed_rotation_touches_only_its_spin():
    out = embed(ry(3, np.pi / 4), 3) @ basis_state(3, "+++").amplitudes
    assert abs(out[0]) == pytest.approx(np.cos(np.pi / 4))
    assert abs(out[4]) == pytest.approx(np.sin(np.pi / 4))
    assert np.count_nonzero(np.abs(out) > 1e-15) == 2


def test_embed_cnot_on_upper_spins():
    got = embed(cnot(2, 3, "minus"), 3)
    # identity on spin 1 tensored with the two-spin flip on spins (2, 3)
    expected = np.kron(EQ_CNOT, np.eye(2))
    assert np.array_equal(got, expected)
    # truth-table oracle over all eight labels
    for value in range(8):
        signs = list(StateLabel(3, value).signs)
        expected_signs = signs.copy()
        if signs[2] == "-":
            expected_signs[1] = "-" if signs[1] == "+" else "+"
        out = got @ basis_state(3, "".join(signs)).amplitudes
        assert out[translate_label("".join(expected_signs))] == 1.0


def test_embed_rejects_out_of_range_spins():
    with pytest.raises(ValueError):
        embed(rx(3, 0.1), 2)
    with pytest.raises(ValueError):
        embed(cnot(1, 4, "plus"), 3)


def test_bellread_embeds_only_on_two_spins():
    from spinqc.gates import bell_readout

    with pytest.raises(ValueError):
        embed(bell_readout(), 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_embedded_rotations_equal_the_kron_reference(n):
    for spin in range(1, n + 1):
        for factory, axis in ((rx, "x"), (ry, "y"), (rz, "z")):
            op = rotation_matrix(axis, -0.83)
            reference = np.kron(np.eye(2 ** (n - spin)), np.kron(op, np.eye(2 ** (spin - 1))))
            assert np.array_equal(embed(factory(spin, -0.83), n), reference)


def _looped_cnot_permutation(n, target, control, condition):
    want = 1 if condition == "minus" else 0
    m = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(2**n):
        j = i ^ (1 << (target - 1)) if ((i >> (control - 1)) & 1) == want else i
        m[j, i] = 1.0
    return m


@pytest.mark.parametrize("n", range(2, 6))
def test_cnot_permutation_equals_the_looped_construction(n):
    for target in range(1, n + 1):
        for control in range(1, n + 1):
            if target == control:
                continue
            for condition in ("plus", "minus"):
                got = _cnot_permutation(n, target, control, condition)
                assert np.array_equal(got, _looped_cnot_permutation(n, target, control, condition))


def test_every_gate_matrix_is_unitary():
    samples = [
        embed(rx(1, 0.3), 3),
        embed(ry(2, -1.2), 3),
        embed(rz(3, 2.5), 3),
        embed(cnot(1, 3, "plus"), 3),
        embed(not_all(), 3),
        embed(qft(), 3),
        bell_readout_matrix(),
    ]
    for u in samples:
        assert is_unitary(u, tol=1e-12)


def test_gate_factories_validate_arguments():
    with pytest.raises(ValueError):
        rx(0, 0.1)
    with pytest.raises(ValueError):
        ry(1, np.nan)
    with pytest.raises(ValueError):
        cnot(1, 2, "down")
    with pytest.raises(ValueError):
        cnot(2, 2, "plus")
