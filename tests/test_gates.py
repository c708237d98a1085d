import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqc import gates
from spinqc.circuit import Circuit
from spinqc.gates import (
    apply,
    bell_readout,
    bell_readout_matrix,
    bell_state,
    cnot,
    embed,
    not_all,
    qft,
    rotation_matrix,
    rx,
    ry,
    rz,
)
from spinqc.linalg import is_unitary, max_abs
from spinqc.register import InputError, StateLabel, basis_state

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
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
    assert np.array_equal(embed(cnot(1, 2, "minus"), 2), EQ_CNOT)


def test_cnot_disentangles_the_symmetric_pair():
    state = bell_state("phi+")
    out = embed(cnot(1, 2, "minus"), 2) @ state.amplitudes
    expected = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    assert max_abs(out - expected) < 1e-15


def test_an_unknown_bell_state_is_an_input_error():
    with pytest.raises(InputError, match=r"^unknown bell state 'xyz', expected one of \("):
        bell_state("xyz")


def _flip_by_labels(matrix, target, control, condition):
    # truth-table oracle: act on each basis label as a string
    want = "-" if condition == "minus" else "+"
    for value in range(4):
        signs = list(StateLabel(2, value).signs)
        expected = signs.copy()
        if signs[control - 1] == want:
            expected[target - 1] = "-" if signs[target - 1] == "+" else "+"
        out = matrix @ basis_state(2, "".join(signs)).amplitudes
        assert out[StateLabel.parse("".join(expected)).value] == 1.0
        assert np.count_nonzero(out) == 1


@pytest.mark.parametrize("target,control", [(1, 2), (2, 1)])
@pytest.mark.parametrize("condition", ["plus", "minus"])
def test_all_four_cnots_follow_their_truth_tables(target, control, condition):
    matrix = embed(cnot(target, control, condition), 2)
    _flip_by_labels(matrix, target, control, condition)
    # permutation of zeros and ones, and an involution
    assert set(np.unique(matrix.real)) <= {0.0, 1.0} and max_abs(matrix.imag) == 0.0
    assert max_abs(matrix @ matrix - np.eye(4)) == 0.0


def test_cnot_flipping_spin2_on_spin1_down_swaps_e2_e4():
    matrix = embed(cnot(2, 1, "minus"), 2)
    assert matrix[3, 1] == 1.0 and matrix[1, 3] == 1.0
    assert matrix[0, 0] == 1.0 and matrix[2, 2] == 1.0


def test_cnot_rejects_equal_spins_and_far_spins():
    with pytest.raises(ValueError):
        embed(cnot(1, 1, "minus"), 2)
    with pytest.raises(ValueError):
        embed(cnot(1, 3, "minus"), 2)


def test_not_all_two_spins_is_antidiagonal():
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        expected[3 - i, i] = 1.0
    assert np.array_equal(embed(not_all(), 2), expected)


def test_not_all_single_spin_is_x():
    assert np.array_equal(embed(not_all(), 1), SIGMA_X)


def test_not_all_equals_minus_product_of_quarter_turns():
    product = embed(rx(1, np.pi / 2), 2) @ embed(rx(2, np.pi / 2), 2)
    assert max_abs(embed(not_all(), 2) - (-1.0) * product) <= 1e-12


def test_not_all_three_spins_flips_every_label():
    matrix = embed(not_all(), 3)
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
    built = embed(ry(2, np.pi / 4), 2) @ embed(cnot(1, 2, "minus"), 2)
    assert max_abs(bell_readout_matrix() - built) <= 1e-12


def test_bell_states_are_not_eigenvectors_of_anything_but_not():
    n = embed(not_all(), 2)
    for which, eig in (("phi+", 1.0), ("phi-", -1.0), ("psi+", 1.0), ("psi-", -1.0)):
        v = bell_state(which).amplitudes
        assert max_abs(n @ v - eig * v) <= 1e-12


def test_qft_two_spins_matches_the_quarter_phase_matrix():
    expected = np.array(
        [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]], dtype=complex
    ) / 2
    assert np.array_equal(embed(qft(), 2), expected)


def test_qft_single_spin_is_the_balanced_mixer():
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert np.array_equal(embed(qft(), 1), expected)


def test_qft_unitary_for_all_supported_sizes():
    for n in range(1, 11):
        f = embed(qft(), n)
        assert max_abs(f.conj().T @ f - np.eye(2**n)) <= 1e-12


def test_qft_rows_and_columns_have_unit_norm():
    for n in range(1, 7):
        f = embed(qft(), n)
        assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)


def test_qft_fourth_power_is_identity_small_sizes():
    for n in (1, 2):
        f = embed(qft(), n)
        assert max_abs(f @ f @ f @ f - np.eye(2**n)) <= 1e-12


def test_qft_rejects_unsupported_sizes():
    for n in (-1, 0):
        with pytest.raises(ValueError):
            embed(qft(), n)


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
        assert out[StateLabel.parse("".join(expected_signs)).value] == 1.0


def test_embed_rejects_out_of_range_spins():
    with pytest.raises(ValueError):
        embed(rx(3, 0.1), 2)
    with pytest.raises(ValueError):
        embed(cnot(1, 4, "plus"), 3)


def _raises_value_error(call) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


# gate -> the register sizes it fits on, out of -1..8
FITS = {
    rx(3, 0.1): range(3, 9),
    rz(1, -2.0): range(1, 9),
    cnot(1, 4, "plus"): range(4, 9),
    cnot(2, 1, "minus"): range(2, 9),
    not_all(): range(1, 9),
    qft(): range(1, 9),
    bell_readout(): (2,),
}


def test_check_fits_is_the_register_rule_of_circuits_and_the_kernel():
    for gate, sizes in FITS.items():
        for n in range(-1, 9):
            refused = [
                _raises_value_error(lambda: gate.check_fits(n)),
                _raises_value_error(lambda: Circuit(n, (gate,))),
                _raises_value_error(lambda: embed(gate, n)),
            ]
            assert refused == [n not in sizes] * 3, (gate, n)


def test_bellread_embeds_only_on_two_spins():
    with pytest.raises(ValueError):
        embed(bell_readout(), 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_embedded_rotations_equal_the_kron_reference(n):
    for spin in range(1, n + 1):
        for factory, axis in ((rx, "x"), (ry, "y"), (rz, "z")):
            op = rotation_matrix(axis, -0.83)
            reference = np.kron(np.eye(2 ** (n - spin)), np.kron(op, np.eye(2 ** (spin - 1))))
            assert np.array_equal(embed(factory(spin, -0.83), n), reference)


def test_embeddings_are_fresh_and_writeable():
    # writing to one embedding leaves the next one alone
    first = embed(rx(2, 0.4), 3)
    expected = first.copy()
    first[...] = 7.0
    second = embed(rx(2, 0.4), 3)
    assert second.flags.writeable and not np.shares_memory(first, second)
    assert np.array_equal(second, expected)


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
                got = embed(cnot(target, control, condition), n)
                assert np.array_equal(got, _looped_cnot_permutation(n, target, control, condition))


def test_every_gate_matrix_is_unitary():
    samples = [
        embed(rx(1, 0.3), 3),
        embed(ry(2, -1.2), 3),
        embed(rz(3, 2.5), 3),
        embed(cnot(1, 3, "plus"), 3),
        embed(not_all(), 3),
        embed(qft(), 3),
        embed(bell_readout(), 2),
        bell_readout_matrix(),
        embed(cnot(2, 1, "minus"), 2),
        embed(not_all(), 1),
    ]
    for u in samples:
        assert is_unitary(u, tol=1e-12)
        assert u.dtype == np.complex128 and u.flags.writeable


def test_gate_factories_validate_arguments():
    with pytest.raises(ValueError):
        rx(0, 0.1)
    with pytest.raises(ValueError):
        ry(1, np.nan)
    with pytest.raises(ValueError):
        cnot(1, 2, "down")
    with pytest.raises(ValueError):
        cnot(2, 2, "plus")


# id -> a construction that must raise ValueError
INVALID_GATES = {
    "unknown-kind": lambda: gates.Gate("foo"),
    "rotation-without-angle": lambda: gates.Gate("rx", spin=1),
    "cnot-without-condition": lambda: gates.Gate("cnot", target=1, control=2),
    "not-with-spin": lambda: gates.Gate("not", spin=1),
    "rotation-with-condition": lambda: gates.Gate("rz", spin=1, angle=0.5, condition="plus"),
    "cnot-with-spin": lambda: gates.Gate("cnot", spin=1, target=1, control=2, condition="plus"),
    "angle-word": lambda: gates.Gate("ry", spin=1, angle="half"),
    "angle-list": lambda: gates.Gate("ry", spin=1, angle=[0.5]),
    "angle-beyond-float": lambda: gates.Gate("ry", spin=1, angle=10**400),
    "bool-spin": lambda: rx(True, 0.5),
    "float-spin": lambda: rx(1.0, 0.5),
    "numpy-spin": lambda: rx(np.int64(1), 0.5),
    "bool-control": lambda: cnot(2, True, "plus"),
}


@pytest.mark.parametrize("build", INVALID_GATES.values(), ids=INVALID_GATES.keys())
def test_gate_refuses_to_be_built_invalid(build):
    with pytest.raises(ValueError):
        build()


def test_gate_stores_its_angle_as_a_float():
    gate = gates.Gate("rx", 1, np.float64(0.5))
    assert type(gate.angle) is float and gate == rx(1, 0.5)
    assert rz(2, 1).describe() == "rz 2 1.0"


# each kind with a well-formed value per field it carries; any field may then be overwritten
_CARRIES = {
    "rx": {"spin": st.integers(1, 8), "angle": st.floats(allow_nan=False, allow_infinity=False)},
    "cnot": {
        "target": st.integers(1, 8),
        "control": st.integers(1, 8),
        "condition": st.sampled_from(gates.CONDITIONS),
    },
    "not": {},
    "qft": {},
    "bellread": {},
}
_CARRIES["ry"] = _CARRIES["rz"] = _CARRIES["rx"]
_ANY_VALUE = st.one_of(
    st.none(),
    st.integers(-2, 8),
    st.integers(),
    st.booleans(),
    st.floats(),
    st.sampled_from(gates.CONDITIONS),
    st.text(max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_built_gate_runs_on_every_register_it_fits(data):
    kind = data.draw(st.one_of(st.sampled_from(sorted(_CARRIES)), st.text(max_size=4)))
    fields = {name: data.draw(value) for name, value in _CARRIES.get(kind, {}).items()}
    names = st.sampled_from(["spin", "angle", "target", "control", "condition"])
    fields.update(data.draw(st.dictionaries(names, _ANY_VALUE, max_size=2)))
    try:
        gate = gates.Gate(kind, **fields)
    except ValueError:
        return
    for n in range(1, 8):
        if not _raises_value_error(lambda: gate.check_fits(n)):
            got = apply(gate, np.eye(2**n, 1, dtype=complex)[:, 0], n)
            assert got.shape == (2**n,) and np.isfinite(got).all()


def _kron_over_spins(factors):
    """Dense operator with ``factors[k]`` on spin k + 1; spin 1 varies fastest."""
    out = np.eye(1)
    for factor in factors:
        out = np.kron(factor, out)
    return out


def _dense_reference(gate, n):
    """The gate's full-register matrix, built from tensor products alone."""
    eye = [np.eye(2)] * n
    if gate.kind in ("rx", "ry", "rz"):
        factors = list(eye)
        factors[gate.spin - 1] = rotation_matrix(gate.kind[1], gate.angle)
        return _kron_over_spins(factors)
    if gate.kind == "cnot":
        # control projector on the matching bit times X on the target, plus the rest
        hit = np.diag([0.0, 1.0] if gate.condition == "minus" else [1.0, 0.0])
        flipped, kept = list(eye), list(eye)
        flipped[gate.control - 1], flipped[gate.target - 1] = hit, SIGMA_X
        kept[gate.control - 1] = np.eye(2) - hit
        return _kron_over_spins(flipped) + _kron_over_spins(kept)
    if gate.kind == "not":
        return _kron_over_spins([SIGMA_X] * n)
    if gate.kind == "qft":
        return _qft_definition(n)
    return bell_readout_matrix()


def _qft_definition(n):
    """``exp(2 pi i k x / Q) / sqrt(Q)`` entry by entry, with exact quarter turns for Q <= 4."""
    q = 2**n
    kx = np.outer(np.arange(q), np.arange(q)) % q  # the phase is periodic in k x mod Q
    if q <= 4:
        phases = np.array([1, 1j, -1, -1j])[kx * (4 // q)]  # exp(2 pi i m / 4) = i^m
    else:
        phases = np.exp(2j * np.pi * kx / q)
    return phases / np.sqrt(q)


SPIN_RANGE = {"rx": 7, "ry": 7, "rz": 7, "cnot": 7, "not": 7, "qft": 10, "bellread": 2}


@st.composite
def gates_on_registers(draw, kind):
    lowest = {"cnot": 2, "bellread": 2}.get(kind, 1)
    n = draw(st.integers(lowest, SPIN_RANGE[kind]))
    if kind in ("rx", "ry", "rz"):
        angle = draw(st.floats(-7.0, 7.0, allow_nan=False))
        gate = getattr(gates, kind)(draw(st.integers(1, n)), angle)
    elif kind == "cnot":
        target, control = draw(st.permutations(range(1, n + 1)))[:2]
        gate = cnot(target, control, draw(st.sampled_from(["plus", "minus"])))
    else:
        gate = {"not": not_all(), "qft": qft(), "bellread": bell_readout()}[kind]
    columns = draw(st.sampled_from([None, 1, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return gate, n, columns, seed


@pytest.mark.parametrize("kind", sorted(SPIN_RANGE))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_apply_equals_the_dense_kron_reference(kind, data):
    gate, n, columns, seed = data.draw(gates_on_registers(kind))
    shape = (2**n,) if columns is None else (2**n, columns)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps /= np.linalg.norm(amps, axis=0)
    amps.flags.writeable = False
    before = amps.copy()
    got = apply(gate, amps, n)
    assert np.array_equal(amps, before)
    assert got.shape == shape and got.dtype == np.complex128
    assert got.flags.writeable and not np.shares_memory(got, amps)
    assert max_abs(got - _dense_reference(gate, n) @ amps) <= 1e-14


@pytest.mark.parametrize("n", range(1, 11))
def test_apply_qft_matches_its_definition(n):
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
    stack /= np.linalg.norm(stack, axis=0)
    matrix = _qft_definition(n)
    assert max_abs(apply(qft(), stack[:, 0], n) - matrix @ stack[:, 0]) <= 1e-15
    assert max_abs(apply(qft(), stack, n) - matrix @ stack) <= 1e-15
    if n <= 2:  # every entry is a quarter turn over 1 or 2, so the transform is exact
        basis = np.eye(2**n, dtype=complex)
        assert np.array_equal(apply(qft(), basis, n), matrix)
        for x in range(2**n):
            assert np.array_equal(apply(qft(), basis[:, x], n), matrix[:, x])


def test_apply_rejects_amplitudes_that_do_not_fit():
    with pytest.raises(ValueError):
        apply(rx(1, 0.1), np.zeros(8, dtype=complex), 2)
    with pytest.raises(ValueError):
        apply(rx(3, 0.1), np.zeros(4, dtype=complex), 2)
    with pytest.raises(ValueError):
        apply(not_all(), np.zeros((2, 2, 2), dtype=complex), 1)
