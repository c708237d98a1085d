import math
import re

import numpy as np
import pytest
from conftest import random_state, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqc.circuit import Circuit, all_plus, load_circuit, parse_circuit, run_ideal
from spinqc.gates import bell_state, cnot, embed, not_all, rx, ry
from spinqc.pulse import compile_gate, demo_system, load_system_config
from spinqc.register import (
    PRINT_THRESHOLD,
    InputError,
    NormalizationError,
    QuantumState,
    StateLabel,
    apply_unitary,
    basis_state,
    format_state,
    inner_product,
    is_product_state,
    read_lines,
    read_number,
    state_rows,
)


def test_two_spin_basis_table():
    for text, index in (("++", 0), ("-+", 1), ("+-", 2), ("--", 3)):
        amps = basis_state(2, text).amplitudes
        assert amps[index] == 1.0 and np.count_nonzero(amps) == 1


def test_three_spin_enumeration_matches_bit_rule():
    # independent oracle: walk all sign tuples and accumulate the index by hand
    for b1 in (0, 1):
        for b2 in (0, 1):
            for b3 in (0, 1):
                signs = "".join("-" if b else "+" for b in (b1, b2, b3))
                index = b1 * 1 + b2 * 2 + b3 * 4
                amps = basis_state(3, signs).amplitudes
                assert amps[index] == 1.0 and np.count_nonzero(amps) == 1


def test_all_minus_is_last_basis_vector():
    amps = basis_state(3, "---").amplitudes
    assert amps[7] == 1.0


def test_label_spellings_are_consistent():
    label = StateLabel.parse("-+")
    assert label.signs == "-+" and label.bits == "10" and label.value == 1
    assert StateLabel.parse("10") == label


def test_translate_label_table():
    assert StateLabel.parse("++").value == 0
    assert StateLabel.parse("-+").value == 1
    assert StateLabel.parse("+-").value == 2
    assert StateLabel.parse("--").value == 3


def test_label_index_roundtrip_up_to_ten_spins():
    for n in range(1, 11):
        for value in range(2**n):
            label = StateLabel(n, value)
            spin_bits = [(value >> (k - 1)) & 1 for k in range(1, n + 1)]
            assert label.bits == "".join(map(str, spin_bits))
            assert label.signs == "".join("-" if b else "+" for b in spin_bits)
            assert StateLabel.parse(label.signs) == label
            assert StateLabel.parse(label.bits) == label


def test_label_rejects_a_value_out_of_range():
    for n, value in ((1, 2), (2, 4), (2, -1), (3, 1.0), (2, True)):
        with pytest.raises(ValueError, match="label value"):
            StateLabel(n, value)


def test_label_parse_rejects_garbage():
    for bad in ("", "+0", "ab", "2"):
        with pytest.raises(ValueError):
            StateLabel.parse(bad)


def test_basis_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        basis_state(3, "++")


def test_inner_product_normalized(rng):
    state = random_state(rng, 3)
    assert abs(inner_product(state, state) - 1.0) < 1e-12


def test_inner_product_orthogonal_basis():
    assert inner_product(basis_state(2, "++"), basis_state(2, "--")) == 0.0


def test_bell_states_are_orthogonal():
    # expand the two states literally and compute the overlap by hand too
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    assert np.vdot(phi, psi) == 0.0
    assert abs(inner_product(bell_state("phi+"), bell_state("psi+"))) < 1e-15


def test_inner_product_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(basis_state(1, "+"), basis_state(2, "++"))


def test_construction_rejects_denormalized_amplitudes():
    with pytest.raises(NormalizationError):
        QuantumState(1, np.array([0.7, 0.7]))


def test_construction_rejects_non_finite():
    with pytest.raises(ValueError):
        QuantumState(1, np.array([np.inf, 0.0]))


def test_construction_rejects_the_wrong_number_of_amplitudes():
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        QuantumState(2, [1, 0])


def test_construction_rejects_amplitudes_that_are_not_one_vector():
    # a (2, 2) array has the four amplitudes of two spins, but no basis order
    for n, amps in ((1, [[1, 0]]), (2, np.eye(2)), (2, np.zeros((4, 1)) + 0.5), (1, 1.0)):
        with pytest.raises(ValueError, match="one vector"):
            QuantumState(n, amps)


def test_unitaries_preserve_normalization(rng):
    for n in (1, 2, 3):
        state = random_state(rng, n)
        for _ in range(5):
            state = apply_unitary(state, random_unitary(rng, 2**n))
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-9


def test_apply_unitary_rejects_an_operator_of_the_wrong_shape():
    for u in (np.eye(2), np.eye(8), np.eye(4)[:, :2]):
        with pytest.raises(ValueError, match="does not fit 2 spins"):
            apply_unitary(basis_state(2, "++"), u)


def _reduced_purity(state, cut):
    # independent oracle: explicit partial trace, then Tr(rho^2)
    n = state.n
    cut = sorted(cut)
    rest = [s for s in range(1, n + 1) if s not in cut]

    def split(i):
        a = sum(((i >> (s - 1)) & 1) << k for k, s in enumerate(cut))
        b = sum(((i >> (s - 1)) & 1) << k for k, s in enumerate(rest))
        return a, b

    rho = np.zeros((2 ** len(cut), 2 ** len(cut)), dtype=complex)
    amps = state.amplitudes
    for i in range(2**n):
        ai, bi = split(i)
        for j in range(2**n):
            aj, bj = split(j)
            if bi == bj:
                rho[ai, aj] += amps[i] * np.conj(amps[j])
    return float(np.trace(rho @ rho).real)


def test_entangled_pair_is_not_a_product():
    state = bell_state("phi+")
    assert not is_product_state(state, {1})
    assert _reduced_purity(state, {1}) == pytest.approx(0.5)


def test_disentangled_output_is_a_product():
    # |+> on spin 1, equal superposition on spin 2
    state = QuantumState(2, np.array([1, 0, 1, 0]) / np.sqrt(2))
    assert is_product_state(state, {1})
    assert _reduced_purity(state, {1}) == pytest.approx(1.0)


def test_three_spin_entangled_state_fails_every_cut():
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    ghz = QuantumState(3, amps)
    for cut in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
        assert not is_product_state(ghz, cut)
        assert _reduced_purity(ghz, cut) == pytest.approx(0.5)


def test_is_product_state_rejects_bad_cuts():
    state = bell_state("phi+")
    for cut in (set(), {1, 2}, {3}):
        with pytest.raises(ValueError):
            is_product_state(state, cut)


def test_format_state_ghz_lines():
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    text = format_state(QuantumState(3, amps))
    assert text.splitlines() == [
        "+++ 000 0 0.7071067812 0",
        "--- 111 7 0.7071067812 0",
    ]


def test_format_state_suppresses_tiny_amplitudes():
    # an amplitude below the threshold, and one above it whose parts are both below
    assert abs(8e-13 * (1 + 1j)) >= PRINT_THRESHOLD
    for tiny in (1e-13, 8e-13 * (1 + 1j)):
        amps = np.array([np.sqrt(1 - abs(tiny) ** 2), tiny], dtype=complex)
        text = format_state(QuantumState(1, amps))
        assert text.splitlines() == ["+ 0 0 1 0"]


def test_state_rows_print_a_part_below_the_threshold_as_zero():
    # the circuit leaves i on +-, with a real part of -7.5e-33 from rounding
    final = run_ideal(parse_circuit("qubits 2\nrx 1 pi\nry 2 -pi\nrx 2 +pi/2\n"), all_plus(2)).final
    assert final.amplitudes[2].real != 0.0
    assert format_state(final) == "+- 01 2 0 1"
    eps = 1e-13
    state = QuantumState(1, np.array([eps + 1j * np.sqrt(1 - eps**2), 0.0]))
    assert state_rows(state) == [["+", "0", 0, 0.0, 1.0]]


# (value, whether it is a valid spin count); a valid spin index is a valid
# count no larger than the register
SPIN_VALUES = [
    (0, False), (-1, False), (1, True), (2, True), (3, True),
    (True, False), (2.0, False), (2.5, False), (np.int64(2), False),
]
DEMO = demo_system()
GHZ3 = QuantumState(3, np.eye(8)[0] / math.sqrt(2) + np.eye(8)[7] / math.sqrt(2))


def _unit_vector(n):
    """A basis vector as long as ``n`` suggests, so only the rule can refuse it."""
    return np.eye(2 ** int(n))[0] if n >= 1 else np.array([1.0, 0.0])


def _partner(spin):
    return 2 if spin == 1 else 1


# entry point -> (call with a spin count or spin index x, largest x admitted; None for a count)
ENTRY_POINTS = {
    "StateLabel": (lambda n: StateLabel(n, 0), None),
    "QuantumState": (lambda n: QuantumState(n, _unit_vector(n)), None),
    "basis_state": (lambda n: basis_state(n, "+" * int(n)), None),
    "all_plus": (all_plus, None),
    "Circuit": (lambda n: Circuit(n, ()), None),
    "Gate.check_fits": (lambda n: not_all().check_fits(n), None),
    "embed": (lambda n: embed(not_all(), n), None),
    "Gate.check_fits-spin": (lambda s: rx(s, 0.1).check_fits(2), 2),
    "embed-spin": (lambda s: embed(ry(s, 0.1), 2), 2),
    "is_product_state": (lambda s: is_product_state(GHZ3, [s]), 3),
    # compile_gate's rotation and cnot branches, under the ids of the helpers they replaced
    "compile_rotation": (lambda s: compile_gate(DEMO, rx(s, math.pi / 2)), 2),
    "compile_cnot-target": (lambda s: compile_gate(DEMO, cnot(s, _partner(s), "minus")), 2),
    "compile_cnot-control": (lambda s: compile_gate(DEMO, cnot(_partner(s), s, "minus")), 2),
}


@pytest.mark.parametrize("value, valid", SPIN_VALUES, ids=[repr(v) for v, _ in SPIN_VALUES])
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_every_entry_point_follows_the_register_rules(entry, value, valid):
    call, largest = entry
    if valid and (largest is None or value <= largest):
        call(value)
    else:
        with pytest.raises(ValueError):
            call(value)


# name -> (loader, a valid file's text)
LOADERS = {
    "load_circuit": (load_circuit, "qubits 2\nrx 1 pi/2\n"),
    "load_system_config": (load_system_config, "omega0=1000\nomega1=25\nomega2=5\nomegac=1\n"),
}


@pytest.mark.parametrize("loader, text", LOADERS.values(), ids=LOADERS.keys())
def test_both_loaders_read_a_file_by_one_rule(tmp_path, loader, text):
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8"))
    plain = loader(path)
    # editors that save "UTF-8 with BOM" put EF BB BF first
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert loader(path) == plain
    path.write_bytes(text.encode("utf-16"))
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode"):
        loader(path)
    with pytest.raises(OSError):
        loader(tmp_path)  # a directory


def test_read_lines_numbers_every_line_and_yields_those_that_carry_something():
    text = "qubits 2 # two\n\n   # a comment alone\r\n  rx 1 pi  \nnot#no space\n#"
    assert list(read_lines(text)) == [(1, "qubits 2"), (4, "rx 1 pi"), (5, "not")]
    assert list(read_lines("")) == []


def test_read_number_takes_ascii_numbers_without_underscores():
    assert read_number("-1.5e3") == -1500.0
    assert read_number("+0.5") == 0.5 and type(read_number("7", int)) is int
    # int() alone takes a sign, surrounding spaces and leading zeros
    for token in ("+7", "-7", " 7", "7 ", "07", "00", "-0", ""):
        with pytest.raises(ValueError, match="not digits alone without a leading zero"):
            read_number(token, int)
    # non-finite values are left to the callers' finite checks
    assert math.isinf(read_number("-inf")) and math.isnan(read_number("nan"))
    with pytest.raises(ValueError):
        read_number("1.5", int)
    for token in ("1_0", "1_000.5", "\u0661", "\uff11", "1\u0660", "\u0663.5", "\uff11e2"):
        float(token)  # what int() and float() alone accept
        for kind in (int, float):
            with pytest.raises(ValueError, match="not an ASCII number without '_'"):
                read_number(token, kind)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(alphabet="0123456789+- _.e", max_size=6),
                 st.from_regex(r"\A(0|[1-9][0-9]{0,5})\Z"),
                 st.text(st.characters(max_codepoint=127), max_size=4)))
def test_read_number_reads_an_int_exactly_from_digits_without_a_leading_zero(token):
    try:
        value = read_number(token, int)
    except ValueError:
        assert not re.fullmatch("0|[1-9][0-9]*", token)
    else:
        assert re.fullmatch("0|[1-9][0-9]*", token) and value == int(token)
