import numpy as np
import pytest
from conftest import random_state, random_unitary

from spinqc.gates import bell_state
from spinqc.register import (
    NormalizationError,
    QuantumState,
    StateLabel,
    apply_unitary,
    basis_state,
    format_state,
    inner_product,
    is_product_state,
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


def test_label_index_roundtrip_up_to_six_spins():
    for n in range(1, 7):
        for value in range(2**n):
            label = StateLabel(n, value)
            assert StateLabel.parse(label.signs) == label
            assert StateLabel.parse(label.bits) == label


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
    eps = 1e-13
    amps = np.array([np.sqrt(1 - eps**2), eps], dtype=complex)
    text = format_state(QuantumState(1, amps))
    assert text.splitlines() == ["+ 0 0 1 0"]
