"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line (visible with ``pytest -s``) after
its assertions carry, so the suite doubles as a checklist.
"""

import time

import numpy as np
import pytest
from conftest import fold_sign, isolated_spin_propagator

from spinqc import gates
from spinqc.circuit import Circuit, all_plus, builtin_circuit, run_ideal
from spinqc.gates import (
    bell_readout_matrix,
    bell_state,
    embed,
    rotation_matrix,
)
from spinqc.linalg import max_abs
from spinqc.pulse import (
    KAPPA,
    FeasibilityError,
    SpinSystem,
    compile_gate,
    demo_system,
    gate_fidelity,
    pulse_propagator,
)
from spinqc.register import QuantumState, inner_product, is_product_state

# Regression pin for A5: the exact-propagator fidelity of the
# compiled conditional flip at the demo parameters.  Not a literature
# value; recorded so silent propagator drift fails loudly.
A5_FIDELITY_PIN = 0.9993812434


def _report(name):
    print(f"{name}: PASS")


def test_a1_gate_matrices_are_exact():
    start = time.perf_counter()
    expected_cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.array_equal(embed(gates.cnot(1, 2, "minus"), 2), expected_cnot)

    expected_not = np.array(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
    )
    assert np.array_equal(embed(gates.not_all(), 2), expected_not)

    expected_readout = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [-1, 0, 0, 1], [0, -1, 1, 0]], dtype=complex
    ) / np.sqrt(2)
    assert np.array_equal(bell_readout_matrix(), expected_readout)

    expected_qft = np.array(
        [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]], dtype=complex
    ) / 2
    assert np.array_equal(embed(gates.qft(), 2), expected_qft)

    assert time.perf_counter() - start < 1.0
    _report("A1 gate matrices entrywise exact")


def test_a2_decomposition_identities():
    readout = bell_readout_matrix()
    built = embed(gates.ry(2, np.pi / 4), 2) @ embed(gates.cnot(1, 2, "minus"), 2)
    assert max_abs(readout - built) <= 1e-12

    product = embed(gates.rx(1, np.pi / 2), 2) @ embed(gates.rx(2, np.pi / 2), 2)
    assert max_abs(embed(gates.not_all(), 2) - (-1.0) * product) <= 1e-12

    n = embed(gates.not_all(), 2)
    for which, eig in (("phi+", 1.0), ("phi-", -1.0), ("psi+", 1.0), ("psi-", -1.0)):
        v = bell_state(which).amplitudes
        assert max_abs(n @ v - eig * v) <= 1e-12
    _report("A2 decomposition identities and NOT eigenvectors")


def test_a3_fourier_transform_unitarity():
    start = time.perf_counter()
    for n in range(1, 7):
        f = embed(gates.qft(), n)
        assert max_abs(f.conj().T @ f - np.eye(2**n)) <= 1e-10
    assert time.perf_counter() - start < 5.0
    _report("A3 Fourier transform unitary for n = 1..6")


def test_a4_ghz_preparation_and_disentanglement():
    trace = run_ideal(builtin_circuit("ghz3"), all_plus(3))
    amps = trace.final.amplitudes
    assert abs(amps[0] - 1 / np.sqrt(2)) <= 1e-10
    assert abs(amps[7] - 1 / np.sqrt(2)) <= 1e-10
    assert max_abs(np.delete(amps, [0, 7])) <= 1e-10
    for cut in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
        assert not is_product_state(trace.final, cut)

    flip = run_ideal(Circuit(2, (gates.cnot(1, 2, "minus"),)), bell_state("phi+"))
    expected = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    assert max_abs(flip.final.amplitudes - expected) <= 1e-10
    assert is_product_state(flip.final, {1})
    _report("A4 GHZ entanglement and conditional-flip disentanglement")


def test_a5_pulse_level_conditional_flip():
    start = time.perf_counter()
    sys_ = demo_system()
    pulse = compile_gate(sys_, gates.cnot(1, 2, "minus"))[0]
    u = pulse_propagator(sys_, pulse, "both-spins")

    # the ideal limit of the resonant half-turn: i on the flipped pair
    adjusted = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1j], [0, 0, 1j, 0]], dtype=complex
    )
    fidelity = gate_fidelity(u, adjusted)
    assert fidelity >= 0.99
    assert abs(fidelity - A5_FIDELITY_PIN) <= 1e-6

    permutation = (0, 1, 3, 2)
    for column in range(4):
        leak = 1.0 - abs(u[permutation[column], column]) ** 2
        assert leak <= 0.01
    # detuning suppression: the other spin's lines stay dark
    for row, column in ((2, 0), (3, 1), (0, 2), (1, 3)):
        assert abs(u[row, column]) ** 2 <= 0.01

    assert time.perf_counter() - start < 60.0
    _report(f"A5 compiled conditional flip (fidelity {fidelity:.6f})")


def test_a6_resonant_pulse_closed_form():
    sys_ = demo_system()
    worst = 0.0
    for theta in (np.pi / 8, np.pi / 4, np.pi / 2, np.pi):
        pulse = compile_gate(sys_, gates.rx(1, theta))[0]
        u = isolated_spin_propagator(sys_, pulse, 1)
        target = fold_sign(theta) * rotation_matrix("x", theta)  # a whole turn is -I
        for amplitudes in (np.array([1.0, 0.0]), np.array([0.6, 0.8j]), np.array([1, 1j]) / np.sqrt(2)):
            state = QuantumState(1, amplitudes)
            error = max_abs(u @ state.amplitudes - target @ state.amplitudes)
            worst = max(worst, error)
            assert error <= 1e-6
    _report(f"A6 resonant pulse matches the closed form (worst error {worst:.2e})")


def test_a7_feasibility_logic():
    # a system with separation at twice the coupling is rejected outright
    with pytest.raises(ValueError, match="condition 1"):
        SpinSystem(omega0=10000.0, omega1=7.0, omega2=5.0, omegac=1.0)

    sys_ = demo_system()
    upper = sys_.omega1 - sys_.omega2 - sys_.omegac
    with pytest.raises(FeasibilityError, match="condition 1"):
        compile_gate(sys_, gates.rx(1, np.pi / 2), tau=KAPPA / upper)

    too_short = KAPPA / (2.0 * sys_.omegac)
    with pytest.raises(FeasibilityError, match="condition 2"):
        compile_gate(sys_, gates.cnot(1, 2, "minus"), tau=too_short)
    _report("A7 feasibility rejections name their bounds")


def test_a8_orthogonality_preservation():
    rng = np.random.default_rng(31415)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        steps = []
        for _ in range(int(rng.integers(1, 11))):
            kind = rng.choice(["rx", "ry", "rz", "cnot"])
            if kind == "cnot":
                target, control = rng.choice(np.arange(1, n + 1), size=2, replace=False)
                steps.append(
                    gates.cnot(int(target), int(control), rng.choice(["plus", "minus"]))
                )
            else:
                steps.append(
                    getattr(gates, kind)(int(rng.integers(1, n + 1)), float(rng.uniform(-np.pi, np.pi)))
                )
        circ = Circuit(n, tuple(steps))
        a = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        b = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        a /= np.linalg.norm(a)
        b -= np.vdot(a, b) * a
        b /= np.linalg.norm(b)
        out_a = run_ideal(circ, QuantumState(n, a)).final
        out_b = run_ideal(circ, QuantumState(n, b)).final
        assert abs(inner_product(out_a, out_b)) <= 1e-9
    _report("A8 orthogonal inputs stay orthogonal over 100 random circuits")
