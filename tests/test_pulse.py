import dataclasses
import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.stats
from conftest import carrier_frame_propagator, fold_sign, isolated_spin_propagator, random_state
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from spinqc.circuit import parse_circuit, run_pulse
from spinqc.gates import bell_state, cnot, rotation_matrix, rx, ry, rz
from spinqc.linalg import is_unitary, max_abs
from spinqc.pulse import (
    CONVERGENCE_TOL,
    KAPPA,
    FeasibilityError,
    IntegrationError,
    Pulse,
    SpinSystem,
    compile_gate,
    demo_system,
    format_schedule,
    gate_fidelity,
    load_system_config,
    parse_system_config,
    pulse_propagator,
    transition_spectrum,
)
from spinqc.register import InputError, apply_unitary, basis_state

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
CNOTS = tuple(cnot(t, c, cond) for t, c in ((1, 2), (2, 1)) for cond in ("plus", "minus"))


# ---------------------------------------------------------------- system


def test_demo_system_satisfies_all_inequalities(demo):
    assert demo.omega1 > demo.omega2 > 0
    assert demo.omegac <= demo.omega0 / 100
    assert demo.omega1 - demo.omega2 >= 4 * demo.omegac


def test_system_rejects_swapped_spins():
    with pytest.raises(ValueError):
        SpinSystem(omega0=1000.0, omega1=5.0, omega2=25.0, omegac=1.0)


def test_system_rejects_zero_coupling():
    with pytest.raises(ValueError):
        SpinSystem(omega0=1000.0, omega1=25.0, omega2=5.0, omegac=0.0)


def test_system_rejects_strong_coupling():
    with pytest.raises(ValueError):
        SpinSystem(omega0=100.0, omega1=25.0, omega2=5.0, omegac=2.0)


def test_system_rejects_narrow_separation():
    with pytest.raises(ValueError, match="condition 1"):
        SpinSystem(omega0=10000.0, omega1=8.0, omega2=5.0, omegac=1.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("omega1", np.nan, "finite"),
        ("omega0", 0.0, "omega0 must be positive"),
        ("omega0", -1000.0, "omega0 must be positive"),
    ],
)
def test_system_rejects_non_finite_or_non_positive_scales(demo, field, value, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(demo, **{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("carrier", np.nan, "finite"),
        ("phase", np.inf, "finite"),
        ("tau", 0.0, "duration must be positive"),
        ("omega_p", -1.0, "amplitude must not be negative"),
    ],
)
def test_pulse_rejects_non_finite_or_empty_values(field, value, message):
    fields = {"carrier": 3000.0, "omega_p": 20.0, "tau": 0.1, "phase": 0.0, field: value}
    with pytest.raises(ValueError, match=message):
        Pulse(**fields)


# ---------------------------------------------------- static Hamiltonian
# The static Hamiltonian is diagonal in the product basis.  Its lab-frame
# diagonal is built here from the larmor splittings, as the reference for
# the line frequencies; the propagator tests check the omega0-frame one.


def _fresh_energies(a1, a2, omegac):
    z1 = np.array([1.0, -1.0, 1.0, -1.0])
    z2 = np.array([1.0, 1.0, -1.0, -1.0])
    return -0.5 * (a1 * z1 + a2 * z2 + omegac * (z1 * z2))


def _lab_energies(sys_):
    return _fresh_energies(sys_.larmor(1), sys_.larmor(2), sys_.omegac)


def test_static_hamiltonian_corner_entry(demo):
    corner = -(demo.larmor(1) + demo.larmor(2) + demo.omegac) / 2
    assert _lab_energies(demo)[0] == pytest.approx(corner)


def test_static_hamiltonian_is_traceless_and_diagonal(demo):
    energies = _lab_energies(demo)
    assert energies.shape == (4,) and energies.dtype == float
    assert abs(energies.sum()) < 1e-9


def test_static_hamiltonian_matches_hand_formula(demo):
    wc, w1, w2 = demo.omegac, demo.larmor(1), demo.larmor(2)
    expected = -0.5 * np.array(
        [w1 + w2 + wc, -demo.omega1 + demo.omega2 - wc, demo.omega1 - demo.omega2 - wc,
         -w1 - w2 + wc]
    )
    assert max_abs(_lab_energies(demo) - expected) < 1e-10


def test_rotating_frame_drops_the_common_precession(demo):
    # the lab diagonal is the omega0-frame one plus the common precession
    rot = _fresh_energies(demo.omega1, demo.omega2, demo.omegac)
    shift = -0.5 * demo.omega0 * np.array([2.0, 0.0, 0.0, -2.0])
    assert max_abs(_lab_energies(demo) - (rot + shift)) < 1e-10


def test_weak_coupling_limit_decouples_the_spins():
    sys_ = SpinSystem(omega0=1000.0, omega1=25.0, omega2=5.0, omegac=1e-9)
    single1 = -0.5 * sys_.larmor(1) * np.diag([1.0, -1.0])
    single2 = -0.5 * sys_.larmor(2) * np.diag([1.0, -1.0])
    split = np.kron(np.eye(2), single1) + np.kron(single2, np.eye(2))
    assert max_abs(np.diag(_lab_energies(sys_)) - split) <= 1e-9
    freqs = [line.frequency for line in transition_spectrum(sys_)]
    assert abs(freqs[0] - freqs[1]) <= 3e-9 and abs(freqs[2] - freqs[3]) <= 3e-9


# ---------------------------------------------------------------- spectrum


def test_spectrum_has_four_sorted_lines(demo):
    freqs = [line.frequency for line in transition_spectrum(demo)]
    expected = sorted(
        [
            demo.larmor(2) - demo.omegac,
            demo.larmor(2) + demo.omegac,
            demo.larmor(1) - demo.omegac,
            demo.larmor(1) + demo.omegac,
        ]
    )
    assert np.allclose(freqs, expected, atol=1e-9)
    assert freqs == sorted(freqs)


def test_spectrum_frequencies_come_from_level_differences(demo):
    energies = _lab_energies(demo)
    by_pair = {
        (line.from_label.value, line.to_label.value): line.frequency
        for line in transition_spectrum(demo)
    }
    for lo, hi in ((0, 1), (2, 3), (0, 2), (1, 3)):
        assert by_pair[(lo, hi)] == pytest.approx(energies[hi] - energies[lo])
    assert by_pair[(0, 1)] == pytest.approx(demo.larmor(1) + demo.omegac)
    assert by_pair[(2, 3)] == pytest.approx(demo.larmor(1) - demo.omegac)


def test_spectrum_annotations(demo):
    lines = {(line.flipped_spin, line.spectator): line for line in transition_spectrum(demo)}
    assert lines[(1, "+")].from_label.signs == "++" and lines[(1, "+")].to_label.signs == "-+"
    assert lines[(1, "-")].from_label.signs == "+-" and lines[(1, "-")].to_label.signs == "--"
    assert len(lines) == 4
    with pytest.raises(ValueError, match="spectator must be"):
        demo.line(1, "up")


# ------------------------------------------------------------ compilation


def test_compiled_rotation_sits_on_the_spin_carrier(demo):
    for spin in (1, 2):
        pulse = compile_gate(demo, rx(spin, np.pi / 2))[0]
        assert pulse.carrier == pytest.approx(demo.larmor(spin))
        assert pulse.tau == pytest.approx(2 * (np.pi / 2) / pulse.omega_p)


def test_rotation_window_with_minimal_separation():
    # separation exactly four couplings leaves the window (wc, 3 wc)
    sys_ = SpinSystem(omega0=10000.0, omega1=9.0, omega2=5.0, omegac=1.0)
    pulse = compile_gate(sys_, rx(1, np.pi / 2))[0]
    dw = KAPPA / pulse.tau
    assert sys_.omegac < dw < 3 * sys_.omegac


def test_rotation_rejects_bandwidth_outside_the_window(demo):
    # a pinned tau places the band KAPPA / tau on the window's edges
    lower = demo.omegac
    upper = demo.omega1 - demo.omega2 - demo.omegac
    for gate in (rx(1, np.pi / 2), ry(2, -np.pi / 4)):
        with pytest.raises(FeasibilityError, match=re.escape(
                f"condition 1: bandwidth {upper!r} must stay below omega1 - omega2 - omegac "
                f"= {upper!r} to spare the other spin's lines")):
            compile_gate(demo, gate, tau=KAPPA / upper)
        with pytest.raises(FeasibilityError, match=re.escape(
                f"condition 1: bandwidth {lower!r} must exceed omegac = {lower!r} "
                "to cover both lines of the target doublet")):
            compile_gate(demo, gate, tau=KAPPA / lower)


def test_rotation_rejects_overselective_amplitude(demo):
    # a tiny amplitude means a long, narrow pulse that cannot cover the doublet
    with pytest.raises(FeasibilityError, match="condition 1"):
        compile_gate(demo, rx(1, np.pi / 2), tau=np.pi / (demo.omegac / 100))


def test_compiled_rotations_always_respect_condition_1(rng):
    # and every conditional flip on the same systems condition 2
    for _ in range(25):
        wc = rng.uniform(0.5, 3.0)
        w2 = rng.uniform(2.0, 10.0)
        w1 = w2 + rng.uniform(4.0, 12.0) * wc
        sys_ = SpinSystem(omega0=1000.0 * wc, omega1=w1, omega2=w2, omegac=wc)
        factory = rx if rng.integers(2) else ry
        angle = rng.uniform(-4 * np.pi, 4 * np.pi)
        pulse = compile_gate(sys_, factory(int(rng.integers(1, 3)), angle))[0]
        dw = KAPPA / pulse.tau
        assert sys_.omegac < dw < sys_.omega1 - sys_.omega2 - sys_.omegac
        for gate in CNOTS:
            assert KAPPA / compile_gate(sys_, gate)[0].tau < 2 * sys_.omegac


def test_compiled_cnot_carriers_match_the_selected_lines(demo):
    perturbed = SpinSystem(omega0=3000.3, omega1=171.7, omega2=12.9, omegac=5.3)
    for sys_ in (demo, perturbed):
        lines = {(ln.flipped_spin, ln.spectator): ln for ln in transition_spectrum(sys_)}
        for target, control in ((1, 2), (2, 1)):
            for condition, spectator in (("plus", "+"), ("minus", "-")):
                pulse = compile_gate(sys_, cnot(target, control, condition))[0]
                assert pulse.carrier == lines[target, spectator].frequency
    pulse = compile_gate(demo, cnot(1, 2, "minus"))[0]
    assert pulse.carrier == pytest.approx(demo.larmor(1) - demo.omegac)
    other = compile_gate(demo, cnot(2, 1, "plus"))[0]
    assert other.carrier == pytest.approx(demo.larmor(2) + demo.omegac)


def test_compiled_cnot_is_a_half_turn(demo):
    pulse = compile_gate(demo, cnot(1, 2, "minus"))[0]
    assert pulse.omega_p * pulse.tau / 2 == pytest.approx(np.pi / 2)
    assert KAPPA / pulse.tau < 2 * demo.omegac


def test_cnot_rejects_broadband_requests(demo):
    too_short = KAPPA / (2 * demo.omegac)
    limit = 2 * demo.omegac
    for gate in CNOTS:
        with pytest.raises(FeasibilityError, match=re.escape(
                f"condition 2: bandwidth {KAPPA / too_short!r} must stay below "
                f"2 * omegac = {limit!r} to address a single line of the doublet")):
            compile_gate(demo, gate, tau=too_short)


PINNED_GATES = (rx(1, np.pi / 2), ry(2, -np.pi / 4), rx(2, 0.0), ry(1, 4.0), *CNOTS)


@pytest.mark.parametrize("sys_", [demo_system(), SpinSystem(3000.3, 171.7, 12.9, 5.3)])
def test_a_pinned_tau_reproduces_each_default_pulse(sys_):
    for gate in PINNED_GATES:
        p = compile_gate(sys_, gate)[0]
        assert compile_gate(sys_, gate, tau=p.tau)[0] == p


def test_zero_pins_raise_the_pulse_errors(demo):
    # a duration that is not positive and finite is a bad pulse, refused before
    # any selectivity check: tau = inf would leave a zero band, which fails both
    for gate in PINNED_GATES:
        for tau in (0.0, -0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="duration must be positive and finite") as exc:
                compile_gate(demo, gate, tau=tau)
            assert not isinstance(exc.value, FeasibilityError)


def test_cnot_rejects_bad_gate_specs(demo):
    with pytest.raises(ValueError):
        compile_gate(demo, cnot(1, 1, "minus"))
    with pytest.raises(ValueError):
        compile_gate(demo, cnot(1, 2, "down"))
    with pytest.raises(FeasibilityError, match="^gate not pulse-compilable: rz 1 0.3$"):
        compile_gate(demo, rz(1, 0.3))


def _gate_message(target, control, condition):
    """What the gate rules say of a cnot on two spins: built, then fitted; None if it fits."""
    try:
        cnot(target, control, condition).check_fits(2)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "target, control, condition",
    list(itertools.product((0, 1, 2, 3, True, 2.0), (0, 1, 2, 3), ("minus", "down"))),
)
def test_compile_cnot_refuses_exactly_what_the_gate_rules_refuse(demo, target, control, condition):
    # with the gate rules' message, never a KeyError from a missing compiled target
    expected = _gate_message(target, control, condition)
    try:
        compile_gate(demo, cnot(target, control, condition))
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def test_compile_cnot_messages_for_several_faults(demo):
    # the gate's own rules come first, then whether it fits two spins
    for args, message in (
        ((3, 3, "minus"), "cnot target and control must differ"),
        ((True, 3, "down"), "spin index must be a positive integer, got True"),
        ((1, 1, "down"), "cnot target and control must differ"),
        ((1, 3, "down"), "condition must be one of ('plus', 'minus'), got 'down'"),
        ((1, 3, "minus"), "spin 3 out of range 1..2"),
        ((3, 1, "plus"), "spin 3 out of range 1..2"),
    ):
        with pytest.raises(ValueError) as info:
            compile_gate(demo, cnot(*args))
        assert str(info.value) == message


# --------------------------------------------------------------- pulses


def _rotating_frame_pieces(sys_, pulse):
    """Static diagonal ``h0``, drive-phase generator ``z`` and drive ``drive0``
    of the two-spin rotating-frame Hamiltonian, written out from the closed form."""
    h0 = np.array(
        [
            -0.5 * (sys_.omega1 + sys_.omega2 + sys_.omegac),
            -0.5 * (-sys_.omega1 + sys_.omega2 - sys_.omegac),
            -0.5 * (sys_.omega1 - sys_.omega2 - sys_.omegac),
            -0.5 * (-sys_.omega1 - sys_.omega2 + sys_.omegac),
        ]
    )
    z = np.array([2.0, 0.0, 0.0, -2.0])
    drive0 = -(pulse.omega_p / 2) * (np.kron(I2, X) + np.kron(X, I2))
    return h0, z, drive0


def _oracle_propagator(sys_, pulse):
    """Closed-form check of the two-spin propagator, exponentiated with scipy."""
    return carrier_frame_propagator(sys_, pulse, *_rotating_frame_pieces(sys_, pulse))


def test_resonant_pulse_matches_the_closed_form_rotation(demo):
    for theta in (np.pi / 8, np.pi / 4, np.pi / 2, np.pi):
        pulse = compile_gate(demo, rx(1, theta))[0]
        u = isolated_spin_propagator(demo, pulse, 1)
        assert max_abs(u - fold_sign(theta) * rotation_matrix("x", theta)) <= 1e-6


def test_quarter_turn_pulse_fully_flips_the_spin(demo):
    pulse = compile_gate(demo, rx(1, np.pi / 2))[0]
    out = apply_unitary(basis_state(1, "+"), isolated_spin_propagator(demo, pulse, 1))
    expected = np.array([0.0, 1j])
    assert max_abs(out.amplitudes - expected) <= 1e-6


def test_quarter_phase_drive_realizes_y_rotations(demo):
    theta = np.pi / 4
    pulse = compile_gate(demo, ry(1, theta))[0]
    u = isolated_spin_propagator(demo, pulse, 1)
    assert max_abs(u - rotation_matrix("y", theta)) <= 1e-6


def test_vanishing_amplitude_leaves_the_state_alone(demo):
    pulse = Pulse(carrier=demo.larmor(1) - demo.omegac, omega_p=1e-9, tau=0.37)
    u = pulse_propagator(demo, pulse, "both-spins")
    assert max_abs(u - np.eye(4)) <= 1e-7


def test_integrator_agrees_with_the_constant_frame_oracle(demo):
    cases = [
        compile_gate(demo, cnot(1, 2, "minus"))[0],
        dataclasses.replace(compile_gate(demo, rx(2, np.pi / 3))[0], phase=0.4),
        compile_gate(demo, rx(1, np.pi / 2))[0],
    ]
    for pulse in cases:
        u = pulse_propagator(demo, pulse, "both-spins")
        assert max_abs(u - _oracle_propagator(demo, pulse)) <= 1e-7


def _literal_midpoint_propagator(sys_, pulse, steps):
    """Independent integrator: ``steps`` exponential-midpoint steps of the
    rotating-frame Hamiltonian, each exponentiated with scipy, then
    mapped to the interaction picture."""
    h0, z, drive0 = _rotating_frame_pieces(sys_, pulse)
    det = pulse.carrier - sys_.omega0
    dt = pulse.tau / steps
    u = np.eye(4, dtype=complex)
    for j in range(steps):
        d = np.diag(np.exp(-0.5j * (det * (j + 0.5) * dt + pulse.phase) * z))
        h = np.diag(h0) + d.conj().T @ drive0 @ d
        u = scipy.linalg.expm(-1j * dt * h) @ u
    return np.diag(np.exp(1j * h0 * pulse.tau)) @ u


def test_exact_propagator_equals_a_fine_literal_midpoint_product(demo):
    # The midpoint rule is second order with an even error expansion: halving
    # the step quarters its distance to the exact propagator, and the
    # Richardson combination (4 U_2N - U_N) / 3 cancels the leading term.
    cases = [
        # measured at 500/1000 steps: errors 3.19e-6 and 7.97e-7, extrapolated 5.1e-12
        (dataclasses.replace(compile_gate(demo, rx(2, np.pi / 3))[0], phase=0.4), 500, 1e-10),
        # measured at 1000/2000 steps: errors 2.37e-2 and 5.95e-3, extrapolated 7.0e-5
        (compile_gate(demo, cnot(1, 2, "minus"))[0], 1000, 2e-4),
    ]
    for pulse, steps, extrapolated_tol in cases:
        exact = pulse_propagator(demo, pulse, "both-spins")
        coarse = _literal_midpoint_propagator(demo, pulse, steps)
        fine = _literal_midpoint_propagator(demo, pulse, 2 * steps)
        ratio = max_abs(coarse - exact) / max_abs(fine - exact)
        assert 3.9 <= ratio <= 4.1
        assert max_abs((4 * fine - coarse) / 3 - exact) <= extrapolated_tol


# Every oracle above shares the module docstring's frames: the omega0 frame, the
# carrier frame, the drive-phase conjugation.  This one integrates the lab frame.
LAB_SYSTEM = SpinSystem(2 * np.pi * 100, 2 * np.pi * 25, 2 * np.pi * 5, 2 * np.pi * 1)


Y = np.array([[0, -1j], [1j, 0]])


def _lab_frame_propagator(h0, x_drive, y_drive, pulse, rtol, helicity=1.0):
    """Interaction-picture propagator of ``pulse``, integrated in the lab frame.

    scipy's DOP853 integrates ``i dU/dt = H(t) U`` at ``rtol = atol`` with
    the static diagonal ``h0`` and the drive
    ``-(wp / 2) [cos(wr t + phase) x_drive - sin(wr t + phase) y_drive]``,
    where ``x_drive`` and ``y_drive`` sum X and Y over the driven spins;
    then ``exp(i h0 tau)`` strips the free evolution.  ``helicity=-1``
    negates the ``sin`` term: a mutation to miss by.
    """
    dim = len(h0)
    # H(t) = H0 + cos(a) H_x + sin(a) H_y with a = wr t + phase; kron(-i H_k, I)
    # acts on the row-major U.ravel() as -i H_k acts on U
    parts = (np.diag(h0), -0.5 * pulse.omega_p * x_drive, 0.5 * helicity * pulse.omega_p * y_drive)
    gens = np.array([np.kron(-1j * part, np.eye(dim)) for part in parts])

    def rhs(t, flat):
        a = pulse.carrier * t + pulse.phase
        return np.array((1.0, math.cos(a), math.sin(a))) @ (gens @ flat)

    run = scipy.integrate.solve_ivp(rhs, (0.0, pulse.tau), np.eye(dim, dtype=complex).ravel(),
                                    method="DOP853", rtol=rtol, atol=rtol)
    assert run.success
    return np.exp(1j * h0 * pulse.tau)[:, None] * run.y[:, -1].reshape(dim, dim)


def _two_spin_lab_frame_propagator(sys_, pulse, rtol, helicity=1.0, coupling=1.0):
    """:func:`_lab_frame_propagator` on both spins of ``sys_``, whose static diagonal is
    ``-(Omega_1 z1 + Omega_2 z2 + omegac z1 z2) / 2`` with ``Omega_i = omega0 + omega_i``;
    ``coupling=-1`` negates the coupling: a second mutation to miss by."""
    z1, z2 = np.array([1.0, -1.0, 1.0, -1.0]), np.array([1.0, 1.0, -1.0, -1.0])  # spin 1 on bit 0
    h0 = -0.5 * ((sys_.omega0 + sys_.omega1) * z1 + (sys_.omega0 + sys_.omega2) * z2
                 + coupling * sys_.omegac * z1 * z2)
    x_total, y_total = np.kron(I2, X) + np.kron(X, I2), np.kron(I2, Y) + np.kron(Y, I2)
    return _lab_frame_propagator(h0, x_total, y_total, pulse, rtol, helicity)


@pytest.mark.parametrize("gate, tau", [
    (rx(1, np.pi / 4), None), (ry(2, -np.pi / 4), None), (rx(2, np.pi / 2), None),
    (ry(1, np.pi / 4), None),
    # a default flip lasts 8x longer than one pinned at the band omegac
    (cnot(1, 2, "minus"), KAPPA / LAB_SYSTEM.omegac),
    (cnot(2, 1, "plus"), KAPPA / LAB_SYSTEM.omegac),
], ids=lambda value: value.describe() if hasattr(value, "describe") else None)
def test_propagator_matches_the_lab_frame_schrodinger_equation(gate, tau):
    # omega0 = 100 omegac, the least that weak coupling allows, keeps the carrier's
    # cycles few
    pulse = compile_gate(LAB_SYSTEM, gate, tau)[0]
    u = pulse_propagator(LAB_SYSTEM, pulse, "both-spins")
    coarse, fine = (_two_spin_lab_frame_propagator(LAB_SYSTEM, pulse, rtol)
                    for rtol in (1e-12, 1e-13))
    # the fine run's error is at most the gap between the two runs whenever a tenfold
    # tighter rtol at least halves the error; here it falls ninefold or more
    assert max_abs(fine - u) <= max_abs(coarse - fine)
    # the oracle sees a sign error in the drive's helicity or in the coupling
    for mutation, miss in ((dict(helicity=-1.0), 0.5), (dict(coupling=-1.0), 0.4)):
        mutant = _two_spin_lab_frame_propagator(LAB_SYSTEM, pulse, 1e-6, **mutation)
        assert max_abs(mutant - u) > miss


@pytest.mark.parametrize("gate", [
    rx(1, np.pi / 4), ry(2, -np.pi / 4), rx(2, np.pi / 2), ry(1, 3 * np.pi / 4), rx(1, -2.0),
], ids=lambda gate: gate.describe())
def test_resonant_pulse_on_an_isolated_spin_is_the_exact_rotation(gate):
    # the module docstring's claim, checked in the lab frame: a compiled rotation's pulse,
    # resonant with Omega_s = omega0 + omega_s, on spin s alone with no coupling
    pulse = compile_gate(LAB_SYSTEM, gate)[0]
    h0 = -0.5 * LAB_SYSTEM.larmor(gate.spin) * np.array([1.0, -1.0])
    coarse, fine = (_lab_frame_propagator(h0, X, Y, pulse, rtol) for rtol in (1e-12, 1e-13))
    exact = fold_sign(gate.angle) * rotation_matrix(gate.kind[1], gate.angle)
    assert max_abs(fine - exact) <= max_abs(coarse - fine)
    # with the opposite helicity the drive no longer co-rotates with the spin
    assert max_abs(_lab_frame_propagator(h0, X, Y, pulse, 1e-6, helicity=-1.0) - exact) > 0.5


@st.composite
def spin_systems(draw):
    omega0 = draw(st.floats(500.0, 5000.0))
    omegac = draw(st.floats(0.5, omega0 / 100.0))
    omega2 = draw(st.floats(1.0, 200.0))
    omega1 = omega2 + draw(st.floats(4.5, 20.0)) * omegac
    return SpinSystem(omega0=omega0, omega1=omega1, omega2=omega2, omegac=omegac)


@st.composite
def systems_and_pulses(draw):
    sys_ = draw(spin_systems())
    line = draw(st.sampled_from(transition_spectrum(sys_)))
    pulse = Pulse(
        carrier=line.frequency + draw(st.floats(-3.0, 3.0)) * sys_.omegac,
        omega_p=draw(st.floats(0.01, 50.0)),
        tau=draw(st.floats(0.01, 5.0)),
        phase=draw(st.floats(-np.pi, np.pi)),
    )
    return sys_, pulse


@settings(max_examples=200, deadline=None)
@given(systems_and_pulses())
def test_propagator_is_unitary_and_matches_the_scipy_oracle(case):
    sys_, pulse = case
    u = pulse_propagator(sys_, pulse, "both-spins")
    assert is_unitary(u, tol=1e-12)
    assert max_abs(u - _oracle_propagator(sys_, pulse)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(spin_systems(), st.floats(-10.0, 10.0), st.floats(0.01, 5.0),
       st.floats(allow_nan=False, allow_infinity=False))
def test_a_zero_amplitude_pulse_is_the_identity(sys_, detuning, tau, phase):
    # free evolution, which the interaction picture strips: a whole turn compiles to it,
    # on whatever carrier and drive phase the pulse holds
    pulse = Pulse(carrier=sys_.omega0 * (1.0 + detuning), omega_p=0.0, tau=tau, phase=phase)
    assert max_abs(pulse_propagator(sys_, pulse, "both-spins") - np.eye(4)) <= 1e-14


PHASE_CONJUGATION_C = 16.0  # the error peaked at 5.4 times the estimate in 12,000 draws


@settings(max_examples=200, deadline=None)
@given(systems_and_pulses(), st.floats(-2 * np.pi, 2 * np.pi))
def test_the_drive_phase_acts_as_a_z_frame_conjugation(case, phi):
    # the phase is the drive's azimuth, so U(phi) = P U(0) P^dagger with
    # P = diag(e^{i phi}, 1, 1, e^{-i phi}) = exp(i phi (z1 + z2) / 2); the two
    # exponentials round apart, within a few times the guard's own estimate
    sys_, pulse = case
    p = np.array([np.exp(1j * phi), 1.0, 1.0, np.exp(-1j * phi)])
    u0 = pulse_propagator(sys_, dataclasses.replace(pulse, phase=0.0), "both-spins")
    u = pulse_propagator(sys_, dataclasses.replace(pulse, phase=phi), "both-spins")
    tol = PHASE_CONJUGATION_C * (_rounding_estimate(sys_, pulse) + 1e-14)
    assert max_abs(u - p[:, None] * u0 * p.conj()) <= tol


def _folded(angle, axis_phase):
    """``(theta, phase)`` of a rotation pulse, by the fold's definition.

    The angle's remainder modulo the double ``pi``, to the nearest
    multiple with ties to even, is exact, so it is taken in rationals.
    It lies in [-pi/2, pi/2], and a negative remainder turns at the
    opposite drive phase.
    """
    pi = Fraction(math.pi)
    rest = float(Fraction(angle) - round(Fraction(angle) / pi) * pi)
    if rest < 0.0:
        rest, axis_phase = -rest, axis_phase + math.pi
    return rest, axis_phase


@settings(max_examples=200, deadline=None)
@example(demo_system(), math.pi / 2)
@example(demo_system(), 0.0)
@example(demo_system(), -math.pi)
@example(demo_system(), 3 * math.pi)
@example(demo_system(), -2 * math.pi)
@example(demo_system(), 4.0)
# a pulse 105 s long, on which these turns have no double amplitude
@example(SpinSystem(1.0, 0.11, 0.01, 0.01), 5e-324)
@example(SpinSystem(1.0, 0.11, 0.01, 0.01), -5e-324)
@given(spin_systems(), st.floats(-4 * math.pi, 4 * math.pi))
def test_compiled_pulses_follow_their_closed_forms_bit_for_bit(sys_, angle):
    # exact equality: a one-ulp drift would not show in the 10 printed digits
    window = sys_.omegac * (sys_.omega1 - sys_.omega2 - sys_.omegac)
    for factory, axis_phase in ((rx, 0.0), (ry, -math.pi / 2)):
        theta, phase = _folded(angle, axis_phase)
        assert 0.0 <= theta <= math.pi / 2
        for spin in (1, 2):
            gate = factory(spin, angle)
            p = compile_gate(sys_, gate)[0]
            assert p.carrier == sys_.larmor(spin)
            assert p.tau == KAPPA / math.sqrt(window)
            assert p.omega_p == 2.0 * theta / p.tau
            assert p.phase == phase
            assert p.purpose == f"{gate.kind}:{spin}"
            # and the folded pulse, on its spin alone, is the gate's rotation up to its sign
            u = isolated_spin_propagator(sys_, p, spin)
            assert max_abs(u - fold_sign(angle) * rotation_matrix(gate.kind[1], angle)) <= 1e-9
    for target, control in ((1, 2), (2, 1)):
        for condition, spectator in (("plus", "+"), ("minus", "-")):
            p = compile_gate(sys_, cnot(target, control, condition))[0]
            assert p.carrier == sys_.line(target, spectator)
            assert p.tau == KAPPA / (2.0 * sys_.omegac / 16.0)
            assert p.omega_p == math.pi / p.tau
            assert p.phase == 0.0
            assert p.purpose == f"cnot:{target}:{control}:{condition}"


def test_compiled_cnot_pulse_transfers_the_population(demo):
    pulse = compile_gate(demo, cnot(1, 2, "minus"))[0]
    out = apply_unitary(basis_state(2, "+-"), pulse_propagator(demo, pulse, "both-spins"))
    assert abs(out.amplitudes[3]) ** 2 >= 0.99


def test_compiled_cnot_pulse_has_the_permutation_shape(demo):
    pulse = compile_gate(demo, cnot(1, 2, "minus"))[0]
    u = pulse_propagator(demo, pulse, "both-spins")
    pattern = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
    assert max_abs(np.abs(u) - pattern) <= 0.1


@pytest.mark.parametrize("sys_", [demo_system()] + [
    SpinSystem(10.0 ** (k + 3), 10.0 ** k + 1.0, 1.0, 1.0) for k in (2, 3, 4)])
def test_a_cnot_misses_by_the_ac_stark_phase_of_its_other_line(sys_):
    # a flip on the band 2 f omegac has omega_p = 2 f omegac; the unaddressed line of the
    # doublet, 2 omegac away, turns by the AC-Stark phase pi f / 4 on each level, so
    # 1 - F = pi^2 f^2 / 64.  The band is a pin of the measured ratio (0.967 .. 1.029),
    # not a derived bound; at omega0 = 1e9 the precision guard refuses f = 1/64
    for f in (1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4):
        for gate in CNOTS:
            p, target = compile_gate(sys_, gate, tau=KAPPA / (2.0 * f * sys_.omegac))
            infidelity = 1.0 - gate_fidelity(pulse_propagator(sys_, p, "both-spins"), target)
            assert 0.95 <= infidelity / (math.pi**2 * f**2 / 64.0) <= 1.05, (gate, f)


@pytest.mark.parametrize("angles, band", [
    ((math.pi / 4, -math.pi / 4, 3 * math.pi / 4), (0.66, 0.74)),  # 90-degree turns
    ((math.pi / 2, -math.pi / 2), (2.0, 2.22)),  # 180-degree flips
], ids=["quarter", "half"])
def test_a_default_rotation_misses_by_one_over_its_selectivity_ratio(angles, band):
    # at r = (omega1 - omega2) / omegac = 10^k, r (1 - F) of every default rx and ry
    # stays in one band per turn (measured 0.682 .. 0.718 and 2.041 .. 2.180); a pin,
    # not a derived law.  3pi/4 folds to a 90-degree turn and shares its band
    for k in range(2, 7):
        sys_ = SpinSystem(10.0 ** (k + 3), 10.0**k + 1.0, 1.0, 1.0)
        for angle in angles:
            for gate in (factory(spin, angle) for factory in (rx, ry) for spin in (1, 2)):
                p, target = compile_gate(sys_, gate)
                infidelity = 1.0 - gate_fidelity(pulse_propagator(sys_, p, "both-spins"), target)
                assert band[0] <= 10.0**k * infidelity <= band[1], (gate, k)


def test_pulse_evolution_preserves_the_norm(demo, rng):
    pulse = dataclasses.replace(compile_gate(demo, rx(2, 1.1))[0], phase=0.7)
    state = random_state(rng, 2)
    out = apply_unitary(state, pulse_propagator(demo, pulse, "both-spins"))
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) <= 1e-9


def test_pulse_propagator_refuses_every_scope_but_both_spins(demo):
    pulse = compile_gate(demo, rx(1, np.pi / 2))[0]
    for scope in ("single-spin-ideal", "every-spin"):
        with pytest.raises(ValueError) as info:
            pulse_propagator(demo, pulse, scope)
        assert str(info.value) == f"drive scope must be 'both-spins', got {scope!r}"


def test_pathological_parameters_raise_an_integration_error(demo):
    pulse = Pulse(carrier=demo.omega0 + 1e9, omega_p=1.0, tau=1.0)
    with pytest.raises(IntegrationError):
        pulse_propagator(demo, pulse, "both-spins")


def test_the_precision_guard_boundary_holds_bit_for_bit(demo):
    # on the spin's own carrier the drive's 0.5 omega_p = 4.5e7 dwarfs every diagonal
    # entry, so the estimate is (0.5 omega_p tau) eps at every phase: the guard reads
    # the drive's magnitude, not the abs of its complex entry, which on x86-64 glibc
    # rounds one ulp above 4.5e7 at phase 0.1 and one below at 0.3
    omega_p, eps = 9e7, np.finfo(float).eps
    tau = CONVERGENCE_TOL / eps / (0.5 * omega_p)
    while 0.5 * omega_p * tau * eps > CONVERGENCE_TOL:
        tau = math.nextafter(tau, 0.0)
    while 0.5 * omega_p * math.nextafter(tau, math.inf) * eps <= CONVERGENCE_TOL:
        tau = math.nextafter(tau, math.inf)
    beyond = math.nextafter(tau, math.inf)
    assert tau == 1.0007999171934436
    span = 0.5 * omega_p * beyond
    for phase in (0.0, -math.pi / 2, math.pi, 0.1, 0.3):
        assert np.isfinite(pulse_propagator(demo, Pulse(demo.larmor(1), omega_p, tau, phase),
                                            "both-spins")).all()
        with pytest.raises(IntegrationError) as info:
            pulse_propagator(demo, Pulse(demo.larmor(1), omega_p, beyond, phase), "both-spins")
        assert f"= {span * eps:.3g} on a phase of {span:.3g} rad" in str(info.value)


# ------------------------------------------------------ carrier resolution
# A carrier is a double, and adjacent doubles near omega0 = 1e18 lie 128 rad/s
# apart.  The compiler refuses a pulse whose band KAPPA / tau is no wider than
# that gap.  The oracle is exact rational arithmetic on the system's inputs.

# Rounding bound on a carrier, fixed from the arithmetic that makes it, not
# from a run: a line omega0 + (omega_t +- omegac) rounds the small sum by half
# an ulp of itself, then the whole by half an ulp of the line; a rotation's
# carrier omega0 + omega_s rounds once.
RESOLUTION_GATES = (rx(1, np.pi / 2), ry(2, -np.pi / 4), rx(2, np.pi), *CNOTS)
REFUSAL = re.compile(r"carrier (\S+) has a resolution of (\S+) in double precision, "
                     r"not below the bandwidth (\S+)")


def _gate_line(sys_, gate):
    """``(spin, coupling)`` of the carrier a gate asks for: Omega_s, or Omega_t +- omegac."""
    if gate.kind == "cnot":
        return gate.target, (sys_.omegac if gate.condition == "plus" else -sys_.omegac)
    return gate.spin, 0.0


def _within_rounding(value, sys_, spin, coupling) -> bool:
    """Whether ``value`` lies within the rounding bound of the exact ``Omega_spin + coupling``."""
    offset = sys_.spin_offset(spin)
    exact = Fraction(sys_.omega0) + Fraction(offset) + Fraction(coupling)
    small = Fraction(math.ulp(offset + coupling)) if coupling else Fraction(0)
    return abs(Fraction(value) - exact) <= (Fraction(math.ulp(value)) + small) / 2


@st.composite
def wide_spin_systems(draw):
    """Like spin_systems, but with omega0 log-uniform in 1e2..1e20."""
    omega0 = 10.0 ** draw(st.floats(2.0, 20.0))
    omegac = draw(st.floats(0.5, omega0 / 100.0))
    omega2 = draw(st.floats(1.0, 200.0))
    omega1 = omega2 + draw(st.floats(4.5, 20.0)) * omegac
    return SpinSystem(omega0=omega0, omega1=omega1, omega2=omega2, omegac=omegac)


@settings(max_examples=300, deadline=None)
@given(wide_spin_systems(), st.sampled_from(RESOLUTION_GATES))
def test_every_accepted_carrier_is_resolved_inside_its_band(sys_, gate):
    for line in transition_spectrum(sys_):
        coupling = sys_.omegac if line.spectator == "+" else -sys_.omegac
        assert _within_rounding(line.frequency, sys_, line.flipped_spin, coupling)
    spin, coupling = _gate_line(sys_, gate)
    try:
        p, _ = compile_gate(sys_, gate)
    except FeasibilityError as exc:
        event("refused")
        # every refusal names the carrier, its resolution and the band
        carrier, resolution, dw = map(float, REFUSAL.fullmatch(str(exc)).groups())
        assert _within_rounding(carrier, sys_, spin, coupling)
        assert resolution == math.ulp(carrier) >= dw > 0.0
    else:
        event("accepted")
        assert _within_rounding(p.carrier, sys_, spin, coupling)
        assert math.ulp(p.carrier) < KAPPA / p.tau


@st.composite
def log_uniform_systems(draw):
    """Systems with every scale ratio drawn log-uniformly, at Larmor scales up to 1e12 rad/s."""
    def scale(lo, hi):
        return 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))
    omega0 = scale(1e-3, 1e12)
    omegac = omega0 * scale(1e-12, 1e-2)
    omega2 = omegac * scale(1e-3, 1e6)
    omega1 = omega2 + omegac * scale(4.0, 1e6)
    # rounding can carry a ratio drawn at its bound just past the system's margins
    assume(omegac <= omega0 / 100.0 and omega1 - omega2 >= 4.0 * omegac)
    return SpinSystem(omega0, omega1, omega2, omegac)


@settings(max_examples=300, deadline=None)
@example(SpinSystem(1.0, 0.11, 0.01, 0.01), 5e-324)  # refused once: no double amplitude
@given(log_uniform_systems(), st.floats(allow_nan=False, allow_infinity=False))
def test_an_unpinned_compile_refuses_no_gate_short_of_a_coarse_larmor_scale(sys_, angle):
    # the README's claim: without a pinned tau the default bands meet both
    # conditions, and up to omega0 = 1e12 every carrier is resolved inside its band
    for factory in (rx, ry):
        for spin in (1, 2):
            compile_gate(sys_, factory(spin, angle))
    for gate in CNOTS:
        compile_gate(sys_, gate)


MAX_DOUBLE = float(np.finfo(float).max)


@st.composite
def float_edge_parameters(draw):
    """Four frequencies of a would-be system, from the least subnormal double to the largest."""
    def scale(lo, hi):
        # a lower bound that overflowed to inf, or underflowed to 0.0, is clamped into
        # (0, hi], so a draw past the doubles comes out as MAX_DOUBLE and SpinSystem refuses it
        lo = min(max(lo, 5e-324), hi)
        try:
            return 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))
        except OverflowError:  # the log of the largest double rounds up
            return MAX_DOUBLE
    omega0 = scale(1e-307, MAX_DOUBLE)
    omegac = scale(5e-324, omega0 / 100.0)
    omega2 = omegac * scale(1e-3, 1e6)
    if draw(st.booleans()):
        omega1 = omega2 + omegac * scale(4.0, 1e6)
    else:
        omega1 = scale(omega2 + 4.0 * omegac, MAX_DOUBLE)
    return omega0, omega1, omega2, omegac


@settings(max_examples=300, deadline=None)
@example((1.0, 0.5, 0.1, 5e-324), cnot(1, 2, "minus"))  # once ZeroDivisionError
@example((1.0, 0.5, 0.1, 1e-310), cnot(1, 2, "minus"))  # once Pulse's ValueError
# each once accepted: two lines were inf, then all four and the static diagonal
@example((1.7e308, 1e307, 1e306, 1e305), rx(1, math.pi / 2))
@example((1e308, 1.7e308, 1.6e308, 1e305), cnot(2, 1, "plus"))
@given(float_edge_parameters(), st.one_of(
    st.sampled_from(CNOTS),
    st.builds(lambda factory, spin, angle: factory(spin, angle), st.sampled_from((rx, ry)),
              st.sampled_from((1, 2)), st.floats(allow_nan=False, allow_infinity=False))))
def test_every_valid_system_compiles_or_refuses(params, gate):
    # an accepted system has four finite lines; on it a default band that underflows
    # to 0.0, or lasts longer than a double, is refused like any other band: the
    # compile raises FeasibilityError or builds a finite pulse, whose propagator is
    # finite or refused with IntegrationError.  pytest makes any warning an error.
    try:
        sys_ = SpinSystem(*params)
    except ValueError:  # a power that rounded to 0.0, a margin lost to rounding, an overflow
        event("system refused")
        return
    assert all(math.isfinite(line.frequency) for line in transition_spectrum(sys_))
    try:
        p, _ = compile_gate(sys_, gate)
        assert 0.0 < p.tau < math.inf and 0.0 <= p.omega_p < math.inf
        u = pulse_propagator(sys_, p, "both-spins")
    except (FeasibilityError, IntegrationError) as exc:
        event(f"refused: {type(exc).__name__}")
        return
    event("ran")
    assert np.isfinite(u).all()


@st.composite
def scaled_systems(draw):
    """A log-uniform system and an exponent ``k`` whose factor ``4**k`` keeps every
    frequency of the system, and each carrier, within 1e-300 .. 1e300 rad/s."""
    sys_ = draw(log_uniform_systems())
    least = min(sys_.omega2, sys_.omegac)
    largest = sys_.omega0 + sys_.omega1 + sys_.omegac
    k = draw(st.integers(math.ceil(math.log(1e-300 / least, 4)),
                         math.floor(math.log(1e300 / largest, 4))))
    return sys_, k


def _rounding_estimate(sys_, pulse):
    """The precision guard's estimate ``max|H_c| tau eps`` of a propagator's rounding."""
    h0, z, drive0 = _rotating_frame_pieces(sys_, pulse)
    h_carrier = np.diag(h0 + 0.5 * (pulse.carrier - sys_.omega0) * z) + drive0
    return max_abs(h_carrier) * pulse.tau * np.finfo(float).eps


def _compiled(sys_, gate):
    """Pulse, target, propagator and fidelity of one gate; for a refusal, its type and
    message with every number replaced by ``#``."""
    try:
        p, target = compile_gate(sys_, gate)
        u = pulse_propagator(sys_, p, "both-spins")
    except (FeasibilityError, IntegrationError) as exc:
        return f"{type(exc).__name__}: " + re.sub(r"[-+]?\d[\d.]*(e[-+]?\d+)?|inf", "#", str(exc))
    return p, target, u, gate_fidelity(u, target)


def _rounded_gate_angles():
    """Gate angles whose folded pulse angle is 0 or at least 1e-6: even at the far scales
    the amplitude ``2 theta / tau`` of such a pulse stays a normal double."""
    def folds_well(angle):
        theta = math.remainder(angle, 2.0 * math.pi)
        return theta == 0.0 or abs(theta) >= 1e-6
    return st.floats(-20.0, 20.0).filter(folds_well)


@settings(max_examples=150, deadline=None)
@example((SpinSystem(1e3, 6.0, 1.0, 1.0), 256), rx(1, 0.5))  # the band once overflowed to inf
@example((SpinSystem(1e3, 6.0, 1.0, 1.0), -270), ry(2, -1.0))  # and underflowed to 0.0
@given(scaled_systems(), st.one_of(
    st.sampled_from(CNOTS),
    st.builds(lambda factory, spin, angle: factory(spin, angle),
              st.sampled_from((rx, ry)), st.sampled_from((1, 2)), _rounded_gate_angles())))
def test_frequencies_carry_no_scale(system_and_k, gate):
    # every frequency times c = 4**k, which a double multiplies exactly (sqrt included):
    # the pulse's frequencies scale by c and its duration by 1 / c, bit for bit.  The
    # propagators are two roundings of one exact matrix (LAPACK scales very large or
    # small ones inside), each off by a few times the guard's estimate; a CNOT with a
    # long phase span on a weak coupling differed by up to 6.2 times it in 4,800 samples
    sys_, k = system_and_k
    c = 4.0 ** k
    scaled = SpinSystem(*(c * value for value in dataclasses.astuple(sys_)))
    plain, far = _compiled(sys_, gate), _compiled(scaled, gate)
    if isinstance(plain, str) or isinstance(far, str):  # a refusal: the same, numbers aside
        assert far == plain
        return
    (p, target, u, fidelity), (q, target_far, u_far, fidelity_far) = plain, far
    assert (q.carrier, q.omega_p, q.tau) == (c * p.carrier, c * p.omega_p, p.tau / c)
    assert (q.phase, q.purpose) == (p.phase, p.purpose)
    assert np.array_equal(target_far, target)
    tol = 1e-12 + 16.0 * _rounding_estimate(sys_, p)
    assert max_abs(u_far - u) <= tol
    assert abs(fidelity_far - fidelity) <= tol


def _coarse(omega0):
    return SpinSystem(omega0=omega0, omega1=1e5, omega2=5e4, omegac=1e3)


@pytest.mark.parametrize("omega0, gate, fidelity", [
    (1e16, cnot(1, 2, "minus"), 0.99940),  # resolution 2 against a band of 125
    (1e17, cnot(1, 2, "minus"), 0.99584),  # 16 against 125
    (1e17, cnot(2, 1, "plus"), 0.99584),
    (1e18, rx(1, np.pi / 2), 0.95075),  # 128 against 7000
])
def test_carriers_a_double_resolves_compile_to_good_gates(omega0, gate, fidelity):
    sys_ = _coarse(omega0)
    p, target = compile_gate(sys_, gate)
    got = gate_fidelity(pulse_propagator(sys_, p, "both-spins"), target)
    assert got == pytest.approx(fidelity, abs=1e-5)


def test_resolved_cnots_stay_good_across_the_coarse_omega0_scan():
    # 400 values of omega0 in 1e17..5.75e17, where ulp(omega0) grows from 16 to 64
    # rad/s against a band of 125; a line once rounded at the scale of 2 omega0
    # was 56 rad/s off at omega0 = 2.93e17 and scored 0.843
    worst = 1.0
    for omega0 in np.linspace(1e17, 5.75e17, 400):
        sys_ = _coarse(float(omega0))
        for t, c in ((1, 2), (2, 1)):
            for condition in ("plus", "minus"):
                p, target = compile_gate(sys_, cnot(t, c, condition))
                u = pulse_propagator(sys_, p, "both-spins")
                worst = min(worst, gate_fidelity(u, target))
    assert worst >= 0.96


@pytest.mark.parametrize("omega0, gate, resolution", [
    (1e18, cnot(1, 2, "minus"), 128.0),  # scored 0.843 before it was refused
    (1e18, cnot(2, 1, "plus"), 128.0),  # 0.759
    (1e20, cnot(1, 2, "minus"), 16384.0),  # 0.502
    (1e20, rx(1, np.pi / 2), 16384.0),  # 0.859
])
def test_carriers_a_double_cannot_resolve_are_refused(omega0, gate, resolution):
    with pytest.raises(FeasibilityError, match=f"has a resolution of {resolution!r} in double "):
        compile_gate(_coarse(omega0), gate)


# --------------------------------------------------------------- fidelity


def test_gate_fidelity_of_identical_unitaries(demo):
    u = rotation_matrix("x", 0.3)
    assert gate_fidelity(u, u) == pytest.approx(1.0)


def test_gate_fidelity_ignores_a_global_phase():
    u = rotation_matrix("y", 1.1)
    assert gate_fidelity(u, -u) == pytest.approx(1.0)


def test_gate_fidelity_of_orthogonal_gates():
    assert gate_fidelity(I2, X) == pytest.approx(0.0)


def test_gate_fidelity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gate_fidelity(I2, np.eye(4))
    with pytest.raises(ValueError):
        gate_fidelity(2.0 * I2, I2)


def test_gate_fidelity_rejects_a_bad_second_argument():
    with pytest.raises(ValueError, match="unitaries"):
        gate_fidelity(I2, 2.0 * I2)
    with pytest.raises(ValueError, match="unitaries"):
        gate_fidelity(X, np.array([[1.0, 1e-3], [0.0, 1.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            gate_fidelity(I2, np.array([[1.0, 0.0], [0.0, bad]]))


def test_gate_fidelity_needs_two_square_matrices():
    # a stack of unitaries or a vector is not a gate, even when shapes agree
    with pytest.raises(ValueError):
        gate_fidelity(np.array((I2, X)), np.array((I2, X)))
    with pytest.raises(ValueError):
        gate_fidelity(np.ones(2), np.ones(2))


def test_gate_fidelity_equals_the_trace_overlap(rng):
    for _ in range(10):
        a = scipy.stats.unitary_group.rvs(4, random_state=rng)
        b = scipy.stats.unitary_group.rvs(4, random_state=rng)
        expected = abs(np.trace(b.conj().T @ a)) / 4
        assert gate_fidelity(a, b) == pytest.approx(expected, abs=1e-15)


# ------------------------------------------------------------ derived state


@settings(max_examples=100, deadline=None)
@given(spin_systems())
def test_larmor_is_the_sum_of_omega0_and_the_offset(sys_):
    assert float.hex(sys_.larmor(1)) == float.hex(sys_.omega0 + sys_.omega1)
    assert float.hex(sys_.larmor(2)) == float.hex(sys_.omega0 + sys_.omega2)


@settings(max_examples=100, deadline=None)
@given(spin_systems())
def test_each_line_is_its_closed_form_and_a_lab_level_difference(sys_):
    # every line is omega0 + (offset +- omegac), bit for bit, and equals its lab
    # level difference within three ulps of the corner scale 2 |E_0|: the
    # difference rounds by up to two such ulps, the line by about half of one
    lab = _lab_energies(sys_)
    lab_rounding = 3 * math.ulp(2 * abs(lab[0]))
    lines = transition_spectrum(sys_)
    for line in lines:
        coupling = sys_.omegac if line.spectator == "+" else -sys_.omegac
        closed_form = sys_.omega0 + (sys_.spin_offset(line.flipped_spin) + coupling)
        assert float.hex(line.frequency) == float.hex(closed_form)
        assert line.frequency == sys_.line(line.flipped_spin, line.spectator)
        difference = lab[line.to_label.value] - lab[line.from_label.value]
        assert abs(line.frequency - difference) <= lab_rounding
    assert [ln.frequency for ln in lines] == sorted(ln.frequency for ln in lines)


def test_reading_the_spectrum_leaves_equality_hash_and_repr_alone():
    read = SpinSystem(omega0=3000.3, omega1=171.7, omega2=12.9, omegac=5.3)
    unread = SpinSystem(omega0=3000.3, omega1=171.7, omega2=12.9, omegac=5.3)
    before = repr(read)
    transition_spectrum(read)
    compile_gate(read, cnot(1, 2, "minus"))
    pulse_propagator(read, compile_gate(read, rx(1, np.pi / 2))[0], "both-spins")
    assert read == unread and hash(read) == hash(unread)
    assert repr(read) == repr(unread) == before
    assert {unread: "value"}[read] == "value"
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.omega0 = 1.0


def test_equal_propagator_calls_return_fresh_writable_arrays(demo):
    for p in (compile_gate(demo, rx(1, np.pi / 2))[0], compile_gate(demo, cnot(2, 1, "plus"))[0]):
        first = pulse_propagator(demo, p, "both-spins")
        second = pulse_propagator(demo, p, "both-spins")
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second)
        expected = second.copy()
        first[...] = 0.0
        second[...] = 0.0
        assert np.array_equal(pulse_propagator(demo, p, "both-spins"), expected)


# ----------------------------------------------------------------- config


def test_parse_config_roundtrip(demo):
    text = (
        "# comment\n"
        f"omega0 = {demo.omega0!r}\n"
        f"omega1 = {demo.omega1!r}\n"
        f"omega2 = {demo.omega2!r}\n"
        f"omegac = {demo.omegac!r}\n"
    )
    assert parse_system_config(text) == demo


def test_parse_config_refuses_a_kappa_key():
    # the bandwidth constant is pulse.KAPPA, not a system parameter
    with pytest.raises(InputError) as info:
        parse_system_config("omega0=1000\nomega1=25\nomega2=5\nomegac=1\nkappa=2.5\n")
    assert str(info.value) == "line 5: unknown key 'kappa'"
    with pytest.raises(TypeError):
        SpinSystem(1000.0, 25.0, 5.0, 1.0, kappa=2.0)


def test_shipped_demo_config_matches_the_demo_system(demo):
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "demo_system.cfg"
    assert load_system_config(path) == demo


@pytest.mark.parametrize(
    "text",
    [
        "omega0=1000\nomega1=25\nomega2=5\n",  # missing key
        "omega0=1000\nomega1=25\nomega2=5\nomegac=1\nextra=2\n",  # unknown key
        "omega0 1000\nomega1=25\nomega2=5\nomegac=1\n",  # no equals sign
        "omega0=abc\nomega1=25\nomega2=5\nomegac=1\n",  # not a number
        "omega0=1000\nomega0=900\nomega1=25\nomega2=5\nomegac=1\n",  # duplicate
    ],
)
def test_parse_config_rejects_malformed_text(text):
    with pytest.raises(InputError):
        parse_system_config(text)


@pytest.mark.parametrize("value", ["3_141.5", "1_000e0", "\uff13000", "3\u0661", "\u0663.5"])
def test_parse_config_takes_only_ascii_numbers_without_underscores(value):
    # float() alone reads each of these
    text = f"omega0 = {value}\nomega1 = 25\nomega2 = 5\nomegac = 1\n"
    with pytest.raises(InputError, match=f"^line 1: {re.escape(repr(value))} is not a number$"):
        parse_system_config(text)


def test_parse_config_quotes_a_line_without_its_comment():
    text = "omega0 1000  # the Larmor scale\nomega1=25\nomega2=5\nomegac=1\n"
    with pytest.raises(InputError, match="^line 1: expected key=value, got 'omega0 1000'$"):
        parse_system_config(text)


def test_parse_config_propagates_invariant_violations():
    with pytest.raises(ValueError, match="omegac"):
        parse_system_config("omega0=1000\nomega1=25\nomega2=5\nomegac=0\n")


def test_schedule_format():
    pulse = Pulse(carrier=3292.389101, omega_p=0.7853981634, tau=4.0, phase=0.0, purpose="cnot:1:2:minus")
    line = format_schedule([pulse])
    assert line == "carrier=3292.389101 omega_p=0.7853981634 tau=4 phase=0 purpose=cnot:1:2:minus"


# ------------------------------------------------------------ pulse sweep


def test_pulse_sweep_records_each_gate_bit_for_bit(demo):
    from pulse_sweep import gate_record, pinned_bands, run_record, sweep

    gate = cnot(1, 2, "minus")
    p, target = compile_gate(demo, gate)
    u = pulse_propagator(demo, p, "both-spins")
    record = gate_record(demo, gate)
    assert [float.fromhex(record[k]) for k in ("carrier", "omega_p", "tau", "phase")] == [
        p.carrier, p.omega_p, p.tau, p.phase]
    assert float.fromhex(record["fidelity"]) == gate_fidelity(u, target)
    assert record["purpose"] == "cnot:1:2:minus"
    assert record["target"] == hashlib.sha256(target.tobytes()).hexdigest()
    assert record["propagator"] == hashlib.sha256(u.tobytes()).hexdigest()
    assert gate_record(demo, rz(1, 0.5)) == {
        "error": "FeasibilityError: gate not pulse-compilable: rz 1 0.5"}
    # a pinned record is the compile at that tau, a refusal with its message
    p, target = compile_gate(demo, gate, tau=3.0)
    record = gate_record(demo, gate, 3.0)
    assert float.fromhex(record["tau"]) == p.tau == 3.0
    assert record["target"] == hashlib.sha256(target.tobytes()).hexdigest()
    assert gate_record(demo, gate, 0.1) == {"error": (
        f"FeasibilityError: condition 2: bandwidth {KAPPA / 0.1!r} must stay below "
        f"2 * omegac = {2 * demo.omegac!r} to address a single line of the doublet")}
    lower, upper = demo.omegac, demo.omega1 - demo.omega2 - demo.omegac
    assert pinned_bands(demo, rx(1, 0.5)) == {
        "1.001*lower": 1.001 * lower, "0.999*lower": 0.999 * lower,
        "1.001*upper": 1.001 * upper, "0.999*upper": 0.999 * upper,
        "middle": (lower + upper) / 2}
    assert pinned_bands(demo, gate) == {
        "1.001*upper": 2.002 * demo.omegac, "0.999*upper": 1.998 * demo.omegac,
        "middle": demo.omegac}
    records = sweep(seeds=(11, 12), count=3)
    keys = [tuple(r["key"]) for r in records]
    assert len(set(keys)) == len(keys) and {k[:2] for k in keys} == {
        (seed, i) for seed in (11, 12) for i in range(3)}
    runs = [r for r in records if r["key"][2] == "run"]
    assert [tuple(r["key"][:2]) for r in runs] == [(seed, i) for seed in (11, 12) for i in range(3)]
    assert all("error" not in r and len(r) == 6 for r in runs)
    unpinned = [r for r in records if len(r["key"]) == 3 and r not in runs]
    assert all("error" not in r and len(r) == 10 for r in unpinned)
    # seed 11's gates again at each pinned band: a band outside the window is refused
    pinned = [r for r in records if len(r["key"]) == 4]
    assert {tuple(r["key"][:3]) for r in pinned} == {
        tuple(r["key"]) for r in unpinned if r["key"][0] == 11}
    for r in pinned:
        outside = r["key"][3] in ("0.999*lower", "1.001*upper")
        assert ("error" in r) == outside and len(r) == (3 if outside else 10)
        assert not outside or r["error"].startswith("FeasibilityError: condition ")
    # a run record is the whole run_pulse, from a basis or a Bell input, or its refusal
    circ = parse_circuit("qubits 2\ncnot 1 2 minus\nry 2 pi/4\n")
    for spec, state in (("+-", basis_state(2, "+-")), ("bell:psi-", bell_state("psi-"))):
        result = run_pulse(circ, demo, state)
        record = run_record(demo, circ, spec)
        assert record == {
            "input": spec, "fidelities": [float.hex(f) for f in result.gate_fidelities],
            "end_to_end": float.hex(result.fidelity),
            "state": hashlib.sha256(result.trace.final.amplitudes.tobytes()).hexdigest()}
        assert len(record["fidelities"]) == 2
    assert run_record(demo, parse_circuit("qubits 2\nrx 1 1\nrz 1 0.5\n"), "++") == {
        "input": "++", "error": "FeasibilityError: gate not pulse-compilable: rz 1 0.5"}


def test_pulse_sweep_compare_names_every_moved_gate(tmp_path, capsys):
    from pulse_sweep import main as sweep_main

    def record(key, gate, fidelity="0x1.0p-1"):
        return {"key": key, "gate": gate, "fidelity": fidelity}

    before = [record([11, 0, 0], "rx 1 0.5"), record([11, 0, 1], "cnot 1 2 minus"),
              record([11, 1, 0], "ry 2 -0.5")]
    after = [record([11, 0, 0], "rx 1 0.5"), record([11, 0, 1], "cnot 1 2 minus", "0x1.1p-1"),
             record([12, 0, 0], "rx 2 1.0")]  # [11, 1, 0] only in before
    paths = [tmp_path / "before.json", tmp_path / "after.json"]
    for path, records in zip(paths, (before, after)):
        path.write_text(json.dumps(records), encoding="utf-8")
    assert sweep_main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out == ""
    assert sweep_main(["--compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "11 0 1 cnot 1 2 minus", "11 1 0 ry 2 -0.5", "12 0 0 rx 2 1.0",
        "3 gates moved (1 rx, 1 ry, 1 cnot): 0 moved a pulse field, the target or the error; "
        "3 moved the fidelity, by at most 0.0312; 0 runs moved"]
    # a moved run is named by its circuit and counted apart from the gates
    run = {"key": [11, 0, "run"], "circuit": "rx 1 0.5; cnot 1 2 minus", "input": "++",
           "fidelities": ["0x1.0p-1", "0x1.0p-1"], "end_to_end": "0x1.0p-1", "state": "ab"}
    runs = [run, {**run, "key": [11, 1, "run"], "circuit": "ry 2 -0.5"}]
    before, after = before + runs, before + [{**run, "state": "cd"}, {**runs[1], "fidelities": []}]
    for path, records in zip(paths, (before, after)):
        path.write_text(json.dumps(records), encoding="utf-8")
    assert sweep_main(["--compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "11 0 run rx 1 0.5; cnot 1 2 minus", "11 1 run ry 2 -0.5",
        "0 gates moved (0 rx, 0 ry, 0 cnot): 0 moved a pulse field, the target or the error; "
        "0 moved the fidelity, by at most 0; 2 runs moved"]
    # the summary counts each kind of move and decodes the fidelity change from the hex
    before = [{**record([11, 0, k], "rx 1 0.5"), "tau": "0x1.0p+0", "target": "ab"}
              for k in range(4)]
    after = [before[0], {**before[1], "fidelity": "0x1.0000000000001p-1"},
             {**before[2], "tau": "0x1.0000000000001p+0"}, {**before[3], "target": "cd"}]
    for path, records in zip(paths, (before, after)):
        path.write_text(json.dumps(records), encoding="utf-8")
    assert sweep_main(["--compare", *map(str, paths)]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines()[-1] == (
        "3 gates moved (3 rx, 0 ry, 0 cnot): 2 moved a pulse field, the target or the error; "
        f"1 moved the fidelity, by at most {2.0**-53:.3g}; 0 runs moved")
