import dataclasses
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from conftest import random_state
from hypothesis import event, given, settings
from hypothesis import strategies as st

from spinqc.circuit import compile_gate
from spinqc.gates import Gate, cnot, rotation_matrix, rx, ry
from spinqc.linalg import is_unitary, max_abs
from spinqc.pulse import (
    ConfigError,
    FeasibilityError,
    IntegrationError,
    Pulse,
    SpinSystem,
    compile_cnot,
    compile_rotation,
    demo_system,
    format_schedule,
    gate_fidelity,
    load_system_config,
    parse_system_config,
    pulse_propagator,
    transition_spectrum,
)
from spinqc.register import apply_unitary, basis_state, check_spin

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


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
        ("kappa", np.inf, "finite"),
        ("omega0", 0.0, "omega0 must be positive"),
        ("omega0", -1000.0, "omega0 must be positive"),
        ("kappa", 0.0, "kappa must be positive"),
        ("kappa", -1.0, "kappa must be positive"),
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
        ("omega_p", 0.0, "amplitude must be positive"),
    ],
)
def test_pulse_rejects_non_finite_or_empty_values(field, value, message):
    fields = {"carrier": 3000.0, "omega_p": 20.0, "tau": 0.1, "phase": 0.0, field: value}
    with pytest.raises(ValueError, match=message):
        Pulse(**fields)


# ---------------------------------------------------- static Hamiltonian
# The static Hamiltonian is diagonal in the product basis, so a system
# carries it as its diagonal: lab_energies, and rotating_energies in the
# frame co-rotating with omega0.


def test_static_hamiltonian_corner_entry(demo):
    corner = -(demo.larmor(1) + demo.larmor(2) + demo.omegac) / 2
    assert demo.lab_energies[0] == pytest.approx(corner)


def test_static_hamiltonian_is_traceless_and_diagonal(demo):
    for energies in (demo.lab_energies, demo.rotating_energies):
        assert energies.shape == (4,) and energies.dtype == float
        assert abs(energies.sum()) < 1e-9


def test_static_hamiltonian_matches_hand_formula(demo):
    w1, w2, wc = demo.larmor(1), demo.larmor(2), demo.omegac
    expected = -0.5 * np.array(
        [w1 + w2 + wc, -demo.omega1 + demo.omega2 - wc, demo.omega1 - demo.omega2 - wc, -w1 - w2 + wc]
    )
    assert max_abs(demo.lab_energies - expected) < 1e-10


def test_rotating_frame_drops_the_common_precession(demo):
    lab, rot = demo.lab_energies, demo.rotating_energies
    shift = -0.5 * demo.omega0 * np.array([2.0, 0.0, 0.0, -2.0])
    assert max_abs(lab - (rot + shift)) < 1e-10


def test_weak_coupling_limit_decouples_the_spins():
    sys_ = SpinSystem(omega0=1000.0, omega1=25.0, omega2=5.0, omegac=1e-9)
    h = np.diag(sys_.lab_energies)
    single1 = -0.5 * sys_.larmor(1) * np.diag([1.0, -1.0])
    single2 = -0.5 * sys_.larmor(2) * np.diag([1.0, -1.0])
    split = np.kron(np.eye(2), single1) + np.kron(single2, np.eye(2))
    assert max_abs(h - split) <= 1e-9
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
    energies = demo.lab_energies
    by_pair = {
        (line.from_label.value, line.to_label.value): line.frequency
        for line in transition_spectrum(demo)
    }
    assert by_pair[(0, 1)] == pytest.approx(energies[1] - energies[0])
    assert by_pair[(2, 3)] == pytest.approx(energies[3] - energies[2])
    assert by_pair[(0, 1)] == pytest.approx(demo.larmor(1) + demo.omegac)
    assert by_pair[(2, 3)] == pytest.approx(demo.larmor(1) - demo.omegac)


def test_spectrum_annotations(demo):
    lines = {(line.flipped_spin, line.spectator): line for line in transition_spectrum(demo)}
    assert lines[(1, "+")].from_label.signs == "++" and lines[(1, "+")].to_label.signs == "-+"
    assert lines[(1, "-")].from_label.signs == "+-" and lines[(1, "-")].to_label.signs == "--"
    assert len(lines) == 4


# ------------------------------------------------------------ compilation


def test_compiled_rotation_sits_on_the_spin_carrier(demo):
    for spin in (1, 2):
        pulse = compile_rotation(demo, spin, 0.0, np.pi / 2)
        assert pulse.carrier == pytest.approx(demo.larmor(spin))
        assert pulse.tau == pytest.approx(2 * (np.pi / 2) / pulse.omega_p)


def test_rotation_window_with_minimal_separation():
    # separation exactly four couplings leaves the window (wc, 3 wc)
    sys_ = SpinSystem(omega0=10000.0, omega1=9.0, omega2=5.0, omegac=1.0)
    pulse = compile_rotation(sys_, 1, 0.0, np.pi / 2)
    dw = sys_.kappa / pulse.tau
    assert sys_.omegac < dw < 3 * sys_.omegac


def test_rotation_rejects_bandwidth_outside_the_window(demo):
    upper = demo.omega1 - demo.omega2 - demo.omegac
    with pytest.raises(FeasibilityError, match="condition 1"):
        compile_rotation(demo, 1, 0.0, np.pi / 2, bandwidth=upper)
    with pytest.raises(FeasibilityError, match="condition 1"):
        compile_rotation(demo, 1, 0.0, np.pi / 2, bandwidth=demo.omegac)


def test_rotation_rejects_overselective_amplitude(demo):
    # tiny amplitude means a long, narrow pulse that cannot cover the doublet
    with pytest.raises(FeasibilityError, match="condition 1"):
        compile_rotation(demo, 1, 0.0, np.pi / 2, omega_p=demo.omegac / 100)


def test_rotation_duration_doubles_with_angle_at_fixed_amplitude(demo):
    wp = 20.0
    short = compile_rotation(demo, 1, 0.0, np.pi / 4, omega_p=wp)
    long = compile_rotation(demo, 1, 0.0, np.pi / 2, omega_p=wp)
    assert long.tau == pytest.approx(2 * short.tau)


def test_rotation_rejects_conflicting_pins_and_bad_angles(demo):
    with pytest.raises(ValueError):
        compile_rotation(demo, 1, 0.0, np.pi / 2, omega_p=10.0, bandwidth=20.0)
    for theta in (0.0, -0.1, 2 * np.pi + 0.1):
        with pytest.raises(ValueError):
            compile_rotation(demo, 1, 0.0, theta)


def test_compiled_rotations_always_respect_condition_1(rng):
    for _ in range(25):
        wc = rng.uniform(0.5, 3.0)
        w2 = rng.uniform(2.0, 10.0)
        w1 = w2 + rng.uniform(4.0, 12.0) * wc
        sys_ = SpinSystem(omega0=1000.0 * wc, omega1=w1, omega2=w2, omegac=wc)
        theta = rng.uniform(0.05, 2 * np.pi)
        pulse = compile_rotation(sys_, int(rng.integers(1, 3)), 0.0, theta)
        dw = sys_.kappa / pulse.tau
        assert sys_.omegac < dw < sys_.omega1 - sys_.omega2 - sys_.omegac


def test_compiled_cnot_carriers_match_the_selected_lines(demo):
    perturbed = SpinSystem(omega0=3000.3, omega1=171.7, omega2=12.9, omegac=5.3)
    for sys_ in (demo, perturbed):
        lines = {(ln.flipped_spin, ln.spectator): ln for ln in transition_spectrum(sys_)}
        for target, control in ((1, 2), (2, 1)):
            for condition, spectator in (("plus", "+"), ("minus", "-")):
                pulse = compile_cnot(sys_, target, control, condition)
                assert pulse.carrier == lines[target, spectator].frequency
    pulse = compile_cnot(demo, 1, 2, "minus")
    assert pulse.carrier == pytest.approx(demo.larmor(1) - demo.omegac)
    other = compile_cnot(demo, 2, 1, "plus")
    assert other.carrier == pytest.approx(demo.larmor(2) + demo.omegac)


def test_compiled_cnot_is_a_half_turn(demo):
    pulse = compile_cnot(demo, 1, 2, "minus")
    assert pulse.omega_p * pulse.tau / 2 == pytest.approx(np.pi / 2)
    assert demo.kappa / pulse.tau < 2 * demo.omegac


def test_cnot_rejects_broadband_requests(demo):
    too_short = demo.kappa / (2 * demo.omegac)
    with pytest.raises(FeasibilityError, match="condition 2"):
        compile_cnot(demo, 1, 2, "minus", tau=too_short)


def test_zero_pins_raise_the_pulse_errors(demo):
    # a zero or negative amplitude is a bad pulse, not a bandwidth problem
    for omega_p in (0.0, -0.0, -5.0, -np.inf):
        with pytest.raises(ValueError, match="amplitude must be positive") as exc:
            compile_rotation(demo, 1, 0.0, np.pi / 2, omega_p=omega_p)
        assert not isinstance(exc.value, FeasibilityError)
    with pytest.raises(ValueError, match="duration must be positive") as exc:
        compile_cnot(demo, 1, 2, "minus", tau=0.0)
    assert not isinstance(exc.value, FeasibilityError)
    for bandwidth in (0.0, -0.0, -1.0):
        with pytest.raises(FeasibilityError, match="condition 1: bandwidth .* must exceed omegac"):
            compile_rotation(demo, 1, 0.0, np.pi / 2, bandwidth=bandwidth)
    # an infinite amplitude leaves a zero duration: an unbounded bandwidth
    with pytest.raises(FeasibilityError, match="condition 1: bandwidth inf must stay below"):
        compile_rotation(demo, 1, 0.0, np.pi / 2, omega_p=np.inf)


def test_cnot_rejects_bad_gate_specs(demo):
    with pytest.raises(ValueError):
        compile_cnot(demo, 1, 1, "minus")
    with pytest.raises(ValueError):
        compile_cnot(demo, 1, 2, "down")


def _gate_refuses(target, control, condition) -> bool:
    try:
        cnot(target, control, condition).check_fits(2)
    except ValueError:
        return True
    return False


def _two_call_cnot_message(target, control, condition):
    """What compile_cnot said with both spins checked on two spins before the gate rules."""
    try:
        check_spin(target, 2)
        check_spin(control, 2)
        Gate.check_cnot(target, control, condition)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "target, control, condition",
    list(itertools.product((0, 1, 2, 3, True, 2.0), (0, 1, 2, 3), ("minus", "down"))),
)
def test_compile_cnot_refuses_exactly_what_the_gate_rules_refuse(demo, target, control, condition):
    # and names the first fault as the two-call check did
    expected = _two_call_cnot_message(target, control, condition)
    assert (expected is not None) == _gate_refuses(target, control, condition)
    try:
        compile_cnot(demo, target, control, condition)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def test_compile_cnot_messages_for_several_faults(demo):
    for args, message in (
        ((3, 3, "minus"), "spin 3 out of range 1..2"),
        ((True, 3, "down"), "spin index must be a positive integer, got True"),
        ((1, 1, "down"), "cnot target and control must differ"),
        ((1, 3, "down"), "spin 3 out of range 1..2"),
    ):
        with pytest.raises(ValueError) as info:
            compile_cnot(demo, *args)
        assert str(info.value) == message


# --------------------------------------------------------------- pulses


def _rotating_frame_pieces(sys_, pulse, scope):
    """Static diagonal ``h0``, drive-phase generator ``z`` and drive ``drive0``
    of the rotating-frame Hamiltonian, written out from the closed form."""
    if scope == "single-spin-ideal":
        spin = 1 if abs(sys_.larmor(1) - pulse.carrier) <= abs(sys_.larmor(2) - pulse.carrier) else 2
        offset = sys_.omega1 if spin == 1 else sys_.omega2
        h0 = -0.5 * offset * np.array([1.0, -1.0])
        z = np.array([1.0, -1.0])
        drive0 = -(pulse.omega_p / 2) * X
    else:
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


def _oracle_propagator(sys_, pulse, scope):
    """Closed-form check: constant Hamiltonian in the frame rotating at
    the carrier, exponentiated with scipy, then mapped back."""
    h0, z, drive0 = _rotating_frame_pieces(sys_, pulse, scope)
    det = pulse.carrier - sys_.omega0
    h_const = np.diag(h0) + 0.5 * det * np.diag(z) + drive0

    def d(angle):
        return np.diag(np.exp(-0.5j * angle * z))

    u_rot = (
        d(det * pulse.tau + pulse.phase).conj().T
        @ scipy.linalg.expm(-1j * h_const * pulse.tau)
        @ d(pulse.phase)
    )
    return np.diag(np.exp(1j * h0 * pulse.tau)) @ u_rot


def test_resonant_pulse_matches_the_closed_form_rotation(demo):
    for theta in (np.pi / 8, np.pi / 4, np.pi / 2, np.pi):
        pulse = compile_rotation(demo, 1, 0.0, theta)
        u = pulse_propagator(demo, pulse, "single-spin-ideal")
        assert max_abs(u - rotation_matrix("x", theta)) <= 1e-6


def test_quarter_turn_pulse_fully_flips_the_spin(demo):
    pulse = compile_rotation(demo, 1, 0.0, np.pi / 2)
    out = apply_unitary(basis_state(1, "+"), pulse_propagator(demo, pulse, "single-spin-ideal"))
    expected = np.array([0.0, 1j])
    assert max_abs(out.amplitudes - expected) <= 1e-6


def test_quarter_phase_drive_realizes_y_rotations(demo):
    theta = np.pi / 4
    pulse = compile_rotation(demo, 1, -np.pi / 2, theta)
    u = pulse_propagator(demo, pulse, "single-spin-ideal")
    assert max_abs(u - rotation_matrix("y", theta)) <= 1e-6


def test_vanishing_amplitude_leaves_the_state_alone(demo):
    pulse = Pulse(carrier=demo.larmor(1) - demo.omegac, omega_p=1e-9, tau=0.37)
    u = pulse_propagator(demo, pulse, "both-spins")
    assert max_abs(u - np.eye(4)) <= 1e-7


def test_integrator_agrees_with_the_constant_frame_oracle(demo):
    cases = [
        (compile_cnot(demo, 1, 2, "minus"), "both-spins"),
        (compile_rotation(demo, 2, 0.4, np.pi / 3), "both-spins"),
        (compile_rotation(demo, 1, 0.0, np.pi / 2), "single-spin-ideal"),
    ]
    for pulse, scope in cases:
        u = pulse_propagator(demo, pulse, scope)
        assert max_abs(u - _oracle_propagator(demo, pulse, scope)) <= 1e-7


def _literal_midpoint_propagator(sys_, pulse, steps):
    """Independent integrator: ``steps`` exponential-midpoint steps of the
    rotating-frame Hamiltonian, each exponentiated with scipy, then
    mapped to the interaction picture."""
    h0, z, drive0 = _rotating_frame_pieces(sys_, pulse, "both-spins")
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
        (compile_rotation(demo, 2, 0.4, np.pi / 3), 500, 1e-10),
        # measured at 1000/2000 steps: errors 2.37e-2 and 5.95e-3, extrapolated 7.0e-5
        (compile_cnot(demo, 1, 2, "minus"), 1000, 2e-4),
    ]
    for pulse, steps, extrapolated_tol in cases:
        exact = pulse_propagator(demo, pulse, "both-spins")
        coarse = _literal_midpoint_propagator(demo, pulse, steps)
        fine = _literal_midpoint_propagator(demo, pulse, 2 * steps)
        ratio = max_abs(coarse - exact) / max_abs(fine - exact)
        assert 3.9 <= ratio <= 4.1
        assert max_abs((4 * fine - coarse) / 3 - exact) <= extrapolated_tol


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
    return sys_, pulse, draw(st.sampled_from(["single-spin-ideal", "both-spins"]))


@settings(max_examples=200, deadline=None)
@given(systems_and_pulses())
def test_propagator_is_unitary_and_matches_the_scipy_oracle(case):
    sys_, pulse, scope = case
    u = pulse_propagator(sys_, pulse, scope)
    assert is_unitary(u, tol=1e-12)
    assert max_abs(u - _oracle_propagator(sys_, pulse, scope)) <= 1e-9


def test_compiled_cnot_pulse_transfers_the_population(demo):
    pulse = compile_cnot(demo, 1, 2, "minus")
    out = apply_unitary(basis_state(2, "+-"), pulse_propagator(demo, pulse, "both-spins"))
    assert abs(out.amplitudes[3]) ** 2 >= 0.99


def test_compiled_cnot_pulse_has_the_permutation_shape(demo):
    pulse = compile_cnot(demo, 1, 2, "minus")
    u = pulse_propagator(demo, pulse, "both-spins")
    pattern = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
    assert max_abs(np.abs(u) - pattern) <= 0.1


def test_pulse_evolution_preserves_the_norm(demo, rng):
    pulse = compile_rotation(demo, 2, 0.7, 1.1)
    state = random_state(rng, 2)
    out = apply_unitary(state, pulse_propagator(demo, pulse, "both-spins"))
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) <= 1e-9


def test_pulse_scope_and_register_size_must_match(demo):
    pulse = compile_rotation(demo, 1, 0.0, np.pi / 2)
    with pytest.raises(ValueError):
        pulse_propagator(demo, pulse, "every-spin")


def test_pathological_parameters_raise_an_integration_error(demo):
    pulse = Pulse(carrier=demo.omega0 + 1e9, omega_p=1.0, tau=1.0)
    with pytest.raises(IntegrationError):
        pulse_propagator(demo, pulse, "both-spins")


# ------------------------------------------------------ carrier resolution
# A carrier is a double, and adjacent doubles near omega0 = 1e18 lie 128 rad/s
# apart.  The compiler refuses a pulse whose band kappa / tau is no wider than
# that gap.  The oracle is exact rational arithmetic on the system's inputs.

# Rounding bound on a line frequency, fixed from the arithmetic that makes it,
# not from a run: each Larmor sum, the two additions into the corner energy,
# the far energy and the final difference round by at most half an ulp of the
# corner's scale Omega_1 + Omega_2 + omegac, whose ulp can be twice the line's.
LINE_ULPS = 2
RESOLUTION_GATES = (
    rx(1, np.pi / 2), ry(2, -np.pi / 4), rx(2, np.pi),
    *(cnot(t, c, cond) for t, c in ((1, 2), (2, 1)) for cond in ("plus", "minus")),
)
REFUSAL = re.compile(r"carrier (\S+) has a resolution of (\S+) in double precision, "
                     r"not below the bandwidth (\S+)")


def _exact_carrier(sys_, gate):
    """The carrier the gate asks for, as an exact rational: Omega_s, or Omega_t +- omegac."""
    w0, w1, w2, wc = map(Fraction, (sys_.omega0, sys_.omega1, sys_.omega2, sys_.omegac))
    if gate.kind == "cnot":
        larmor = w0 + (w1 if gate.target == 1 else w2)
        return larmor + (wc if gate.condition == "plus" else -wc)
    return w0 + (w1 if gate.spin == 1 else w2)


def _rounding_bound(sys_) -> Fraction:
    """LINE_ULPS ulps of the corner energy's scale, 2 omega0 + omega1 + omega2 + omegac."""
    w0, w1, w2, wc = map(Fraction, (sys_.omega0, sys_.omega1, sys_.omega2, sys_.omegac))
    return LINE_ULPS * Fraction(math.ulp(float(2 * w0 + w1 + w2 + wc)))


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
    w0, w1, w2, wc = map(Fraction, (sys_.omega0, sys_.omega1, sys_.omega2, sys_.omegac))
    exact_lines = (w0 + w1 + wc, w0 + w1 - wc, w0 + w2 + wc, w0 + w2 - wc)
    bound = _rounding_bound(sys_)
    for line, exact in zip(sys_.line_frequencies, exact_lines):
        assert abs(Fraction(line) - exact) <= bound
    exact = _exact_carrier(sys_, gate)
    try:
        p, _ = compile_gate(sys_, gate)
    except FeasibilityError as exc:
        event("refused")
        # every refusal names the carrier, its resolution and the band
        carrier, resolution, dw = map(float, REFUSAL.fullmatch(str(exc)).groups())
        assert abs(Fraction(carrier) - exact) <= bound
        assert resolution == math.ulp(carrier) >= dw > 0.0
    else:
        event("accepted")
        assert abs(Fraction(p.carrier) - exact) <= bound
        assert math.ulp(p.carrier) < sys_.kappa / p.tau


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


def _fresh_energies(a1, a2, omegac):
    z1 = np.array([1.0, -1.0, 1.0, -1.0])
    z2 = np.array([1.0, 1.0, -1.0, -1.0])
    return -0.5 * (a1 * z1 + a2 * z2 + omegac * (z1 * z2))


@settings(max_examples=100, deadline=None)
@given(spin_systems())
def test_larmor_is_the_sum_of_omega0_and_the_offset(sys_):
    assert float.hex(sys_.larmor(1)) == float.hex(sys_.omega0 + sys_.omega1)
    assert float.hex(sys_.larmor(2)) == float.hex(sys_.omega0 + sys_.omega2)


@settings(max_examples=100, deadline=None)
@given(spin_systems())
def test_derived_spectrum_is_read_only_and_equals_the_formula(sys_):
    lab = _fresh_energies(sys_.larmor(1), sys_.larmor(2), sys_.omegac)
    rotating = _fresh_energies(sys_.omega1, sys_.omega2, sys_.omegac)
    for derived, fresh in ((sys_.lab_energies, lab), (sys_.rotating_energies, rotating)):
        assert derived.tobytes() == fresh.tobytes()
        assert not derived.flags.writeable
        with pytest.raises(ValueError):
            derived[0] = 0.0
    pairs = ((0, 1), (2, 3), (0, 2), (1, 3))
    assert sys_.line_frequencies == tuple(float(lab[hi] - lab[lo]) for lo, hi in pairs)
    assert sorted(sys_.line_frequencies) == [ln.frequency for ln in transition_spectrum(sys_)]
    # derived once: a second read hands back the same objects
    assert sys_.rotating_energies is sys_.rotating_energies
    assert sys_.line_frequencies is sys_.line_frequencies


def test_reading_the_spectrum_leaves_equality_hash_and_repr_alone():
    read = SpinSystem(omega0=3000.3, omega1=171.7, omega2=12.9, omegac=5.3)
    unread = SpinSystem(omega0=3000.3, omega1=171.7, omega2=12.9, omegac=5.3)
    before = repr(read)
    transition_spectrum(read)
    compile_cnot(read, 1, 2, "minus")
    pulse_propagator(read, compile_rotation(read, 1, 0.0, np.pi / 2), "both-spins")
    assert read == unread and hash(read) == hash(unread)
    assert repr(read) == repr(unread) == before
    assert {unread: "value"}[read] == "value"
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.omega0 = 1.0


@pytest.mark.parametrize("scope", ["both-spins", "single-spin-ideal"])
def test_equal_propagator_calls_return_fresh_writable_arrays(demo, scope):
    for p in (compile_rotation(demo, 1, 0.0, np.pi / 2), compile_cnot(demo, 2, 1, "plus")):
        first = pulse_propagator(demo, p, scope)
        second = pulse_propagator(demo, p, scope)
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second)
        expected = second.copy()
        first[...] = 0.0
        second[...] = 0.0
        assert np.array_equal(pulse_propagator(demo, p, scope), expected)


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


def test_parse_config_accepts_kappa():
    sys_ = parse_system_config(
        "omega0=1000\nomega1=25\nomega2=5\nomegac=1\nkappa=2.5\n"
    )
    assert sys_.kappa == 2.5


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
    with pytest.raises(ConfigError):
        parse_system_config(text)


def test_parse_config_propagates_invariant_violations():
    with pytest.raises(ValueError, match="omegac"):
        parse_system_config("omega0=1000\nomega1=25\nomega2=5\nomegac=0\n")


def test_schedule_format():
    pulse = Pulse(carrier=3292.389101, omega_p=0.7853981634, tau=4.0, phase=0.0, purpose="cnot:1:2:minus")
    line = format_schedule([pulse])
    assert line == "carrier=3292.389101 omega_p=0.7853981634 tau=4 phase=0 purpose=cnot:1:2:minus"
