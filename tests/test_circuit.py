import itertools
import math
import re

import numpy as np
import pytest
from conftest import BUILTIN_FILES, random_state
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqc import circuit as circuit_mod
from spinqc import gates
from spinqc import pulse as pulse_mod
from spinqc.circuit import (
    FIDELITY_FLOOR,
    Circuit,
    all_plus,
    builtin_circuit,
    circuit_unitary,
    compile_circuit,
    parse_circuit,
    run_ideal,
    run_pulse,
    simulate_schedule,
)
from spinqc.gates import bell_readout_matrix, bell_state, embed
from spinqc.linalg import is_unitary, max_abs
from spinqc.pulse import (KAPPA, FeasibilityError, SpinSystem, compile_gate, gate_fidelity,
                          pulse_propagator)
from spinqc.register import InputError, inner_product, is_product_state


def _random_circuit(rng, n, length):
    steps = []
    for _ in range(length):
        kind = rng.choice(["rx", "ry", "rz", "cnot"])
        if kind == "cnot":
            target, control = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            steps.append(gates.cnot(int(target), int(control), rng.choice(["plus", "minus"])))
        else:
            factory = getattr(gates, kind)
            steps.append(factory(int(rng.integers(1, n + 1)), float(rng.uniform(-np.pi, np.pi))))
    return Circuit(n, tuple(steps))


# ------------------------------------------------------------ ideal runs


def test_ghz_circuit_entangles_all_three_spins():
    trace = run_ideal(builtin_circuit("ghz3"), all_plus(3))
    amps = trace.final.amplitudes
    assert abs(amps[0] - 1 / np.sqrt(2)) <= 1e-10
    assert abs(amps[7] - 1 / np.sqrt(2)) <= 1e-10
    assert max_abs(np.delete(amps, [0, 7])) <= 1e-10


def test_ghz_trace_matches_the_worked_steps():
    trace = run_ideal(builtin_circuit("ghz3"), all_plus(3))
    s = 1 / np.sqrt(2)
    first, second, third = (state.amplitudes for state in trace.states)
    assert abs(first[0] - s) <= 1e-12 and abs(first[4] - s) <= 1e-12
    assert abs(second[0] - s) <= 1e-12 and abs(second[6] - s) <= 1e-12
    assert abs(third[0] - s) <= 1e-12 and abs(third[7] - s) <= 1e-12


def test_empty_circuit_returns_the_input(rng):
    state = random_state(rng, 2)
    trace = run_ideal(Circuit(2, ()), state)
    assert trace.final is state
    assert trace.states == ()


def test_conditional_flip_disentangles_the_symmetric_pair():
    circ = Circuit(2, (gates.cnot(1, 2, "minus"),))
    trace = run_ideal(circ, bell_state("phi+"))
    expected = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    assert max_abs(trace.final.amplitudes - expected) <= 1e-12
    assert is_product_state(trace.final, {1})


def test_run_ideal_rejects_mismatched_input():
    with pytest.raises(ValueError):
        run_ideal(builtin_circuit("ghz3"), all_plus(2))


# ------------------------------------------------------- circuit unitary


def test_bell_readout_circuit_reproduces_the_gate():
    u = circuit_unitary(builtin_circuit("bell-readout"))
    assert max_abs(u - bell_readout_matrix()) <= 1e-12


def test_not2_circuit_is_minus_the_register_not():
    assert max_abs(-circuit_unitary(builtin_circuit("not2")) - embed(gates.not_all(), 2)) <= 1e-12


def test_single_step_circuit_unitary_is_the_embedded_gate():
    gate = gates.ry(2, 0.9)
    assert np.array_equal(circuit_unitary(Circuit(3, (gate,))), embed(gate, 3))


def test_circuit_unitary_matches_stepwise_execution(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        circ = _random_circuit(rng, n, int(rng.integers(1, 11)))
        state = random_state(rng, n)
        via_trace = run_ideal(circ, state).final.amplitudes
        via_matrix = circuit_unitary(circ) @ state.amplitudes
        assert max_abs(via_trace - via_matrix) <= 1e-10
        assert is_unitary(circuit_unitary(circ), tol=1e-10)


def test_circuits_preserve_orthogonality(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        circ = _random_circuit(rng, n, 6)
        a = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        b = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        a /= np.linalg.norm(a)
        b -= np.vdot(a, b) * a
        b /= np.linalg.norm(b)
        from spinqc.register import QuantumState

        out_a = run_ideal(circ, QuantumState(n, a)).final
        out_b = run_ideal(circ, QuantumState(n, b)).final
        assert abs(inner_product(out_a, out_b)) <= 1e-9


def test_running_a_circuit_then_its_adjoints_restores_the_input(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        circ = _random_circuit(rng, n, 5)
        state = random_state(rng, n)
        trace = run_ideal(circ, state)
        amps = trace.final.amplitudes
        for gate in reversed(circ.steps):
            amps = embed(gate, n).conj().T @ amps
        assert max_abs(amps - state.amplitudes) <= 1e-9


# ------------------------------------------------------------- pulse runs


def test_pulse_run_of_the_conditional_flip(demo):
    circ = Circuit(2, (gates.cnot(1, 2, "minus"),))
    result = run_pulse(circ, demo, all_plus(2))
    assert result.fidelity >= 0.99
    assert result.gate_fidelities[0] >= 0.99
    assert len(result.schedule) == 1
    assert result.schedule[0].purpose == "cnot:1:2:minus"


def test_pulse_run_of_an_empty_circuit_is_perfect(demo):
    result = run_pulse(Circuit(2, ()), demo, all_plus(2))
    assert result.fidelity == pytest.approx(1.0)


def test_pulse_run_rejects_z_rotations(demo):
    circ = Circuit(2, (gates.rz(1, 0.3),))
    with pytest.raises(FeasibilityError, match="rz"):
        run_pulse(circ, demo, all_plus(2))


def test_pulse_run_rejects_whole_register_gates(demo):
    for gate in (gates.not_all(), gates.qft(), gates.bell_readout()):
        with pytest.raises(FeasibilityError, match="^gate not pulse-compilable: "):
            run_pulse(Circuit(2, (gate,)), demo, all_plus(2))


def test_pulse_run_needs_two_spins(demo):
    with pytest.raises(FeasibilityError, match="limited to two-spin circuits"):
        run_pulse(Circuit(3, ()), demo, all_plus(3))
    # a mismatched input is a caller's error, not a refusal of pulse mode
    with pytest.raises(ValueError, match="input has 3 spins") as exc:
        run_pulse(Circuit(2, ()), demo, all_plus(3))
    assert type(exc.value) is ValueError


def test_pulse_run_refuses_a_gate_below_the_fidelity_floor(demo, monkeypatch):
    # a floor above the conditional flip's 0.99938 refuses the first gate
    circ = Circuit(2, (gates.cnot(1, 2, "minus"), gates.rx(1, np.pi / 2)))
    monkeypatch.setattr(circuit_mod, "FIDELITY_FLOOR", 0.9995)
    with pytest.raises(FeasibilityError, match=r"^gate 1 \(cnot 1 2 minus\): "
                                               r"fidelity 0.999 is below the floor 0.9995$"):
        run_pulse(circ, demo, all_plus(2))


def test_the_fidelity_floor_is_checked_on_every_gate(demo, monkeypatch):
    # the conditional flip scores 0.99938 and rx 1 pi/2 0.884 on the demo system
    circ = Circuit(2, (gates.cnot(1, 2, "minus"), gates.rx(1, np.pi / 2)))
    assert min(run_pulse(circ, demo, all_plus(2)).gate_fidelities) >= FIDELITY_FLOOR
    monkeypatch.setattr(circuit_mod, "FIDELITY_FLOOR", 0.9)
    with pytest.raises(FeasibilityError, match=r"^gate 2 \(rx 1 1.5707963267948966\): "
                                               r"fidelity 0.884 is below the floor 0.9$"):
        run_pulse(circ, demo, all_plus(2))


def test_a_refused_gate_anywhere_costs_no_propagator(demo, monkeypatch):
    # every gate is compiled before the first pulse is simulated
    calls = []

    def counting(*args):
        calls.append(args)
        return pulse_propagator(*args)

    monkeypatch.setattr(pulse_mod, "pulse_propagator", counting)
    circ = parse_circuit("qubits 2\ncnot 1 2 minus\ncnot 1 2 minus\nrz 1 0.3\n")
    with pytest.raises(FeasibilityError, match=r"^gate not pulse-compilable: rz 1 0.3$"):
        run_pulse(circ, demo, all_plus(2))
    assert calls == []


def test_a_pinned_schedule_below_the_fidelity_floor_is_refused(demo):
    # a quarter turn pinned at 1.001 times the lower bound of condition 1 passes the
    # compiler and scores 0.000885; the floor applies to any schedule it simulates
    gate = gates.rx(1, np.pi / 2)
    schedule = (compile_gate(demo, gate, tau=KAPPA / (1.001 * demo.omegac)),)
    with pytest.raises(FeasibilityError, match=r"^gate 1 \(rx 1 1.5707963267948966\): "
                                               r"fidelity 0.000885 is below the floor 0.25$"):
        simulate_schedule(Circuit(2, (gate,)), demo, schedule, all_plus(2))


@pytest.mark.parametrize("name", ["bell-readout", "not2"])
def test_a_pulse_run_is_the_compiled_schedule_simulated(demo, rng, name):
    circ = builtin_circuit(name)
    for state in (all_plus(2), random_state(rng, 2)):
        whole = run_pulse(circ, demo, state)
        split = simulate_schedule(circ, demo, compile_circuit(circ, demo), state)
        assert whole.schedule == split.schedule == tuple(p for p, _ in compile_circuit(circ, demo))
        assert whole.gate_fidelities == split.gate_fidelities
        assert whole.fidelity == split.fidelity
        assert whole.trace.gates == split.trace.gates == circ.steps
        for a, b in zip((whole.trace.initial, *whole.trace.states),
                        (split.trace.initial, *split.trace.states), strict=True):
            assert a.n == b.n and np.array_equal(a.amplitudes, b.amplitudes)


def test_a_schedule_of_another_length_is_a_plain_value_error(demo):
    circ = builtin_circuit("not2")
    schedule = compile_circuit(circ, demo)
    for wrong in (schedule[:-1], schedule + schedule[:1]):
        with pytest.raises(ValueError) as exc:
            simulate_schedule(circ, demo, wrong, all_plus(2))
        assert type(exc.value) is ValueError


def test_the_fidelity_floor_clears_every_gate_of_the_benchmark_box(demo):
    # the benchmark perturbs each demo value by up to +-25 %; on the grid of the box's
    # corners, edge midpoints and centre every default gate scores above the floor, the
    # lowest being a 180-degree flip (0.778, rx 2 -pi/2 at 0.75 omega1, 1.25 omega2 and
    # 1.25 omegac); a whole turn is a zero-amplitude pulse and scores 1
    values = (demo.omega0, demo.omega1, demo.omega2, demo.omegac)
    systems = [SpinSystem(*(v * s for v, s in zip(values, scale)))
               for scale in itertools.product((0.75, 1.0, 1.25), repeat=4)]
    assert len(systems) == 81
    angles = [k * math.pi / 4 for k in range(-8, 9)]
    steps = [kind(spin, a) for kind in (gates.rx, gates.ry) for spin in (1, 2) for a in angles]
    steps += [gates.cnot(t, c, cond) for t, c in ((1, 2), (2, 1)) for cond in ("plus", "minus")]
    lowest = math.inf
    for sys_ in systems:
        for gate in steps:
            p, target = compile_gate(sys_, gate)
            lowest = min(lowest, gate_fidelity(pulse_propagator(sys_, p, "both-spins"), target))
    assert lowest >= FIDELITY_FLOOR and lowest == pytest.approx(0.778, abs=5e-4)


def test_pulse_run_compiles_negative_angles(demo):
    circ = Circuit(2, (gates.rx(1, -np.pi / 4),))
    result = run_pulse(circ, demo, all_plus(2))
    assert result.schedule[0].tau > 0
    # a negative angle turns into the same short pulse at the opposite drive phase
    theta = result.schedule[0].omega_p * result.schedule[0].tau / 2
    assert theta == pytest.approx(np.pi / 4)
    assert result.schedule[0].phase == pytest.approx(np.pi)
    mirrored = run_pulse(Circuit(2, (gates.rx(1, np.pi / 4),)), demo, all_plus(2))
    assert result.gate_fidelities[0] == pytest.approx(mirrored.gate_fidelities[0], abs=1e-12)


@pytest.mark.parametrize(
    "angle, theta, phase_shift",
    [
        (np.pi / 2, np.pi / 2, 0.0),
        (np.pi, 0.0, 0.0),
        (-np.pi, 0.0, 0.0),
        (3 * np.pi / 2, np.pi / 2, np.pi),
        (-7 * np.pi / 4, np.pi / 4, 0.0),
        (2 * np.pi, 0.0, 0.0),
    ],
)
def test_pulse_angles_fold_to_at_most_a_half_turn(demo, angle, theta, phase_shift):
    for factory, axis_phase in ((gates.rx, 0.0), (gates.ry, -np.pi / 2)):
        p, target = compile_gate(demo, factory(2, angle))
        assert p.omega_p * p.tau / 2 == pytest.approx(theta, rel=1e-12, abs=0.0)
        assert p.phase == pytest.approx(axis_phase + phase_shift, abs=1e-12)
        assert np.array_equal(target, embed(factory(2, angle), 2))


@pytest.mark.parametrize("turn", [gates.rx(1, np.pi), gates.ry(2, -2 * np.pi), gates.rx(1, 0.0)],
                         ids=lambda gate: gate.describe())
def test_a_whole_turn_anywhere_in_a_pulse_run_changes_nothing(demo, rng, turn):
    # a whole turn is +-I, a global phase, and compiles to a zero-amplitude pulse: free
    # evolution, which the interaction picture strips
    for name in ("bell-readout", "not2"):
        base = builtin_circuit(name)
        for state in (all_plus(2), random_state(rng, 2)):
            without = run_pulse(base, demo, state).fidelity
            for k in range(len(base.steps) + 1):
                circ = Circuit(2, base.steps[:k] + (turn,) + base.steps[k:])
                result = run_pulse(circ, demo, state)
                assert result.schedule[k].omega_p == 0.0
                assert result.gate_fidelities[k] >= 1.0 - 1e-12
                assert result.fidelity == pytest.approx(without, rel=0.0, abs=1e-12)


def test_compiled_cnot_target_carries_i_on_the_flipped_pair(demo):
    for target, control in ((1, 2), (2, 1)):
        for condition in ("plus", "minus"):
            gate = gates.cnot(target, control, condition)
            flip = gates.embed(gates.cnot(target, control, condition), 2)
            expected = np.where(np.eye(4, dtype=bool), flip, 1j * flip)
            assert np.array_equal(compile_gate(demo, gate)[1], expected)


def test_equal_compile_gate_calls_return_fresh_writable_targets(demo):
    cnots = [gates.cnot(t, c, cond) for t, c in ((1, 2), (2, 1)) for cond in gates.CONDITIONS]
    for gate in [gates.rx(1, 0.7), gates.ry(2, -0.4), *cnots]:
        first = compile_gate(demo, gate)[1]
        second = compile_gate(demo, gate)[1]
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second)
        expected = second.copy()
        first[...] = 0.0
        second[...] = 0.0
        assert np.array_equal(compile_gate(demo, gate)[1], expected)


# --------------------------------------------------------------- builtins


def test_builtin_names_and_shapes():
    assert builtin_circuit("ghz3").n == 3
    assert builtin_circuit("bell-readout").n == 2
    assert builtin_circuit("qft-4").steps[0].kind == "qft"
    with pytest.raises(InputError):
        builtin_circuit("shor")
    assert builtin_circuit("qft-10").n == 10
    with pytest.raises(InputError, match="^unknown builtin circuit 'qft-x'$"):
        builtin_circuit("qft-x")
    for name in ("qft-0", "qft-11"):  # the rule of a qubits line
        with pytest.raises(InputError, match=r"^spin count must be 1\.\.10$"):
            builtin_circuit(name)


@pytest.mark.parametrize("name", ["qft-\u0661", "qft-\uff12", "qft-0_1", "qft-1_0",
                                  "qft- 1", "qft-+1", "qft-01"])
def test_builtin_names_take_only_ascii_numbers_without_underscores(name):
    # int() alone reads each of these as a spin count
    with pytest.raises(InputError, match=f"^unknown builtin circuit {re.escape(repr(name))}$"):
        builtin_circuit(name)


# each named builtin as the gate factories built it before it was a circuit
# file: the reference for bit-for-bit equality
FACTORY_BUILTINS = {
    "ghz3": Circuit(3, (gates.ry(3, -math.pi / 4.0), gates.cnot(2, 3, "minus"),
                        gates.cnot(1, 2, "minus"))),
    "bell-readout": Circuit(2, (gates.cnot(1, 2, "minus"), gates.ry(2, math.pi / 4.0))),
    "not2": Circuit(2, (gates.rx(1, math.pi / 2.0), gates.rx(2, math.pi / 2.0))),
}


@pytest.mark.parametrize("name", list(BUILTIN_FILES))
def test_named_builtins_parse_from_their_circuit_files_bit_for_bit(name):
    circ = builtin_circuit(f" {name.upper()} ")
    assert circ == parse_circuit(BUILTIN_FILES[name]) == FACTORY_BUILTINS[name]
    angles = [float.hex(gate.angle) for gate in circ.steps if gate.angle is not None]
    assert angles == [float.hex(gate.angle) for gate in FACTORY_BUILTINS[name].steps
                      if gate.angle is not None]


# ----------------------------------------------------------- text format


GOOD_CIRCUIT = """
# prepare, flip, and undo
qubits 3
RX 1 pi/2
ry 2 -pi/4
rz 3 0.25
CNOT 1 2 minus
not
qft
"""


def test_parse_circuit_accepts_comments_case_and_pi_angles():
    circ = parse_circuit(GOOD_CIRCUIT)
    assert circ.n == 3
    kinds = [gate.kind for gate in circ.steps]
    assert kinds == ["rx", "ry", "rz", "cnot", "not", "qft"]
    assert circ.steps[0].angle == pytest.approx(np.pi / 2)
    assert circ.steps[1].angle == pytest.approx(-np.pi / 4)


# pi and pi/1 both read as math.pi, to the last bit
@pytest.mark.parametrize("token, angle", [
    ("pi", math.pi), ("pi/1", math.pi), ("+pi", math.pi), ("PI", math.pi),
    ("-pi", -math.pi), ("-pi/1", -math.pi), ("+pi/2", math.pi / 2), ("+0.5", 0.5),
    ("-1.5e3", -1500.0),
])
def test_angle_grammar_takes_pi_with_an_optional_sign_and_divisor(token, angle):
    (gate,) = parse_circuit(f"qubits 2\nrx 1 {token}\n").steps
    assert float.hex(gate.angle) == float.hex(angle)


def test_render_parse_roundtrip():
    # a step's describe() is its circuit-file line, so the rendered text parses back
    circ = parse_circuit(GOOD_CIRCUIT)
    text = "\n".join([f"qubits {circ.n}"] + [gate.describe() for gate in circ.steps])
    assert parse_circuit(text) == circ


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 10))
    kinds = ["rx", "ry", "rz", "not", "qft"] + ["cnot"] * (n >= 2) + ["bellread"] * (n == 2)
    steps = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        if kind in ("rx", "ry", "rz"):
            angle = draw(st.floats(allow_nan=False, allow_infinity=False))
            steps.append(getattr(gates, kind)(draw(st.integers(1, n)), angle))
        elif kind == "cnot":
            target, control = draw(st.permutations(range(1, n + 1)))[:2]
            steps.append(gates.cnot(target, control, draw(st.sampled_from(gates.CONDITIONS))))
        else:
            steps.append(gates.Gate(kind))  # not, qft or bellread
    return Circuit(n, tuple(steps))


@settings(max_examples=200, deadline=None)
@given(circ=circuits())
def test_parse_circuit_reads_back_every_rendered_circuit(circ):
    text = "\n".join([f"qubits {circ.n}"] + [gate.describe() for gate in circ.steps])
    assert parse_circuit(text) == circ


# text -> (line the error names, or None; a piece of the message)
MALFORMED = {
    "qubits 2\nfoo 1\n": (2, "'foo'"),  # unknown directive
    "rx 1 pi/2\n": (1, "qubits"),  # a step before the qubits directive
    "# a comment only\n": (None, "missing qubits"),
    "qubits 2\nqubits 2\n": (2, "duplicate"),
    "qubits 0\n": (1, "1..10"),  # bad count
    "qubits 11\n": (1, "1..10"),
    "qubits two\n": (1, "'two'"),
    "qubits\n": (1, "usage"),
    "qubits 2\nrx 3 pi/2\n": (2, "spin 3"),  # spin out of range
    "qubits 2\nrx 0 pi/2\n": (2, "got 0"),
    "qubits 2\nrx one pi/2\n": (2, "'one'"),
    "qubits 2\nrx 1\n": (2, "usage"),
    "qubits 2\nrx 1 pi/0\n": (2, "'pi/0'"),  # bad angle
    "qubits 2\nrx 1 pi/-2\n": (2, "'pi/-2'"),
    "qubits 2\nrx 1 two\n": (2, "'two'"),  # bad angle
    "qubits 2\nrx 1 --1\n": (2, "'--1'"),  # doubled sign
    "qubits 2\nrx 1 -+1\n": (2, "'-+1'"),  # doubled sign
    "qubits 2\nrx 1 +-pi\n": (2, "bad angle '+-pi'"),
    "qubits 2\nrx 1 --pi\n": (2, "bad angle '--pi'"),
    "qubits 2\nrx 1 pi/\n": (2, "bad angle 'pi/'"),
    "qubits 2\nrx 1 pix\n": (2, "bad angle 'pix'"),
    "qubits 2\nrx 1 inf\n": (2, "inf"),
    "qubits 2\nry 2 nan\n": (2, "nan"),
    "qubits 2\nrx 1 pi/1" + "0" * 309 + "\n": (2, "'pi/100"),  # k beyond a float
    "qubits 2\ncnot 1 1 minus\n": (2, "differ"),  # equal spins
    "qubits 2\ncnot 1 3 minus\n": (2, "spin 3"),
    "qubits 2\ncnot 1 2 down\n": (2, "'down'"),  # bad condition
    "qubits 2\nnot 1\n": (2, "usage"),  # stray argument
    "qubits 3\nbellread\n": (2, "bellread"),  # wrong register size
    # numbers that int() and float() alone read: digit-group underscores, non-ASCII digits
    "qubits 1_0\n": (1, "bad spin count '1_0'"),
    "qubits \uff12\n": (1, "bad spin count '\uff12'"),
    "qubits 2\nrx 1 1_0\n": (2, "bad angle '1_0'"),
    "qubits 2\nrx 1 pi/2_0\n": (2, "bad angle 'pi/2_0'"),
    "qubits 2\nry 2 -pi/\u0664\n": (2, "bad angle '-pi/\u0664'"),
    "qubits 2\nrx \u0661 0.5\n": (2, "bad spin '\u0661'"),
    "qubits 2\nrx 1 \uff11\n": (2, "bad angle '\uff11'"),
    "qubits 2\nrx 1 0.\u0665\n": (2, "bad angle '0.\u0665'"),
    "qubits 2\ncnot 1_0 2 minus\n": (2, "bad target '1_0'"),
    "qubits 2\ncnot 1 \u0662 minus\n": (2, "bad control '\u0662'"),
    # integers that int() alone reads: a sign, a leading zero
    "qubits +2\n": (1, "bad spin count '+2'"),
    "qubits 02\n": (1, "bad spin count '02'"),
    "qubits -1\n": (1, "bad spin count '-1'"),
    "qubits 2\nrx +1 0.5\n": (2, "bad spin '+1'"),
    "qubits 2\ncnot 01 2 plus\n": (2, "bad target '01'"),
    "qubits 2\nrx 1 pi/+4\n": (2, "bad angle 'pi/+4'"),
    "qubits 2\nrx 1 pi/04\n": (2, "bad angle 'pi/04'"),
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_circuit_rejects_malformed_text(text):
    line, needle = MALFORMED[text]
    with pytest.raises(InputError) as info:
        parse_circuit(text)
    message = str(info.value)
    if line is not None:
        assert message.startswith(f"line {line}: ")
    assert needle in message


def test_ideal_runs_build_no_embedded_matrix(monkeypatch):
    # rotations, conditional flips and the register NOT go through the O(2^n) kernel
    def refuse(gate, n):
        raise AssertionError(f"dense embedding of {gate.describe()}")

    circuit = Circuit(3, (gates.rx(1, 0.4), gates.ry(3, -1.1), gates.rz(2, 0.8),
                          gates.cnot(2, 3, "minus"), gates.not_all(), gates.cnot(1, 2, "plus")))
    expected_u = circuit_unitary(circuit)
    expected_final = run_ideal(circuit, all_plus(3)).final.amplitudes
    monkeypatch.setattr(gates, "embed", refuse)
    assert np.array_equal(circuit_unitary(circuit), expected_u)
    assert np.array_equal(run_ideal(circuit, all_plus(3)).final.amplitudes, expected_final)
