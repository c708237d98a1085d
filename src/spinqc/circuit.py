"""Ordered gate sequences, ideal execution, and whole-circuit pulse runs.

Steps are listed in application order: the leftmost gate acts first,
which is the reverse of matrix-product notation.  Circuit files are
plain text, case insensitive, ``#`` starts a comment::

    qubits <n>
    rx <spin> <angle>      # likewise ry, rz; angle is decimal radians,
    cnot <target> <control> <plus|minus>   # or pi/<k>, -pi/<k>
    not
    qft
    bellread

Unknown directives are hard errors, never skipped.
"""

import math
from dataclasses import dataclass

import numpy as np

from spinqc import gates, pulse
from spinqc.register import QuantumState, apply_unitary, basis_state, inner_product


class CircuitParseError(ValueError):
    """Malformed circuit file."""


class CompilationError(ValueError):
    """A gate has no pulse realization."""


@dataclass(frozen=True)
class Circuit:
    """Gate list over an n-spin register.

    ``global_phase`` relates the bare matrix product to the gate the
    circuit is advertised to implement:
    target = global_phase * circuit_unitary(circuit).
    """

    n: int
    steps: tuple[gates.Gate, ...]
    global_phase: complex = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("circuit needs at least one spin")
        object.__setattr__(self, "steps", tuple(self.steps))
        for gate in self.steps:
            if gate.min_spins() > self.n:
                raise ValueError(f"gate {gate.describe()!r} does not fit on {self.n} spins")
            if gate.kind == "bellread" and self.n != 2:
                raise ValueError("bellread needs a two-spin register")
            if gate.kind == "qft" and self.n > gates.MAX_QFT_SPINS:
                raise ValueError(f"qft supports at most {gates.MAX_QFT_SPINS} spins")


@dataclass(frozen=True)
class ExecutionTrace:
    """Initial state and one state per executed step."""

    initial: QuantumState
    gates: tuple[gates.Gate, ...]
    states: tuple[QuantumState, ...]

    @property
    def final(self) -> QuantumState:
        return self.states[-1] if self.states else self.initial


@dataclass(frozen=True)
class PulseRunResult:
    """Trace of a compiled run plus its schedule and fidelity report.

    ``gate_fidelities`` compare each simulated propagator against its
    compiled target (for conditional flips that target carries the ``i``
    phase on the flipped pair); ``fidelity`` is the end-to-end state
    overlap against the plain ideal run.
    """

    trace: ExecutionTrace
    schedule: tuple[pulse.Pulse, ...]
    gate_fidelities: tuple[float, ...]
    fidelity: float


def run_ideal(circuit: Circuit, state: QuantumState) -> ExecutionTrace:
    """Apply the gates in order through the O(2^n) kernel, recording every validated step."""
    if state.n != circuit.n:
        raise ValueError(f"input has {state.n} spins, circuit has {circuit.n}")
    states = []
    current = state
    for gate in circuit.steps:
        current = QuantumState(circuit.n, gates.apply(gate, current.amplitudes, circuit.n))
        states.append(current)
    return ExecutionTrace(state, circuit.steps, tuple(states))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Ordered product of the step unitaries: the gates applied to the identity's columns."""
    u = np.eye(2**circuit.n, dtype=complex)
    for gate in circuit.steps:
        u = gates.apply(gate, u, circuit.n)
    return u


RY_AXIS_PHASE = -math.pi / 2.0  # drive phase whose transverse axis realizes ry


def _pulse_angle(angle: float, axis_phase: float) -> tuple[float, float]:
    """Pulse angle and drive phase that realize a rotation by ``angle``.

    The angle folds into (-pi, pi]; a negative one turns into the same
    rotation at the opposite drive phase, so the pulse angle lies in
    (0, pi] and the pulse stays short and weak.  A whole number of turns
    is one full turn, since a pulse needs a positive length.
    """
    theta = math.remainder(angle, 2.0 * math.pi)
    if theta == -math.pi:
        theta = math.pi  # remainder rounds an odd half turn to even
    if theta == 0.0:
        return 2.0 * math.pi, axis_phase
    if theta < 0.0:
        return -theta, axis_phase + math.pi
    return theta, axis_phase


def _cnot_pulse_target(gate: gates.Gate) -> np.ndarray:
    """Ideal limit of the compiled conditional flip: ``i`` on the flipped pair."""
    flip = 1 << (gate.target - 1)
    control = 1 << (gate.control - 1)
    want = control if gate.condition == "minus" else 0
    target = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        if col & control == want:
            target[col ^ flip, col] = 1j
        else:
            target[col, col] = 1.0
    return target


def compile_gate(sys: pulse.SpinSystem, gate: gates.Gate) -> tuple[pulse.Pulse, np.ndarray]:
    """Pulse and compiled-target unitary for one two-spin gate."""
    if gate.kind in ("rx", "ry"):
        theta, phase = _pulse_angle(gate.angle, 0.0 if gate.kind == "rx" else RY_AXIS_PHASE)
        p = pulse.compile_rotation(sys, gate.spin, phase, theta, purpose=gate.token())
        return p, gates.embed(gate, 2)
    if gate.kind == "cnot":
        p = pulse.compile_cnot(
            sys, gate.target, gate.control, gate.condition, purpose=gate.token()
        )
        return p, _cnot_pulse_target(gate)
    raise CompilationError(f"gate not pulse-compilable: {gate.describe()}")


def run_pulse(circuit: Circuit, sys: pulse.SpinSystem, state: QuantumState) -> PulseRunResult:
    """Compile every gate to a pulse and simulate the pulses in sequence.

    Each pulse is simulated in "both-spins" scope, so selectivity comes
    from detuning rather than by fiat.  Carrier phase restarts at each
    pulse and inter-pulse delays are zero; free-evolution phases are
    absorbed by the interaction picture (see the pulse module).
    """
    if circuit.n != 2:
        raise ValueError("pulse runs are limited to two-spin circuits")
    if state.n != 2:
        raise ValueError(f"input has {state.n} spins, pulse runs need 2")
    schedule, states, fidelities = [], [], []
    current = state
    for gate in circuit.steps:
        p, target = compile_gate(sys, gate)
        u_sim = pulse.pulse_propagator(sys, p, "both-spins")
        current = apply_unitary(current, u_sim)
        schedule.append(p)
        states.append(current)
        fidelities.append(pulse.gate_fidelity(u_sim, target))
    trace = ExecutionTrace(state, circuit.steps, tuple(states))
    ideal_final = run_ideal(circuit, state).final
    end_to_end = float(abs(inner_product(ideal_final, trace.final)))
    return PulseRunResult(trace, tuple(schedule), tuple(fidelities), end_to_end)


def builtin_circuit(name: str) -> Circuit:
    """Worked circuits shipped with the package.

    ``ghz3`` prepares the three-spin maximally entangled state from the
    all-plus input.  Its first step is ry(3, -pi/4): with the
    clockwise-positive rotation convention the +pi/4 variant lands on
    (|+++> - |--->)/sqrt(2) instead, which brute-force evaluation
    confirms, so the negative angle is the one that matches the
    advertised target.
    """
    key = name.strip().lower()
    if key == "ghz3":
        return Circuit(
            3,
            (
                gates.ry(3, -math.pi / 4.0),
                gates.cnot(2, 3, "minus"),
                gates.cnot(1, 2, "minus"),
            ),
        )
    if key == "bell-readout":
        return Circuit(2, (gates.cnot(1, 2, "minus"), gates.ry(2, math.pi / 4.0)))
    if key == "not2":
        # two quarter-turn flips; the product is -1 times the register NOT
        return Circuit(
            2,
            (gates.rx(1, math.pi / 2.0), gates.rx(2, math.pi / 2.0)),
            global_phase=-1.0,
        )
    if key.startswith("qft-"):
        try:
            n = int(key[4:])
        except ValueError:
            raise ValueError(f"unknown builtin circuit {name!r}") from None
        if not 1 <= n <= gates.MAX_QFT_SPINS:
            raise ValueError(f"qft builtin supports 1..{gates.MAX_QFT_SPINS} spins")
        return Circuit(n, (gates.qft(),))
    raise ValueError(f"unknown builtin circuit {name!r}")


def _parse_angle(token: str, lineno: int) -> float:
    text = token.strip().lower()
    sign, fraction = (-1.0, text[1:]) if text.startswith("-") else (1.0, text)
    if fraction.startswith("pi/"):
        try:
            k = int(fraction[3:])
        except ValueError:
            raise CircuitParseError(f"line {lineno}: bad angle {token!r}") from None
        if k < 1:
            raise CircuitParseError(f"line {lineno}: bad angle {token!r}")
        return sign * math.pi / k
    try:
        value = float(text)
    except ValueError:
        raise CircuitParseError(f"line {lineno}: bad angle {token!r}") from None
    if not math.isfinite(value):
        raise CircuitParseError(f"line {lineno}: bad angle {token!r}")
    return value


def _parse_spin(token: str, n: int, lineno: int) -> int:
    try:
        spin = int(token)
    except ValueError:
        raise CircuitParseError(f"line {lineno}: bad spin index {token!r}") from None
    if not 1 <= spin <= n:
        raise CircuitParseError(f"line {lineno}: spin {spin} out of range 1..{n}")
    return spin


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit text format; any unknown directive is an error."""
    n = None
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip().lower()
        if not line:
            continue
        tokens = line.split()
        word, args = tokens[0], tokens[1:]
        if word == "qubits":
            if n is not None:
                raise CircuitParseError(f"line {lineno}: duplicate qubits directive")
            if len(args) != 1:
                raise CircuitParseError(f"line {lineno}: usage: qubits <n>")
            try:
                n = int(args[0])
            except ValueError:
                raise CircuitParseError(f"line {lineno}: bad spin count {args[0]!r}") from None
            if not 1 <= n <= 10:
                raise CircuitParseError(f"line {lineno}: spin count must be 1..10")
            continue
        if n is None:
            raise CircuitParseError(f"line {lineno}: qubits directive must come first")
        if word in gates.ROTATION_KINDS:
            if len(args) != 2:
                raise CircuitParseError(f"line {lineno}: usage: {word} <spin> <angle>")
            spin = _parse_spin(args[0], n, lineno)
            angle = _parse_angle(args[1], lineno)
            steps.append(getattr(gates, word)(spin, angle))
        elif word == "cnot":
            if len(args) != 3:
                raise CircuitParseError(
                    f"line {lineno}: usage: cnot <target> <control> <plus|minus>"
                )
            target = _parse_spin(args[0], n, lineno)
            control = _parse_spin(args[1], n, lineno)
            if args[2] not in gates.CONDITIONS:
                raise CircuitParseError(f"line {lineno}: condition must be plus or minus")
            if target == control:
                raise CircuitParseError(f"line {lineno}: cnot target equals control")
            steps.append(gates.cnot(target, control, args[2]))
        elif word in ("not", "qft", "bellread"):
            if args:
                raise CircuitParseError(f"line {lineno}: {word} takes no arguments")
            factory = {"not": gates.not_all, "qft": gates.qft, "bellread": gates.bell_readout}
            steps.append(factory[word]())
        else:
            raise CircuitParseError(f"line {lineno}: unknown directive {word!r}")
    if n is None:
        raise CircuitParseError("missing qubits directive")
    try:
        return Circuit(n, tuple(steps))
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from None


def load_circuit(path) -> Circuit:
    """Parse a circuit file; bytes that are not UTF-8 are a parse error naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CircuitParseError(f"{path}: {exc}") from None
    return parse_circuit(text)


def all_plus(n: int) -> QuantumState:
    """The all-spins-up input every worked example starts from."""
    return basis_state(n, "+" * n)
