"""Ordered gate sequences, ideal execution, and whole-circuit pulse runs.

Steps are listed in application order: the leftmost gate acts first,
which is the reverse of matrix-product notation.  Circuit files are
plain text, case insensitive, ``#`` starts a comment::

    qubits <n>             # the first directive, given once; n is 1..10
    rx <spin> <angle>      # likewise ry, rz; angle is decimal radians,
    cnot <target> <control> <plus|minus>   # or pi/<k>, -pi/<k>
    not
    qft                    # on at most six spins
    bellread               # on exactly two spins

Spin indices run 1..n, and a cnot's target and control differ.  Unknown
directives are hard errors, never skipped.  Every error but a missing
qubits directive names its line.
"""

import math
from dataclasses import dataclass

import numpy as np

from spinqc import gates, pulse
from spinqc.register import (QuantumState, apply_unitary, basis_state, check_spin_count,
                             inner_product, read_text)


class CircuitParseError(ValueError):
    """Malformed circuit file."""


class CompilationError(ValueError):
    """A gate has no pulse realization."""


@dataclass(frozen=True)
class Circuit:
    """Gate list over an n-spin register; every gate must fit it."""

    n: int
    steps: tuple[gates.Gate, ...]

    def __post_init__(self):
        check_spin_count(self.n)
        object.__setattr__(self, "steps", tuple(self.steps))
        for gate in self.steps:
            gate.check_fits(self.n)


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


# Ideal limits of the compiled conditional flips on two spins, keyed by
# (target, control, condition): the permutation with ``i`` on the flipped pair.
_CNOT_PULSE_TARGETS = {
    (t, c, cond): gates.cnot_matrix(t, c, cond) * np.where(np.eye(4, dtype=bool), 1.0, 1j)
    for t, c in ((1, 2), (2, 1))
    for cond in gates.CONDITIONS
}


# Lowest gate fidelity a pulse run accepts.  A random two-spin unitary
# scores 0.22 on average against a fixed target; in a +-25 % box around
# the demo system, the worst compiled gate scores 0.31 (a whole turn).
FIDELITY_FLOOR = 0.25


def compile_gate(sys: pulse.SpinSystem, gate: gates.Gate) -> tuple[pulse.Pulse, np.ndarray]:
    """Pulse and compiled-target unitary for one two-spin gate."""
    if gate.kind in ("rx", "ry"):
        theta, phase = _pulse_angle(gate.angle, 0.0 if gate.kind == "rx" else RY_AXIS_PHASE)
        purpose = f"{gate.kind}:{gate.spin}"
        p = pulse.compile_rotation(sys, gate.spin, phase, theta, purpose=purpose)
        return p, gates.embed(gate, 2)
    if gate.kind == "cnot":
        purpose = f"cnot:{gate.target}:{gate.control}:{gate.condition}"
        p = pulse.compile_cnot(sys, gate.target, gate.control, gate.condition, purpose=purpose)
        return p, _CNOT_PULSE_TARGETS[gate.target, gate.control, gate.condition].copy()
    raise CompilationError(f"gate not pulse-compilable: {gate.describe()}")


def run_pulse(circuit: Circuit, sys: pulse.SpinSystem, state: QuantumState) -> PulseRunResult:
    """Compile every gate to a pulse and simulate the pulses in sequence.

    Each pulse is simulated in "both-spins" scope, so selectivity comes
    from detuning rather than by fiat.  Carrier phase restarts at each
    pulse and inter-pulse delays are zero; free-evolution phases are
    absorbed by the interaction picture (see the pulse module).  A gate
    whose fidelity falls below ``FIDELITY_FLOOR`` raises
    :class:`pulse.FeasibilityError`, whatever the selectivity conditions
    said.
    """
    if circuit.n != 2:
        raise ValueError("pulse runs are limited to two-spin circuits")
    if state.n != 2:
        raise ValueError(f"input has {state.n} spins, pulse runs need 2")
    schedule, states, fidelities = [], [], []
    current = state
    for k, gate in enumerate(circuit.steps, start=1):
        p, target = compile_gate(sys, gate)
        u_sim = pulse.pulse_propagator(sys, p, "both-spins")
        fidelity = pulse.gate_fidelity(u_sim, target)
        if fidelity < FIDELITY_FLOOR:
            raise pulse.FeasibilityError(
                f"gate {k} ({gate.describe()}): fidelity {fidelity:.3g} is below "
                f"the floor {FIDELITY_FLOOR}"
            )
        current = apply_unitary(current, u_sim)
        schedule.append(p)
        states.append(current)
        fidelities.append(fidelity)
    trace = ExecutionTrace(state, circuit.steps, tuple(states))
    ideal_final = run_ideal(circuit, state).final
    end_to_end = float(abs(inner_product(ideal_final, trace.final)))
    return PulseRunResult(trace, tuple(schedule), tuple(fidelities), end_to_end)


# name -> circuit file text of the worked circuits shipped with the package
_BUILTINS = {
    # The three-spin maximally entangled state from the all-plus input.
    # With the clockwise-positive rotation convention, ry 3 +pi/4 lands on
    # (|+++> - |--->)/sqrt(2) instead, which brute-force evaluation
    # confirms, so the negative angle matches the advertised target.
    "ghz3": "qubits 3\nry 3 -pi/4\ncnot 2 3 minus\ncnot 1 2 minus\n",
    "bell-readout": "qubits 2\ncnot 1 2 minus\nry 2 pi/4\n",
    # two quarter-turn flips; the product is -1 times the register NOT
    "not2": "qubits 2\nrx 1 pi/2\nrx 2 pi/2\n",
}


def builtin_circuit(name: str) -> Circuit:
    """A circuit file of :data:`_BUILTINS`, parsed, or ``qft-<n>``, the n-spin Fourier transform."""
    key = name.strip().lower()
    if key in _BUILTINS:
        return parse_circuit(_BUILTINS[key])
    if key.startswith("qft-"):
        try:
            n = int(key[4:])
        except ValueError:
            raise ValueError(f"unknown builtin circuit {name!r}") from None
        return Circuit(n, (gates.qft(),))
    raise ValueError(f"unknown builtin circuit {name!r}")


def _parse_angle(token: str) -> float:
    """Decimal radians, or ``pi/<k>`` / ``-pi/<k>`` for a positive integer ``k``."""
    sign, fraction = (-1.0, token[1:]) if token.startswith("-") else (1.0, token)
    if not fraction.startswith("pi/"):
        return float(token)
    k = int(fraction[3:])
    if k < 1:
        raise ValueError("pi/<k> needs k >= 1")
    return sign * math.pi / k


# directive -> (factory, (argument name, converter) per argument)
_DIRECTIVES = {
    "qubits": (int, (("spin count", int),)),
    "rx": (gates.rx, (("spin", int), ("angle", _parse_angle))),
    "ry": (gates.ry, (("spin", int), ("angle", _parse_angle))),
    "rz": (gates.rz, (("spin", int), ("angle", _parse_angle))),
    "cnot": (gates.cnot, (("target", int), ("control", int), ("plus|minus", str))),
    "not": (gates.not_all, ()),
    "qft": (gates.qft, ()),
    "bellread": (gates.bell_readout, ()),
}


def _directive(word: str, args: list[str]):
    """What one line builds: the spin count of ``qubits``, else a gate."""
    factory, params = _DIRECTIVES.get(word, (None, None))
    if factory is None:
        raise ValueError(f"unknown directive {word!r}")
    if len(args) != len(params):
        raise ValueError(" ".join(["usage:", word] + [f"<{name}>" for name, _ in params]))
    values = []
    try:
        for (name, convert), token in zip(params, args):
            values.append(convert(token))
    except (ValueError, OverflowError):  # OverflowError: pi/<k> with k beyond a float
        raise ValueError(f"bad {name} {token!r}") from None
    return factory(*values)


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit text format; every error names its line."""
    n = None
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip().lower()
        if not line:
            continue
        word, *args = line.split()
        try:
            if word == "qubits":
                if n is not None:
                    raise ValueError("duplicate qubits directive")
                n = _directive(word, args)
                if not 1 <= n <= 10:
                    raise ValueError("spin count must be 1..10")
            elif n is None:
                raise ValueError("qubits directive must come first")
            else:
                gate = _directive(word, args)
                gate.check_fits(n)
                steps.append(gate)
        except ValueError as exc:
            raise CircuitParseError(f"line {lineno}: {exc}") from None
    if n is None:
        raise CircuitParseError("missing qubits directive")
    return Circuit(n, tuple(steps))


def load_circuit(path) -> Circuit:
    """Parse a circuit file, read by :func:`register.read_text`."""
    return parse_circuit(read_text(path, CircuitParseError))


def all_plus(n: int) -> QuantumState:
    """The all-spins-up input every worked example starts from."""
    check_spin_count(n)  # before "+" * n, which a float count cannot build
    return basis_state(n, "+" * n)
