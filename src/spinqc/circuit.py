"""Ordered gate sequences, ideal execution and whole-circuit pulse runs.

Steps are listed in application order: the leftmost gate acts first,
which is the reverse of matrix-product notation.  Circuit files are
plain text, case insensitive, ``#`` starts a comment::

    qubits <n>             # the first directive, given once; n is 1..10
    rx <spin> <angle>      # likewise ry, rz; angle is decimal radians,
    cnot <target> <control> <plus|minus>   # or [+|-]pi[/<k>]
    not
    qft
    bellread               # on exactly two spins

Spin indices run 1..n, and a cnot's target and control differ.  Numbers
are ASCII with no ``_``, and n, a spin and k are digits alone with no
leading zero (:func:`register.read_number`).  Unknown directives are
hard errors, never skipped.  Every error but a missing qubits directive
names its line.
"""

import math
from dataclasses import dataclass

import numpy as np

from spinqc import gates, pulse
from spinqc.pulse import compile_gate
from spinqc.register import (InputError, QuantumState, StateLabel, apply_unitary, basis_state,
                             check_spin_count, inner_product, read_lines, read_number, read_text)


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


# Lowest gate fidelity a pulse run accepts.  A random two-spin unitary
# scores 0.22 on average against a fixed target; on a grid of the +-25 %
# box around the demo system, the worst default gate scores 0.778 (a
# 180-degree flip, rx 2 -pi/2).  The floor stays just above chance: it
# refuses a useless gate, not a weak one.
FIDELITY_FLOOR = 0.25


# one (pulse, compiled target) pair per step of a circuit
Schedule = tuple[tuple[pulse.Pulse, np.ndarray], ...]


def compile_circuit(circuit: Circuit, sys: pulse.SpinSystem) -> Schedule:
    """The schedule: one ``(pulse, target)`` pair of :func:`pulse.compile_gate` per step.

    Every gate is compiled before any is simulated, so a gate pulse mode
    cannot build costs no propagator.  A circuit that is not two spins, and
    every refusal of the compiler, raise :class:`pulse.FeasibilityError`.
    """
    if circuit.n != 2:
        raise pulse.FeasibilityError("pulse runs are limited to two-spin circuits")
    return tuple(compile_gate(sys, gate) for gate in circuit.steps)


def simulate_schedule(circuit: Circuit, sys: pulse.SpinSystem, schedule: Schedule,
                      state: QuantumState) -> PulseRunResult:
    """Simulate the pulses of a schedule, one per step of the circuit, in sequence.

    Each pulse drives both spins of the coupled register, so selectivity
    comes from detuning rather than by fiat.  Carrier phase restarts at each
    pulse and inter-pulse delays are zero; free-evolution phases are
    absorbed by the interaction picture (see the pulse module).  The
    schedule is one ``(pulse, target)`` pair per step, as
    :func:`compile_circuit` builds it or with pinned durations; a schedule of
    another length, or an input state of another size, is a plain
    ``ValueError``.  A gate whose fidelity falls below ``FIDELITY_FLOOR``,
    whatever the selectivity conditions said, raises
    :class:`pulse.FeasibilityError`.
    """
    ideal_final = run_ideal(circuit, state).final
    current, states, fidelities = state, [], []
    for k, (gate, (p, target)) in enumerate(zip(circuit.steps, schedule, strict=True), start=1):
        u_sim = pulse.pulse_propagator(sys, p, "both-spins")
        fidelity = pulse.gate_fidelity(u_sim, target)
        if fidelity < FIDELITY_FLOOR:
            raise pulse.FeasibilityError(f"gate {k} ({gate.describe()}): fidelity {fidelity:.3g} "
                                         f"is below the floor {FIDELITY_FLOOR}")
        current = apply_unitary(current, u_sim)
        states.append(current)
        fidelities.append(fidelity)
    trace = ExecutionTrace(state, circuit.steps, tuple(states))
    end_to_end = float(abs(inner_product(ideal_final, trace.final)))
    return PulseRunResult(trace, tuple(p for p, _ in schedule), tuple(fidelities), end_to_end)


def run_pulse(circuit: Circuit, sys: pulse.SpinSystem, state: QuantumState) -> PulseRunResult:
    """:func:`compile_circuit`, then :func:`simulate_schedule` of its schedule."""
    return simulate_schedule(circuit, sys, compile_circuit(circuit, sys), state)


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
            n = read_number(key[4:], int)
        except ValueError:
            raise InputError(f"unknown builtin circuit {name!r}") from None
        return Circuit(_spin_count(n), (gates.qft(),))
    raise InputError(f"unknown builtin circuit {name!r}")


def _parse_angle(token: str) -> float:
    """Decimal radians, or ``[+|-]pi[/<k>]`` for a positive integer ``k``."""
    sign, fraction = (-1.0, token[1:]) if token[:1] == "-" else (1.0, token.removeprefix("+"))
    if fraction == "pi":
        return sign * math.pi
    if not fraction.startswith("pi/"):
        return read_number(token)
    k = read_number(fraction[3:], int)
    if k < 1:
        raise ValueError("pi/<k> needs k >= 1")
    return sign * math.pi / k


def _parse_int(token: str) -> int:
    return read_number(token, int)


def _spin_count(n: int) -> int:
    """The register size of a ``qubits`` line or a ``qft-<n>`` builtin, 1..10."""
    if not 1 <= n <= 10:
        raise InputError("spin count must be 1..10")
    return n


# directive -> (factory, (argument name, converter) per argument)
_DIRECTIVES = {
    "qubits": (_spin_count, (("spin count", _parse_int),)),
    "rx": (gates.rx, (("spin", _parse_int), ("angle", _parse_angle))),
    "ry": (gates.ry, (("spin", _parse_int), ("angle", _parse_angle))),
    "rz": (gates.rz, (("spin", _parse_int), ("angle", _parse_angle))),
    "cnot": (gates.cnot, (("target", _parse_int), ("control", _parse_int), ("plus|minus", str))),
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
    for lineno, line in read_lines(text):
        word, *args = line.lower().split()
        try:
            if word == "qubits":
                if n is not None:
                    raise ValueError("duplicate qubits directive")
                n = _directive(word, args)
            elif n is None:
                raise ValueError("qubits directive must come first")
            else:
                gate = _directive(word, args)
                gate.check_fits(n)
                steps.append(gate)
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    if n is None:
        raise InputError("missing qubits directive")
    return Circuit(n, tuple(steps))


def load_circuit(path) -> Circuit:
    """Parse a circuit file, read by :func:`register.read_text`."""
    return parse_circuit(read_text(path))


def all_plus(n: int) -> QuantumState:
    """The all-spins-up input every worked example starts from."""
    return basis_state(n, StateLabel(n, 0))
