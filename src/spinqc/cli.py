"""Command-line front end.

Two subcommands::

    spinqc run --circuit <path> | --builtin <name>
               [--mode ideal|pulse] [--system <path>] [--input <spec>]
               [--emit state,trace,unitary,schedule,spectrum,fidelity]
               [--format text|json] [--out <path>]
    spinqc spectrum --system <path>

Exit codes: 0 success, 1 usage or parse error, 2 feasibility or
compilation error (including parameter-invariant violations), 3
numerical error.  Output is deterministic; text and JSON carry the same
values, rendered with 10 significant digits.
"""

import argparse
import json
import sys

import numpy as np

from spinqc import circuit as circuit_mod
from spinqc import gates, pulse
from spinqc.register import (
    PRINT_THRESHOLD,
    NormalizationError,
    QuantumState,
    StateLabel,
    basis_state,
    format_number,
    format_state,
    round10,
)

EMIT_CHOICES = ("state", "trace", "unitary", "schedule", "spectrum", "fidelity")
MAX_UNITARY_SPINS = 6

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_FEASIBILITY = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    """Usage-level problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with its own code
        raise CliError(message)


class _InputSpecAction(argparse.Action):
    """Store ``--input`` as given.

    argparse on Python 3.11 strips a literal ``--`` from ``--input=--``
    and passes an empty list; that value can only have been ``--``.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinqc", description="spin-register simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a circuit")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--circuit", help="circuit file path")
    source.add_argument("--builtin", help="builtin circuit name (ghz3, bell-readout, not2, qft-<n>)")
    run.add_argument("--mode", choices=("ideal", "pulse"), default="ideal")
    run.add_argument("--system", help="system config path (required in pulse mode)")
    run.add_argument("--input", dest="input_spec", default=None, action=_InputSpecAction,
                     help="label string, ghz, or bell:<phi+|phi-|psi+|psi->; default all-plus")
    run.add_argument("--emit", default="state",
                     help="comma list from: " + ",".join(EMIT_CHOICES))
    run.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    run.add_argument("--out", help="write output to this path instead of stdout")

    spectrum = sub.add_parser("spectrum", help="print the transition spectrum")
    spectrum.add_argument("--system", required=True, help="system config path")
    spectrum.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    spectrum.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def parse_input_spec(spec: str | None, n: int) -> QuantumState:
    if spec is None:
        return basis_state(n, "+" * n)
    spec = spec.strip().lower()
    if spec == "ghz":
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = amps[-1] = 1.0 / np.sqrt(2)
        return QuantumState(n, amps)
    if spec.startswith("bell:"):
        if n != 2:
            raise CliError("bell input states need a two-spin circuit")
        try:
            return gates.bell_state(spec[5:])
        except ValueError as exc:
            raise CliError(str(exc)) from None
    try:
        label = StateLabel.parse(spec)
    except ValueError as exc:
        raise CliError(f"bad input spec: {exc}") from None
    if label.n != n:
        raise CliError(f"input label has {label.n} spins, circuit has {n}")
    return basis_state(n, label)


def _state_rows(state: QuantumState):
    rows = []
    for i, amp in enumerate(state.amplitudes):
        if abs(amp) < PRINT_THRESHOLD:
            continue
        label = state.label(i)
        rows.append([label.signs, label.bits, label.value,
                     round10(amp.real), round10(amp.imag)])
    return rows


def _unitary_payload(u: np.ndarray):
    return [[[round10(v.real), round10(v.imag)] for v in row] for row in u]


def _unitary_text(u: np.ndarray) -> str:
    return "\n".join(
        " ".join(f"{format_number(v.real)},{format_number(v.imag)}" for v in row)
        for row in u
    )


def _trace_payload(trace: circuit_mod.ExecutionTrace):
    steps = [{"step": 0, "gate": "input", "state": _state_rows(trace.initial)}]
    for k, (gate, state) in enumerate(zip(trace.gates, trace.states), start=1):
        steps.append({"step": k, "gate": gate.describe(), "state": _state_rows(state)})
    return {"steps": steps}


def _trace_text(trace: circuit_mod.ExecutionTrace) -> str:
    blocks = [f"step 0 input\n{format_state(trace.initial)}"]
    for k, (gate, state) in enumerate(zip(trace.gates, trace.states), start=1):
        blocks.append(f"step {k} {gate.describe()}\n{format_state(state)}")
    return "\n".join(blocks)


def _spectrum_lines(sys_params: pulse.SpinSystem):
    return [
        {
            "omega": round10(line.frequency),
            "from": line.from_label.signs,
            "to": line.to_label.signs,
            "flips": line.flipped_spin,
            "spectator": line.spectator,
        }
        for line in pulse.transition_spectrum(sys_params)
    ]


def _spectrum_text(sys_params: pulse.SpinSystem) -> str:
    return "\n".join(
        f"omega={format_number(line.frequency)} from={line.from_label.signs} "
        f"to={line.to_label.signs} flips={line.flipped_spin} spectator={line.spectator}"
        for line in pulse.transition_spectrum(sys_params)
    )


def _fidelity_payload(result: circuit_mod.PulseRunResult):
    per_gate = [
        {"gate": gate.describe(), "fidelity": round10(f)}
        for gate, f in zip(result.trace.gates, result.gate_fidelities)
    ]
    return {"per_gate": per_gate, "end_to_end": round10(result.fidelity)}


def _fidelity_text(result: circuit_mod.PulseRunResult) -> str:
    lines = [
        f"gate {k} {gate.describe()} fidelity={format_number(f)}"
        for k, (gate, f) in enumerate(
            zip(result.trace.gates, result.gate_fidelities), start=1
        )
    ]
    lines.append(f"end_to_end={format_number(result.fidelity)}")
    return "\n".join(lines)


def _schedule_payload(schedule):
    return [
        {
            "carrier": round10(p.carrier),
            "omega_p": round10(p.omega_p),
            "tau": round10(p.tau),
            "phase": round10(p.phase),
            "purpose": p.purpose or "pulse",
        }
        for p in schedule
    ]


def cmd_run(args) -> str:
    if args.circuit is not None:
        circ = circuit_mod.load_circuit(args.circuit)
    else:
        try:
            circ = circuit_mod.builtin_circuit(args.builtin)
        except ValueError as exc:
            raise CliError(str(exc)) from None

    emits = [e.strip() for e in args.emit.split(",") if e.strip()]
    if not emits:
        raise CliError("empty --emit list")
    for e in emits:
        if e not in EMIT_CHOICES:
            raise CliError(f"unknown emit {e!r}; choose from {','.join(EMIT_CHOICES)}")
    if "unitary" in emits and circ.n > MAX_UNITARY_SPINS:
        raise CliError(f"unitary emission supports at most {MAX_UNITARY_SPINS} spins")
    if args.mode == "ideal" and any(e in emits for e in ("schedule", "fidelity")):
        raise CliError("schedule and fidelity emissions need --mode pulse")
    if args.mode == "pulse" and args.system is None:
        raise CliError("--mode pulse requires --system")
    if "spectrum" in emits and args.system is None:
        raise CliError("spectrum emission requires --system")

    sys_params = pulse.load_system_config(args.system) if args.system else None
    state = parse_input_spec(args.input_spec, circ.n)

    result = None
    if args.mode == "pulse":
        result = circuit_mod.run_pulse(circ, sys_params, state)
        trace = result.trace
    else:
        trace = circuit_mod.run_ideal(circ, state)

    payload = {}
    text_blocks = {}
    for e in emits:
        if e == "state":
            payload[e] = _state_rows(trace.final)
            text_blocks[e] = format_state(trace.final)
        elif e == "trace":
            payload[e] = _trace_payload(trace)
            text_blocks[e] = _trace_text(trace)
        elif e == "unitary":
            u = circuit_mod.circuit_unitary(circ)
            payload[e] = _unitary_payload(u)
            text_blocks[e] = _unitary_text(u)
        elif e == "schedule":
            payload[e] = _schedule_payload(result.schedule)
            text_blocks[e] = pulse.format_schedule(result.schedule)
        elif e == "spectrum":
            payload[e] = _spectrum_lines(sys_params)
            text_blocks[e] = _spectrum_text(sys_params)
        elif e == "fidelity":
            payload[e] = _fidelity_payload(result)
            text_blocks[e] = _fidelity_text(result)

    if args.fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    if len(emits) == 1:
        return text_blocks[emits[0]]
    sections = [f"# emit: {e}\n{text_blocks[e]}" for e in emits]
    return "\n".join(sections)


def cmd_spectrum(args) -> str:
    sys_params = pulse.load_system_config(args.system)
    if args.fmt == "json":
        return json.dumps({"spectrum": _spectrum_lines(sys_params)}, indent=2, sort_keys=True)
    return _spectrum_text(sys_params)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        output = cmd_run(args) if args.command == "run" else cmd_spectrum(args)
    except (CliError, circuit_mod.CircuitParseError, pulse.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (pulse.FeasibilityError, circuit_mod.CompilationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FEASIBILITY
    except (pulse.IntegrationError, NormalizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # invariant violations in user-supplied parameters
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FEASIBILITY

    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output + "\n")
    else:
        print(output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
