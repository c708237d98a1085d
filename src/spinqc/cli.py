"""Command-line front end.

Two subcommands::

    spinqc run --circuit <path> | --builtin <name>
               [--mode ideal|pulse] [--system <path>] [--input <spec>]
               [--emit state,trace,unitary,schedule,spectrum,fidelity]
               [--format text|json] [--out <path>]
    spinqc spectrum --system <path>

Exit codes: 0 success; 1 malformed input (``register.InputError``: a bad
option, builtin name, input spec, circuit or system file), an input file
that cannot be read, or an output, ``--out`` or stdout, that cannot be
written; 2 feasibility or compilation error (including
parameter-invariant violations and a pulse gate below the fidelity
floor); 3 numerical error.

Output is deterministic.  Each emit builds one set of rows whose numbers
are rounded to 10 significant digits; JSON carries those rows and the
text is formatted from them, so both forms carry the same values.  An
emit named twice in ``--emit`` is emitted once.
"""

import argparse
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from spinqc import circuit as circuit_mod
from spinqc import gates, pulse
from spinqc.register import (
    InputError,
    NormalizationError,
    QuantumState,
    basis_state,
    format_keyed,
    format_number,
    format_state,
    round10,
    state_rows,
)

EMIT_CHOICES = ("state", "trace", "unitary", "schedule", "spectrum", "fidelity")
MAX_UNITARY_SPINS = 6

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_FEASIBILITY = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with its own code
        raise InputError(message)


class _InputSpecAction(argparse.Action):
    """Store ``--input`` as given.

    argparse on Python 3.10 to 3.12 strips a literal ``--`` from
    ``--input=--`` and passes an empty list, which can only have been
    ``--``; from 3.13 on it passes ``"--"`` itself.  Both store ``"--"``.
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
        return circuit_mod.all_plus(n)
    spec = spec.strip().lower()
    if spec == "ghz":
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = amps[-1] = 1.0 / np.sqrt(2)
        return QuantumState(n, amps)
    if spec.startswith("bell:"):
        if n != 2:
            raise InputError("bell input states need a two-spin circuit")
        return gates.bell_state(spec[5:])
    try:
        return basis_state(n, spec)
    except ValueError as exc:
        raise InputError(f"bad input spec: {exc}") from None


def _trace_steps(trace: circuit_mod.ExecutionTrace):
    """(step, gate, state) for the input and for every executed step."""
    names = ["input"] + [gate.describe() for gate in trace.gates]
    return list(zip(range(len(names)), names, (trace.initial,) + trace.states))


def _unitary_rows(circ: circuit_mod.Circuit):
    u = circuit_mod.circuit_unitary(circ)
    return [[[round10(v.real), round10(v.imag)] for v in row] for row in u]


def _spectrum_rows(sys_params: pulse.SpinSystem):
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


def _fidelity_rows(result: circuit_mod.PulseRunResult):
    per_gate = [
        {"gate": gate.describe(), "fidelity": round10(f)}
        for gate, f in zip(result.trace.gates, result.gate_fidelities)
    ]
    return {"per_gate": per_gate, "end_to_end": round10(result.fidelity)}


def _emit(e: str, as_json: bool, circ, trace, result, sys_params):
    """One emit's JSON-ready rows, or its text formatted from those same rows.

    ``format_state`` renders ``state_rows`` and ``format_schedule``
    renders ``schedule_rows``, so each value is chosen and rounded once.
    """
    if e == "state":
        return state_rows(trace.final) if as_json else format_state(trace.final)
    if e == "trace":
        steps = _trace_steps(trace)
        if as_json:
            return {"steps": [{"step": k, "gate": g, "state": state_rows(s)}
                              for k, g, s in steps]}
        return "\n".join(f"step {k} {g}\n{format_state(s)}" for k, g, s in steps)
    if e == "schedule":
        return (pulse.schedule_rows(result.schedule) if as_json
                else pulse.format_schedule(result.schedule))
    if e == "unitary":
        rows = _unitary_rows(circ)
        if as_json:
            return rows
        return "\n".join(
            " ".join(f"{format_number(re)},{format_number(im)}" for re, im in row)
            for row in rows
        )
    if e == "spectrum":
        rows = _spectrum_rows(sys_params)
        return rows if as_json else format_keyed(rows)
    rows = _fidelity_rows(result)
    if as_json:
        return rows
    lines = [
        f"gate {k} {row['gate']} fidelity={format_number(row['fidelity'])}"
        for k, row in enumerate(rows["per_gate"], start=1)
    ]
    lines.append(f"end_to_end={format_number(rows['end_to_end'])}")
    return "\n".join(lines)


def cmd_run(args) -> str:
    if args.circuit is not None:
        circ = circuit_mod.load_circuit(args.circuit)
    else:
        circ = circuit_mod.builtin_circuit(args.builtin)

    # a name given twice is emitted once, where it first appears
    emits = list(dict.fromkeys(e.strip() for e in args.emit.split(",") if e.strip()))
    if not emits:
        raise InputError("empty --emit list")
    for e in emits:
        if e not in EMIT_CHOICES:
            raise InputError(f"unknown emit {e!r}; choose from {','.join(EMIT_CHOICES)}")
    if "unitary" in emits and circ.n > MAX_UNITARY_SPINS:
        raise InputError(f"unitary emission supports at most {MAX_UNITARY_SPINS} spins")
    if args.mode == "ideal" and any(e in emits for e in ("schedule", "fidelity")):
        raise InputError("schedule and fidelity emissions need --mode pulse")
    if args.mode == "pulse" and args.system is None:
        raise InputError("--mode pulse requires --system")
    if "spectrum" in emits and args.system is None:
        raise InputError("spectrum emission requires --system")

    sys_params = pulse.load_system_config(args.system) if args.system else None
    state = parse_input_spec(args.input_spec, circ.n)

    result = None
    if args.mode == "pulse":
        result = circuit_mod.run_pulse(circ, sys_params, state)
        trace = result.trace
    else:
        trace = circuit_mod.run_ideal(circ, state)

    return _render(emits, args.fmt, circ, trace, result, sys_params)


def cmd_spectrum(args) -> str:
    """The output of ``run --emit spectrum`` on the same system."""
    system = pulse.load_system_config(args.system)
    return _render(["spectrum"], args.fmt, None, None, None, system)


def _render(emits, fmt: str, *context) -> str:
    """The emits as one JSON object, or as text with one section per emit."""
    if fmt == "json":
        return json.dumps({e: _emit(e, True, *context) for e in emits}, indent=2, sort_keys=True)
    blocks = [_emit(e, False, *context) for e in emits]
    if len(emits) == 1:
        return blocks[0]
    return "\n".join(f"# emit: {e}\n{block}" for e, block in zip(emits, blocks))


def main(argv=None) -> int:
    sink = None
    try:
        args = build_parser().parse_args(argv)
        output = cmd_run(args) if args.command == "run" else cmd_spectrum(args)
        if not args.out and sys.stdout is None:
            # a process started with fd 1 closed has no sys.stdout, and print would drop the text
            raise OSError("stdout is closed")
        # flushed under this try, so a full disk or a closed pipe, stdout's too, exits 1
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as sink:
            print(output, file=sink, flush=True)
        return EXIT_OK
    except (InputError, OSError) as exc:
        # OSError: an input path that cannot be read, or an output that cannot be written
        if sink is not None and sink is sys.__stdout__:
            # a failed flush keeps its bytes buffered, and the last flush, entry's or the
            # interpreter's at exit, would fail on them again: send them nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sink.fileno())
        status, error = EXIT_PARSE, exc
    except (pulse.IntegrationError, NormalizationError) as exc:
        status, error = EXIT_NUMERICAL, exc
    except ValueError as exc:
        # pulse.FeasibilityError, what pulse mode cannot build, and invariant
        # violations in user-supplied parameters both mean exit 2
        status, error = EXIT_FEASIBILITY, exc
    print(f"error: {error}", file=sys.stderr)
    return status


def entry():
    """The process entry of ``spinqc`` and ``python -m spinqc.cli``: ``main``, then exit.

    The process ends with ``os._exit`` as soon as its output is flushed,
    which skips interpreter teardown: module clearing and the final
    garbage collections, a sixth of a cold command.  These two flushes
    take over from the shutdown flush; ``main`` has already flushed
    stdout, or sent a failed flush's bytes to ``/dev/null``.  ``main``
    itself returns its status, for in-process callers.
    """
    status = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(status)


if __name__ == "__main__":
    entry()
