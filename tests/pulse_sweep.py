"""Bit-level sweep of the pulse compiler and of whole pulse runs.

Compiles every gate of the ``pulse-compile`` benchmark circuits (seeds
:data:`SEEDS` of ``bench/workloads.pulse_compile``, read from ``bench/``
and not changed) and writes one record per gate to a JSON file: the
``float.hex`` of the pulse's ``carrier``, ``omega_p``, ``tau`` and
``phase`` and of the gate fidelity, the ``purpose``, and a SHA-256 of
the compiled target's bytes and of the both-spins propagator's bytes.
A gate the compiler refuses records its error instead.  The gates of
seed :data:`PINNED_SEED` are also compiled at pinned durations
``tau = KAPPA / dw``, with ``dw`` at 1.001 and 0.999 times each bound of
the gate's selectivity window and at the window's middle
(:func:`pinned_bands`); their keys end in the band's label.  Each op is
also run whole through ``circuit.run_pulse`` from its input, one record
keyed (seed, op, ``"run"``): the input spec, the ``float.hex`` of each gate
fidelity and of the end-to-end fidelity, and a SHA-256 of the final
amplitudes, or the error (:func:`run_record`).  Run it in two trees and
compare the files::

    PYTHONPATH=src python tests/pulse_sweep.py before.json   # in one tree
    PYTHONPATH=src python tests/pulse_sweep.py after.json    # in the other
    python tests/pulse_sweep.py --compare before.json after.json

``--compare`` prints the key (seed, op, step) and the gate of every gate
record, and the key and the circuit of every run record, that differs (a
record that only one file has differs too) and exits 1 if any does, 0 if
none does.  After the keys it prints one summary line: how many gates
moved, how many of each kind (``rx``, ``ry``, ``cnot``, from each record's
gate), how many of them moved a pulse field, the target or the error, how
many moved the fidelity, the largest fidelity change, and how many runs
moved.  It reads only the two files, so it needs no ``PYTHONPATH``.  The
sweep imports only names that every tree holds in the same module
(``compile_gate``, ``pulse_propagator``, ``gate_fidelity``, ``SpinSystem``
and ``KAPPA`` from ``spinqc.pulse``, ``parse_circuit`` and ``run_pulse``
from ``spinqc.circuit``, ``bell_state`` from ``spinqc.gates``,
``basis_state`` from ``spinqc.register``), so one copy of this script runs
on either tree.

pytest does not collect this file; ``tests/test_pulse.py`` imports it and
checks a small sweep.
"""

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (11, 12, 13)
PINNED_SEED = 11
# the fields of a record that the compiler sets: the pulse, its purpose, the target, a refusal
COMPILED = ("carrier", "omega_p", "tau", "phase", "purpose", "target", "error")
KINDS = ("rx", "ry", "cnot")  # the gate kinds of the benchmark circuits


def _sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def gate_record(sys_, gate, tau: float | None = None) -> dict:
    """What the compiler, at ``tau`` if pinned, and the propagator make of one gate, bit for bit."""
    from spinqc import pulse  # here, so that --compare runs where spinqc is not importable

    try:
        p, target = pulse.compile_gate(sys_, gate, tau)
        u = pulse.pulse_propagator(sys_, p, "both-spins")
        fidelity = pulse.gate_fidelity(u, target)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    record = {name: float.hex(getattr(p, name)) for name in ("carrier", "omega_p", "tau", "phase")}
    return {**record, "fidelity": float.hex(fidelity), "purpose": p.purpose,
            "target": _sha256(target), "propagator": _sha256(u)}


def run_record(sys_, circ, spec: str) -> dict:
    """What ``circuit.run_pulse`` makes of a whole circuit from the input ``spec`` (a
    basis label or ``bell:<kind>``), bit for bit: each gate fidelity, the end-to-end
    fidelity and a SHA-256 of the final amplitudes, or the error."""
    from spinqc import circuit, gates, register

    try:
        state = (gates.bell_state(spec[5:]) if spec.startswith("bell:")
                 else register.basis_state(2, spec))
        result = circuit.run_pulse(circ, sys_, state)
    except Exception as exc:
        return {"input": spec, "error": f"{type(exc).__name__}: {exc}"}
    return {"input": spec, "fidelities": [float.hex(f) for f in result.gate_fidelities],
            "end_to_end": float.hex(result.fidelity), "state": _sha256(result.trace.final.amplitudes)}


def pinned_bands(sys_, gate) -> dict[str, float]:
    """Label -> band ``dw`` of each pinned compile of a gate: each window bound times
    1.001 and 0.999, and the window's middle.  A cnot's window has no lower bound."""
    if gate.kind == "cnot":
        bounds = {"upper": 2.0 * sys_.omegac}
    else:
        bounds = {"lower": sys_.omegac, "upper": sys_.omega1 - sys_.omega2 - sys_.omegac}
    bands = {f"{f}*{name}": f * bound for name, bound in bounds.items() for f in (1.001, 0.999)}
    return {**bands, "middle": (bounds.get("lower", 0.0) + bounds["upper"]) / 2.0}


def sweep(seeds=SEEDS, count: int | None = None, pinned_seed: int | None = PINNED_SEED) -> list[dict]:
    """One record per gate of the first ``count`` ops (all by default) of each seed, and
    one per pinned band of each such gate of ``pinned_seed`` (none if it is None); then
    one per op, its whole circuit run from the op's input."""
    from spinqc.circuit import parse_circuit
    from spinqc.pulse import KAPPA, SpinSystem

    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    records = []
    for seed in seeds:
        ops = workloads.pulse_compile(seed)[:count]
        for i, op in enumerate(ops):
            sys_ = SpinSystem(*op["system"])
            circ = parse_circuit(op["text"])
            for k, gate in enumerate(circ.steps):
                records.append({"key": [seed, i, k], "gate": gate.describe(),
                                **gate_record(sys_, gate)})
                if seed != pinned_seed:
                    continue
                for label, dw in pinned_bands(sys_, gate).items():
                    records.append({"key": [seed, i, k, label], "gate": gate.describe(),
                                    **gate_record(sys_, gate, KAPPA / dw)})
            records.append({"key": [seed, i, "run"],
                            "circuit": "; ".join(gate.describe() for gate in circ.steps),
                            **run_record(sys_, circ, op["input"])})
    return records


def _changed(before: list[dict], after: list[dict]) -> list[tuple[tuple, dict, dict]]:
    """``(key, old, new)`` of every record that differs between two sweeps; missing is ``{}``."""
    old, new = ({tuple(r["key"]): r for r in records} for records in (before, after))
    return [(key, old.get(key, {}), new.get(key, {}))
            for key in {**old, **new} if old.get(key) != new.get(key)]


def moved(before: list[dict], after: list[dict]) -> list[str]:
    """``seed op step gate`` of every gate record, and ``seed op run circuit`` of every
    run record, that differs, or is missing, between two sweeps."""
    lines = []
    for key, old, new in _changed(before, after):
        record = old or new
        lines.append(" ".join(map(str, key)) + " " + record.get("gate", record.get("circuit")))
    return lines


def summary(before: list[dict], after: list[dict]) -> str:
    """One line on the moved records: the moved gates of each kind, each kind of gate
    move counted, the largest fidelity change of a gate, and the moved runs."""
    every = _changed(before, after)
    changed = [(key, old, new) for key, old, new in every if key[2] != "run"]
    runs = len(every) - len(changed)
    kinds = [(old or new)["gate"].split()[0] for _, old, new in changed]
    by_kind = ", ".join(f"{kinds.count(kind)} {kind}" for kind in KINDS)
    compiled = sum(any(old.get(name) != new.get(name) for name in COMPILED)
                   for _, old, new in changed)
    fidelities = [(old.get("fidelity"), new.get("fidelity")) for _, old, new in changed
                  if old.get("fidelity") != new.get("fidelity")]
    largest = max((abs(float.fromhex(a) - float.fromhex(b)) for a, b in fidelities if a and b),
                  default=0.0)
    return (f"{len(changed)} gates moved ({by_kind}): {compiled} moved a pulse field, the "
            f"target or the error; {len(fidelities)} moved the fidelity, by at most {largest:.3g}; "
            f"{runs} runs moved")


def main(argv: list[str]) -> int:
    """Write a sweep to ``OUT.json``, or compare two: the exit code of the script."""
    if len(argv) == 3 and argv[0] == "--compare":
        records = [json.loads(Path(path).read_text(encoding="utf-8")) for path in argv[1:]]
        changed = moved(*records)
        for line in changed:
            print(line)
        if changed:
            print(summary(*records))
        return 1 if changed else 0
    if len(argv) != 1:
        sys.exit("usage: python tests/pulse_sweep.py OUT.json | --compare BEFORE.json AFTER.json")
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(sweep(), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
