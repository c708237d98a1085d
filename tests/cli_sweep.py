"""Byte-identity sweep of the command line.

Calls ``spinqc.cli.main`` in-process on a fixed list of cases and writes
each case's argv, exit code, stdout and stderr to one JSON file.  Run it
in two trees and compare the files::

    PYTHONPATH=src python tests/cli_sweep.py before.json   # in one tree
    PYTHONPATH=src python tests/cli_sweep.py after.json    # in the other
    cmp before.json after.json

The first 290 cases run builtins, each in text and JSON: every builtin in
ideal mode with three emit sets; ``bell-readout`` and ``not2`` in pulse
mode for eight inputs and each emit alone and all six at once; the
spectrum; three usage errors; and two duplicate-emit runs.  Then come two
out-of-range ``qft-<n>`` builtins and one run per circuit file of
:data:`CIRCUIT_FILES`, written to a temporary directory.  Paths appear as
``{system}`` and ``{tmp}``, so the record does not depend on where the
tree or the temporary directory lies.

pytest does not collect this file; ``tests/test_cli.py`` imports it and
checks the exit code of every case.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from spinqc.cli import main

SYSTEM = str(Path(__file__).resolve().parents[1] / "demo_system.cfg")

IDEAL_BUILTINS = ("ghz3", "bell-readout", "not2", *(f"qft-{n}" for n in range(1, 7)))
PULSE_INPUTS = ("++", "+-", "-+", "--", "bell:phi+", "bell:phi-", "bell:psi+", "bell:psi-")
EMITS = ("state", "trace", "unitary", "schedule", "spectrum", "fidelity")
PULSE = ["--mode", "pulse", "--system", "{system}"]

# file name -> circuit text; every file but good.circ is malformed
CIRCUIT_FILES = {
    "good.circ": "# the ghz3 builtin\nqubits 3\nry 3 -pi/4\ncnot 2 3 minus\ncnot 1 2 minus\n",
    "unknown.circ": "qubits 2\nwobble 1\n",
    "no-qubits.circ": "# nothing here\n",
    "late-qubits.circ": "rx 1 pi/2\nqubits 2\n",
    "twice.circ": "qubits 2\nqubits 2\n",
    "count-0.circ": "qubits 0\n",
    "count-11.circ": "qubits 11\n",
    "count-word.circ": "qubits two\n",
    "count-missing.circ": "qubits\n",
    "spin-range.circ": "qubits 2\nrx 3 pi/2\n",
    "spin-0.circ": "qubits 2\nrx 0 pi/2\n",
    "spin-word.circ": "qubits 2\nrx one pi/2\n",
    "rx-usage.circ": "qubits 2\nrx 1\n",
    "angle-pi0.circ": "qubits 2\nrx 1 pi/0\n",
    "angle-word.circ": "qubits 2\nrx 1 two\n",
    "angle-signs.circ": "qubits 2\nrx 1 --1\n",
    "angle-inf.circ": "qubits 2\nrx 1 inf\n",
    "angle-nan.circ": "qubits 2\nry 2 nan\n",
    "angle-huge-k.circ": "qubits 2\nrx 1 pi/1" + "0" * 309 + "\n",
    "cnot-equal.circ": "qubits 2\ncnot 1 1 minus\n",
    "cnot-range.circ": "qubits 2\ncnot 1 3 minus\n",
    "cnot-condition.circ": "qubits 2\ncnot 1 2 down\n",
    "cnot-usage.circ": "qubits 2\ncnot 1 2\n",
    "not-argument.circ": "qubits 2\nnot 1\n",
    "bellread-3.circ": "qubits 3\nbellread\n",
    "qft-7.circ": "qubits 7\nqft\n",
}


def cases() -> list[tuple[list[str], int]]:
    """``(argv, expected exit code)`` per case, in sweep order."""
    builtin = []
    for name in IDEAL_BUILTINS:
        run = ["run", "--builtin", name]
        builtin += [
            (run + ["--emit", "state,trace,unitary"], 0),
            (run + ["--emit", "state,trace,unitary,spectrum", "--system", "{system}"], 0),
            (run + ["--input", "ghz", "--emit", "state,trace"], 0),
        ]
    for name in ("bell-readout", "not2"):
        for spec in PULSE_INPUTS:
            for emit in EMITS + (",".join(EMITS),):
                builtin.append((["run", "--builtin", name, *PULSE, f"--input={spec}",
                                 "--emit", emit], 0))
    builtin += [
        (["spectrum", "--system", "{system}"], 0),
        (["run", "--builtin", "shor"], 1),
        (["run", "--builtin", "ghz3", "--emit", "bogus"], 1),
        (["run", "--builtin", "ghz3", "--emit", "schedule"], 1),
        (["run", "--builtin", "ghz3", "--emit", "state,state"], 0),
        (["run", "--builtin", "bell-readout", *PULSE, "--emit", "fidelity,state,fidelity"], 0),
    ]
    swept = [
        (argv + ["--format", fmt], code) for argv, code in builtin for fmt in ("text", "json")
    ]
    swept += [(["run", "--builtin", "qft-7"], 1), (["run", "--builtin", "qft-0"], 1)]
    swept += [
        (["run", "--circuit", "{tmp}/" + name], 0 if name == "good.circ" else 1)
        for name in CIRCUIT_FILES
    ]
    return swept


def run_case(argv: list[str], tmp: str) -> dict:
    """Exit code (or the uncaught exception), stdout and stderr of one ``main`` call."""
    paths = {"{system}": SYSTEM, "{tmp}": tmp}
    for placeholder, path in paths.items():
        argv = [arg.replace(placeholder, path) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # the process would end in a traceback
            code = f"uncaught {type(exc).__name__}: {exc}"
    record = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    for placeholder, path in paths.items():
        for stream in ("stdout", "stderr"):
            record[stream] = record[stream].replace(path, placeholder)
    return record


def sweep() -> list[dict]:
    """One record per case: its argv with placeholders, then what ``main`` did."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CIRCUIT_FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        return [{"argv": argv, **run_case(argv, tmp)} for argv, _ in cases()]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_sweep.py OUT.json")
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(sweep(), fh, indent=1)
        fh.write("\n")
