"""Byte-identity sweep of the command line.

Calls ``spinqc.cli.main`` in-process on a fixed list of cases and writes
each case's argv, exit code, stdout and stderr, and what ``--out`` wrote,
to one JSON file.  Run it in two trees and compare the files::

    PYTHONPATH=src python tests/cli_sweep.py before.json   # in one tree
    PYTHONPATH=src python tests/cli_sweep.py after.json    # in the other
    python tests/cli_sweep.py --compare before.json after.json

``--compare`` prints the argv of every case whose exit code, stdout,
stderr or written file differs (a case that only one record has differs
too) and exits 1 if any does, 0 if none does.  It reads only the two
records, so it needs no ``PYTHONPATH``.

The first 290 cases run builtins, each in text and JSON: every builtin in
ideal mode with three emit sets; ``bell-readout`` and ``not2`` in pulse
mode for eight inputs and each emit alone and all six at once; the
spectrum; three usage errors; and two duplicate-emit runs.  Then come six
``qft-<n>`` builtins, two beyond six spins and four refused, one run per
circuit file of :data:`CIRCUIT_FILES`, written to a temporary directory,
the runs of :data:`FILE_RUNS`, which read the circuit and system files of
:data:`INPUT_FILES` or write with ``--out`` and between them reach every
exit branch of ``cli.main`` and every parse error and refusal of a system
file, and the command lines of :data:`COMMAND_ERRORS`.  Paths appear as
``{system}`` and ``{tmp}``, so the record does not depend on where the
tree or the temporary directory lies.

pytest does not collect this file; ``tests/test_cli.py`` imports it and
checks the exit code of every case.
"""

import contextlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

SYSTEM = str(Path(__file__).resolve().parents[1] / "demo_system.cfg")

IDEAL_BUILTINS = ("ghz3", "bell-readout", "not2", *(f"qft-{n}" for n in range(1, 7)))
PULSE_INPUTS = ("++", "+-", "-+", "--", "bell:phi+", "bell:phi-", "bell:psi+", "bell:psi-")
EMITS = ("state", "trace", "unitary", "schedule", "spectrum", "fidelity")
PULSE = ["--mode", "pulse", "--system", "{system}"]

# file name -> circuit text; every file but those of WELL_FORMED is malformed
CIRCUIT_FILES = {
    "good.circ": "# the ghz3 builtin\nqubits 3\nry 3 -pi/4\ncnot 2 3 minus\ncnot 1 2 minus\n",
    "pi.circ": "qubits 2\nrx 1 pi\nry 2 -pi\nrx 2 +pi/2\n",
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
    # numbers that int() or float() alone would read: an underscore, non-ASCII digits
    "count-underscore.circ": "qubits 1_0\n",
    "spin-digit.circ": "qubits 2\nrx \u0661 0.5\n",  # an Arabic-Indic one
    "angle-underscore.circ": "qubits 2\nrx 1 pi/2_0\n",
    "angle-fullwidth.circ": "qubits 2\nrx 1 \uff11\n",  # a fullwidth one
    # integers that int() alone would read: a sign, a leading zero
    "count-sign.circ": "qubits +2\n",
    "spin-sign.circ": "qubits 2\nrx +1 0.5\n",
    "target-zero.circ": "qubits 2\ncnot 01 2 plus\n",
    "angle-k-sign.circ": "qubits 2\nrx 1 pi/+4\n",
}
WELL_FORMED = ("good.circ", "pi.circ", "qft-7.circ")

# file name -> text of the circuit and system files that FILE_RUNS reads
DEMO = Path(SYSTEM).read_text(encoding="utf-8")
INPUT_FILES = {
    "bom.circ": "\ufeffqubits 2\nrx 1 pi/2\n",  # written as UTF-8, so EF BB BF first
    "rz.circ": "qubits 2\nrz 1 pi/4\n",
    "qft.circ": "qubits 2\nqft\n",
    "wide.circ": "qubits 7\nrx 1 pi/2\n",
    "bom.cfg": "\ufeff" + DEMO,
    "swapped.cfg": "omega0 = 3000\nomega1 = 5\nomega2 = 25\nomegac = 1\n",
    # spins far apart on a weak coupling: a conditional flip's phase outgrows the guard
    "harsh.cfg": "omega0 = 1e10\nomega1 = 1e7\nomega2 = 5e6\nomegac = 1\n",
    "cnot-rx.circ": "qubits 2\ncnot 1 2 minus\nrx 1 pi/2\n",
    "useless.cfg": DEMO + "kappa = 1e-100\n",  # kappa is no key: the band is pulse.KAPPA / tau
    # doubles near 1e18 lie 128 rad/s apart: wider than a flip's band, not a rotation's
    "coarse.cfg": "omega0 = 1e18\nomega1 = 1e5\nomega2 = 5e4\nomegac = 1e3\n",
    # doubles near 2.93e17 lie 64 rad/s apart: a flip's line rounded at the scale
    # of 2 omega0 sat 56 rad/s off, nearly half its 125 rad/s band
    "ulp64.cfg": "omega0 = 2.9285714285714285e17\nomega1 = 1e5\nomega2 = 5e4\nomegac = 1e3\n",
    "cnot-plus.circ": "qubits 2\ncnot 1 2 plus\n",
    # omegac * (omega1 - omega2 - omegac) overflows a double, but a rotation's default
    # band, the geometric mean of the two, must not
    "far.cfg": "omega0 = 1e158\nomega1 = 6e155\nomega2 = 1e155\nomegac = 1e155\n",
    # a coupling whose flip band underflows to 0.0, and one whose flip would outlast a double
    "subnormal.cfg": "omega0 = 1.0\nomega1 = 0.5\nomega2 = 0.1\nomegac = 5e-324\n",
    "tiny.cfg": "omega0 = 1e-305\nomega1 = 5e-306\nomega2 = 1e-306\nomegac = 1e-308\n",
    # the gate kinds that no builtin holds, and two that pulse mode refuses
    "kinds.circ": "qubits 2\nrz 1 pi/3\nnot\nbellread\n",
    "not.circ": "qubits 2\nnot\n",
    "bellread.circ": "qubits 2\nbellread\n",
    # a zero, a negative, a half-turn, a negative half-turn and an above-pi angle:
    # every branch of the fold from gate angle to pulse angle and drive phase
    "fold.circ": "qubits 2\nrx 1 0\nry 2 -pi/4\nrx 2 pi\nry 1 -pi\nrx 1 4.0\n",
    # a turn whose amplitude on -+ is 1.2e-12 i, then a phase that splits it into two parts
    # below the print threshold: the row goes, it does not read 0 0
    "tiny.circ": "qubits 2\nrx 1 1.2e-12\nrz 1 pi/4\n",
    # one file per parse error of a system file
    "no-equals.cfg": "omega0 3000\n",
    "unknown-key.cfg": DEMO + "omega3 = 1\n",
    "duplicate-key.cfg": DEMO + "omegac = 2\n",
    "not-number.cfg": DEMO.replace("omegac = 6.283185307179586", "omegac = fast"),
    "underscore.cfg": DEMO.replace("omega0 = 3141.592653589793", "omega0 = 3_141.592653589793"),
    "missing-keys.cfg": "omega0 = 3000\nomega2 = 5\n",
    # one file per refusal of SpinSystem beyond swapped.cfg's
    "nan.cfg": "omega0 = nan\nomega1 = 25\nomega2 = 5\nomegac = 1\n",
    "zero.cfg": "omega0 = 0\nomega1 = 25\nomega2 = 5\nomegac = 1\n",
    "negative-coupling.cfg": "omega0 = 3000\nomega1 = 25\nomega2 = 5\nomegac = -1\n",
    "strong.cfg": "omega0 = 3000\nomega1 = 25\nomega2 = 5\nomegac = 40\n",
    "margin.cfg": "omega0 = 3000\nomega1 = 25\nomega2 = 5\nomegac = 6\n",
    # every number a double, but not the highest line, nor omega1 + omega2 + omegac
    "line-overflow.cfg": "omega0 = 1.7e308\nomega1 = 1e307\nomega2 = 1e306\nomegac = 1e305\n",
    "sum-overflow.cfg": "omega0 = 1e308\nomega1 = 1.7e308\nomega2 = 1.6e308\nomegac = 1e305\n",
}

# (argv, exit code) of the runs that read INPUT_FILES or write with --out
FILE_RUNS = (
    (["run", "--circuit", "{tmp}/bom.circ"], 0),
    (["spectrum", "--system", "{tmp}/bom.cfg"], 0),
    (["run", "--circuit", "{tmp}/rz.circ", *PULSE], 2),
    (["run", "--circuit", "{tmp}/qft.circ", *PULSE], 2),
    (["run", "--builtin", "ghz3", *PULSE], 2),
    *((["spectrum", "--system", "{tmp}/" + name], 2) for name in (
        "swapped.cfg", "nan.cfg", "zero.cfg", "negative-coupling.cfg", "strong.cfg",
        "margin.cfg", "line-overflow.cfg", "sum-overflow.cfg")),
    *((["spectrum", "--system", "{tmp}/" + name], 1) for name in (
        "no-equals.cfg", "unknown-key.cfg", "duplicate-key.cfg", "not-number.cfg",
        "underscore.cfg", "missing-keys.cfg")),
    (["run", "--builtin", "bell-readout", "--mode", "pulse", "--system", "{tmp}/harsh.cfg"], 3),
    (["run", "--circuit", "{tmp}/cnot-rx.circ", "--mode", "pulse", "--system",
      "{tmp}/useless.cfg", "--emit", "fidelity"], 1),
    (["run", "--builtin", "bell-readout", "--mode", "pulse", "--system", "{tmp}/coarse.cfg",
      "--emit", "fidelity"], 2),
    (["run", "--builtin", "not2", "--mode", "pulse", "--system", "{tmp}/coarse.cfg",
      "--emit", "fidelity"], 0),
    (["run", "--circuit", "{tmp}/cnot-plus.circ", "--mode", "pulse", "--system",
      "{tmp}/ulp64.cfg", "--emit", "fidelity,schedule"], 0),
    (["run", "--builtin", "not2", "--mode", "pulse", "--system", "{tmp}/far.cfg",
      "--emit", "fidelity,schedule"], 0),
    *((["run", "--builtin", "bell-readout", "--mode", "pulse", "--system", "{tmp}/" + name,
        "--emit", "fidelity"], 2) for name in ("subnormal.cfg", "tiny.cfg")),
    *((["run", "--circuit", "{tmp}/kinds.circ", "--emit", "state,trace,unitary",
        "--format", fmt], 0) for fmt in ("text", "json")),
    *((["run", "--circuit", "{tmp}/" + name, *PULSE], 2) for name in ("not.circ", "bellread.circ")),
    *((["run", "--circuit", "{tmp}/fold.circ", *PULSE, "--emit", "schedule,fidelity,trace",
        "--format", fmt], 0) for fmt in ("text", "json")),
    *((["run", "--circuit", "{tmp}/tiny.circ", "--emit", "state,trace", "--format", fmt], 0)
      for fmt in ("text", "json")),
    (["run", "--builtin", "ghz3", "--emit", "state,trace", "--out", "{tmp}/out.txt"], 0),
    (["spectrum", "--system", "{system}", "--format", "json", "--out", "{tmp}/out.txt"], 0),
    (["run", "--builtin", "ghz3", "--out", "{tmp}"], 1),
    (["run", "--circuit", "{tmp}/wide.circ", "--emit", "unitary"], 1),
)

# argv refused before any circuit runs; each exits 1 with one error line
COMMAND_ERRORS = (
    [],  # no command
    ["run"],  # no circuit source
    ["run", "--builtin", "ghz3", "--mode", "bogus"],
    ["run", "--builtin", "ghz3", "--frobnicate"],
    ["run", "--builtin", "bell-readout", "--input", "+-+"],
    ["run", "--builtin", "ghz3", "--emit", ","],
    ["run", "--builtin", "ghz3", "--emit", "spectrum"],
    ["run", "--builtin", "bell-readout", "--input", "bell:xyz"],
    ["run", "--builtin", "not2", "--mode", "pulse"],
    ["run", "--builtin", "ghz3", "--input=bell:phi+"],
    ["run", "--builtin", "bell-readout", "--input", "+x"],
)


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
    swept += [(["run", "--builtin", name], 0 if name in ("qft-7", "qft-10") else 1)
              for name in ("qft-7", "qft-10", "qft-0", "qft-11", "qft-\u0661", "qft- 1")]
    swept += [
        (["run", "--circuit", "{tmp}/" + name], 0 if name in WELL_FORMED else 1)
        for name in CIRCUIT_FILES
    ]
    swept += FILE_RUNS
    swept += [(argv, 1) for argv in COMMAND_ERRORS]
    return swept


def run_case(argv: list[str], tmp: str) -> dict:
    """Exit code (or the uncaught exception), stdout and stderr of one ``cli.main`` call."""
    from spinqc import cli  # here, so that --compare runs where spinqc is not importable

    paths = {"{system}": SYSTEM, "{tmp}": tmp}
    for placeholder, path in paths.items():
        argv = [arg.replace(placeholder, path) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # the process would end in a traceback
            code = f"uncaught {type(exc).__name__}: {exc}"
    record = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    written = Path(tmp, "out.txt")
    if written.exists():  # what --out wrote, as if it were stdout
        record["out_file"] = written.read_text(encoding="utf-8")
        written.unlink()
    for placeholder, path in paths.items():
        for stream in record.keys() - {"exit"}:
            record[stream] = record[stream].replace(path, placeholder)
    return record


def sweep() -> list[dict]:
    """One record per case: its argv with placeholders, then what ``cli.main`` did."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {**CIRCUIT_FILES, **INPUT_FILES}.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        return [{"argv": argv, **run_case(argv, tmp)} for argv, _ in cases()]


def moved(before: list[dict], after: list[dict]) -> list[list[str]]:
    """The argv of every case whose record differs, or is missing, between two sweeps."""
    old, new = ({tuple(r["argv"]): r for r in records} for records in (before, after))
    return [list(argv) for argv in {**old, **new} if old.get(argv) != new.get(argv)]


def main(argv: list[str]) -> int:
    """Write a sweep to ``OUT.json``, or compare two: the exit code of the script."""
    if len(argv) == 3 and argv[0] == "--compare":
        changed = moved(*(json.loads(Path(path).read_text(encoding="utf-8")) for path in argv[1:]))
        for case in changed:
            print(shlex.join(case))
        return 1 if changed else 0
    if len(argv) != 1:
        sys.exit("usage: python tests/cli_sweep.py OUT.json | --compare BEFORE.json AFTER.json")
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(sweep(), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
