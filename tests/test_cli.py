import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import BUILTIN_FILES

from spinqc import circuit as circuit_mod
from spinqc import cli, pulse
from spinqc.circuit import builtin_circuit, run_pulse
from spinqc.cli import _InputSpecAction, build_parser, main, parse_input_spec
from spinqc.pulse import load_system_config
from spinqc.register import InputError, NormalizationError

ROOT = Path(__file__).resolve().parents[1]

DEMO_CFG = (
    "omega0 = 3141.592653589793\n"
    "omega1 = 157.07963267948966\n"
    "omega2 = 31.41592653589793\n"
    "omegac = 6.283185307179586\n"
)


@pytest.fixture
def demo_cfg(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(DEMO_CFG)
    return str(path)


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def spawn_cli(argv, env=os.environ, **kwargs):
    """The form a shell runs: a fresh interpreter importing spinqc from src/."""
    env = {**env, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "spinqc.cli", *argv],
                          env=env, text=True, timeout=60, **kwargs)


def test_ghz_state_lines(capsys):
    status, out, _ = run_cli(capsys, "run", "--builtin", "ghz3", "--emit", "state")
    assert status == 0
    assert out.splitlines() == [
        "+++ 000 0 0.7071067812 0",
        "--- 111 7 0.7071067812 0",
    ]


def test_qft2_unitary_entries(capsys):
    status, out, _ = run_cli(
        capsys, "run", "--builtin", "qft-2", "--emit", "unitary", "--format", "json"
    )
    assert status == 0
    payload = json.loads(out)
    expected = (
        np.array([[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]) / 2
    )
    got = np.array([[complex(re, im) for re, im in row] for row in payload["unitary"]])
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_malformed_circuit_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.circ"
    bad.write_text("qubits 2\nwobble 1\n")
    status, _, err = run_cli(capsys, "run", "--circuit", str(bad))
    assert status == 1
    assert "wobble" in err


def test_unknown_builtin_exits_1(capsys):
    status, _, err = run_cli(capsys, "run", "--builtin", "shor")
    assert status == 1


def test_unknown_emit_exits_1(capsys):
    status, _, err = run_cli(capsys, "run", "--builtin", "ghz3", "--emit", "bogus")
    assert status == 1
    assert "bogus" in err


def test_pulse_mode_requires_a_system(capsys):
    status, _, err = run_cli(capsys, "run", "--builtin", "not2", "--mode", "pulse")
    assert status == 1
    assert "--system" in err


def test_schedule_emit_requires_pulse_mode(capsys):
    status, _, err = run_cli(capsys, "run", "--builtin", "not2", "--emit", "schedule")
    assert status == 1


def test_spectrum_command_output(capsys, demo_cfg):
    status, out, _ = run_cli(capsys, "spectrum", "--system", demo_cfg)
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 4
    omegas = [float(line.split()[0].split("=")[1]) for line in lines]
    assert omegas == sorted(omegas)
    assert lines[0].endswith("flips=2 spectator=-")
    assert lines[2] == "omega=3292.389101 from=+- to=-- flips=1 spectator=-"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_spectrum_command_prints_what_the_spectrum_emit_prints(capsys, demo_cfg, fmt):
    spectrum = run_cli(capsys, "spectrum", "--system", demo_cfg, "--format", fmt)
    emitted = run_cli(capsys, "run", "--builtin", "not2", "--system", demo_cfg,
                      "--emit", "spectrum", "--format", fmt)
    assert spectrum == emitted
    assert spectrum[0] == 0 and spectrum[1].count("omega") == 4


def test_spectrum_rejects_zero_coupling(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega0=1000\nomega1=25\nomega2=5\nomegac=0\n")
    status, _, err = run_cli(capsys, "spectrum", "--system", str(cfg))
    assert status == 2
    assert "omegac" in err


def test_spectrum_rejects_narrow_separation(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega0=10000\nomega1=8\nomega2=5\nomegac=1\n")
    status, _, err = run_cli(capsys, "spectrum", "--system", str(cfg))
    assert status == 2
    assert "condition 1" in err


def test_spectrum_rejects_malformed_config(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega0: 1000\n")
    status, _, err = run_cli(capsys, "spectrum", "--system", str(cfg))
    assert status == 1
    # the bandwidth constant is pulse.KAPPA, so a system file has exactly four keys
    cfg.write_text(DEMO_CFG + "kappa = 2.5\n")
    assert run_cli(capsys, "spectrum", "--system", str(cfg)) == (
        1, "", "error: line 5: unknown key 'kappa'\n")


def test_text_and_json_carry_identical_values(capsys):
    _, text_out, _ = run_cli(capsys, "run", "--builtin", "ghz3", "--emit", "state")
    _, json_out, _ = run_cli(
        capsys, "run", "--builtin", "ghz3", "--emit", "state", "--format", "json"
    )
    rows = json.loads(json_out)["state"]
    text_rows = [line.split() for line in text_out.splitlines()]
    assert len(rows) == len(text_rows)
    for json_row, text_row in zip(rows, text_rows):
        assert json_row[0] == text_row[0] and json_row[1] == text_row[1]
        assert json_row[2] == int(text_row[2])
        assert abs(json_row[3] - float(text_row[3])) <= 1e-12
        assert abs(json_row[4] - float(text_row[4])) <= 1e-12


def _parse_state(lines):
    return [[signs, bits, int(value), float(re), float(im)]
            for signs, bits, value, re, im in (line.split() for line in lines)]


def _parse_trace(lines):
    steps = []
    for line in lines:
        if line.startswith("step "):
            _, k, gate = line.split(" ", 2)
            steps.append({"step": int(k), "gate": gate, "state": []})
        else:
            steps[-1]["state"] += _parse_state([line])
    return {"steps": steps}


def _parse_unitary(lines):
    return [[[float(x) for x in cell.split(",")] for cell in line.split()] for line in lines]


def _parse_value(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse_keyed(lines):
    return [{k: _parse_value(v) for k, v in (f.split("=", 1) for f in line.split())}
            for line in lines]


def _parse_fidelity(lines):
    per_gate = []
    for line in lines[:-1]:
        head, fidelity = line.rsplit(" fidelity=", 1)
        per_gate.append({"gate": head.split(" ", 2)[2], "fidelity": float(fidelity)})
    return {"per_gate": per_gate, "end_to_end": float(lines[-1].removeprefix("end_to_end="))}


TEXT_PARSERS = {
    "trace": _parse_trace,
    "unitary": _parse_unitary,
    "schedule": _parse_keyed,
    "spectrum": _parse_keyed,
    "fidelity": _parse_fidelity,
}
PULSE_RUN = ("run", "--builtin", "bell-readout", "--mode", "pulse", "--emit")


@pytest.mark.parametrize(
    "argv, key",
    [pytest.param(PULSE_RUN + (e,), e, id=e) for e in TEXT_PARSERS]
    + [pytest.param(("spectrum",), "spectrum", id="spectrum-command")],
)
def test_every_emit_text_parses_back_to_its_json_values(capsys, demo_cfg, argv, key):
    argv = argv + ("--system", demo_cfg)
    _, text_out, _ = run_cli(capsys, *argv)
    _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    # text is formatted from the rounded JSON values, so they parse back exactly
    assert TEXT_PARSERS[key](text_out.splitlines()) == json.loads(json_out)[key]


def test_repeated_emit_names_are_emitted_once(capsys):
    run = ("run", "--builtin", "ghz3", "--emit")
    _, text_out, _ = run_cli(capsys, *run, "trace,state,trace")
    _, json_out, _ = run_cli(capsys, *run, "trace,state,trace", "--format", "json")
    headers = [line for line in text_out.splitlines() if line.startswith("# emit: ")]
    assert headers == ["# emit: trace", "# emit: state"]
    assert sorted(json.loads(json_out)) == ["state", "trace"]
    _, twice, _ = run_cli(capsys, *run, "state,state")
    _, once, _ = run_cli(capsys, *run, "state")
    assert twice == once


def test_repeated_runs_are_bit_identical(capsys, demo_cfg):
    argv = (
        "run", "--builtin", "bell-readout", "--mode", "pulse", "--system", demo_cfg,
        "--input", "bell:psi+", "--emit", "state,schedule,fidelity,trace",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_output_file_writing(capsys, tmp_path):
    out_path = tmp_path / "result.txt"
    status, out, _ = run_cli(
        capsys, "run", "--builtin", "ghz3", "--emit", "state", "--out", str(out_path)
    )
    assert status == 0 and out == ""
    assert out_path.read_text().splitlines()[0] == "+++ 000 0 0.7071067812 0"


def test_input_label_selection(capsys):
    status, out, _ = run_cli(
        capsys, "run", "--builtin", "not2", "--input", "+-", "--emit", "state"
    )
    assert status == 0
    # both spins flip; the recorded global phase stays out of the state print
    assert out.splitlines() == ["-+ 10 1 -1 0"]


def test_all_minus_label_given_with_equals_sign(capsys):
    # argparse hands "--input=--" over as an empty list; it must read as "--"
    status, out, _ = run_cli(capsys, "run", "--builtin", "not2", "--input=--", "--emit", "state")
    _, bits_out, _ = run_cli(capsys, "run", "--builtin", "not2", "--input=11", "--emit", "state")
    assert status == 0
    assert out == bits_out
    assert out.splitlines() == ["++ 00 0 -1 0"]


@pytest.mark.parametrize("spec", ["-+", "bell:psi+", "bell:psi-"])
def test_pulse_bell_readout_stays_normalized(capsys, demo_cfg, spec):
    # a propagator drifting off unitarity by ~3e-9 made these runs fail the
    # 1e-9 normalization check and exit 3
    state = parse_input_spec(spec, 2)
    result = run_pulse(builtin_circuit("bell-readout"), load_system_config(demo_cfg), state)
    assert abs(np.sum(np.abs(result.trace.final.amplitudes) ** 2) - 1.0) <= 1e-12
    status, _, err = run_cli(
        capsys, "run", "--builtin", "bell-readout", "--mode", "pulse", "--system", demo_cfg,
        f"--input={spec}", "--emit", "state,fidelity",
    )
    assert status == 0, err


def test_input_ghz_shorthand(capsys):
    status, out, _ = run_cli(
        capsys, "run", "--builtin", "qft-2", "--input", "ghz", "--emit", "state"
    )
    assert status == 0


def test_input_bell_shorthand_needs_two_spins(capsys):
    status, _, err = run_cli(capsys, "run", "--builtin", "ghz3", "--input", "bell:phi+")
    assert status == 1


def test_bad_input_label_exits_1(capsys):
    status, _, err = run_cli(capsys, "run", "--builtin", "ghz3", "--input", "+2-")
    assert status == 1


def test_wrong_size_input_label_exits_1_with_the_register_rule(capsys):
    status, out, err = run_cli(capsys, "run", "--builtin", "bell-readout", "--input", "+-+")
    assert (status, out) == (1, "")
    assert err == "error: bad input spec: label has 3 spins, register has 2\n"


@pytest.mark.parametrize("values", [[], "--"])
def test_input_action_stores_the_all_minus_label_either_way(values):
    # Python 3.10-3.12 hand "--input=--" over as [], 3.13 as "--"
    namespace = argparse.Namespace()
    _InputSpecAction(["--input"], "input_spec")(build_parser(), namespace, values, "--input")
    assert namespace.input_spec == "--"


def test_pulse_run_emits_schedule_and_fidelity(capsys, demo_cfg):
    status, out, _ = run_cli(
        capsys, "run", "--builtin", "not2", "--mode", "pulse", "--system", demo_cfg,
        "--emit", "schedule,fidelity", "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert len(payload["schedule"]) == 2
    assert all(p["purpose"].startswith("rx:") for p in payload["schedule"])
    assert payload["fidelity"]["end_to_end"] > 0.9


def test_pulse_run_rejects_rz_with_exit_2(capsys, tmp_path, demo_cfg):
    circ = tmp_path / "rz.circ"
    circ.write_text("qubits 2\nrz 1 pi/4\n")
    status, _, err = run_cli(
        capsys, "run", "--circuit", str(circ), "--mode", "pulse", "--system", demo_cfg
    )
    assert status == 2
    assert "rz" in err


def test_missing_circuit_file_exits_1(capsys):
    status, _, err = run_cli(capsys, "run", "--circuit", "/nonexistent/file.circ")
    assert status == 1


def test_unreadable_input_paths_exit_1_with_an_error_line(capsys, tmp_path, demo_cfg):
    # a directory where a file is expected fails the read, not the program
    for argv in (
        ("run", "--circuit", str(tmp_path)),
        ("run", "--builtin", "not2", "--mode", "pulse", "--system", str(tmp_path)),
        ("spectrum", "--system", str(tmp_path)),
    ):
        status, out, err = run_cli(capsys, *argv)
        assert status == 1 and out == ""
        assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("encoding", ["random-bytes", "utf-16"])
def test_undecodable_input_files_exit_1_naming_the_path(capsys, tmp_path, encoding):
    # a file that is not UTF-8 text is a file error, not a feasibility error
    if encoding == "random-bytes":
        data = np.random.default_rng(7).integers(0, 256, size=64, dtype=np.uint8).tobytes()
        circuit_bytes = config_bytes = data
    else:
        circuit_bytes = "qubits 2\nrx 1 pi/2\n".encode("utf-16")
        config_bytes = DEMO_CFG.encode("utf-16")
    with pytest.raises(UnicodeDecodeError):
        config_bytes.decode("utf-8")
    circ, cfg = tmp_path / "bad.circ", tmp_path / "bad.cfg"
    circ.write_bytes(circuit_bytes)
    cfg.write_bytes(config_bytes)
    for path, argv in (
        (circ, ("run", "--circuit", str(circ))),
        (cfg, ("spectrum", "--system", str(cfg))),
        (cfg, ("run", "--builtin", "not2", "--mode", "pulse", "--system", str(cfg))),
    ):
        status, out, err = run_cli(capsys, *argv)
        assert status == 1 and out == ""
        assert err.startswith(f"error: {path}: ") and "can't decode" in err
        assert err.count("\n") == 1


def test_unwritable_out_path_exits_1_with_an_error_line(capsys, tmp_path):
    for target in (tmp_path / "missing" / "x.txt", tmp_path):
        status, out, err = run_cli(capsys, "run", "--builtin", "ghz3", "--out", str(target))
        assert status == 1 and out == ""
        assert err.startswith("error: ") and str(target) in err
    assert not (tmp_path / "missing").exists()


# PYTHONUNBUFFERED would leave no bytes buffered after a failed write; without it
# stdout is block-buffered into a file or a pipe, as in a shell, and a failed flush
# keeps its bytes for the flush at interpreter exit, which must not fail on them again
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def assert_one_write_error_line(done):
    assert done.returncode == 1
    # one line: no traceback, and no "Exception ignored" from the shutdown flush
    assert re.fullmatch(r"error: \[Errno \d+\] [^\n]*\n", done.stderr), done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_stdout_on_a_full_device_exits_1_with_an_error_line():
    with open("/dev/full", "w") as full:
        done = spawn_cli(["run", "--builtin", "ghz3"], env=BUFFERED_ENV,
                         stdout=full, stderr=subprocess.PIPE)
    assert_one_write_error_line(done)


def test_a_stdout_pipe_with_no_reader_exits_1_with_an_error_line():
    # ghz3's few lines stay in stdout's buffer after the failed flush; qft-8's
    # trace is larger than the buffer and is written past it
    for argv in (["run", "--builtin", "ghz3"], ["run", "--builtin", "qft-8", "--emit", "trace"]):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            done = spawn_cli(argv, env=BUFFERED_ENV, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert_one_write_error_line(done)


def spawn_cli_with_stdout_closed(argv):
    """The form ``spinqc ... >&-`` runs in a shell: the child starts with fd 1 closed."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "spinqc.cli",
                           *argv], env=env, stderr=subprocess.PIPE, text=True, timeout=60)


def test_an_input_error_with_stdout_closed_exits_1_with_an_error_line():
    # no stdout at all: sys.stdout and sys.__stdout__ are None, and the refusal
    # must not reach for a stdout descriptor
    done = spawn_cli_with_stdout_closed(["run", "--builtin", "nope"])
    assert done.returncode == 1
    assert done.stderr == "error: unknown builtin circuit 'nope'\n"


def test_output_with_stdout_closed_exits_1_unless_it_goes_to_a_file(capsys, tmp_path):
    # with fd 1 closed at start sys.stdout is None, and print(..., file=None) would
    # drop the text and exit 0; --out needs no stdout
    argv = ["spectrum", "--system", str(ROOT / "demo_system.cfg")]
    done = spawn_cli_with_stdout_closed(argv)
    assert done.returncode == 1
    assert re.fullmatch(r"error: [^\n]*\n", done.stderr), done.stderr
    assert "Traceback" not in done.stderr
    out = tmp_path / "x"
    done = spawn_cli_with_stdout_closed([*argv, "--out", str(out)])
    assert (done.returncode, done.stderr) == (0, "")
    assert run_cli(capsys, *argv) == (0, out.read_text(encoding="utf-8"), "")


def test_non_convergent_integration_exits_3(capsys, tmp_path):
    # spins 5e6 rad/s apart on a coupling of 1: the conditional flip's pulse lasts
    # 25 s, and its accumulated phase is too large for the rounding estimate
    cfg = tmp_path / "harsh.cfg"
    cfg.write_text("omega0 = 1e10\nomega1 = 1e7\nomega2 = 5e6\nomegac = 1\n")
    status, out, err = run_cli(capsys, "run", "--builtin", "bell-readout", "--mode", "pulse",
                               "--system", str(cfg))
    assert status == 3 and out == ""
    assert re.fullmatch(r"error: propagator rounding estimate max\|H_c\|\*tau\*eps = 1\.4e-08 "
                        r"on a phase of 6\.28e\+07 rad exceeds the tolerance 1e-08 "
                        r"\(check the pulse parameters\)\n", err)
    # rotations are short, so the same system runs them
    status, _, err = run_cli(capsys, "run", "--builtin", "not2", "--mode", "pulse",
                             "--system", str(cfg))
    assert status == 0, err


def test_a_gate_below_the_fidelity_floor_exits_2(capsys, tmp_path, monkeypatch, demo_cfg):
    # a floor above the conditional flip's 0.99938 on the demo system
    monkeypatch.setattr(circuit_mod, "FIDELITY_FLOOR", 0.9995)
    circ = tmp_path / "cnot-rx.circ"
    circ.write_text("qubits 2\ncnot 1 2 minus\nrx 1 pi/2\n")
    status, out, err = run_cli(capsys, "run", "--circuit", str(circ), "--mode", "pulse",
                               "--system", demo_cfg, "--emit", "fidelity")
    assert status == 2 and out == ""
    assert err == "error: gate 1 (cnot 1 2 minus): fidelity 0.999 is below the floor 0.9995\n"


# the class main catches -> its exit code; InputError and NormalizationError are both
# ValueErrors, so a clause moved below the bare ValueError one would map them to 2
ERROR_EXITS = {
    "InputError": (InputError, 1),
    "OSError": (OSError, 1),
    "IntegrationError": (pulse.IntegrationError, 3),
    "NormalizationError": (NormalizationError, 3),
    "FeasibilityError": (pulse.FeasibilityError, 2),
    "ValueError": (ValueError, 2),
}


@pytest.mark.parametrize("error, code", ERROR_EXITS.values(), ids=ERROR_EXITS.keys())
def test_each_error_class_ends_in_its_exit_code(capsys, monkeypatch, error, code):
    def refuse(args):
        raise error("the message")

    monkeypatch.setattr(cli, "cmd_run", refuse)
    assert run_cli(capsys, "run", "--builtin", "ghz3") == (code, "", "error: the message\n")


# a Larmor scale at which adjacent doubles lie 128 rad/s apart
COARSE_CFG = "omega0 = 1e18\nomega1 = 1e5\nomega2 = 5e4\nomegac = 1e3\n"


def test_a_carrier_finer_than_a_double_exits_2(capsys, tmp_path):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(COARSE_CFG)
    status, out, err = run_cli(capsys, "run", "--builtin", "bell-readout", "--mode", "pulse",
                               "--system", str(cfg), "--emit", "fidelity")
    assert status == 2 and out == ""
    # the conditional flip's band is 2 * omegac / 16 = 125 rad/s wide
    assert re.fullmatch(r"error: carrier 1\.0\d+e\+18 has a resolution of 128\.0 in double "
                        r"precision, not below the bandwidth 124\.99\d+\n", err)
    # a rotation's band, 7000 rad/s, is wide enough
    status, out, err = run_cli(capsys, "run", "--builtin", "not2", "--mode", "pulse",
                               "--system", str(cfg), "--emit", "fidelity")
    assert status == 0, err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", list(BUILTIN_FILES))
def test_a_named_builtin_prints_what_its_circuit_file_prints(capsys, tmp_path, name, fmt):
    circ = tmp_path / f"{name}.circ"
    circ.write_text(BUILTIN_FILES[name])
    emit = ["--emit", "state,trace,unitary", "--format", fmt]
    builtin = run_cli(capsys, "run", "--builtin", name, *emit)
    assert builtin[0] == 0
    assert run_cli(capsys, "run", "--circuit", str(circ), *emit) == builtin


def test_unitary_emit_is_capped_at_six_spins(capsys, tmp_path):
    circ = tmp_path / "wide.circ"
    circ.write_text("qubits 7\nrx 1 pi/2\n")
    status, _, err = run_cli(capsys, "run", "--circuit", str(circ), "--emit", "unitary")
    assert status == 1
    assert "unitary" in err
    # the same circuit runs fine when only the state is requested
    status, out, _ = run_cli(capsys, "run", "--circuit", str(circ), "--emit", "state")
    assert status == 0


def test_every_cli_sweep_case_ends_in_its_exit_code():
    # exit codes, unlike the last digits of the output, hold on every platform
    from cli_sweep import cases, sweep

    records = sweep()
    assert [record["exit"] for record in records] == [code for _, code in cases()]
    for record in records:
        # a refused run writes one error line and nothing else
        if record["exit"] != 0:
            assert re.fullmatch(r"error: [^\n]+\n", record["stderr"]), record
            assert record["stdout"] == "", record


def test_cli_sweep_compare_names_every_moved_case(tmp_path, capsys):
    from cli_sweep import main as sweep_main

    def record(argv, exit=0, stdout="", stderr=""):
        return {"argv": argv, "exit": exit, "stdout": stdout, "stderr": stderr}

    before = [
        record(["run", "--builtin", "ghz3"], stdout="a\n"),
        record(["spectrum", "--system", "{system}"], stdout="b\n"),
        record(["run"], 1, stderr="error: x\n"),
        record(["run", "--builtin", "not2"]),
        record(["run", "--builtin", "qft-1"]),
    ]
    after = [
        record(["run", "--builtin", "ghz3"], stdout="a\n"),
        record(["spectrum", "--system", "{system}"], stdout="b \n"),  # stdout moved
        record(["run"], 2, stderr="error: x\n"),  # exit code moved
        record(["run", "--builtin", "not2"], stderr="warning\n"),  # stderr moved
        record(["run", "--emit", "a b"]),  # only in the new record
    ]  # qft-1 is only in the old record
    paths = [tmp_path / "before.json", tmp_path / "after.json"]
    for path, records in zip(paths, (before, after)):
        path.write_text(json.dumps(records), encoding="utf-8")

    assert sweep_main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out == ""
    assert sweep_main(["--compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "spectrum --system '{system}'",
        "run",
        "run --builtin not2",
        "run --builtin qft-1",
        "run --emit 'a b'",
    ]


@pytest.mark.parametrize("argv, code", [
    (["run", "--builtin", "ghz3"], 0),
    (["run", "--builtin", "bell-readout", "--mode", "pulse", "--system", "{system}"], 0),
    (["run", "--builtin", "ghz3", "--mode", "pulse", "--system", "{system}"], 2),
])
def test_spawned_module_prints_what_main_prints(capsys, argv, code):
    argv = [arg.replace("{system}", str(ROOT / "demo_system.cfg")) for arg in argv]
    done = spawn_cli(argv, capture_output=True)
    status, out, err = run_cli(capsys, *argv)
    assert status == code
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_cli_sweep_compare_needs_no_spinqc_on_the_path(tmp_path):
    records = tmp_path / "sweep.json"
    records.write_text(json.dumps([{"argv": ["run"], "exit": 1, "stdout": "", "stderr": "x\n"}]),
                       encoding="utf-8")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    script = Path(__file__).with_name("cli_sweep.py")
    # -S leaves out site-packages too, so an installed spinqc cannot hide an import
    done = subprocess.run(
        [sys.executable, "-S", str(script), "--compare", str(records), str(records)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
