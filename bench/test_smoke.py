"""Smoke test of the benchmark: tiny runs of every workload, and oracles that catch corruption.

Run from the root of a checkout with ``python3 -m pytest bench/test_smoke.py``.
It is not part of the tier-1 suite (``testpaths`` there is ``tests``).
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from spinqc import circuit, pulse  # noqa: E402


def _runner(name, count):
    ops = workloads.GENERATORS[name](7)[:count]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return worker.make_runner(name, ops, str(ROOT), env), ops


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_tiny_run_of_each_workload_checks_clean(name):
    runner, ops = _runner(name, 3)
    tally = worker.timed_loop(runner, len(ops), seconds=0.0, min_ops=2)
    assert len(tally.latencies) == 2
    assert tally.failed == 0


def test_pulse_quality_shows_the_seed_defects():
    runner, ops = _runner("pulse-compile", 12)
    worker.timed_loop(runner, len(ops), seconds=0.0, min_ops=len(ops))
    quality = worker.pulse_quality(runner)
    assert quality["gate_fidelity_min"] <= 0.32  # the rx 1 -pi/4 demo gate
    assert quality["run_pulse_mismatches"] == 0
    assert 0 < quality["run_pulse_raised"] < quality["run_pulse_probed"] == len(ops)
    cnot = quality["demo_table"][0]
    assert cnot["gate"] == "cnot 1 2 minus" and cnot["levels"] == 19


def test_timed_loop_pauses_between_segments():
    runner, ops = _runner("pulse-compile", 3)
    pauses = []
    tally = worker.timed_loop(runner, len(ops), seconds=0.2, min_ops=1, pause=lambda: pauses.append(1))
    assert len(pauses) == worker.SEGMENTS - 1
    assert 0 < tally.check_s < tally.loop_s


def test_tiny_traced_run_accounts_for_op_time():
    runner, ops = _runner("pulse-compile", 4)
    metrics, self_ms, plain, traced, _ = worker.traced_run(
        "pulse-compile", runner, len(ops), 0.0, str(ROOT), {}
    )
    assert len(plain.latencies) == len(traced.latencies) == 4
    assert metrics["pulse.pulse_propagator.levels_max"] >= 10
    total = sum(self_ms.values()) + metrics["unattributed.ms"]
    assert total == pytest.approx(metrics["op.ms"], rel=0.05)


def test_pulse_oracle_flags_corrupted_propagator_and_result():
    sys_ = pulse.demo_system()
    p, _ = circuit.compile_gate(sys_, circuit.parse_circuit("qubits 2\ncnot 1 2 minus").steps[0])
    u = pulse.pulse_propagator(sys_, p, "both-spins")
    exact = oracle.exact_propagator(workloads.DEMO_SYSTEM, (p.carrier, p.omega_p, p.tau, p.phase))
    assert oracle.max_dist(u, exact) < 1e-7

    runner, ops = _runner("pulse-compile", 40)
    result = runner.run(0)
    assert runner.check(0, result) is None
    p, u, f = result[0]
    corrupted = u.copy()
    corrupted[:, 1] *= np.exp(1e-5j)
    assert runner.check(0, [(p, corrupted, f)] + result[1:]) is not None
    assert runner.check(0, [(p, u, f - 1e-4)] + result[1:]) is not None
    assert runner.check(0, result[1:]) is not None

    i = next(k for k in range(len(ops)) if _succeeds(runner, k))
    whole = circuit.run_pulse(runner.circuits[i], runner.systems[ops[i]["system"]], runner.states[i])
    assert runner.check_run_pulse(i, whole) is None
    assert runner.check_run_pulse(i, dataclasses.replace(whole, fidelity=whole.fidelity - 1e-4)) is not None
    bad_gates = (whole.gate_fidelities[0] + 1e-4,) + whole.gate_fidelities[1:]
    assert runner.check_run_pulse(i, dataclasses.replace(whole, gate_fidelities=bad_gates)) is not None


def _succeeds(runner, i):
    try:
        circuit.run_pulse(runner.circuits[i], runner.systems[runner.ops[i]["system"]], runner.states[i])
    except ValueError:
        return False
    return True


def test_cli_oracle_flags_corrupted_output_and_parity():
    runner, _ = _runner("cli-cold", 1)
    base = {"kind": "run", "builtin": "bell-readout", "mode": "pulse", "n": 2,
            "emits": ["schedule", "fidelity", "state"], "input": "++"}
    runner.ops = [dict(base, fmt="json"), dict(base, fmt="text")]
    runner.argv = [workloads.cli_argv(op, runner.system_path) for op in runner.ops]
    outputs = [runner.run(i) for i in range(2)]
    for i, (code, stdout) in enumerate(outputs):
        assert code == 0
        assert runner.check(i, (code, stdout)) is None
    assert runner.parity_mismatches() == 0

    code, text = outputs[1]
    corrupted = re.sub(
        r"end_to_end=(\S+)", lambda m: f"end_to_end={float(m.group(1)) + 1e-6:.10g}", text
    )
    assert corrupted != text
    assert runner.check(1, (code, corrupted)) is not None
    data = json.loads(outputs[0][1])
    data["state"][0][3] += 1e-6
    assert runner.check(0, (0, json.dumps(data))) is not None

    runner.parsed[(workloads.command_key(base), "text")]["state"][0][3] += 1.0
    assert runner.parity_mismatches() == 1


def test_cli_exit_3_is_right_only_where_the_library_raises():
    runner, _ = _runner("cli-cold", 1)
    base = {"kind": "run", "builtin": "bell-readout", "mode": "pulse", "n": 2,
            "emits": ["schedule", "fidelity", "state"], "fmt": "text"}
    runner.ops = [dict(base, input="-+"), dict(base, input="++")]
    runner.argv = [workloads.cli_argv(op, runner.system_path) for op in runner.ops]
    code, stdout = runner.run(0)
    assert code == worker.NUMERICAL_EXIT
    assert runner.check(0, (code, stdout)) is None
    assert runner.check(0, (0, stdout)) is not None
    assert runner.check(1, (worker.NUMERICAL_EXIT, "")) is not None


def test_cli_spells_the_all_minus_label_in_bits_and_probes_the_defect():
    assert workloads.input_spelling("--") == "11"
    assert workloads.input_spelling("---") == "111"
    assert workloads.input_spelling("-+") == "-+"
    assert workloads.input_spelling("bell:psi-") == "bell:psi-"
    runner, _ = _runner("cli-cold", 12)
    defects = worker.cli_defects(runner)
    assert defects["dashdash_argv"].endswith("--input=--")
    assert defects["dashdash_exit"] != 0  # the seed CLI crashes on this spelling


def test_run_py_prints_the_contract_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "pulse-compile", "--seed", "1",
         "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def test_run_py_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pulse-compile", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
