"""One benchmark process: set up a workload, run the timed loop, check every result.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing
at the checkout's ``src``.  It prints one JSON object on its last stdout
line.  With ``--setup-only`` it stops after set-up and reports only the
set-up time.  Otherwise it pauses before its timed loop, between the
loop's segments and after it, writing ``pause`` and waiting for ``go`` on
stdin, so that ``run.py`` can take set-up samples spread over the run
while this process sits idle.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import oracle
import tracing
import workloads
from spinqc import circuit, cli, gates, pulse, register

MIN_OPS = 110  # p90 needs at least ten samples above it
HARD_STOP_S = 120.0  # keep the whole process well inside its time limit
TRACE_OPS = {"pulse-compile": 96, "cli-cold": 24}
SPAWN_SAMPLES = 5  # interpreter / import start-up samples in a traced cli-cold run
SEGMENTS = 4  # the timed loop pauses between segments for set-up samples
# Each vCPU of a shared machine can switch between speeds independently of
# the others, so a loop left on one CPU measures that CPU's state.  The
# timed loop runs its segments on the allowed CPUs in turn instead.
CPUS = sorted(os.sched_getaffinity(0))
NUMERICAL_EXIT = 3  # the CLI's documented exit code for a result not trusted to tolerance
PROBE_OPS = 100  # pulse-compile ops also run whole through circuit.run_pulse after the loop


def _state(spec: str, n: int):
    if spec.startswith("bell:"):
        return gates.bell_state(spec[5:])
    return register.basis_state(n, spec)


class PulseRunner:
    """One op compiles and simulates every gate of a pre-parsed two-spin circuit.

    Per gate it calls circuit.compile_gate, pulse.pulse_propagator in
    "both-spins" scope and pulse.gate_fidelity: the per-gate work of
    circuit.run_pulse, where the propagator dominates.  The op stops short
    of pushing the input state through the propagators, because there the
    seed program's run_pulse raises NormalizationError on about a third of
    these circuits, and no benchmark op may fail.  ``run_pulse_probe``
    counts that defect after the timed loop.
    """

    def __init__(self, ops):
        self.ops = ops
        self.systems = {op["system"]: pulse.SpinSystem(*op["system"]) for op in ops}
        self.circuits = [circuit.parse_circuit(op["text"]) for op in ops]
        self.states = [_state(op["input"], 2) for op in ops]
        self._exact = {}
        self.gate_rows = {}  # (system, gate) -> (fidelity, distance to the exact propagator)

    def warm_up_index(self):
        return 0

    def run(self, i):
        sys_ = self.systems[self.ops[i]["system"]]
        out = []
        for step in self.circuits[i].steps:
            p, target = circuit.compile_gate(sys_, step)
            u = pulse.pulse_propagator(sys_, p, "both-spins")
            out.append((p, u, pulse.gate_fidelity(u, target)))
        return out

    def exact(self, system, p):
        key = (system, p.carrier, p.omega_p, p.tau, p.phase)
        if key not in self._exact:
            self._exact[key] = oracle.exact_propagator(system, key[1:])
        return self._exact[key]

    def check(self, i, result):
        op = self.ops[i]
        if len(result) != len(op["gates"]):
            return "one result per gate expected"
        for gate, (p, u, f) in zip(op["gates"], result):
            exact = self.exact(op["system"], p)
            err = oracle.max_dist(u, exact)
            if err > oracle.PROPAGATOR_TOL:
                return f"propagator of {gate} differs from the exact one"
            if abs(f - oracle.fidelity(exact, oracle.pulse_target(gate))) > oracle.FIDELITY_TOL:
                return f"gate fidelity of {gate} differs from the exact propagator's"
            self.gate_rows[(op["system"], gate)] = (f, err)
        return None

    def check_run_pulse(self, i, result):
        """Oracle check of a whole circuit.run_pulse result."""
        op = self.ops[i]
        v = oracle.input_vector(op["input"], 2)
        for gate, p, f in zip(op["gates"], result.schedule, result.gate_fidelities):
            u = self.exact(op["system"], p)
            v = u @ v
            if abs(f - oracle.fidelity(u, oracle.pulse_target(gate))) > oracle.FIDELITY_TOL:
                return f"gate fidelity of {gate} differs from the exact propagator's"
        if oracle.max_dist(result.trace.final.amplitudes, v) > oracle.PULSE_STATE_TOL:
            return "final state differs from the exact-propagator oracle"
        ideal = oracle.final_state(2, op["gates"], oracle.input_vector(op["input"], 2))
        if abs(result.fidelity - abs(np.vdot(ideal, v))) > oracle.FIDELITY_TOL:
            return "end-to-end fidelity differs from the oracle"
        return None


class CliRunner:
    """One op is one ``python -m spinqc.cli`` process, spawn to exit.

    The traced pass calls ``cli.main`` in-process instead, with stdout
    captured, so spans see the CLI layer.
    """

    def __init__(self, ops, root, env):
        self.ops = ops
        self.env = env
        self.root = root
        self.system_path = os.path.join(root, "demo_system.cfg")
        self.argv = [workloads.cli_argv(op, self.system_path) for op in ops]
        self.in_process = False
        self._expected = {}
        self.parsed = {}  # (command key, format) -> printed values, for text/JSON parity
        self.numerical_exits = 0  # checked ops that correctly ended in exit code 3

    def warm_up_index(self):
        return 0

    def run(self, i):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv[i])
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "spinqc.cli"] + self.argv[i],
            capture_output=True, text=True, env=self.env, cwd=self.root, timeout=60,
        )
        return proc.returncode, proc.stdout

    def _expect(self, op):
        key = workloads.command_key(op)
        if key not in self._expected:
            self._expected[key] = expected_cli_values(op, self.system_path)
        return self._expected[key]

    def check(self, i, result):
        """The CLI must print what the library computes, or exit 3 where the library raises.

        Exit code 3 is the CLI's documented answer to a result that cannot
        be trusted to tolerance (NormalizationError, IntegrationError), so
        it is the right answer wherever the library raises one of those.
        """
        code, stdout = result
        op = self.ops[i]
        want = self._expect(op)
        if want is None:
            if code != NUMERICAL_EXIT:
                return f"exit code {code} where the library raises"
            self.numerical_exits += 1
            return None
        if code != 0:
            return f"exit code {code}"
        try:
            got = oracle.parse_cli_output(op, stdout)
        except (ValueError, KeyError) as exc:
            return f"unparseable output: {exc!r}"
        self.parsed.setdefault((workloads.command_key(op), op["fmt"]), got)
        return oracle.cli_mismatch(want, got)

    def parity_mismatches(self):
        return sum(
            1 for (key, fmt), got in self.parsed.items()
            if fmt == "text" and (key, "json") in self.parsed and self.parsed[(key, "json")] != got
        )


def expected_cli_values(op, system_path):
    """What the CLI should print, computed with the library in this process."""
    r10 = oracle.round10
    if op["kind"] == "spectrum":
        lines = pulse.transition_spectrum(pulse.load_system_config(system_path))
        return {"spectrum": [
            {"omega": r10(line.frequency), "from": line.from_label.signs, "to": line.to_label.signs,
             "flips": line.flipped_spin, "spectator": line.spectator}
            for line in lines
        ]}
    circ = circuit.builtin_circuit(op["builtin"])
    state = register.QuantumState(circ.n, oracle.input_vector(op["input"], circ.n))
    if op["mode"] == "ideal":
        final = circuit.run_ideal(circ, state).final.amplitudes
        return {"state": oracle.state_rows(final),
                "unitary": oracle.unitary_rows(circuit.circuit_unitary(circ))}
    try:
        result = circuit.run_pulse(circ, pulse.load_system_config(system_path), state)
    except (register.NormalizationError, pulse.IntegrationError):
        return None
    return {
        "state": oracle.state_rows(result.trace.final.amplitudes),
        "schedule": [
            {"carrier": r10(p.carrier), "omega_p": r10(p.omega_p), "tau": r10(p.tau),
             "phase": r10(p.phase), "purpose": p.purpose or "pulse"}
            for p in result.schedule
        ],
        "fidelity": {
            "per_gate": [{"gate": g.describe(), "fidelity": r10(f)}
                         for g, f in zip(result.trace.gates, result.gate_fidelities)],
            "end_to_end": r10(result.fidelity),
        },
    }


def cli_defects(runner):
    """Exit code of the one input spelling the seed CLI crashes on, ``--input=--``."""
    op = next(op for op in runner.ops if op["kind"] == "run" and op["n"] == 2)
    argv = [
        "--input=--" if a.startswith("--input=") else a
        for a in workloads.cli_argv(op, runner.system_path)
    ]
    proc = subprocess.run([sys.executable, "-m", "spinqc.cli"] + argv, capture_output=True,
                          env=runner.env, cwd=runner.root, timeout=60)
    return {"dashdash_argv": " ".join(argv), "dashdash_exit": proc.returncode,
            "numerical_exits": runner.numerical_exits}


def make_runner(name, ops, root, env):
    if name == "pulse-compile":
        return PulseRunner(ops)
    return CliRunner(ops, root, env)


class Tally:
    """Latencies and outcomes of attempted ops."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.mismatches = 0
        self.reasons = Counter()
        self.check_s = 0.0  # time spent in oracle checks, inside the loop but outside ops
        self.loop_s = 0.0  # wall time of the timed loop, pauses left out

    def record(self, latency, reason, mismatch):
        self.latencies.append(latency)
        if reason is not None:
            self.failed += 1
            self.mismatches += mismatch
            self.reasons[reason] += 1


def attempt(runner, i, tally, call=None):
    """Run op ``i`` (timed), then check it against the oracle (untimed)."""
    t0 = time.perf_counter()
    try:
        result = call(runner.run, i) if call else runner.run(i)
    except Exception as exc:  # a raising op is a failed op, and the loop goes on
        tally.record(time.perf_counter() - t0, type(exc).__name__, False)
        return
    t1 = time.perf_counter()
    reason = runner.check(i, result)
    tally.check_s += time.perf_counter() - t1
    latency = t1 - t0
    mismatch = reason is not None and not reason.startswith("exit code")
    tally.record(latency, reason, mismatch)


def timed_loop(runner, n_ops, seconds, min_ops=MIN_OPS, pause=None):
    """Closed loop over the ops for ``seconds`` of loop time and at least ``min_ops`` ops.

    ``pause`` is called between the loop's segments with the loop clock
    stopped.  Segment ``k`` runs on CPU ``CPUS[k % len(CPUS)]``.  Returns
    the tally, with ``loop_s`` set to the loop's wall time.
    """
    tally = Tally()
    loop_s, segment = 0.0, 1
    os.sched_setaffinity(0, {CPUS[0]})
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = loop_s + time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(tally.latencies) >= min_ops):
            break
        if pause and segment < SEGMENTS and elapsed >= seconds * segment / SEGMENTS:
            loop_s, segment = elapsed, segment + 1
            pause()
            os.sched_setaffinity(0, {CPUS[(segment - 1) % len(CPUS)]})
            start = time.perf_counter()
        attempt(runner, i % n_ops, tally)
        i += 1
    tally.loop_s = elapsed
    os.sched_setaffinity(0, CPUS)
    return tally


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def demo_table():
    """Gate fidelity and ladder depth of the fixed demo gates on the demo system.

    Each gate goes through compile_gate then pulse_propagator; the ladder
    levels are counted with the same tracer as the traced run.
    """
    sys_ = pulse.SpinSystem(*workloads.DEMO_SYSTEM)
    rows = []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for gate, text, baseline in workloads.DEMO_GATES:
            kind = gate[0]
            lib = gates.cnot(*gate[1:]) if kind == "cnot" else getattr(gates, kind)(gate[1], gate[2])
            p, target = circuit.compile_gate(sys_, lib)
            u = pulse.pulse_propagator(sys_, p, "both-spins")
            rows.append({
                "gate": text, "roadmap_fidelity": baseline,
                "fidelity": pulse.gate_fidelity(u, target),
                "propagator_err": oracle.max_dist(
                    u, oracle.exact_propagator(workloads.DEMO_SYSTEM, (p.carrier, p.omega_p, p.tau, p.phase))
                ),
            })
    finally:
        tracer.uninstall()
    _, levels = tracing.layer_metrics(tracer.spans, 1)
    assert len(levels) == len(rows), "one propagator span per demo gate"
    for row, depth in zip(rows, levels):
        row["levels"] = depth
    return rows


def run_pulse_probe(runner):
    """Run the first ``PROBE_OPS`` circuits whole through circuit.run_pulse.

    Counts the runs that raise NormalizationError (the seed defect the
    timed op steps around) and checks every other run against the oracle.
    """
    raised = mismatches = 0
    count = min(PROBE_OPS, len(runner.ops))
    for i in range(count):
        try:
            result = circuit.run_pulse(runner.circuits[i], runner.systems[runner.ops[i]["system"]],
                                       runner.states[i])
        except register.NormalizationError:
            raised += 1
            continue
        mismatches += runner.check_run_pulse(i, result) is not None
    return {"run_pulse_probed": count, "run_pulse_raised": raised, "run_pulse_mismatches": mismatches}


def pulse_quality(runner):
    """Fidelities over the demo gates plus every distinct gate the timed loop checked."""
    demo = demo_table()
    fids = [r["fidelity"] for r in demo] + [f for f, _ in runner.gate_rows.values()]
    errs = [r["propagator_err"] for r in demo] + [e for _, e in runner.gate_rows.values()]
    return dict(
        run_pulse_probe(runner),
        gate_fidelity_min=min(fids),
        gate_fidelity_mean=statistics.fmean(fids),
        propagator_err_max=max(errs),
        distinct_gates=len(runner.gate_rows),
        demo_table=demo,
    )


# Per-op fields reported for each span name in the traced run.
LAYER_FIELDS = {
    "linalg.expm_hermitian": ("calls", "ms"),
    "register.QuantumState": ("calls", "ms"),
    "register.apply_unitary": ("calls", "ms", "self_ms", "bytes"),
    "register.format_state": ("calls", "ms"),
    "gates.embed": ("calls", "ms", "bytes"),
    "circuit.parse_circuit": ("calls", "ms"),
    "circuit.run_ideal": ("calls", "ms", "self_ms"),
    "circuit.circuit_unitary": ("calls", "ms", "self_ms"),
    "circuit.compile_gate": ("calls", "ms", "refused"),
    "circuit.run_pulse": ("calls", "ms", "self_ms"),
    "pulse.pulse_propagator": ("calls", "ms", "self_ms"),
    "pulse.gate_fidelity": ("calls", "ms"),
    "pulse.format_schedule": ("calls", "ms"),
    "cli.main": ("calls", "ms"),
    "cli.cmd_run": ("calls", "self_ms"),
}


def spawn_ms(argv, env, root, samples):
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=root, check=True, capture_output=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def traced_run(name, runner, n_ops, seconds, root, env):
    """Untraced and traced passes over the same op prefix, alternating; per-op layer metrics.

    Alternating the passes exposes both to the same machine conditions, so
    their difference is the tracing overhead.
    """
    prefix = list(range(min(TRACE_OPS[name], n_ops)))
    if isinstance(runner, CliRunner):
        runner.in_process = True
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    op_id = 0
    start = time.perf_counter()
    while op_id == 0 or time.perf_counter() - start < seconds:
        for i in prefix:
            attempt(runner, i, plain)
        tracer.install()
        try:
            for i in prefix:
                attempt(runner, i, traced, call=lambda run, j, k=op_id: tracer.op(k, run, j))
                op_id += 1
        finally:
            tracer.uninstall()
    n = len(traced.latencies)
    per_op, levels = tracing.layer_metrics(tracer.spans, n)
    metrics = {
        f"{span_key}.{field}": per_op.get(span_key, {}).get(field, 0.0)
        for span_key, fields in LAYER_FIELDS.items()
        for field in fields
    }
    metrics["pulse.pulse_propagator.levels_mean"] = statistics.fmean(levels) if levels else 0.0
    metrics["pulse.pulse_propagator.levels_max"] = max(levels, default=0)
    op_ms = statistics.fmean(traced.latencies) * 1e3
    plain_ms = statistics.fmean(plain.latencies) * 1e3
    metrics["op.ms"] = op_ms
    metrics["op.untraced_ms"] = plain_ms
    metrics["trace.overhead_ms"] = op_ms - plain_ms
    metrics["unattributed.ms"] = per_op["op"]["self_ms"]  # op time outside every traced call
    self_ms = {key: a["self_ms"] for key, a in per_op.items() if key != "op"}
    interp = imported = 0.0
    if name == "cli-cold":
        interp = spawn_ms([sys.executable, "-c", "pass"], env, root, SPAWN_SAMPLES)
        imported = spawn_ms([sys.executable, "-c", "import spinqc.cli"], env, root, SPAWN_SAMPLES) - interp
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = imported
    return metrics, self_ms, plain, traced, tracer


def wait_for_parent():
    """Tell ``run.py`` this process is idle, and block until it says ``go``."""
    print("pause", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("run.py did not resume the timed loop")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process was spawned")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    ops = workloads.GENERATORS[args.workload](args.seed)
    runner = make_runner(args.workload, ops, args.root, dict(os.environ))
    with contextlib.suppress(Exception):  # the warm-up op is not scored, nor checked
        runner.run(runner.warm_up_index())
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"setup_s": setup_s}
    if args.trace:
        metrics, self_ms, plain, traced, tracer = traced_run(
            args.workload, runner, len(ops), args.seconds, args.root, dict(os.environ)
        )
        tallies = (plain, traced)
        out["layers"] = metrics
        out["self_ms"] = self_ms
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        wait_for_parent()
        tally = timed_loop(runner, len(ops), args.seconds, pause=wait_for_parent)
        wait_for_parent()
        tallies = (tally,)
        lat_ms = [t * 1e3 for t in tally.latencies]
        if args.workload == "cli-cold":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ok = len(lat_ms) - tally.failed
        out["timing"] = {
            "op_ms_p50": percentile(lat_ms, 50),
            "op_ms_p90": percentile(lat_ms, 90),
            "samples": len(lat_ms),
            "ops_per_s": ok / (tally.loop_s - tally.check_s),
            "peak_rss_mb": peak_kb * 1024 / 1e6,
        }
        if isinstance(runner, PulseRunner):
            out["quality"] = pulse_quality(runner)
        elif isinstance(runner, CliRunner):
            out["cli_defects"] = cli_defects(runner)
    out["attempted"] = sum(len(t.latencies) for t in tallies)
    out["failed"] = sum(t.failed for t in tallies)
    out["mismatches"] = sum(t.mismatches for t in tallies)
    out["failure_reasons"] = sum((t.reasons for t in tallies), Counter())
    out["parity_mismatches"] = runner.parity_mismatches() if isinstance(runner, CliRunner) else 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
