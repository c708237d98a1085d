"""spinqc benchmark: one seeded workload per call, checked against independent oracles.

Usage, from the root of a checkout::

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: pulse-compile, cli-cold (see bench/README.md).  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it times the calls into each spinqc module from
outside and reports per-layer metrics and the tracing overhead.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (named and unitised as
``BENCHMARK.json`` declares them); the lines before it are a readable
report, and a stamped copy of everything goes to ``bench/results/``.

Every measurement runs in fresh child processes (``bench/worker.py``)
that import the program from ``src/`` of the checkout.  Set-up time is
the median over many fresh processes, taken before, between the segments
of, and after the timed loop, while the timed process sits idle.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PER_PAUSE = 2  # set-up samples at each pause of the timed process
BLAS_THREADS = 1  # one client, one thread: steadier on a shared machine
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, extra, deadline, on_pause=None, cpu=None) -> dict:
    """Run one worker to completion in its own process group; return its JSON line.

    Each time the worker writes ``pause``, call ``on_pause`` and then tell
    the worker to go on.  With ``cpu``, the worker runs on that CPU only.
    """
    argv = [sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", str(ROOT)] + extra
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        argv + ["--spawned-at", repr(spawned_at)], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True, start_new_session=True,
    )
    if cpu is not None:
        os.sched_setaffinity(proc.pid, {cpu})
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            if line.strip() == "pause" and on_pause:
                on_pause()
                proc.stdin.write("go\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        proc.wait()
    except OSError as exc:  # the worker went away while we wrote to it
        raise RuntimeError(f"lost the worker: {exc}") from None
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
        proc.stdin.close()
    if timed_out.is_set():
        raise RuntimeError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(last)


def stamp(args) -> dict:
    import numpy  # only for its version; the workers import their own copy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, one client, one process; at most one CLI child at a time",
    }


def report(out, metrics):
    """Readable lines printed before the JSON result."""
    lines = [f"# {k}={v}" for k, v in out["stamp"].items()]
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    if "timing" in out:
        lines.append(f"samples = {out['timing']['samples']} ops (p50/p90 over every attempted op)")
        lines.append(f"setup_s is the median of {len(out['setup_samples_s'])} fresh processes")
    att, failed = out["attempted"], out["failed"]
    lines.append(f"error_rate = {failed / att:.4f} ({failed} failed / {att} attempted)")
    for reason, count in sorted(out["failure_reasons"].items()):
        lines.append(f"  failed: {count} x {reason}")
    q = out.get("quality")
    if q:
        lines.append(f"gate_fidelity_min = {q['gate_fidelity_min']:.6g} fidelity")
        lines.append(f"gate_fidelity_mean = {q['gate_fidelity_mean']:.6g} fidelity")
        lines.append(f"propagator_err_max = {q['propagator_err_max']:.3g}"
                     " (max-norm distance to the exact propagator)")
        lines.append(f"distinct compiled gates = {q['distinct_gates']}")
        lines.append(
            f"known defect: circuit.run_pulse raised NormalizationError on {q['run_pulse_raised']}"
            f" of the first {q['run_pulse_probed']} circuits, untimed"
            f" (oracle mismatches among the rest: {q['run_pulse_mismatches']})"
        )
        lines.append("demo gate table (demo system): gate | fidelity | ROADMAP baseline | ladder levels")
        for row in q["demo_table"]:
            lines.append(
                f"  {row['gate']:<24} {row['fidelity']:.5f}  {row['roadmap_fidelity']:.5f}  {row['levels']}"
            )
    d = out.get("cli_defects")
    if d:
        lines.append(f"ops that rightly ended in exit code 3, where the library raises: {d['numerical_exits']}")
        lines.append(f"known defect: `spinqc.cli {d['dashdash_argv']}` exits {d['dashdash_exit']}, untimed")
    if "self_ms" in out:
        op_ms = out["layers"]["op.ms"]
        lines.append(f"self time per op by layer (sums to op.ms = {op_ms:.4g} ms with unattributed):")
        rows = sorted(out["self_ms"].items(), key=lambda kv: -kv[1])
        rows.append(("unattributed", out["layers"]["unattributed.ms"]))
        for name, ms in rows:
            lines.append(f"  {name:<28} {ms:10.4f} ms  {100 * ms / op_ms:5.1f} %")
        lines.append(f"tracing overhead = {out['layers']['trace.overhead_ms']:.4g} ms per op"
                     f" (traced {op_ms:.4g} ms vs untraced {out['layers']['op.untraced_ms']:.4g} ms)")
    lines.append(
        f"oracle mismatches = {out['mismatches']}, text/JSON parity mismatches = {out['parity_mismatches']}"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pulse-compile", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "spinqc" / "__init__.py", ROOT / "demo_system.cfg", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a spinqc checkout", file=sys.stderr)
            return 2

    deadline = time.monotonic() + DEADLINE_S
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    base = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup = []
        cpus = sorted(os.sched_getaffinity(0))

        def sample_setup():  # on the allowed CPUs in turn, as the timed loop's segments run
            for _ in range(SETUP_PER_PAUSE):
                cpu = cpus[len(setup) % len(cpus)]
                setup.append(run_worker(args, ["--setup-only"], deadline, cpu=cpu)["setup_s"])

        if args.trace:
            out = run_worker(args, ["--spans-out", f"{base}-spans.tsv.gz"], deadline)
        else:
            out = run_worker(args, [], deadline, on_pause=sample_setup)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(out["setup_s"])
    out["setup_samples_s"] = setup
    out["stamp"] = stamp(args)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        values, kind = out["layers"], "per_layer"
    else:
        values = dict(out["timing"], setup_s=statistics.median(setup))
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[kind]}
    correct = (out["mismatches"] == 0 and out["parity_mismatches"] == 0
               and out.get("quality", {}).get("run_pulse_mismatches", 0) == 0)
    result = {"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    with open(f"{base}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(out, result=result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("\n".join(report(out, metrics)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
