"""The benchmark's tracer patches spinqc names where their callers look them up.

``bench/tracing.py`` wraps each name in its ``TRACED`` table, in its own
module and in every module that binds it by name.  A refactor that drops
one of those bindings breaks every traced benchmark run; this test makes
it fail here first.
"""

from pathlib import Path

import pytest

from spinqc import circuit, cli, gates, pulse, register

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_tracer_installs_on_every_traced_name_and_restores_them(tracing, capsys):
    originals = (register.format_state, cli.format_state, pulse.format_schedule)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.format_state is register.format_state
        assert cli.format_state is not originals[0]
        status = cli.main([
            "run", "--builtin", "bell-readout", "--mode", "pulse",
            "--system", str(BENCH.parent / "demo_system.cfg"),
            "--emit", "state,trace,schedule",
        ])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert status == 0
    assert (register.format_state, cli.format_state, pulse.format_schedule) == originals
    names = {span[0] for span in tracer.spans}
    # the state and trace text goes through format_state, the schedule text
    # through format_schedule
    assert {"register.format_state", "pulse.format_schedule", "cli.cmd_run"} <= names
    state_spans = sum(span[0] == "register.format_state" for span in tracer.spans)
    assert state_spans == 1 + 3  # the final state, then the input and two steps


def test_every_layer_of_the_pulse_path_shows_in_the_trace(tracing, demo):
    # compile -> propagate -> fidelity, as run_pulse does it per gate; each
    # propagator must stay one exponential, called through the linalg module,
    # and each compiled target one gates.embed call, made through the gates module
    # run_pulse calls circuit's binding, the one the tracer patches
    assert circuit.compile_gate is pulse.compile_gate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for gate in (gates.cnot(1, 2, "minus"), gates.rx(1, 0.7)):
            p, target = circuit.compile_gate(demo, gate)
            u = pulse.pulse_propagator(demo, p, "both-spins")
            assert pulse.gate_fidelity(u, target) > 0.8
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = [span[0] for span in spans]
    for name in ("circuit.compile_gate", "pulse.pulse_propagator", "pulse.gate_fidelity", "gates.embed"):
        assert name in names
    assert names.count("pulse.pulse_propagator") == 2
    for i, span in enumerate(spans):
        if span[0] == "pulse.pulse_propagator":
            nested = [s for s in spans if s[0] == "linalg.expm_hermitian" and s[3] == i]
            assert len(nested) == 1
    assert names.count("linalg.expm_hermitian") == 2
    assert names.count("circuit.compile_gate") == 2
    for i, span in enumerate(spans):
        if span[0] == "circuit.compile_gate":
            nested = [s for s in spans if s[0] == "gates.embed" and s[3] == i]
            assert len(nested) == 1
    assert names.count("gates.embed") == 2
