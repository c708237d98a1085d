"""Seeded input generators for the two benchmark workloads.

Everything here is plain Python driven by ``random.Random(seed)``: the
same seed gives the same inputs.  Each generator returns op specs that
carry both the text the program receives (circuit text, system values,
input spec or command line) and the structured form the oracle uses, so
the oracle never reads the program's parse.

Inputs on which the program is known to do badly stay in: negative
rotation angles, and circuits and inputs on which pulse runs leave the
unit sphere by more than the state tolerance.  No op may fail, so the
ops are chosen to make those defects show as measured values rather
than as failures (see ``worker.py``); the one input spelling the CLI
crashes on, ``--input=--``, is probed after the timed loop instead.
"""

import math
import random

DEMO_SYSTEM = (2 * math.pi * 500.0, 2 * math.pi * 25.0, 2 * math.pi * 5.0, 2 * math.pi * 1.0)
SYSTEM_SPREAD = 0.25  # perturbed systems lie within +-25 % of the demo system per value

PULSE_INPUTS = ("++", "-+", "+-", "--", "bell:phi+", "bell:phi-", "bell:psi+", "bell:psi-")
PI_DIVISORS = (1, 2, 3, 4, 6, 8)

# Gates of the fixed demo table, with the fidelities measured on the seed
# program (ROADMAP baseline) printed beside the measured values.
DEMO_GATES = (
    (("cnot", 1, 2, "minus"), "cnot 1 2 minus", 0.99938),
    (("ry", 2, math.pi / 4), "ry 2 pi/4", 0.962),
    (("rx", 1, math.pi / 2), "rx 1 pi/2", 0.884),
    (("rx", 1, -math.pi / 4), "rx 1 -pi/4", 0.320),
)


def gate_text(gate: tuple, angle_text: str | None = None) -> str:
    if gate[0] in ("rx", "ry", "rz"):
        return f"{gate[0]} {gate[1]} {angle_text if angle_text is not None else repr(gate[2])}"
    if gate[0] == "cnot":
        return f"cnot {gate[1]} {gate[2]} {gate[3]}"
    return gate[0]


def _angle(rng: random.Random) -> tuple[float, str]:
    """Angle as ``(value, text)``: +-pi/k half the time, else a signed decimal."""
    sign = rng.choice((1, -1))
    if rng.random() < 0.5:
        k = rng.choice(PI_DIVISORS)
        return sign * math.pi / k, ("-" if sign < 0 else "") + f"pi/{k}"
    value = sign * round(rng.uniform(0.05, 3.1), 4)
    return value, repr(value)


def _random_gate(rng, n, kind):
    if kind in ("rx", "ry", "rz"):
        value, text = _angle(rng)
        gate = (kind, rng.randint(1, n), value)
        return gate, gate_text(gate, text)
    if kind == "cnot":
        target, control = rng.sample(range(1, n + 1), 2)
        gate = ("cnot", target, control, rng.choice(("plus", "minus")))
        return gate, gate_text(gate)
    return (kind,), kind


def _circuit(rng, n, kinds):
    """Gate tuples and circuit text for the given sequence of step kinds."""
    pairs = [_random_gate(rng, n, kind) for kind in kinds]
    text = "\n".join([f"qubits {n}"] + [t for _, t in pairs]) + "\n"
    return [g for g, _ in pairs], text


def _label(rng, n) -> str:
    return "".join(rng.choice("+-") for _ in range(n))


def _stratified(rng, values, count):
    """``count`` draws that use every value equally often, in shuffled blocks."""
    out = []
    while len(out) < count:
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def perturbed_system(rng: random.Random) -> tuple:
    """A system within +-25 % of the demo one that meets the README inequalities."""
    while True:
        w0, w1, w2, wc = (v * rng.uniform(1 - SYSTEM_SPREAD, 1 + SYSTEM_SPREAD) for v in DEMO_SYSTEM)
        if w1 > w2 > 0 and 0 < wc <= w0 / 100 and w1 - w2 >= 4 * wc:
            return (w0, w1, w2, wc)


# Gate counts of pulse-compile circuits.  Op latency grows in steps with the
# gate count; this deck puts the p50 and p90 ranks inside a step (4 and 6
# gates) rather than on the edge between two, where they would jump with the seed.
PULSE_GATE_COUNTS = (1, 2, 3, 4, 4, 4, 5, 6, 6, 6)


def pulse_compile(seed: int, count: int = 900) -> list[dict]:
    """Two-spin rx/ry/cnot circuits of 1-6 gates on demo and perturbed systems.

    A quarter of the ops run on the demo system; every other op gets a
    system of its own, so that the share of failing runs, which depends
    strongly on the system, does not hinge on a few draws.  The demo
    share, inputs and gate counts are dealt from shuffled decks.
    """
    rng = random.Random(seed)
    on_demo = _stratified(rng, (True, False, False, False), count)
    inputs = _stratified(rng, PULSE_INPUTS, count)
    gate_counts = _stratified(rng, PULSE_GATE_COUNTS, count)
    ops = []
    for i in range(count):
        steps = rng.choices(("rx", "ry", "cnot"), (3, 3, 2), k=gate_counts[i])
        gate_list, text = _circuit(rng, 2, steps)
        system = DEMO_SYSTEM if on_demo[i] else perturbed_system(rng)
        ops.append({"n": 2, "gates": gate_list, "text": text, "system": system, "input": inputs[i]})
    return ops


IDEAL_BUILTINS = {
    "ghz3": 3, "bell-readout": 2, "not2": 2,
    **{f"qft-{k}": k for k in range(1, 7)},
}
PULSE_BUILTINS = ("bell-readout", "not2")


def _cli_commands():
    """Base commands: every builtin in ideal mode, two in pulse mode, the spectrum."""
    base = [
        {"kind": "run", "builtin": name, "mode": "ideal", "n": n, "emits": ["unitary", "state"]}
        for name, n in IDEAL_BUILTINS.items()
    ]
    base += [
        {"kind": "run", "builtin": name, "mode": "pulse", "n": 2,
         "emits": ["schedule", "fidelity", "state"]}
        for name in PULSE_BUILTINS
    ]
    base.append({"kind": "spectrum", "emits": ["spectrum"]})
    return base


def input_spelling(spec: str) -> str:
    """How a command line spells an input spec.

    A label of all minus signs is written in its bit form (``--`` as
    ``11``): ``--input=--`` makes the seed CLI crash with exit 1, which
    ``worker.cli_defects`` reports, and no benchmark op may fail.
    """
    return spec.replace("-", "1").replace("+", "0") if set(spec) == {"-"} else spec


def cli_argv(command: dict, system_path: str) -> list[str]:
    if command["kind"] == "spectrum":
        return ["spectrum", "--system", system_path, "--format", command["fmt"]]
    argv = ["run", "--builtin", command["builtin"], "--mode", command["mode"],
            "--emit", ",".join(command["emits"]), "--format", command["fmt"],
            f"--input={input_spelling(command['input'])}"]
    if command["mode"] == "pulse":
        argv += ["--system", system_path]
    return argv


def cli_cold(seed: int, count: int = 240) -> list[dict]:
    """Command lines for one cold CLI process each, in shuffled rounds of every base command.

    Two-spin commands deal their inputs from a shuffled deck of the four
    sign labels and four Bell states; larger registers get random labels.
    """
    rng = random.Random(seed)
    base = _cli_commands()
    rounds = -(-count // len(base))
    decks = [_stratified(rng, PULSE_INPUTS, rounds) for _ in base]
    ops = []
    for r in range(rounds):
        order = list(range(len(base)))
        rng.shuffle(order)
        for idx in order:
            cmd = dict(base[idx], fmt=rng.choice(("text", "json")))
            if cmd["kind"] == "run":
                n = cmd["n"]
                cmd["input"] = decks[idx][r] if n == 2 else _label(rng, n)
            ops.append(cmd)
    return ops[:count]


def command_key(command: dict) -> tuple:
    """Identity of a command without its output format (for text/JSON parity)."""
    return (command["kind"], command.get("builtin"), command.get("mode"), command.get("input"))


GENERATORS = {
    "pulse-compile": pulse_compile,
    "cli-cold": cli_cold,
}
