"""Reference results for the benchmark, written without any spinqc code.

Gates are plain tuples, as the workload generators produce them::

    ("rx" | "ry", spin, angle)
    ("cnot", target, control, "plus" | "minus")

States are kept as an amplitude tensor of shape ``(2,) * n + (batch,)``.
Basis index ``i`` has spin ``k`` down when bit ``k - 1`` is set, so in
C order axis ``n - k`` of the tensor belongs to spin ``k``.  A state is a
batch of one column; a whole-circuit unitary is the batch of all
identity columns pushed through the same kernel.

The pulse oracle is the exact propagator of a rectangular circular drive:
in the frame rotating at the carrier the Hamiltonian is constant, so one
4x4 Hermitian eigendecomposition gives it (Vandersypen & Chuang,
arXiv:quant-ph/0404064).
"""

import json
import math
import re

import numpy as np

PULSE_STATE_TOL = 1e-6  # pulse layer: integrator tolerance 1e-8 per gate, six gates at most
PROPAGATOR_TOL = 1e-6  # one pulse propagator; measured distances stay below 1e-8
FIDELITY_TOL = 1e-6
PRINT_THRESHOLD = 1e-12  # amplitudes below this are not printed by the CLI

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def rotation(kind: str, angle: float) -> np.ndarray:
    """Half-angle, clockwise-positive single-spin rotation."""
    c, s = math.cos(angle), math.sin(angle)
    if kind == "rx":
        return np.array([[c, 1j * s], [1j * s, c]])
    if kind == "ry":
        return np.array([[c, s], [-s, c]], dtype=complex)
    raise ValueError(f"not a rotation: {kind!r}")


BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1]) / math.sqrt(2),
    "phi-": np.array([1, 0, 0, -1]) / math.sqrt(2),
    "psi+": np.array([0, 1, 1, 0]) / math.sqrt(2),
    "psi-": np.array([0, -1, 1, 0]) / math.sqrt(2),
}


def label_index(label: str) -> int:
    """Integer of a sign (``+-``) or bit (``01``) label, spin 1 least significant."""
    return sum((1 << k) for k, ch in enumerate(label) if ch in "-1")


def input_vector(spec: str, n: int) -> np.ndarray:
    """Amplitudes of an input spec: a label or ``bell:<kind>``."""
    if spec.startswith("bell:"):
        return BELL_VECTORS[spec[5:]].astype(complex)
    v = np.zeros(2**n, dtype=complex)
    v[label_index(spec)] = 1.0
    return v


def _apply_single(psi: np.ndarray, n: int, spin: int, g: np.ndarray) -> np.ndarray:
    axis = n - spin
    src = _LETTERS[: n + 1]
    dst = src[:axis] + "z" + src[axis + 1 :]
    return np.einsum(f"z{src[axis]},{src}->{dst}", g, psi)


def _apply_cnot(psi, n, target, control, condition):
    out = psi.copy()
    sel = [slice(None)] * (n + 1)
    sel[n - control] = 1 if condition == "minus" else 0
    t_axis = n - target
    if t_axis > n - control:
        t_axis -= 1  # the control axis is gone from the selected block
    out[tuple(sel)] = np.flip(psi[tuple(sel)], axis=t_axis)
    return out


def apply_gate(psi: np.ndarray, n: int, gate: tuple) -> np.ndarray:
    kind = gate[0]
    if kind in ("rx", "ry"):
        return _apply_single(psi, n, gate[1], rotation(kind, gate[2]))
    if kind == "cnot":
        return _apply_cnot(psi, n, *gate[1:])
    raise ValueError(f"unknown gate {gate!r}")


def run_columns(n: int, gate_list, columns: np.ndarray) -> np.ndarray:
    """Push a ``(2**n, batch)`` block of columns through the gates."""
    psi = np.asarray(columns, dtype=complex).reshape((2,) * n + (-1,))
    for gate in gate_list:
        psi = apply_gate(psi, n, gate)
    return psi.reshape(2**n, -1)


def final_state(n: int, gate_list, initial: np.ndarray) -> np.ndarray:
    return run_columns(n, gate_list, np.asarray(initial).reshape(-1, 1))[:, 0]


def circuit_unitary(n: int, gate_list) -> np.ndarray:
    return run_columns(n, gate_list, np.eye(2**n))


def max_dist(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


# ------------------------------------------------------------ pulse layer

_Z1 = np.array([1.0, -1.0, 1.0, -1.0])
_Z2 = np.array([1.0, 1.0, -1.0, -1.0])


def _flip(bit: int) -> np.ndarray:
    m = np.zeros((4, 4))
    for i in range(4):
        m[i ^ bit, i] = 1.0
    return m


_X_BOTH = _flip(1) + _flip(2)


def exact_propagator(system, pulse) -> np.ndarray:
    """Interaction-picture propagator of one both-spins rectangular pulse.

    ``system`` is ``(omega0, omega1, omega2, omegac)`` and ``pulse`` is
    ``(carrier, omega_p, tau, phase)``, all in rad/s and s.
    """
    omega0, omega1, omega2, omegac = system
    carrier, omega_p, tau, phase = pulse
    h0 = -0.5 * (omega1 * _Z1 + omega2 * _Z2 + omegac * _Z1 * _Z2)
    z_total = _Z1 + _Z2
    detuning = carrier - omega0
    h_carrier = np.diag(h0 + 0.5 * detuning * z_total) - 0.5 * omega_p * _X_BOTH
    w, v = np.linalg.eigh(h_carrier)
    u_carrier = (v * np.exp(-1j * w * tau)) @ v.conj().T

    def frame(angle):
        return np.exp(-0.5j * angle * z_total)

    u_rot = frame(detuning * tau + phase).conj()[:, None] * u_carrier * frame(phase)[None, :]
    return np.exp(1j * h0 * tau)[:, None] * u_rot


def pulse_target(gate: tuple) -> np.ndarray:
    """Compiled-gate target: the ideal gate, with ``i`` on the flipped pair of a CNOT."""
    u = circuit_unitary(2, [gate])
    if gate[0] == "cnot":
        off = ~np.eye(4, dtype=bool)
        u[off] *= 1j
    return u


def fidelity(u_sim: np.ndarray, u_target: np.ndarray) -> float:
    return float(abs(np.trace(u_target.conj().T @ u_sim)) / u_sim.shape[0])


# -------------------------------------------------------------- CLI output


def round10(x: float) -> float:
    """The value the CLI prints with 10 significant digits."""
    return float(f"{float(x):.10g}")


def state_rows(amps) -> list:
    n = int(round(math.log2(len(amps))))
    rows = []
    for i, a in enumerate(amps):
        if abs(a) < PRINT_THRESHOLD:
            continue
        bits = [(i >> k) & 1 for k in range(n)]
        signs = "".join("-" if b else "+" for b in bits)
        rows.append([signs, "".join(map(str, bits)), i, round10(a.real), round10(a.imag)])
    return rows


def unitary_rows(u) -> list:
    return [[[round10(v.real), round10(v.imag)] for v in row] for row in u]


def _kv(line: str) -> dict:
    return dict(item.split("=", 1) for item in line.split())


def _parse_text_block(emit: str, block: str):
    lines = [line for line in block.splitlines() if line.strip()]
    if emit == "state":
        rows = []
        for line in lines:
            signs, bits, value, re_, im = line.split()
            rows.append([signs, bits, int(value), float(re_), float(im)])
        return rows
    if emit == "unitary":
        return [
            [[float(x) for x in cell.split(",")] for cell in line.split()] for line in lines
        ]
    if emit == "schedule":
        return [
            {k: (v if k == "purpose" else float(v)) for k, v in _kv(line).items()}
            for line in lines
        ]
    if emit == "fidelity":
        per_gate, end = [], None
        for line in lines:
            m = re.fullmatch(r"gate \d+ (.+) fidelity=(\S+)", line)
            if m:
                per_gate.append({"gate": m.group(1), "fidelity": float(m.group(2))})
            else:
                end = float(_kv(line)["end_to_end"])
        return {"per_gate": per_gate, "end_to_end": end}
    if emit == "spectrum":
        out = []
        for line in lines:
            kv = _kv(line)
            out.append({"omega": float(kv["omega"]), "from": kv["from"], "to": kv["to"],
                        "flips": int(kv["flips"]), "spectator": kv["spectator"]})
        return out
    raise ValueError(f"unknown emit {emit!r}")


def parse_cli_output(command: dict, stdout: str) -> dict:
    """Values printed by one CLI command, as ``{emit: payload}`` in JSON shapes."""
    emits = command["emits"]
    if command["fmt"] == "json":
        data = json.loads(stdout)
        if command["kind"] == "spectrum":
            return {"spectrum": data["spectrum"]}
        return {e: data[e] for e in emits}
    if len(emits) == 1:
        return {emits[0]: _parse_text_block(emits[0], stdout)}
    sections = re.split(r"^# emit: (\w+)\n", stdout, flags=re.M)
    blocks = dict(zip(sections[1::2], sections[2::2]))
    return {e: _parse_text_block(e, blocks[e]) for e in emits}


def cli_mismatch(expected: dict, got: dict) -> str | None:
    """First difference between expected and printed CLI values, or None."""
    for emit, want in expected.items():
        if emit not in got:
            return f"missing emit {emit!r}"
        if got[emit] != want:
            return f"emit {emit!r} differs from the in-process result"
    extra = set(got) - set(expected)
    return f"unexpected emits {sorted(extra)}" if extra else None
