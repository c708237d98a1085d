"""Gate set and exact unitaries for spin registers.

Rotations use the half-angle, clockwise-positive convention::

    Rx(t) = [[cos t, i sin t], [i sin t, cos t]]
    Ry(t) = [[cos t,   sin t], [-sin t,  cos t]]
    Rz(t) = diag(e^{it}, e^{-it})

so t = pi/2 is a full spin flip (Rx(pi/2) = i X).  Controlled flips name
a target, a control, and the control condition: ``cnot(1, 2, "minus")``
flips spin 1 on basis states where spin 2 points down.  The register
Fourier transform indexes rows and columns by the integer labels of the
register module (spin 1 least significant), with entries
``exp(2 pi i k x / Q) / sqrt(Q)`` for ``Q = 2**n``.
"""

import math
from dataclasses import dataclass

import numpy as np

from spinqc.register import QuantumState

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

CONDITIONS = ("plus", "minus")
ROTATION_KINDS = ("rx", "ry", "rz")
MAX_QFT_SPINS = 6


@dataclass(frozen=True)
class Gate:
    """One symbolic circuit step.

    ``kind`` is one of rx/ry/rz (fields spin, angle), cnot (fields
    target, control, condition), or the whole-register gates not, qft,
    bellread (no fields).
    """

    kind: str
    spin: int | None = None
    angle: float | None = None
    target: int | None = None
    control: int | None = None
    condition: str | None = None

    def min_spins(self) -> int:
        """Smallest register the gate fits on."""
        if self.kind in ROTATION_KINDS:
            return self.spin
        if self.kind == "cnot":
            return max(self.target, self.control)
        if self.kind == "bellread":
            return 2
        return 1

    def describe(self) -> str:
        """Canonical circuit-file spelling of the step."""
        if self.kind in ROTATION_KINDS:
            return f"{self.kind} {self.spin} {self.angle!r}"
        if self.kind == "cnot":
            return f"cnot {self.target} {self.control} {self.condition}"
        return self.kind

    def token(self) -> str:
        """Compact whitespace-free name used in pulse schedules."""
        if self.kind in ROTATION_KINDS:
            return f"{self.kind}:{self.spin}"
        if self.kind == "cnot":
            return f"cnot:{self.target}:{self.control}:{self.condition}"
        return self.kind


def _check_spin(spin: int) -> int:
    if not isinstance(spin, int) or spin < 1:
        raise ValueError(f"spin index must be a positive integer, got {spin!r}")
    return spin


def _rotation(kind: str, spin: int, angle: float) -> Gate:
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    return Gate(kind=kind, spin=_check_spin(spin), angle=angle)


def rx(spin: int, angle: float) -> Gate:
    return _rotation("rx", spin, angle)


def ry(spin: int, angle: float) -> Gate:
    return _rotation("ry", spin, angle)


def rz(spin: int, angle: float) -> Gate:
    return _rotation("rz", spin, angle)


def cnot(target: int, control: int, condition: str) -> Gate:
    _check_spin(target)
    _check_spin(control)
    if target == control:
        raise ValueError("cnot target and control must differ")
    if condition not in CONDITIONS:
        raise ValueError(f"condition must be one of {CONDITIONS}, got {condition!r}")
    return Gate(kind="cnot", target=target, control=control, condition=condition)


def not_all() -> Gate:
    return Gate(kind="not")


def qft() -> Gate:
    return Gate(kind="qft")


def bell_readout() -> Gate:
    return Gate(kind="bellread")


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """2x2 rotation about x, y, or z at half-angle ``theta``."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    c, s = math.cos(theta), math.sin(theta)
    if axis == "x":
        return np.array([[c, 1j * s], [1j * s, c]])
    if axis == "y":
        return np.array([[c, s], [-s, c]], dtype=complex)
    if axis == "z":
        return np.array([[np.exp(1j * theta), 0], [0, np.exp(-1j * theta)]])
    raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")


def _cnot_permutation(n: int, target: int, control: int, condition: str) -> np.ndarray:
    # basis state i goes to i with the target bit flipped where the control bit matches
    want = 1 if condition == "minus" else 0
    cols = np.arange(2**n)
    flips = ((cols >> (control - 1)) & 1) == want
    m = np.zeros((cols.size, cols.size), dtype=complex)
    m[np.where(flips, cols ^ (1 << (target - 1)), cols), cols] = 1.0
    return m


def cnot_matrix(target: int, control: int, condition: str) -> np.ndarray:
    """The 4x4 conditional flip on a two-spin register."""
    gate = cnot(target, control, condition)
    if {gate.target, gate.control} != {1, 2}:
        raise ValueError("two-spin cnot matrix needs spins {1, 2}; use embed for larger registers")
    return _cnot_permutation(2, gate.target, gate.control, gate.condition)


def not_all_matrix(n: int) -> np.ndarray:
    """Flip every spin: the anti-diagonal permutation of all basis states."""
    if n < 1:
        raise ValueError("register needs at least one spin")
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    m[np.arange(dim - 1, -1, -1), np.arange(dim)] = 1.0
    return m


def bell_readout_matrix() -> np.ndarray:
    """Map the four maximally entangled two-spin states onto the basis states."""
    m = np.array(
        [
            [1, 0, 0, 1],
            [0, 1, 1, 0],
            [-1, 0, 0, 1],
            [0, -1, 1, 0],
        ],
        dtype=complex,
    )
    return m / np.sqrt(2)


def qft_matrix(n: int) -> np.ndarray:
    """Fourier transform over the 2**n integer labels.

    Quarter-turn phases are built from exact powers of i so the small
    transforms carry no rounding dirt.
    """
    if not 1 <= n <= MAX_QFT_SPINS:
        raise ValueError(f"supported register sizes are 1..{MAX_QFT_SPINS}, got {n}")
    q = 2**n
    roots = np.empty(q, dtype=complex)
    for m in range(q):
        if (4 * m) % q == 0:
            roots[m] = 1j ** ((4 * m) // q)
        else:
            roots[m] = np.exp(2j * np.pi * m / q)
    k = np.arange(q)
    return roots[np.outer(k, k) % q] / np.sqrt(q)


BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def bell_state(which: str) -> QuantumState:
    """One of the four maximally entangled two-spin states."""
    which = which.lower()
    if which not in BELL_KINDS:
        raise ValueError(f"unknown bell state {which!r}, expected one of {BELL_KINDS}")
    amps = np.zeros(4, dtype=complex)
    sign = 1.0 if which.endswith("+") else -1.0
    if which.startswith("phi"):
        amps[0], amps[3] = 1.0, sign  # |++> and |-->
    else:
        amps[2], amps[1] = 1.0, sign  # |+-> and |-+>
    return QuantumState(2, amps / np.sqrt(2))


def _embed_single(op: np.ndarray, spin: int, n: int) -> np.ndarray:
    # Column j holds op[b, b] on the diagonal and op[1 - b, b] in the row of
    # j's partner with the spin's bit flipped, where b is that bit of j.
    mask = 1 << (spin - 1)
    cols = np.arange(2**n)
    bits = (cols & mask) >> (spin - 1)
    m = np.zeros((cols.size, cols.size), dtype=complex)
    m[cols, cols] = op[bits, bits]
    m[cols ^ mask, cols] = op[1 - bits, bits]
    return m


def embed(gate: Gate, n: int) -> np.ndarray:
    """Full-register unitary of a gate, identities on untouched spins."""
    if n < 1:
        raise ValueError("register needs at least one spin")
    if gate.min_spins() > n:
        raise ValueError(f"gate {gate.describe()!r} does not fit on {n} spins")
    if gate.kind in ROTATION_KINDS:
        return _embed_single(rotation_matrix(gate.kind[1], gate.angle), gate.spin, n)
    if gate.kind == "cnot":
        return _cnot_permutation(n, gate.target, gate.control, gate.condition)
    if gate.kind == "not":
        return not_all_matrix(n)
    if gate.kind == "qft":
        return qft_matrix(n)
    if gate.kind == "bellread":
        if n != 2:
            raise ValueError("bell readout is a two-spin gate")
        return bell_readout_matrix()
    raise ValueError(f"unknown gate kind {gate.kind!r}")


__all__ = [
    "Gate",
    "rx",
    "ry",
    "rz",
    "cnot",
    "not_all",
    "qft",
    "bell_readout",
    "rotation_matrix",
    "cnot_matrix",
    "not_all_matrix",
    "bell_readout_matrix",
    "qft_matrix",
    "bell_state",
    "embed",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "I2",
    "CONDITIONS",
    "BELL_KINDS",
    "MAX_QFT_SPINS",
]
