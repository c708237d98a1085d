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

Every gate reaches a register through one kernel, :func:`apply`: a
rotation mixes the amplitude pairs that differ in its spin's bit, a
conditional flip and the register NOT permute amplitudes, so each costs
O(2^n) per state and no ``2^n x 2^n`` matrix is built.  Only the Fourier
transform (at most six spins) and the Bell readout (two spins) act
through their dense matrices.  :func:`embed` is the kernel applied to
the identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from spinqc.linalg import _identity
from spinqc.register import QuantumState

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


def cnot_matrix(target: int, control: int, condition: str) -> np.ndarray:
    """The 4x4 conditional flip on a two-spin register."""
    gate = cnot(target, control, condition)
    if {gate.target, gate.control} != {1, 2}:
        raise ValueError("two-spin cnot matrix needs spins {1, 2}; use embed for larger registers")
    return embed(gate, 2)


def not_all_matrix(n: int) -> np.ndarray:
    """Flip every spin: the anti-diagonal permutation of all basis states."""
    return embed(not_all(), n)


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


def apply(gate: Gate, amplitudes, n: int) -> np.ndarray:
    """The gate applied to ``2^n`` amplitudes, or to each column of a ``(2^n, k)`` stack.

    A rotation is one broadcast 2x2 product over the axis of its spin's
    bit, a conditional flip gathers each amplitude from its partner with
    the target bit flipped where the control matches, and the register
    NOT reverses the basis order.  The result is a new complex array;
    ``amplitudes`` is left alone.
    """
    if n < 1:
        raise ValueError("register needs at least one spin")
    if gate.min_spins() > n:
        raise ValueError(f"gate {gate.describe()!r} does not fit on {n} spins")
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim not in (1, 2) or amps.shape[0] != 2**n:
        raise ValueError(f"amplitude shape {amps.shape} does not fit {n} spins")
    if gate.kind in ROTATION_KINDS:
        # axis 1 of the reshaped stack is the spin's bit (spin 1 varies fastest)
        op = rotation_matrix(gate.kind[1], gate.angle)
        return (op @ amps.reshape(2 ** (n - gate.spin), 2, -1)).reshape(amps.shape)
    if gate.kind == "cnot":
        index = np.arange(2**n)
        matches = ((index >> (gate.control - 1)) & 1) == (gate.condition == "minus")
        return amps[np.where(matches, index ^ (1 << (gate.target - 1)), index)]
    if gate.kind == "not":
        return amps[::-1].copy()
    if gate.kind == "qft":
        return qft_matrix(n) @ amps
    if gate.kind == "bellread":
        if n != 2:
            raise ValueError("bell readout is a two-spin gate")
        return bell_readout_matrix() @ amps
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def embed(gate: Gate, n: int) -> np.ndarray:
    """Full-register unitary of a gate: the kernel applied to the identity."""
    if n < 1:  # before 2**n, which is no matrix size for negative n
        raise ValueError("register needs at least one spin")
    return apply(gate, _identity(2**n, complex), n)


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
    "apply",
    "embed",
    "CONDITIONS",
    "BELL_KINDS",
    "MAX_QFT_SPINS",
]
