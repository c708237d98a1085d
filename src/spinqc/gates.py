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
``exp(2 pi i k x / Q) / sqrt(Q)`` for ``Q = 2**n``: numpy's normalised
inverse FFT.  ``Gate(...)`` validates itself, so the factories (``rx``,
``cnot``, ...) are shorthands.

Every gate reaches a register through one kernel, :func:`apply`: a
rotation mixes the amplitude pairs that differ in its spin's bit, a
conditional flip and the register NOT permute amplitudes, and the
Fourier transform is one FFT, so none builds a ``2^n x 2^n`` matrix.
Only the Bell readout (two spins) acts through its dense matrix.
:func:`embed` is the kernel applied to the identity, and it is the one
way to get a gate's full-register matrix: ``embed(cnot(1, 2, "minus"), 2)``
is the 4x4 conditional flip, ``embed(not_all(), n)`` the register NOT and
``embed(qft(), n)`` the Fourier transform.
"""

import math
from dataclasses import dataclass

import numpy as np

from spinqc.register import InputError, QuantumState, check_spin, check_spin_count

CONDITIONS = ("plus", "minus")
ROTATION_KINDS = ("rx", "ry", "rz")


@dataclass(frozen=True)
class Gate:
    """One symbolic circuit step, which refuses to be built invalid.

    ``kind`` is one of rx/ry/rz (fields spin, angle), cnot (fields
    target, control, condition), or the whole-register gates not, qft,
    bellread (no fields).  Spins follow the register module's spin-index
    rule and the angle is stored as a finite ``float``.  :meth:`check_fits`
    tells whether the gate fits a register.
    """

    kind: str
    spin: int | None = None
    angle: float | None = None
    target: int | None = None
    control: int | None = None
    condition: str | None = None

    def __post_init__(self):
        kind = self.kind
        if kind in ROTATION_KINDS:
            if self.target is not None or self.control is not None or self.condition is not None:
                raise ValueError(f"{kind} carries only a spin and an angle")
            angle = self.angle
            if type(angle) is not float:  # an int or a numpy scalar is stored as a float
                try:
                    object.__setattr__(self, "angle", float(angle))
                except (TypeError, ValueError, OverflowError):
                    message = f"rotation angle must be a finite real number, got {angle!r}"
                    raise ValueError(message) from None
            if not math.isfinite(self.angle):
                raise ValueError(f"rotation angle must be finite, got {self.angle!r}")
            check_spin(self.spin)
        elif kind == "cnot":
            if self.spin is not None or self.angle is not None:
                raise ValueError("cnot carries only a target, a control and a condition")
            check_spin(self.target)
            check_spin(self.control)
            if self.target == self.control:
                raise ValueError("cnot target and control must differ")
            if self.condition not in CONDITIONS:
                raise ValueError(f"condition must be one of {CONDITIONS}, got {self.condition!r}")
        elif kind not in ("not", "qft", "bellread"):
            raise ValueError(f"unknown gate kind {kind!r}")
        elif (self.spin, self.angle, self.target, self.control, self.condition) != (None,) * 5:
            raise ValueError(f"{kind} carries no spin, angle, target, control or condition")

    def check_fits(self, n: int) -> None:
        """Raise ``ValueError`` unless the gate fits on an ``n``-spin register."""
        check_spin_count(n)
        if self.spin is not None:  # a rotation
            check_spin(self.spin, n)
        elif self.target is not None:  # a cnot
            check_spin(self.target, n)
            check_spin(self.control, n)
        elif self.kind == "bellread" and n != 2:
            raise ValueError("bellread needs a two-spin register")

    def describe(self) -> str:
        """Canonical circuit-file spelling of the step."""
        if self.kind in ROTATION_KINDS:
            return f"{self.kind} {self.spin} {self.angle!r}"
        if self.kind == "cnot":
            return f"cnot {self.target} {self.control} {self.condition}"
        return self.kind


def rx(spin: int, angle: float) -> Gate:
    return Gate("rx", spin, angle)


def ry(spin: int, angle: float) -> Gate:
    return Gate("ry", spin, angle)


def rz(spin: int, angle: float) -> Gate:
    return Gate("rz", spin, angle)


def cnot(target: int, control: int, condition: str) -> Gate:
    # positional arguments, cheaper than keywords here: no spin, no angle
    return Gate("cnot", None, None, target, control, condition)


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


BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def bell_state(which: str) -> QuantumState:
    """One of the four maximally entangled two-spin states."""
    which = which.lower()
    if which not in BELL_KINDS:
        raise InputError(f"unknown bell state {which!r}, expected one of {BELL_KINDS}")
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
    the target bit flipped where the control matches, the register NOT
    reverses the basis order, and the Fourier transform is an inverse FFT
    along the basis axis.  The result is a new complex array;
    ``amplitudes`` is left alone.
    """
    gate.check_fits(n)
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
        return np.fft.ifft(amps, axis=0, norm="ortho")
    return bell_readout_matrix() @ amps  # bellread, the one kind left


def embed(gate: Gate, n: int) -> np.ndarray:
    """Full-register unitary of a gate: the kernel applied to the identity."""
    gate.check_fits(n)  # before 2**n, which is no matrix size for negative n
    return apply(gate, np.eye(2**n, dtype=complex), n)

