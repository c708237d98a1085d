"""Spin-register labels, normalized state vectors, and entanglement tests.

A register of n spins is written spin 1 first.  The three equivalent
spellings of one two-spin basis state are::

    sign string   bit string   integer
    ++            00           0
    -+            10           1
    +-            01           2
    --            11           3

Signs map + to bit 0 and - to bit 1; the bit string is read as a
little-endian binary number (spin 1 is the least significant bit).
Basis vectors are indexed the same way: basis index i has spin k down
exactly when bit k-1 of i is set.
"""

from dataclasses import dataclass

import numpy as np

from spinqc.linalg import _as_complex

NORM_TOL = 1e-9
PRINT_THRESHOLD = 1e-12


class NormalizationError(ValueError):
    """A state left the unit sphere beyond tolerance."""


def format_number(x: float) -> str:
    """Render a float with 10 significant digits (the interchange format)."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.10g}"


def round10(x: float) -> float:
    """The float actually printed by :func:`format_number`, as a value."""
    return float(format_number(x))


def _format_value(v) -> str:
    return format_number(v) if isinstance(v, float) else str(v)


def format_keyed(rows) -> str:
    """One ``key=value`` line per row dict, in the row's key order."""
    return "\n".join(
        " ".join(f"{key}={_format_value(v)}" for key, v in row.items()) for row in rows
    )


@dataclass(frozen=True)
class StateLabel:
    """One basis state of an n-spin register, stored as (n, integer value)."""

    n: int
    value: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("label needs at least one spin")
        if not 0 <= self.value < 2**self.n:
            raise ValueError(f"label value {self.value} out of range for n={self.n}")

    @classmethod
    def parse(cls, text: str) -> "StateLabel":
        """Parse a sign string like ``-+`` or a bit string like ``10``."""
        text = text.strip()
        if not text:
            raise ValueError("empty state label")
        if set(text) <= {"+", "-"}:
            bits = [1 if c == "-" else 0 for c in text]
        elif set(text) <= {"0", "1"}:
            bits = [int(c) for c in text]
        else:
            raise ValueError(f"state label must be +/- signs or 0/1 bits: {text!r}")
        value = sum(b << k for k, b in enumerate(bits))
        return cls(n=len(text), value=value)

    def spin_bit(self, spin: int) -> int:
        """Bit of the given spin (1 means the spin points down)."""
        if not 1 <= spin <= self.n:
            raise ValueError(f"spin {spin} out of range 1..{self.n}")
        return (self.value >> (spin - 1)) & 1

    @property
    def bits(self) -> str:
        return "".join(str(self.spin_bit(k)) for k in range(1, self.n + 1))

    @property
    def signs(self) -> str:
        return "".join("-" if self.spin_bit(k) else "+" for k in range(1, self.n + 1))

    def __str__(self) -> str:
        return self.signs


@dataclass(frozen=True)
class QuantumState:
    """Normalized amplitudes of an n-spin register (immutable)."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amplitudes).copy()
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be one vector, got shape {amps.shape}")
        if self.n < 1:
            raise ValueError("state needs at least one spin")
        if amps.size != 2**self.n:
            raise ValueError(f"expected {2**self.n} amplitudes, got {amps.size}")
        total = float(np.sum(np.abs(amps) ** 2))
        if abs(total - 1.0) > NORM_TOL:
            raise NormalizationError(f"squared amplitudes sum to {total!r}, not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def label(self, index: int) -> StateLabel:
        return StateLabel(self.n, index)


def basis_state(n: int, label) -> QuantumState:
    """Unit vector for one basis label of an n-spin register."""
    if isinstance(label, str):
        label = StateLabel.parse(label)
    if label.n != n:
        raise ValueError(f"label has {label.n} spins, register has {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[label.value] = 1.0
    return QuantumState(n, amps)


def inner_product(a: QuantumState, b: QuantumState) -> complex:
    """Hermitian inner product <a|b>."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n} spins")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply_unitary(state: QuantumState, u: np.ndarray) -> QuantumState:
    """Apply a unitary; the result is re-validated, never renormalized."""
    u = _as_complex(u)
    if u.shape != (2**state.n, 2**state.n):
        raise ValueError(f"operator shape {u.shape} does not fit {state.n} spins")
    return QuantumState(state.n, u @ state.amplitudes)


def _cut_axes(n: int, cut) -> tuple[list[int], list[int]]:
    group = sorted(set(int(s) for s in cut))
    if not group or any(not 1 <= s <= n for s in group) or len(group) == n:
        raise ValueError(f"cut must be a non-empty proper subset of spins 1..{n}")
    rest = [s for s in range(1, n + 1) if s not in group]
    # axis j of the reshaped amplitude tensor corresponds to spin n - j
    return [n - s for s in group], [n - s for s in rest]


def is_product_state(state: QuantumState, cut, tol: float = 1e-9) -> bool:
    """Purity test across a bipartition of the spins.

    ``cut`` lists the spins of one side.  The amplitude vector is
    reshaped along the cut and the reduced-state purity is computed from
    the singular values; the state counts as a product when the purity
    exceeds ``1 - tol``.
    """
    axes_a, axes_b = _cut_axes(state.n, cut)
    tensor = state.amplitudes.reshape([2] * state.n)
    matrix = tensor.transpose(axes_a + axes_b).reshape(2 ** len(axes_a), -1)
    s = np.linalg.svd(matrix, compute_uv=False)
    purity = float(np.sum(s**4))
    return purity > 1.0 - tol


def state_rows(state: QuantumState) -> list[list]:
    """[signs, bits, integer, re, im] per amplitude of size >= PRINT_THRESHOLD, via round10."""
    rows = []
    for i, amp in enumerate(state.amplitudes):
        if abs(amp) < PRINT_THRESHOLD:
            continue
        label = state.label(i)
        rows.append([label.signs, label.bits, label.value,
                     round10(amp.real), round10(amp.imag)])
    return rows


def format_state(state: QuantumState) -> str:
    """The rows of :func:`state_rows`, one space-separated line each."""
    return "\n".join(" ".join(_format_value(v) for v in row) for row in state_rows(state))
