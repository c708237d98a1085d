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

This module holds the two register rules that every layer calls: a spin
count is a positive ``int`` (:func:`check_spin_count`), and a spin index
is a positive ``int``, at most n when a register size n is given
(:func:`check_spin`).  Both test ``type(x) is int``, so a ``bool``, a
float or a numpy integer is refused.  It also holds the one reader of
user text, :func:`read_text` for files, :func:`read_lines` for the lines
that carry something and :func:`read_number` for each number written in
them or in a builtin name, and its one refusal,
:class:`InputError`: each module that reads user input raises it for
malformed input, and the command line maps it to exit code 1.
"""

import re
from dataclasses import dataclass

import numpy as np

from spinqc.linalg import as_complex

NORM_TOL = 1e-9
PRINT_THRESHOLD = 1e-12
PURITY_TOL = 1e-9
_BITS_TO_SIGNS = str.maketrans("01", "+-")
_SIGNS_TO_BITS = str.maketrans("+-", "01")
_DIGITS = re.compile("0|[1-9][0-9]*")


class NormalizationError(ValueError):
    """A state left the unit sphere beyond tolerance."""


class InputError(ValueError):
    """Malformed user input: a file, a builtin name, an input spec or an option."""


def check_spin_count(n) -> None:
    """Refuse any spin count that is not a positive ``int``."""
    if type(n) is not int or n < 1:
        raise ValueError(f"spin count must be a positive integer, got {n!r}")


def check_spin(spin, n: int | None = None) -> None:
    """Refuse any spin index that is not a positive ``int``, or above ``n`` when given."""
    if type(spin) is not int or spin < 1:
        raise ValueError(f"spin index must be a positive integer, got {spin!r}")
    if n is not None and spin > n:
        raise ValueError(f"spin {spin} out of range 1..{n}")


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


def read_text(path) -> str:
    """A UTF-8 file's text, byte-order mark or not.

    Other bytes raise ``InputError`` naming the path.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {exc}") from None


def read_lines(text: str):
    """``(lineno, line)`` per line of user text, numbered from 1.

    Each line is cut at its first ``#`` and stripped; a line left blank is
    skipped.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_number(token: str, kind: type = float):
    """``kind(token)`` for a number as a user writes it: ASCII, with no ``_``.

    ``int`` and ``float`` alone also read ``1_0`` as 10 and a non-ASCII
    digit such as the Arabic-Indic one (U+0661) as 1; here both raise
    ``ValueError``.  An ``int`` is ``0`` or digits with no leading zero:
    ``int`` alone also takes a sign, surrounding spaces and ``01``.
    ``inf`` and ``nan`` pass, for the callers' finite checks.
    """
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII number without '_': {token!r}")
    if kind is int and not _DIGITS.fullmatch(token):
        raise ValueError(f"not digits alone without a leading zero: {token!r}")
    return kind(token)


@dataclass(frozen=True)
class StateLabel:
    """One basis state of an n-spin register, stored as (n, integer value)."""

    n: int
    value: int

    def __post_init__(self):
        check_spin_count(self.n)
        if type(self.value) is not int or not 0 <= self.value < 2**self.n:
            raise ValueError(f"label value must be an integer in 0..{2**self.n - 1}, "
                             f"got {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> "StateLabel":
        """Parse a sign string like ``-+`` or a bit string like ``10``."""
        text = text.strip()
        if not text:
            raise ValueError("empty state label")
        if set(text) <= {"+", "-"}:
            text = text.translate(_SIGNS_TO_BITS)
        elif not set(text) <= {"0", "1"}:
            raise ValueError(f"state label must be +/- signs or 0/1 bits: {text!r}")
        return cls(n=len(text), value=int(text[::-1], 2))

    @property
    def bits(self) -> str:
        return format(self.value, f"0{self.n}b")[::-1]

    @property
    def signs(self) -> str:
        return self.bits.translate(_BITS_TO_SIGNS)


@dataclass(frozen=True)
class QuantumState:
    """Normalized amplitudes of an n-spin register (immutable)."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = as_complex(self.amplitudes).copy()
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be one vector, got shape {amps.shape}")
        check_spin_count(self.n)
        if amps.size != 2**self.n:
            raise ValueError(f"expected {2**self.n} amplitudes, got {amps.size}")
        total = float(np.sum(np.abs(amps) ** 2))
        if abs(total - 1.0) > NORM_TOL:
            raise NormalizationError(f"squared amplitudes sum to {total!r}, not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def basis_state(n: int, label) -> QuantumState:
    """Unit vector for one basis label of an n-spin register."""
    if isinstance(label, str):
        label = StateLabel.parse(label)
    if label.n != n:
        raise ValueError(f"label has {label.n} spins, register has {n}")
    amps = np.zeros(2**label.n, dtype=complex)
    amps[label.value] = 1.0
    return QuantumState(n, amps)


def inner_product(a: QuantumState, b: QuantumState) -> complex:
    """Hermitian inner product <a|b>."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n} spins")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply_unitary(state: QuantumState, u: np.ndarray) -> QuantumState:
    """Apply a unitary; the result is re-validated, never renormalized."""
    u = as_complex(u)
    if u.shape != (2**state.n, 2**state.n):
        raise ValueError(f"operator shape {u.shape} does not fit {state.n} spins")
    return QuantumState(state.n, u @ state.amplitudes)


def _cut_axes(n: int, cut) -> tuple[list[int], list[int]]:
    cut = list(cut)
    for spin in cut:
        check_spin(spin, n)
    group = sorted(set(cut))
    if not group or len(group) == n:
        raise ValueError(f"cut must be a non-empty proper subset of spins 1..{n}")
    rest = [s for s in range(1, n + 1) if s not in group]
    # axis j of the reshaped amplitude tensor corresponds to spin n - j
    return [n - s for s in group], [n - s for s in rest]


def is_product_state(state: QuantumState, cut) -> bool:
    """Purity test across a bipartition of the spins.

    ``cut`` lists the spins of one side.  The amplitude vector is
    reshaped along the cut and the reduced-state purity is computed from
    the singular values; the state counts as a product when the purity
    exceeds ``1 - PURITY_TOL``.
    """
    axes_a, axes_b = _cut_axes(state.n, cut)
    tensor = state.amplitudes.reshape([2] * state.n)
    matrix = tensor.transpose(axes_a + axes_b).reshape(2 ** len(axes_a), -1)
    s = np.linalg.svd(matrix, compute_uv=False)
    purity = float(np.sum(s**4))
    return purity > 1.0 - PURITY_TOL


def state_rows(state: QuantumState) -> list[list]:
    """[signs, bits, integer, re, im] per amplitude, each part via round10.

    A real or imaginary part below PRINT_THRESHOLD is rounding noise and
    reads 0; an amplitude whose two parts both read 0 has no row.
    """
    rows = []
    for i, amp in enumerate(state.amplitudes):
        parts = [round10(x) if abs(x) >= PRINT_THRESHOLD else 0.0 for x in (amp.real, amp.imag)]
        if any(parts):
            label = StateLabel(state.n, i)
            rows.append([label.signs, label.bits, i, *parts])
    return rows


def format_state(state: QuantumState) -> str:
    """The rows of :func:`state_rows`, one space-separated line each."""
    return "\n".join(" ".join(_format_value(v) for v in row) for row in state_rows(state))
