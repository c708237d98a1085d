"""Dense complex linear algebra for small spin registers.

Matrices and state vectors are plain numpy arrays with complex entries.
Distances use the max norm (largest entry magnitude).  Matrix
exponentials go through a Hermitian eigendecomposition, so propagators
are unitary by construction rather than up to a truncation error.
Energies are angular frequencies in rad/s (hbar = 1).
"""

import math

import numpy as np

HERM_TOL = 1e-9  # largest entry of h - h^dagger that expm_hermitian admits


def as_complex(a) -> np.ndarray:
    """``a`` as a complex array; a non-finite entry raises ``ValueError``."""
    arr = np.asarray(a, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries are not admitted")
    return arr


def _adjoint_of(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.swapaxes(-1, -2).conj()


def max_abs(a) -> float:
    """Largest entry magnitude (the max norm used throughout)."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def is_unitary(a, tol: float = 1e-9) -> bool:
    """True when ``a†a`` deviates from the identity by at most ``tol``.

    ``a`` may be a stack of square matrices (shape ``(..., d, d)``); the
    test then holds for every matrix in it.
    """
    a = as_complex(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"unitarity test needs a square matrix, got {a.shape}")
    d = a.shape[-1]
    gram = _adjoint_of(a) @ a
    # matmul returns a fresh C-ordered array, so this flat view steps along each diagonal
    gram.reshape(*gram.shape[:-2], d * d)[..., :: d + 1] -= 1.0
    return max_abs(gram) <= tol


def expm_hermitian(h, t: float) -> np.ndarray:
    """Propagator ``exp(-i h t)`` of a Hermitian generator.

    ``h`` is an angular frequency, so ``h t`` is a phase in radians.
    Inputs that are not Hermitian within ``HERM_TOL`` (max norm) are
    rejected, and so is a non-finite ``t``.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    h = as_complex(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"generator must be square, got {h.shape}")
    if max_abs(h - _adjoint_of(h)) > HERM_TOL:
        raise ValueError("generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    phases = np.exp(w * (-1j * t))
    return (v * phases) @ _adjoint_of(v)
