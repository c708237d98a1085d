"""Dense complex linear algebra for small spin registers.

Matrices and state vectors are plain numpy arrays with complex entries.
Distances use the max norm (largest entry magnitude).  Matrix
exponentials go through a Hermitian eigendecomposition, so propagators
are unitary by construction rather than up to a truncation error.  A
real generator is taken as real symmetric and decomposed without a
complex copy; its propagator is still complex.  Energies are angular
frequencies in rad/s (hbar = 1).
"""

import math
from functools import lru_cache

import numpy as np

HERM_TOL = 1e-9  # largest entry of h - h^dagger that expm_hermitian admits


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries are not admitted")
    return arr


def _as_complex(a) -> np.ndarray:
    return _finite(np.asarray(a, dtype=complex))


def _as_float_or_complex(a) -> np.ndarray:
    """``a`` as a float64 array when it is real, else as a complex128 one."""
    arr = np.asarray(a)
    if arr.dtype != float:
        arr = np.asarray(arr, dtype=float if arr.dtype.kind in "biuf" else complex)
    return _finite(arr)


@lru_cache(maxsize=8)
def _identity(d: int, dtype=float) -> np.ndarray:
    eye = np.eye(d, dtype=dtype)
    eye.flags.writeable = False
    return eye


def _adjoint_of(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes; a plain view for real input."""
    a_t = a.swapaxes(-1, -2)
    return a_t.conj() if a.dtype.kind == "c" else a_t


def max_abs(a) -> float:
    """Largest entry magnitude (the max norm used throughout)."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def is_unitary(a, tol: float = 1e-9) -> bool:
    """True when ``a†a`` deviates from the identity by at most ``tol``.

    ``a`` may be a stack of square matrices (shape ``(..., d, d)``); the
    test then holds for every matrix in it.
    """
    a = _as_float_or_complex(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"unitarity test needs a square matrix, got {a.shape}")
    gram = _adjoint_of(a) @ a
    gram -= _identity(a.shape[-1])
    return max_abs(gram) <= tol


def expm_hermitian(h, t: float) -> np.ndarray:
    """Propagator ``exp(-i h t)`` of a Hermitian generator.

    ``h`` is an angular frequency, so ``h t`` is a phase in radians.
    Inputs that are not Hermitian within
    ``HERM_TOL`` (max norm) are rejected, and so is a non-finite ``t``.
    A real ``h`` (symmetric within ``HERM_TOL``) is decomposed as a real
    matrix.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    h = _as_float_or_complex(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"generator must be square, got {h.shape}")
    if max_abs(h - _adjoint_of(h)) > HERM_TOL:
        raise ValueError("generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    phases = np.exp(w * (-1j * t))
    return (v * phases) @ _adjoint_of(v)
