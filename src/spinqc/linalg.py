"""Dense complex linear algebra for small spin registers.

Matrices and state vectors are plain numpy arrays with complex entries.
Distances use the max norm (largest entry magnitude), and the tensor
product layout is fixed to the register convention where spin 1 is the
fastest-varying basis index (see the register module).  Matrix
exponentials go through a Hermitian eigendecomposition, so propagators
are unitary by construction rather than up to a truncation error.  A
real generator is taken as real symmetric and decomposed without a
complex copy; its propagator is still complex.
"""

from functools import lru_cache

import numpy as np

# Energies are angular frequencies (rad/s).  hbar cancels in every
# propagator but is kept so the formulas read like the physics.
HBAR = 1.0


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
def _identity(d: int) -> np.ndarray:
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def kron(a, b) -> np.ndarray:
    """Tensor product with ``a`` acting on spin 1 and ``b`` on spin 2.

    Because spin 1 varies fastest, the factor on the lower spin sits in
    the reversed slot of numpy.kron: ``kron(r, eye(2))`` is block
    diagonal with two copies of ``r``, while ``kron(eye(2), r)`` has the
    ``r[i, j] * eye(2)`` block pattern.
    """
    return np.kron(_as_complex(b), _as_complex(a))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return _as_complex(a).conj().T


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
    gram = np.swapaxes(a.conj(), -1, -2) @ a
    return max_abs(gram - _identity(a.shape[-1])) <= tol


def expm_hermitian(h, t: float, herm_tol: float = 1e-9) -> np.ndarray:
    """Propagator ``exp(-i h t / hbar)`` of a Hermitian generator.

    ``h`` carries energy; it is divided by hbar internally so only
    angular frequencies appear.  Inputs that are not Hermitian within
    ``herm_tol`` (max norm) are rejected.  A real ``h`` (symmetric within
    ``herm_tol``) is decomposed as a real matrix.
    """
    h = _as_float_or_complex(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"generator must be square, got {h.shape}")
    if max_abs(h - h.conj().T) > herm_tol:
        raise ValueError("generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * w * (float(t) / HBAR))
    return (v * phases) @ v.conj().T


def global_phase_between(a, b):
    """Unit scalar ``lam`` with ``a ≈ lam * b``, or None when undefined.

    The candidate phase is read off at the largest-magnitude entry of
    ``b``; callers still need to check the residual.
    """
    a = _as_complex(a)
    b = _as_complex(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape) if b.size else None
    if idx is None or abs(b[idx]) == 0.0 or abs(a[idx]) == 0.0:
        return None
    lam = a[idx] / b[idx]
    return lam / abs(lam)


def equal_up_to_global_phase(a, b, tol: float = 1e-9) -> bool:
    """True when a unit scalar ``lam`` exists with ``max_abs(a - lam b) <= tol``."""
    a = _as_complex(a)
    b = _as_complex(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    lam = global_phase_between(a, b)
    if lam is None:
        return max_abs(a) <= tol and max_abs(b) <= tol
    return max_abs(a - lam * b) <= tol
