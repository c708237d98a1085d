import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from spinqc.pulse import demo_system
from spinqc.register import QuantumState


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def demo():
    return demo_system()


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QuantumState(n, v / np.linalg.norm(v))


def carrier_frame_propagator(sys_, pulse, h0, z, drive0):
    """Interaction-picture propagator of a rectangular pulse, from the closed form.

    ``h0`` is the static rotating-frame diagonal, ``z`` the diagonal
    generator of the drive phase and ``drive0`` the drive at phase zero.
    In the frame rotating at the carrier the Hamiltonian is constant; it
    is exponentiated with scipy, mapped back, and free evolution stripped.
    """
    det = pulse.carrier - sys_.omega0
    h_const = np.diag(h0) + 0.5 * det * np.diag(z) + drive0

    def d(angle):
        return np.diag(np.exp(-0.5j * angle * z))

    u_rot = (
        d(det * pulse.tau + pulse.phase).conj().T
        @ scipy.linalg.expm(-1j * h_const * pulse.tau)
        @ d(pulse.phase)
    )
    return np.diag(np.exp(1j * h0 * pulse.tau)) @ u_rot


def fold_sign(angle):
    """``(-1)^k``, for ``k`` the nearest integer to ``angle / pi`` (the double pi), ties to even.

    A compiled rotation's pulse turns by ``angle - k pi``, which is the
    gate's rotation times this sign; the quotient is taken in rationals,
    as ``math.remainder`` takes it.
    """
    return (-1) ** round(Fraction(angle) / Fraction(math.pi))


def isolated_spin_propagator(sys_, pulse, spin):
    """The textbook one-spin model: ``pulse`` drives ``spin`` as if the other spin were absent."""
    z = np.array([1.0, -1.0])
    drive0 = -(pulse.omega_p / 2) * np.array([[0.0, 1.0], [1.0, 0.0]])
    return carrier_frame_propagator(sys_, pulse, -0.5 * sys_.spin_offset(spin) * z, z, drive0)


# the circuit-file text of each named builtin, written out apart from the package
BUILTIN_FILES = {
    "ghz3": "qubits 3\nry 3 -pi/4\ncnot 2 3 minus\ncnot 1 2 minus\n",
    "bell-readout": "qubits 2\ncnot 1 2 minus\nry 2 pi/4\n",
    "not2": "qubits 2\nrx 1 pi/2\nrx 2 pi/2\n",
}
