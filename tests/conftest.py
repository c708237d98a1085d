import numpy as np
import pytest

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


# the circuit-file text of each named builtin, written out apart from the package
BUILTIN_FILES = {
    "ghz3": "qubits 3\nry 3 -pi/4\ncnot 2 3 minus\ncnot 1 2 minus\n",
    "bell-readout": "qubits 2\ncnot 1 2 minus\nry 2 pi/4\n",
    "not2": "qubits 2\nrx 1 pi/2\nrx 2 pi/2\n",
}
