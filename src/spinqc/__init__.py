"""Two-layer spin-register quantum simulator.

The ideal layer provides exact gate unitaries (transverse rotations,
conditional flips, register NOT, Bell readout, Fourier transform) over
n-spin registers; the pulse layer compiles two-spin gates to resonant
rectangular pulses and checks each against its exact propagator under
the full two-spin Hamiltonian, one eigendecomposition per pulse.
"""

from spinqc.circuit import (
    Circuit,
    CircuitParseError,
    ExecutionTrace,
    PulseRunResult,
    builtin_circuit,
    circuit_unitary,
    load_circuit,
    parse_circuit,
    run_ideal,
    run_pulse,
)
from spinqc.gates import (
    Gate,
    bell_readout_matrix,
    bell_state,
    cnot,
    embed,
    rotation_matrix,
    rx,
    ry,
    rz,
)
from spinqc.linalg import expm_hermitian, is_unitary, max_abs
from spinqc.pulse import (
    CompilationError,
    ConfigError,
    FeasibilityError,
    IntegrationError,
    Pulse,
    SpinSystem,
    TransitionLine,
    compile_gate,
    demo_system,
    gate_fidelity,
    load_system_config,
    pulse_propagator,
    transition_spectrum,
)
from spinqc.register import (
    NormalizationError,
    QuantumState,
    StateLabel,
    basis_state,
    format_state,
    inner_product,
    is_product_state,
)

__version__ = "0.1.0"
