"""Two-layer spin-register quantum simulator.

The ideal layer provides exact gate unitaries (transverse rotations,
conditional flips, register NOT, Bell readout, Fourier transform) over
n-spin registers; the pulse layer compiles two-spin gates to resonant
rectangular pulses and checks each against its exact propagator under
the full two-spin Hamiltonian, one eigendecomposition per pulse.

Each name is imported from the module that holds it: ``spinqc.circuit``,
``gates``, ``linalg``, ``pulse``, ``register`` or ``cli``.
"""
