"""Resonant-pulse layer for a weakly coupled two-spin register.

Physics conventions, chosen once and used everywhere:

* Every energy is an angular frequency in rad/s (hbar = 1).
* The static Hamiltonian is diagonal in the product basis, built from
  per-spin splittings ``Omega_i = omega0 + omega_i`` plus a ``omegac``
  zz coupling.  In the frame co-rotating with the ``omega0`` precession
  the same operator appears with ``Omega_i`` replaced by ``omega_i``
  (the coupling term is frame invariant).
* A pulse is a circularly polarized drive co-rotating with the spin
  precession; on each driven spin it reads
  ``-(wp / 2) [cos(wr t + phase) X - sin(wr t + phase) Y]``.
  With this helicity a resonant rectangular pulse is an exact transverse
  rotation (there is no counter-rotating term), so the isolated-spin
  closed form below is exact rather than approximate.
* ``pulse_propagator`` gives the exact propagator of one pulse driving
  both spins of the coupled register, in the rotating frame, returned in
  the interaction picture of the static Hamiltonian, i.e. what the pulse
  did over and above free evolution.  On an isolated spin a resonant
  pulse is exactly ``exp(i theta (cos(phase) X - sin(phase) Y))`` with
  ``theta = wp tau / 2``, which a compiled rotation approaches on its
  spin; a compiled conditional-flip pulse approaches the ideal
  permutation with an ``i`` phase on the flipped pair, and its
  spectator phases are absorbed by the frame.
* Selectivity uses the rectangular-pulse bandwidth model
  ``dw = KAPPA / tau`` with the constant ``KAPPA = pi`` (half width of
  the main spectral lobe).  A transverse rotation on one spin must cover
  that spin's doublet without touching the other spin's lines
  (``omegac < dw < omega1 - omega2 - omegac``, condition 1); a
  conditional flip must resolve a single line inside a doublet
  (``dw < 2 omegac``, condition 2).  Either way the band must be wider
  than the gap between adjacent doubles at the carrier, or the rounded
  carrier cannot be trusted to sit on its line.
* :func:`compile_gate` is the one pulse compiler, and a pulse duration
  ``tau`` its only pin.  Each gate kind sets its carrier, pulse angle,
  drive phase and band window; one shared body then checks and builds
  the pulse.

A ``SpinSystem`` is its four checked numbers, and :func:`pulse_propagator`
builds the static diagonal from them.  Each line frequency is computed in
closed form, ``omega0 + (omega_s +- omegac)``, by ``SpinSystem.line``,
with the small terms summed first so the large scale is rounded once.

The propagator needs no integrator.  In the frame that rotates with the
carrier the drive of a rectangular pulse stands still at its phase, so
the Hamiltonian is constant there and one Hermitian eigendecomposition
gives the exact propagator (Vandersypen & Chuang, Rev. Mod. Phys. 76,
1037 (2004), arXiv:quant-ph/0404064); one diagonal then maps it to the
interaction picture.  The only error left is rounding on the accumulated
phase, which a precision guard estimates.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from spinqc import gates, linalg
from spinqc.register import (InputError, StateLabel, check_spin, format_keyed, read_lines,
                             read_number, read_text, round10)
# no caller here, but bench/tracing.py rebinds pulse.apply_unitary
from spinqc.register import apply_unitary  # noqa: F401

# Precision budget of one propagator in max norm.  An eigenvalue w of the
# carrier-frame Hamiltonian is known to about eps * max|H_c|, so the phase
# w * tau it contributes carries a rounding error of about
# eps * max|H_c| * tau.  The guard tests this estimate, which is not a
# bound: it has accepted propagators 1.2e-8 off an exact oracle.
CONVERGENCE_TOL = 1e-8

KAPPA = math.pi  # a rectangular pulse of length tau excites a band of half width KAPPA / tau

# Default bandwidth placement: rotations sit at the geometric mean of
# their feasibility window; conditional flips sit at f = 1/16 of the
# 2*omegac limit.  A flip on the band 2 f omegac drives its line with
# omega_p = 2 f omegac, and the unaddressed line of its doublet, 2 omegac
# away, turns by the AC-Stark phase pi f / 4 on each level, so
# 1 - F = pi^2 f^2 / 64: 6.0e-4 at f = 1/16.  From f = 1/64 to 1/4 the
# measured 1 - F stays within 5 % of the law on the demo system and on
# SpinSystem(10**(k+3), 10**k + 1, 1, 1) for k = 2..4.
CNOT_BANDWIDTH_FRACTION = 1.0 / 16.0


_EPS = np.finfo(float).eps
# A compiled conditional flip's ideal limit is its permutation times this
# mask: an ``i`` on the flipped pair (the off-diagonal entries).
FLIPPED_PAIR_PHASE = np.where(np.eye(4, dtype=bool), 1.0, 1j)
FLIPPED_PAIR_PHASE.flags.writeable = False


class FeasibilityError(ValueError):
    """Pulse mode cannot build the request.

    The gate kind has no pulse, no band meets the selectivity bounds, the
    carrier is unresolved, the compiled gate falls below the fidelity floor,
    or the circuit is not two spins.
    """


class IntegrationError(RuntimeError):
    """The rounding estimate ``max|H_c| tau eps``, not a bound, exceeds ``CONVERGENCE_TOL``."""


@dataclass(frozen=True)
class SpinSystem:
    """Angular frequencies (rad/s) of the two-spin model.

    ``omega0`` is the common Larmor scale, ``omega1 > omega2`` the
    per-spin offsets and ``omegac`` the zz coupling.
    """

    omega0: float
    omega1: float
    omega2: float
    omegac: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.omega0, self.omega1, self.omega2, self.omegac))):
            raise ValueError("system parameters must be finite")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if not self.omega1 > self.omega2 > 0:
            raise ValueError("need omega1 > omega2 > 0")
        if self.omegac <= 0:
            raise ValueError("omegac must be positive")
        if self.omegac > self.omega0 / 100.0:
            raise ValueError("weak coupling requires omegac <= omega0 / 100")
        if self.omega1 - self.omega2 < 4.0 * self.omegac:
            raise ValueError(
                "condition 1 margin: need omega1 - omega2 >= 4 * omegac, got "
                f"separation {self.omega1 - self.omega2!r} vs 4*omegac = {4.0 * self.omegac!r}"
            )
        # the first bounds every entry of the static diagonal, the second every line
        if not math.isfinite(self.omega1 + self.omega2 + self.omegac):
            raise ValueError("omega1 + omega2 + omegac overflows a double")
        if not math.isfinite(self.line(1, "+")):
            raise ValueError("the highest line omega0 + (omega1 + omegac) overflows a double")

    def spin_offset(self, spin: int) -> float:
        check_spin(spin, 2)
        return self.omega1 if spin == 1 else self.omega2

    def larmor(self, spin: int) -> float:
        """The spin's lab-frame splitting ``Omega_i = omega0 + omega_i``."""
        return self.omega0 + self.spin_offset(spin)

    def line(self, spin: int, spectator: str) -> float:
        """Frequency of the line that flips ``spin`` while the other spin sits in ``spectator``.

        ``omega0 + (omega_s +- omegac)``, ``+`` for a spectator up.  The
        offset and the coupling are summed first, so the large scale
        ``omega0`` is rounded once: the result lies within
        ``ulp(line) / 2 + ulp(omega_s +- omegac) / 2`` of the exact line.
        """
        if spectator not in ("+", "-"):
            raise ValueError(f"spectator must be '+' or '-', got {spectator!r}")
        coupling = self.omegac if spectator == "+" else -self.omegac
        return self.omega0 + (self.spin_offset(spin) + coupling)


def demo_system() -> SpinSystem:
    """Desk-scale demo parameters (invented values, not a physical system)."""
    return SpinSystem(
        omega0=2 * math.pi * 500.0,
        omega1=2 * math.pi * 25.0,
        omega2=2 * math.pi * 5.0,
        omegac=2 * math.pi * 1.0,
    )


@dataclass(frozen=True)
class TransitionLine:
    """One single-spin spectral line: which pair it connects and at what frequency."""

    frequency: float
    from_label: StateLabel
    to_label: StateLabel
    flipped_spin: int
    spectator: str  # '+' or '-': state of the non-flipping spin


@dataclass(frozen=True)
class Pulse:
    """One rectangular resonant drive; at zero amplitude, free evolution."""

    carrier: float
    omega_p: float
    tau: float
    phase: float = 0.0
    purpose: str = ""

    def __post_init__(self):
        values = (self.carrier, self.omega_p, self.tau, self.phase)
        if not all(map(math.isfinite, values)):
            raise ValueError("pulse parameters must be finite")
        if self.tau <= 0:
            raise ValueError("pulse duration must be positive")
        if self.omega_p < 0:
            raise ValueError("pulse amplitude must not be negative")


_LINE_PAIRS = (
    # (from index, to index, flipped spin, spectator sign)
    (0, 1, 1, "+"),
    (2, 3, 1, "-"),
    (0, 2, 2, "+"),
    (1, 3, 2, "-"),
)


def transition_spectrum(sys: SpinSystem) -> list[TransitionLine]:
    """The four single-spin lines, sorted by frequency.

    Transitions flipping both spins at once are left out; they are not
    driven by a transverse field at first order.
    """
    lines = [
        TransitionLine(sys.line(spin, spectator), StateLabel(2, lo), StateLabel(2, hi), spin, spectator)
        for lo, hi, spin, spectator in _LINE_PAIRS
    ]
    return sorted(lines, key=lambda line: line.frequency)


RY_AXIS_PHASE = -math.pi / 2.0  # drive phase whose transverse axis realizes ry


def compile_gate(sys: SpinSystem, gate: gates.Gate,
                 tau: float | None = None) -> tuple[Pulse, np.ndarray]:
    """Pulse and compiled-target unitary for one two-spin gate: the pulse compiler.

    Every gate is one rectangular pulse; the kinds differ only in carrier,
    angle and the window of the band ``dw = KAPPA / tau``.  An ``rx`` or
    ``ry`` drives its spin's doublet centre.  Its angle folds modulo pi into
    [-pi/2, pi/2], which moves the gate by a global phase alone, and a
    negative one turns at the opposite drive phase, so the pulse flips the
    spin by 180 degrees at most.  A rotation equal to +-I, or one too small
    for a positive amplitude ``omega_p = 2 theta / tau``, is a pulse of zero
    amplitude: free evolution, the identity in the interaction picture.  Its
    band must cover the doublet and spare the other spin's lines (condition
    1), by default at the window's geometric mean.  A ``cnot`` is a half turn
    on the line that flips the target while the control sits in the
    condition.  Its band must stay below ``2 omegac`` (condition 2), by
    default at :data:`CNOT_BANDWIDTH_FRACTION` of it.  ``tau`` is the pin, a
    positive finite number (else ``ValueError``), or ``KAPPA`` over the
    default band, and every band or carrier refusal
    (:class:`FeasibilityError`) names ``KAPPA / tau``, the band of the pulse
    it would build.  A default band of 0.0, or one too narrow for a double
    duration, gives ``tau = inf`` and the band 0.0, which no carrier
    resolves.  Each carrier is rounded once at its own scale, so it lies
    within half of ``math.ulp(carrier)`` of its line; a band no wider than
    that ulp may miss the line and is refused: near ``omega0 = 1e18`` doubles
    lie 128 rad/s apart, more than the 125 rad/s band of a flip on
    ``omegac = 1e3``.  A bad spin is refused before a band, and a band before
    a carrier.  The target is ``gates.embed(gate, 2)``, times
    :data:`FLIPPED_PAIR_PHASE` for a cnot; any other gate kind has no pulse,
    and :class:`FeasibilityError` refuses it by name.  Fidelity is not
    checked here: a ``tau`` pinned near a window edge can pass a useless
    gate, and ``circuit.simulate_schedule`` applies ``FIDELITY_FLOOR`` to
    every pulse of a schedule, pinned or not.
    """
    if tau is not None and not 0.0 < tau < math.inf:
        raise ValueError(f"pulse duration must be positive and finite, got {tau!r}")
    if gate.kind in ("rx", "ry"):
        carrier = sys.larmor(gate.spin)
        target = gates.embed(gate, 2)
        phase = 0.0 if gate.kind == "rx" else RY_AXIS_PHASE
        # Rx(a - k pi) = (-1)^k Rx(a): a global phase on the register, so the
        # half-angle folds into [-pi/2, pi/2], a flip of 180 degrees at most
        theta = math.remainder(gate.angle, math.pi)
        if theta < 0.0:
            theta, phase = -theta, phase + math.pi
        # SpinSystem's omega1 - omega2 >= 4 omegac keeps this window open
        lower, upper = sys.omegac, sys.omega1 - sys.omega2 - sys.omegac
        ceiling = ("condition 1: bandwidth {dw!r} must stay below omega1 - omega2 - omegac "
                   "= {upper!r} to spare the other spin's lines")
        # sqrt(lower * upper) from the mantissas: the same bits wherever the
        # product is a normal double, and exact under scaling by 4**k beyond
        (m_lower, e_lower), (m_upper, e_upper) = math.frexp(lower), math.frexp(upper)
        e = e_lower + e_upper
        band = math.ldexp(math.sqrt(math.ldexp(m_lower * m_upper, e % 2)), e // 2)
        purpose = f"{gate.kind}:{gate.spin}"
    elif gate.kind == "cnot":
        carrier = sys.line(gate.target, "-" if gate.condition == "minus" else "+")
        target = gates.embed(gate, 2) * FLIPPED_PAIR_PHASE
        theta, phase = math.pi / 2.0, 0.0
        lower, upper = -math.inf, 2.0 * sys.omegac  # condition 2 has no floor
        ceiling = ("condition 2: bandwidth {dw!r} must stay below 2 * omegac = {upper!r} "
                   "to address a single line of the doublet")
        band = upper * CNOT_BANDWIDTH_FRACTION
        purpose = f"cnot:{gate.target}:{gate.control}:{gate.condition}"
    else:
        raise FeasibilityError(f"gate not pulse-compilable: {gate.describe()}")
    if tau is None:
        tau = KAPPA / band if band else math.inf
    dw = KAPPA / tau  # the band of the pulse it would build, 0.0 for an endless one
    if dw <= lower:
        raise FeasibilityError(
            f"condition 1: bandwidth {dw!r} must exceed omegac = {lower!r} "
            "to cover both lines of the target doublet"
        )
    if dw >= upper:
        raise FeasibilityError(ceiling.format(dw=dw, upper=upper))
    if math.ulp(carrier) >= dw:
        raise FeasibilityError(
            f"carrier {carrier!r} has a resolution of {math.ulp(carrier)!r} in double "
            f"precision, not below the bandwidth {dw!r}"
        )
    return Pulse(carrier, 2.0 * theta / tau, tau, phase, purpose), target


def pulse_propagator(sys: SpinSystem, pulse: Pulse, scope: str) -> np.ndarray:
    """Exact propagator of one pulse, in the interaction picture.

    In the frame that rotates with the carrier the drive stands still at
    its phase, so the Hamiltonian is the constant ``H_c``: the static
    diagonal shifted by the detuning, and ``-(wp / 2) e^{i phase}`` on
    each entry above it that flips one spin (its conjugate below).  One
    diagonal, ``exp(i diag(H_c) tau)``, then maps ``exp(-i H_c tau)`` to
    the interaction picture of the static Hamiltonian: what the pulse did
    over and above free evolution.  The drive reaches both spins:
    ``scope`` must be ``"both-spins"`` (else ``ValueError``).  Raises
    :class:`IntegrationError` when the rounding estimate
    ``max|H_c| tau eps`` exceeds ``CONVERGENCE_TOL``.
    """
    if scope != "both-spins":
        raise ValueError(f"drive scope must be 'both-spins', got {scope!r}")
    # the static diagonal -(omega1 z1 + omega2 z2 + omegac z1 z2) / 2 of the
    # omega0 frame, moved to the carrier frame by h (z1 + z2)
    w1, w2, wc, h = sys.omega1, sys.omega2, sys.omegac, 0.5 * (pulse.carrier - sys.omega0)
    d = (-0.5 * ((w1 + w2) + wc) + 2 * h, -0.5 * ((-w1 + w2) - wc),
         -0.5 * ((w1 - w2) - wc), -0.5 * ((-w1 - w2) + wc) - 2 * h)
    phase_span = max(0.5 * pulse.omega_p, *map(abs, d)) * pulse.tau
    rounding = phase_span * _EPS
    if rounding > CONVERGENCE_TOL:
        raise IntegrationError(
            f"propagator rounding estimate max|H_c|*tau*eps = {rounding:.3g} on a phase "
            f"of {phase_span:.3g} rad exceeds the tolerance {CONVERGENCE_TOL:g} "
            "(check the pulse parameters)"
        )
    # the drive at its phase on the four entries that flip one spin (spin 1 on bit 0)
    e = -0.5 * pulse.omega_p * cmath.exp(1j * pulse.phase)
    f = e.conjugate()
    h_carrier = np.array([[d[0], e, e, 0.0], [f, d[1], 0.0, e],
                          [f, 0.0, d[2], e], [0.0, f, f, d[3]]])
    # the one interaction-picture diagonal; near resonance its arguments stay small
    return linalg.expm_hermitian(h_carrier, pulse.tau) * np.exp(1j * np.multiply(d, pulse.tau))[:, None]


def gate_fidelity(u_sim: np.ndarray, u_ideal: np.ndarray) -> float:
    """Global-phase-insensitive overlap |Tr(u_ideal† u_sim)| / d of two unitaries.

    Both must be square, of one shape, finite and unitary within 1e-6
    (checked together as one stack), else ``ValueError``.  The trace is
    taken as the entrywise sum ``vdot(u_ideal, u_sim)``, with no product
    matrix.
    """
    u_sim = np.asarray(u_sim, dtype=complex)
    u_ideal = np.asarray(u_ideal, dtype=complex)
    if u_sim.shape != u_ideal.shape:
        raise ValueError(f"dimension mismatch: {u_sim.shape} vs {u_ideal.shape}")
    if u_sim.ndim != 2:
        raise ValueError(f"unitarity test needs a square matrix, got {u_sim.shape}")
    if not linalg.is_unitary(np.array((u_sim, u_ideal)), tol=1e-6):
        raise ValueError("gate fidelity is defined for unitaries")
    return float(abs(np.vdot(u_ideal, u_sim)) / u_sim.shape[0])


CONFIG_KEYS = ("omega0", "omega1", "omega2", "omegac")


def parse_system_config(text: str) -> SpinSystem:
    """Parse ``key=value`` lines: each of the four keys omega0..omegac exactly once."""
    values = {}
    for lineno, line in read_lines(text):
        if "=" not in line:
            raise InputError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in CONFIG_KEYS:
            raise InputError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = read_number(value.strip())
        except ValueError:
            raise InputError(f"line {lineno}: {value.strip()!r} is not a number") from None
    missing = [k for k in CONFIG_KEYS if k not in values]
    if missing:
        raise InputError(f"missing keys: {', '.join(missing)}")
    return SpinSystem(**values)


def load_system_config(path) -> SpinSystem:
    """Parse a system file, read by :func:`register.read_text`."""
    return parse_system_config(read_text(path))


def schedule_rows(pulses) -> list[dict]:
    """One dict per pulse, its numbers rounded by round10 (the interchange values)."""
    return [
        {
            "carrier": round10(p.carrier),
            "omega_p": round10(p.omega_p),
            "tau": round10(p.tau),
            "phase": round10(p.phase),
            "purpose": p.purpose or "pulse",
        }
        for p in pulses
    ]


def format_schedule(pulses) -> str:
    """One ``key=value`` line per pulse: the rows of :func:`schedule_rows`."""
    return format_keyed(schedule_rows(pulses))
