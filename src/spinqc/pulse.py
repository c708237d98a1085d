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
  rotation (there is no counter-rotating term), which is what makes the
  closed-form checks below tight rather than approximate.
* ``pulse_propagator`` gives the exact propagator of one pulse in the
  rotating frame, returned in the interaction picture of the static
  Hamiltonian, i.e. what the pulse did over and above free evolution.
  A resonant ideal pulse is then exactly
  ``exp(i theta (cos(phase) X - sin(phase) Y))`` with
  ``theta = wp tau / 2``; a compiled conditional-flip pulse approaches
  the ideal permutation with an ``i`` phase on the flipped pair, and its
  spectator phases are absorbed by the frame.
* Selectivity uses the rectangular-pulse bandwidth model
  ``dw = kappa / tau`` with ``kappa = pi`` by default (half width of the
  main spectral lobe).  A transverse rotation on one spin must cover
  that spin's doublet without touching the other spin's lines
  (``omegac < dw < omega1 - omega2 - omegac``, condition 1); a
  conditional flip must resolve a single line inside a doublet
  (``dw < 2 omegac``, condition 2).  Either way the band must be wider
  than the gap between adjacent doubles at the carrier, or the rounded
  carrier cannot be trusted to sit on its line.

A ``SpinSystem`` derives its spectrum once: the static energies in both
frames and the four line frequencies are computed on first use, kept
on the (frozen) system as read-only values, and read by every compiled
pulse and propagator after that.

The propagator needs no integrator.  In the frame that rotates with the
carrier the drive of a rectangular pulse stands still, so the
Hamiltonian is constant there and one Hermitian eigendecomposition
gives the exact propagator (Vandersypen & Chuang, Rev. Mod. Phys. 76,
1037 (2004), arXiv:quant-ph/0404064).  The only error left is rounding
on the accumulated phase, which a precision guard bounds.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from spinqc import linalg
from spinqc.gates import Gate
from spinqc.register import StateLabel, check_spin, format_keyed, read_text, round10
# no caller here, but bench/tracing.py rebinds pulse.apply_unitary
from spinqc.register import apply_unitary  # noqa: F401

DRIVE_SCOPES = ("single-spin-ideal", "both-spins")

# Precision budget of one propagator in max norm.  An eigenvalue w of the
# carrier-frame Hamiltonian is known to about eps * max|H_c|, so the phase
# w * tau it contributes carries a rounding error of eps * max|H_c| * tau.
CONVERGENCE_TOL = 1e-8

# Default bandwidth placement: rotations sit at the geometric mean of
# their feasibility window; conditional flips keep a 1/16 safety factor
# below the 2*omegac limit, which holds the off-resonant population
# leakage (wp / 2 omegac)^2 near 0.4%.
CNOT_BANDWIDTH_FRACTION = 1.0 / 16.0


class FeasibilityError(ValueError):
    """No pulse satisfies the selectivity bounds for the request."""


class IntegrationError(RuntimeError):
    """The pulse's accumulated phase cannot be resolved to ``CONVERGENCE_TOL``."""


class ConfigError(ValueError):
    """Malformed system-parameter file."""


@dataclass(frozen=True)
class SpinSystem:
    """Angular frequencies (rad/s) of the two-spin model.

    ``omega0`` is the common Larmor scale, ``omega1 > omega2`` the
    per-spin offsets, ``omegac`` the zz coupling, and ``kappa`` the
    bandwidth constant of the rectangular-pulse model.
    """

    omega0: float
    omega1: float
    omega2: float
    omegac: float
    kappa: float = math.pi

    def __post_init__(self):
        values = (self.omega0, self.omega1, self.omega2, self.omegac, self.kappa)
        if not all(math.isfinite(v) for v in values):
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
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")

    def spin_offset(self, spin: int) -> float:
        check_spin(spin, 2)
        return self.omega1 if spin == 1 else self.omega2

    def larmor(self, spin: int) -> float:
        """The spin's lab-frame splitting ``Omega_i = omega0 + omega_i``."""
        return self.omega0 + self.spin_offset(spin)

    # Derived once per system.  cached_property stores into the instance
    # dict, which the frozen dataclass's eq, hash and repr never read.
    @cached_property
    def lab_energies(self) -> np.ndarray:
        """Read-only diagonal of the lab-frame static Hamiltonian."""
        return _energies(self.larmor(1), self.larmor(2), self.omegac)

    @cached_property
    def rotating_energies(self) -> np.ndarray:
        """Read-only diagonal of the static Hamiltonian in the omega0 frame."""
        return _energies(self.omega1, self.omega2, self.omegac)

    @cached_property
    def line_frequencies(self) -> tuple[float, ...]:
        """Frequencies of the four single-spin lines, unsorted.

        First spin 1 flips with spin 2 up, then down; then spin 2 flips
        with spin 1 up, then down.
        """
        e = self.lab_energies
        return tuple(float(e[hi] - e[lo]) for lo, hi, _, _ in _LINE_PAIRS)


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
    """One rectangular resonant drive."""

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
        if self.omega_p <= 0:
            raise ValueError("pulse amplitude must be positive")


# Spin-system-independent pieces of every Hamiltonian below.  Diagonals
# of sigma_z per spin (spin 1 on bit 0), their product and sum, and the
# real transverse operators; the one-spin register uses _Z_SINGLE.
_Z1 = np.array([1.0, -1.0, 1.0, -1.0])
_Z2 = np.array([1.0, 1.0, -1.0, -1.0])
_Z1Z2 = _Z1 * _Z2
_Z_TOTAL = _Z1 + _Z2
_Z_SINGLE = np.array([1.0, -1.0])
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_X_TOTAL = np.kron(_SIGMA_X, np.eye(2)) + np.kron(np.eye(2), _SIGMA_X)
_EPS = np.finfo(float).eps


def _energies(a1: float, a2: float, omegac: float) -> np.ndarray:
    """Read-only static diagonal for splittings ``a1``, ``a2`` and the coupling."""
    energies = -0.5 * (a1 * _Z1 + a2 * _Z2 + omegac * _Z1Z2)
    energies.flags.writeable = False
    return energies


_LINE_PAIRS = (
    # (from index, to index, flipped spin, spectator sign)
    (0, 1, 1, "+"),
    (2, 3, 1, "-"),
    (0, 2, 2, "+"),
    (1, 3, 2, "-"),
)
# line index by (flipped spin, spectator sign)
_LINE_INDEX = {pair[2:]: k for k, pair in enumerate(_LINE_PAIRS)}


def transition_spectrum(sys: SpinSystem) -> list[TransitionLine]:
    """The four single-spin lines, sorted by frequency.

    Transitions flipping both spins at once are left out; they are not
    driven by a transverse field at first order.
    """
    lines = [
        TransitionLine(frequency, StateLabel(2, lo), StateLabel(2, hi), spin, spectator)
        for frequency, (lo, hi, spin, spectator) in zip(sys.line_frequencies, _LINE_PAIRS)
    ]
    return sorted(lines, key=lambda line: line.frequency)


def _resolved(sys: SpinSystem, p: Pulse) -> Pulse:
    """The pulse, unless a double cannot place its carrier inside its own band.

    The carrier's resolution is ``math.ulp(carrier)``, the gap to the next
    double; at or above the bandwidth ``kappa / tau`` the rounded carrier
    may miss the line it was meant for (``FeasibilityError``).  Near
    ``omega0 = 1e18`` doubles lie 128 rad/s apart, more than the 125 rad/s
    band of a conditional flip on a coupling ``omegac = 1e3``.
    """
    dw = sys.kappa / p.tau
    resolution = math.ulp(p.carrier)
    if resolution >= dw:
        raise FeasibilityError(
            f"carrier {p.carrier!r} has a resolution of {resolution!r} in double precision, "
            f"not below the bandwidth {dw!r}"
        )
    return p


def compile_rotation(
    sys: SpinSystem,
    spin: int,
    axis_phase: float,
    theta: float,
    omega_p: float | None = None,
    bandwidth: float | None = None,
    purpose: str = "",
) -> Pulse:
    """Pulse for a transverse rotation of one spin by half-angle ``theta``.

    The carrier sits on the spin's doublet center and the duration obeys
    ``tau = 2 theta / omega_p``.  The bandwidth must cover the doublet
    while excluding the other spin's lines (condition 1); callers may
    pin either ``omega_p`` or ``bandwidth``, otherwise the bandwidth is
    placed at the geometric mean of the feasibility window.  A zero or
    negative ``omega_p`` is not a pulse (``ValueError``); a bandwidth at
    or below ``omegac``, zero included, fails condition 1, and one no wider
    than the carrier's double-precision resolution is refused too.
    """
    carrier = sys.larmor(spin)
    theta = float(theta)
    if not (math.isfinite(theta) and 0.0 < theta <= 2.0 * math.pi):
        raise ValueError(f"theta must lie in (0, 2*pi], got {theta!r}")
    if omega_p is not None and bandwidth is not None:
        raise ValueError("pin at most one of omega_p and bandwidth")
    # SpinSystem's omega1 - omega2 >= 4 omegac keeps this window open
    lower = sys.omegac
    upper = sys.omega1 - sys.omega2 - sys.omegac
    if omega_p is not None:
        omega_p = float(omega_p)
        if omega_p <= 0.0:
            raise ValueError("pulse amplitude must be positive")
        tau = 2.0 * theta / omega_p
        dw = sys.kappa / tau if tau != 0.0 else math.inf
    else:
        dw = math.sqrt(lower * upper) if bandwidth is None else float(bandwidth)
    if dw <= lower:
        raise FeasibilityError(
            f"condition 1: bandwidth {dw!r} must exceed omegac = {lower!r} "
            "to cover both lines of the target doublet"
        )
    if dw >= upper:
        raise FeasibilityError(
            f"condition 1: bandwidth {dw!r} must stay below omega1 - omega2 - omegac "
            f"= {upper!r} to spare the other spin's lines"
        )
    if omega_p is None:
        tau = sys.kappa / dw
    return _resolved(sys, Pulse(
        carrier=carrier,
        omega_p=2.0 * theta / tau,
        tau=tau,
        phase=float(axis_phase),
        purpose=purpose,
    ))


def compile_cnot(
    sys: SpinSystem,
    target: int,
    control: int,
    condition: str,
    tau: float | None = None,
    purpose: str = "",
) -> Pulse:
    """Half-turn pulse on the single line selected by the control condition.

    The carrier is the transition that flips ``target`` while
    ``control`` sits in ``condition``; ``omega_p tau / 2 = pi / 2``.
    Selectivity demands a bandwidth below the doublet splitting
    (condition 2) and wider than the carrier's double-precision
    resolution.  A zero ``tau`` is not a pulse (``ValueError``).
    """
    Gate.check_cnot(target, control, condition, n=2)
    limit = 2.0 * sys.omegac
    if tau is None:
        tau = sys.kappa / (limit * CNOT_BANDWIDTH_FRACTION)
    tau = float(tau)
    if tau == 0.0:
        raise ValueError("pulse duration must be positive")
    dw = sys.kappa / tau
    if dw >= limit:
        raise FeasibilityError(
            f"condition 2: bandwidth {dw!r} must stay below 2 * omegac = {limit!r} "
            "to address a single line of the doublet"
        )
    k = _LINE_INDEX[target, "-" if condition == "minus" else "+"]
    return _resolved(sys, Pulse(
        carrier=sys.line_frequencies[k],
        omega_p=math.pi / tau,
        tau=tau,
        phase=0.0,
        purpose=purpose,
    ))


def pulse_propagator(sys: SpinSystem, pulse: Pulse, scope: str) -> np.ndarray:
    """Exact propagator of one pulse, in the interaction picture.

    With ``D(a) = exp(-i a z_total / 2)`` the rotating-frame drive at
    phase angle ``a(t) = phase + detuning t`` is ``D(a)† drive0 D(a)``,
    and ``D`` commutes with the static part ``h0``.  In the carrier
    frame the Hamiltonian is the constant ``H_c = h0 + detuning z_total
    / 2 + drive0``, so ``U_rot = D(a(tau))† exp(-i tau H_c) D(phase)``.
    Stripping the static-Hamiltonian phases then leaves the pulse's
    action relative to free evolution.  Raises :class:`IntegrationError`
    when rounding on the phase ``max|H_c| tau`` exceeds ``CONVERGENCE_TOL``.
    """
    if scope == "single-spin-ideal":
        # treat the driven spin as isolated: the textbook one-spin model
        spin = min((1, 2), key=lambda s: abs(sys.larmor(s) - pulse.carrier))
        h0 = -0.5 * sys.spin_offset(spin) * _Z_SINGLE
        z_total, transverse = _Z_SINGLE, _SIGMA_X
    elif scope == "both-spins":
        h0 = sys.rotating_energies
        z_total, transverse = _Z_TOTAL, _X_TOTAL
    else:
        raise ValueError(f"drive scope must be one of {DRIVE_SCOPES}, got {scope!r}")
    carrier_diag = h0 + (0.5 * (pulse.carrier - sys.omega0)) * z_total
    h_carrier = (-0.5 * pulse.omega_p) * transverse
    # the drive has a zero diagonal, so H_c stays real symmetric
    h_carrier.flat[:: len(carrier_diag) + 1] = carrier_diag
    phase_span = linalg.max_abs(h_carrier) * pulse.tau
    rounding = phase_span * _EPS
    if rounding > CONVERGENCE_TOL:
        raise IntegrationError(
            f"propagator cannot converge to {CONVERGENCE_TOL:g}: rounding on the "
            f"accumulated phase {phase_span:.3g} rad is {rounding:.3g} "
            "(check the pulse parameters)"
        )
    u_carrier = linalg.expm_hermitian(h_carrier, pulse.tau)
    # exp(i h0 tau) D(a(tau))† is one diagonal, the carrier-frame phases
    # times D(phase)†; near resonance their arguments stay small.
    half_phase = (0.5 * pulse.phase) * z_total
    left = np.exp(1j * (carrier_diag * pulse.tau + half_phase))
    u_carrier *= left[:, None]
    u_carrier *= np.exp(-1j * half_phase)
    return u_carrier


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
    """Parse ``key=value`` lines (keys omega0..omegac, optional kappa)."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in CONFIG_KEYS + ("kappa",):
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise ConfigError(f"line {lineno}: {value.strip()!r} is not a number") from None
    missing = [k for k in CONFIG_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    return SpinSystem(**values)


def load_system_config(path) -> SpinSystem:
    """Parse a system file, read by :func:`register.read_text`."""
    return parse_system_config(read_text(path, ConfigError))


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
