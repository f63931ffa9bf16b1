"""Circuit-level transient simulation of coupled tunable-barrier flux qubits.

Each qubit is a superconducting storage loop (total inductance L_q + L_x,
maintained at 260 pH) interrupted by a two-junction SQUID whose loop flux
phi_t tunes the barrier.  The two junctions follow the RCSJ model with an
independent Gaussian noise current source in parallel with each.  Because
the SQUID inductors (5 pH) are tiny against the main loop, the junction
differential mode is slaved to phi_t and the qubit reduces to one
common-mode degree of freedom, the main-loop flux deviation ``phi``
measured from the half-quantum working point:

    C_eff phi'' = Ic_eff(t) sin(2 pi phi / Phi0) - I_q - G_eff phi' + I_noise

with Ic_eff(t) = 2 Ic cos(pi phi_t(t) / Phi0), C_eff = 2C, G_eff = 2/R,
I_noise the sum of the two junctions' noise currents, drawn as one value
(:class:`NoiseSpec`), and loop currents solved from
(diag(L) + M) I_q = phi - phi_bias.  At
phi_t = Phi0/2 the cosine kills the barrier (single well); at phi_t = 0
the potential is a symmetric double well and the circulating-current
sign encodes the bit: "1" is the declared clockwise-positive direction
(I_q > 0 here), "0" the counterclockwise one.  The equation is integrated
at a fixed step by a symmetric kick-drift-kick splitting with exact
damping, second order in the step (:func:`_integrate_batch`).

Sign conventions, fixed by two-qubit calibration runs and frozen below:
a positive mutual inductance aligns circulating currents, so
ferromagnetic J = -1 maps to M = +8 pH (``MUTUAL_PER_UNIT_J = -8 pH``);
the bias transformer winding is oriented so that positive I_x applies
negative flux (``BIAS_WINDING = -1``), which makes a positive energy
bias h favor the "0" state exactly as the Ising convention requires.

Bias compensation: a coupling contributes energy proportional to the
square of the well current I*(t) while a static bias flux contributes
proportionally to I*(t) itself, so a constant I_x overwhelms the
couplings early in the ramp and traps every qubit on its bias side
(verified numerically at ramps up to 32 ns).  As in production annealers,
the bias lines therefore follow the well current: the applied bias flux
is M_X I_x * I*(t)/I*, which keeps the realized h : J proportions fixed
through the anneal.  I*(t) is read off the well curve (the well position
against cos(pi phi_t / Phi0)), a constant of the one design, and I* is its
full-barrier end, where every run reads out at the static bias M_X I_x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from .gates import nor_gate
from .ising import IsingModel
from .seeds import GENERATOR_BYTES, run_batches

PHI0 = 2.067833848e-15  # flux quantum, Wb
KB = 1.380649e-23       # Boltzmann constant, J/K

#: Mutual realizing |J| = 1; the sign makes J = -1 ferromagnetic (aligning).
MUTUAL_PER_UNIT_J = -8.0e-12
#: Declared bias-transformer winding orientation (see module docstring).
BIAS_WINDING = -1.0

#: Integrator step: 0.25 ps, 30 steps per 7.4-ps plasma period and two per
#: 0.5-ps noise sample.  Chosen by weak convergence against a 12.5-fs run of
#: the same integrator (README, "Step size"): on either clamp of the inverse
#: NOR the read-out distributions pass a two-sample chi-squared test, and
#: their total variation distance is below 0.007 (95 % upper bound from
#: 5,000 paired shots).
DT_DEFAULT = 2.5e-13
RAMP_DEFAULT = 2.0e-9    # barrier ramp duration
HOLD_DEFAULT = 0.2e-9    # settle time at full barrier before read-out
DECIMATE_DEFAULT = 10    # a trace records every 10th step, 2.5 ps at DT_DEFAULT


class ShotError(RuntimeError):
    """Integrator diverged; the message gives the time and max|phi| of the
    lowest-indexed shot of the run that diverges."""


#: The one qubit design every simulated qubit shares (SI units): junction
#: critical current, shunt resistance and capacitance per junction, and the
#: bias control mutual.
IC = 4.0e-6
R_SHUNT = 3.2e3
C_SHUNT = 17e-15
M_X = 4e-12
#: Main-loop inductance: the 250-pH storage inductance (trimmed for the
#: transformers) plus the 10-pH bias-transformer section.  Kept as that sum,
#: which is not the float 260e-12: the pinned trace goldens were made with it.
L_LOOP = 250e-12 + 10e-12


def _well_positions(beta: np.ndarray) -> np.ndarray:
    """Well position x in [0, 0.5) (units of Phi0) solving x = beta sin(2 pi x).

    Zero below the bistability onset beta = 1/(2 pi).  Vectorized
    bisection; beta is an array of screening parameters L*Ic_eff/Phi0.
    """
    x_lo = np.zeros_like(beta)
    x_hi = np.full_like(beta, 0.5)
    bistable = beta > 1.0 / (2.0 * math.pi)
    for _ in range(60):
        mid = 0.5 * (x_lo + x_hi)
        f = mid - beta * np.sin(2.0 * math.pi * mid)
        high = f > 0
        x_hi = np.where(high, mid, x_hi)
        x_lo = np.where(high, x_lo, mid)
    return np.where(bistable, 0.5 * (x_lo + x_hi), 0.0)


#: The well curve, a constant of the one design: the well position x on 513
#: points of the barrier factor cos(pi phi_t / Phi0), from 0 (barrier off)
#: to 1 (full barrier), at beta = L_LOOP * 2 IC cos(pi phi_t / Phi0) / Phi0.
_BARRIER_GRID = np.linspace(0.0, 1.0, 513)
_WELL_CURVE = _well_positions(L_LOOP * 2.0 * IC / PHI0 * _BARRIER_GRID)

#: Read-out well current I* = x Phi0 / L at full barrier (phi_t = 0), the
#: well curve's last point: 3.42 uA at x = 0.430 Phi0.
I_STAR = float(_WELL_CURVE[-1]) * PHI0 / L_LOOP

#: Bias current realizing |h| = 1: 6.84 uA.  At read-out a bias adds
#: M_X I_x I* to a qubit's well energy and a mutual adds |M| I*^2 to a
#: pair's, so one unit of h equals one unit of J (|M| = 8 pH) when
#: I_x = |M| I* / M_X.
IX_PER_UNIT_H = abs(MUTUAL_PER_UNIT_J) * I_STAR / M_X


#: Noise samples per second; each sample is held for 1 / NOISE_SAMPLE_RATE.
NOISE_SAMPLE_RATE = 2.0e12


@dataclass(frozen=True)
class NoiseSpec:
    """Per-junction Gaussian current noise, held constant between samples.

    The default sigma is the Johnson-Nyquist value for the 3.2-kOhm shunt
    at 1 K over a 1-THz bandwidth, 0.1314 uA, rounded as specified for the
    reference runs to 0.13 uA, which is the Johnson value at 0.98 K; it is
    sampled at ``NOISE_SAMPLE_RATE`` (2 THz).  A qubit's two junction
    currents enter its equation only as their sum, which is normal with
    twice the variance, so one value per qubit per sample stands for both:
    a draw from N(0, 2 sigma^2).  A shot seeded ``seed`` draws its samples
    in order from ``PCG64(seed)``, so sample i's values depend on i and the
    seed alone, not on how many samples the integrator draws at a time.
    Only :func:`simulate_shot` reads ``seed``; :func:`ensemble_batches`
    seeds each shot from its master seed.
    """

    sigma: float = 0.13e-6
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.sigma!r}")


def johnson_sigma(r: float, temperature: float, bandwidth: float) -> float:
    """Johnson-Nyquist current noise std over a bandwidth: sqrt(4 kB T B / R)."""
    if r <= 0 or temperature <= 0 or bandwidth < 0:
        raise ValueError("resistance and temperature must be positive, bandwidth >= 0")
    return math.sqrt(4.0 * KB * temperature * bandwidth / r)


#: Transverse flux at the start of the ramp (barrier off, one well) and at
#: its end (full barrier, double well).
_PHI_T_START = PHI0 / 2
_PHI_T_END = 0.0


@dataclass(frozen=True)
class RampSpec:
    """Shared transverse-flux waveform: phi_t ramps linearly from Phi0/2
    (barrier off) to 0 (full barrier) over ``ramp_s``, then holds at 0 for
    ``hold_s``."""

    ramp_s: float = RAMP_DEFAULT
    hold_s: float = HOLD_DEFAULT

    def __post_init__(self):
        values = (self.ramp_s, self.hold_s)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"ramp values must be finite, got {values!r}")
        if self.ramp_s <= 0 or self.hold_s < 0:
            raise ValueError("ramp must be positive, hold >= 0")

    @property
    def total_s(self) -> float:
        return self.ramp_s + self.hold_s

    def phi_t(self, t):
        """Transverse flux at time ``t``: a float or an array of times."""
        t = np.asarray(t, dtype=float)
        ramped = _PHI_T_START + (_PHI_T_END - _PHI_T_START) * (t / self.ramp_s)
        return np.where(t >= self.ramp_s, _PHI_T_END, ramped)


@dataclass(frozen=True)
class NetworkLayout:
    """Coupled-qubit layout of the one qubit design: one bias current per
    qubit, signed mutuals."""

    i_x: tuple[float, ...]
    mutuals: dict[tuple[int, int], float] = field(default_factory=dict)
    ramp: RampSpec = field(default_factory=RampSpec)

    def __post_init__(self):
        for (i, j), m in self.mutuals.items():
            if not (0 <= i < j < self.n):
                raise ValueError(f"mutual key ({i},{j}) must satisfy 0 <= i < j < n")
            if abs(m) >= L_LOOP:
                raise ValueError(f"mutual ({i},{j}) not small against loop inductance")

    @property
    def n(self) -> int:
        return len(self.i_x)

    def inductance_matrix(self) -> np.ndarray:
        a = np.diag(np.full(self.n, L_LOOP))
        for (i, j), m in self.mutuals.items():
            a[i, j] = a[j, i] = m
        return a

    def bias_flux(self) -> np.ndarray:
        return BIAS_WINDING * M_X * np.array(self.i_x, dtype=float)


@dataclass(frozen=True)
class ShotTrace:
    """One shot of :func:`simulate_shot`: its decimated loop currents, as
    ``--trace`` writes them, and its read-out."""

    t: np.ndarray     # (n_samples,) seconds
    iq: np.ndarray    # (n_samples, n) circulating currents, A
    final_iq: tuple[float, ...]
    bits: tuple[int, ...]


def layout_from_ising(model: IsingModel, ramp: RampSpec | None = None) -> NetworkLayout:
    """Physical layout realizing an Ising model with qubits of the one design.

    M_ij = MUTUAL_PER_UNIT_J * J_ij, and the bias lines are sized so that
    the read-out Hamiltonian of qubits of the one design (``L_LOOP`` =
    260 pH loops) has h : J as given.  A qubit's field is set by its
    loop's bias current A^-1 phi_bias, A = diag(L) + M, so each bias flux
    also drives current through the coupler mutuals into its neighbours.
    With I_h = ``IX_PER_UNIT_H`` the bias current per unit of h, the bias
    currents are therefore I_x = I_h (A / L) h, i.e.

        I_x,i = I_h * (h_i + sum_j M_ij h_j / L),

    which leaves each loop's bias current at h_i * I_h M_X / L.
    Valid for the shipped gate range |h| <= 2, |J| <= 1.
    """
    h = model.h
    for i, hv in enumerate(h):
        if abs(hv) > 2.0:
            raise ValueError(f"|h[{i}]| = {abs(hv)} outside the mapped range (<= 2)")
    for (i, j), v in model.couplings.items():
        if abs(v) > 1.0:
            raise ValueError(f"|J[{i},{j}]| = {abs(v)} outside the mapped range (<= 1)")
    mutuals = {key: MUTUAL_PER_UNIT_J * v for key, v in model.couplings.items() if v != 0.0}
    drive = list(h)
    for (i, j), m in mutuals.items():
        drive[i] += m * h[j] / L_LOOP
        drive[j] += m * h[i] / L_LOOP
    return NetworkLayout(i_x=tuple(d * IX_PER_UNIT_H for d in drive), mutuals=mutuals,
                         ramp=ramp or RampSpec())


def inverse_nor_layout(clamp_bit: int, ramp: RampSpec | None = None) -> NetworkLayout:
    """``gates.nor_gate`` plus an over-biased control qubit wired to its output.

    The control qubit Q4 carries |h| = 1.1 and a ferromagnetic (J = -1)
    coupling to the output Q3, so that the read-out Hamiltonian's lowest
    states are the NOR-valid inputs with output ``clamp_bit`` (and Q4
    equal to it), every other state at least the NOR gap of 2 units
    higher: the gate anneals in the inverse direction.  In the energy
    convention a negative h favors the "1" state, so clamp_bit = 1 uses
    h4 = -1.1.  The clamp sets the ground state only; at 1 K the anneal
    freezes out with the coupling energy near 2 kT, so ensembles keep a
    share of invalid outcomes (see README).
    """
    if clamp_bit not in (0, 1):
        raise ValueError("clamp bit must be 0 or 1")
    nor = nor_gate().model
    model = IsingModel(4, nor.h + (1.1 if clamp_bit == 0 else -1.1,),
                       {**nor.couplings, (2, 3): -1.0})
    return layout_from_ising(model, ramp=ramp)


#: Most integrator steps one run may take: a 2.5-us ramp at the default
#: step, 150 times the longest run in the repository (the 16-ns ramp of the
#: README's ramp sweep, 6.5e4 steps) and about 2 minutes per shot at batch 1
#: (12 us per step on a 2-core x86 machine).
MAX_STEPS = 10_000_000

#: Steps whose barrier drive, bias share and noise-sample index are tabled
#: at a time.
_STEP_BLOCK = 4096
#: Noise samples drawn per generator at a time.  ``Generator.normal`` gives
#: the same values however a stream is split into calls, so neither block
#: size is part of the seeding contract: a shot's noise is keyed on the
#: sample index alone.
_NOISE_BLOCK = 256


def step_count(ramp: RampSpec, dt: float) -> int:
    """Integrator steps covering ``ramp`` at step ``dt``: ceil(total / dt).

    Raises ValueError unless ``dt`` is finite and in (0, hold], hold being
    the noise sample interval 1 / NOISE_SAMPLE_RATE (0.5 ps), and unless
    the run takes at most ``MAX_STEPS`` steps.  The ratio is checked
    before rounding, so an overflow to ``inf`` is rejected too."""
    hold = 1.0 / NOISE_SAMPLE_RATE
    if not (math.isfinite(dt) and 0.0 < dt <= hold):
        raise ValueError(
            f"integrator step must be in (0, {hold!r}] s, the noise hold interval; got {dt!r}"
        )
    steps = ramp.total_s / dt
    if not steps <= MAX_STEPS:
        raise ValueError(f"{ramp.total_s!r} s at a {dt!r}-s step is {steps:.3g} "
                         f"integrator steps, more than the {MAX_STEPS} allowed")
    return int(math.ceil(steps))


def _sample_index(times: np.ndarray) -> np.ndarray:
    """Noise sample read by a step starting at each of ``times``: the one
    the start time falls in.  A start within a relative 1e-12 below a
    sample boundary, the rounding of k dt in sample units, counts as on the
    boundary and reads the later sample, so at dt = hold / p, hold being
    the sample interval, step k reads sample k // p."""
    return np.floor(times * NOISE_SAMPLE_RATE * (1.0 + 1e-12)).astype(np.int64)


def _integrate_batch(
    layout: NetworkLayout,
    noise: NoiseSpec,
    ramp: RampSpec,
    dt: float,
    seeds: Sequence[int],
    record_every: int = 0,
):
    """Fixed-step integration of a batch of shots by a symmetric splitting
    of the RCSJ equation, second order in ``dt``.

    One step from t_k to t_k+1 = t_k + dt, with F(phi, t) = Ic_eff(t)
    sin(2 pi phi / Phi0) - I_q(phi, t) and the noise sample xi that t_k
    falls in (:func:`_sample_index`): a half kick vel += dt/(2 C_eff)
    (F(phi_k, t_k) + xi), a half drift phi += dt/2 vel, the exact damping
    vel *= exp(-G_eff dt / C_eff), a second half drift, and a half kick
    with F(phi_k+1, t_k+1) and the same xi (Leimkuhler & Matthews 2013).
    The end force is the next step's start force, so a step costs one
    ``sin`` and one loop-current mat-vec, and a step that reads the same
    noise sample as the step before starts with that step's second half
    kick, added again rather than recomputed.  The bias in I_q follows the
    design's well curve, normalised at full barrier, where every run reads
    out: at t = ``step_count(ramp, dt)`` dt, cos(pi phi_t / Phi0) is 1.

    Every shot carries its own noise generator, so results per shot are
    independent of how shots are grouped into batches, and so is a
    :class:`ShotError`: it reports the lowest-indexed shot that diverges,
    with that shot's own t and max|phi|.  Returns the batch
    as arrays, a row per seed in seed order: the read-out ``bits`` (int8,
    (batch, n)), the read-out currents ``final_iq`` (batch, n), and ``t``
    and ``iq``.  With ``record_every`` > 0, the loop currents of every row
    of the batch are recorded at every ``record_every``-th step and at the
    read-out step: ``t`` (samples,) and ``iq`` (samples, n, batch).
    Otherwise nothing is recorded and both are None.

    The run streams in blocks.  Each block of ``_STEP_BLOCK`` steps builds
    its own per-step inputs (barrier drive, bias share of the loop
    currents, noise sample index) elementwise, exactly as whole-run arrays
    would, and noise is drawn ``_NOISE_BLOCK`` samples per generator at a
    time.  Working memory is therefore O(n * batch * block) whatever the
    ramp length, plus the recording.

    State is qubit-major: ``phi``, ``vel``, ``iq`` and each step's noise
    row are (n, batch) arrays, so a qubit's row is contiguous, and every
    step updates them in place through preallocated buffers.  Per-shot
    arithmetic must be bit-identical for every batch size, so the
    loop-current mat-vec is an elementwise product (j, i, batch) summed
    over its leading axis, j = 0..n-1 in order.  It must not go through
    ``@``, ``matmul``, ``einsum`` or ``dot``, whose BLAS kernels may
    reorder or fuse the sums and round differently at batch 1 and batch
    200.  Summing over a non-leading axis is no safer: at batch 1 NumPy
    turns it into a pairwise sum, which reorders from 9 qubits up.
    """
    n = layout.n
    batch = len(seeds)
    n_steps = step_count(ramp, dt)
    n_samples = int(math.ceil(n_steps * dt * NOISE_SAMPLE_RATE)) + 1

    gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]

    a = layout.inductance_matrix()
    a_inv = np.linalg.inv(a)
    phi_b = layout.bias_flux()
    iq_bias = a_inv @ phi_b
    inv_c = 1.0 / (2.0 * C_SHUNT)
    g_eff = 2.0 / R_SHUNT
    ic2 = 2.0 * IC
    w = 2.0 * math.pi / PHI0
    half_kick = 0.5 * dt * inv_c
    decay = math.exp(-g_eff * dt * inv_c)
    # Both half drifts at once: dt/2 vel + dt/2 (decay vel).
    drift = 0.5 * dt * (1.0 + decay)
    # A qubit's two junction noise currents enter only as their sum.
    qubit_sigma = noise.sigma * math.sqrt(2.0)

    def force_inputs(k0: int, k1: int):
        """Times k0..k1-1: the barrier drive Ic_eff(t), as Python floats, and
        the bias share of the loop currents, the static one times I*(t)/I*."""
        cos_steps = np.cos(np.pi * ramp.phi_t(np.arange(k0, k1) * dt) / PHI0)
        bias_scale = np.interp(cos_steps, _BARRIER_GRID, _WELL_CURVE) / _WELL_CURVE[-1]
        return (ic2 * cos_steps).tolist(), (bias_scale[:, None] * iq_bias)[:, :, None]

    phi = np.zeros((n, batch))
    vel = np.zeros((n, batch))
    iq = np.empty((n, batch))
    force = np.empty((n, batch))
    tmp = np.empty((n, batch))
    kicked = np.empty((n, batch))  # the last half kick dt/(2 C_eff) (F + xi)
    ainv_t = np.repeat(a_inv.T[:, :, None], batch, axis=2)
    phi_j = phi[:, None, :]
    prod = np.empty((n, n, batch))
    noise_block = np.empty((min(_NOISE_BLOCK, n_samples), n, batch))

    mul, add, sub, add_reduce = np.multiply, np.add, np.subtract, np.add.reduce

    def update_force(drive_row: float, bias_row: np.ndarray) -> None:
        """force = drive sin(w phi) - iq, iq = A^-1 phi - bias, at phi."""
        mul(ainv_t, phi_j, out=prod)
        add_reduce(prod, axis=0, out=iq)
        sub(iq, bias_row, out=iq)
        mul(w, phi, out=force)
        np.sin(force, out=force)
        mul(drive_row, force, out=force)
        sub(force, iq, out=force)

    def half_kick_at(xi: np.ndarray) -> None:
        add(force, xi, out=kicked)
        mul(half_kick, kicked, out=kicked)

    t = rec_iq = None
    if record_every > 0:
        t = np.append(np.arange(0, n_steps, record_every), n_steps) * dt
        rec_iq = np.empty((len(t), n, batch))

    barrier_limit = 10.0 * PHI0
    noise_lo = noise_hi = 0  # noise_block holds samples [noise_lo, noise_hi)
    kicked_sample = -1  # the sample whose force and noise ``kicked`` holds
    drive, bias_iq = force_inputs(0, 1)
    update_force(drive[0], bias_iq[0])
    for k0 in range(0, n_steps, _STEP_BLOCK):
        k1 = min(k0 + _STEP_BLOCK, n_steps)
        drive, bias_iq = force_inputs(k0 + 1, k1 + 1)
        samples = _sample_index(np.arange(k0, k1) * dt).tolist()
        for j, s in enumerate(samples):
            k = k0 + j
            if record_every > 0 and k % record_every == 0:
                rec_iq[k // record_every] = iq
            while s >= noise_hi:
                noise_lo = noise_hi
                take = min(_NOISE_BLOCK, n_samples - noise_lo)
                noise_hi = noise_lo + take
                for b, g in enumerate(gens):
                    noise_block[:take, :, b] = g.normal(0.0, qubit_sigma, size=(take, n))
            # Half kick, both half drifts around the exact damping, the
            # end force, and the second half kick with the same noise.  The
            # start force is the last step's end force, so a step that reads
            # the last step's sample repeats its second half kick exactly.
            xi = noise_block[s - noise_lo]
            if s != kicked_sample:
                half_kick_at(xi)
                kicked_sample = s
            add(vel, kicked, out=vel)
            mul(drift, vel, out=tmp)
            add(phi, tmp, out=phi)
            mul(decay, vel, out=vel)
            update_force(drive[j], bias_iq[j])
            half_kick_at(xi)
            add(vel, kicked, out=vel)
            if k % 2000 == 1999 or k == n_steps - 1:
                diverged = ~(np.abs(phi) <= barrier_limit).all(axis=0)  # nan and inf too
                if diverged.any():
                    r = int(diverged.argmax())
                    if r > 0:  # a lower row may diverge later; its error wins
                        _integrate_batch(layout, noise, ramp, dt, seeds[:r])
                    raise ShotError(f"integration diverged at t={k * dt:.3e}s: max|phi|="
                                    f"{float(np.max(np.abs(phi[:, r]))):.3e}")
        del drive, bias_iq, samples  # one block's tables alive at a time

    # The last force saw the full barrier and so the static bias: iq holds
    # the read-out currents.
    if record_every > 0:
        rec_iq[-1] = iq
    return (iq.T > 0).astype(np.int8), iq.T.copy(), t, rec_iq


def simulate_shot(
    layout: NetworkLayout,
    noise: NoiseSpec,
    ramp: RampSpec | None = None,
    dt: float = DT_DEFAULT,
    decimate: int = DECIMATE_DEFAULT,
) -> ShotTrace:
    """Integrate one annealing shot seeded ``noise.seed``: the ensemble's
    kernel at batch one, recording the loop currents at every
    ``decimate``-th step and at read-out.  Returns the shot's record.

    A ``ramp`` argument overrides ``layout.ramp``; without one the layout's
    ramp is used."""
    ramp = ramp or layout.ramp
    bits, final_iq, t, iq = _integrate_batch(layout, noise, ramp, dt, [noise.seed],
                                             record_every=max(1, decimate))
    return ShotTrace(t, iq[:, :, 0], tuple(final_iq[0].tolist()), tuple(bits[0].tolist()))


@dataclass
class EnsembleResult:
    """Final-state counts over an ensemble of independent shots, folded
    batch by batch (:meth:`add`)."""

    shots: int = 0
    counts: dict[tuple[int, ...], int] = field(default_factory=dict)

    def add(self, bits: np.ndarray) -> None:
        """Fold in one batch's read-out bits, int8, a row per shot."""
        self.shots += len(bits)
        for row, times in zip(*np.unique(bits, axis=0, return_counts=True)):
            key = tuple(row.tolist())
            self.counts[key] = self.counts.get(key, 0) + int(times)

    def to_text(self) -> str:
        lines = [f"shots {self.shots}"]
        for bits, count in sorted(self.counts.items()):
            sigma = " ".join("+1" if b else "-1" for b in bits)
            lines.append(f"count {sigma} {count}")
        return "\n".join(lines) + "\n"


def _shot_bytes(n: int, n_steps: int = 0, decimate: int = 0) -> int:
    """Working memory of one shot of an ``n``-qubit batch: its generator,
    six state rows, two n x n mat-vec arrays, one noise block and, when it
    records every ``decimate``-th of ``n_steps`` steps, its ceil(n_steps /
    decimate) + 1 recorded rows (float64)."""
    rows = -(-n_steps // decimate) + 1 if decimate > 0 else 0
    return GENERATOR_BYTES + 8 * (6 * n + 2 * n * n + _NOISE_BLOCK * n + rows * n)


def ensemble_batches(
    layout: NetworkLayout,
    noise: NoiseSpec,
    ramp: RampSpec | None = None,
    n_shots: int = 200,
    master_seed: int = 0,
    dt: float = DT_DEFAULT,
    workers: int = 1,
    decimate: int = 0,
) -> Iterator[tuple]:
    """A run's batches in shot order, each as :func:`_integrate_batch`
    returns it: read-out bits and currents and, with ``decimate`` > 0, the
    loop currents recorded at every ``decimate``-th step.  The shot runner
    (:func:`qafactor.seeds.run_batches`) cuts the batches to fit the
    integrator's per-shot bytes (:func:`_shot_bytes`), the recording
    included, and hands shot k the noise seed ``shot_seed(master_seed,
    k)``; ``noise.seed`` is ignored, only ``noise.sigma`` is read.  A
    ``ramp`` argument overrides ``layout.ramp``; without one the layout's
    ramp is used.  A step or run :func:`step_count` refuses raises
    ValueError when this is called."""
    ramp = ramp or layout.ramp
    shot_bytes = _shot_bytes(layout.n, step_count(ramp, dt), decimate)
    return run_batches(partial(_integrate_batch, record_every=decimate),
                       (layout, noise, ramp, dt), n_shots, master_seed, workers, shot_bytes)


def run_ensemble(
    layout: NetworkLayout,
    noise: NoiseSpec,
    ramp: RampSpec | None = None,
    n_shots: int = 200,
    master_seed: int = 0,
    dt: float = DT_DEFAULT,
    workers: int = 1,
) -> EnsembleResult:
    """The :class:`EnsembleResult` of :func:`ensemble_batches`, untraced:
    the read-out bits counted batch by batch, so the counts do not depend
    on worker count or batch size and nothing is kept per shot."""
    result = EnsembleResult()
    for bits, *_ in ensemble_batches(layout, noise, ramp, n_shots, master_seed, dt, workers):
        result.add(bits)
    return result
