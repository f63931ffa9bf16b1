import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from qafactor.fluxsim import I_STAR, IC, KB, L_LOOP, MUTUAL_PER_UNIT_J, PHI0
from qafactor.ising import IsingModel, energies

#: Noise temperature, K: the nominal one of NoiseSpec's default sigma, the
#: 3.2-kOhm shunt's Johnson current over 1 THz rounded to 0.13 uA, which is
#: the Johnson value at 0.98 K.
T_NOISE = 1.0


def quarter_grid(lo=-2.0, hi=2.0):
    """Floats on the 1/4 grid: dyadic, so energy algebra is exact."""
    steps = int((hi - lo) / 0.25)
    return st.integers(0, steps).map(lambda k: lo + 0.25 * k)


def random_model(n: int, seed: int) -> IsingModel:
    """Dense-ish model with non-dyadic coefficients, so field sums round."""
    rng = random.Random(seed)
    h = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
    couplings = {(i, j): rng.uniform(-1.0, 1.0)
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    return IsingModel(n, h, couplings)


def state_energies(model: IsingModel, *states) -> list[float]:
    """H of each +-1 state, one column each of the package's one kernel."""
    spins = np.array(states, dtype=np.int8).reshape(len(states), model.n).T
    return energies(model, spins).tolist()


def potential_minima(barrier: float) -> np.ndarray:
    """Main-loop fluxes, in units of Phi0, at the strict local minima of a
    bare qubit's potential U = phi^2 / 2L + Ej cos(2 pi phi / Phi0), where
    Ej = 2 Ic Phi0 / 2 pi times the barrier factor cos(pi phi_t / Phi0).

    A scan of 3001 points, 0.001 Phi0 apart, over +-1.5 Phi0: the oracle
    for the well curve the integrator reads out, which bisects for the same
    minima.
    """
    ej = (PHI0 / (2.0 * math.pi)) * 2.0 * IC * barrier
    x = np.linspace(-1.5, 1.5, 3001)
    u = (x * PHI0) ** 2 / (2.0 * L_LOOP) + ej * np.cos(2.0 * math.pi * x)
    interior = (u[1:-1] < u[:-2]) & (u[1:-1] < u[2:])
    return x[1:-1][interior]


def j_unit_kt():
    """Energy of one unit of J at read-out, |M| I*^2, in units of kT at the
    default noise temperature; I* is the bare full-barrier well current."""
    return abs(MUTUAL_PER_UNIT_J) * I_STAR ** 2 / (KB * T_NOISE)


def readout_wells(layout):
    """Energy of every read-out well of ``layout``, in units of kT.

    The potential is the one whose gradient drives the integrator, at full
    barrier (phi_t = 0) with the bias at its read-out value:
    U = (phi - phi_b)^T A^-1 (phi - phi_b) / 2 + sum_i Ej cos(2 pi phi_i / Phi0),
    Ej = 2 Ic Phi0 / 2 pi.  Each of the 2^n wells is located by Newton's
    method from the bare wells at +-x Phi0 = +-I* L and keyed by its
    read-out bits.
    """
    a_inv = np.linalg.inv(layout.inductance_matrix())
    phi_b = layout.bias_flux()
    ic2 = 2.0 * IC
    w = 2.0 * math.pi / PHI0
    start = np.full(layout.n, I_STAR * L_LOOP)
    kt = KB * T_NOISE
    wells = {}
    for bits in itertools.product((0, 1), repeat=layout.n):
        phi = np.where(np.array(bits) == 1, start, -start)
        for _ in range(40):
            grad = a_inv @ (phi - phi_b) - ic2 * np.sin(w * phi)
            hess = a_inv - np.diag(ic2 * w * np.cos(w * phi))
            phi = phi - np.linalg.solve(hess, grad)
        assert np.all(np.linalg.eigvalsh(hess) > 0), f"well {bits} is not a minimum"
        iq = a_inv @ (phi - phi_b)
        assert tuple(int(i > 0) for i in iq) == bits, f"well {bits} lost"
        d = phi - phi_b
        wells[bits] = (0.5 * d @ a_inv @ d + np.sum(ic2 * np.cos(w * phi)) / w) / kt
    return wells


@st.composite
def small_models(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    h = tuple(draw(quarter_grid()) for _ in range(n))
    pairs = list(itertools.combinations(range(n), 2))
    couplings = {}
    for pair in pairs:
        if draw(st.booleans()):
            couplings[pair] = draw(quarter_grid())
    return IsingModel(n, h, couplings)


@st.composite
def spin_states(draw, n):
    return tuple(draw(st.sampled_from((-1, 1))) for _ in range(n))


@pytest.fixture(scope="session")
def mult_unit():
    from qafactor.synth import mult_unit_gate

    return mult_unit_gate()


@pytest.fixture(scope="session")
def net11():
    from qafactor.multiplier import build_multiplier

    return build_multiplier(1, 1)


@pytest.fixture(scope="session")
def net22():
    from qafactor.multiplier import build_multiplier

    return build_multiplier(2, 2)
