"""Array-multiplier Ising networks built from 6-qubit multiplier cells.

The layout is a ripple-carry array: cell (i, j) sits at bit weight i + j
and computes 2*carry + sum = a_i*b_j + sum_in + carry_in.  Carries move
to the next-significant cell of the same row, row partial sums move down
one row, and the last carry of each row becomes the high addend of the
row below.  Factor bits fan out along rows/columns through WIRE-coupled
copy spins rather than high-degree hubs.

With both factors clamped the unique ground state encodes the product;
with the product clamped the ground manifold encodes every factor pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .formats import MAX_MODEL_SPINS
from .gates import WIRE, compose, free_spin
from .ising import (
    GROUND_TOL,
    DimensionError,
    IsingModel,
    brute_force_ground,
    clamp_fold,
    code_spins,
    energies,
    free_indices,
)
from .synth import mult_unit_gate

FOLD = "fold"
BIAS = "bias"

#: Over-bias added per product spin in BIAS clamping mode; strong enough to
#: dominate any single unit bias yet weak enough to leave gate logic intact.
BIAS_STRENGTH = 1.1
#: Default ``chain_strength``: every inter-cell WIRE coupling at J = -1.
CHAIN_STRENGTH = 1.0


@dataclass(frozen=True)
class FactorOutcome:
    """Integers read off the factor/product spins of one network state."""

    m: int
    n: int
    p: int
    is_ground: bool


@dataclass(frozen=True)
class MultiplierNetwork:
    n1: int
    n2: int
    model: IsingModel                       # boundary addends already folded in
    factor_a: tuple[int, ...]               # spin per factor-A bit
    factor_b: tuple[int, ...]
    product: tuple[int, ...]                # spin per product bit, LSB first
    expected_e0: float
    n_chain_spins: int

    @property
    def n_cells(self) -> int:
        return self.n1 * self.n2


def build_multiplier(
    n1: int,
    n2: int,
    chains: bool = False,
    chain_strength: float = CHAIN_STRENGTH,
) -> MultiplierNetwork:
    """Build the n1 x n2 network; factor A has n1 bits, factor B has n2.

    ``chains=True`` inserts one free interconnect spin on every inter-cell
    wire (the fabricated unit pairs each functional qubit with an
    interconnection qubit).  ``chain_strength`` scales all inter-cell
    couplings uniformly.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("factor widths must be >= 1")
    if not (math.isfinite(chain_strength) and chain_strength > 0):
        raise ValueError(f"chain strength must be finite and positive, got {chain_strength!r}")
    cell = mult_unit_gate()
    # Each cell less the folded boundary addends, plus one spin per wire
    # when chained: checked before any wire or model is built.
    n_wires = 2 * n1 * (n2 - 1) + 2 * n2 * (n1 - 1)
    n_spins = cell.n * n1 * n2 - n1 - n2 + (n_wires if chains else 0)
    if n_spins > MAX_MODEL_SPINS:
        raise ValueError(f"a {n1}x{n2} network has {n_spins} spins, "
                         f"above the model-file limit of {MAX_MODEL_SPINS}")

    def port(i: int, j: int, name: str) -> int:
        return (j * n1 + i) * cell.n + cell.ports[name]

    wires: list[tuple[int, int]] = []
    for i in range(n1):                      # factor-A fan-out down columns
        for j in range(1, n2):
            wires.append((port(i, j - 1, "in_a"), port(i, j, "in_a")))
    for j in range(n2):                      # factor-B fan-out along rows
        for i in range(1, n1):
            wires.append((port(i - 1, j, "in_b"), port(i, j, "in_b")))
    for j in range(n2):                      # carry ripple within a row
        for i in range(1, n1):
            wires.append((port(i - 1, j, "out_carry"), port(i, j, "in_d")))
    for j in range(1, n2):                   # partial sums move down a row
        for i in range(n1 - 1):
            wires.append((port(i + 1, j - 1, "out_sum"), port(i, j, "in_c")))
        wires.append((port(n1 - 1, j - 1, "out_carry"), port(n1 - 1, j, "in_c")))

    gates = [cell] * (n1 * n2)
    if chains:
        # Chain spin k follows the cells and splits wire k into two links.
        first = len(gates) * cell.n
        gates += [free_spin()] * len(wires)
        links = [link for k, (a, b) in enumerate(wires)
                 for link in ((a, first + k, WIRE, chain_strength),
                              (first + k, b, WIRE, chain_strength))]
    else:
        links = [(a, b, WIRE, chain_strength) for a, b in wires]
    full_model = compose(gates, links)

    # Boundary addends are constants: row 0 has no incoming partial sum and
    # column 0 no incoming carry.  Fold them in as zeros.
    boundary = {port(i, 0, "in_c"): 0 for i in range(n1)}
    boundary.update({port(0, j, "in_d"): 0 for j in range(n2)})
    reduced, offset = clamp_fold(full_model, boundary)

    remap = {old: new for new, old in enumerate(free_indices(full_model.n, boundary))}

    factor_a = tuple(remap[port(i, 0, "in_a")] for i in range(n1))
    factor_b = tuple(remap[port(0, j, "in_b")] for j in range(n2))
    product = []
    for k in range(n2):
        product.append(remap[port(0, k, "out_sum")])
    for i in range(1, n1):
        product.append(remap[port(i, n2 - 1, "out_sum")])
    product.append(remap[port(n1 - 1, n2 - 1, "out_carry")])

    cell_e0 = brute_force_ground(cell.model).e0
    expected_e0 = n1 * n2 * cell_e0 - chain_strength * len(links) - offset

    return MultiplierNetwork(
        n1=n1, n2=n2, model=reduced, factor_a=factor_a, factor_b=factor_b,
        product=tuple(product), expected_e0=expected_e0,
        n_chain_spins=len(wires) if chains else 0,
    )


def _int_bits(value: int, width: int, what: str) -> dict[int, int]:
    if not 0 <= value < (1 << width):
        raise ValueError(f"{what}={value} out of range for {width} bits")
    return {k: (value >> k) & 1 for k in range(width)}


def factor_clamp_assignment(net: MultiplierNetwork, m: int, n: int) -> dict[int, int]:
    clamps = {net.factor_a[k]: b for k, b in _int_bits(m, net.n1, "M").items()}
    clamps.update({net.factor_b[k]: b for k, b in _int_bits(n, net.n2, "N").items()})
    return clamps


def product_clamp_assignment(net: MultiplierNetwork, p: int) -> dict[int, int]:
    width = net.n1 + net.n2
    return {net.product[k]: b for k, b in _int_bits(p, width, "P").items()}


def clamp_product(net: MultiplierNetwork, p: int,
                  method: str = FOLD) -> tuple[IsingModel, float]:
    """Pin the product, either exactly (FOLD) or by strong bias (BIAS).

    BIAS leaves the product spins free and adds -BIAS_STRENGTH to h for a
    target bit 1 and +BIAS_STRENGTH for a target bit 0, the hardware-style
    over-bias mechanism.  FOLD removes them algebraically.  Either way,
    clamped energy + offset = network energy wherever the product reads
    ``p``, so ``net.expected_e0 - offset`` is the clamped ground reference.
    """
    clamps = product_clamp_assignment(net, p)
    if method == FOLD:
        return clamp_fold(net.model, clamps)
    if method == BIAS:
        h = list(net.model.h)
        for spin, bit in clamps.items():
            h[spin] += -BIAS_STRENGTH if bit else BIAS_STRENGTH
        return (IsingModel(net.model.n, tuple(h), dict(net.model.couplings)),
                BIAS_STRENGTH * len(net.product))
    raise ValueError(f"unknown clamp method {method!r}")


def decode(net: MultiplierNetwork, state: Sequence[int]) -> FactorOutcome:
    """Read (M, N, P) off the role spins of a full network state: the one-row
    case of :func:`decode_reduced`.  ``is_ground`` means a valid
    multiplication at the network's E0, not that a run reached its reference."""
    states = np.array([state], dtype=np.int8)
    (m,), (n,), (p,) = decode_reduced(net, {}, states)
    (energy,) = energies(net.model, states.T)
    return FactorOutcome(m, n, p, bool(energy <= net.expected_e0 + GROUND_TOL))


def decode_reduced(net: MultiplierNetwork, clamps: Mapping[int, int], states: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, N, P) of each row of a (k, free spins) int8 array of +-1 states
    of ``net.model`` with ``clamps`` folded out, spliced back in by index.
    Registers are read as dot products with powers of two in Python ints,
    as they may be wider than 63 bits, so M, N and P are object arrays."""
    free = free_indices(net.model.n, clamps)
    if states.ndim != 2 or states.shape[1] != len(free):
        raise DimensionError(f"states of shape {states.shape}, expected (k, {len(free)})")
    if np.any(np.abs(states) != 1):
        raise ValueError("every spin must be -1 or +1")
    full = np.empty((net.model.n, len(states)), dtype=np.int8)
    full[list(free)] = states.T
    full[list(clamps)] = np.reshape([2 * bit - 1 for bit in clamps.values()], (-1, 1))
    m, n, p = (np.array([1 << k for k in range(len(reg))], dtype=object) @ (full[list(reg)] > 0)
               for reg in (net.factor_a, net.factor_b, net.product))
    return m, n, p


def ground_factor_pairs(net: MultiplierNetwork, p: int) -> set[tuple[int, int]]:
    """All (M, N) decoded from the exact ground manifold with the product
    folded to p.  Exhaustive; only valid within the enumeration cap."""
    clamps = product_clamp_assignment(net, p)
    reduced, offset = clamp_fold(net.model, clamps)
    spins = code_spins(reduced.n, brute_force_ground(reduced).codes)
    m, n, _ = decode_reduced(net, clamps, spins.T)
    ground = energies(reduced, spins) + offset <= net.expected_e0 + GROUND_TOL
    return set(zip(m[ground].tolist(), n[ground].tolist()))
