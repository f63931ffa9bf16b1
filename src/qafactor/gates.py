"""Gate penalty models and circuit composition.

A gate is an Ising block whose ground manifold is exactly its logically
valid bit-vectors, with every other state at least ``gap`` above.  Blocks
are wired together with single couplings: a WIRE coupling (J = -1) copies
a spin across gates, a NOT coupling (J = +1) copies and inverts.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ising import GROUND_TOL, GroundReport, IsingModel, brute_force_ground, state_codes

WIRE = "wire"
NOT = "not"


class CompositionError(ValueError):
    """Ill-formed composition (dangling reference, duplicate coupling...)."""


@dataclass(frozen=True)
class GateTemplate:
    """An Ising block plus its declared valid truth set and energy gap.

    ``ports`` maps role names (in_a, out, ...) to local spin indices and
    ``valid_set`` lists the bit-vectors declared logically correct, under
    the rule of :class:`TruthTable`; the block's ground manifold must equal
    ``valid_set`` exactly, which :func:`verify_gate` checks by enumeration.
    """

    model: IsingModel
    ports: dict[str, int]
    valid_set: tuple[tuple[int, ...], ...]
    gap: float

    @property
    def n(self) -> int:
        return self.model.n

    def __post_init__(self):
        for name, idx in self.ports.items():
            if not 0 <= idx < self.n:
                raise ValueError(f"port {name!r} index {idx} out of range")
        if not self.gap >= 0:
            raise ValueError(f"gap {self.gap!r} is not a number >= 0")
        TruthTable(self.n, self.valid_set)


@dataclass(frozen=True)
class TruthTable:
    """The legal bit-vectors of an n-variable relation."""

    n_vars: int
    valid: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.valid:
            raise ValueError("truth table must have at least one valid vector")
        seen = set()
        for v in self.valid:
            if len(v) != self.n_vars:
                raise ValueError("truth-table vector arity mismatch")
            if any(b not in (0, 1) for b in v):
                raise ValueError("truth-table entries must be bits")
            if v in seen:
                raise ValueError(f"duplicate truth-table vector {v}")
            seen.add(v)


NOR_TRUTH = TruthTable(3, ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)))
AND_TRUTH = TruthTable(3, ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)))


def nor_gate() -> GateTemplate:
    """3-spin NOR: h = (0.5, 0.5, 1), J12 = 0.5, J13 = J23 = 1, gap 2."""
    model = IsingModel(3, (0.5, 0.5, 1.0), {(0, 1): 0.5, (0, 2): 1.0, (1, 2): 1.0})
    return GateTemplate(model, {"in_a": 0, "in_b": 1, "out": 2}, NOR_TRUTH.valid, 2.0)


def and_gate() -> GateTemplate:
    """NOR with the signs of h1, h2, J13, J23 flipped; equals AND, gap 2."""
    model = IsingModel(3, (-0.5, -0.5, 1.0), {(0, 1): 0.5, (0, 2): -1.0, (1, 2): -1.0})
    return GateTemplate(model, {"in_a": 0, "in_b": 1, "out": 2}, AND_TRUTH.valid, 2.0)


def free_spin() -> GateTemplate:
    """A single unconstrained spin (interconnect/chain qubit)."""
    model = IsingModel(1, (0.0,), {})
    return GateTemplate(model, {"pin": 0}, ((0,), (1,)), math.inf)


def compose(gates: Sequence[GateTemplate],
            links: Iterable[tuple[int, int, str, float]]) -> IsingModel:
    """Concatenate gate blocks and add the inter-gate links.

    Gate k occupies the global spins that follow those of gates 0..k-1.  A
    link ``(a, b, kind, strength)`` joins global spins of two distinct gate
    instances: WIRE emits J = -strength, NOT J = +strength.  Ground states
    of the result restrict to each gate's valid set and satisfy every link
    (s_a s_b = +1 for WIRE, -1 for NOT).
    """
    offsets = list(itertools.accumulate((g.n for g in gates), initial=0))
    total = offsets.pop()

    h: list[float] = []
    couplings: dict[tuple[int, int], float] = {}
    for off, gate in zip(offsets, gates):
        h.extend(gate.model.h)
        for (i, j), v in gate.model.couplings.items():
            couplings[(off + i, off + j)] = v

    seen_pairs = set()
    for a, b, kind, strength in links:
        if kind not in (WIRE, NOT):
            raise CompositionError(f"unknown coupling kind {kind!r}")
        if strength <= 0:
            raise CompositionError("coupling strength must be positive")
        if not (0 <= a < total and 0 <= b < total):
            raise CompositionError(f"coupling endpoint out of range: ({a},{b})")
        if bisect.bisect_right(offsets, a) == bisect.bisect_right(offsets, b):
            raise CompositionError(
                f"coupling ({a},{b}) must join distinct gate instances"
            )
        key = (min(a, b), max(a, b))
        if key in seen_pairs:
            raise CompositionError(f"duplicate coupling on pair {key}")
        seen_pairs.add(key)
        couplings[key] = -float(strength) if kind == WIRE else float(strength)
    return IsingModel(total, tuple(h), couplings)


def half_adder() -> GateTemplate:
    """Three NOR blocks wired as a half adder: sum = a XOR b, carry = a AND b.

    Blocks are Q1-Q3, Q4-Q6, Q7-Q9 in circuit-diagram numbering (spins
    0-8 here).  The second block computes carry = NOR(not a, not b)
    through two NOT couplings (J14 = J25 = +1), the third computes
    sum = NOR(NOR(a, b), carry) through two WIRE couplings
    (J38 = J67 = -1).  The valid set holds the four logical states, gap 2.
    """
    nor = nor_gate()

    def port(k: int, name: str) -> int:
        return k * nor.n + nor.ports[name]

    # Block 0: NOR(a, b); block 1: NOR(not a, not b) = AND(a, b);
    # block 2: NOR(carry, NOR(a, b)) = XOR(a, b).
    model = compose([nor] * 3, [
        (port(0, "in_a"), port(1, "in_a"), NOT, 1.0),
        (port(0, "in_b"), port(1, "in_b"), NOT, 1.0),
        (port(0, "out"), port(2, "in_b"), WIRE, 1.0),
        (port(1, "out"), port(2, "in_a"), WIRE, 1.0),
    ])
    ports = {"a": port(0, "in_a"), "b": port(0, "in_b"),
             "carry": port(1, "out"), "sum": port(2, "out")}
    valid = []
    for a, b in itertools.product((0, 1), repeat=2):
        bits = [0] * 9
        bits[0], bits[1] = a, b
        bits[2] = 1 - (a | b)          # NOR(a, b)
        bits[3], bits[4] = 1 - a, 1 - b
        bits[5] = a & b                # carry
        bits[6] = bits[5]              # wire copy of carry
        bits[7] = bits[2]              # wire copy of NOR(a, b)
        bits[8] = a ^ b                # sum
        valid.append(tuple(bits))
    return GateTemplate(model, ports, tuple(sorted(valid)), 2.0)


@dataclass(frozen=True)
class GateReport:
    """Outcome of a ground-manifold check (:func:`check_manifold`).

    ``valid_match`` is None when no valid set was checked, ``gap_met`` None
    when no gap was declared; ``passed`` holds when neither is False.
    ``offending`` counts ground states outside the valid set plus valid
    states off the ground level.  ``e0`` and ``achieved_gap`` are the
    enumeration's.
    """

    passed: bool
    e0: float
    achieved_gap: float
    valid_match: bool | None
    gap_met: bool | None
    offending: int


def check_manifold(report: GroundReport, valid, gap: float | None) -> GateReport:
    """Check an enumeration's ground codes against the codes of the bit-vectors
    ``valid`` and its gap against ``gap``; ``None`` skips that part."""
    valid_match = gap_met = None
    offending = 0
    if valid is not None:
        wanted = state_codes(valid)
        offending = int(np.count_nonzero(~np.isin(report.codes, wanted))
                        + np.count_nonzero(~np.isin(wanted, report.codes)))
        valid_match = offending == 0
    if gap is not None:
        gap_met = report.gap >= gap - GROUND_TOL
    return GateReport(valid_match is not False and gap_met is not False, report.e0,
                      report.gap, valid_match, gap_met, offending)


def verify_gate(template: GateTemplate) -> GateReport:
    """Enumerate the template's block and check its ground manifold against
    ``valid_set`` and its gap against ``gap``.  Failures are reported, not
    raised."""
    return check_manifold(brute_force_ground(template.model), template.valid_set,
                          template.gap)
