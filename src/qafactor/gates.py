"""Gate penalty models and circuit composition.

A gate is an Ising block whose ground manifold is exactly its logically
valid bit-vectors, with every other state at least ``gap`` above.  Blocks
are wired together with single couplings: a WIRE coupling (J = -1) copies
a spin across gates, a NOT coupling (J = +1) copies and inverts.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ising import (GROUND_TOL, GroundReport, IsingModel, bits_to_spins, brute_force_ground,
                    code_from_state)

WIRE = "wire"
NOT = "not"


class CompositionError(ValueError):
    """Ill-formed circuit graph (dangling reference, duplicate coupling...)."""


@dataclass(frozen=True)
class GateTemplate:
    """An Ising block plus its declared valid truth set and energy gap.

    ``ports`` maps role names (in_a, out, ...) to local spin indices and
    ``valid_set`` lists the bit-vectors declared logically correct, under
    the rule of :class:`TruthTable`; the block's ground manifold must equal
    ``valid_set`` exactly, which :func:`verify_gate` checks by enumeration.
    """

    name: str
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
    return GateTemplate("nor", model, {"in_a": 0, "in_b": 1, "out": 2}, NOR_TRUTH.valid, 2.0)


def and_gate() -> GateTemplate:
    """NOR with the signs of h1, h2, J13, J23 flipped; equals AND, gap 2."""
    model = IsingModel(3, (-0.5, -0.5, 1.0), {(0, 1): 0.5, (0, 2): -1.0, (1, 2): -1.0})
    return GateTemplate("and", model, {"in_a": 0, "in_b": 1, "out": 2}, AND_TRUTH.valid, 2.0)


def free_spin() -> GateTemplate:
    """A single unconstrained spin (interconnect/chain qubit)."""
    model = IsingModel(1, (0.0,), {})
    return GateTemplate("spin", model, {"pin": 0}, ((0,), (1,)), math.inf)


@dataclass
class CircuitGraph:
    """Gate instances plus inter-gate couplings on global spin indices.

    Global spins are assigned by concatenation: the k-th added gate
    occupies indices [offsets[k], offsets[k] + gate.n); :meth:`add_gate`,
    the only way to add a gate, records its offset, and :meth:`couple`, the
    only way to add a coupling, checks its kind and strength.  WIRE
    couplings emit J = -strength, NOT couplings J = +strength (strength
    defaults to 1).
    """

    gates: list[GateTemplate] = field(default_factory=list, init=False)
    offsets: list[int] = field(default_factory=list, init=False)
    couplings: list[tuple[int, int, str, float]] = field(default_factory=list, init=False)
    exports: dict[str, int] = field(default_factory=dict, init=False)

    def add_gate(self, gate: GateTemplate) -> int:
        """Append a gate instance; returns its global spin offset."""
        offset = self.n_spins
        self.gates.append(gate)
        self.offsets.append(offset)
        return offset

    @property
    def n_spins(self) -> int:
        return sum(g.n for g in self.gates)

    def spin(self, gate_index: int, port: str) -> int:
        """Global index of a named port on one gate instance."""
        if not 0 <= gate_index < len(self.gates):
            raise CompositionError(f"no gate instance {gate_index}")
        gate = self.gates[gate_index]
        if port not in gate.ports:
            raise CompositionError(f"gate {gate.name!r} has no port {port!r}")
        return self.offsets[gate_index] + gate.ports[port]

    def couple(self, a: int, b: int, kind: str, strength: float = 1.0) -> None:
        if kind not in (WIRE, NOT):
            raise CompositionError(f"unknown coupling kind {kind!r}")
        if strength <= 0:
            raise CompositionError("coupling strength must be positive")
        self.couplings.append((a, b, kind, float(strength)))

    def export(self, name: str, global_spin: int) -> None:
        self.exports[name] = global_spin


def _gate_block_of(offsets: list[int], sizes: list[int], spin: int) -> int:
    for k, (off, size) in enumerate(zip(offsets, sizes)):
        if off <= spin < off + size:
            return k
    return -1


def compose(graph: CircuitGraph) -> tuple[IsingModel, dict[str, int]]:
    """Concatenate gate blocks and add the inter-gate couplings.

    Ground states of the result restrict to each gate's valid set and
    satisfy every coupling (s_a s_b = +1 for WIRE, -1 for NOT).
    """
    offsets, total = graph.offsets, graph.n_spins
    sizes = [g.n for g in graph.gates]

    h = [0.0] * total
    couplings: dict[tuple[int, int], float] = {}
    for off, gate in zip(offsets, graph.gates):
        for i, hv in enumerate(gate.model.h):
            h[off + i] = hv
        for (i, j), v in gate.model.couplings.items():
            couplings[(off + i, off + j)] = v

    seen_pairs = set()
    for a, b, kind, strength in graph.couplings:
        if not (0 <= a < total and 0 <= b < total):
            raise CompositionError(f"coupling endpoint out of range: ({a},{b})")
        ga, gb = _gate_block_of(offsets, sizes, a), _gate_block_of(offsets, sizes, b)
        if ga == gb:
            raise CompositionError(
                f"coupling ({a},{b}) must join distinct gate instances"
            )
        key = (min(a, b), max(a, b))
        if key in seen_pairs:
            raise CompositionError(f"duplicate coupling on pair {key}")
        seen_pairs.add(key)
        couplings[key] = -strength if kind == WIRE else strength

    ports = dict(graph.exports)
    for name, spin in ports.items():
        if not 0 <= spin < total:
            raise CompositionError(f"exported port {name!r} out of range")
    return IsingModel(total, tuple(h), couplings), ports


def half_adder() -> tuple[IsingModel, dict[str, int]]:
    """Three NOR blocks wired as a half adder: sum = a XOR b, carry = a AND b.

    Blocks are Q1-Q3, Q4-Q6, Q7-Q9 in circuit-diagram numbering (spins
    0-8 here).  The second block computes carry = NOR(not a, not b)
    through two NOT couplings (J14 = J25 = +1), the third computes
    sum = NOR(NOR(a, b), carry) through two WIRE couplings
    (J38 = J67 = -1).
    """
    graph = CircuitGraph()
    graph.add_gate(nor_gate())  # NOR(a, b)
    graph.add_gate(nor_gate())  # NOR(not a, not b) = AND(a, b)
    graph.add_gate(nor_gate())  # NOR(carry, NOR(a, b)) = XOR(a, b)
    graph.couple(graph.spin(0, "in_a"), graph.spin(1, "in_a"), NOT)
    graph.couple(graph.spin(0, "in_b"), graph.spin(1, "in_b"), NOT)
    graph.couple(graph.spin(0, "out"), graph.spin(2, "in_b"), WIRE)
    graph.couple(graph.spin(1, "out"), graph.spin(2, "in_a"), WIRE)
    graph.export("a", graph.spin(0, "in_a"))
    graph.export("b", graph.spin(0, "in_b"))
    graph.export("carry", graph.spin(1, "out"))
    graph.export("sum", graph.spin(2, "out"))
    return compose(graph)


def half_adder_template() -> GateTemplate:
    """Half adder as a gate template with its 4-state logical valid set."""
    model, ports = half_adder()
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
    return GateTemplate("half-adder", model, ports, tuple(sorted(valid)), 2.0)


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
        wanted = np.array([code_from_state(bits_to_spins(v)) for v in valid], dtype=np.int64)
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
