"""Invertible Ising-logic multipliers: gates, networks, annealing, circuits.

Forward operation multiplies (clamp the factors, anneal, read the
product); inverse operation factors (clamp the product, anneal, read the
factors).  A circuit-level simulator of the underlying tunable-barrier
flux qubits drives the same gate models with physical Johnson noise.
"""
from .anneal import Schedule, ShotResult, RunSummary, anneal_batches, anneal_shot, run_shots
from .capacity import CapacityInput, CapacityReport, capacity_estimate
from .formats import format_model, parse_model
from .gates import (
    GateTemplate,
    TruthTable,
    and_gate,
    compose,
    half_adder,
    nor_gate,
    verify_gate,
)
from .ising import (
    GroundReport,
    IsingModel,
    brute_force_ground,
    clamp_fold,
    energies,
    merge_spins,
)
from .multiplier import (
    FactorOutcome,
    MultiplierNetwork,
    build_multiplier,
    clamp_product,
    decode,
)
from .synth import SynthesisError, mult_unit_gate, multiplier_unit_table, synthesize_penalty

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
