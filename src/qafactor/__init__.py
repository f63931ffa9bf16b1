"""Invertible Ising-logic multipliers: gates, networks, annealing, circuits.

Forward operation multiplies (clamp the factors, anneal, read the
product); inverse operation factors (clamp the product, anneal, read the
factors).  A circuit-level simulator of the underlying tunable-barrier
flux qubits drives the same gate models with physical Johnson noise.
"""

__version__ = "0.1.0"
