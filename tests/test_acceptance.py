"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines on passing runs too.  Criterion 7 checks circuit-level inverse-NOR
logic where the 1 K model can deliver it: exactly, on the read-out
Hamiltonian and on a noise-free slow anneal; as a majority read-out on the
1 K ensembles, whose thermal freeze-out at a coupling of about 2 kT leaves
invalid outcomes at the published circuit constants (see the README note).
"""
import itertools
import time

import numpy as np
import pytest

from conftest import j_unit_kt, potential_minima, readout_wells
from qafactor.anneal import RunSummary, Schedule, anneal_batches
from qafactor.capacity import CapacityInput, capacity_estimate
from qafactor.fluxsim import (
    NoiseSpec,
    RampSpec,
    _BARRIER_GRID,
    _WELL_CURVE,
    inverse_nor_layout,
    johnson_sigma,
    run_ensemble,
)
from qafactor.gates import and_gate, half_adder, nor_gate
from qafactor.ising import (
    brute_force_ground,
    clamp_fold,
    merge_spins,
)
from qafactor.multiplier import (
    build_multiplier,
    decode,
    decode_reduced,
    factor_clamp_assignment,
    product_clamp_assignment,
)
from qafactor.synth import multiplier_unit_table, synthesize_penalty

SEED = 2024
FACTORS_OF_15 = {(1, 15), (3, 5), (5, 3), (15, 1)}


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" :: {detail}"
    print("\n" + line, flush=True)


@pytest.fixture(scope="module")
def net44():
    return build_multiplier(4, 4)


@pytest.fixture(scope="module")
def factor15_run(net44):
    """Criterion 5/10 workload: clamp P=15 on the 4x4 network, 200 shots."""
    clamps = product_clamp_assignment(net44, 15)
    reduced, offset = clamp_fold(net44.model, clamps)
    reference = net44.expected_e0 - offset

    def run(workers=1):
        """The run's summary, and the M and N arrays and ground labels of each batch."""
        summary = RunSummary(reference_e0=reference)
        decoded = []
        for states, energy in anneal_batches(reduced, Schedule(), 200, SEED, workers):
            hits = summary.add(states, energy)
            m, n, _ = decode_reduced(net44, clamps, states)
            decoded.append((m, n, hits))
        return summary, decoded

    return {"clamps": clamps, "reference": reference, "run": run}


@pytest.fixture(scope="module")
def nor_ensembles():
    """Criterion 7/10 workload: two 200-shot inverse-NOR ensembles."""
    noise = NoiseSpec()

    def run(clamp, workers=1):
        return run_ensemble(inverse_nor_layout(clamp), noise, n_shots=200,
                            master_seed=SEED, workers=workers)

    return run


def test_c01_gate_exactness():
    start = time.time()
    nor = brute_force_ground(nor_gate().model)
    expected_nor = {
        tuple(2 * b - 1 for b in bits)
        for bits in ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    }
    nor_ok = (nor.e0 == -1.5 and set(nor.states) == expected_nor and nor.gap == 2.0)

    gate = and_gate()
    rep = brute_force_ground(gate.model)
    and_ok = (
        {tuple((s + 1) // 2 for s in state) for state in rep.states} == set(gate.valid_set)
        and rep.gap == 2.0
    )
    elapsed = time.time() - start
    ok = nor_ok and and_ok and elapsed < 1.0
    _report(1, "gate exactness (NOR/AND, zero tolerance)", ok,
            f"NOR e0={nor.e0}, gap={nor.gap}; AND gap={rep.gap}; {elapsed:.2f}s")
    assert nor_ok, "NOR ground manifold or gap mismatch"
    assert and_ok, "AND ground manifold or gap mismatch"
    assert elapsed < 1.0


def test_c02_half_adder():
    start = time.time()
    adder = half_adder()
    model, ports = adder.model, adder.ports
    rep = brute_force_ground(model)
    seen = set()
    logic_ok = True
    for state in rep.states:
        bits = tuple((s + 1) // 2 for s in state)
        a, b = bits[ports["a"]], bits[ports["b"]]
        logic_ok &= bits[ports["sum"]] == a ^ b and bits[ports["carry"]] == a & b
        seen.add((a, b))
    elapsed = time.time() - start
    ok = (model.n == 9 and rep.e0 == -8.5 and rep.degeneracy == 4
          and logic_ok and len(seen) == 4 and elapsed < 1.0)
    _report(2, "half adder (512-state exhaustive)", ok,
            f"e0={rep.e0}, ground states={rep.degeneracy}; {elapsed:.2f}s")
    assert rep.e0 == -8.5 and rep.degeneracy == 4 and logic_ok and len(seen) == 4
    assert elapsed < 1.0


def test_c03_multiplier_unit_synthesis():
    start = time.time()
    gate = synthesize_penalty(multiplier_unit_table(), gap=1.0, bound=2.0)
    rep = brute_force_ground(gate.model)
    relation_ok = all(
        2 * bits[4] + bits[5] == bits[0] * bits[1] + bits[2] + bits[3]
        for bits in (np.array(rep.states) + 1) // 2
    )
    elapsed = time.time() - start
    ok = rep.degeneracy == 16 and relation_ok and rep.gap >= 1.0 and elapsed < 10.0
    _report(3, "multiplier-unit synthesis (64-state exhaustive)", ok,
            f"ground states={rep.degeneracy}, gap={rep.gap}; {elapsed:.2f}s")
    assert rep.degeneracy == 16 and relation_ok
    assert rep.gap >= 1.0
    assert elapsed < 10.0


def test_c04_forward_multiplication_exhaustive(net22):
    start = time.time()
    failures = []
    for m, n in itertools.product(range(4), repeat=2):
        clamps = factor_clamp_assignment(net22, m, n)
        reduced, _ = clamp_fold(net22.model, clamps)
        rep = brute_force_ground(reduced)
        out = decode(net22, merge_spins(net22.model.n, clamps, rep.states[0]))
        if rep.degeneracy != 1 or not out.is_ground or out.p != m * n:
            failures.append((m, n, rep.degeneracy, out.p))
    elapsed = time.time() - start
    ok = not failures and elapsed < 60.0
    _report(4, "forward multiplication (2x2, all 16 pairs exhaustive)", ok,
            f"failures={failures}; {elapsed:.1f}s")
    assert not failures
    assert elapsed < 60.0


def test_c05_inverse_factoring_of_15(net44, factor15_run):
    start = time.time()
    summary, decoded = factor15_run["run"]()
    ground_pairs = set()
    bad_pairs = set()
    for m, n, ground in decoded:
        for pair in zip(m[ground].tolist(), n[ground].tolist()):
            (ground_pairs if pair in FACTORS_OF_15 else bad_pairs).add(pair)
    elapsed = time.time() - start
    rate = summary.ground_hit_rate
    ok = summary.ground_hits >= 1 and not bad_pairs and elapsed < 120.0
    _report(5, "inverse factoring of 15 (4x4, 200 shots)", ok,
            f"ground-hit rate={rate:.3f} (reported, not asserted), "
            f"pairs seen={sorted(ground_pairs)}; {elapsed:.1f}s")
    assert summary.ground_hits >= 1, "no annealing shot reached the ground energy"
    assert not bad_pairs, f"ground-hit shots decoded outside the factor set: {bad_pairs}"
    assert elapsed < 120.0


def test_c06_johnson_noise_formula():
    sigma = johnson_sigma(3.2e3, 1.0, 1e12)
    ok = abs(sigma - 0.13e-6) / 0.13e-6 < 0.02
    _report(6, "Johnson-noise formula", ok, f"sigma={sigma * 1e6:.4f} uA vs 0.13 uA")
    assert ok


#: Valid read-out states of the inverse NOR, (Q1, Q2, Q3, Q4) bits, per clamp.
NOR_VALID = {0: {(0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)}, 1: {(0, 0, 1, 1)}}
#: Read-out well tolerance, as a fraction of the J unit (degeneracy) and of
#: the 2-unit gap.  The mutuals stay at 8 pH per unit of J, so two-hop flux
#: paths through the output loop add couplings of order M/L = 3 % per hop
#: (Q1-Q4 and Q2-Q4: -0.027 units each); they leave the clamp-0 valid wells
#: 0.065 units apart and the clamp-1 gap at 1.89 units.
WELL_TOL = 0.075


def test_c07_circuit_inverse_nor(nor_ensembles):
    start = time.time()
    j_unit = j_unit_kt()

    # (a) The read-out Hamiltonian is the NOR penalty model with the clamp:
    # the lowest wells are exactly the valid set, degenerate, one gap below
    # every other well.  Deterministic, so checked for both clamps.
    spreads, gaps = [], []
    for clamp in (0, 1):
        wells = readout_wells(inverse_nor_layout(clamp))
        valid = [e for bits, e in wells.items() if bits in NOR_VALID[clamp]]
        invalid = [e for bits, e in wells.items() if bits not in NOR_VALID[clamp]]
        spreads.append((max(valid) - min(valid)) / j_unit)
        gaps.append((min(invalid) - max(valid)) / j_unit)
    wells_ok = (max(spreads) <= WELL_TOL
                and min(gaps) >= 2.0 * (1.0 - WELL_TOL))

    # (b) Noise-free anneal with a ramp slow against the circuit: bistability
    # sets in at 10.1 % of the ramp and the barrier passes 5 kT at 14.1 %, a
    # window of 4 % of the ramp, 0.32 ns or about 6 RC (RC = 2C R/2 = 54 ps)
    # at 8 ns.  2-ns and 4-ns ramps are too fast: qubits follow their own bias.
    slow = RampSpec(ramp_s=8e-9)
    noiseless = {
        clamp: next(iter(run_ensemble(inverse_nor_layout(clamp, ramp=slow),
                                      NoiseSpec(sigma=0.0), ramp=slow, n_shots=1,
                                      master_seed=SEED).counts))
        for clamp in (0, 1)
    }
    noiseless_ok = all(noiseless[c] in NOR_VALID[c] for c in (0, 1))

    # (c) The 1 K ensembles.  Freeze-out leaves invalid outcomes (the
    # coupling is about 2 kT when the barrier reaches 10 kT), so the check is
    # a majority read-out: every valid outcome beats every invalid one.
    ens_start = time.time()
    res = {clamp: nor_ensembles(clamp) for clamp in (0, 1)}
    elapsed = time.time() - ens_start

    def nor_violations(result):
        return sum(c for bits, c in result.counts.items()
                   if (1 - (bits[0] | bits[1])) != bits[2])

    def clamp_misses(result, clamp):
        return sum(c for bits, c in result.counts.items()
                   if bits[2] != clamp or bits[3] != clamp)

    def majority(result, clamp):
        valid = [result.counts.get(bits, 0) for bits in NOR_VALID[clamp]]
        invalid = [c for bits, c in result.counts.items() if bits not in NOR_VALID[clamp]]
        return min(valid) > max(invalid, default=0)

    valid_pairs_seen = {
        bits[:2] for bits in res[0].counts
        if bits[2] == 0 and bits[3] == 0 and (1 - (bits[0] | bits[1])) == 0
    }
    majority_ok = majority(res[0], 0) and majority(res[1], 1)
    ok = (wells_ok and noiseless_ok and majority_ok
          and valid_pairs_seen == {(0, 1), (1, 0), (1, 1)} and elapsed < 600.0)
    _report(7, "circuit-level inverse NOR (read-out wells, noise-free, 2x200 shots)", ok,
            f"well spread={max(spreads):.3f} J, gap={min(gaps):.3f} J; "
            f"noise-free 8 ns={noiseless[0]},{noiseless[1]}; "
            f"clamp0 violations={nor_violations(res[0])}, "
            f"misses={clamp_misses(res[0], 0)}, "
            f"valid pairs seen={sorted(valid_pairs_seen)}; "
            f"clamp1 violations={nor_violations(res[1])}, "
            f"misses={clamp_misses(res[1], 1)}, "
            f"(-1,-1) count={res[1].counts.get((0, 0, 1, 1), 0)}/200; "
            f"{time.time() - start:.0f}s")
    assert max(spreads) <= WELL_TOL, f"valid read-out wells not degenerate: {spreads}"
    assert min(gaps) >= 2.0 * (1.0 - WELL_TOL), f"read-out gap below 2 J units: {gaps}"
    assert noiseless_ok, f"noise-free 8-ns anneal ended invalid: {noiseless}"
    assert valid_pairs_seen == {(0, 1), (1, 0), (1, 1)}
    assert majority_ok, "an invalid outcome occurred as often as a valid one"
    assert elapsed < 600.0


def test_c08_bistability_structure():
    # The well curve's two ends, barrier off (phi_t = Phi0/2) and full
    # (phi_t = 0): its wells must be the potential's minima, to the scan step.
    start = time.time()
    off, full = potential_minima(_BARRIER_GRID[0]), potential_minima(_BARRIER_GRID[-1])
    suppressed, double = len(off), len(full)
    x_off, x_full = _WELL_CURVE[0], _WELL_CURVE[-1]
    wells_ok = (suppressed == 1 and double == 2 and x_off == 0.0 and abs(off[0]) <= 0.001
                and np.allclose(full, [-x_full, x_full], rtol=0.0, atol=0.001))
    elapsed = time.time() - start
    ok = wells_ok and elapsed < 1.0
    _report(8, "bistability structure", ok,
            f"minima: {suppressed} at half quantum, {double} at zero")
    assert suppressed == 1
    assert double == 2
    assert wells_ok, f"read-out wells {x_off}, +-{x_full} Phi0; minima {off}, {full}"
    assert elapsed < 1.0


def test_c09_capacity_arithmetic():
    rep = capacity_estimate(CapacityInput())
    ok = (rep.units_side == 35 and rep.units_per_chip == 1225
          and rep.total_units == 122500 and rep.product_bits == 350)
    _report(9, "capacity arithmetic", ok,
            f"{rep.units_side}x{rep.units_side} units/chip, "
            f"{rep.total_units} units, {rep.product_bits} bits")
    assert ok


def test_c10_determinism_under_parallelism(factor15_run, nor_ensembles):
    s_serial = factor15_run["run"](workers=1)[0].to_text()
    s_parallel = factor15_run["run"](workers=4)[0].to_text()
    anneal_ok = s_serial == s_parallel

    e_serial = nor_ensembles(0, workers=1).to_text()
    e_parallel = nor_ensembles(0, workers=4).to_text()
    ensemble_ok = e_serial == e_parallel
    ok = anneal_ok and ensemble_ok
    _report(10, "determinism: byte-identical summaries under 1 and 4 workers", ok,
            f"anneal={anneal_ok}, ensemble={ensemble_ok}")
    assert anneal_ok and ensemble_ok
