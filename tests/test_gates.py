import itertools
import math

import numpy as np
import pytest

from conftest import state_energies
from qafactor.gates import (
    NOT,
    WIRE,
    CompositionError,
    GateReport,
    GateTemplate,
    TruthTable,
    and_gate,
    check_manifold,
    compose,
    free_spin,
    half_adder,
    nor_gate,
    verify_gate,
)
from qafactor.ising import IsingModel, brute_force_ground, code_spins, energies


class TestNorGate:
    def test_coefficients(self):
        gate = nor_gate()
        assert gate.model.h == (0.5, 0.5, 1.0)
        assert gate.model.couplings == {(0, 1): 0.5, (0, 2): 1.0, (1, 2): 1.0}

    def test_ground_energy_and_state(self):
        gate = nor_gate()
        assert state_energies(gate.model, (-1, -1, 1)) == [-1.5]  # bits 001
        report = brute_force_ground(gate.model)
        assert report.e0 == -1.5
        assert (-1, -1, 1) in report.states

    def test_gap(self):
        assert brute_force_ground(nor_gate().model).gap == 2.0

    def test_verify_passes(self):
        report = verify_gate(nor_gate())
        assert report.passed
        assert report.achieved_gap == 2.0
        assert report.offending == 0


class TestAndGate:
    def test_sign_flip_of_nor(self):
        nor, gate = nor_gate(), and_gate()
        assert gate.model.h == (-nor.model.h[0], -nor.model.h[1], nor.model.h[2])
        assert gate.model.couplings[(0, 1)] == nor.model.couplings[(0, 1)]
        assert gate.model.couplings[(0, 2)] == -nor.model.couplings[(0, 2)]

    def test_ground_states(self):
        gate = and_gate()
        # Bits 111, 000 and 110.
        assert state_energies(gate.model, (1, 1, 1), (-1, -1, -1), (1, 1, -1)) == [
            -1.5, -1.5, 0.5]
        report = verify_gate(gate)
        assert report.passed and report.achieved_gap == 2.0

    def test_de_morgan_valid_sets(self):
        nor_valid = set(nor_gate().valid_set)
        and_valid = set(and_gate().valid_set)
        complemented = {(1 - a, 1 - b, out) for a, b, out in nor_valid}
        assert complemented == and_valid


class TestVerifyGate:
    def test_detects_broken_gate(self):
        nor = nor_gate()
        broken_model = IsingModel(3, nor.model.h,
                                  {(0, 1): 0.5, (0, 2): -1.0, (1, 2): 1.0})
        broken = GateTemplate(broken_model, nor.ports, nor.valid_set, 2.0)
        report = verify_gate(broken)
        assert not report.passed
        assert report.offending > 0

    def test_detects_insufficient_gap(self):
        nor = nor_gate()
        too_demanding = GateTemplate(nor.model, nor.ports, nor.valid_set, 2.5)
        assert not verify_gate(too_demanding).passed

    def test_unchecked_parts_are_none(self):
        # Valid set (1,1,0) instead of (0,0,1): one ground state outside it,
        # one valid state off the ground level.
        report = brute_force_ground(nor_gate().model)
        assert check_manifold(report, None, None) == GateReport(
            True, -1.5, 2.0, None, None, 0)
        wrong = ((0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))
        assert check_manifold(report, wrong, None) == GateReport(
            False, -1.5, 2.0, False, None, 2)
        assert check_manifold(report, None, 2.5) == GateReport(
            False, -1.5, 2.0, None, False, 0)


class TestCompose:
    # Global spins: gate k starts where gate k-1 ends, so with two NORs
    # in_a, in_b, out are spins 0, 1, 2 and 3, 4, 5.
    _BLOCKS = [nor_gate(), free_spin(), half_adder(), and_gate()]
    #: First global spin of each block, then the total: [0, 3, 4, 13, 16].
    _STARTS = list(itertools.accumulate((g.n for g in _BLOCKS), initial=0))

    def test_single_gate_identity(self):
        assert compose([nor_gate()], []) == nor_gate().model

    def test_offsets_concatenate_gate_sizes(self):
        model = compose(self._BLOCKS, [])
        assert self._STARTS == [0, 3, 4, 13, 16]
        assert model.n == 16
        assert model.h == sum((g.model.h for g in self._BLOCKS), ())
        assert model.couplings == {(off + i, off + j): v
                                   for off, g in zip(self._STARTS, self._BLOCKS)
                                   for (i, j), v in g.model.couplings.items()}

    def test_two_nors_one_wire(self):
        model = compose([nor_gate()] * 2, [(2, 3, WIRE, 1.0)])  # out -> in_a
        report = brute_force_ground(model)
        assert report.e0 == -4.0
        for state in report.states:
            assert state[2] == state[3]  # wire satisfied

    def test_not_of_nor_is_or(self):
        model = compose([nor_gate(), free_spin()], [(2, 3, NOT, 1.0)])
        for state in brute_force_ground(model).states:
            a, b, _, far = ((s + 1) // 2 for s in state)
            assert far == (a | b)

    def test_wire_and_not_coupling_values(self):
        model = compose([free_spin()] * 3, [(0, 1, WIRE, 1.0), (1, 2, NOT, 1.0)])
        assert model.couplings == {(0, 1): -1.0, (1, 2): 1.0}

    def test_links_follow_gate_couplings_in_order(self):
        model = compose([nor_gate()] * 2, [(5, 0, WIRE, 0.5), (2, 3, NOT, 2.0)])
        assert list(model.couplings.items()) == [
            ((0, 1), 0.5), ((0, 2), 1.0), ((1, 2), 1.0),
            ((3, 4), 0.5), ((3, 5), 1.0), ((4, 5), 1.0),
            ((0, 5), -0.5), ((2, 3), 2.0)]

    def test_ground_couplings_all_satisfied(self):
        # NOR out (2) wired to AND in_b (4); NOR in_a (0) inverted into AND in_a (3).
        model = compose([nor_gate(), and_gate()], [(2, 4, WIRE, 1.0), (0, 3, NOT, 1.0)])
        for state in brute_force_ground(model).states:
            assert state[2] * state[4] == 1
            assert state[0] * state[3] == -1

    def test_duplicate_coupling_rejected(self):
        with pytest.raises(CompositionError, match="duplicate"):
            compose([nor_gate()] * 2, [(2, 3, WIRE, 1.0), (3, 2, NOT, 1.0)])

    def test_same_gate_coupling_rejected(self):
        with pytest.raises(CompositionError, match="distinct gate instances"):
            compose([nor_gate()] * 2, [(0, 1, WIRE, 1.0)])

    def test_dangling_references(self):
        for a, b in ((0, 99), (-1, 2), (0, 3)):
            with pytest.raises(CompositionError, match="out of range"):
                compose([nor_gate()], [(a, b, WIRE, 1.0)])

    def test_unknown_kind_rejected(self):
        with pytest.raises(CompositionError, match="unknown coupling kind"):
            compose([nor_gate()] * 2, [(0, 3, "xor", 1.0)])

    @pytest.mark.parametrize("strength", [0.0, -1.0])
    def test_non_positive_strength_rejected(self, strength):
        with pytest.raises(CompositionError, match="must be positive"):
            compose([nor_gate()] * 2, [(0, 3, WIRE, strength)])

    @pytest.mark.parametrize("k", range(len(_BLOCKS) - 1))
    def test_link_across_a_block_boundary_accepted(self, k):
        last, first = self._STARTS[k + 1] - 1, self._STARTS[k + 1]
        model = compose(self._BLOCKS, [(last, first, WIRE, 1.0)])
        assert model.couplings[(last, first)] == -1.0

    @pytest.mark.parametrize("k", range(len(_BLOCKS)))
    def test_link_within_one_block_rejected(self, k):
        first, last = self._STARTS[k], self._STARTS[k + 1] - 1
        with pytest.raises(CompositionError, match="distinct gate instances"):
            compose(self._BLOCKS, [(first, last, NOT, 1.0)])


@pytest.fixture(scope="module")
def adder():
    adder = half_adder()
    return adder.model, adder.ports, brute_force_ground(adder.model)


class TestHalfAdder:
    def test_energy_and_degeneracy(self, adder):
        model, _, report = adder
        assert model.n == 9
        assert report.e0 == -8.5
        assert report.degeneracy == 4

    def test_sum_and_carry_logic(self, adder):
        _, ports, report = adder
        seen = set()
        for state in report.states:
            bits = tuple((s + 1) // 2 for s in state)
            a, b = bits[ports["a"]], bits[ports["b"]]
            assert bits[ports["sum"]] == a ^ b
            assert bits[ports["carry"]] == a & b
            seen.add((a, b))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_documented_inverter_and_wire_couplings(self, adder):
        model, _, _ = adder
        assert model.couplings[(0, 3)] == 1.0    # Q1-Q4 NOT coupling
        assert model.couplings[(2, 7)] == -1.0   # Q3-Q8 wire

    def test_coupling_violations_cost_at_least_two(self, adder):
        model, _, report = adder
        inter = [(0, 3), (1, 4), (2, 7), (5, 6)]
        spins = code_spins(9, np.arange(1 << 9))
        violated = np.zeros(1 << 9, dtype=bool)
        for i, j in inter:
            violated |= spins[i] * spins[j] * model.couplings[(i, j)] > 0
        assert violated.any()
        assert np.all(energies(model, spins)[violated] >= report.e0 + 2.0 - 1e-12)

    def test_template_verifies(self):
        report = verify_gate(half_adder())
        assert report.passed
        assert report.achieved_gap == 2.0


class TestTruthTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruthTable(2, ())
        with pytest.raises(ValueError):
            TruthTable(2, ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            TruthTable(2, ((0, 1, 1),))
        with pytest.raises(ValueError):
            TruthTable(2, ((0, 2),))
        nor = nor_gate()
        with pytest.raises(ValueError, match="duplicate"):
            GateTemplate(nor.model, nor.ports, nor.valid_set + nor.valid_set[:1], 2.0)


@pytest.mark.parametrize("gap", [-5.0, -math.inf, math.nan])
def test_template_gap_must_be_a_number_at_least_zero(gap):
    nor = nor_gate()
    with pytest.raises(ValueError, match="is not a number >= 0"):
        GateTemplate(nor.model, nor.ports, nor.valid_set, gap)


@pytest.mark.parametrize("idx", [-1, 3])
def test_template_port_must_name_a_spin(idx):
    nor = nor_gate()
    with pytest.raises(ValueError, match=f"port 'y' index {idx} out of range"):
        GateTemplate(nor.model, {**nor.ports, "y": idx}, nor.valid_set, nor.gap)
