import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qafactor.gates import NOR_TRUTH, TruthTable, verify_gate
from qafactor.ising import brute_force_ground, energies
from qafactor.synth import (
    GRID,
    MULT_UNIT_PORTS,
    SynthesisError,
    _build_problem,
    multiplier_unit_table,
    synthesize_penalty,
)


def cell_relation_holds(bits):
    a, b, c, d, carry, s = bits
    return 2 * carry + s == a * b + c + d


class TestMultiplierUnitTable:
    def test_sixteen_rows_one_per_input(self):
        table = multiplier_unit_table()
        assert table.n_vars == 6
        assert len(table.valid) == 16
        assert len({row[:4] for row in table.valid}) == 16
        assert all(cell_relation_holds(row) for row in table.valid)

    def test_reference_penalty_polynomial_matches_table(self):
        # Independent check that a quadratic penalty for the cell relation
        # exists: p = 2*D^2 + D*(1 - 2a - 2b) + a*b with D = 2e + s - c - d
        # is 0 exactly on the valid rows and >= 1 elsewhere.
        valid = set(multiplier_unit_table().valid)
        for bits in itertools.product((0, 1), repeat=6):
            a, b, c, d, e, s = bits
            dd = 2 * e + s - c - d
            p = 2 * dd * dd + dd * (1 - 2 * a - 2 * b) + a * b
            if bits in valid:
                assert p == 0
            else:
                assert p >= 1


class TestSynthesizedUnit:
    def test_ground_manifold_is_cell_relation(self, mult_unit):
        report = brute_force_ground(mult_unit.model)
        assert report.degeneracy == 16
        for state in report.states:
            assert cell_relation_holds(tuple((s + 1) // 2 for s in state))
        assert report.gap >= 1.0 - 1e-9

    def test_verifies_with_declared_gap(self, mult_unit):
        report = verify_gate(mult_unit)
        assert report.passed
        assert mult_unit.gap >= 1.0

    def test_coefficients_on_quarter_grid_and_bounded(self, mult_unit):
        values = list(mult_unit.model.h) + list(mult_unit.model.couplings.values())
        for v in values:
            assert abs(v) <= 2.0 + 1e-9
            assert abs(v / GRID - round(v / GRID)) < 1e-9

    def test_deterministic(self, mult_unit):
        # The shipped cell is a literal; the LP is its generator.  Equality
        # covers model, ports, valid set and gap.
        again = synthesize_penalty(multiplier_unit_table(), gap=1.0, bound=2.0,
                                   ports=dict(MULT_UNIT_PORTS))
        assert again == mult_unit


class TestSynthesizePenalty:
    def test_nor_table_resynthesis(self):
        gate = synthesize_penalty(NOR_TRUTH, gap=2.0, bound=1.0)
        report = verify_gate(gate)
        assert report.passed
        assert set(gate.valid_set) == set(NOR_TRUTH.valid)
        assert report.achieved_gap >= 2.0 - 1e-9

    def test_all_valid_table_gives_zero_model(self):
        table = TruthTable(2, tuple(itertools.product((0, 1), repeat=2)))
        gate = synthesize_penalty(table, gap=1.0, bound=1.0)
        assert gate.model.h == (0.0, 0.0)
        assert gate.model.couplings == {}

    def test_xor_infeasible_on_three_spins(self):
        xor = TruthTable(3, ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))
        with pytest.raises(SynthesisError) as err:
            synthesize_penalty(xor, gap=1.0, bound=4.0)
        assert "separation constraints" in str(err.value)

    def test_valid_states_share_energy(self):
        gate = synthesize_penalty(multiplier_unit_table(), gap=1.0, bound=2.0)
        valid = 2 * np.array(multiplier_unit_table().valid, dtype=np.int8).T - 1
        assert len(set(np.round(energies(gate.model, valid), 9).tolist())) == 1

    def test_target_lowered_to_a_grid_model(self):
        """The LP reaches gap 8/3 here, which snaps to 2.5, and no 1/4-grid
        model reaches 2.5 or 2.25: the walk settles at the requested 2.0
        rather than return the LP's thirds, and refuses a gap no grid model
        reaches."""
        table = TruthTable(4, ((0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 0),
                               (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0)))
        gate = synthesize_penalty(table, gap=2.0, bound=2.0)
        coeffs = (*gate.model.h, *gate.model.couplings.values())
        assert all(c == round(c / GRID) * GRID and abs(c) <= 2.0 for c in coeffs)
        report = verify_gate(gate)
        assert report.passed and report.achieved_gap >= 2.0
        assert gate.gap == 2.0
        with pytest.raises(SynthesisError, match="1/4-grid"):
            synthesize_penalty(table, gap=2.5, bound=2.0)

    @given(st.sets(st.tuples(*[st.integers(0, 1)] * 3), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_feasible_syntheses_always_verify(self, valid):
        table = TruthTable(3, tuple(sorted(valid)))
        try:
            gate = synthesize_penalty(table, gap=0.5, bound=4.0)
        except SynthesisError:
            return  # table not realizable on 3 spins at this gap
        report = verify_gate(gate)
        assert report.passed
        assert report.achieved_gap >= 0.5 - 1e-9

    def test_one_variable_table(self):
        gate = synthesize_penalty(TruthTable(1, ((1,),)), gap=1.0, bound=2.0)
        assert gate.model.h == (-2.0,) and gate.model.couplings == {}
        assert verify_gate(gate).passed

    @given(st.integers(1, 6).flatmap(lambda n: st.sets(
        st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=1 << n)))
    @settings(max_examples=40, deadline=None)
    def test_problem_rows_are_the_state_walk(self, valid):
        # Oracle: every bit vector in itertools.product order, one row
        # [s_i ..., s_i s_j ...] each, split by membership in the table.
        n = len(next(iter(valid)))
        pairs = list(itertools.combinations(range(n), 2))
        rows = {True: [], False: []}
        for bits in itertools.product((0, 1), repeat=n):
            s = [2 * b - 1 for b in bits]
            rows[bits in valid].append([float(x) for x in s]
                                       + [float(s[i] * s[j]) for i, j in pairs])
        prob = _build_problem(TruthTable(n, tuple(sorted(valid))), 2.0)
        assert prob.pairs == pairs
        assert prob.a_valid.tolist() == rows[True]
        assert prob.a_invalid.tolist() == rows[False]
        assert prob.a_invalid.shape == (len(rows[False]), n + len(pairs))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synthesize_penalty(NOR_TRUTH, gap=0.0, bound=1.0)
        with pytest.raises(ValueError):
            synthesize_penalty(NOR_TRUTH, gap=2.0, bound=0.5)
