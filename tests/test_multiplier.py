import itertools
import math
import random

import numpy as np
import pytest

from conftest import ground_states, state_energies
from qafactor import multiplier
from qafactor.ising import (
    DimensionError,
    brute_force_ground,
    clamp_fold,
    free_indices,
    merge_spins,
)
from qafactor.multiplier import (
    BIAS,
    FOLD,
    BIAS_STRENGTH,
    build_multiplier,
    clamp_product,
    decode,
    decode_reduced,
    factor_clamp_assignment,
    ground_factor_pairs,
    product_clamp_assignment,
)


class TestBuild:
    def test_qubit_count_formula(self, net11, net22):
        # 6 spins per cell minus the folded boundary addends (n1 + n2),
        # plus one chain spin per inter-cell wire when chains are on.
        assert net11.model.n == 6 - 2
        assert net22.model.n == 4 * 6 - 4
        chained = build_multiplier(1, 2, chains=True)
        plain = build_multiplier(1, 2)
        assert chained.model.n == plain.model.n + chained.n_chain_spins
        assert plain.n_chain_spins == 0

    def test_single_cell_input_sweep(self, net11):
        report = brute_force_ground(net11.model)
        assert report.degeneracy == 4
        for state in ground_states(net11.model.n, report):
            out = decode(net11, state)
            assert out.is_ground
            assert out.p == out.m * out.n

    def test_expected_e0_matches_brute_force(self, net11, net22):
        for net in (net11, net22, build_multiplier(1, 2), build_multiplier(2, 1)):
            report = brute_force_ground(net.model)
            assert report.e0 == pytest.approx(net.expected_e0, abs=1e-9)

    def test_expected_e0_with_chains(self):
        plain = build_multiplier(1, 2)
        chained = build_multiplier(1, 2, chains=True)
        # Each chain spin turns one wire coupling into two.
        extra_couplings = chained.n_chain_spins
        assert chained.expected_e0 == pytest.approx(
            plain.expected_e0 - extra_couplings, abs=1e-9
        )
        assert brute_force_ground(chained.model).e0 == pytest.approx(
            chained.expected_e0, abs=1e-9
        )

    def test_role_map_covers_each_bit_once(self, net22):
        assert (len(net22.factor_a), len(net22.factor_b), len(net22.product)) == (2, 2, 4)
        roles = net22.factor_a + net22.factor_b + net22.product
        assert len(set(roles)) == len(roles)
        assert all(0 <= s < net22.model.n for s in roles)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            build_multiplier(0, 1)
        with pytest.raises(ValueError):
            build_multiplier(1, 1, chain_strength=0.0)

    @pytest.mark.parametrize("strength", [math.nan, math.inf, -math.inf])
    def test_non_finite_chain_strength_rejected(self, strength):
        # A 1x1 network has no wires, so no coupling would ever see the value.
        with pytest.raises(ValueError, match="finite and positive"):
            build_multiplier(1, 1, chain_strength=strength)

    @pytest.mark.parametrize("n1,n2,chains,n_spins", [
        (4, 4, False, 88), (2, 2, True, 28), (3, 2, True, 45)])
    def test_spin_count_bounded_by_model_file_limit(self, monkeypatch, n1, n2, chains,
                                                     n_spins):
        monkeypatch.setattr(multiplier, "MAX_MODEL_SPINS", n_spins)
        assert build_multiplier(n1, n2, chains=chains).model.n == n_spins

        def no_build(*_args):
            raise AssertionError("network composed before the size check")

        monkeypatch.setattr(multiplier, "MAX_MODEL_SPINS", n_spins - 1)
        monkeypatch.setattr(multiplier, "compose", no_build)
        with pytest.raises(ValueError, match=f"{n_spins} spins, above the model-file limit"):
            build_multiplier(n1, n2, chains=chains)


class TestForward:
    def test_all_two_bit_products_exhaustive(self, net22):
        for m, n in itertools.product(range(4), repeat=2):
            clamps = factor_clamp_assignment(net22, m, n)
            reduced, _ = clamp_fold(net22.model, clamps)
            report = brute_force_ground(reduced)
            assert report.degeneracy == 1, (m, n)
            states = np.array(ground_states(reduced.n, report), dtype=np.int8)
            assert [a.tolist() for a in decode_reduced(net22, clamps, states)] == [
                [m], [n], [m * n]]
            assert decode(net22, merge_spins(net22.model.n, clamps, states[0])).is_ground

    def test_clamp_factors_reference_energy(self, net22):
        reduced, offset = clamp_fold(net22.model, factor_clamp_assignment(net22, 3, 2))
        assert brute_force_ground(reduced).e0 == pytest.approx(
            net22.expected_e0 - offset, abs=1e-9
        )

    def test_factor_range_errors(self, net22):
        with pytest.raises(ValueError):
            factor_clamp_assignment(net22, 4, 0)
        with pytest.raises(ValueError):
            factor_clamp_assignment(net22, 0, -1)

    def test_annealed_four_bit_products_match_integer_multiplication(self):
        # Too large to enumerate once clamped? 4x4 clamps leave 80 spins, so
        # use the annealer with the ground-energy oracle instead.
        from qafactor.anneal import RunSummary, Schedule, anneal_batches
        from qafactor.seeds import shot_seed

        net = build_multiplier(4, 4)
        rng_pairs = [(11, 13), (7, 10), (15, 15)]
        for m, n in rng_pairs:
            clamps = factor_clamp_assignment(net, m, n)
            reduced, offset = clamp_fold(net.model, clamps)
            summary = RunSummary(reference_e0=net.expected_e0 - offset)
            for states, energy in anneal_batches(reduced, Schedule(), 40, shot_seed(m, n)):
                hits = summary.add(states, energy)
                _, _, p = decode_reduced(net, clamps, states)
                ground = [decode(net, merge_spins(net.model.n, clamps, state)).is_ground
                          for state in states.tolist()]
                assert ground == hits.tolist()
                assert set(p[hits].tolist()) <= {m * n}
            assert summary.ground_hits >= 1


class TestInverse:
    def test_p9_ground_manifold_is_3x3(self, net22):
        assert ground_factor_pairs(net22, 9) == {(3, 3)}

    def test_p0_all_zero_products(self, net22):
        for m, n in ground_factor_pairs(net22, 0):
            assert m * n == 0

    def test_inverse_soundness_all_products(self, net22):
        for p in range(16):
            pairs = ground_factor_pairs(net22, p)
            for m, n in pairs:
                assert m * n == p
            expected = {(m, n) for m in range(4) for n in range(4) if m * n == p}
            assert pairs == expected

    def test_fold_vs_bias_same_factor_sets(self, net22):
        fold_pairs = ground_factor_pairs(net22, 9)
        biased, offset = clamp_product(net22, 9, method=BIAS)
        assert offset == BIAS_STRENGTH * len(net22.product)
        report = brute_force_ground(biased)
        assert report.e0 == pytest.approx(net22.expected_e0 - offset, abs=1e-9)
        bias_pairs = set()
        for state in ground_states(biased.n, report):
            out = decode(net22, state)
            assert out.p == 9
            bias_pairs.add((out.m, out.n))
        assert bias_pairs == fold_pairs

    @pytest.mark.parametrize("method", [FOLD, BIAS])
    def test_clamp_offset_contract(self, net22, method):
        # Clamped energy + offset = network energy wherever the product reads p.
        clamps = product_clamp_assignment(net22, 9)
        clamped, offset = clamp_product(net22, 9, method=method)
        rng = random.Random(9)
        for _ in range(20):
            free = [rng.choice((-1, 1)) for _ in free_indices(net22.model.n, clamps)]
            state = merge_spins(net22.model.n, clamps, free)
            reduced = free if method == FOLD else state
            [e_clamped] = state_energies(clamped, reduced)
            [e_network] = state_energies(net22.model, state)
            assert e_clamped + offset == pytest.approx(e_network, abs=1e-9)

    def test_chains_do_not_change_factor_sets(self):
        plain = build_multiplier(2, 2)
        chained = build_multiplier(2, 2, chains=True)
        # 2x2 with chains has 28 spins: fold the factors to stay enumerable.
        for p in (4, 9):
            assert ground_factor_pairs(plain, p) == ground_factor_pairs(chained, p)

    def test_product_range_error(self, net22):
        with pytest.raises(ValueError):
            clamp_product(net22, 16)
        with pytest.raises(ValueError):
            clamp_product(net22, -1)
        with pytest.raises(ValueError):
            clamp_product(net22, 3, method="squeeze")


class TestDecode:
    def test_positional_read_out(self, net22):
        clamps = factor_clamp_assignment(net22, 3, 2)
        reduced, _ = clamp_fold(net22.model, clamps)
        state = ground_states(reduced.n, brute_force_ground(reduced))[0]
        m, n, p = decode_reduced(net22, clamps, np.array([state], dtype=np.int8))
        assert (m.tolist(), n.tolist(), p.tolist()) == ([3], [2], [6])

    def test_all_zero_state(self, net11):
        out = decode(net11, (-1,) * net11.model.n)
        assert (out.m, out.n, out.p) == (0, 0, 0)

    def test_non_ground_state_flagged(self, net11):
        report = brute_force_ground(net11.model)
        ground = set(ground_states(net11.model.n, report))
        for code in range(1 << net11.model.n):
            state = tuple(1 if (code >> k) & 1 else -1 for k in range(net11.model.n))
            if state not in ground:
                out = decode(net11, state)
                assert not out.is_ground
                break

    def test_dimension_mismatch(self, net22):
        with pytest.raises(DimensionError):
            decode(net22, (1, -1))
        clamps = factor_clamp_assignment(net22, 3, 2)
        with pytest.raises(DimensionError):
            decode_reduced(net22, clamps, np.ones((2, net22.model.n), dtype=np.int8))

    @pytest.mark.parametrize("bad", [0, 2])
    def test_spin_values_other_than_plus_minus_one_refused(self, net22, bad):
        state = [1] * net22.model.n
        state[5] = bad
        with pytest.raises(ValueError, match="must be -1 or \\+1"):
            decode(net22, state)

    def test_registers_wider_than_63_bits_decode_exactly(self):
        """A 33x32 network has a 65-bit product register: clamped factors
        read back as exact ints from random free states, and a random full
        state decodes as the per-bit shift-sum reference."""
        net = build_multiplier(33, 32)
        assert len(net.product) == 65
        m, n = 2**33 - 1, 2**32 - 1
        clamps = factor_clamp_assignment(net, m, n)
        rng = np.random.default_rng(33)
        free = rng.choice(np.array([-1, 1], dtype=np.int8), (3, net.model.n - len(clamps)))
        got_m, got_n, got_p = decode_reduced(net, clamps, free)
        assert got_m.tolist() == [m] * 3 and got_n.tolist() == [n] * 3
        state = rng.choice([-1, 1], net.model.n).tolist()
        state[net.product[-1]] = 1
        out = decode(net, state)
        m_ref, n_ref, p_ref = (sum((state[s] > 0) << k for k, s in enumerate(register))
                               for register in (net.factor_a, net.factor_b, net.product))
        assert (out.m, out.n, out.p) == (m_ref, n_ref, p_ref)
        assert p_ref >= 2**64


def test_product_clamp_assignment_bits(net22):
    clamps = product_clamp_assignment(net22, 9)
    bits = {net22.product[k]: (9 >> k) & 1 for k in range(4)}
    assert clamps == bits
