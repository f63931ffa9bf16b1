import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ground_states, small_models, spin_states, state_energies, traced
from qafactor import ising
from qafactor.formats import MAX_MODEL_SPINS, ModelFormatError, format_model, parse_model
from qafactor.ising import (
    DimensionError,
    IsingModel,
    SizeCapError,
    brute_force_ground,
    clamp_fold,
    code_spins,
    free_indices,
    merge_spins,
    state_codes,
)

NOR = IsingModel(3, (0.5, 0.5, 1.0), {(0, 1): 0.5, (0, 2): 1.0, (1, 2): 1.0})


def all_states(n):
    return itertools.product((-1, 1), repeat=n)


def loop_energy(model, state):
    """H(s) as one Python sum over every term, zero ones included."""
    total = 0.0
    for hi, si in zip(model.h, state):
        total += hi * si
    for (i, j), v in model.couplings.items():
        total += v * state[i] * state[j]
    return total


def coefficients():
    """Non-grid floats, with exact zeros often enough to be skipped."""
    return st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def rough_models(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    h = [0.0] * n if draw(st.booleans()) else [draw(coefficients()) for _ in range(n)]
    couplings = {}
    if draw(st.booleans()):
        for pair in itertools.combinations(range(n), 2):
            if draw(st.booleans()):
                couplings[pair] = draw(coefficients())
    return IsingModel(n, tuple(h), couplings)


class TestEnergies:
    def test_nor_ground_value(self):
        assert state_energies(NOR, (-1, -1, 1)) == [-1.5]

    def test_nor_all_up(self):
        # Term by term: 0.5 + 0.5 + 1 (biases) + 0.5 + 1 + 1 (couplings).
        assert state_energies(NOR, (1, 1, 1)) == [4.5]

    def test_empty_and_zero_models(self):
        assert state_energies(IsingModel(0, (), {}), ()) == [0.0]
        zero = IsingModel(3, (0.0, 0.0, 0.0), {})
        assert state_energies(zero, (1, -1, 1)) == [0.0]

    @given(small_models(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_global_flip_symmetry_without_biases(self, model, data):
        unbiased = IsingModel(model.n, (0.0,) * model.n, model.couplings)
        state = data.draw(spin_states(model.n))
        e, flipped = state_energies(unbiased, state, tuple(-s for s in state))
        assert e == flipped

    @given(rough_models(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_loop_on_every_column(self, model, data):
        columns = data.draw(st.lists(spin_states(model.n), max_size=6))
        assert state_energies(model, *columns) == [loop_energy(model, c) for c in columns]

    @given(rough_models())
    @settings(max_examples=60, deadline=None)
    def test_enumeration_across_chunk_boundaries(self, model):
        whole = list(ising.code_energies(model))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ising, "_CHUNK_BITS", 1)
            chunks = list(ising.code_energies(model))
        assert len(chunks) == max(1, 1 << model.n >> 1)
        for got in (whole, chunks):
            codes = np.concatenate([c for c, _ in got]).tolist()
            values = np.concatenate([e for _, e in got]).tolist()
            assert codes == list(range(1 << model.n))
            states = [[1 if c >> (model.n - 1 - i) & 1 else -1 for i in range(model.n)]
                      for c in codes]
            assert values == [loop_energy(model, state) for state in states]

    def test_length_mismatch(self):
        # One state too short and one too long for the three-spin NOR model.
        for length in (2, 4):
            with pytest.raises(DimensionError):
                ising.energies(NOR, np.ones((length, 1), dtype=np.int8))

    def test_row_count_checked(self):
        with pytest.raises(DimensionError):
            ising.energies(NOR, np.ones((2, 4), dtype=np.int8))


class TestModelConstruction:
    def test_coupling_key_canonicalized(self):
        m = IsingModel(3, (0.0, 0.0, 0.0), {(2, 0): 1.5})
        assert m.couplings == {(0, 2): 1.5}

    def test_self_coupling_rejected(self):
        with pytest.raises(ValueError):
            IsingModel(2, (0.0, 0.0), {(1, 1): 1.0})

    def test_duplicate_after_normalization_rejected(self):
        with pytest.raises(ValueError):
            IsingModel(2, (0.0, 0.0), {(0, 1): 1.0, (1, 0): 2.0})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            IsingModel(1, (math.nan,), {})
        with pytest.raises(ValueError):
            IsingModel(2, (0.0, 0.0), {(0, 1): math.inf})

    @pytest.mark.parametrize("n,h,couplings,error,match", [
        (-1, (), {}, ValueError, "spin count must be >= 0"),
        (2, (0.0,), {}, DimensionError, "expected 2 biases, got 1"),
        (2, (0.0, 0.0), {(0, 2): 1.0}, ValueError, r"coupling \(0,2\) out of range"),
    ], ids=["negative-n", "bias-count", "coupling-range"])
    def test_bad_shape_rejected(self, n, h, couplings, error, match):
        with pytest.raises(error, match=match):
            IsingModel(n, h, couplings)


class TestClampFold:
    def test_empty_clamp_is_identity(self):
        reduced, offset = clamp_fold(NOR, {})
        assert reduced == NOR
        assert offset == 0.0

    def test_nor_output_clamped_high(self):
        reduced, offset = clamp_fold(NOR, {2: 1})
        assert reduced.h == (1.5, 1.5)
        assert reduced.couplings == {(0, 1): 0.5}
        assert offset == 1.0
        report = brute_force_ground(reduced)
        assert ground_states(reduced.n, report) == ((-1, -1),)
        assert report.e0 + offset == -1.5

    def test_nor_output_clamped_low(self):
        reduced, offset = clamp_fold(NOR, {2: 0})
        assert reduced.h == (-0.5, -0.5)
        assert offset == -1.0
        report = brute_force_ground(reduced)
        assert report.degeneracy == 3
        assert report.e0 + offset == -1.5

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            clamp_fold(NOR, {3: 1})

    def test_bad_bit(self):
        with pytest.raises(ValueError):
            clamp_fold(NOR, {0: -1})

    @given(small_models(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_fold_equivalence_exhaustive(self, model, data):
        indices = data.draw(
            st.lists(st.integers(0, model.n - 1), unique=True, max_size=model.n)
        )
        clamps = {i: data.draw(st.integers(0, 1)) for i in indices}
        reduced, offset = clamp_fold(model, clamps)
        free = list(all_states(reduced.n))
        merged = [merge_spins(model.n, clamps, f) for f in free]
        assert [e + offset for e in state_energies(reduced, *free)] == pytest.approx(
            state_energies(model, *merged), abs=1e-9)

    def test_fold_equivalence_twelve_spins(self):
        rng_h = [((3 * k) % 7 - 3) * 0.25 for k in range(12)]
        couplings = {(i, (i + 3) % 12): 0.5 for i in range(9)}
        couplings.update({(0, 11): -1.0, (1, 6): 0.75})
        model = IsingModel(12, tuple(rng_h), couplings)
        clamps = {0: 1, 3: 0, 7: 1, 11: 0}
        reduced, offset = clamp_fold(model, clamps)
        free = list(all_states(reduced.n))
        merged = [merge_spins(model.n, clamps, f) for f in free]
        assert ([e + offset for e in state_energies(reduced, *free)]
                == state_energies(model, *merged))

    def test_merge_and_free_indices(self):
        clamps = {1: 0, 3: 1}
        assert free_indices(5, clamps) == (0, 2, 4)
        assert merge_spins(5, clamps, (1, -1, 1)) == (1, -1, -1, 1, 1)
        with pytest.raises(DimensionError):
            merge_spins(5, clamps, (1, -1))


class TestBruteForce:
    def test_nor_ground_manifold(self):
        report = brute_force_ground(NOR)
        assert report.e0 == -1.5
        assert report.gap == 2.0
        expected = {(-1, -1, 1), (-1, 1, -1), (1, -1, -1), (1, 1, -1)}
        assert set(ground_states(NOR.n, report)) == expected
        assert report.degeneracy == 4

    def test_single_spin_bias(self):
        report = brute_force_ground(IsingModel(1, (1.0,), {}))
        assert report.e0 == -1.0
        assert ground_states(1, report) == ((-1,),)
        assert report.gap == 2.0

    def test_cap_enforced(self):
        with pytest.raises(SizeCapError):
            brute_force_ground(IsingModel(30, (0.0,) * 30, {}), cap=26)

    def test_all_degenerate_gap_infinite(self):
        report = brute_force_ground(IsingModel(2, (0.0, 0.0), {}))
        assert report.degeneracy == 4
        assert math.isinf(report.gap)

    def test_empty_model(self):
        report = brute_force_ground(IsingModel(0, (), {}))
        assert report.e0 == 0.0
        assert ground_states(0, report) == ((),)

    @given(small_models())
    @settings(max_examples=40, deadline=None)
    def test_e0_matches_scalar_scan(self, model):
        report = brute_force_ground(model)
        energies = state_energies(model, *all_states(model.n))
        assert report.e0 == pytest.approx(min(energies), abs=1e-12)
        ground = [s for s, e in zip(all_states(model.n), energies)
                  if e <= report.e0 + 1e-9]
        assert sorted(ground_states(model.n, report)) == sorted(ground)

    @given(small_models())
    @settings(max_examples=20, deadline=None)
    def test_partition_independence(self, model):
        coarse = brute_force_ground(model)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ising, "_CHUNK_BITS", 2)
            fine = brute_force_ground(model)
        assert (fine.e0, fine.gap) == (coarse.e0, coarse.gap)
        assert fine.codes.tolist() == coarse.codes.tolist()

    def test_ground_states_kept_as_codes(self):
        # Every state of an empty 16-spin model is ground: 65,536 codes of
        # 8 bytes, where tuples of spins would take about 15 MiB.
        report, _, peak = traced(lambda: brute_force_ground(IsingModel(16, (0.0,) * 16, {})))
        assert report.degeneracy == 1 << 16
        assert report.codes.tolist() == list(range(1 << 16))
        assert peak < 6 * 2**20

    def test_ground_codes_held_once(self, monkeypatch):
        # 16 chunks of 2**16 codes, every one ground: beyond the 8-MiB result,
        # the search holds a few chunks, not a second copy of the codes.
        monkeypatch.setattr(ising, "_CHUNK_BITS", 16)
        report, _, peak = traced(lambda: brute_force_ground(IsingModel(20, (0.0,) * 20, {})))
        assert report.degeneracy == 1 << 20
        assert peak < report.codes.nbytes + 8 * (8 << 16)

    def test_ground_codes_trimmed_to_the_tolerance_band(self, monkeypatch):
        # The second chunk's minimum lies inside e0's tolerance band, and its
        # count at its own minimum takes in code 3, which lies above the band.
        monkeypatch.setattr(ising, "_CHUNK_BITS", 1)
        report = brute_force_ground(IsingModel(2, (0.4e-9, 0.4e-9), {}))
        assert report.codes.tolist() == [0, 1, 2]
        assert report.gap == pytest.approx(1.6e-9)

    def test_code_spins_state_codes_round_trip(self):
        assert code_spins(3, np.array([0, 1, 6])).T.tolist() == [
            [-1, -1, -1], [-1, -1, 1], [1, 1, -1]]
        for n in range(6):
            codes = np.arange(1 << n)
            spins = code_spins(n, codes)
            assert spins.dtype == np.int8 and spins.shape == (n, 1 << n)
            assert [tuple(row) for row in spins.T.tolist()] == list(all_states(n))
            assert state_codes(spins.T).tolist() == codes.tolist()
            assert state_codes((spins.T + 1) // 2).tolist() == codes.tolist()


class TestModelFormat:
    def test_round_trip_nor(self):
        assert parse_model(format_model(NOR)) == NOR

    @given(small_models())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, model):
        assert parse_model(format_model(model)) == model

    def test_reader_accepts_any_order_and_comments(self):
        text = "n 3\nJ 1 2 1.0\n# comment\nh 2 1.0\nJ 0 2 1.0\nh 0 0.5\nh 1 0.5\nJ 0 1 0.5\n"
        assert parse_model(text) == NOR

    @pytest.mark.parametrize("text,line", [
        ("h 0 1.0\nn 2\n", 1),            # h before n
        ("n 2\nh 0 1.0\nh 0 2.0\n", 3),   # duplicate bias
        ("n 2\nJ 1 0 1.0\n", 2),          # i >= j
        ("n 2\nJ 0 0 1.0\n", 2),          # self pair
        ("n 2\nJ 0 1 1.0\nJ 0 1 2.0\n", 3),
        ("n 2\nh 5 1.0\n", 2),            # out of range
        ("n 2\nwat 1\n", 2),              # unknown directive
        ("n 2\nn 3\n", 2),                # duplicate n
        ("n 2\nh 0\n", 2),                # wrong arity
        ("n 2 3\n", 1),                   # n arity
        ("n two\n", 1),                   # bad spin count
        ("n -1\n", 1),                    # spin count below range
        ("n 2\nh x 1.0\n", 2),            # bad h token
        ("n 2\nh 0 nan\n", 2),            # non-finite bias
        ("n 2\nJ 0 1\n", 2),              # J arity
        ("n 2\nJ 0 1 one\n", 2),          # bad J token
        ("n 2\nJ 0 2 1.0\n", 2),          # J index out of range
        ("n 2\nJ 0 1 inf\n", 2),          # non-finite coupling
    ])
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ModelFormatError) as err:
            parse_model(text)
        assert err.value.line == line
        assert repr(text.splitlines()[line - 1]) in str(err.value)

    def test_missing_n(self):
        with pytest.raises(ModelFormatError):
            parse_model("# nothing\n")

    def test_spin_count_cap_boundary(self):
        assert parse_model(f"n {MAX_MODEL_SPINS}\n").n == MAX_MODEL_SPINS
        with pytest.raises(ModelFormatError, match="spin count") as err:
            parse_model(f"# header\nn {MAX_MODEL_SPINS + 1}\n")
        assert err.value.line == 2

    @given(st.integers(-10**18, 10**18))
    @settings(max_examples=60, deadline=None)
    def test_spin_count_outside_cap_rejected_before_allocating(self, n):
        text = f"n {n}\nh 0 1.0\n"
        if 1 <= n <= MAX_MODEL_SPINS:
            assert parse_model(text).n == n
        else:
            with pytest.raises(ModelFormatError):
                parse_model(text)

    def test_writer_sorted_and_skips_zero_bias(self):
        m = IsingModel(3, (0.0, 1.0, 0.0), {(1, 2): -1.0, (0, 1): 2.0})
        text = format_model(m)
        assert text == "n 3\nh 1 1.0\nJ 0 1 2.0\nJ 1 2 -1.0\n"
