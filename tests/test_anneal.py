import concurrent.futures
import importlib.machinery
import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ground_states, random_model, state_energies, traced
from qafactor import anneal, seeds
from qafactor.anneal import (
    GEOMETRIC,
    LINEAR,
    RunSummary,
    Schedule,
    ShotResult,
    anneal_batches,
    anneal_shot,
    run_shots,
)
from qafactor.formats import write_shot_rows
from qafactor.gates import half_adder, nor_gate
from qafactor.ising import IsingModel, brute_force_ground, clamp_fold
from qafactor.multiplier import FOLD, build_multiplier, clamp_product
from qafactor.seeds import run_batches, shot_batches, shot_seed, splitmix64

NOR = nor_gate().model


def factor_model(bits: int, p: int) -> IsingModel:
    return clamp_product(build_multiplier(bits, bits), p, method=FOLD)[0]


def walked_temperatures(kind: str, t_hot: float, t_cold: float, sweeps: int) -> list[float]:
    """Every sweep's temperature, one by one: the oracle of schedule checks."""
    if sweeps == 1:
        return [t_cold]
    if kind == GEOMETRIC:
        ratio = (t_cold / t_hot) ** (1.0 / (sweeps - 1))
        return [t_hot * ratio**k for k in range(sweeps)]
    step = (t_cold - t_hot) / (sweeps - 1)
    return [t_hot + step * k for k in range(sweeps)]


# Temperatures from subnormal to near overflow, so that ramps round to 0.
temperatures = st.one_of(
    st.floats(),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-323, 307)),
)


def batch_of_each_shot(seeds: list[int]) -> list[list[int]]:
    """A shot-runner batch whose result per shot is the seeds it was handed."""
    return [seeds] * len(seeds)


def seeds_of(master_seed: int, lo: int, hi: int) -> list[int]:
    """The seeds of shots ``lo``..``hi - 1``, in shot order."""
    return [shot_seed(master_seed, k) for k in range(lo, hi)]


class TestSchedule:
    def test_geometric_endpoints(self):
        temps = list(Schedule(GEOMETRIC, 3.0, 0.05, 100).temperatures())
        assert temps[0] == pytest.approx(3.0)
        assert temps[-1] == pytest.approx(0.05)
        assert all(t1 > t2 for t1, t2 in zip(temps, temps[1:]))

    def test_linear_endpoints(self):
        temps = list(Schedule(LINEAR, 2.0, 1.0, 5).temperatures())
        assert temps == pytest.approx([2.0, 1.75, 1.5, 1.25, 1.0])

    def test_single_sweep(self):
        assert list(Schedule(GEOMETRIC, 3.0, 0.05, 1).temperatures()) == [0.05]

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule("cosine", 3.0, 0.05, 10)
        with pytest.raises(ValueError):
            Schedule(GEOMETRIC, 0.04, 0.05, 10)
        with pytest.raises(ValueError):
            Schedule(GEOMETRIC, 3.0, 0.0, 10)
        with pytest.raises(ValueError):
            Schedule(GEOMETRIC, 3.0, 0.05, 0)
        for kind in (GEOMETRIC, LINEAR):
            with pytest.raises(ValueError, match="finite"):
                Schedule(kind, math.inf, 1.0, 10)
        with pytest.raises(ValueError, match="temperature 0.0 at sweep 1"):
            Schedule(GEOMETRIC, 1e200, 1e-200, 3)

    @given(st.sampled_from([GEOMETRIC, LINEAR]), st.floats(), st.floats(),
           st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_accepted_schedules_have_finite_positive_temperatures(self, kind, t_hot, t_cold,
                                                                 sweeps):
        try:
            schedule = Schedule(kind, t_hot, t_cold, sweeps)
        except ValueError:
            return
        temps = list(schedule.temperatures())
        assert len(temps) == sweeps
        assert all(0.0 < t < math.inf for t in temps)
        assert temps[0] == (t_hot if sweeps > 1 else t_cold)

    @given(st.sampled_from([GEOMETRIC, LINEAR]), temperatures, temperatures,
           st.integers(1, 300))
    @example(GEOMETRIC, 1e200, 1e-200, 3)
    @example(LINEAR, 1.0, 1e-20, 3)
    @example(GEOMETRIC, 1e-300, 1e-320, 40)
    @settings(max_examples=500, deadline=None)
    def test_validation_accepts_exactly_what_the_walk_accepts(self, kind, t_hot, t_cold,
                                                              sweeps):
        if not (math.isfinite(t_hot) and t_hot >= t_cold > 0):
            with pytest.raises(ValueError, match="t_hot >= t_cold > 0"):
                Schedule(kind, t_hot, t_cold, sweeps)
            return
        walk = walked_temperatures(kind, t_hot, t_cold, sweeps)
        bad = [(k, t) for k, t in enumerate(walk) if not 0.0 < t < math.inf]
        if not bad:
            assert list(Schedule(kind, t_hot, t_cold, sweeps).temperatures()) == walk
            return
        # Refused, naming the first sweep the walk finds.
        k, t = bad[0]
        with pytest.raises(ValueError, match=re.escape(f"temperature {t!r} at sweep {k};")):
            Schedule(kind, t_hot, t_cold, sweeps)

    def test_validation_does_not_walk_the_sweeps(self):
        # 10^12 sweeps would take hours to walk in Python.
        assert Schedule(sweeps=10**12).sweeps == 10**12
        assert Schedule(LINEAR, 3.0, 0.05, 10**12).sweeps == 10**12
        with pytest.raises(ValueError, match="temperature 0.0 at sweep 1;"):
            Schedule(GEOMETRIC, 1e200, 1e-200, 10**12)


class TestAcceptanceRule:
    """One spin, one sweep: the flip is decided by the shot's first uniform."""

    @pytest.mark.parametrize("h,temperature", [(0.5, 1.0), (1.0, 1.0), (0.25, 2.0)])
    def test_flip_follows_first_uniform(self, h, temperature):
        model = IsingModel(1, (h,), {})
        schedule = Schedule(GEOMETRIC, temperature, temperature, 1)
        shots = 300
        _, batched = run_shots(model, schedule, shots, master_seed=4, keep_shots=True)
        uphill = {True: 0, False: 0}
        for k in range(shots):
            rng = np.random.Generator(np.random.PCG64(shot_seed(4, k)))
            start = 1 if rng.integers(0, 2, 1)[0] else -1
            u = float(rng.random())
            delta_e = -2.0 * start * h
            p = math.exp(-delta_e / temperature)
            if abs(u - p) < 1e-12:
                continue
            flips = delta_e <= 0.0 or u < p
            if delta_e > 0.0:
                uphill[flips] += 1
            expected = (-start if flips else start,)
            assert anneal_shot(model, schedule, shot_seed(4, k), k).state == expected
            assert batched[k].state == expected
        # Both uphill outcomes occur, so the threshold itself was exercised.
        assert uphill[True] > 0 and uphill[False] > 0


class TestAnnealShot:
    def test_single_spin_finds_minimum(self):
        model = IsingModel(1, (1.0,), {})
        for seed in range(5):
            result = anneal_shot(model, Schedule(), seed)
            assert result.state == (-1,)
            assert result.energy == -1.0

    def test_nor_always_reaches_valid_set(self):
        valid = set(ground_states(NOR.n, brute_force_ground(NOR)))
        schedule = Schedule(GEOMETRIC, 3.0, 0.05, 2000)
        for k in range(100):
            result = anneal_shot(NOR, schedule, shot_seed(7, k), index=k)
            assert result.energy == -1.5
            assert result.state in valid

    def test_clamped_nor_unique_ground(self):
        reduced, _ = clamp_fold(NOR, {2: 1})
        for k in range(20):
            result = anneal_shot(reduced, Schedule(), shot_seed(3, k))
            assert result.state == (-1, -1)

    def test_energy_field_is_exact(self):
        result = anneal_shot(NOR, Schedule(sweeps=50), seed=11)
        assert [result.energy] == state_energies(NOR, result.state)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            anneal_shot(IsingModel(0, (), {}), Schedule(), 1)


class TestRunShots:
    def test_repeat_runs_byte_identical(self):
        a = run_shots(NOR, Schedule(), 50, master_seed=42, reference_e0=-1.5)
        b = run_shots(NOR, Schedule(), 50, master_seed=42, reference_e0=-1.5)
        assert a.to_text() == b.to_text()

    def test_worker_count_independence(self):
        kwargs = dict(n_shots=40, master_seed=9, reference_e0=-1.5)
        serial = run_shots(NOR, Schedule(sweeps=200), **kwargs)
        four = run_shots(NOR, Schedule(sweeps=200), workers=4, **kwargs)
        assert serial.to_text() == four.to_text()

    def test_inverse_nor_histogram_support(self):
        reduced, _ = clamp_fold(NOR, {2: 0})
        summary = run_shots(reduced, Schedule(), 200, master_seed=5,
                            reference_e0=brute_force_ground(reduced).e0)
        assert summary.ground_hits == 200
        assert set(summary.histogram) == {"01", "10", "11"}

    def test_never_below_ground(self):
        e0 = brute_force_ground(NOR).e0
        for sweeps in (20, 200):
            summary = run_shots(NOR, Schedule(sweeps=sweeps), 100, master_seed=13,
                                reference_e0=e0)
            assert summary.best_energy >= e0

    def test_more_sweeps_do_not_hurt_hit_rate(self):
        e0 = brute_force_ground(NOR).e0
        quick = run_shots(NOR, Schedule(sweeps=20), 200, master_seed=21, reference_e0=e0)
        slow = run_shots(NOR, Schedule(sweeps=2000), 200, master_seed=21, reference_e0=e0)
        assert slow.ground_hits >= quick.ground_hits

    def test_histogram_counts_sum_to_shots(self):
        summary = run_shots(NOR, Schedule(sweeps=50), 37, master_seed=2)
        assert sum(summary.histogram.values()) == 37
        assert summary.ground_hits is None
        assert summary.ground_hit_rate is None

    def test_keep_shots_returns_ordered_results(self):
        summary, shots = run_shots(NOR, Schedule(sweeps=50), 10, master_seed=3,
                                   keep_shots=True)
        assert [r.index for r in shots] == list(range(10))
        assert summary.shots == 10

    def test_hits_label_each_shot_in_order(self, monkeypatch):
        """The summary labels each batch's shots as they arrive, over several
        batches and through a pool, and counts the labels; row k of the
        batches equals the scalar run of shot k."""
        monkeypatch.setattr(seeds, "BATCH_BYTES", 7 * anneal._shot_bytes(NOR.n))
        hot = Schedule(t_hot=5.0, t_cold=5.0, sweeps=1)
        for workers in (1, 2):
            summary = RunSummary(reference_e0=-1.5)
            rows, labels = [], []
            for states, energy in anneal_batches(NOR, hot, 40, 4, workers):
                assert len(energy) <= 7
                labels += summary.add(states, energy).tolist()
                rows += zip(map(tuple, states.tolist()), energy.tolist())
            assert labels == [e == -1.5 for _, e in rows]
            assert summary.ground_hits == sum(labels) and summary.shots == 40
            assert 0 < summary.ground_hits < 40
            assert [ShotResult(*row, k) for k, row in enumerate(rows)] == [
                anneal_shot(NOR, hot, shot_seed(4, k), k) for k in range(40)]

    def test_shot_count_validation(self):
        with pytest.raises(ValueError):
            run_shots(NOR, Schedule(), 0, master_seed=1)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            run_shots(IsingModel(0, (), {}), Schedule(), 1, master_seed=1)


class TestFields:
    @given(n=st.integers(1, 16), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @example(n=14, k=1, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_equals_public_sparse_product(self, n, k, seed):
        """SciPy's kernel, called directly, sums each row as the public
        ``csr_array @`` does: non-dyadic coefficients round alike."""
        from scipy.sparse import csr_array

        model = random_model(n, seed)
        plan = anneal._sweep_plan(model)
        dense = np.zeros((n, n))
        for (i, j), v in model.couplings.items():
            dense[i, j] = dense[j, i] = v
        order = plan.order
        spins = np.random.default_rng(seed).choice([-1.0, 1.0], size=(n, k))
        expected = np.asarray(model.h)[order, None] + csr_array(dense[order][:, order]) @ spins
        assert np.array_equal(anneal._fields(plan, spins), expected)

    def test_missing_extension_names_the_directory_searched(self, monkeypatch, tmp_path):
        found = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        found.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(anneal, "find_spec", lambda name: found)
        anneal._sparsetools.cache_clear()
        try:
            with pytest.raises(ImportError, match=re.escape(str(tmp_path / "sparse"))):
                anneal._sparsetools()
        finally:
            anneal._sparsetools.cache_clear()


class TestBatchedOracle:
    """``run_shots`` against the scalar reference loop, shot for shot."""

    @pytest.mark.parametrize("name", ["nor", "half-adder", "mult-unit", "factor-4-2x2",
                                      "factor-15-4x4"])
    def test_equals_anneal_shot(self, name, mult_unit):
        model = {
            "nor": lambda: NOR,
            "half-adder": lambda: half_adder().model,
            "mult-unit": lambda: mult_unit.model,
            "factor-4-2x2": lambda: factor_model(2, 4),
            "factor-15-4x4": lambda: factor_model(4, 15),
        }[name]()
        shots = 20
        _, batched = run_shots(model, Schedule(), shots, master_seed=17, keep_shots=True)
        for k in range(shots):
            assert batched[k] == anneal_shot(model, Schedule(), shot_seed(17, k), k)

    def test_non_dyadic_model_equals_anneal_shot(self):
        model = random_model(14, seed=3)
        schedule = Schedule(sweeps=300)
        _, batched = run_shots(model, schedule, 10, master_seed=8, keep_shots=True)
        for k in range(10):
            assert batched[k] == anneal_shot(model, schedule, shot_seed(8, k), k)

    def test_batch_and_worker_independence(self, monkeypatch):
        model = random_model(14, seed=5)
        schedule = Schedule(sweeps=300)
        _, few = run_shots(model, schedule, 7, master_seed=2, keep_shots=True)
        _, many = run_shots(model, schedule, 50, master_seed=2, keep_shots=True)
        _, three = run_shots(model, schedule, 50, master_seed=2, workers=3, keep_shots=True)
        assert few == many[:7]
        assert three == many
        # A budget of a few shots per batch: still the same shots.
        monkeypatch.setattr(seeds, "BATCH_BYTES", 3 * anneal._shot_bytes(model.n))
        _, small = run_shots(model, schedule, 50, master_seed=2, keep_shots=True)
        assert small == many

    def test_flip_attempts_capped_before_any_shot(self, monkeypatch):
        # Batches of two shots: 6 shots are 3 batches, each charged per sweep.
        schedule = Schedule(sweeps=10)
        monkeypatch.setattr(seeds, "BATCH_BYTES", 2 * anneal._shot_bytes(NOR.n))
        monkeypatch.setattr(anneal, "MAX_FLIP_ATTEMPTS", 10 * (
            3 * anneal.SWEEP_OVERHEAD + 5 * (NOR.n + anneal.SHOT_OVERHEAD)))
        assert run_shots(NOR, schedule, 5, master_seed=1).shots == 5
        ran = []
        monkeypatch.setattr(anneal, "_anneal_batch", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match=r"10 sweeps x \(1000 per batch x 3 \+ 6 shots x "
                                             r"\(3 spins \+ 16\)\) is 3\.11e\+04 flip attempts"):
            run_shots(NOR, schedule, 6, master_seed=1)
        assert ran == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flip_cap_does_not_depend_on_workers(self, monkeypatch, workers):
        """Two processes cut a run into more batches than one, but the cap
        charges the batches of the budget alone: the same runs pass."""
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(seeds, "BATCH_BYTES", 10 * anneal._shot_bytes(NOR.n))
        assert len(shot_batches(6, workers, anneal._shot_bytes(NOR.n))) == workers
        schedule = Schedule(sweeps=10)
        monkeypatch.setattr(anneal, "MAX_FLIP_ATTEMPTS", 10 * (
            anneal.SWEEP_OVERHEAD + 6 * (NOR.n + anneal.SHOT_OVERHEAD)))
        assert run_shots(NOR, schedule, 6, master_seed=1, workers=workers).shots == 6
        with pytest.raises(ValueError, match=r"1000 per batch x 1 \+ 7 shots"):
            run_shots(NOR, schedule, 7, master_seed=1, workers=workers)

    def test_per_sweep_overhead_counts_against_the_cap(self, monkeypatch):
        """A one-spin, one-shot run pays for its sweeps, not only its flips:
        10^11 sweeps would take weeks at about 10 us each."""
        def refuse(*args):
            raise AssertionError("shots were dispatched")
        monkeypatch.setattr(anneal, "run_batches", refuse)
        with pytest.raises(ValueError, match="more than the 1e\\+12 allowed"):
            run_shots(IsingModel(1, (0.5,), {}), Schedule(sweeps=10**11), 1, master_seed=1)

    def test_per_shot_overhead_counts_against_the_cap(self, monkeypatch):
        """Many shots of a one-spin model pay for each shot-sweep, about 0.15 us
        (10 attempts at 70 M/s), not only for its one flip: 2 x 10^11
        shot-sweeps would take over 8 hours."""
        def refuse(*args):
            raise AssertionError("shots were dispatched")
        monkeypatch.setattr(anneal, "run_batches", refuse)
        model, schedule = IsingModel(1, (0.5,), {}), Schedule(sweeps=20_000)
        shots = 10**7
        batches = -(-shots // seeds.batch_size(anneal._shot_bytes(1)))
        assert schedule.sweeps * (batches * anneal.SWEEP_OVERHEAD + shots) < anneal.MAX_FLIP_ATTEMPTS
        with pytest.raises(ValueError, match="more than the 1e\\+12 allowed"):
            run_shots(model, schedule, shots, master_seed=1)

    def test_sweeps_not_a_multiple_of_the_block(self):
        schedule = Schedule(sweeps=anneal.SWEEP_BLOCK * 3 + 5)
        _, batched = run_shots(NOR, schedule, 5, master_seed=6, keep_shots=True)
        for k in range(5):
            assert batched[k] == anneal_shot(NOR, schedule, shot_seed(6, k), k)

    def test_colour_classes_are_independent_sets(self):
        for bits, p in ((4, 15), (6, 35), (8, 143)):
            model = factor_model(bits, p)
            plan = anneal._sweep_plan(model)
            assert len(plan.bounds) == 6 + 1
            assert plan.bounds[0] == 0 and plan.bounds[-1] == model.n
            assert sorted(plan.order.tolist()) == list(range(model.n))
            colour = {}
            for c, (lo, hi) in enumerate(zip(plan.bounds, plan.bounds[1:])):
                members = plan.order[lo:hi].tolist()
                assert members == sorted(members)
                colour.update(dict.fromkeys(members, c))
            assert all(colour[i] != colour[j] for i, j in model.couplings)

    def test_working_memory_does_not_grow_with_shots(self, monkeypatch):
        """Beyond the results it returns, run_shots holds one batch at a time."""
        model = factor_model(4, 15)
        schedule = Schedule(sweeps=16)
        monkeypatch.setattr(seeds, "BATCH_BYTES", 20 * anneal._shot_bytes(model.n))
        run_shots(model, schedule, 2, master_seed=1)

        def transient_peak(n_shots):
            kept, current, peak = traced(
                lambda: run_shots(model, schedule, n_shots, master_seed=1, keep_shots=True))
            del kept
            return peak - current

        one_batch = transient_peak(20)
        ten_batches = transient_peak(200)
        assert ten_batches < 1.25 * one_batch + (32 << 10)

    def test_peak_fits_the_batch_budget(self, monkeypatch):
        """Generators and results included, a run of 25 batches peaks within
        the budget plus 1/16 of it, for the seed list, the returned arrays
        and the fold."""
        monkeypatch.setattr(seeds, "BATCH_BYTES", 1 << 20)
        schedule = Schedule(sweeps=2)
        run_shots(NOR, schedule, 10, master_seed=1)
        shots = 25 * seeds.batch_size(anneal._shot_bytes(NOR.n))
        _, _, peak = traced(lambda: run_shots(NOR, schedule, shots, master_seed=1))
        assert peak < seeds.BATCH_BYTES * 17 / 16

    def test_generator_bytes_cover_one_generator(self):
        """The per-shot constant is not below what one seeded generator
        allocates, whatever the NumPy version."""
        seed = shot_seed(1, 0)
        np.random.Generator(np.random.PCG64(seed))
        rng, size, _ = traced(lambda: np.random.Generator(np.random.PCG64(seed)))
        del rng
        assert 0 < size <= seeds.GENERATOR_BYTES

    def test_temperatures_are_streamed_one_block_ahead(self, monkeypatch):
        """No run holds a value per sweep: the schedule streams its
        temperatures, and the flip limits read at most one block ahead."""
        schedule = Schedule(GEOMETRIC, 3.0, 0.05, 200_000)
        # A list of 200,000 temperatures alone would take about 6 MiB.
        assert traced(schedule.temperatures)[2] < 16 << 10

        flip_limits, ahead = anneal._flip_limits, []

        def counted(rngs, order, temps, *rest):
            assert not hasattr(temps, "__len__")
            pulled = 0

            def stream():
                nonlocal pulled
                for t in temps:
                    pulled += 1
                    yield t

            for sweep, out in enumerate(flip_limits(rngs, order, stream(), *rest), start=1):
                ahead.append(pulled - sweep)
                yield out

        monkeypatch.setattr(anneal, "_flip_limits", counted)
        sweeps = 20 * anneal.SWEEP_BLOCK + 3
        run_shots(IsingModel(1, (0.5,), {}), Schedule(sweeps=sweeps), 2, master_seed=1)
        assert len(ahead) == sweeps
        assert 0 <= min(ahead) and max(ahead) < anneal.SWEEP_BLOCK


class TestSeeds:
    def test_splitmix_is_64_bit_and_deterministic(self):
        assert splitmix64(0) == splitmix64(0)
        values = {splitmix64(k) for k in range(100)}
        assert len(values) == 100
        assert all(0 <= v < (1 << 64) for v in values)

    def test_shot_seeds_distinct_across_indices_and_masters(self):
        seeds = {shot_seed(m, k) for m in range(10) for k in range(100)}
        assert len(seeds) == 1000

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            shot_seed(1, -1)


def batches_of(n_shots: int, workers: int, shot_bytes: int) -> list[range]:
    """The shot ranges of the batches :func:`shot_batches` cuts."""
    starts = shot_batches(n_shots, workers, shot_bytes)
    return [range(lo, min(lo + starts.step, n_shots)) for lo in starts]


class _LazyFuture(concurrent.futures.Future):
    """A future that runs its call when its result is first asked for."""

    def __init__(self, call):
        super().__init__()
        self.call = call

    def result(self, timeout=None):
        if not self.done():
            try:
                self.set_result(self.call())
            except Exception as exc:
                self.set_exception(exc)
        return super().result(timeout)


class _FakePool:
    """An executor that runs nothing until asked, and keeps its futures."""

    def __init__(self):
        self.futures = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.futures.append(_LazyFuture(lambda: fn(*args)))
        return self.futures[-1]


def refuse_shot_zero(master_seed: int, seeds: list[int]) -> list[int]:
    if shot_seed(master_seed, 0) in seeds:
        raise ArithmeticError("shot 0 failed")
    return seeds


class TestShotRanges:
    def test_seven_shots_over_three_workers(self, monkeypatch):
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 8)
        assert batches_of(7, 3, 1) == [range(0, 3), range(3, 6), range(6, 7)]

    def test_huge_worker_count_capped_by_cpus_and_shots(self, monkeypatch):
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        assert batches_of(7, 10**6, 1) == [range(0, 4), range(4, 7)]
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 64)
        assert batches_of(7, 10**6, 1) == [range(k, k + 1) for k in range(7)]
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 1)
        assert batches_of(7, 3, 1) == [range(0, 7)]

    @pytest.mark.parametrize("workers", [0, -1, -10**6])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            shot_batches(7, workers, 1)

    def test_no_shots_rejected(self):
        with pytest.raises(ValueError, match="n_shots"):
            shot_batches(0, 1, 1)

    @given(st.integers(1, 10**4), st.integers(1, 10**7), st.integers(1, 256),
           st.integers(1, 2 * seeds.BATCH_BYTES))
    @example(5, 4, 4, 1)
    def test_batches_tile_the_shots_in_order(self, n_shots, workers, cpus, shot_bytes):
        """Batches fit the budget and give every process an even share at
        most.  Below p (p - 1) shots on p processes that share can leave
        fewer batches than processes (5 shots on 4: 2 + 2 + 1), which still
        run in one round."""
        with mock.patch.object(seeds, "_usable_cpus", lambda: cpus):
            batches = batches_of(n_shots, workers, shot_bytes)
        assert [k for shots in batches for k in shots] == list(range(n_shots))
        processes = min(workers, cpus)
        for shots in batches:
            assert len(shots) * shot_bytes <= seeds.BATCH_BYTES or len(shots) == 1
            assert len(shots) <= -(-n_shots // processes)
        if n_shots >= processes * (processes - 1):
            assert len(batches) >= min(processes, n_shots)

    def test_one_range_runs_in_process(self, monkeypatch):
        # A lambda cannot be pickled, so these calls fail if a pool starts.
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 1)
        task = lambda tag, seeds: [(tag, s) for s in seeds]  # noqa: E731
        assert list(run_batches(task, ("x",), 5, 3, 10**6, 1)) == [
            [("x", s) for s in seeds_of(3, 0, 5)]]
        monkeypatch.undo()
        assert list(run_batches(task, ("y",), 1, 3, 10**6, 1)) == [[("y", shot_seed(3, 0))]]

    def test_batches_fit_the_budget(self, monkeypatch):
        monkeypatch.setattr(seeds, "BATCH_BYTES", 100)
        assert list(run_batches(batch_of_each_shot, (), 7, 1, 1, 30)) == (
            [[seeds_of(1, 0, 3)] * 3, [seeds_of(1, 3, 6)] * 3, [seeds_of(1, 6, 7)]])
        # A shot larger than the budget still runs, one per batch.
        assert list(run_batches(batch_of_each_shot, (), 2, 1, 1, 10**9)) == [
            [seeds_of(1, 0, 1)], [seeds_of(1, 1, 2)]]

    def test_batches_run_through_a_pool_in_shot_order(self, monkeypatch):
        """Three batches on two processes, cut with no regard to which
        process runs them."""
        monkeypatch.setattr(seeds, "BATCH_BYTES", 2)
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        assert list(run_batches(batch_of_each_shot, (), 6, 9, 2, 1)) == (
            [[seeds_of(9, 0, 2)] * 2, [seeds_of(9, 2, 4)] * 2, [seeds_of(9, 4, 6)] * 2])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_batch_is_handed_its_shots_seeds(self, monkeypatch, workers):
        """In process and through a real pool, each batch receives exactly
        the seeds of its shots, in shot order."""
        monkeypatch.setattr(seeds, "BATCH_BYTES", 3)
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        assert list(run_batches(list, (), 8, 2024, workers, 1)) == [
            seeds_of(2024, lo, min(lo + 3, 8)) for lo in range(0, 8, 3)]

    def test_cut_is_lazy(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        shot_bytes = seeds.BATCH_BYTES // 4
        assert len(shot_batches(10**15, 1, shot_bytes)) == 10**15 // 4
        batches = run_batches(batch_of_each_shot, (), 10**15, 1, 1, shot_bytes)
        assert next(batches) == [seeds_of(1, 0, 4)] * 4
        assert next(batches) == [seeds_of(1, 4, 8)] * 4

    def test_pool_holds_one_batch_per_process(self, monkeypatch):
        """A failing batch, or a caller that stops, cancels the queued
        batches, and no more are submitted."""
        pools = []

        def fake_pool(max_workers):
            pools.append(_FakePool())
            return pools[-1]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fake_pool)
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        shot_bytes = seeds.BATCH_BYTES // 2
        with pytest.raises(ArithmeticError, match="shot 0 failed"):
            list(run_batches(refuse_shot_zero, (5,), 12, 5, 2, shot_bytes))
        futures = pools[-1].futures
        assert len(futures) == 2
        assert futures[0].exception() is not None
        assert all(f.cancelled() for f in futures[1:])

        stopped = run_batches(list, (), 12, 5, 2, shot_bytes)
        assert next(stopped) == seeds_of(5, 0, 2)
        stopped.close()
        futures = pools[-1].futures
        assert len(futures) == 2
        assert futures[0].done() and all(f.cancelled() for f in futures[1:])


class TestReporting:
    def test_summary_text_layout(self):
        summary = RunSummary(3, -1.5, -1.5, 2, {"01": 2, "10": 1})
        text = summary.to_text()
        assert text.splitlines() == [
            "shots 3",
            "best_energy -1.5",
            "reference_e0 -1.5",
            "ground_hits 2",
            "ground_hit_rate 0.6666666666666666",
            "outcomes 2",
            "count 01 2",
            "count 10 1",
        ]

    def test_csv_format(self):
        """Batches append rows under one header, written before shot 0 only;
        a batch without labels leaves ground_hit empty."""
        states = np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8)
        energy = np.array([-1.5, 0.1])
        decoded = tuple(np.array([v, v + 1], dtype=object) for v in (1, 2, 2**70))
        buf = io.StringIO()
        write_shot_rows(buf, 0, states, energy, np.array([False, True]), decoded)
        write_shot_rows(buf, 2, states[:1], energy[:1], None, tuple(a[:1] for a in decoded))
        assert buf.getvalue().splitlines() == [
            "shot,energy,ground_hit,state_bits,M,N,P",
            f"0,-1.5,0,101,1,2,{2**70}",
            f"1,0.1,1,001,2,3,{2**70 + 1}",
            f"2,-1.5,,101,1,2,{2**70}",
        ]
        buf = io.StringIO()
        write_shot_rows(buf, 0, states, energy, None, None)
        assert buf.getvalue().splitlines()[0] == "shot,energy,ground_hit,state_bits"
