import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import j_unit_kt, potential_minima, readout_wells, traced
from qafactor import fluxsim, seeds
from qafactor.fluxsim import (
    BIAS_WINDING,
    DT_DEFAULT,
    IC,
    IX_PER_UNIT_H,
    KB,
    L_LOOP,
    MAX_STEPS,
    MUTUAL_PER_UNIT_J,
    NOISE_SAMPLE_RATE,
    PHI0,
    R_SHUNT,
    EnsembleResult,
    NetworkLayout,
    NoiseSpec,
    RampSpec,
    ShotError,
    ShotTrace,
    _BARRIER_GRID,
    _WELL_CURVE,
    _integrate_batch,
    _sample_index,
    ensemble_batches,
    inverse_nor_layout,
    johnson_sigma,
    layout_from_ising,
    run_ensemble,
    simulate_shot,
    step_count,
)
from qafactor.formats import write_trace_rows
from qafactor.ising import IsingModel
from qafactor.seeds import shot_seed


def single_qubit_layout(i_x=0.0, ramp=None):
    return NetworkLayout(i_x=(i_x,), ramp=ramp or RampSpec())


def recorded_run(layout, n_shots, master_seed, decimate, workers=1):
    """The batches of an ensemble recorded at every ``decimate``-th step,
    joined in shot order: bits and final currents (shots, n), the record
    times, and the loop currents (samples, n, shots)."""
    bits, final_iq, times, iq = zip(*ensemble_batches(
        layout, NoiseSpec(), n_shots=n_shots, master_seed=master_seed, workers=workers,
        decimate=decimate))
    assert all(np.array_equal(t, times[0]) for t in times)
    return np.concatenate(bits), np.concatenate(final_iq), times[0], np.concatenate(iq, axis=2)


def integrate_kicking_twice(layout, noise, ramp, dt, seeds, record_every):
    """The integrator's step as one plain loop over whole-run tables, with
    both half kicks recomputed at every step.  Returns the read-out currents
    (batch, n) and the currents recorded as ``_integrate_batch`` records
    them, (rows, n, batch)."""
    n, batch = layout.n, len(seeds)
    n_steps = step_count(ramp, dt)
    samples = _sample_index(np.arange(n_steps) * dt)
    xi = np.stack([np.random.Generator(np.random.PCG64(s)).normal(
        0.0, noise.sigma * math.sqrt(2.0), size=(samples[-1] + 1, n)) for s in seeds], axis=2)
    a_inv = np.linalg.inv(layout.inductance_matrix())
    ainv_t = a_inv.T[:, :, None]
    cos_t = np.cos(np.pi * ramp.phi_t(np.arange(n_steps + 1) * dt) / PHI0)
    drive = 2.0 * IC * cos_t
    bias_scale = np.interp(cos_t, fluxsim._BARRIER_GRID, fluxsim._WELL_CURVE) / (
        fluxsim._WELL_CURVE[-1])
    bias = bias_scale[:, None] * (a_inv @ layout.bias_flux())
    inv_c = 1.0 / (2.0 * fluxsim.C_SHUNT)
    g_eff = 2.0 / R_SHUNT
    half_kick = 0.5 * dt * inv_c
    decay = math.exp(-g_eff * dt * inv_c)
    drift = 0.5 * dt * (1.0 + decay)
    w = 2.0 * math.pi / PHI0

    def force_at(k, phi):
        iq = np.add.reduce(ainv_t * phi[:, None, :], axis=0) - bias[k][:, None]
        return drive[k] * np.sin(w * phi) - iq, iq

    phi = np.zeros((n, batch))
    vel = np.zeros((n, batch))
    force, iq = force_at(0, phi)
    recorded = []
    for k in range(n_steps):
        if k % record_every == 0:
            recorded.append(iq)
        x = xi[samples[k]]
        vel = vel + half_kick * (force + x)
        phi = phi + drift * vel
        vel = decay * vel
        force, iq = force_at(k + 1, phi)
        vel = vel + half_kick * (force + x)
    recorded.append(iq)
    return iq.T, np.array(recorded)


class TestJohnsonSigma:
    def test_reference_shunt_matches_quoted_value(self):
        sigma = johnson_sigma(3.2e3, 1.0, 1e12)
        assert abs(sigma - 0.13e-6) / 0.13e-6 < 0.02

    def test_zero_bandwidth(self):
        assert johnson_sigma(3.2e3, 1.0, 0.0) == 0.0

    def test_resistance_scaling(self):
        base = johnson_sigma(1.0e3, 1.0, 1e12)
        assert johnson_sigma(4.0e3, 1.0, 1e12) == pytest.approx(base / 2)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            johnson_sigma(0.0, 1.0, 1e12)
        with pytest.raises(ValueError):
            johnson_sigma(1e3, -1.0, 1e12)


class TestLogicalToPhysical:
    def test_unit_coupling_magnitude(self):
        mutuals = layout_from_ising(IsingModel(2, (0.0, 0.0), {(0, 1): 1.0})).mutuals
        assert abs(mutuals[(0, 1)]) == pytest.approx(8e-12)

    def test_zero_bias(self):
        assert layout_from_ising(IsingModel(1, (0.0,), {})).i_x == (0.0,)

    def test_over_biased_control(self):
        # One unit of h equals one unit of J at read-out: M_X I_x I* = |M| I*^2,
        # with I* = x Phi0 / L and x = beta sin(2 pi x), beta = L 2 Ic / Phi0.
        beta = 260e-12 * 8e-6 / PHI0
        x = brentq(lambda v: v - beta * math.sin(2 * math.pi * v), 0.25, 0.5)
        i_star = x * PHI0 / 260e-12
        i_x = layout_from_ising(IsingModel(1, (1.1,), {})).i_x
        assert i_x[0] == pytest.approx(1.1 * 8e-12 * i_star / 4e-12, rel=1e-9)
        assert i_x[0] == pytest.approx(7.52e-6, abs=0.01e-6)

    def test_frustrated_pair_realises_h_to_j(self):
        # h = (1, 1), J = +1: three degenerate Ising ground states, (1, 1) four
        # units above.  A bias unit unequal to the coupling unit splits them.
        wells = readout_wells(layout_from_ising(IsingModel(2, (1.0, 1.0), {(0, 1): 1.0})))
        j_unit = j_unit_kt()
        ground = [wells[b] for b in ((0, 0), (0, 1), (1, 0))]
        assert max(ground) - min(ground) <= 0.05 * j_unit
        assert wells[(1, 1)] - max(ground) >= 2 * j_unit

    def test_ferromagnetic_sign_convention(self):
        mutuals = layout_from_ising(IsingModel(2, (0.0, 0.0), {(0, 1): -1.0})).mutuals
        assert mutuals[(0, 1)] == pytest.approx(+8e-12)
        assert MUTUAL_PER_UNIT_J == -8e-12

    def test_range_checks(self):
        with pytest.raises(ValueError):
            layout_from_ising(IsingModel(1, (2.5,), {}))
        with pytest.raises(ValueError):
            layout_from_ising(IsingModel(2, (0.0, 0.0), {(0, 1): 1.5}))


class TestDataclasses:
    def test_main_loop_inductance_is_260_ph(self):
        assert L_LOOP == pytest.approx(260e-12)

    def test_every_layout_qubit_reports_260_ph(self):
        layout = inverse_nor_layout(0)
        assert layout.n == 4
        assert np.diag(layout.inductance_matrix()) == pytest.approx([260e-12] * 4)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            NetworkLayout(i_x=(0.0, 0.0), mutuals={(1, 0): 8e-12})
        with pytest.raises(ValueError):
            NetworkLayout(i_x=(0.0, 0.0), mutuals={(0, 1): 300e-12})

    def test_inductance_matrix_symmetric(self):
        layout = inverse_nor_layout(0)
        a = layout.inductance_matrix()
        assert np.allclose(a, a.T)

    def test_ramp_validation(self):
        with pytest.raises(ValueError):
            RampSpec(ramp_s=0.0)
        with pytest.raises(ValueError):
            RampSpec(hold_s=-1e-9)

    @pytest.mark.parametrize("field", ["ramp_s", "hold_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_ramp_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            RampSpec(**{field: value})

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1e-9])
    def test_noise_validation(self, sigma):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=sigma)

    @pytest.mark.parametrize("dt", [0.0, -5e-15, 6e-13, math.nan, math.inf])
    def test_step_count_rejects_bad_steps(self, dt):
        with pytest.raises(ValueError):
            step_count(RampSpec(), dt)

    def test_step_count(self):
        # The default 2.2 ns is a hair above 2.2e-9 in floats: 44001 steps of
        # 0.05 ps, 8801 of the default 0.25 ps.
        assert step_count(RampSpec(), 5e-14) == 44001
        assert step_count(RampSpec(), DT_DEFAULT) == 8801
        assert step_count(RampSpec(ramp_s=0.3e-9, hold_s=0.0), 7e-14) == 4286
        assert step_count(RampSpec(ramp_s=1e-13, hold_s=0.0), 5e-13) == 1

    def test_step_reads_the_sample_it_starts_in(self):
        # At dt = hold / p step k starts in sample k // p, on its first
        # boundary when p divides k, however k * dt rounds; checked up to
        # the last step a run may take.
        for p in range(1, 41):
            dt = (1.0 / NOISE_SAMPLE_RATE) / p
            for k in (np.arange(0, 50_000), np.arange(MAX_STEPS - 50_000, MAX_STEPS)):
                assert np.array_equal(_sample_index(k * dt), k // p), p

    @given(ramp_s=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           hold_s=st.floats(min_value=0.0, allow_infinity=False),
           dt=st.floats(allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_step_count_stays_within_budget(self, ramp_s, hold_s, dt):
        # Extreme finite and infinite floats: the count is either rejected
        # or a whole number of steps in 1..MAX_STEPS, never an overflow.
        ramp = RampSpec(ramp_s=ramp_s, hold_s=hold_s)
        usable = 0.0 < dt <= 1.0 / NOISE_SAMPLE_RATE and ramp.total_s / dt <= MAX_STEPS
        if not usable:
            with pytest.raises(ValueError):
                step_count(ramp, dt)
        else:
            assert step_count(ramp, dt) == math.ceil(ramp.total_s / dt)
            assert 1 <= step_count(ramp, dt) <= MAX_STEPS

    @given(ramp_s=st.floats(min_value=1e-15, max_value=1e-7),
           hold_s=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-8)),
           dt=st.floats(min_value=1e-14, max_value=5e-13))
    @example(ramp_s=99.3545e-9, hold_s=0.0, dt=5e-13)
    @settings(max_examples=300, deadline=None)
    def test_every_run_reads_out_at_full_barrier(self, ramp_s, hold_s, dt):
        # The integrator normalises the bias at full barrier, so the barrier
        # factor must be exactly 1 at the read-out step.  phi_t is 0 there,
        # or, when ceil(total / dt) dt rounds one ulp below a ramp with no
        # hold (the example), 2e-31 Wb, whose cosine is 1 all the same.
        ramp = RampSpec(ramp_s=ramp_s, hold_s=hold_s)
        assume(ramp.total_s / dt <= MAX_STEPS)
        readout = np.arange(step_count(ramp, dt), step_count(ramp, dt) + 1) * dt
        assert np.cos(np.pi * ramp.phi_t(readout) / PHI0)[0] == 1.0


class TestNoiseStatistics:
    def test_lone_qubit_settles_at_the_noise_temperature(self):
        # Equipartition: a lone unbiased qubit held at full barrier after a
        # 10-ps ramp, its loop current sampled every 10 ps from 1 to 6 ns
        # in 200 shots.  Its variance within one well gives the temperature
        # at which the exact Boltzmann well has that variance, to match the
        # one the noise is sized for, (sigma / Johnson sigma at 1 K)^2 x 1 K
        # = 0.979 K.  Sixteen other master seeds gave 0.940-0.983 K (mean
        # 0.967, sd 0.012); the 6 % bound is five such sds.  Half the noise
        # power, noise in one half kick only, or each sample held twice as
        # long moves the temperature by a factor of 2 or more.
        ramp = RampSpec(ramp_s=0.01e-9, hold_s=5.99e-9)
        _, _, t, iq = recorded_run(single_qubit_layout(ramp=ramp), 200, 1, 40)
        current = np.abs(iq[t >= 1e-9, 0].T)

        phi = np.linspace(0.0, PHI0, 20001)
        well = phi ** 2 / (2 * L_LOOP) + IC * PHI0 / math.pi * np.cos(2 * math.pi * phi / PHI0)

        def boltzmann_variance(temperature):
            weight = np.exp(-(well - well.min()) / (KB * temperature))
            mean = np.sum(weight * phi) / np.sum(weight)
            return np.sum(weight * (phi - mean) ** 2) / np.sum(weight) / L_LOOP ** 2

        t_eff = brentq(lambda t: boltzmann_variance(t) - current.var(), 0.05, 10.0)
        t_noise = (NoiseSpec().sigma / johnson_sigma(R_SHUNT, 1.0, 1e12)) ** 2
        assert abs(t_eff / t_noise - 1.0) < 0.06, (t_eff, t_noise)

    def test_coupled_pair_settles_at_the_noise_temperature(self):
        # Two unbiased pairs in one run, qubits 1-2 coupled with J = -1 and
        # qubits 3-4 with J = +1, held at full barrier as above and sampled
        # from 0.5 to 4.5 ns.  In each kind of well (currents aligned or
        # opposed), the covariance of a pair's folded loop currents |I_q| must
        # be the exact Boltzmann covariance over that quadrant of
        # U = phi^T A^-1 phi / 2 + sum_i IC Phi0/pi cos(2 pi phi_i / Phi0),
        # A = [[L, M], [M, L]], at the noise temperature.  The mutual gives
        # the currents a correlation of -+0.057.  Sixteen other master seeds
        # gave variances 1.1 % low (sd 1.6 %, worst 5.9 %) and correlations
        # within 0.035 of exact (sd 0.013); the bounds are 7 % and 0.04.
        # Without the mutual in the inductance matrix the correlations are
        # off by 0.054-0.069; with one noise draw shared by both qubits no
        # pair reaches an opposed well.
        ramp = RampSpec(ramp_s=0.01e-9, hold_s=4.49e-9)
        layout = NetworkLayout(i_x=(0.0,) * 4, ramp=ramp,
                               mutuals={(0, 1): -MUTUAL_PER_UNIT_J, (2, 3): MUTUAL_PER_UNIT_J})
        _, _, t, iq = recorded_run(layout, 200, 1, 40)
        current = np.moveaxis(iq[t >= 0.5e-9], 2, 0)
        t_noise = (NoiseSpec().sigma / johnson_sigma(R_SHUNT, 1.0, 1e12)) ** 2
        grid = np.linspace(0.0, PHI0, 301)
        bound = np.array([[0.07, 0.04], [0.04, 0.07]])
        for pair, j in (((0, 1), -1.0), ((2, 3), 1.0)):
            m = MUTUAL_PER_UNIT_J * j
            a_inv = np.linalg.inv([[L_LOOP, m], [m, L_LOOP]])
            pair_iq = current[:, :, pair].reshape(-1, 2)
            aligned = pair_iq[:, 0] * pair_iq[:, 1] > 0
            for side, in_well in ((1.0, aligned), (-1.0, ~aligned)):
                assert in_well.mean() > 0.25, (j, side)
                measured = np.cov(np.abs(pair_iq[in_well]).T)
                phi = np.stack(np.meshgrid(grid, side * grid, indexing="ij")).reshape(2, -1)
                well = (0.5 * np.sum(phi * (a_inv @ phi), axis=0)
                        + IC * PHI0 / math.pi * np.cos(2 * math.pi * phi / PHI0).sum(axis=0))
                weight = np.exp(-(well - well.min()) / (KB * t_noise))
                exact = np.cov(np.abs(a_inv @ phi), aweights=weight, bias=True)
                scale = np.sqrt(np.outer(np.diag(exact), np.diag(exact)))
                assert np.all(np.abs(measured - exact) / scale < bound), (j, side, measured, exact)


class TestStaticPotential:
    """The well curve the integrator reads out, at barrier factors across
    the bistability onset (c = 0.158), against a scan of the potential:
    one minimum where the curve is 0, else two at +-x Phi0, each within the
    scan's 0.001-Phi0 step."""

    @staticmethod
    def assert_curve_finds_the_minima(barriers):
        for c in barriers:
            x = np.interp(c, _BARRIER_GRID, _WELL_CURVE)
            wells = [0.0] if x == 0.0 else [-x, x]
            minima = potential_minima(c)
            assert len(minima) == len(wells), (c, x, minima)
            assert np.allclose(minima, wells, rtol=0.0, atol=0.001), (c, x, minima)

    def test_suppressed_barrier_single_equilibrium(self):
        self.assert_curve_finds_the_minima((0.0, 0.1))

    def test_full_barrier_double_well(self):
        # The double well from just past the onset up to the full barrier.
        self.assert_curve_finds_the_minima((0.2, 0.5, 0.75, 1.0))


class TestNoiselessDynamics:
    def test_final_state_follows_bias_flux_sign(self):
        # BIAS_WINDING < 0: negative I_x applies positive flux.
        tr = simulate_shot(single_qubit_layout(i_x=-10.5e-6), NoiseSpec(sigma=0.0))
        assert tr.bits == (1,)
        assert tr.final_iq[0] > 0

    def test_bias_sign_symmetry(self):
        plus = simulate_shot(single_qubit_layout(i_x=-10.5e-6), NoiseSpec(sigma=0.0))
        minus = simulate_shot(single_qubit_layout(i_x=+10.5e-6), NoiseSpec(sigma=0.0))
        assert plus.bits == (1,) and minus.bits == (0,)
        assert abs(plus.final_iq[0]) == pytest.approx(abs(minus.final_iq[0]), rel=1e-12)

    def test_ferromagnetic_coupling_aligns(self):
        model = IsingModel(2, (-0.3, 0.0), {(0, 1): -1.0})
        tr = simulate_shot(layout_from_ising(model), NoiseSpec(sigma=0.0))
        assert tr.bits == (1, 1)

    def test_antiferromagnetic_coupling_opposes(self):
        model = IsingModel(2, (-0.3, 0.0), {(0, 1): 1.0})
        tr = simulate_shot(layout_from_ising(model), NoiseSpec(sigma=0.0))
        assert tr.bits == (1, 0)

    def test_step_is_second_order(self):
        # Noise-free, and short enough that every qubit stays in the well it
        # falls into: halving the step cuts the final-state error against a
        # 12.5-fs run about fourfold.  A first-order step cuts it 2-3 fold.
        ramp = RampSpec(ramp_s=0.1e-9, hold_s=0.0)
        layout = inverse_nor_layout(0, ramp=ramp)

        def final_iq(dt):
            return _integrate_batch(layout, NoiseSpec(sigma=0.0), ramp, dt, [0])[1][0]

        reference = final_iq(12.5e-15)
        errors = [np.max(np.abs(final_iq(dt) - reference)) for dt in (200e-15, 100e-15, 50e-15)]
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        assert all(3.3 < r < 5.0 for r in ratios), ratios


class TestSimulateShot:
    def test_trace_shapes_and_decimation(self):
        tr = simulate_shot(single_qubit_layout(), NoiseSpec(seed=5), decimate=100)
        assert isinstance(tr, ShotTrace)
        assert tr.t.shape[0] == tr.iq.shape[0]
        assert tr.iq.shape[1] == 1
        assert np.all(np.diff(tr.t) > 0)
        assert tr.t[-1] == pytest.approx(RampSpec().total_s, rel=1e-6)

    def test_readout_matches_final_current_sign(self):
        tr = simulate_shot(inverse_nor_layout(0), NoiseSpec(seed=8), decimate=50)
        for bit, iq in zip(tr.bits, tr.final_iq):
            assert bit == (1 if iq > 0 else 0)

    def test_dt_must_not_exceed_noise_hold(self):
        with pytest.raises(ValueError):
            simulate_shot(single_qubit_layout(), NoiseSpec(), dt=1e-12)

    def test_divergence_raises_shot_error(self):
        with pytest.raises(ShotError, match=r"^integration diverged at t=\d\.\d{3}e-\d\ds: "
                                            r"max\|phi\|=\d\.\d{3}e[-+]\d\d$"):
            simulate_shot(single_qubit_layout(), NoiseSpec(sigma=0.5, seed=3))

    def test_divergence_names_the_lowest_shot_that_diverges(self):
        """Shot 4 diverges at an earlier check than shot 3, so a batch of
        both must run on to learn that shot 3 diverges too: the pair's error
        is shot 3's own, as when each shot is its own batch."""
        layout = inverse_nor_layout(0, ramp=RampSpec(1e-9, 0.1e-9))

        def error(*shots):
            with pytest.raises(ShotError) as caught:
                _integrate_batch(layout, NoiseSpec(sigma=3e-5), layout.ramp, DT_DEFAULT,
                                 [shot_seed(1, k) for k in shots])
            return str(caught.value)

        assert error(3) != error(4)
        assert error(3, 4) == error(3)

    def test_trace_csv_layout(self):
        tr = simulate_shot(single_qubit_layout(), NoiseSpec(seed=5), decimate=2000)
        buf = io.StringIO()
        write_trace_rows(buf, 0, tr.t, tr.iq[:, :, None], RampSpec().total_s)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,Iq_1"
        assert len(lines) == tr.t.shape[0] + 1


class TestEnsemble:
    def test_counts_sum_to_shots(self):
        res = run_ensemble(inverse_nor_layout(0), NoiseSpec(), n_shots=16,
                           master_seed=2)
        assert sum(res.counts.values()) == 16

    def test_single_shot(self):
        res = run_ensemble(inverse_nor_layout(1), NoiseSpec(), n_shots=1,
                           master_seed=2)
        assert sum(res.counts.values()) == 1

    def test_repeat_runs_byte_identical(self):
        a = run_ensemble(inverse_nor_layout(0), NoiseSpec(), n_shots=12, master_seed=6)
        b = run_ensemble(inverse_nor_layout(0), NoiseSpec(), n_shots=12, master_seed=6)
        assert a.to_text() == b.to_text()

    @pytest.mark.parametrize("ramp,dt", [
        (RampSpec(0.2e-9, 0.05e-9), 600e-15),
        (RampSpec(4e-6, 0.0), DT_DEFAULT),
    ], ids=["step-above-noise-hold", "above-max-steps"])
    def test_refused_before_any_shot_is_dispatched(self, monkeypatch, ramp, dt):
        def refuse(*args):
            raise AssertionError("shots were dispatched")
        monkeypatch.setattr(fluxsim, "run_batches", refuse)
        with pytest.raises(ValueError, match="noise hold|integrator steps"):
            run_ensemble(inverse_nor_layout(0), NoiseSpec(), ramp=ramp, n_shots=4, dt=dt,
                         workers=2)

    @staticmethod
    def assert_batch_equals_singles(layout, seeds):
        bits, final_iq, _, _ = _integrate_batch(layout, NoiseSpec(), layout.ramp, DT_DEFAULT,
                                                seeds)
        singles = [_integrate_batch(layout, NoiseSpec(seed=0), layout.ramp, DT_DEFAULT, [s])
                   for s in seeds]
        assert np.array_equal(bits, np.concatenate([single[0] for single in singles]))
        assert np.array_equal(final_iq, np.concatenate([single[1] for single in singles]))

    def test_batching_matches_per_shot_integration(self):
        self.assert_batch_equals_singles(inverse_nor_layout(0),
                                         [shot_seed(11, k) for k in range(4)])

    def test_batching_is_bit_exact_past_eight_qubits(self):
        # From 9 qubits up NumPy may sum a short reduction pairwise; the
        # loop-current sum must keep the per-shot order at every batch size.
        chain = IsingModel(10, tuple(0.1 * (k % 3) - 0.1 for k in range(10)),
                           {(k, k + 1): (-1.0 if k % 2 else 0.5) for k in range(9)})
        layout = layout_from_ising(chain, ramp=RampSpec(ramp_s=0.1e-9, hold_s=0.02e-9))
        self.assert_batch_equals_singles(layout, [shot_seed(5, k) for k in range(3)])

    def test_final_currents_golden(self):
        # Exact floats of a short 3-shot inverse-NOR run at a 0.05-ps step:
        # any change to the integrator's arithmetic, its order or the noise
        # streams shows here.
        ramp = RampSpec(ramp_s=0.2e-9, hold_s=0.05e-9)
        layout = inverse_nor_layout(0, ramp=ramp)
        bits, final_iq, _, _ = _integrate_batch(layout, NoiseSpec(), ramp, 5e-14,
                                                [shot_seed(42, k) for k in range(3)])
        expected = np.array([
            (-3.1613063795941535e-06, 3.5679618892642824e-06,
             3.629165318598567e-06, -3.3362630180924118e-06),
            (3.5248023385487485e-06, 3.3517687887136834e-06,
             -3.2046512651269644e-06, -3.3384975076145693e-06),
            (3.574780732246252e-06, 3.3222800364683943e-06,
             -3.1088942359461645e-06, -3.1553205621542383e-06),
        ])
        assert np.array_equal(final_iq, expected)
        assert bits.dtype == np.int8
        assert bits.tolist() == [[0, 1, 1, 0], [1, 1, 0, 0], [1, 1, 0, 0]]

    @pytest.mark.parametrize("dt", [1e-13, 2.5e-13, 5e-13], ids=["100fs", "250fs", "500fs"])
    def test_reused_half_kick_equals_the_recomputed_one(self, dt):
        # A step that reads the last step's noise sample adds that step's
        # second half kick again: 4 of 5 steps at 100 fs, every other step at
        # 250 fs, none at 500 fs, where each step reads a new sample.
        ramp = RampSpec(ramp_s=0.2e-9, hold_s=0.05e-9)
        layout = inverse_nor_layout(0, ramp=ramp)
        seeds = [shot_seed(42, k) for k in range(3)]
        _, final_iq, _, iq = _integrate_batch(layout, NoiseSpec(), ramp, dt, seeds,
                                              record_every=7)
        expected_iq, recorded = integrate_kicking_twice(layout, NoiseSpec(), ramp, dt, seeds, 7)
        assert np.array_equal(final_iq, expected_iq)
        assert np.array_equal(iq, recorded)

    @pytest.mark.parametrize("dt", [DT_DEFAULT, 3e-14], ids=["default-dt", "dt-3e-14"])
    def test_block_sizes_do_not_change_results(self, monkeypatch, dt):
        # Step tables and noise are built a block at a time; odd block sizes
        # put boundaries everywhere, and 3e-14 s does not divide the 0.5-ps
        # noise hold, so steps straddle samples and samples straddle blocks.
        ramp = RampSpec(ramp_s=0.2e-9, hold_s=0.05e-9)
        layout = inverse_nor_layout(1, ramp=ramp)
        seeds = [shot_seed(7, k) for k in range(3)]

        def run():
            return _integrate_batch(layout, NoiseSpec(), ramp, dt, seeds, record_every=3)

        default = run()
        monkeypatch.setattr(fluxsim, "_STEP_BLOCK", 7)
        monkeypatch.setattr(fluxsim, "_NOISE_BLOCK", 3)
        small = run()
        assert default[0].shape == (3, 4)
        for small_part, default_part in zip(small, default):
            assert np.array_equal(small_part, default_part)

    def test_working_memory_does_not_grow_with_ramp(self, monkeypatch):
        """Beyond what it returns, a batch holds one block of step inputs
        and one block of noise at a time, whatever the ramp length.  Small
        blocks keep the traced runs short: 500 and 5000 steps."""
        monkeypatch.setattr(fluxsim, "_STEP_BLOCK", 128)
        monkeypatch.setattr(fluxsim, "_NOISE_BLOCK", 16)
        seeds = [shot_seed(1, k) for k in range(4)]

        def transient_peak(ramp_s):
            ramp = RampSpec(ramp_s=ramp_s, hold_s=0.0)
            layout = inverse_nor_layout(0, ramp=ramp)
            kept, current, peak = traced(
                lambda: _integrate_batch(layout, NoiseSpec(), ramp, 5e-14, seeds))
            del kept
            return peak - current

        transient_peak(0.005e-9)
        short = transient_peak(0.025e-9)
        ten_times_longer = transient_peak(0.25e-9)
        assert ten_times_longer < 1.25 * short + (32 << 10)

    @staticmethod
    def batch_bytes_for(layout, shots, decimate=0):
        """A ``seeds.BATCH_BYTES`` that fits ``shots`` shots of ``layout`` per
        batch, recorded at every ``decimate``-th step when it is > 0."""
        return shots * fluxsim._shot_bytes(layout.n, step_count(layout.ramp, DT_DEFAULT),
                                           decimate)

    def test_batches_and_workers_do_not_change_shots(self, monkeypatch):
        layout = inverse_nor_layout(1, ramp=RampSpec(ramp_s=0.1e-9, hold_s=0.02e-9))
        whole = recorded_run(layout, 7, 3, 5)
        monkeypatch.setattr(seeds, "BATCH_BYTES", self.batch_bytes_for(layout, 2, decimate=5))
        batches = ensemble_batches(layout, NoiseSpec(), n_shots=7, master_seed=3, decimate=5)
        assert [len(bits) for bits, *_ in batches] == [2, 2, 2, 1]
        for workers in (1, 2):
            split = recorded_run(layout, 7, 3, 5, workers=workers)
            for a, b in zip(split, whole):
                assert np.array_equal(a, b)

    def test_working_memory_does_not_grow_with_shots(self, monkeypatch):
        """A recorded ensemble whose batches are dropped as they arrive holds
        one batch at a time: ten times the shots, the same peak."""
        layout = inverse_nor_layout(0, ramp=RampSpec(ramp_s=0.02e-9, hold_s=0.005e-9))
        monkeypatch.setattr(seeds, "BATCH_BYTES", self.batch_bytes_for(layout, 4, decimate=50))

        def transient_peak(n_shots):
            return traced(lambda: sum(1 for _ in ensemble_batches(
                layout, NoiseSpec(), n_shots=n_shots, master_seed=1, decimate=50)))[2]

        transient_peak(2)
        one_batch_scale = transient_peak(20)
        ten_times_the_shots = transient_peak(200)
        assert ten_times_the_shots < 1.25 * one_batch_scale + (32 << 10)

    def test_untraced_run_keeps_no_shot_records(self, monkeypatch):
        """An untraced run counts each batch as it arrives: 16 times the
        shots, the same peak, with no record kept per shot."""
        layout = inverse_nor_layout(0, ramp=RampSpec(ramp_s=0.005e-9, hold_s=0.0))
        monkeypatch.setattr(seeds, "BATCH_BYTES", self.batch_bytes_for(layout, 5))

        def peak(n_shots):
            # CPython keeps up to 2,000 freed tuples of each small size for
            # reuse, and tracemalloc counts them as live.  Fill that cache
            # first, so that the batches' read-out tuples do not show as
            # growth; a record kept per shot still does.
            cached = [(k, k, k, k) for k in range(4000)]
            del cached
            return traced(lambda: run_ensemble(layout, NoiseSpec(), n_shots=n_shots,
                                               master_seed=1))[2]

        peak(5)
        four_batches = peak(20)
        sixty_four_batches = peak(320)
        assert sixty_four_batches < four_batches + (32 << 10)

    def test_halving_dt_rarely_changes_readout(self):
        layout = inverse_nor_layout(0)
        seeds = [shot_seed(314, k) for k in range(50)]
        coarse = _integrate_batch(layout, NoiseSpec(), layout.ramp, DT_DEFAULT, seeds)[0]
        fine = _integrate_batch(layout, NoiseSpec(), layout.ramp, DT_DEFAULT / 2, seeds)[0]
        flips = np.count_nonzero(np.any(coarse != fine, axis=1))
        assert flips <= 1

    def test_text_layout(self):
        res = EnsembleResult(shots=2, counts={(0, 1): 1, (1, 0): 1})
        assert res.to_text().splitlines() == [
            "shots 2",
            "count -1 +1 1",
            "count +1 -1 1",
        ]

    def test_shot_count_validation(self):
        with pytest.raises(ValueError):
            run_ensemble(inverse_nor_layout(0), NoiseSpec(), n_shots=0, master_seed=1)


class TestInverseNorLayout:
    def test_bias_currents(self):
        # Each loop's own bias current A^-1 phi_bias carries h units of
        # BIAS_WINDING M_X IX_PER_UNIT_H / L; the bias lines also cancel what
        # their neighbours' bias fluxes push through the coupler mutuals.
        unit = BIAS_WINDING * 4e-12 * IX_PER_UNIT_H / 260e-12
        for clamp, h4 in ((0, 1.1), (1, -1.1)):
            layout = inverse_nor_layout(clamp)
            loop_bias = np.linalg.solve(layout.inductance_matrix(), layout.bias_flux())
            assert tuple(loop_bias / unit) == pytest.approx((0.5, 0.5, 1.0, h4))
        # Q1's line: 0.5 units less what J12 = 0.5 and J13 = 1 feed it.
        assert inverse_nor_layout(0).i_x[0] == pytest.approx(
            (0.5 - (4e-12 * 0.5 + 8e-12 * 1.0) / 260e-12) * IX_PER_UNIT_H)

    def test_mutual_polarities(self):
        layout = inverse_nor_layout(0)
        assert layout.mutuals[(0, 2)] == pytest.approx(-8e-12)  # J13 = +1
        assert layout.mutuals[(2, 3)] == pytest.approx(+8e-12)  # J34 = -1 wire

    def test_bias_winding_constant(self):
        assert BIAS_WINDING == -1.0
        layout = single_qubit_layout(i_x=1e-6)
        assert layout.bias_flux()[0] == pytest.approx(-4e-18)

    def test_clamp_bit_validated(self):
        with pytest.raises(ValueError):
            inverse_nor_layout(2)
