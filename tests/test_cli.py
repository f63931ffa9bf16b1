import concurrent.futures
import hashlib
import inspect
import io
import itertools
import json
import math
import multiprocessing
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ground_states, random_model, small_models, traced
from qafactor import anneal, cli, fluxsim, multiplier, seeds
from qafactor.capacity import CapacityInput
from qafactor.cli import main
from qafactor.formats import format_model, format_ports, parse_model, write_trace_rows
from qafactor.gates import GateTemplate, nor_gate, verify_gate
from qafactor.ising import MAX_BRUTE_FORCE_CAP, IsingModel, brute_force_ground
from qafactor.seeds import shot_seed


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_peak(capsys, *argv):
    """The tracemalloc peak of a command that succeeds."""
    code, _, peak = traced(lambda: run(capsys, *argv)[0])
    assert code == 0
    return peak


class TestGatesEmit:
    def test_nor_round_trip(self, capsys):
        code, out, _ = run(capsys, "gates", "emit", "nor")
        assert code == 0
        assert "e0 -1.5" in out
        assert parse_model(Path("nor.model").read_text()) == nor_gate().model
        ports = Path("nor.ports").read_text()
        assert "port in_a 0" in ports and "port out 2" in ports
        assert "valid 0 0 1" in ports

    def test_all_kinds_emit_and_verify(self, capsys):
        for kind in ("and", "half-adder", "mult-unit"):
            code, out, _ = run(capsys, "gates", "emit", kind)
            assert code == 0, kind
            code, out, _ = run(capsys, "verify", f"{kind}.model",
                               "--ports", f"{kind}.ports")
            assert code == 0, kind
            assert "pass true" in out

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gates", "emit", "nand")
        assert code == 1


class TestVerify:
    def test_parse_error_reports_line(self, capsys):
        with open("bad.model", "w") as fh:
            fh.write("n 2\nh 0 0.5\nJ 1 0 1.0\n")
        code, _, err = run(capsys, "verify", "bad.model")
        assert code == 2
        assert "line 3" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify", "nope.model")
        assert code == 2

    def test_hostile_spin_count_is_data_error(self, capsys):
        with open("huge.model", "w") as fh:
            fh.write("n 100000000000\n")
        code, _, err = run(capsys, "verify", "huge.model")
        assert code == 2
        assert "spin count" in err

    def test_memory_error_is_one_line_data_error(self, capsys, monkeypatch):
        def exhausted(text):
            raise MemoryError
        with open("any.model", "w") as fh:
            fh.write("n 1\n")
        monkeypatch.setattr(cli, "parse_model", exhausted)
        code, _, err = run(capsys, "verify", "any.model")
        assert code == 2
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_size_cap_refusal(self, capsys):
        lines = ["n 30"] + [f"h {i} 1.0" for i in range(30)]
        with open("big.model", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, _, err = run(capsys, "verify", "big.model")
        assert code == 2
        assert "cap" in err

    def test_wrong_valid_set_fails_with_exit_3(self, capsys):
        run(capsys, "gates", "emit", "nor")
        sidecar = Path("nor.ports").read_text().replace("valid 0 0 1", "valid 1 1 1")
        with open("nor.ports", "w") as fh:
            fh.write(sidecar)
        code, out, err = run(capsys, "verify", "nor.model", "--ports", "nor.ports")
        assert code == 3
        assert "valid_set_match false" in out

    # The autouse working-directory fixture is shared by all examples; each
    # example rewrites the one sidecar file it reads.
    @given(st.lists(st.integers(-2, 3), max_size=6))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_malformed_valid_line_is_data_error(self, capsys, values):
        with open("nor.model", "w") as fh:
            fh.write("n 3\nh 0 0.5\nh 1 0.5\nh 2 1.0\n"
                     "J 0 1 0.5\nJ 0 2 1.0\nJ 1 2 1.0\n")
        with open("nor.ports", "w") as fh:
            fh.write("port out 2\nvalid " + " ".join(map(str, values)) + "\n")
        code, out, err = run(capsys, "verify", "nor.model", "--ports", "nor.ports")
        if len(values) == 3 and set(values) <= {0, 1}:
            assert code in (0, 3)
        else:
            assert code == 2
            assert "line 2" in err
            assert out == ""

    def test_repeated_valid_line_is_data_error(self, capsys):
        run(capsys, "gates", "emit", "nor")
        with open("nor.ports", "a") as fh:
            fh.write("valid 0 0 1\n")
        lines = Path("nor.ports").read_text().count("\n")
        code, out, err = run(capsys, "verify", "nor.model", "--ports", "nor.ports")
        assert code == 2
        assert f"line {lines}" in err and "repeated" in err
        assert out == ""

    def test_nan_gap_is_data_error(self, capsys):
        run(capsys, "gates", "emit", "nor")
        sidecar = Path("nor.ports").read_text()
        assert "gap 2.0\n" in sidecar
        with open("nor.ports", "w") as fh:
            fh.write(sidecar.replace("gap 2.0\n", "gap nan\n"))
        code, out, err = run(capsys, "verify", "nor.model", "--ports", "nor.ports")
        assert code == 2
        assert "not a number" in err
        assert out == ""

    def test_negative_gap_is_data_error(self, capsys):
        run(capsys, "gates", "emit", "nor")
        sidecar = Path("nor.ports").read_text()
        with open("nor.ports", "w") as fh:
            fh.write(sidecar.replace("gap 2.0\n", "gap -5\n"))
        code, out, err = run(capsys, "verify", "nor.model", "--ports", "nor.ports")
        assert code == 2
        assert "gap -5.0 is not a number >= 0" in err
        assert out == ""

    def test_ground_listing_takes_no_reordered_copy(self, capsys):
        # Every state of a term-free 22-spin model is ground: 32 MiB of
        # codes, already in the bit-string order of the 32 lines printed.
        with open("free.model", "w") as fh:
            fh.write("n 22\n")
        with open("free.ports", "w") as fh:
            fh.write("port a 0\n")
        (code, out, _), _, peak = traced(
            lambda: run(capsys, "verify", "free.model", "--ports", "free.ports"))
        assert code == 0
        ground = [line for line in out.splitlines() if line.startswith("ground ")]
        assert ground == [f"ground {k:022b} a={k >> 21}" for k in range(32)]
        assert peak < 88 * 2**20

    @pytest.mark.parametrize("sidecar,checks", [
        ("gap 0\n", "gap_met true\n"),
        ("valid\ngap 0\n", "valid_set_match true\ngap_met true\n"),
    ], ids=["gap", "empty-valid-line"])
    def test_zero_spin_model(self, capsys, sidecar, checks):
        # One ground state, the empty one, listed as an empty bit string.
        Path("empty.model").write_text("n 0\n")
        Path("empty.ports").write_text(sidecar)
        code, out, _ = run(capsys, "verify", "empty.model", "--ports", "empty.ports")
        assert code == 0
        assert out == ("spins 0\ne0 0.0\nground_states 1\ngap inf\nground  \n"
                       + checks + "pass true\n")

    # One example per model, valid set and gap; each writes the two files
    # it reads into the shared working directory.  Models without terms
    # have more ground states than the 32 printed.
    @given(st.one_of(small_models(),
                     st.integers(6, 7).map(lambda n: IsingModel(n, (0.0,) * n, {}))),
           st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ground_and_pass_lines_agree_with_references(self, capsys, model, data):
        ground = sorted(tuple((s + 1) // 2 for s in state)
                        for state in ground_states(model.n, brute_force_ground(model)))
        every = list(itertools.product((0, 1), repeat=model.n))
        valid = data.draw(st.one_of(
            st.just(ground), st.lists(st.sampled_from(every), min_size=1, unique=True)))
        gap = data.draw(st.sampled_from([0.0, 0.25, 1.0, 2.0, math.inf]))
        template = GateTemplate(model, {}, tuple(valid), gap)
        with open("random.model", "w") as fh:
            fh.write(format_model(model))
        with open("random.ports", "w") as fh:
            fh.write(format_ports(template))
        code, out, _ = run(capsys, "verify", "random.model", "--ports", "random.ports")
        passed = verify_gate(template).passed
        assert out.splitlines()[-1] == f"pass {str(passed).lower()}"
        assert [line for line in out.splitlines() if line.startswith("ground ")] == [
            f"ground {''.join(map(str, bits))} " for bits in ground[:32]]
        assert code == (0 if passed else 3)


class TestSynthMult:
    def test_writes_model_and_roles(self, capsys):
        code, out, _ = run(capsys, "synth", "mult", "--bits-a", "2", "--bits-b", "2")
        assert code == 0
        model = parse_model(Path("mult2x2.model").read_text())
        assert model.n == 20
        roles = Path("mult2x2.roles").read_text().splitlines()
        assert sum(1 for line in roles if line.startswith("role A ")) == 2
        assert sum(1 for line in roles if line.startswith("role P ")) == 4

    def test_chains_add_spins(self, capsys):
        code, out, _ = run(capsys, "synth", "mult", "--bits-a", "1", "--bits-b", "2",
                           "--chains", "--out", "chained")
        assert code == 0
        assert "chain_spins 2" in out

    @pytest.mark.parametrize("bits", ["1", "2"])
    @pytest.mark.parametrize("strength", ["nan", "inf"])
    def test_non_finite_chain_strength_is_usage_error(self, capsys, bits, strength):
        code, out, err = run(capsys, "synth", "mult", "--bits-a", bits, "--bits-b", "1",
                             "--chain-strength", strength)
        assert code == 1
        assert "finite and positive" in err
        assert out == ""
        assert not Path(f"mult{bits}x1.model").exists()

    def test_network_above_model_file_limit_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(multiplier, "MAX_MODEL_SPINS", 87)
        code, out, err = run(capsys, "synth", "mult", "--bits-a", "4", "--bits-b", "4")
        assert code == 1
        assert "88 spins" in err
        assert out == ""
        assert not Path("mult4x4.model").exists()


class TestAnnealCommand:
    def test_runs_on_emitted_model(self, capsys):
        run(capsys, "gates", "emit", "nor")
        code, out, _ = run(capsys, "anneal", "nor.model", "--shots", "20",
                           "--brute-force-reference", "--csv", "shots.csv")
        assert code == 0
        assert "master_seed 1" in out
        assert "ground_hits 20" in out
        csv = Path("shots.csv").read_text().splitlines()
        assert csv[0] == "shot,energy,ground_hit,state_bits"
        assert len(csv) == 21

    def test_reproducible_output(self, capsys):
        run(capsys, "gates", "emit", "nor")
        _, first, _ = run(capsys, "anneal", "nor.model", "--shots", "10", "--seed", "7")
        _, second, _ = run(capsys, "anneal", "nor.model", "--shots", "10", "--seed", "7")
        assert first == second

    def test_reference_flags_are_exclusive(self, capsys):
        run(capsys, "gates", "emit", "nor")
        code, out, err = run(capsys, "anneal", "nor.model", "--reference-e0", "7",
                             "--brute-force-reference", "--shots", "2")
        assert code == 1
        assert out == ""
        assert "not allowed with" in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_reference_must_be_finite(self, capsys, value):
        run(capsys, "gates", "emit", "nor")
        code, out, err = run(capsys, "anneal", "nor.model", f"--reference-e0={value}",
                             "--shots", "2")
        assert code == 1
        assert out == ""
        assert "reference energy must be finite" in err

    def test_negative_values_in_any_float_spelling(self, capsys):
        run(capsys, "gates", "emit", "nor")
        _, joined, _ = run(capsys, "anneal", "nor.model", "--reference-e0=-1.5", "--shots", "5")
        code, spaced, _ = run(capsys, "anneal", "nor.model", "--reference-e0", "-1.5e0",
                              "--shots", "5")
        assert code == 0
        assert spaced == joined
        assert "reference_e0 -1.5\n" in spaced
        code, out, err = run(capsys, "anneal", "nor.model", "--reference-e0", "-inf",
                             "--shots", "2")
        assert code == 1
        assert out == ""
        assert "reference energy must be finite" in err

    def test_empty_model_rejected_before_any_output(self, capsys):
        with open("empty.model", "w") as fh:
            fh.write("n 0\n")
        code, out, err = run(capsys, "anneal", "empty.model")
        assert code == 1
        assert out == ""
        assert err == "usage error: annealing needs at least one spin\n"

    def test_flip_cap_refuses_before_the_reference_is_enumerated(self, capsys, monkeypatch):
        run(capsys, "gates", "emit", "nor")

        def enumerate_states(*args, **kwargs):
            raise AssertionError("enumerated a reference for a refused run")

        monkeypatch.setattr(cli, "brute_force_ground", enumerate_states)
        code, out, err = run(capsys, "anneal", "nor.model", "--brute-force-reference",
                             "--sweeps", str(10**12), "--workers", "1")
        assert code == 1
        assert out == ""
        assert "flip attempts, more than the 1e+12 allowed" in err

    @staticmethod
    def peak(capsys, shots, *flags):
        """The tracemalloc peak of an ``anneal`` of the NOR gate at 2 sweeps."""
        return traced_peak(capsys, "anneal", "nor.model", "--sweeps", "2", "--workers", "1",
                           "--shots", str(shots), *flags)

    def test_keeps_no_shots_without_csv(self, capsys, monkeypatch):
        """Without ``--csv`` the command holds one batch at a time: ten times
        the shots, the same peak."""
        run(capsys, "gates", "emit", "nor")
        monkeypatch.setattr(seeds, "BATCH_BYTES", 1 << 18)
        self.peak(capsys, 2_000)
        assert self.peak(capsys, 20_000) < 1.25 * self.peak(capsys, 2_000) + (32 << 10)

    def test_summary_does_not_grow_with_a_reference(self, capsys, monkeypatch):
        """With a reference the summary counts the ground hits and keeps no
        label per shot: ten times the shots, the same peak."""
        run(capsys, "gates", "emit", "nor")
        monkeypatch.setattr(seeds, "BATCH_BYTES", 1 << 18)
        reference = ("--reference-e0", "-1.5")
        self.peak(capsys, 2_000, *reference)
        assert (self.peak(capsys, 20_000, *reference)
                < 1.25 * self.peak(capsys, 2_000, *reference) + (32 << 10))


class TestMultiply:
    def test_three_times_five(self, capsys):
        code, out, _ = run(capsys, "multiply", "3", "5", "--shots", "20")
        assert code == 0
        assert "product 15" in out
        assert "ground_reached True" in out

    def test_one_times_one(self, capsys):
        code, out, _ = run(capsys, "multiply", "1", "1", "--shots", "5")
        assert code == 0
        assert "product 1" in out

    def test_range_error(self, capsys):
        code, _, err = run(capsys, "multiply", "9", "1", "--bits-a", "2")
        assert code == 1

    def test_csv_decodes_each_shot(self, capsys):
        code, out, _ = run(capsys, "multiply", "3", "5", "--shots", "10",
                           "--csv", "mul.csv")
        assert code == 0
        assert "wrote mul.csv" in out
        lines = Path("mul.csv").read_text().splitlines()
        assert lines[0] == "shot,energy,ground_hit,state_bits,M,N,P"
        assert len(lines) == 11
        for line in lines[1:]:
            shot, _, hit, _, m, n, p = line.split(",")
            assert (int(m), int(n)) == (3, 5)
            if hit == "1":
                assert int(p) == 15
        assert "ground_hit,state_bits" not in out


class TestFactor:
    # The ground column and the CSV's ground_hit are the run's one label
    # per shot, so they sum to ground_hits and mark only true factor pairs,
    # under BIAS (product spins free) as under FOLD.
    @pytest.mark.parametrize("p,extra", [
        (4, ("--shots", "40")),
        (9, ("--method", "bias", "--shots", "30")),
    ], ids=["4-fold", "9-bias"])
    def test_ground_labels_are_factor_pairs(self, capsys, p, extra):
        code, out, _ = run(capsys, "factor", str(p), "--bits-a", "2", "--bits-b", "2",
                           *extra, "--csv", "shots.csv")
        assert code == 0
        lines = out.splitlines()
        hits = int(next(x for x in lines if x.startswith("ground_hits ")).split()[1])
        assert hits > 0
        ground_total = 0
        for line in lines:
            if line.startswith("count "):
                _, pair, _, _, ground = line.split()
                m, n = map(int, pair.strip("()").split(","))
                ground_total += int(ground)
                if int(ground) > 0:
                    assert m * n == p, line
        assert ground_total == hits
        rows = [row.split(",") for row in Path("shots.csv").read_text().splitlines()[1:]]
        assert sum(row[2] == "1" for row in rows) == hits
        for _, _, hit, _, m, n, _ in rows:
            if hit == "1":
                assert int(m) * int(n) == p

    def test_zero_product(self, capsys):
        code, out, _ = run(capsys, "factor", "0", "--bits-a", "1", "--bits-b", "1",
                           "--shots", "10")
        assert code == 0
        assert "ground_hits" in out

    def test_width_too_small(self, capsys):
        code, _, _ = run(capsys, "factor", "100", "--bits-a", "1", "--bits-b", "1")
        assert code == 1


class TestCircuit:
    def test_small_ensemble_with_trace(self, capsys, monkeypatch):
        # Shot k's rows are those of simulate_shot, seeded as shot k; the
        # inputs are scaled to SI units exactly as the CLI scales them.
        ramp = fluxsim.RampSpec(ramp_s=0.2 / 1e9, hold_s=0.05 / 1e9)
        layout = fluxsim.inverse_nor_layout(0, ramp=ramp)
        noises = [fluxsim.NoiseSpec(sigma=0.13 / 1e6, seed=shot_seed(1, k)) for k in range(3)]
        shots = [fluxsim.simulate_shot(layout, noise, ramp=ramp, dt=50 / 1e15, decimate=200)
                 for noise in noises]
        expected = io.StringIO()
        for k, shot in enumerate(shots):
            write_trace_rows(expected, k, shot.t, shot.iq[:, :, None], ramp.total_s)

        calls = []
        integrate = fluxsim._integrate_batch

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(fluxsim, "_integrate_batch", counted)
        for workers in ("1", "2"):
            code, out, _ = run(capsys, "circuit", "nor-inverse", "--clamp", "0",
                               "--shots", "3", "--ramp-ns", "0.2", "--hold-ns", "0.05",
                               "--dt-fs", "50", "--noise-sigma", "0.13",
                               "--trace", "waves.csv", "--decimate", "200",
                               "--workers", workers)
            assert code == 0
            assert "master_seed 1" in out
            assert "nor_violations" in out
            if workers == "1":
                # One pass: the CSV comes from the ensemble's own batch.
                assert len(calls) == 1
                # A pool pickles the integrator by its import path, which
                # the local wrapper lacks.
                monkeypatch.setattr(fluxsim, "_integrate_batch", integrate)
            text = Path("waves.csv").read_text()
            lines = text.splitlines()
            assert lines[0] == "t,Iq_1,Iq_2,Iq_3,Iq_4"
            assert len(lines) > 10
            rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
            assert all(len(row) == 5 for row in rows)
            assert text == expected.getvalue()

    def test_noiseless_repeatable(self, capsys):
        args = ("circuit", "nor-inverse", "--clamp", "1", "--shots", "2",
                "--ramp-ns", "0.2", "--noise-sigma", "0")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_clamp_required(self, capsys):
        code, _, _ = run(capsys, "circuit", "nor-inverse", "--shots", "1")
        assert code == 1

    @pytest.mark.parametrize("flag,value", [
        ("--dt-fs", "600"), ("--dt-fs", "0"), ("--dt-fs", "-5"), ("--dt-fs", "nan"),
        ("--ramp-ns", "nan"), ("--hold-ns", "inf"), ("--noise-sigma", "nan"),
        ("--dt-fs", "1e-300"), ("--ramp-ns", "1e300"),
    ])
    def test_bad_inputs_rejected_before_any_output(self, capsys, monkeypatch, flag, value):
        _refuse_pools(monkeypatch)
        code, out, err = run(capsys, "circuit", "nor-inverse", "--clamp", "0",
                             "--shots", "2", "--ramp-ns", "0.2", "--hold-ns", "0.05",
                             "--workers", "2", flag, value)
        assert code == 1
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_diverged_run_prints_nothing(self, capsys, workers):
        code, out, err = run(capsys, "circuit", "nor-inverse", "--clamp", "0", "--shots", "2",
                             "--ramp-ns", "0.2", "--hold-ns", "0.05", "--noise-sigma", "1e12",
                             "--workers", workers)
        assert code == 4
        assert out == ""
        assert err.startswith("numeric instability: integration diverged")

    def test_prints_master_seed_once(self, capsys):
        code, out, _ = run(capsys, "circuit", "nor-inverse", "--clamp", "0", "--shots", "2",
                           "--ramp-ns", "0.2", "--hold-ns", "0.05", "--seed", "5")
        assert code == 0
        seeds = [line for line in out.splitlines() if line.startswith("master_seed")]
        assert seeds == ["master_seed 5"]

    def test_step_help_names_default_and_limit(self, capsys):
        with pytest.raises(SystemExit):
            main(["circuit", "nor-inverse", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("step of the second-order integrator in fs (default 250); at most 500,"
                " the noise hold") in help_text


#: sha256 of every file each command writes.  A writer whose bytes change
#: must change these on purpose.  The trace digest also pins NumPy's float64
#: sin and cos, whose SIMD kernels may round differently on other CPUs.
_WRITTEN = {
    "gates-nor": (("gates", "emit", "nor"), {
        "nor.model": "a58052830bec399bb29b36b402d5739188df142b4efe484d3b95f56977fb6a3b",
        "nor.ports": "8ee80561cad559abf0621762ce62fe3dec092f5c73f6a531b726b9bb66c376bf"}),
    "gates-and": (("gates", "emit", "and"), {
        "and.model": "ecd81ce0dd0e5698cd5c4ff961c55371ae9aa71c178484acd8537a728064efa6",
        "and.ports": "5eb77740d10e62eaa85367356532d74c9a4fada6378e88420f7762a2a407f53c"}),
    "gates-half-adder": (("gates", "emit", "half-adder"), {
        "half-adder.model": "9bea3313e1d68bcc73bc9453641f61b5a63813e31b169fd6ce17112fa582a704",
        "half-adder.ports": "d53707e8704ee7a36b80ac98e79deb432847af244d25dc6b47d266ed637250f7"}),
    "gates-mult-unit": (("gates", "emit", "mult-unit"), {
        "mult-unit.model": "2ab2e29b482d3760c5cbfce3bf737382d3dddef6b3cd928ab8dbe7c1f6b5318b",
        "mult-unit.ports": "034b93caa23b77dfe516458b58afc57c6bb84160db67e7cd4492ee0b9af6eadf"}),
    "synth-mult": (("synth", "mult", "--bits-a", "2", "--bits-b", "2"), {
        "mult2x2.model": "ef3f1da81c63998331cb203e843f8439d92ad35dfe6ec87507335ba1fa3d20d4",
        "mult2x2.roles": "6190bf4226f65bc4d567d6103b863d3d677c611e86bf71b3d6febedb7b94f69d"}),
    "synth-mult-chained": (("synth", "mult", "--bits-a", "3", "--bits-b", "2", "--chains",
                            "--chain-strength", "0.5"), {
        "mult3x2.model": "68243fed2b9e158d5b3105eb3dd5ef20ebde81742f7e20061a91ebb288b914e8",
        "mult3x2.roles": "425ccc1cc92ee27bbe5723470e8f2708e07bd8c4d412dd94d3e38bc4e91ba13d"}),
    "factor-csv": (("factor", "15", "--shots", "5", "--sweeps", "50", "--csv", "f.csv"), {
        "f.csv": "ae87f21fb1ba94a8a3618b5f682700e3db5fb058f5dd1a9756fd9516fe956e50"}),
    "multiply-csv": (("multiply", "3", "5", "--shots", "5", "--csv", "m.csv"), {
        "m.csv": "5ebfae6a8f144dd1b657337e52edf0922a0ded6a534d7e1fbcf3218be98a24a4"}),
    "circuit-trace": (("circuit", "nor-inverse", "--clamp", "1", "--shots", "2",
                       "--ramp-ns", "0.2", "--hold-ns", "0.05", "--dt-fs", "50",
                       "--trace", "t.csv"), {
        "t.csv": "ce94a621fc4079bb97e8f3c48137e4c8d046a1a489a2b9c9e482f7e0c88b1100"}),
    "circuit-trace-default": (("circuit", "nor-inverse", "--clamp", "1", "--shots", "2",
                               "--ramp-ns", "0.2", "--hold-ns", "0.05", "--trace", "t.csv"), {
        "t.csv": "3357ee7b7c3fc8303705142ce8d803a3499558705623ac2a70a30a1ef10f1f6f"}),
}


class TestWrittenBytes:
    @pytest.mark.parametrize("case", sorted(_WRITTEN))
    def test_files_match_pinned_digests(self, capsys, case):
        argv, digests = _WRITTEN[case]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        written = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                   for name in digests}
        assert written == digests


#: sha256 of stdout and of the ``--csv`` file of full-size runs of every
#: shot command at the default worker count.  Their batches are as wide as
#: the flagship runs', 200 shots (100 per worker on two CPUs; 50 for
#: ``multiply``, its default); the pins above run 5.
_PRINTED = {
    "factor-200": (("factor", "15", "--shots", "200", "--seed", "2024", "--csv", "f.csv"),
                   "53434044c6ccb0741225af73fc29d09929c8d36cc69ff9ef30c0863421a8ee6d", {
        "f.csv": "5c37ca58e2c46aeeff5467468b4b6dce02c9bcde030d6dccaacd2faee32ac3f4"}),
    "factor-bias-200": (("factor", "15", "--method", "bias", "--shots", "200",
                         "--csv", "f.csv"),
                        "6e6d3373c283941c7f769f2720cea49145b2c7ca2892db148830e0b0cd4e7a41", {
        "f.csv": "6437d0e232108e35fbe5f52f23bf9f90379135aa572e65a2584bd93cf4205ae0"}),
    "multiply-3x5": (("multiply", "3", "5", "--csv", "m.csv"),
                     "3e8fb61932a864ec82cf1eb9c42ac81fcae487f739dbf595253cf466c0f9dfbf", {
        "m.csv": "bfc7f45f60746d37f3e3cd9827d263615a293256e29923849ecf08b665bd25e6"}),
    "anneal-nor": (("anneal", "nor.model", "--brute-force-reference", "--csv", "a.csv"),
                   "afd8ce52a4cf4762c347de2cab65a187d183214680be9e4267f23711421889f7", {
        "a.csv": "1dd6f7aa97bc44f46654af070a19a995d3e8d833da7cba97bccf4427706ccb2c"}),
    "circuit-clamp0-200": (("circuit", "nor-inverse", "--clamp", "0", "--shots", "200",
                            "--ramp-ns", "0.2", "--hold-ns", "0.05"),
                           "c634dfb53b34e8334262b434a2305642c821b8b3c7cf33ddadcee17d42973bc8", {}),
    "circuit-clamp1-200": (("circuit", "nor-inverse", "--clamp", "1", "--shots", "200",
                            "--ramp-ns", "0.2", "--hold-ns", "0.05"),
                           "1b41da03013478a3b2225436d937e6ac727a0ec10488ada679b6096215a75773", {}),
}


class TestPrintedBytes:
    @pytest.mark.parametrize("case", sorted(_PRINTED))
    def test_stdout_and_files_match_pinned_digests(self, capsys, case):
        argv, printed, digests = _PRINTED[case]
        run(capsys, "gates", "emit", "nor")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == printed
        written = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                   for name in digests}
        assert written == digests

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_dyadic_anneal_matches_pinned_digests(self, capsys, workers):
        """Quarter-grid sums are exact in any order; these fields round, so
        the pin also fixes the order in which they are summed."""
        Path("r.model").write_text(format_model(random_model(14, seed=3)))
        code, out, _ = run(capsys, "anneal", "r.model", "--shots", "200", "--csv", "r.csv",
                           "--workers", workers)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6cd42328e64527d4d2784ab4af2a78f44ca9907b2600680443973507431182fc")
        assert hashlib.sha256(Path("r.csv").read_bytes()).hexdigest() == (
            "e3efcbda98f077a50ab21094284f390841a32f3dce3ab57ea2fb176287fa862f")


    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_many_colour_classes_anneal_matches_pinned_digests(self, capsys, workers):
        """40 spins in 9 colour classes with 328 couplings: every class
        step adds its column range of the coupling matrix to the fields."""
        Path("r.model").write_text(format_model(random_model(40, seed=5)))
        code, out, _ = run(capsys, "anneal", "r.model", "--shots", "200", "--csv", "r.csv",
                           "--workers", workers)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f5b92f9805029d54b681d845f4ba285b569d2fbd49536f223c6dc97e097833ae")
        assert hashlib.sha256(Path("r.csv").read_bytes()).hexdigest() == (
            "909e00beb9eeed60a124aff8c9524931be201665743adb22d55792d8f29ab698")


_SAVING = {
    "anneal": ("anneal", "nor.model", "--shots", "4", "--csv"),
    "factor": ("factor", "15", "--shots", "4", "--csv"),
    "multiply": ("multiply", "3", "5", "--shots", "4", "--csv"),
    "circuit": ("circuit", "nor-inverse", "--clamp", "1", "--shots", "2", "--ramp-ns", "0.2",
                "--hold-ns", "0.05", "--trace"),
}


class TestOutputPaths:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("case", sorted(_SAVING))
    def test_unwritable_path_refused_before_any_shot(self, capsys, monkeypatch, case, workers):
        run(capsys, "gates", "emit", "nor")

        def unreached(*args, **kwargs):
            raise AssertionError("the input was read or a shot was dispatched")

        for module, name in ((anneal, "run_batches"), (fluxsim, "run_batches"),
                             (cli, "parse_model"), (cli, "build_multiplier"),
                             (fluxsim, "inverse_nor_layout")):
            monkeypatch.setattr(module, name, unreached)
        # A second fault that the command refuses by itself does not win.
        second = ("--dt-fs", "600") if case == "circuit" else ("--sweeps", "0")
        for faults in ((), second):
            code, out, err = run(capsys, *_SAVING[case], "missing/out.csv", *faults,
                                 "--workers", workers)
            assert code == 2
            assert out == ""
            assert err.startswith("data error: ") and "missing/out.csv" in err

    @pytest.mark.parametrize("case", sorted(_SAVING))
    def test_directory_is_refused_by_the_name_given(self, capsys, monkeypatch, case):
        """A directory, or a symlink to one, is refused before the input is
        read, naming the path as given rather than the link's target."""
        run(capsys, "gates", "emit", "nor")
        Path("adir").mkdir()
        os.symlink("adir", "alink")
        listing = sorted(os.listdir())
        for module, name in ((cli, "parse_model"), (cli, "build_multiplier"),
                             (fluxsim, "inverse_nor_layout")):
            monkeypatch.setattr(module, name, None)
        for path in ("adir", "alink"):
            code, out, err = run(capsys, *_SAVING[case], path)
            assert code == 2 and out == ""
            assert err == f"data error: [Errno 21] Is a directory: '{path}'\n"
        assert sorted(os.listdir()) == listing and os.listdir("adir") == []

    @pytest.mark.parametrize("case,refused", [
        ("anneal", ("--sweeps", "0")),
        ("factor", ("--sweeps", str(10**10))),
        ("multiply", ("--t-hot", "0.01")),
        ("circuit", ("--dt-fs", "600")),
    ], ids=["anneal-schedule", "factor-flip-cap", "multiply-schedule", "circuit-step"])
    def test_refused_run_leaves_the_path_as_it_was(self, capsys, case, refused):
        run(capsys, "gates", "emit", "nor")
        Path("kept.csv").write_bytes(b"earlier bytes\n")
        listing = sorted(os.listdir())
        for path in ("kept.csv", "absent.csv"):
            code, out, _ = run(capsys, *_SAVING[case], path, *refused)
            assert code == 1
            assert out == ""
        assert Path("kept.csv").read_bytes() == b"earlier bytes\n"
        assert sorted(os.listdir()) == listing

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "absent"])
    @pytest.mark.parametrize("case", sorted(_SAVING))
    def test_failed_run_leaves_stdout_and_the_path_alone(self, capsys, monkeypatch, case,
                                                         existing):
        """A run that fails at its second batch, after the first one's rows
        were written, prints nothing and leaves the ``--csv`` or ``--trace``
        path as it was, with no file added beside it."""
        run(capsys, "gates", "emit", "nor")
        if existing:
            Path("out.csv").write_bytes(b"earlier bytes\n")
        listing = sorted(os.listdir())
        monkeypatch.setattr(seeds, "BATCH_BYTES", 1)
        module, name = (fluxsim, "_integrate_batch") if case == "circuit" else (
            anneal, "_anneal_batch")
        real, calls = getattr(module, name), []

        def fail_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise ArithmeticError("injected at the second batch")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, fail_second)
        code, out, err = run(capsys, *_SAVING[case], "out.csv", "--workers", "1")
        assert code == 4 and len(calls) == 2
        assert out == ""
        assert "injected at the second batch" in err
        assert sorted(os.listdir()) == listing
        if existing:
            assert Path("out.csv").read_bytes() == b"earlier bytes\n"

    def test_directory_that_cannot_take_the_log_is_refused_before_the_model_is_read(
            self, capsys, monkeypatch):
        """The log is written beside the path and moved onto it, so a
        writable file in a read-only directory is refused, before the
        model is read, and kept."""
        run(capsys, "gates", "emit", "nor")
        Path("ro").mkdir()
        Path("ro/out.csv").write_bytes(b"earlier bytes\n")
        os.chmod("ro", 0o555)
        try:
            if os.access("ro", os.W_OK):
                pytest.skip("this user may write to a read-only directory")
            monkeypatch.setattr(cli, "parse_model", None)
            code, out, err = run(capsys, *_SAVING["anneal"], "ro/out.csv")
            assert code == 2 and out == "" and err.startswith("data error: ")
            assert os.listdir("ro") == ["out.csv"]
            assert Path("ro/out.csv").read_bytes() == b"earlier bytes\n"
        finally:
            os.chmod("ro", 0o755)

    @pytest.mark.parametrize("case", sorted(_SAVING))
    def test_log_replaces_the_real_path_and_keeps_its_mode(self, capsys, case):
        """A new file gets the mode ``open(path, "w")`` gives it, a
        replaced one keeps its own, and a symlink stays a link to the
        file that is written; each holds the bytes of a direct write."""
        run(capsys, "gates", "emit", "nor")
        umask = os.umask(0o027)
        try:
            assert run(capsys, *_SAVING[case], "direct.csv", "--workers", "1")[0] == 0
        finally:
            os.umask(umask)
        assert os.stat("direct.csv").st_mode & 0o777 == 0o640
        Path("target.csv").write_bytes(b"earlier bytes\n")
        os.chmod("target.csv", 0o604)
        os.symlink("target.csv", "link.csv")
        assert run(capsys, *_SAVING[case], "link.csv", "--workers", "1")[0] == 0
        assert os.readlink("link.csv") == "target.csv"
        assert os.stat("target.csv").st_mode & 0o777 == 0o604
        assert Path("target.csv").read_bytes() == Path("direct.csv").read_bytes()
        assert sorted(os.listdir()) == ["direct.csv", "link.csv", "nor.model", "nor.ports",
                                        "target.csv"]

    @pytest.mark.parametrize("kind", ["fifo", "pipe"])
    @pytest.mark.parametrize("case", sorted(_SAVING))
    def test_stream_is_written_in_place(self, capsys, monkeypatch, case, kind):
        """A FIFO, or a pipe named ``/dev/fd/N``, gets the bytes of a file
        written directly, with nothing moved onto it or left beside it."""
        run(capsys, "gates", "emit", "nor")
        assert run(capsys, *_SAVING[case], "direct.csv", "--workers", "1")[0] == 0
        if kind == "fifo":
            os.mkfifo("log")
            path = source = "log"
        elif os.path.isdir("/dev/fd"):
            source, write_end = os.pipe()
            path = f"/dev/fd/{write_end}"
        else:
            pytest.skip("no /dev/fd")
        listing = sorted(os.listdir())
        received = []

        def drain():
            with open(source, "rb") as stream:
                received.append(stream.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()

        def replace(*args, **kwargs):
            raise AssertionError("a log was moved onto a stream")

        monkeypatch.setattr(os, "replace", replace)
        try:
            code = run(capsys, *_SAVING[case], path, "--workers", "1")[0]
        finally:
            if kind == "pipe":
                os.close(write_end)
        reader.join(60)
        assert code == 0
        assert received == [Path("direct.csv").read_bytes()]
        assert sorted(os.listdir()) == listing
        if kind == "fifo":
            assert stat.S_ISFIFO(os.stat("log").st_mode)

    @pytest.mark.skipif(not hasattr(os, "geteuid"), reason="no user ids")
    def test_another_users_file_in_a_sticky_directory_is_refused_before_the_model_is_read(
            self, capsys, monkeypatch):
        """In a sticky directory such as ``/tmp`` only the owner of a file or
        of the directory may replace it, so another user's file is refused
        before the model is read, and kept; the owner's own run writes it."""
        run(capsys, "gates", "emit", "nor")
        Path("shared").mkdir()
        os.chmod("shared", 0o1777)
        Path("shared/out.csv").write_bytes(b"earlier bytes\n")
        os.chmod("shared/out.csv", 0o666)
        owner = os.stat("shared/out.csv").st_uid
        with monkeypatch.context() as other_user:
            other_user.setattr(os, "geteuid", lambda: owner + 1)
            other_user.setattr(cli, "parse_model", None)
            code, out, err = run(capsys, *_SAVING["anneal"], "shared/out.csv")
        assert code == 2 and out == "" and err.startswith("data error: ")
        assert "sticky" in err
        assert os.listdir("shared") == ["out.csv"]
        assert Path("shared/out.csv").read_bytes() == b"earlier bytes\n"
        assert run(capsys, *_SAVING["anneal"], "shared/out.csv", "--workers", "1")[0] == 0
        assert os.listdir("shared") == ["out.csv"]
        assert Path("shared/out.csv").read_bytes() != b"earlier bytes\n"


#: The four commands that fold each batch, each writing its per-shot log.
_FOLDING = {
    "factor": ("factor", "6", "--bits-a", "2", "--bits-b", "2", "--sweeps", "1", "--csv"),
    "multiply": ("multiply", "2", "3", "--sweeps", "1", "--csv"),
    "anneal": ("anneal", "nor.model", "--sweeps", "1", "--csv"),
    "circuit": ("circuit", "nor-inverse", "--clamp", "0", "--ramp-ns", "0.002", "--hold-ns",
                "0", "--decimate", "1", "--trace"),
}


class TestBatchFolds:
    @pytest.mark.parametrize("case", sorted(_FOLDING))
    def test_memory_does_not_grow_with_shots(self, capsys, monkeypatch, case):
        """Each batch is decoded, counted and written to the ``--csv`` or
        ``--trace`` log as it arrives, then dropped: ten times the shots,
        the same peak."""
        run(capsys, "gates", "emit", "nor")
        monkeypatch.setattr(seeds, "BATCH_BYTES", 1 << 17)

        def peak(shots):
            return traced_peak(capsys, *_FOLDING[case], "shots.csv", "--workers", "1",
                               "--shots", str(shots))

        peak(400)
        assert peak(4000) < 1.25 * peak(400) + (32 << 10)

    def test_recorded_batch_fits_the_batch_budget(self):
        """A batch's per-shot bytes count its recording, and the circuit fold
        drops each batch before the next one is integrated: two batches that
        record all 1,002 rows of a 0.25-ns run peak within the default
        budget plus 1/16 of it."""
        layout = fluxsim.inverse_nor_layout(0, ramp=fluxsim.RampSpec(0.2e-9, 0.05e-9))
        steps = fluxsim.step_count(layout.ramp, fluxsim.DT_DEFAULT)
        shots = 2 * seeds.batch_size(fluxsim._shot_bytes(layout.n, steps, 1))
        _, _, peak = traced(lambda: cli._fold_ensemble(
            layout, fluxsim.NoiseSpec(), None, n_shots=shots, master_seed=1, workers=1,
            decimate=1))
        assert peak < seeds.BATCH_BYTES * 17 / 16


class TestDefaults:
    def test_cli_defaults_equal_library_defaults(self):
        """Every parsed default rebuilds the library's own default."""
        parse = cli.build_parser().parse_args
        for argv in (["anneal", "x.model"], ["factor", "15"], ["multiply", "3", "5"]):
            assert cli._schedule_from(parse(argv)) == anneal.Schedule()
        assert parse(["factor", "15"]).method == (
            inspect.signature(multiplier.clamp_product).parameters["method"].default)
        args = parse(["circuit", "nor-inverse", "--clamp", "0"])
        assert args.noise_sigma / 1e6 == fluxsim.NoiseSpec().sigma
        assert args.decimate == fluxsim.DECIMATE_DEFAULT == (
            inspect.signature(fluxsim.simulate_shot).parameters["decimate"].default)
        args = parse(["synth", "mult", "--bits-a", "2", "--bits-b", "2"])
        assert args.chain_strength == multiplier.CHAIN_STRENGTH == (
            inspect.signature(multiplier.build_multiplier).parameters["chain_strength"].default)
        args = parse(["capacity"])
        assert CapacityInput(unit_w_um=args.unit_w, unit_h_um=args.unit_h, chip_mm=args.chip_mm,
                             margin_um=args.margin_um, chips=args.chips) == CapacityInput()

    def test_default_circuit_run_integrates_library_defaults(self, capsys, monkeypatch):
        """The CLI's unit conversions rebuild the library's ramp, step and
        noise exactly, so a default run is the library's default run."""
        seen = []
        integrate = fluxsim._integrate_batch

        def recorded(layout, noise, ramp, dt, *args, **kwargs):
            seen.append((ramp, dt, noise.sigma))
            return integrate(layout, noise, ramp, dt, *args, **kwargs)

        monkeypatch.setattr(fluxsim, "_integrate_batch", recorded)
        code, _, _ = run(capsys, "circuit", "nor-inverse", "--clamp", "0", "--shots", "1")
        assert code == 0
        assert seen == [(fluxsim.RampSpec(), fluxsim.DT_DEFAULT, fluxsim.NoiseSpec().sigma)]


#: A run of each shot command that writes its log to ``shots.csv``.
_LOGGED = {
    "factor": ("factor", "15", "--shots", "40", "--sweeps", "300", "--csv", "shots.csv"),
    "multiply": ("multiply", "3", "5", "--shots", "20", "--sweeps", "300", "--csv", "shots.csv"),
    "anneal": ("anneal", "nor.model", "--brute-force-reference", "--shots", "40",
               "--csv", "shots.csv"),
    "circuit": ("circuit", "nor-inverse", "--clamp", "0", "--shots", "4", "--ramp-ns", "0.2",
                "--hold-ns", "0.05", "--trace", "shots.csv"),
}


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs; returns a setter of the process start method."""
    monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)

    def start_by(method):
        monkeypatch.setattr(multiprocessing, "get_start_method",
                            lambda allow_none=False: method)
    return start_by


def _refuse_pools(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


class TestDefaultWorkers:
    @pytest.mark.parametrize("case", sorted(_LOGGED))
    def test_fork_default_runs_a_pool_with_the_bytes_of_one_worker(self, capsys, monkeypatch,
                                                                  two_cpus, case):
        two_cpus("fork")
        pools = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        run(capsys, "gates", "emit", "nor")
        argv = _LOGGED[case]
        code, one, _ = run(capsys, *argv, "--workers", "1")
        assert code == 0 and pools == []
        one_csv = Path("shots.csv").read_bytes()
        code, default, _ = run(capsys, *argv)
        assert code == 0 and pools == [2]
        assert default == one
        assert Path("shots.csv").read_bytes() == one_csv

    @pytest.mark.parametrize("case", sorted(_LOGGED))
    def test_spawn_default_starts_no_pool(self, capsys, monkeypatch, two_cpus, case):
        two_cpus("spawn")
        _refuse_pools(monkeypatch)
        run(capsys, "gates", "emit", "nor")
        assert run(capsys, *_LOGGED[case])[0] == 0


class TestCapacity:
    def test_reference_numbers(self, capsys):
        code, out, _ = run(capsys, "capacity")
        assert code == 0
        assert "units_side 35" in out
        assert "total_units 122500" in out
        assert "product_bits 350" in out

    def test_tiny_chip(self, capsys):
        code, out, _ = run(capsys, "capacity", "--chip-mm", "1", "--margin-um", "400")
        assert code == 0
        assert "units_side 0" in out

    @pytest.mark.parametrize("flag,value", [("--unit-w", "inf"), ("--unit-w", "nan"),
                                            ("--margin-um", "nan"), ("--chip-mm", "inf")])
    def test_non_finite_size_is_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "capacity", flag, value)
        assert code == 1
        assert "must be finite" in err
        assert out == ""


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "fizz")[0] == 1

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("command,flag", [
        (("factor", "15", "--shots", "2"), "--workers"),
        (("circuit", "nor-inverse", "--clamp", "0", "--shots", "2"), "--workers"),
        (("factor", "15"), "--shots"),
        (("circuit", "nor-inverse", "--clamp", "0"), "--shots"),
        (("circuit", "nor-inverse", "--clamp", "0", "--shots", "2"), "--decimate"),
        (("factor", "15"), "--bits-a"),
        (("factor", "15", "--bits-a", "2"), "--bits-b"),
        (("multiply", "3", "5"), "--bits-a"),
        (("synth", "mult", "--bits-b", "2"), "--bits-a"),
    ], ids=["factor-workers", "circuit-workers", "factor-shots", "circuit-shots",
            "circuit-decimate", "factor-bits-a", "factor-bits-b", "multiply-bits-a",
            "synth-bits-a"])
    def test_counts_below_one_rejected_before_any_work(self, capsys, command, flag, value):
        code, out, err = run(capsys, *command, flag, value)
        assert code == 1
        assert out == ""
        assert flag in err

    # The model has 3 spins, so a cap accepted by mistake still returns at
    # once instead of starting a long enumeration.
    @given(st.one_of(st.integers(max_value=0),
                     st.integers(1, MAX_BRUTE_FORCE_CAP),
                     st.integers(min_value=MAX_BRUTE_FORCE_CAP + 1)),
           st.sampled_from([("verify", "nor.model"),
                            ("anneal", "nor.model", "--brute-force-reference",
                             "--shots", "1", "--sweeps", "1")]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cap_outside_range_is_usage_error(self, capsys, cap, command):
        with open("nor.model", "w") as fh:
            fh.write("n 3\nh 0 0.5\nh 1 0.5\nh 2 1.0\n"
                     "J 0 1 0.5\nJ 0 2 1.0\nJ 1 2 1.0\n")
        code, out, err = run(capsys, *command, "--cap", str(cap))
        if 1 <= cap <= MAX_BRUTE_FORCE_CAP:
            assert code == (0 if cap >= 3 else 2)
        else:
            assert code == 1
            assert out == ""
            assert "--cap" in err

    @pytest.mark.parametrize("command", [
        ("factor", "15", "--sweeps", "0"),
        ("factor", "15", "--t-cold", "-1"),
        ("multiply", "3", "5", "--sweeps", "0"),
        ("anneal", "nor.model", "--t-hot", "0.01"),
        ("anneal", "nor.model", "--t-hot", "inf", "--t-cold", "1"),
        ("multiply", "3", "5", "--schedule", "linear", "--t-hot", "inf"),
        ("factor", "15", "--t-hot", "1e200", "--t-cold", "1e-200", "--sweeps", "3"),
    ], ids=["factor-sweeps", "factor-t-cold", "multiply-sweeps", "anneal-t-hot",
            "anneal-t-hot-inf", "multiply-linear-t-hot-inf", "factor-t-cold-underflow"])
    def test_bad_schedule_rejected_before_any_output(self, capsys, command):
        run(capsys, "gates", "emit", "nor")
        code, out, err = run(capsys, *command)
        assert code == 1
        assert out == ""
        assert "t_cold" in err or "sweeps" in err

    @pytest.mark.parametrize("command,reason", [
        (("factor", "-1"), "P=-1 does not fit in 2 bits"),
        (("multiply", "-3", "5"), "M=-3 does not fit in 2 bits"),
        (("multiply", "1", "9", "--bits-b", "2"), "N=9 does not fit in 2 bits"),
        (("factor", "100", "--bits-a", "1", "--bits-b", "1"), "P=100 does not fit in 2 bits"),
        (("multiply", "9", "1", "--bits-a", "2"), "M=9 does not fit in 2 bits"),
    ], ids=["factor-negative", "multiply-negative", "multiply-bits-b", "factor-product-bits",
            "multiply-bits-a"])
    def test_numbers_out_of_range_rejected_before_any_output(self, capsys, monkeypatch,
                                                             command, reason):
        """Each register is checked once its width is known, before the
        schedule is read or the network is built."""
        def unreached(*args, **kwargs):
            raise AssertionError("the schedule was read or the network built")

        monkeypatch.setattr(cli, "_schedule_from", unreached)
        monkeypatch.setattr(cli, "build_multiplier", unreached)
        code, out, err = run(capsys, *command)
        assert code == 1
        assert out == ""
        assert err == f"usage error: {reason}\n"

    @pytest.mark.parametrize("command", [
        ("factor", "15", "--bits-a", "1000000", "--bits-b", "1"),
        ("multiply", "3", "5", "--bits-a", "1000000"),
    ], ids=["factor", "multiply"])
    def test_wide_network_refused_within_a_small_peak(self, capsys, command):
        """Checking a register allocates nothing per bit of its width, so a
        million-bit network is refused by its size check, not by memory."""
        (code, out, err), _, peak = traced(lambda: run(capsys, *command))
        assert code == 1 and out == ""
        assert "above the model-file limit" in err
        assert peak < 1 << 20

    @pytest.mark.parametrize("command", [
        ("anneal", "nor.model", "--sweeps", str(10**12)),
        ("factor", "15", "--sweeps", str(10**10)),
        ("multiply", "3", "5", "--shots", "1", "--sweeps", str(10**12)),
    ], ids=["anneal", "factor", "multiply"])
    def test_run_above_the_flip_cap_rejected_before_any_output(self, capsys, command):
        run(capsys, "gates", "emit", "nor")
        code, out, err = run(capsys, *command)
        assert code == 1
        assert out == ""
        assert "flip attempts, more than the 1e+12 allowed" in err

    @pytest.mark.parametrize("command", [
        ("circuit", "--seed", "5", "nor-inverse", "--clamp", "0", "--shots", "2",
         "--ramp-ns", "0.2", "--hold-ns", "0.05"),
        ("capacity", "--seed", "3"),
        ("gates", "emit", "nor", "--seed", "3"),
        ("synth", "mult", "--bits-a", "2", "--bits-b", "2", "--seed", "3"),
        ("verify", "nor.model", "--seed", "3"),
    ], ids=["circuit-group", "capacity", "gates-emit", "synth-mult", "verify"])
    def test_seed_rejected_where_nothing_is_drawn(self, capsys, command):
        run(capsys, "gates", "emit", "nor")
        code, out, err = run(capsys, *command)
        assert code == 1
        assert out == ""
        assert "usage error" in err


# Runs in a fresh interpreter: this test process already holds SciPy.
# Prints, after the import and after each command, which of the watched
# packages are loaded.
_PROBE = """
import contextlib, io, json, sys
WATCHED = {"scipy", "scipy.sparse", "scipy.optimize", "concurrent"}
def loaded():
    return sorted(WATCHED & set(sys.modules))
import qafactor, qafactor.cli
steps = [loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qafactor.cli.main(argv) == 0, argv
    steps.append(loaded())
print(json.dumps(steps))
"""


def _loaded_after(*commands):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestColdStart:
    def test_numpy_only_commands_never_load_scipy_or_a_pool(self):
        """The commands that run no shots load neither; the circuit, last,
        may start a pool but never loads SciPy."""
        steps = _loaded_after(
            ["gates", "emit", "nor"],
            ["verify", "nor.model", "--ports", "nor.ports"],
            ["capacity"],
            ["gates", "emit", "mult-unit"],
            ["synth", "mult", "--bits-a", "2", "--bits-b", "2"],
            ["circuit", "nor-inverse", "--clamp", "0", "--shots", "2",
             "--ramp-ns", "0.2", "--hold-ns", "0.05"],
        )
        assert steps[:6] == [[]] * 6
        assert set(steps[6]) <= {"concurrent"}

    def test_annealing_never_loads_scipy_sparse_or_optimize(self):
        """The annealer loads SciPy's compiled CSR kernel from its extension
        file alone, in whichever process anneals."""
        steps = _loaded_after(
            ["gates", "emit", "nor"],
            ["anneal", "nor.model", "--shots", "4", "--sweeps", "50"],
            ["factor", "15", "--shots", "2", "--sweeps", "50"],
            ["factor", "15", "--shots", "2", "--sweeps", "50", "--workers", "1"],
            ["multiply", "3", "5", "--shots", "2", "--sweeps", "50"],
        )
        assert len(steps) == 6
        for step in steps:
            assert "scipy.sparse" not in step and "scipy.optimize" not in step
