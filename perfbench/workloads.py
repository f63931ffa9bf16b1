"""Workloads of the qafactor benchmark.

Each workload names the CLI commands it times, the set-up a user pays
before the first model or layout is ready, the checks on the CLI's
output, and a traced driver that calls the same public layer functions
in the order the CLI calls them.  See README.md in this directory for
why each workload was chosen.
"""
from __future__ import annotations

import math
import random
import statistics
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from qafactor import anneal, cli, fluxsim
from qafactor.ising import clamp_fold, merge_spins
from qafactor.multiplier import (
    FOLD,
    build_multiplier,
    clamp_product,
    decode,
    factor_clamp_assignment,
    product_clamp_assignment,
)
from qafactor.seeds import shot_seed
from qafactor.synth import mult_unit_gate

from spans import Tracer
from stats import tail

#: Slack on "no shot lies below the analytic ground energy".  Model
#: coefficients sit on a 1/4 grid, so exact sums need none; this only
#: absorbs the annealer's own drift allowance.
ENERGY_TOL = 1e-6

#: Files the workloads write (trace CSVs, spans, result records).
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


@dataclass(frozen=True)
class Command:
    argv: list[str]
    shots: int


@dataclass
class Checked:
    """Outcome of the checks on one repetition of a workload's commands."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float | None] = field(default_factory=dict)

    def fail(self, shots: int, problem: str) -> None:
        self.failed += shots
        self.problems.append(problem)


@dataclass
class Traced:
    """What the traced driver produced: the stdout the CLI should print,
    per-layer figures and the failures its own checks found."""

    outputs: list[str]
    shots: int
    layer: dict[str, float]
    failed_shots: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    csv_rows: list[list[float]] | None = None


def _fields(text: str) -> tuple[dict[str, list[str]], list[list[str]]]:
    """Split key-value stdout into its last value per key and its count rows."""
    values: dict[str, list[str]] = {}
    counts: list[list[str]] = []
    for line in text.splitlines():
        key, *rest = line.split()
        if key == "count":
            counts.append(rest)
        else:
            values[key] = rest
    return values, counts


# ---------------------------------------------------------------------------
# annealer workloads
# ---------------------------------------------------------------------------

def _schedule(argv: list[str]) -> tuple[object, anneal.Schedule]:
    args = cli.build_parser().parse_args(argv)
    return args, anneal.Schedule(kind=args.schedule, t_hot=args.t_hot,
                                 t_cold=args.t_cold, sweeps=args.sweeps)


def _annealer_layer(tracer: Tracer, traced: Traced, model, sched, seed: int,
                    shots, reference: float, hit_rate: float) -> None:
    """Per-shot checks and annealer figures shared by both annealer workloads.

    Every shot is re-run alone through ``anneal_shot`` with its derived
    seed and must equal the batched run's result (the seeding contract);
    those single-shot spans give the per-shot time distribution.
    """
    for r in shots:
        if r.energy < reference - ENERGY_TOL:
            traced.failed_shots.add(r.index)
            traced.problems.append(f"shot {r.index} energy {r.energy!r} below E0 {reference!r}")
    shot_ms = []
    with tracer.span("check.seeding"):
        for r in shots:
            with tracer.span("anneal.anneal_shot") as span:
                alone = anneal.anneal_shot(model, sched, shot_seed(seed, r.index), r.index)
            shot_ms.append(span.seconds * 1e3)
            if alone != r:
                traced.failed_shots.add(r.index)
                traced.problems.append(f"shot {r.index}: anneal_shot differs from run_shots")
    with tracer.span("check.alloc"):
        tracemalloc.start()
        try:
            anneal.anneal_shot(model, sched, shot_seed(seed, 0), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_s = tracer.total("anneal.run_shots")
    flips = len(shots) * sched.sweeps * model.n
    traced.layer.update({
        "anneal.run_shots_s": run_s,
        "anneal.shot_ms_p50": statistics.median(shot_ms),
        "anneal.shot_ms_tail": tail(shot_ms),
        "anneal.flip_attempts": flips,
        "anneal.flip_attempts_per_s": flips / run_s,
        "anneal.shot_alloc_peak_mb": peak / 2**20,
        "anneal.ground_hit_rate": hit_rate,
        "anneal.residual_energy_mean": statistics.fmean(r.energy - reference for r in shots),
    })


class Factor:
    """``qafactor factor 15 --shots 200``: many small annealing shots."""

    name = "factor-4x4"
    P = 15
    BITS = 4
    SHOTS = 200

    def commands(self, seed: int) -> list[Command]:
        return [Command(["factor", str(self.P), "--shots", str(self.SHOTS),
                         "--seed", str(seed)], self.SHOTS)]

    def setup(self, seed: int) -> float:
        """Returns the analytic ground energy of the clamped network."""
        mult_unit_gate()
        net = build_multiplier(self.BITS, self.BITS)
        _, offset = clamp_product(net, self.P, method=FOLD)
        return net.expected_e0 - offset

    def check(self, seed: int, e0: float, outputs: list[str]) -> Checked:
        out = Checked()
        try:
            values, rows = _fields(outputs[0])
            counts = [(*map(int, r[0].strip("()").split(",")), int(r[1]), int(r[3]))
                      for r in rows]
            shots = int(values["shots"][0])
            hits = int(values["ground_hits"][0])
            reference = float(values["reference_e0"][0])
            best = float(values["best_energy"][0])
            rate = float(values["ground_hit_rate"][0])
            header_ok = (int(values["master_seed"][0]) == seed
                         and values["network"][0] == f"{self.BITS}x{self.BITS}")
        except (KeyError, IndexError, ValueError) as exc:
            out.fail(self.SHOTS, f"unparseable factor output: {exc!r}")
            return out
        if not header_ok or shots != self.SHOTS or sum(c for _, _, c, _ in counts) != shots:
            out.fail(self.SHOTS, "seed, network or shot counts disagree")
            return out
        if abs(reference - e0) > ENERGY_TOL:
            out.fail(shots, f"reference_e0 {reference!r} is not the analytic E0 {e0!r}")
        elif best < e0 - ENERGY_TOL:
            out.fail(shots, f"best_energy {best!r} lies below E0 {e0!r}")
        elif hits != sum(g for *_, g in counts) or hits == 0 or rate != hits / shots:
            out.fail(shots, f"ground_hits {hits} inconsistent with its rows or zero")
        else:
            for m, n, c, g in counts:
                if g > c or (g and m * n != self.P):
                    out.fail(g, f"{g} shots labelled ground decode to ({m},{n})")
        out.failed = min(out.failed, shots)
        out.quality["ground_hit_rate"] = hits / shots
        return out

    def traced(self, seed: int, tracer: Tracer) -> Traced:
        argv = self.commands(seed)[0].argv
        args, sched = _schedule(argv)
        with tracer.span("synth.mult_unit_gate"):
            mult_unit_gate()
        with tracer.span("multiplier.build_multiplier"):
            net = build_multiplier(self.BITS, self.BITS)
        with tracer.span("ising.clamp_fold"):
            clamped, offset = clamp_product(net, self.P, method=FOLD)
        reference = net.expected_e0 - offset
        clamps = product_clamp_assignment(net, self.P)
        with tracer.span("anneal.run_shots"):
            summary, shots = anneal.run_shots(clamped, sched, args.shots, seed,
                                              reference_e0=reference, keep_shots=True)
        with tracer.span("multiplier.decode"):
            outcomes = [decode(net, merge_spins(net.model.n, clamps, r.state)) for r in shots]

        hist: Counter = Counter()
        hits: Counter = Counter()
        for o in outcomes:
            hist[f"({o.m},{o.n})"] += 1
            hits[f"({o.m},{o.n})"] += o.is_ground
        lines = [
            f"master_seed {seed}",
            f"network {self.BITS}x{self.BITS} qubits {net.model.n} clamped {clamped.n}",
            f"reference_e0 {reference!r}",
            f"shots {summary.shots}",
            f"best_energy {summary.best_energy!r}",
            f"ground_hits {summary.ground_hits}",
            f"ground_hit_rate {summary.ground_hit_rate!r}",
        ]
        lines += [f"count {k} {hist[k]} ground {hits[k]}"
                  for k in sorted(hist, key=lambda k: (-hist[k], k))]
        traced = Traced(["\n".join(lines) + "\n"], len(shots), {
            "synth.cell_synthesis_s": tracer.total("synth.mult_unit_gate"),
            "multiplier.build_s": tracer.total("multiplier.build_multiplier"),
            "ising.clamp_fold_s": tracer.total("ising.clamp_fold"),
            "multiplier.decode_us": tracer.total("multiplier.decode") / len(shots) * 1e6,
        })
        for r, o in zip(shots, outcomes):
            if o.is_ground and o.m * o.n != self.P:
                traced.failed_shots.add(r.index)
                traced.problems.append(f"shot {r.index} ground but decodes to ({o.m},{o.n})")
        _annealer_layer(tracer, traced, clamped, sched, seed, shots, reference,
                        summary.ground_hit_rate)
        return traced


class Multiply:
    """``qafactor multiply M N`` at 12x12 bits: few shots on a wide model."""

    name = "multiply-12x12"
    BITS = 12
    SHOTS = 8

    def factors(self, seed: int) -> tuple[int, int]:
        """Two full-width factors drawn from the workload seed."""
        rng = random.Random(seed)
        lo = 1 << (self.BITS - 1)
        return rng.randrange(lo, 2 * lo), rng.randrange(lo, 2 * lo)

    def commands(self, seed: int) -> list[Command]:
        m, n = self.factors(seed)
        return [Command(["multiply", str(m), str(n), "--bits-a", str(self.BITS),
                         "--bits-b", str(self.BITS), "--shots", str(self.SHOTS),
                         "--seed", str(seed)], self.SHOTS)]

    def setup(self, seed: int) -> None:
        m, n = self.factors(seed)
        mult_unit_gate()
        net = build_multiplier(self.BITS, self.BITS)
        clamp_fold(net.model, factor_clamp_assignment(net, m, n))

    def check(self, seed: int, _ctx, outputs: list[str]) -> Checked:
        out = Checked()
        m, n = self.factors(seed)
        try:
            values, _ = _fields(outputs[0])
            product = int(values["product"][0])
            reached = {"True": True, "False": False}[values["ground_reached"][0]]
            rate = float(values["ground_hit_rate"][0])
            seed_ok = int(values["master_seed"][0]) == seed
        except (KeyError, IndexError, ValueError) as exc:
            out.fail(self.SHOTS, f"unparseable multiply output: {exc!r}")
            return out
        if not seed_ok or not 0.0 <= rate <= 1.0 or reached != (rate > 0):
            out.fail(self.SHOTS, "master seed, hit rate and ground_reached disagree")
        elif reached and product != m * n:
            out.fail(self.SHOTS, f"ground state reached but product {product} != {m}*{n}")
        out.quality["ground_hit_rate"] = rate
        return out

    def traced(self, seed: int, tracer: Tracer) -> Traced:
        m, n = self.factors(seed)
        args, sched = _schedule(self.commands(seed)[0].argv)
        with tracer.span("synth.mult_unit_gate"):
            mult_unit_gate()
        with tracer.span("multiplier.build_multiplier"):
            net = build_multiplier(self.BITS, self.BITS)
        with tracer.span("ising.clamp_fold"):
            clamps = factor_clamp_assignment(net, m, n)
            clamped, offset = clamp_fold(net.model, clamps)
        reference = net.expected_e0 - offset
        with tracer.span("anneal.run_shots"):
            summary, shots = anneal.run_shots(clamped, sched, args.shots, seed,
                                              reference_e0=reference, keep_shots=True)
        best = min(shots, key=lambda r: (r.energy, r.index))
        with tracer.span("multiplier.decode"):
            out = decode(net, merge_spins(net.model.n, clamps, best.state))
        text = (f"master_seed {seed}\nproduct {out.p}\nground_reached {out.is_ground}\n"
                f"ground_hit_rate {summary.ground_hit_rate!r}\n")
        traced = Traced([text], len(shots), {
            "synth.cell_synthesis_s": tracer.total("synth.mult_unit_gate"),
            "multiplier.build_s": tracer.total("multiplier.build_multiplier"),
            "ising.clamp_fold_s": tracer.total("ising.clamp_fold"),
            "multiplier.decode_us": tracer.total("multiplier.decode") * 1e6,
        })
        _annealer_layer(tracer, traced, clamped, sched, seed, shots, reference,
                        summary.ground_hit_rate)
        return traced


# ---------------------------------------------------------------------------
# circuit workloads
# ---------------------------------------------------------------------------

def _circuit_inputs(argv: list[str]):
    """The CLI's own reading of a ``circuit nor-inverse`` command line."""
    args = cli.build_parser().parse_args(argv)
    ramp = fluxsim.RampSpec(ramp_s=args.ramp_ns * 1e-9, hold_s=args.hold_ns * 1e-9)
    noise = fluxsim.NoiseSpec(sigma=args.noise_sigma * 1e-6)
    return args, ramp, noise, args.dt_fs * 1e-15


def _nor_tallies(counts: dict[tuple[int, ...], int], clamp: int) -> tuple[int, int]:
    violations = sum(c for b, c in counts.items() if (1 - (b[0] | b[1])) != b[2])
    misses = sum(c for b, c in counts.items() if b[2] != clamp or b[3] != clamp)
    return violations, misses


def read_trace_csv(path) -> list[list[float]]:
    """Rows of a ``--trace`` CSV as floats.  Under NumPy 2 the CLI writes the
    time column as ``np.float64(x)``; that wrapper is read through."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "t,Iq_1,Iq_2,Iq_3,Iq_4":
            raise ValueError(f"unexpected trace header {header!r}")
        rows = []
        for line in fh:
            t, *iq = line.rstrip("\n").split(",")
            if t.startswith("np.float64(") and t.endswith(")"):
                t = t[len("np.float64("):-1]
            rows.append([float(t), *map(float, iq)])
    return rows


class CircuitNor:
    """``qafactor circuit nor-inverse --clamp 0`` and ``--clamp 1``, 200 shots each."""

    name = "circuit-nor"
    CLAMPS = (0, 1)
    SHOTS = 200

    def commands(self, seed: int) -> list[Command]:
        return [Command(["circuit", "nor-inverse", "--clamp", str(c), "--shots",
                         str(self.SHOTS), "--seed", str(seed)], self.SHOTS)
                for c in self.CLAMPS]

    def setup(self, seed: int) -> None:
        args, ramp, _, _ = _circuit_inputs(self.commands(seed)[0].argv)
        fluxsim.inverse_nor_layout(args.clamp, ramp=ramp)

    def check(self, seed: int, _ctx, outputs: list[str]) -> Checked:
        out = Checked()
        shots = violations = misses = 0
        for cmd, text in zip(self.commands(seed), outputs):
            clamp = int(cmd.argv[3])
            try:
                values, rows = _fields(text)
                counts = {tuple(int(s == "+1") for s in r[:4]): int(r[4]) for r in rows}
                printed = (int(values["shots"][0]), int(values["master_seed"][0]),
                           int(values["nor_violations"][0]), int(values["clamp_misses"][0]))
            except (KeyError, IndexError, ValueError) as exc:
                out.fail(cmd.shots, f"unparseable circuit output: {exc!r}")
                continue
            tallies = _nor_tallies(counts, clamp)
            if printed != (cmd.shots, seed, *tallies) or sum(counts.values()) != cmd.shots:
                out.fail(cmd.shots, f"clamp {clamp}: counts do not sum to shots "
                                    "or violations/misses disagree with them")
                continue
            shots += cmd.shots
            violations += tallies[0]
            misses += tallies[1]
            self._check_files(cmd, counts, values, out)
        if shots:
            out.quality["nor_violation_rate"] = violations / shots
            out.quality["clamp_miss_rate"] = misses / shots
        return out

    def _check_files(self, cmd: Command, counts, values, out: Checked) -> None:
        """Checks on files the command writes; this workload writes none."""

    def traced(self, seed: int, tracer: Tracer) -> Traced:
        traced = Traced([], 0, {})
        tallies = []
        for cmd in self.commands(seed):
            args, ramp, noise, dt = _circuit_inputs(cmd.argv)
            with tracer.span("fluxsim.inverse_nor_layout"):
                layout = fluxsim.inverse_nor_layout(args.clamp, ramp=ramp)
            with tracer.span("fluxsim.run_ensemble"):
                result = fluxsim.run_ensemble(layout, noise, ramp=ramp, n_shots=args.shots,
                                              master_seed=seed, dt=dt)
            violations, misses = _nor_tallies(result.counts, args.clamp)
            text = (f"master_seed {seed}\n{result.to_text()}"
                    f"nor_violations {violations}\nclamp_misses {misses}\n")
            if args.trace:
                # --trace integrates every shot a second time, at batch 1.
                singles = _simulate(tracer, layout, noise, ramp, dt, args, args.shots)
                traced.csv_rows = [
                    [float(t) + k * ramp.total_s, *map(float, iq)]
                    for k, tr in enumerate(singles) for t, iq in zip(tr.t, tr.iq)
                ]
                text += f"wrote {args.trace}\n"
            with tracer.span("check.seeding"):
                if not args.trace:
                    singles = _simulate(tracer, layout, noise, ramp, dt, args, 1)
                for k in _batch_mismatches(layout, noise, ramp, dt, args, result, singles):
                    traced.failed_shots.add(traced.shots + k)
                    traced.problems.append(f"clamp {args.clamp} shot {k}: simulate_shot "
                                           "differs from the batched ensemble")
            traced.outputs.append(text)
            traced.shots += args.shots
            tallies.append((violations, misses))
        steps = math.ceil(ramp.total_s / dt)
        shot_steps = traced.shots * steps
        ensemble_s = tracer.total("fluxsim.run_ensemble")
        batch1 = [s.seconds for s in tracer.spans if s.name == "fluxsim.simulate_shot"]
        traced.layer.update({
            "fluxsim.run_ensemble_s": ensemble_s,
            "fluxsim.shot_steps": shot_steps,
            "fluxsim.shot_step_us": ensemble_s / shot_steps * 1e6,
            "fluxsim.step_us_batch1": statistics.median(batch1) / steps * 1e6,
            "fluxsim.nor_violation_rate": sum(v for v, _ in tallies) / traced.shots,
            "fluxsim.clamp_miss_rate": sum(m for _, m in tallies) / traced.shots,
        })
        return traced


def _simulate(tracer: Tracer, layout, noise, ramp, dt, args, shots: int) -> list:
    """``simulate_shot`` for shots 0 .. shots-1, seeded as ``--trace`` seeds them."""
    singles = []
    for k in range(shots):
        with tracer.span("fluxsim.simulate_shot"):
            singles.append(fluxsim.simulate_shot(
                layout, replace(noise, seed=shot_seed(args.seed, k)),
                ramp=ramp, dt=dt, decimate=args.decimate))
    return singles


def _batch_mismatches(layout, noise, ramp, dt, args, result, singles) -> list[int]:
    """Shots whose ``simulate_shot`` state differs from their state in the
    batched ensemble (the seeding contract).  The ensemble reports counts
    only, so shot k's state is the difference between the counts of
    ensembles of the first k + 1 and the first k shots."""
    bad = []
    before: Counter = Counter()
    for k, single in enumerate(singles):
        if k + 1 < result.shots:
            upto = Counter(fluxsim.run_ensemble(layout, noise, ramp=ramp, n_shots=k + 1,
                                                master_seed=args.seed, dt=dt).counts)
        else:
            upto = Counter(result.counts)
        if upto - before != Counter([single.bits]):
            bad.append(k)
        before = upto
    return bad


class CircuitTrace(CircuitNor):
    """The README's waveform command, ``--clamp 1 --trace PATH``, at 2 shots."""

    name = "circuit-trace"
    CLAMPS = (1,)
    SHOTS = 2

    def commands(self, seed: int) -> list[Command]:
        cmds = super().commands(seed)
        path = str(OUT_DIR / f"trace-{seed}.csv")
        return [Command(c.argv + ["--trace", path], c.shots) for c in cmds]

    def _check_files(self, cmd: Command, counts, values, out: Checked) -> None:
        """The trace's last row per shot must read out the counted states."""
        path = cmd.argv[-1]
        if values.get("wrote") != [path]:
            out.fail(cmd.shots, "trace file not reported")
            return
        try:
            rows = read_trace_csv(path)
        except (OSError, ValueError) as exc:
            out.fail(cmd.shots, f"unreadable trace: {exc!r}")
            return
        per_shot, rest = divmod(len(rows), cmd.shots)
        finals = Counter(tuple(int(x > 0) for x in rows[(k + 1) * per_shot - 1][1:])
                         for k in range(cmd.shots)) if per_shot and not rest else None
        if finals != Counter(counts):
            out.fail(cmd.shots, "trace end states differ from the ensemble counts")


WORKLOADS = {w.name: w for w in (Factor(), Multiply(), CircuitNor(), CircuitTrace())}
