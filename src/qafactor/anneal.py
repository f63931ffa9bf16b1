"""Classical simulated annealing with deterministic seeded shots.

One shot is sequential single-spin-flip Metropolis in colour-major order.
The interaction graph is coloured greedily in spin-index order, so no two
coupled spins share a colour.  Every sweep visits colour class 0, then
class 1, and so on, each class in index order.  Spins of one class are not
coupled to each other, so flipping a whole class at once is the same as
visiting its spins one by one.

:func:`anneal_batches` is batched: all shots of a batch advance together, one
colour class per step.  With ``d = -2 s``, the change a flip makes to each
spin, a class step computes dE = d * field, marks ``accept`` where dE is at
most the limit, sets ``moved = d * accept`` (d, or +-0.0 where rejected)
and subtracts ``moved`` from d twice, which flips exactly the accepted
spins without a masked ufunc.  Local fields then follow the step through
the product of the class's couplings with ``moved``: a column range of the
one coupling matrix, through SciPy's compiled CSC kernel.  Every step
writes with ``out=`` into arrays allocated, and sliced per class, once per
batch.  The limits -T ln u are held one sweep at a time in one (spins,
shots) buffer.  The shot runner (:func:`qafactor.seeds.run_batches`) fits
each batch in :data:`qafactor.seeds.BATCH_BYTES` (:func:`_shot_bytes` per
shot); a batch returns two arrays, final states and energies, which a
:class:`RunSummary` folds as they arrive.  :func:`anneal_shot` is the scalar
reference loop over the same order, and the faster path for one shot.

A proposed flip with energy change dE is accepted when dE <= -T ln u,
which is the Metropolis rule u <= exp(-dE/T).  Both paths compute the
limit -T ln u with the same NumPy call, and both accumulate field changes
in the same order, so they agree bit for bit.  Both score their final
states with :func:`qafactor.ising.energies`, the package's one energy sum.

Seeding contract: the shot runner (:mod:`qafactor.seeds`) hands shot k
the seed ``shot_seed(master_seed, k)``, and the shot draws from its own
``PCG64`` stream of that seed: first ``integers(0, 2, n)`` for the start
state (bit 1 is spin +1), then one uniform per (sweep, spin index),
sweep-major and in spin-index order whatever the visiting order.  The
uniforms and temperatures are taken :data:`SWEEP_BLOCK` sweeps at a time.
A shot's result therefore depends only on the model, the schedule and its
seed: shot k of ``anneal_batches(...)`` equals ``anneal_shot(model,
schedule, shot_seed(master_seed, k), k)`` for any batch size or worker count.

Of SciPy only the compiled CSC kernel ``csc_matvecs`` is used, loaded from
its extension file on first use by :func:`_sparsetools`.  Importing
``scipy.sparse`` for it would cost 0.22-0.33 s and 21 MB at start-up on a
2-core x86 machine (NumPy already loaded); the file alone costs about 1 ms
and 0.16 MB, and the commands that load this module without annealing
never load it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from itertools import count, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .ising import GROUND_TOL, IsingModel, bit_strings, energies
from .seeds import GENERATOR_BYTES, batch_size, run_batches

GEOMETRIC = "geometric"
LINEAR = "linear"

#: Sweeps of uniforms drawn from a shot's stream at a time.
SWEEP_BLOCK = 8

#: Most flip attempts one :func:`anneal_batches` run may be charged, sweeps x
#: (batches x SWEEP_OVERHEAD + shots x (spins + SHOT_OVERHEAD)): 4 to 5
#: CPU-hours at the 56-70 M attempts/s of a 4x4 or 8x8 batch on a 2-core
#: x86 machine.
MAX_FLIP_ATTEMPTS = 10**12
#: Attempts charged per batch and sweep, whatever its size: a one-spin,
#: one-shot sweep takes 9-18.5 us on 2-core x86 machines, 650-1,200
#: attempts at the 65-70 M/s of a 200-shot 4x4 batch.
SWEEP_OVERHEAD = 1000
#: Attempts charged per shot and sweep on top of its spins: a shot more in
#: a 200- or 2,000-shot batch of 1 to 8 spins costs 0.11-0.27 us per sweep
#: on a 2-core x86 machine, 6-13 attempts more than its spins at 70 M/s.
SHOT_OVERHEAD = 16

#: Largest allowed gap between incrementally tracked and recomputed values.
DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class Schedule:
    """Temperature ramp in units of the model energy.

    Defaults anneal every shipped gate model to ground with near
    certainty at desk scale; all of them are CLI-overridable.
    """

    kind: str = GEOMETRIC
    t_hot: float = 3.0
    t_cold: float = 0.05
    sweeps: int = 2000

    def __post_init__(self):
        if self.kind not in (GEOMETRIC, LINEAR):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (math.isfinite(self.t_hot) and self.t_hot >= self.t_cold > 0):
            raise ValueError("require finite t_hot >= t_cold > 0")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        # Finite end points can still round to 0 along the way, as geometric
        # 1e200 -> 1e-200 over 3 sweeps does (ratio 0.0).  Both ramps are
        # monotone and never exceed t_hot, so the sweeps that fail are a
        # suffix, found in O(log sweeps) steps: sweep 0 is t_hot or t_cold.
        at = self._temperature()
        if not 0.0 < at(self.sweeps - 1) < math.inf:
            ok, bad = 0, self.sweeps - 1
            while bad - ok > 1:
                mid = (ok + bad) // 2
                if 0.0 < at(mid) < math.inf:
                    ok = mid
                else:
                    bad = mid
            raise ValueError(
                f"t_hot {self.t_hot!r} to t_cold {self.t_cold!r} over {self.sweeps} "
                f"sweeps gives temperature {at(bad)!r} at sweep {bad}; each must be finite and > 0")

    def _temperature(self) -> Callable[[int], float]:
        """Sweep index to temperature: the one formula :meth:`temperatures` streams."""
        t_hot, sweeps = self.t_hot, self.sweeps
        if sweeps == 1:
            return lambda k: self.t_cold
        if self.kind == GEOMETRIC:
            ratio = (self.t_cold / t_hot) ** (1.0 / (sweeps - 1))
            return lambda k: t_hot * ratio**k
        step = (self.t_cold - t_hot) / (sweeps - 1)
        return lambda k: t_hot + step * k

    def temperatures(self) -> Iterator[float]:
        """One temperature per sweep, streamed: nothing holds them all."""
        return map(self._temperature(), range(self.sweeps))


@dataclass(frozen=True)
class ShotResult:
    state: tuple[int, ...]
    energy: float
    index: int


@dataclass
class RunSummary:
    """The counts of a run, folded batch by batch (:meth:`add`).  ``ground_hits``:
    how many shots reached ``reference_e0`` within :data:`GROUND_TOL`, ``None``
    without one; ``histogram``: shots per final state's bit string (spin 0
    first), ``None`` when not counted."""

    shots: int = 0
    best_energy: float = math.inf
    reference_e0: float | None = None
    ground_hits: int | None = None
    histogram: dict[str, int] | None = field(default_factory=dict)

    def __post_init__(self):
        if self.reference_e0 is not None and not math.isfinite(self.reference_e0):
            raise ValueError(f"reference energy must be finite, got {self.reference_e0!r}")

    def add(self, states: np.ndarray, energy: np.ndarray) -> np.ndarray | None:
        """Fold in one batch, int8 final states a row each and their
        energies; return its ground labels, ``None`` without a reference."""
        self.shots += len(energy)
        self.best_energy = min(self.best_energy, float(energy.min()))
        if self.histogram is not None:
            for row, times in zip(*np.unique(bit_strings(states), return_counts=True)):
                key = row.decode()
                self.histogram[key] = self.histogram.get(key, 0) + int(times)
        if self.reference_e0 is None:
            return None
        labels = energy <= self.reference_e0 + GROUND_TOL
        self.ground_hits = (self.ground_hits or 0) + int(np.count_nonzero(labels))
        return labels

    @property
    def ground_hit_rate(self) -> float | None:
        return None if self.ground_hits is None else self.ground_hits / self.shots

    def to_text(self) -> str:
        """Line-oriented key-value rendering; byte-stable for fixed inputs."""
        lines = [f"shots {self.shots}", f"best_energy {self.best_energy!r}"]
        if self.reference_e0 is not None:
            lines.append(f"reference_e0 {self.reference_e0!r}")
            lines.append(f"ground_hits {self.ground_hits}")
            lines.append(f"ground_hit_rate {self.ground_hit_rate!r}")
        lines.append(f"outcomes {len(self.histogram)}")
        for key, count in sorted(self.histogram.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"count {key} {count}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _SweepPlan:
    """A model laid out in colour-major visiting order.

    Position p holds spin ``order[p]``; colour class c occupies positions
    ``bounds[c]:bounds[c + 1]``.  ``couplings`` holds the symmetric coupling
    matrix as CSR arrays, so they are also its CSC arrays: class c's
    couplings are columns ``bounds[c]:bounds[c + 1]``, rows in ascending order.
    """

    order: np.ndarray
    bias: np.ndarray
    couplings: tuple[np.ndarray, np.ndarray, np.ndarray]  # indptr, indices, data
    bounds: tuple[int, ...]


@cache
def _sparsetools():
    """SciPy's compiled sparse kernels, loaded from their extension file alone.

    Neither ``scipy/__init__`` nor ``scipy/sparse/__init__`` runs.  CPython
    lists the module in ``sys.modules`` under its own name, where a later
    ``import scipy.sparse`` finds it.
    """
    scipy = find_spec("scipy")  # imports nothing
    where = os.path.join(scipy.submodule_search_locations[0] if scipy else "scipy", "sparse")
    finder = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    if (spec := finder.find_spec("scipy.sparse._sparsetools")) is None:
        raise ImportError(f"no SciPy _sparsetools extension in {where}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_plan(model: IsingModel) -> _SweepPlan:
    n = model.n
    if n < 1:
        raise ValueError("annealing needs at least one spin")
    earlier: list[list[int]] = [[] for _ in range(n)]
    for i, j in model.couplings:
        earlier[j].append(i)
    colour: list[int] = []
    for i in range(n):
        taken = {colour[j] for j in earlier[i]}
        colour.append(min(set(range(len(taken) + 1)) - taken))
    order = np.array(sorted(range(n), key=lambda i: (colour[i], i)), dtype=np.intp)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)

    pairs = np.array(list(model.couplings), dtype=np.intp).reshape(-1, 2)
    values = np.array(list(model.couplings.values()), dtype=float)
    rows = position[np.concatenate([pairs[:, 0], pairs[:, 1]])]
    cols = position[np.concatenate([pairs[:, 1], pairs[:, 0]])]
    key = np.lexsort((cols, rows))
    couplings = (np.searchsorted(rows[key], np.arange(n + 1)), cols[key],
                 np.concatenate([values, values])[key])
    return _SweepPlan(order, np.asarray(model.h, dtype=float)[order], couplings,
                      tuple(np.cumsum([0, *np.bincount(colour)]).tolist()))


def _fields(plan: _SweepPlan, spins: np.ndarray) -> np.ndarray:
    """Local fields h + J s of a (positions, shots) float spin array; each
    row of J s starts at 0.0 and adds its entries in column order."""
    n, shots = spins.shape
    if n != len(plan.bias):
        raise ValueError(f"{n} spin rows for a {len(plan.bias)}-spin plan")
    sums = np.zeros((n, shots))
    _sparsetools().csc_matvecs(n, n, shots, *plan.couplings, spins.ravel(), sums.reshape(-1))
    return plan.bias[:, None] + sums


def _flip_limits(rngs, order: np.ndarray, temps: Iterable[float], out: np.ndarray):
    """Fill ``out``, sweep by sweep, with the limits -T ln u of every stream.

    ``out`` has shape (positions, shots), and a flip at that position is
    accepted when its dE is at most the limit.  It is yielded once per
    sweep and overwritten by the next.
    """
    n = len(order)
    uniforms = np.empty((len(rngs), SWEEP_BLOCK * n))
    temps = iter(temps)
    while block := list(islice(temps, SWEEP_BLOCK)):
        drawn = uniforms[:, :len(block) * n]
        for row, rng in zip(drawn, rngs):
            rng.random(out=row)
        with np.errstate(divide="ignore"):
            np.log(drawn, out=drawn)
        by_sweep = drawn.reshape(len(rngs), len(block), n).transpose(1, 2, 0)
        for logs, t in zip(by_sweep, block):
            # "clip" never clips a valid order; the default "raise" would
            # write through a buffered copy of out.
            np.take(logs, order, axis=0, out=out, mode="clip")
            np.multiply(out, -t, out=out)
            yield out


def _shot_bytes(n: int) -> int:
    """Working memory of one shot of an ``n``-spin batch: its generator, its
    uniforms, its limits, delta, fields and moved (float64), accept (bool)."""
    return GENERATOR_BYTES + 8 * n * (SWEEP_BLOCK + 4) + n


def anneal_shot(model: IsingModel, schedule: Schedule, seed: int, index: int = 0) -> ShotResult:
    """Run one shot from a random +-1 start drawn from ``seed``.

    The scalar reference for :func:`anneal_batches`.  One uniform is consumed
    per flip attempt whatever the outcome, which keeps the stream position
    independent of the trajectory.
    """
    plan = _sweep_plan(model)
    n = model.n
    rng = np.random.Generator(np.random.PCG64(seed))
    state = [1 if b else -1 for b in rng.integers(0, 2, n)]
    at_position = _fields(plan, np.array(state, dtype=float)[plan.order, None])[:, 0]
    fields = at_position[np.argsort(plan.order)].tolist()
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), v in model.couplings.items():
        nbrs[i].append((j, v))
        nbrs[j].append((i, v))
    start, moved = tuple(state), 0.0

    visit = plan.order.tolist()
    limits = np.empty((n, 1))
    for _ in _flip_limits([rng], plan.order, schedule.temperatures(), limits):
        for i, limit in zip(visit, limits[:, 0].tolist()):
            si = state[i]
            de = -2.0 * si * fields[i]
            if de <= limit:
                state[i] = -si
                moved += de
                shift = -2.0 * si
                for j, v in nbrs[i]:
                    fields[j] += v * shift

    final = tuple(state)
    begin, exact = energies(model, np.array([start, final]).T).tolist()
    if abs(exact - (begin + moved)) > DRIFT_TOL:
        raise ArithmeticError(
            f"incremental energy drifted: tracked {begin + moved!r} vs exact {exact!r}"
        )
    return ShotResult(final, exact, index)


def _anneal_batch(model: IsingModel, plan: _SweepPlan, schedule: Schedule,
                  seeds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """One shot per seed, advanced together: final int8 states, a row each, and energies."""
    # SciPy's CSC kernel, y += A @ x in place over a class's columns, adds
    # each row's entries into y one by one in column order.  That is the
    # order in which the scalar loop applies flips, so the two paths round
    # alike; summing a row first and adding the total would not.
    csc_matvecs = _sparsetools().csc_matvecs
    indptr, cols, data = plan.couplings
    n, shots = model.n, len(seeds)
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    bits = np.array([rng.integers(0, 2, n) for rng in rngs])
    # delta = -2 s: the change a flip makes to each spin.
    delta = 2.0 - 4.0 * bits.T[plan.order]
    fields = _fields(plan, -0.5 * delta)
    flat_fields = fields.reshape(-1)
    limits = np.empty((n, shots))
    moved = np.empty((n, shots))
    accept = np.empty((n, shots), dtype=bool)
    steps = [(delta[lo:hi], fields[lo:hi], limits[lo:hi], accept[lo:hi], moved[lo:hi],
              moved[lo:hi].reshape(-1), hi - lo, indptr[lo:hi + 1])
             for lo, hi in zip(plan.bounds, plan.bounds[1:])]

    for _ in _flip_limits(rngs, plan.order, schedule.temperatures(), limits):
        for d, f, lim, acc, mv, flat_mv, size, class_ptr in steps:
            # mv holds dE = d f, then moved: d where accepted, else +-0.0.
            # d - 2 moved flips exactly the accepted spins.
            np.multiply(d, f, out=mv)
            np.less_equal(mv, lim, out=acc)
            np.multiply(d, acc, out=mv)
            np.subtract(d, mv, out=d)
            np.subtract(d, mv, out=d)
            csc_matvecs(n, size, shots, class_ptr, cols, data, flat_mv, flat_fields)

    spins = -0.5 * delta
    drift = float(np.max(np.abs(fields - _fields(plan, spins))))
    if drift > DRIFT_TOL:
        raise ArithmeticError(f"incremental local fields drifted by {drift!r}")
    final = np.empty((shots, n), dtype=np.int8)
    final[:, plan.order] = spins.T
    return final, energies(model, final.T)


def check_flip_cap(n_spins: int, schedule: Schedule, n_shots: int) -> None:
    """Refuse with ValueError a run of ``n_shots`` shots of ``n_spins`` spins
    charged more than :data:`MAX_FLIP_ATTEMPTS`.  :func:`anneal_batches`
    calls it before any shot; a caller with costly work to do first, such as
    an exact reference energy, calls it before that work."""
    batches = -(-n_shots // batch_size(_shot_bytes(n_spins)))
    flips = schedule.sweeps * (batches * SWEEP_OVERHEAD + n_shots * (n_spins + SHOT_OVERHEAD))
    if flips > MAX_FLIP_ATTEMPTS:
        raise ValueError(f"{schedule.sweeps} sweeps x ({SWEEP_OVERHEAD} per batch x {batches} "
                         f"+ {n_shots} shots x ({n_spins} spins + {SHOT_OVERHEAD})) is "
                         f"{flips:.3g} flip attempts, more than the {MAX_FLIP_ATTEMPTS:.0e} allowed")


def anneal_batches(model: IsingModel, schedule: Schedule, n_shots: int, master_seed: int,
                   workers: int = 1) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A run's batches in shot order, each its final states (int8, a row per
    shot) and energies.  The sweep plan is built, and a run that
    :func:`check_flip_cap` refuses raises ValueError, when this is called."""
    plan = _sweep_plan(model)
    check_flip_cap(model.n, schedule, n_shots)
    return run_batches(_anneal_batch, (model, plan, schedule), n_shots, master_seed, workers,
                       _shot_bytes(model.n))


def run_shots(model: IsingModel, schedule: Schedule, n_shots: int, master_seed: int,
              reference_e0: float | None = None, workers: int = 1, keep_shots: bool = False):
    """The :class:`RunSummary` of :func:`anneal_batches`, or ``(summary,
    shots)`` when ``keep_shots`` is set: one :class:`ShotResult` per shot,
    in shot order."""
    summary = RunSummary(reference_e0=reference_e0)
    kept: list[ShotResult] = []
    for states, energy in anneal_batches(model, schedule, n_shots, master_seed, workers):
        if keep_shots:
            kept += map(ShotResult, map(tuple, states.tolist()), energy.tolist(),
                        count(summary.shots))
        summary.add(states, energy)
    return (summary, kept) if keep_shots else summary
