"""Penalty-model synthesis: find (h, J) whose ground manifold is a truth table.

Feasibility is linear: every valid vector must sit at a common energy e0
and every invalid one at least ``gap`` above it.  We maximize the
achievable gap by LP, then walk the coefficients one at a time onto a 1/4
grid, choosing the lexicographically smallest grid value that keeps the
remaining problem feasible at the best gap snapped down to the grid, or
as few grid steps below it as needed, down to ``gap``.  The grid pass
makes emitted models reproducible across platforms and LP solver builds.

The 6-qubit multiplier cell is this synthesis applied to
:func:`multiplier_unit_table`; :func:`mult_unit_gate` ships its result as a
constant, so building a multiplier solves no LP.  The LP stays as the
generator that pins the constant (see :func:`mult_unit_gate`).

``scipy.optimize`` is imported inside :func:`_solve`, the one place that
calls it.  It costs about half a second and tens of MB at start-up, and
only :func:`synthesize_penalty` needs it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gates import GateTemplate, TruthTable, check_manifold
from .ising import IsingModel, brute_force_ground, code_spins, state_codes

GRID = 0.25
_SNAP_EPS = 1e-6
_MAX_SYNTH_VARS = 10


class SynthesisError(ValueError):
    """Requested truth table is not realizable at the requested gap."""


@dataclass
class _Problem:
    n: int
    pairs: list[tuple[int, int]]
    a_valid: np.ndarray    # rows: [s_i ..., s_i s_j ...] for valid states
    a_invalid: np.ndarray
    bound: float

    @property
    def n_coeff(self) -> int:
        return self.n + len(self.pairs)


def _build_problem(table: TruthTable, bound: float) -> _Problem:
    """One LP row per state, in enumeration-code order."""
    n = table.n_vars
    i, j = np.triu_indices(n, 1)
    codes = np.arange(1 << n)
    s = code_spins(n, codes)
    rows = np.vstack([s, s[i] * s[j]]).T.astype(float)
    valid = np.isin(codes, state_codes(table.valid))
    return _Problem(n, list(zip(i.tolist(), j.tolist())), rows[valid], rows[~valid], bound)


def _solve(prob: _Problem, objective: np.ndarray, fixed: dict[int, float],
           target_gap: float | None):
    """LP over x = [h..., J..., e0] (+ trailing gap var when target is None).

    Valid rows are equalities against e0; invalid rows must clear e0 plus
    the gap (a fixed target, or the trailing variable being maximized).
    """
    from scipy.optimize import linprog

    nc = prob.n_coeff
    with_gapvar = target_gap is None
    big = prob.bound * nc + 1.0

    a_eq = np.hstack([prob.a_valid, -np.ones((prob.a_valid.shape[0], 1))])
    a_ub = np.hstack([-prob.a_invalid, np.ones((prob.a_invalid.shape[0], 1))])
    b_ub = np.zeros(a_ub.shape[0])
    if with_gapvar:
        a_eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))])
        a_ub = np.hstack([a_ub, np.ones((a_ub.shape[0], 1))])
    else:
        b_ub = b_ub - target_gap

    bounds = []
    for k in range(nc):
        if k in fixed:
            bounds.append((fixed[k], fixed[k]))
        else:
            bounds.append((-prob.bound, prob.bound))
    bounds.append((-big, big))  # e0
    if with_gapvar:
        bounds.append((0.0, 2 * big))

    res = linprog(
        objective, A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if a_ub.shape[0] else None,
        A_eq=a_eq, b_eq=np.zeros(a_eq.shape[0]),
        bounds=bounds, method="highs",
    )
    if not res.success:
        return None
    return res.x


def _count_short_constraints(prob: _Problem, x: np.ndarray, gap: float) -> int:
    if prob.a_invalid.shape[0] == 0:
        return 0
    energies = prob.a_invalid @ x[: prob.n_coeff]
    return int(np.sum(energies < x[prob.n_coeff] + gap - 1e-7))


def synthesize_penalty(
    table: TruthTable,
    gap: float,
    bound: float,
    ports: dict[str, int] | None = None,
) -> GateTemplate:
    """Synthesize a gate template realizing ``table`` with at least ``gap``,
    every coefficient within ``bound``, on the complete coupling graph.

    Raises :class:`SynthesisError` naming the number of separation
    constraints that cannot be met when the table is infeasible, or when
    no 1/4-grid model reaches ``gap``.
    """
    if table.n_vars > _MAX_SYNTH_VARS:
        raise ValueError(f"synthesis limited to {_MAX_SYNTH_VARS} variables")
    if gap <= 0:
        raise ValueError("target gap must be positive")
    if bound < gap / 2:
        raise ValueError("coefficient bound must be at least gap/2")

    prob = _build_problem(table, bound)

    # Maximize the gap.  Zero coefficients with e0 = 0 meet every constraint
    # at gap 0, so this LP always has a solution.
    obj = np.zeros(prob.n_coeff + 2)
    obj[-1] = -1.0
    best = _solve(prob, obj, {}, target_gap=None)
    best_gap = best[-1]
    if best_gap < gap - 1e-7:
        short = _count_short_constraints(prob, best, gap)
        raise SynthesisError(
            f"gap {gap} unreachable: {short} of "
            f"{prob.a_invalid.shape[0]} separation constraints fall short "
            f"(best achievable gap {best_gap:.6g})"
        )

    # Snap the enforced gap down to the grid, then lower it a grid step at a
    # time, down to the requested gap, until grid coefficients meet it.
    target = max(gap, np.floor(best_gap / GRID + _SNAP_EPS) * GRID)
    while (coeffs := _lex_grid_coefficients(prob, target)) is None:
        if target <= gap:
            raise SynthesisError(f"no 1/4-grid coefficients within bound {bound} reach gap {gap}")
        target = max(gap, target - GRID)

    h = tuple(coeffs[: prob.n])
    couplings = {p: c for p, c in zip(prob.pairs, coeffs[prob.n:]) if c != 0.0}
    model = IsingModel(prob.n, h, couplings)

    check = check_manifold(brute_force_ground(model), table.valid, None)
    if not check.passed:
        raise SynthesisError(
            f"synthesized model failed verification ({check.offending} offending states)"
        )
    return GateTemplate(model, ports or {}, tuple(sorted(table.valid)),
                        min(check.achieved_gap, target))


def _lex_grid_coefficients(prob: _Problem, target: float) -> list[float] | None:
    """Fix h then J coefficients, in index order, to the smallest 1/4-grid
    value that keeps the remaining LP feasible."""
    fixed: dict[int, float] = {}
    zero = np.zeros(prob.n_coeff + 1)
    for k in range(prob.n_coeff):
        obj = zero.copy()
        obj[k] = 1.0
        sol = _solve(prob, obj, fixed, target_gap=target)
        if sol is None:
            return None
        cand = np.ceil((sol[k] - _SNAP_EPS) / GRID) * GRID
        placed = False
        while cand <= prob.bound + 1e-9:
            trial = dict(fixed)
            trial[k] = float(cand)
            if _solve(prob, zero, trial, target_gap=target) is not None:
                fixed[k] = float(cand)
                placed = True
                break
            cand += GRID
        if not placed:
            return None
    return [fixed[k] + 0.0 for k in range(prob.n_coeff)]  # +0.0 folds -0.0


def multiplier_unit_table() -> TruthTable:
    """Legal states of the 6-qubit multiplier cell.

    Variables (a, b, c, d, carry, sum) with 2*carry + sum = a*b + c + d;
    one valid vector per (a, b, c, d), 16 in all.
    """
    rows = []
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        t = a * b + c + d
        rows.append((a, b, c, d, t // 2, t % 2))
    return TruthTable(6, tuple(rows))


MULT_UNIT_PORTS = {
    "in_a": 0, "in_b": 1, "in_c": 2, "in_d": 3, "out_carry": 4, "out_sum": 5,
}


def mult_unit_gate() -> GateTemplate:
    """The 6-qubit multiplier cell (complete coupling graph, gap 1).

    The coefficients are the result of ``synthesize_penalty(
    multiplier_unit_table(), gap=1.0, bound=2.0, ports=dict(MULT_UNIT_PORTS))``,
    written out on the 1/4 grid, so no caller pays for the LP or for
    importing SciPy.
    ``tests/test_synth.py::TestSynthesizedUnit::test_deterministic`` asserts
    that the whole template equals that synthesis result.
    """
    model = IsingModel(6, (-0.25, -0.25, -0.5, -0.5, 1.0, 0.5), {
        (0, 1): 0.25, (0, 2): 0.5, (0, 3): 0.5, (0, 4): -1.0, (0, 5): -0.5,
        (1, 2): 0.5, (1, 3): 0.5, (1, 4): -1.0, (1, 5): -0.5,
        (2, 3): 1.0, (2, 4): -2.0, (2, 5): -1.0,
        (3, 4): -2.0, (3, 5): -1.0,
        (4, 5): 2.0,
    })
    return GateTemplate(model, dict(MULT_UNIT_PORTS),
                        tuple(sorted(multiplier_unit_table().valid)), 1.0)
