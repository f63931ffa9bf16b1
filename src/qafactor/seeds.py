"""Deterministic per-shot seeds, and the shot-range runner built on them.

Shot k of a run with master seed m uses

    shot_seed(m, k) = splitmix64(m XOR (k * 0x9E3779B97F4A7C15 mod 2**64))

The golden-ratio multiply spreads the shot index over the 64-bit word and
splitmix64 (Steele, Lea & Flood's SplittableRandom finalizer) mixes the
result.  Identical (master seed, shot index) pairs therefore yield
identical shots regardless of worker count or execution order.

:func:`run_shot_ranges` is the one place that decides how the shots of
either solver run.  It cuts shots ``0 .. n_shots-1`` into contiguous
ranges, one per process (:func:`shot_ranges`), and each range into batches
whose per-shot working memory fits :data:`BATCH_BYTES`, whatever the shot
count.  Because every shot seeds itself from its index, the per-shot
results, returned in shot order, do not depend on the split.  One range
runs in the calling process; ``concurrent.futures`` is imported, and a
process pool started, only when there are two or more.  The annealing
commands of the CLI ask for :func:`default_workers` processes unless told
otherwise; ``circuit nor-inverse`` and the library functions default to one.
"""
from __future__ import annotations

import os

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Working-memory budget of one batch of shots, in bytes.
BATCH_BYTES = 16 << 20


def splitmix64(x: int) -> int:
    """One splitmix64 mixing step on a 64-bit word."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def shot_seed(master_seed: int, shot_index: int) -> int:
    """64-bit seed for one shot, stable under any degree of parallelism."""
    if shot_index < 0:
        raise ValueError("shot index must be >= 0")
    return splitmix64((master_seed & _MASK) ^ ((shot_index * _GOLDEN) & _MASK))


def shot_ranges(n_shots: int, workers: int, cpus: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` shot ranges, one per process to run.

    There are ``min(workers, n_shots, cpus)`` ranges, of sizes differing
    by at most one, covering ``0 .. n_shots-1`` in order.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    count = min(workers, n_shots, cpus)
    cuts = [n_shots * w // count for w in range(count + 1)]
    return list(zip(cuts, cuts[1:]))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_workers() -> int:
    """Worker count of the annealing commands when ``--workers`` is not given.

    Every usable CPU where a process pool starts by ``fork``, else 1: a
    spawned worker must first import NumPy and this package (about 0.2 s).
    The start method is read, never fixed.
    """
    import multiprocessing

    method = (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
    return _usable_cpus() if method == "fork" else 1


def batch_size(shot_bytes: int) -> int:
    """Shots per batch when one shot needs ``shot_bytes`` of working memory."""
    return max(1, BATCH_BYTES // shot_bytes)


def _run_range(batch, args: tuple, size: int, lo: int, hi: int) -> list:
    """``batch(*args, shots)`` over shots ``lo .. hi-1``, ``size`` at a time."""
    results: list = []
    for start in range(lo, hi, size):
        results += batch(*args, range(start, min(start + size, hi)))
    return results


def run_shot_ranges(batch, args: tuple, n_shots: int, workers: int,
                    shot_bytes: int) -> list:
    """``batch(*args, shots)`` over batches of the ranges of :func:`shot_ranges`.

    ``shots`` is a ``range`` of shot indices; ``batch`` returns one result
    per shot of it, in shot order, and must be picklable (a module-level
    function) when ``workers`` > 1.  A batch holds at most
    :func:`batch_size` shots.
    """
    ranges = shot_ranges(n_shots, workers, _usable_cpus())
    size = batch_size(shot_bytes)
    if len(ranges) == 1:
        return _run_range(batch, args, size, 0, n_shots)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        parts = [pool.submit(_run_range, batch, args, size, lo, hi) for lo, hi in ranges]
        return [r for part in parts for r in part.result()]
