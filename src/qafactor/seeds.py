"""Deterministic per-shot seeds, and the shot-batch runner built on them.

Shot k of a run with master seed m uses

    shot_seed(m, k) = splitmix64(m XOR (k * 0x9E3779B97F4A7C15 mod 2**64))

The golden-ratio multiply spreads the shot index over the 64-bit word and
splitmix64 (Steele, Lea & Flood's SplittableRandom finalizer) mixes the
result.  Identical (master seed, shot index) pairs therefore yield
identical shots regardless of worker count or execution order.

:func:`run_batches` is the one place that decides how the shots of
either solver run, and the one that seeds them: it cuts them lazily into
batches that fit :data:`BATCH_BYTES` (:func:`shot_batches`), hands each
batch its shots' seeds and yields the results in shot order.  Each solver
has one public iterator over it, ``anneal.anneal_batches`` and
``fluxsim.ensemble_batches``, and the commands fold each batch as it
arrives and drops it, so memory does not grow with the shot count.  A
solver's per-shot bytes count what a shot holds in its batch: its seed's
``Generator`` (:data:`GENERATOR_BYTES`), its working arrays and, in a
traced circuit batch, its recorded rows.  A process pool is started
(``concurrent.futures`` imported) only for two or more processes: the
CLI's four shot commands ask for :func:`default_workers`, the library
functions for one.
"""
from __future__ import annotations

import os
from typing import Iterator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Working-memory budget of one batch of shots, in bytes.
BATCH_BYTES = 16 << 20
#: Per-shot bytes of a seed and its ``Generator`` (RSS 40 + 941 B, NumPy 2.4 x86).
GENERATOR_BYTES = 1 << 10


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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_workers() -> int:
    """Worker count of the CLI's shot commands when ``--workers`` is not given.

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


def shot_batches(n_shots: int, workers: int, shot_bytes: int) -> range:
    """The first shot of each batch of a run, in shot order, cut lazily.

    The returned range's step is the batch size: the smaller of
    :func:`batch_size` and ceil(``n_shots`` / processes), where processes
    is ``workers`` capped at the usable CPUs.  The last batch may be shorter.
    """
    if n_shots < 1 or workers < 1:
        raise ValueError(f"n_shots and workers must be >= 1, got {n_shots} and {workers}")
    processes = min(workers, _usable_cpus())
    return range(0, n_shots, min(batch_size(shot_bytes), -(-n_shots // processes)))


def run_batches(batch, args: tuple, n_shots: int, master_seed: int, workers: int,
                shot_bytes: int) -> Iterator[list]:
    """Yield ``batch(*args, seeds)`` for each batch of :func:`shot_batches`
    in shot order, ``seeds`` listing ``shot_seed(master_seed, k)`` per shot k.

    A pool (``batch`` must then pickle) holds at most one batch per process,
    the one being yielded included, and cancels the queued ones when a batch
    raises or the caller stops iterating.
    """
    starts = shot_batches(n_shots, workers, shot_bytes)
    batches = ([shot_seed(master_seed, k) for k in range(lo, min(lo + starts.step, n_shots))]
               for lo in starts)
    processes = min(workers, _usable_cpus(), -(-n_shots // starts.step))
    if processes == 1:
        yield from (batch(*args, seeds) for seeds in batches)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=processes) as pool:
        pending = []
        try:
            for seeds in batches:
                pending.append(pool.submit(batch, *args, seeds))
                if len(pending) >= processes:
                    yield pending.pop(0).result()
            while pending:
                yield pending.pop(0).result()
        finally:
            for future in pending:
                future.cancel()
