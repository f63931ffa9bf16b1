"""Ising spin models over {-1,+1}: energy, clamping, exact ground-state search.

Energy convention, fixed once for the whole package:

    H(s) = sum_i h[i] * s[i]  +  sum_{i<j} J[(i,j)] * s[i] * s[j]

Each unordered pair is counted exactly once.  One kernel, :func:`energies`,
sums it for every state the package scores, in one order, so a state has
one energy float wherever it is computed.  Bits map to spins as 1 <-> +1
and 0 <-> -1.  Spin indices are 0-based everywhere, including the text
model format; circuit diagrams in the literature usually number qubits
from 1, so Q_k corresponds to spin index k-1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

#: Absolute tolerance for deciding energy degeneracy.  Coefficients in this
#: package are small rationals, so floating error sits far below this.
GROUND_TOL = 1e-9

#: Default spin-count cap for exhaustive enumeration.  Both passes over
#: 2**26 states took 19.4 s (26 spins, 48 couplings, 2-core x86-64
#: machine): about 6.9 M states/s per pass.
BRUTE_FORCE_CAP = 26

#: Largest cap a command line may ask for.  Both passes over 2**30 states
#: take about 5 minutes at that rate; a chained 2x2 multiplier has 28
#: spins.  Int64 enumeration codes overflow past 62 spins.
MAX_BRUTE_FORCE_CAP = 30

SpinState = tuple[int, ...]


class DimensionError(ValueError):
    """State length does not match the model's spin count."""


class SizeCapError(ValueError):
    """Model exceeds the exhaustive-enumeration cap."""


def _canonical_couplings(n: int, couplings) -> dict[tuple[int, int], float]:
    out: dict[tuple[int, int], float] = {}
    for key, value in dict(couplings).items():
        i, j = key
        if i == j:
            raise ValueError(f"self-coupling ({i},{i}) not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"coupling ({i},{j}) out of range for n={n}")
        if i > j:
            i, j = j, i
        if (i, j) in out:
            raise ValueError(f"duplicate coupling for pair ({i},{j})")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite coupling for pair ({i},{j})")
        out[(i, j)] = value
    return out


@dataclass(frozen=True)
class IsingModel:
    """Biases ``h`` and pairwise couplings ``couplings`` over ``n`` spins.

    Treat instances as immutable: the couplings dict is canonicalized
    (keys with i < j) at construction and must not be mutated afterwards.
    """

    n: int
    h: tuple[float, ...]
    couplings: dict[tuple[int, int], float]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("spin count must be >= 0")
        h = tuple(float(x) for x in self.h)
        if len(h) != self.n:
            raise DimensionError(f"expected {self.n} biases, got {len(h)}")
        if not all(math.isfinite(x) for x in h):
            raise ValueError("non-finite bias")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "couplings", _canonical_couplings(self.n, self.couplings))


def energies(model: IsingModel, spins: np.ndarray) -> np.ndarray:
    """H of each column of a qubit-major (n, k) array of +-1 integers (not
    checked): from 0.0, the nonzero biases in index order, then the nonzero
    couplings in ``model.couplings`` order, each as ``v * (s_i * s_j)``."""
    if spins.shape[0] != model.n:
        raise DimensionError(f"spin array has {spins.shape[0]} rows, model has {model.n} spins")
    e = np.zeros(spins.shape[1])
    for i, hv in enumerate(model.h):
        if hv != 0.0:
            e += hv * spins[i]
    for (i, j), v in model.couplings.items():
        if v != 0.0:
            e += v * (spins[i] * spins[j])
    return e


def bit_strings(states: np.ndarray) -> np.ndarray:
    """The rows of any (k, n) array of +-1 as bit strings, spin 0 first and
    bit 1 for +1: one ASCII byte string per row, a (k,) ``S{n}`` array
    (``S1`` of empty strings when n = 0, as NumPy has no ``S0``)."""
    k, n = states.shape
    text = np.zeros((k, max(n, 1)), dtype=np.uint8)
    text[:, :n] = states > 0
    text[:, :n] += ord("0")
    return text.view(f"S{max(n, 1)}")[:, 0]


def _check_clamps(n: int, clamps: Mapping[int, int]) -> dict[int, int]:
    out = {}
    for idx, bit in clamps.items():
        idx = int(idx)
        if not 0 <= idx < n:
            raise ValueError(f"clamp index {idx} out of range for n={n}")
        if bit not in (0, 1):
            raise ValueError(f"clamp value must be a bit, got {bit!r}")
        out[idx] = int(bit)
    return out


def clamp_fold(model: IsingModel, clamps: Mapping[int, int]) -> tuple[IsingModel, float]:
    """Fold clamped spins out of the model algebraically.

    Returns ``(reduced, offset)`` such that for every assignment ``free``
    of the free spins, H_reduced(free) + offset = H_model(merged), where
    ``merged`` is ``free`` with the clamped bits spliced back in (see
    :func:`merge_spins`).  Free spins keep their relative order.
    """
    clamps = _check_clamps(model.n, clamps)
    if not clamps:
        return model, 0.0
    sigma = {i: (1 if b else -1) for i, b in clamps.items()}
    keep = [i for i in range(model.n) if i not in clamps]
    remap = {old: new for new, old in enumerate(keep)}
    offset = 0.0
    h2 = [model.h[i] for i in keep]
    for i, s in sigma.items():
        offset += model.h[i] * s
    j2: dict[tuple[int, int], float] = {}
    for (i, j), v in model.couplings.items():
        ci, cj = i in sigma, j in sigma
        if ci and cj:
            offset += v * sigma[i] * sigma[j]
        elif ci:
            h2[remap[j]] += v * sigma[i]
        elif cj:
            h2[remap[i]] += v * sigma[j]
        else:
            j2[(remap[i], remap[j])] = v
    return IsingModel(len(keep), tuple(h2), j2), offset


def free_indices(n: int, clamps: Mapping[int, int]) -> tuple[int, ...]:
    """Original indices of the free spins of a fold, in reduced order."""
    return tuple(i for i in range(n) if i not in clamps)


def merge_spins(n: int, clamps: Mapping[int, int], free_state: Sequence[int]) -> SpinState:
    """Splice a reduced state and the clamped bits back into a full state."""
    clamps = _check_clamps(n, clamps)
    keep = free_indices(n, clamps)
    if len(free_state) != len(keep):
        raise DimensionError(
            f"free state has {len(free_state)} spins, expected {len(keep)}"
        )
    full = [0] * n
    for i, b in clamps.items():
        full[i] = 1 if b else -1
    for idx, s in zip(keep, free_state):
        full[idx] = int(s)
    return tuple(full)


def code_spins(n: int, codes: np.ndarray) -> np.ndarray:
    """The (n, k) int8 +-1 spins of k enumeration codes.  Spin 0 is a code's
    most significant bit, so ascending codes list the states in bit-string
    order, spin 0 first."""
    codes = np.asarray(codes, dtype=np.int64)
    spins = np.empty((n, codes.size), dtype=np.int8)
    for i, row in enumerate(spins):
        row[:] = (codes >> (n - 1 - i)) & 1
    spins *= 2
    spins -= 1
    return spins


def state_codes(rows) -> np.ndarray:
    """The int64 enumeration codes of a (k, n) array of bits or of +-1 spins,
    a row each: the inverse of :func:`code_spins`."""
    bits = np.asarray(rows) > 0
    return bits @ (np.int64(1) << np.arange(bits.shape[1] - 1, -1, -1, dtype=np.int64))


#: log2 of the codes per chunk of :func:`code_energies`, sized to stay in cache.
_CHUNK_BITS = 16


def code_energies(model: IsingModel) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(codes, energies)``: H at every enumeration code 0..2**n-1 in
    ascending order, 2**_CHUNK_BITS codes at a time to bound memory."""
    n = model.n
    chunk = 1 << min(_CHUNK_BITS, n)
    for start in range(0, 1 << n, chunk):
        codes = np.arange(start, start + chunk, dtype=np.int64)
        yield codes, energies(model, code_spins(n, codes))


@dataclass(frozen=True, eq=False)
class GroundReport:
    """Exhaustive ground-state search result over ``n`` spins.

    ``codes`` holds every ground state as its enumeration code
    (:func:`code_spins`), an ascending int64 array, 8 bytes per state;
    ``states`` decodes them to spin tuples in that order.
    ``gap`` is the distance from e0 to the first level above the
    degeneracy tolerance, ``inf`` when every state is ground.
    """

    n: int
    e0: float
    codes: np.ndarray
    gap: float

    @property
    def degeneracy(self) -> int:
        return len(self.codes)

    @property
    def states(self) -> tuple[SpinState, ...]:
        return tuple(map(tuple, code_spins(self.n, self.codes).T.tolist()))


def _floor(e: np.ndarray) -> tuple[float, int]:
    """A chunk's lowest energy, and its states within GROUND_TOL of it."""
    low = float(e.min())
    return low, int(np.count_nonzero(e <= low + GROUND_TOL))


def brute_force_ground(model: IsingModel, cap: int = BRUTE_FORCE_CAP) -> GroundReport:
    """Enumerate all 2**n states; exact e0, every ground code, and gap.

    The enumeration is processed in chunks (:func:`code_energies`);
    results do not depend on the chunk size.
    """
    if model.n > cap:
        raise SizeCapError(f"n={model.n} exceeds enumeration cap {cap}")

    # First pass: e0, and the ground codes' count, bounded from above by
    # each chunk's count of states within the tolerance of its own minimum.
    floors = [_floor(e) for _, e in code_energies(model)]
    e0 = min(low for low, _ in floors)
    size = sum(count for low, count in floors if low <= e0 + GROUND_TOL)

    # Second pass: every ground code, written once into one array.
    ground = np.empty(size, dtype=np.int64)
    filled = 0
    e1 = math.inf
    for codes, e in code_energies(model):
        mask = e <= e0 + GROUND_TOL
        k = int(np.count_nonzero(mask))
        ground[filled:filled + k] = codes[mask]
        filled += k
        e1 = min(e1, float(np.min(e, where=~mask, initial=math.inf)))
    gap = math.inf if math.isinf(e1) else e1 - e0
    return GroundReport(model.n, e0, ground[:filled], gap)
