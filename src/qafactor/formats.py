"""Every file format of the package: writers turn objects into text, parsers
turn text into objects, and the CLI opens the files.

Model files hold ``n <count>`` first, then ``h <i> <v>`` and ``J <i> <j> <v>``
lines (0-based, i < j; written sorted, read in any order).  Gate sidecars
hold ``port <name> <spin>``, ``valid <bits...>`` and ``gap <value>`` lines,
network sidecars ``role <A|B|P> <bit> <spin>`` lines.  Both text formats
take ``#`` comments.  Both parsers refuse a bad line through one handler,
which raises :class:`ModelFormatError` with the line's 1-based number and
quotes the line.  The shot and trace logs are CSV.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

from .ising import IsingModel, bit_strings

if TYPE_CHECKING:
    from .gates import GateTemplate
    from .multiplier import MultiplierNetwork

#: Largest spin count a model file may declare.  The parser allocates one
#: bias per spin up front, so this bounds what a one-line file can make it
#: allocate to a few MiB; a 12x12 multiplier has under a thousand spins.
MAX_MODEL_SPINS = 1 << 20


class ModelFormatError(ValueError):
    """Malformed model text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _directives(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, tokens) of every line of ``text`` that holds more
    than a ``#`` comment; the line is stripped of its comment and of
    surrounding whitespace."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, line.split()


def format_model(model: IsingModel) -> str:
    lines = [f"n {model.n}"]
    for i, hv in enumerate(model.h):
        if hv != 0.0:
            lines.append(f"h {i} {hv!r}")
    for (i, j) in sorted(model.couplings):
        lines.append(f"J {i} {j} {model.couplings[(i, j)]!r}")
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> IsingModel:
    n: int | None = None
    h: list[float] = []
    seen_h: set[int] = set()
    couplings: dict[tuple[int, int], float] = {}
    for lineno, line, tokens in _directives(text):
        kind = tokens[0]
        try:
            if kind in ("h", "J") and n is None:
                raise ValueError(f"{kind!r} line before 'n'")
            if kind == "n" and len(tokens) == 2:
                if n is not None:
                    raise ValueError("duplicate 'n' line")
                n = int(tokens[1])
                if not 0 <= n <= MAX_MODEL_SPINS:
                    raise ValueError(f"spin count must be in 0..{MAX_MODEL_SPINS}")
                h = [0.0] * n
            elif kind == "h" and len(tokens) == 3:
                i, value = int(tokens[1]), float(tokens[2])
                if not 0 <= i < n:
                    raise ValueError(f"spin index {i} out of range")
                if i in seen_h:
                    raise ValueError(f"duplicate bias for spin {i}")
                if not math.isfinite(value):
                    raise ValueError("non-finite bias")
                seen_h.add(i)
                h[i] = value
            elif kind == "J" and len(tokens) == 4:
                i, j, value = int(tokens[1]), int(tokens[2]), float(tokens[3])
                if not 0 <= i < j < n:
                    raise ValueError(f"coupling ({i},{j}) needs 0 <= i < j < {n}")
                if (i, j) in couplings:
                    raise ValueError(f"duplicate coupling ({i},{j})")
                if not math.isfinite(value):
                    raise ValueError("non-finite coupling")
                couplings[(i, j)] = value
            else:
                raise ValueError("expected 'n <count>', 'h <i> <value>' or 'J <i> <j> <value>'")
        except ValueError as exc:
            raise ModelFormatError(f"bad model line {line!r}: {exc}", lineno) from None
    if n is None:
        raise ModelFormatError("missing 'n' line")
    return IsingModel(n, tuple(h), couplings)


def format_ports(template: GateTemplate) -> str:
    lines = [f"port {name} {idx}" for name, idx in sorted(template.ports.items())]
    for bits in template.valid_set:
        lines.append("valid " + " ".join(str(b) for b in bits))
    lines.append(f"gap {template.gap!r}")
    return "\n".join(lines) + "\n"


def parse_ports(text: str, n: int):
    """Ports, valid set and gap of a sidecar written for an ``n``-spin model.

    A ``valid`` line must hold exactly ``n`` values, each 0 or 1, and no
    two the same; every port must name a spin in 0..n-1, no name twice.
    At most one ``gap`` line, a number >= 0 (``inf`` marks an all-ground block).
    """
    ports: dict[str, int] = {}
    valid: dict[tuple[int, ...], None] = {}  # insertion-ordered set
    gap = None
    for lineno, line, tokens in _directives(text):
        try:
            if tokens[0] == "port" and len(tokens) == 3:
                if tokens[1] in ports:
                    raise ValueError("repeated port name")
                idx = int(tokens[2])
                if not 0 <= idx < n:
                    raise ValueError(f"port index {idx} out of range")
                ports[tokens[1]] = idx
            elif tokens[0] == "valid":
                bits = tuple(int(b) for b in tokens[1:])
                if len(bits) != n or any(b not in (0, 1) for b in bits):
                    raise ValueError(f"expected {n} bits of 0 or 1")
                if bits in valid:
                    raise ValueError("repeated valid vector")
                valid[bits] = None
            elif tokens[0] == "gap" and len(tokens) == 2:
                if gap is not None:
                    raise ValueError("repeated gap line")
                gap = float(tokens[1])
                if not gap >= 0:
                    raise ValueError(f"gap {gap!r} is not a number >= 0")
            else:
                raise ValueError("bad directive")
        except ValueError as exc:
            raise ModelFormatError(f"bad sidecar line {line!r}: {exc}", lineno) from None
    return ports, tuple(valid), gap


def format_roles(net: MultiplierNetwork) -> str:
    lines = []
    for label, spins in (("A", net.factor_a), ("B", net.factor_b), ("P", net.product)):
        for bit, spin in enumerate(spins):
            lines.append(f"role {label} {bit} {spin}")
    return "\n".join(lines) + "\n"


def write_shot_rows(fh, first: int, states, energies, labels, decoded) -> None:
    """One batch's rows of the per-shot log, shot,energy,ground_hit,state_bits[,M,N,P],
    numbered from shot ``first``, after the header where ``first`` is 0.
    ``labels``, a bool per shot, fill ground_hit (empty without them) and
    ``decoded``, the batch's (M, N, P) arrays, the last three columns."""
    if first == 0:
        header = "shot,energy,ground_hit,state_bits" + ("" if decoded is None else ",M,N,P")
        fh.write(header + "\n")
    hits = [""] * len(energies) if labels is None else ["01"[hit] for hit in labels.tolist()]
    columns = [range(first, first + len(energies)), map(repr, energies.tolist()), hits,
               bit_strings(states).astype(str).tolist(), *(a.tolist() for a in decoded or ())]
    fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*columns))


def write_trace_rows(fh, first: int, t, iq, period: float) -> None:
    """One batch's rows of the plot-ready trace CSV, t,Iq_1..Iq_n, after the
    header where ``first`` is 0: ``iq`` (samples, n, shots) recorded at the
    times ``t``, shot ``first + b``'s times shifted by ``(first + b) * period``."""
    if first == 0:
        fh.write("t," + ",".join(f"Iq_{q + 1}" for q in range(iq.shape[1])) + "\n")
    for b in range(iq.shape[2]):
        rows = zip((t + (first + b) * period).tolist(), iq[:, :, b].tolist())
        fh.writelines(f"{row_t!r}," + ",".join(map(repr, row_iq)) + "\n"
                      for row_t, row_iq in rows)
