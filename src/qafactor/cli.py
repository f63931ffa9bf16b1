"""Command-line driver: gate emission, network synthesis, annealing runs,
factoring/multiplication, circuit-level ensembles, verification, capacity.

Exit codes: 0 success, 1 usage, 2 data/parse, 3 verification failure,
4 numeric instability.
"""
from __future__ import annotations

import argparse
import errno
import os
import re
import stat
import sys
import tempfile
from contextlib import contextmanager

from . import anneal as annealing
from . import fluxsim
from .capacity import CapacityInput, capacity_estimate
from .formats import (
    ModelFormatError,
    format_model,
    format_ports,
    format_roles,
    parse_model,
    parse_ports,
    write_shot_rows,
    write_trace_rows,
)
from .gates import NOR_TRUTH, and_gate, check_manifold, half_adder, nor_gate, verify_gate
from .ising import (BRUTE_FORCE_CAP, MAX_BRUTE_FORCE_CAP, SizeCapError, bit_strings,
                    brute_force_ground, clamp_fold, code_spins)
from .multiplier import (
    BIAS,
    CHAIN_STRENGTH,
    FOLD,
    build_multiplier,
    clamp_product,
    decode_reduced,
    factor_clamp_assignment,
    product_clamp_assignment,
)
from .seeds import default_workers
from .synth import mult_unit_gate

DEFAULT_SEED = 1


class UsageError(ValueError):
    pass


class VerificationFailure(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Any number, inf or nan is a value: "-1e0" and "-inf" are not flags.
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# gates emit
# ---------------------------------------------------------------------------

_GATES = {"nor": nor_gate, "and": and_gate, "half-adder": half_adder,
         "mult-unit": mult_unit_gate}


def cmd_gates_emit(args) -> int:
    template = _GATES[args.kind]()
    report = verify_gate(template)
    if not report.passed:
        raise VerificationFailure(
            f"{args.kind}: ground manifold check failed ({report.offending} offending states)"
        )
    prefix = args.out or args.kind
    _write(prefix + ".model", format_model(template.model))
    _write(prefix + ".ports", format_ports(template))
    print(f"wrote {prefix}.model and {prefix}.ports")
    print(f"e0 {report.e0!r}")
    print(f"gap {report.achieved_gap!r}")
    return 0


# ---------------------------------------------------------------------------
# synth mult
# ---------------------------------------------------------------------------

def cmd_synth_mult(args) -> int:
    net = build_multiplier(args.bits_a, args.bits_b, chains=args.chains,
                           chain_strength=args.chain_strength)
    prefix = args.out or f"mult{args.bits_a}x{args.bits_b}"
    _write(prefix + ".model", format_model(net.model))
    _write(prefix + ".roles", format_roles(net))
    print(f"wrote {prefix}.model and {prefix}.roles")
    print(f"qubits {net.model.n}")
    print(f"cells {net.n_cells}")
    print(f"chain_spins {net.n_chain_spins}")
    print(f"expected_e0 {net.expected_e0!r}")
    return 0


# ---------------------------------------------------------------------------
# the shot commands: anneal / factor / multiply / circuit nor-inverse
# ---------------------------------------------------------------------------

def _schedule_from(args) -> annealing.Schedule:
    return annealing.Schedule(kind=args.schedule, t_hot=args.t_hot,
                              t_cold=args.t_cold, sweeps=args.sweeps)


def _run(args, solve, *problem, **options):
    """``solve(*problem, **options)`` with the shot commands' ``--shots``,
    ``--seed`` and ``--workers`` (default :func:`default_workers`), then the
    master seed printed: a run its solver refuses leaves stdout empty."""
    result = solve(*problem, n_shots=args.shots, master_seed=args.seed,
                   workers=args.workers or default_workers(), **options)
    print(f"master_seed {args.seed}")
    return result


def _positive_int(text: str) -> int:
    """A count that must be at least 1 (``--shots``, ``--workers``,
    ``--decimate``, ``--bits-a``, ``--bits-b``); the runner caps
    ``--workers`` at the usable CPUs."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cap(text: str) -> int:
    """``--cap``: the largest spin count to enumerate, 1..MAX_BRUTE_FORCE_CAP."""
    value = int(text)
    if not 1 <= value <= MAX_BRUTE_FORCE_CAP:
        raise argparse.ArgumentTypeError(
            f"must be in 1..{MAX_BRUTE_FORCE_CAP}, got {value}")
    return value


@contextmanager
def _shot_log(path: str | None):
    """``--csv`` and ``--trace``: the open log that rows go to (None without
    a path).  Each shot command opens it first, so a run that could not save
    its output is refused (OSError, a data error) before any input is read.
    A path that is neither a regular file nor a directory but, say,
    ``/dev/null``, a FIFO or ``/dev/fd/N`` is a stream, written directly as
    nothing may be moved onto it: a failed run may leave some rows in it.
    Otherwise the rows go to a temporary file beside the path's real
    target, which replaces the target only once the block ends without an
    error and is removed if not, so a failed run leaves the path as it was.
    An existing target must open for writing and, in a sticky directory
    such as ``/tmp``, be the user's or in the user's directory, or it could
    not be replaced.  The replacement is a new file: hard links to the old
    one keep the old bytes, and of its metadata only the mode carries over,
    not owner, group, ACLs or extended attributes.  A new file gets the
    mode that ``open(path, "w")`` would give it."""
    if path is None:
        yield None
        return
    try:
        existing = os.stat(path)
    except FileNotFoundError:
        existing = None
    if existing and not (stat.S_ISREG(existing.st_mode) or stat.S_ISDIR(existing.st_mode)):
        with open(path, "w", encoding="utf-8") as log:
            yield log
        print(f"wrote {path}")
        return
    target = os.path.realpath(path)
    directory = os.path.dirname(target)
    if existing:
        open(target, "a", encoding="utf-8").close()
        if (os.stat(directory).st_mode & stat.S_ISVTX and os.geteuid() not in
                (0, existing.st_uid, os.stat(directory).st_uid)):
            raise PermissionError(errno.EPERM, "another user's file in a sticky directory",
                                  path)
        mode = stat.S_IMODE(existing.st_mode)
    else:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    try:
        fd, rows = tempfile.mkstemp(prefix=".qafactor-", dir=directory)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as log:
            os.chmod(rows, mode)
            yield log
        os.replace(rows, target)
    except BaseException:
        os.remove(rows)
        raise
    print(f"wrote {path}")


def _fold_shots(model, schedule, summary, log, each=None, **run):
    """Anneal ``model`` and fold each batch as it arrives: into ``summary``,
    then ``each(states, energies, labels)``, whose (M, N, P) arrays join the
    batch's ``--csv`` rows in ``log``; the batch is then dropped."""
    for states, energy in annealing.anneal_batches(model, schedule, **run):
        first = summary.shots
        labels = summary.add(states, energy)
        decoded = each(states, energy, labels) if each else None
        if log:
            write_shot_rows(log, first, states, energy, labels, decoded)
    return summary


def cmd_anneal(args) -> int:
    with _shot_log(args.csv) as log:
        schedule = _schedule_from(args)
        model = parse_model(_read(args.model))
        reference = args.reference_e0
        if args.brute_force_reference:
            # A run the flip cap refuses enumerates nothing first.
            annealing.check_flip_cap(model.n, schedule, args.shots)
            reference = brute_force_ground(model, cap=args.cap).e0
        summary = _run(args, _fold_shots, model, schedule,
                       annealing.RunSummary(reference_e0=reference), log)
    sys.stdout.write(summary.to_text())
    return 0


def cmd_factor(args) -> int:
    with _shot_log(args.csv) as log:
        if args.p < 0:
            raise UsageError("P must be >= 0")
        schedule = _schedule_from(args)
        bits = max(1, args.p.bit_length())
        n1, n2 = args.bits_a or bits, args.bits_b or bits
        if args.p >= (1 << (n1 + n2)):
            raise UsageError(f"P={args.p} does not fit in {n1}+{n2} product bits")
        net = build_multiplier(n1, n2, chains=args.chains)
        clamped, offset = clamp_product(net, args.p, method=args.method)
        reference = net.expected_e0 - offset
        clamps = product_clamp_assignment(net, args.p) if args.method == FOLD else {}
        hist: dict[str, int] = {}
        hits: dict[str, int] = {}

        def tally(states, energy, labels):
            m, n, p = decode_reduced(net, clamps, states)
            for key, hit in zip(map("({},{})".format, m.tolist(), n.tolist()), labels.tolist()):
                hist[key] = hist.get(key, 0) + 1
                hits[key] = hits.get(key, 0) + hit
            return m, n, p

        summary = _run(args, _fold_shots, clamped, schedule,
                       annealing.RunSummary(reference_e0=reference, histogram=None), log, tally)
        print(f"network {n1}x{n2} qubits {net.model.n} clamped {clamped.n}")
        print(f"reference_e0 {reference!r}")
        print(f"shots {summary.shots}")
        print(f"best_energy {summary.best_energy!r}")
        print(f"ground_hits {summary.ground_hits}")
        print(f"ground_hit_rate {summary.ground_hit_rate!r}")
        for key in sorted(hist, key=lambda k: (-hist[k], k)):
            print(f"count {key} {hist[key]} ground {hits[key]}")
    return 0


def cmd_multiply(args) -> int:
    with _shot_log(args.csv) as log:
        if args.m < 0 or args.n < 0:
            raise UsageError("factors must be >= 0")
        schedule = _schedule_from(args)
        n1 = args.bits_a or max(1, args.m.bit_length())
        n2 = args.bits_b or max(1, args.n.bit_length())
        if args.m >= (1 << n1):
            raise UsageError(f"M={args.m} does not fit in {n1} bits")
        if args.n >= (1 << n2):
            raise UsageError(f"N={args.n} does not fit in {n2} bits")
        net = build_multiplier(n1, n2, chains=args.chains)
        clamps = factor_clamp_assignment(net, args.m, args.n)
        clamped, offset = clamp_fold(net.model, clamps)
        lowest = [float("inf"), None]  # the first lowest energy so far, and its shot's product

        def keep_lowest(states, energy, labels):
            m, n, p = decode_reduced(net, clamps, states)
            k = int(energy.argmin())
            if energy[k] < lowest[0]:
                lowest[:] = energy[k], p[k]
            return m, n, p

        summary = _run(args, _fold_shots, clamped, schedule,
                       annealing.RunSummary(reference_e0=net.expected_e0 - offset, histogram=None),
                       log, keep_lowest)
        # The lowest-energy shot reached ground exactly when any shot did.
        print(f"product {lowest[1]}")
        print(f"ground_reached {summary.ground_hits > 0}")
        print(f"ground_hit_rate {summary.ground_hit_rate!r}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    model = parse_model(_read(args.model))
    ports, valid, declared_gap = {}, (), None
    if args.ports:
        ports, valid, declared_gap = parse_ports(_read(args.ports), model.n)
    report = brute_force_ground(model, cap=args.cap)
    print(f"spins {model.n}")
    print(f"e0 {report.e0!r}")
    print(f"ground_states {report.degeneracy}")
    print(f"gap {report.gap!r}")
    if args.ports:
        # The first 32 ground states by bit string, spin 0 first: the
        # codes ascend in that order.
        for bits in bit_strings(code_spins(model.n, report.codes[:32]).T).astype(str).tolist():
            decoded = " ".join(f"{name}={bits[idx]}" for name, idx in sorted(ports.items()))
            print(f"ground {bits} {decoded}")
    check = check_manifold(report, valid or None, declared_gap)
    if check.valid_match is not None:
        print(f"valid_set_match {str(check.valid_match).lower()}")
    if check.gap_met is not None:
        print(f"gap_met {str(check.gap_met).lower()}")
    print(f"pass {str(check.passed).lower()}")
    if not check.passed:
        raise VerificationFailure(f"{args.model}: ground manifold or gap mismatch")
    return 0


# ---------------------------------------------------------------------------
# circuit nor-inverse
# ---------------------------------------------------------------------------

def _fold_ensemble(layout, noise, log, **run):
    """Integrate ``layout`` and fold each batch as it arrives: its read-out
    bits into the counts, its recorded currents into the ``--trace`` rows
    in ``log``; the batch is then dropped."""
    result = fluxsim.EnsembleResult()
    for bits, _, t, iq in fluxsim.ensemble_batches(layout, noise, **run):
        if log:
            write_trace_rows(log, result.shots, t, iq, layout.ramp.total_s)
        result.add(bits)
        del t, iq  # so the next batch is integrated with no other recording alive
    return result


def cmd_circuit_nor_inverse(args) -> int:
    with _shot_log(args.trace) as log:
        # Divided, not multiplied, into SI units: 0.2 / 1e9 is the float 2e-10,
        # 0.2 * 1e-9 one ulp above it, so every default rebuilds the library's.
        layout = fluxsim.inverse_nor_layout(args.clamp, ramp=fluxsim.RampSpec(
            ramp_s=args.ramp_ns / 1e9, hold_s=args.hold_ns / 1e9))
        noise = fluxsim.NoiseSpec(sigma=args.noise_sigma / 1e6)
        result = _run(args, _fold_ensemble, layout, noise, log, dt=args.dt_fs / 1e15,
                      decimate=args.decimate if log else 0)
        sys.stdout.write(result.to_text())
        violations = sum(c for bits, c in result.counts.items()
                         if bits[:3] not in NOR_TRUTH.valid)
        clamp_misses = sum(
            c for bits, c in result.counts.items()
            if bits[2] != args.clamp or bits[3] != args.clamp
        )
        print(f"nor_violations {violations}")
        print(f"clamp_misses {clamp_misses}")
    return 0


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def cmd_capacity(args) -> int:
    inp = CapacityInput(unit_w_um=args.unit_w, unit_h_um=args.unit_h,
                        chip_mm=args.chip_mm, margin_um=args.margin_um,
                        chips=args.chips)
    rep = capacity_estimate(inp)
    print(f"units_across {rep.units_across}")
    print(f"units_down {rep.units_down}")
    print(f"units_side {rep.units_side}")
    print(f"units_per_chip {rep.units_per_chip}")
    print(f"total_units {rep.total_units}")
    print(f"product_bits {rep.product_bits}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="qafactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags every shot command shares.  --shots is not among them: a
    # parent's actions are shared, so a per-command default would leak.
    shot_parent = _Parser(add_help=False)
    shot_parent.add_argument("--seed", type=int, default=DEFAULT_SEED,
                             help="master seed (printed; derives per-shot seeds)")
    shot_parent.add_argument("--workers", type=_positive_int, default=None,
                             help="processes (default: every usable CPU where the pool"
                                  " starts by fork, else 1)")
    anneal_parent = _Parser(add_help=False)
    anneal_parent.add_argument("--sweeps", type=int, default=annealing.Schedule.sweeps)
    anneal_parent.add_argument("--t-hot", type=float, default=annealing.Schedule.t_hot)
    anneal_parent.add_argument("--t-cold", type=float, default=annealing.Schedule.t_cold)
    anneal_parent.add_argument("--schedule", choices=[annealing.GEOMETRIC, annealing.LINEAR],
                               default=annealing.Schedule.kind)
    anneal_parent.add_argument("--csv", metavar="PATH", default=None)
    # factor and multiply run one multiplier network, forwards or backwards.
    net_parent = _Parser(add_help=False)
    net_parent.add_argument("--bits-a", type=_positive_int, default=None)
    net_parent.add_argument("--bits-b", type=_positive_int, default=None)
    net_parent.add_argument("--chains", action="store_true")

    p_gates = sub.add_parser("gates")
    gates_sub = p_gates.add_subparsers(dest="gates_command", required=True)
    p_emit = gates_sub.add_parser("emit")
    p_emit.add_argument("kind", choices=list(_GATES))
    p_emit.add_argument("--out", default=None, help="output path prefix")
    p_emit.set_defaults(func=cmd_gates_emit)

    p_synth = sub.add_parser("synth")
    synth_sub = p_synth.add_subparsers(dest="synth_command", required=True)
    p_mult = synth_sub.add_parser("mult")
    p_mult.add_argument("--bits-a", type=_positive_int, required=True)
    p_mult.add_argument("--bits-b", type=_positive_int, required=True)
    p_mult.add_argument("--chains", action="store_true")
    p_mult.add_argument("--chain-strength", type=float, default=CHAIN_STRENGTH)
    p_mult.add_argument("--out", default=None)
    p_mult.set_defaults(func=cmd_synth_mult)

    p_anneal = sub.add_parser("anneal", parents=[shot_parent, anneal_parent])
    p_anneal.add_argument("model")
    p_anneal.add_argument("--shots", type=_positive_int, default=200)
    ref_flags = p_anneal.add_mutually_exclusive_group()
    ref_flags.add_argument("--reference-e0", type=float, default=None)
    ref_flags.add_argument("--brute-force-reference", action="store_true")
    p_anneal.add_argument("--cap", type=_cap, default=BRUTE_FORCE_CAP)
    p_anneal.set_defaults(func=cmd_anneal)

    p_factor = sub.add_parser("factor", parents=[shot_parent, anneal_parent, net_parent])
    p_factor.add_argument("p", type=int)
    p_factor.add_argument("--shots", type=_positive_int, default=200)
    p_factor.add_argument("--method", choices=[FOLD, BIAS], default=FOLD)
    p_factor.set_defaults(func=cmd_factor)

    p_mul = sub.add_parser("multiply", parents=[shot_parent, anneal_parent, net_parent])
    p_mul.add_argument("m", type=int)
    p_mul.add_argument("n", type=int)
    p_mul.add_argument("--shots", type=_positive_int, default=50)
    p_mul.set_defaults(func=cmd_multiply)

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("model")
    p_verify.add_argument("--ports", default=None, help="ports sidecar to check against")
    p_verify.add_argument("--cap", type=_cap, default=BRUTE_FORCE_CAP)
    p_verify.set_defaults(func=cmd_verify)

    p_circ = sub.add_parser("circuit")
    circ_sub = p_circ.add_subparsers(dest="circuit_command", required=True)
    p_nor = circ_sub.add_parser("nor-inverse", parents=[shot_parent])
    p_nor.add_argument("--clamp", type=int, choices=[0, 1], required=True)
    p_nor.add_argument("--shots", type=_positive_int, default=200)
    p_nor.add_argument("--ramp-ns", type=float, default=fluxsim.RAMP_DEFAULT * 1e9)
    p_nor.add_argument("--hold-ns", type=float, default=fluxsim.HOLD_DEFAULT * 1e9)
    p_nor.add_argument("--dt-fs", type=float, default=fluxsim.DT_DEFAULT * 1e15,
                       help="step of the second-order integrator in fs (default %(default)g);"
                            " at most 500, the noise hold")
    p_nor.add_argument("--noise-sigma", type=float, default=fluxsim.NoiseSpec.sigma * 1e6,
                       help="per-junction noise std in uA")
    p_nor.add_argument("--trace", metavar="PATH", default=None)
    p_nor.add_argument("--decimate", type=_positive_int, default=10)
    p_nor.set_defaults(func=cmd_circuit_nor_inverse)

    p_cap = sub.add_parser("capacity")
    p_cap.add_argument("--unit-w", type=float, default=CapacityInput.unit_w_um)
    p_cap.add_argument("--unit-h", type=float, default=CapacityInput.unit_h_um)
    p_cap.add_argument("--chip-mm", type=float, default=CapacityInput.chip_mm)
    p_cap.add_argument("--margin-um", type=float, default=CapacityInput.margin_um)
    p_cap.add_argument("--chips", type=int, default=CapacityInput.chips)
    p_cap.set_defaults(func=cmd_capacity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ModelFormatError, SizeCapError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("data error: out of memory; the input is too large", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (fluxsim.ShotError, ArithmeticError) as exc:
        print(f"numeric instability: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
