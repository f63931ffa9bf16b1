"""qafactor benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload factor-4x4 --seed 7 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` times the workload's CLI commands in-process, repeated for
``--seconds``, and reports the end-to-end metrics; ``--trace 1`` makes one
traced pass through the layer functions plus one untraced CLI pass and
reports the per-layer metrics.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Workloads and
metrics are described in README.md next to this file.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh interpreters whose set-up time is sampled per run (this process
#: included); the median is reported.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(load_before: tuple[float, ...]) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def run_cli(argv: list[str]) -> tuple[str, float, int | None]:
    """``qafactor.cli.main(argv)`` with stdout captured: (stdout, seconds,
    exit code), the code being None when it raised."""
    from qafactor import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash fails the command's shots; the run goes on
        traceback.print_exc()
        rc = None
    return buf.getvalue(), time.perf_counter() - t0, rc


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter running ``--setup-probe``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1])


def end_to_end(workload, seed: int, seconds: float, result: dict) -> dict:
    from stats import tts99

    ctx = workload.setup(seed)
    setup = [time.perf_counter() - T_START]
    setup += [probe_setup(workload.name, seed) for _ in range(SETUP_SAMPLES - 1)]

    commands = workload.commands(seed)
    shots = sum(c.shots for c in commands)
    first: list[str] | None = None
    walls: list[float] = []
    started = time.perf_counter()
    while True:
        runs = [run_cli(c.argv) for c in commands]
        walls.append(sum(dt for _, dt, _ in runs))
        outputs = [out for out, _, _ in runs]
        crashed = [c for c, (_, _, rc) in zip(commands, runs) if rc != 0]
        if crashed:
            result["failed"] += sum(c.shots for c in crashed)
            result["problems"].append(f"non-zero exit from {[c.argv for c in crashed]}")
        else:
            checked = workload.check(seed, ctx, outputs)
            result["failed"] += checked.failed
            result["problems"] += checked.problems
            result["quality"].update(checked.quality)
        if first is None:
            first = outputs
        elif outputs != first:
            result["failed"] += shots
            result["problems"].append("stdout differs between repetitions at one seed")
        result["attempted"] += shots
        if time.perf_counter() - started + statistics.fmean(walls) > seconds:
            break

    # The mean, not the median: on a shared VM the CPU speed can switch
    # between levels for seconds at a time, and a median of a few whole
    # commands then lands on one level or the other.
    wall = statistics.fmean(walls)
    rate = result["quality"].get("ground_hit_rate")
    if rate is not None:
        result["quality"]["tts99_s"] = tts99(wall / shots, rate)
    result["repetitions"] = walls
    result["setup_samples"] = setup
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "shots_per_s": shots / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload, seed: int, per_layer: list[str], result: dict) -> dict:
    from spans import Tracer
    from workloads import OUT_DIR, read_trace_csv

    tracer = Tracer(run_id=f"{workload.name}-{seed}")
    with tracer.span("workload") as root:
        got = workload.traced(seed, tracer)
    commands = workload.commands(seed)
    runs = [run_cli(c.argv) for c in commands]
    cli_wall = sum(dt for _, dt, _ in runs)
    outputs = [out for out, _, _ in runs]
    shots = sum(c.shots for c in commands)
    result["attempted"] = shots + got.shots

    if any(rc != 0 for _, _, rc in runs):
        result["failed"] += shots + got.shots
        result["problems"].append("non-zero exit from the CLI")
    else:
        checked = workload.check(seed, workload.setup(seed), outputs)
        result["failed"] += checked.failed + len(got.failed_shots)
        result["problems"] += checked.problems + got.problems
        mismatch = outputs != got.outputs
        if got.csv_rows is not None:
            mismatch = mismatch or read_trace_csv(commands[-1].argv[-1]) != got.csv_rows
        if mismatch:
            result["failed"] += got.shots
            result["problems"].append("traced layer calls do not reproduce the CLI output")

    # Work the CLI does not do: the checks and the cold synthesis, which
    # the untraced CLI pass finds cached.
    extra = sum(s.seconds for s in tracer.spans if s.name.startswith("check."))
    extra += tracer.total("synth.mult_unit_gate")
    layer = dict.fromkeys(per_layer, 0.0) | got.layer
    layer["trace.overhead_pct"] = (root.seconds - extra - cli_wall) / cli_wall * 100
    spans_path = OUT_DIR / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write(spans_path)
    result["spans"] = str(spans_path.relative_to(ROOT))
    result["cli_wall_s"] = cli_wall
    return layer


def main(argv=None) -> int:
    load_before = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qafactor" / "__init__.py").is_file():
        print(f"perfbench: no qafactor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.anneal.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: qafactor was imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed)
        print(time.perf_counter() - T_START)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "attempted": 0, "failed": 0, "problems": [], "quality": {}}
    workloads.OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics = traced(workload, args.seed, list(units), result)
        else:
            metrics = end_to_end(workload, args.seed, args.seconds, result)
    finally:
        for path in workloads.OUT_DIR.glob(f"trace-{args.seed}.csv"):
            path.unlink()
    result["failed"] = min(result["failed"], result["attempted"])
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    result["env"] = environment(load_before)
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}

    print(f"perfbench {workload.name} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(result["env"]))
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for name, value in result["quality"].items():
        print(f"quality {name} {'unreachable' if value is None else repr(value)}")
    print(f"failed_share {result['failed'] / max(result['attempted'], 1)!r}")
    for problem in result["problems"]:
        print(f"check FAILED {problem}")
    record = workloads.OUT_DIR / f"result-{workload.name}-{args.seed}-{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
