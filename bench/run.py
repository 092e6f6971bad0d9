"""Benchmark of the petrisheaf command line tool, one workload per process.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client calls ``petrisheaf.cli.main([..., "--json"])`` in a
closed loop: each call starts when the previous one has returned, and each
is timed after ``gc.collect()``.  A run attempts whole rounds of
operations until ``--seconds`` have passed, checks every output against
the oracles in ``oracles.py``, and prints one JSON object as its last line.
The end-to-end times are scaled to a reference machine speed, measured by a
calibration loop run before every call (see ``end_to_end``).  ``setup_s``
is the median of three cold set-ups, one of them in this process.
With ``--trace 1`` each operation runs once untraced and once traced, and
the per-layer metrics come from the traced calls.  See README.md.
"""

import os
import time

# set-up is timed from here, before any other import, across the re-exec
# below: CLOCK_MONOTONIC is one clock for the whole system
START_ENV = "PETRISHEAF_BENCH_START"
START = float(os.environ.get(START_ENV) or time.clock_gettime(time.CLOCK_MONOTONIC))

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import docs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HASH_SEED = "0"
MIN_CALLS = 100  # so that the 90th percentile has ten calls above it
SETUPS = 3  # cold set-ups per run: the run's own and two in child processes
# the inputs of the calibration work, and the seconds it takes at the
# reference speed: about the faster of the two speeds that the 2-core VM
# this was written on switches between every few seconds (at the slower
# one the program takes 40-65 % longer)
CAL_MATRIX = [[(3 * i + 5 * j) % 7 - 3 for j in range(8)] for i in range(6)]
CAL_RING = docs.ring("cal", 3, [2])
CAL_NET = docs.small_strict("cal", random.Random("calibration"), False, 3, 3)
CAL_REF_S = 0.00045

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "coverings_per_s": "1/s",
    "states_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.GROUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up and print it")
    return p.parse_args(argv)


def load_program():
    """Import ``petrisheaf`` afresh from ``src/`` and return the package."""
    for name in [m for m in sys.modules if m == "petrisheaf" or m.startswith("petrisheaf.")]:
        del sys.modules[name]
    package = importlib.import_module("petrisheaf")
    importlib.import_module("petrisheaf.cli")
    if Path(package.__file__).resolve().parent != SRC / "petrisheaf":
        raise SystemExit(f"error: petrisheaf was imported from {package.__file__}, not {SRC}")
    return package


def invoke(package, argv):
    """One timed CLI call: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    main = package.cli.main
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback is a wrong output, not a crash of the run
            rc = f"exception {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def setup(workload, seed, workdir):
    """Import the program, write the first round's documents and call each
    of its commands once, each call preceded by a calibration.  Returns the
    package, the rounds (first round included), the calibrations and the
    wall seconds they took.

    The warm-up takes the round from its end, where the fixed tiny
    operations are, so that it does not time a seeded document's cost."""
    package = load_program()
    shutil.rmtree(workdir, ignore_errors=True)
    rounds = workloads.rounds(workload, seed, workdir)
    first = next(rounds)
    seen, cals, cal_wall = set(), [], 0.0
    for op in reversed(first):
        if op.command not in seen:
            seen.add(op.command)
            start = time.perf_counter()
            cals.append(calibrate())
            cal_wall += time.perf_counter() - start
            invoke(package, op.argv)
    return package, itertools.chain([first], rounds), cals, cal_wall


def timed_setup(workload, seed, workdir):
    """``setup`` timed from ``START``, scaled to the reference speed by the
    calibrations made during it and five right after it; the time the
    calibrations take is left out.  Returns ``setup``'s result and the
    seconds."""
    package, rounds, cals, cal_wall = setup(workload, seed, workdir)
    seconds = time.clock_gettime(time.CLOCK_MONOTONIC) - START - cal_wall
    return (package, rounds), seconds / speed(cals + [calibrate() for _ in range(5)])


def child_setups(args, count):
    """``count`` more cold set-ups, each in a fresh process that starts,
    re-executes and sets up like this one, one after the other."""
    env = {k: v for k, v in os.environ.items() if k not in (START_ENV, "PYTHONHASHSEED")}
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", "0", "--setup-only"]
    out = []
    for _ in range(count):
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode:
            raise SystemExit(f"error: set-up in a child process failed: {done.stderr[-500:]}")
        out.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return out


def verdict(op, rc, stdout, stderr):
    """``(None, None)`` when the output is right, else ``("known", what)``
    for the output of a known fault or ``("wrong", what)``."""
    if not isinstance(rc, int):
        return "wrong", rc
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "wrong", f"exit {rc}, no JSON output; stderr {stderr.strip()!r}"
    try:
        op.check(rc, payload)
    except workloads.KnownFault as exc:
        return "known", str(exc)
    except workloads.Mismatch as exc:
        return "wrong", str(exc)
    return None, None


def calibrate():
    """Seconds taken by a fixed piece of the benchmark's own pure-Python
    work: the speed of the machine at this moment.  The work is of the
    program's kinds (exact elimination over fractions, a breadth-first
    search over marking tuples, unions of frozensets), so that a change of
    the machine's state slows it about as much as it slows the program, but
    none of it is the program's code.  It runs twice and the second run is
    timed, so that what the previous call left in the caches does not
    count."""
    for _ in range(2):
        start = time.perf_counter()
        oracles.rank_q(CAL_MATRIX)
        oracles.bfs(CAL_RING)
        oracles.covering_counts(CAL_NET)
        elapsed = time.perf_counter() - start
    return elapsed


def speed(cals):
    """The machine's slowdown against the reference, from calibration times."""
    return statistics.median(cals) / CAL_REF_S


def measure(package, rounds, seconds, tracer=None):
    """Run whole rounds until ``seconds`` have passed and ``MIN_CALLS`` calls
    other than probes have been timed.  Each call is preceded by one calibration, outside its
    time.  Returns one record per call: (op, seconds, calibration seconds,
    work), where work is the coverings of a passing ``axioms`` or the
    markings of a passing ``reach``, else None."""
    records, errors = [], []
    traced_total = untraced_total = 0.0
    failed = done = timed = 0
    start = time.perf_counter()
    for ops in rounds:
        for op in ops:
            cal = calibrate()
            rc, elapsed, stdout, stderr = invoke(package, op.argv)
            if tracer is not None:
                tracer.start_op()
                tracer.install()
                try:
                    rc, traced, stdout, stderr = invoke(package, op.argv)
                finally:
                    tracer.uninstall()
                untraced_total += elapsed
                traced_total += traced
            kind, what = verdict(op, rc, stdout, stderr)
            work = None
            if kind is not None:
                failed += 1
                if kind == "wrong":
                    errors.append(f"{' '.join(op.argv)}: {what}")
            elif op.command == "axioms":
                payload = json.loads(stdout)
                work = sum(payload["checks"].values()) + (payload["random"] or {}).get("checks", 0)
            elif op.command == "reach":
                work = json.loads(stdout)["count"]
            records.append((op, elapsed, cal, work))
            timed += not op.probe
        done += 1
        if time.perf_counter() - start >= seconds and timed >= MIN_CALLS:
            break
    return {
        "records": records,
        "attempted": len(records),
        "failed": failed,
        "rounds": done,
        "errors": errors,
        "overhead_s": traced_total - untraced_total,
    }


def end_to_end(result, setup_s):
    """The end-to-end metrics.  Every time is scaled to the reference speed
    by the median of the calibrations around its call (two before, two
    after), so that a change of the machine's speed during or between runs
    does not read as a change of the program."""
    records = result["records"]
    cals = [cal for _, _, cal, _ in records]
    scaled = [
        (op, elapsed / speed(cals[max(0, i - 2) : i + 3]), work)
        for i, (op, elapsed, _, work) in enumerate(records)
    ]
    times = [t for op, t, _ in scaled if not op.probe]

    def rate(command):
        done = [(work, t) for op, t, work in scaled if op.command == command and work is not None]
        return sum(w for w, _ in done) / sum(t for _, t in done)

    values = {
        "ops_per_s": len(times) / sum(times),
        "verdict_ms.p50": statistics.median(times) * 1000,
        "verdict_ms.p90": statistics.quantiles(times, n=10)[8] * 1000,
        "coverings_per_s": rate("axioms"),
        "states_per_s": rate("reach"),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer(tracer, result):
    rounds = result["rounds"]
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in tracer.layer_metrics(rounds).items()
    }
    metrics["trace.overhead_s"] = {"value": result["overhead_s"] / rounds, "unit": "s"}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # set and string iteration order must not differ from run to run
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, **{START_ENV: repr(START)})
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    if not (SRC / "petrisheaf" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/petrisheaf", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        (package, rounds), setup_s = timed_setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = Tracer(package) if args.trace else None
        result = measure(package, rounds, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        # after the measured calls, so that the children do not disturb them
        setup_s = statistics.median([setup_s, *child_setups(args, SETUPS - 1)])
    for line in result["errors"][:20]:
        print(f"mismatch: {line}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tracer, result)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        dump = tracer.dump()
        dump.update(workload=args.workload, seed=args.seed, rounds=result["rounds"])
        trace_file.write_text(json.dumps(dump))
    else:
        metrics = end_to_end(result, setup_s)
        slowdown = speed([cal for _, _, cal, _ in result["records"]])
        print(f"machine speed: wall times were {slowdown:.3f} x the scaled ones", file=sys.stderr)
    report = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
