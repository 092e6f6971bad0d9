"""Record one point of the benchmark trajectory as a ``BENCH_*.json`` file.

    python3 tools/bench_record.py BENCH_<n>.json

Run from anywhere inside a source checkout; only the standard library is
used.  For each workload that ``BENCHMARK.json`` declares, ``bench/run.py``
runs end to end once at each of the fixed ``SEEDS``, and once traced
(``--trace 1``) at each of them too, each run in a process of its own and
for the ``run_seconds`` of ``BENCHMARK.json``; about ten minutes in all.
The file holds, per workload, the median of each end-to-end metric over the
plain runs, every run's ``correct``/``attempted``/``failed`` and metrics,
and the median of each per-layer metric over the traced runs (one traced
run's layers differ from another's by about a third on the same code); and,
for the checkout, the line count of each
``src/petrisheaf/*.py`` (as ``wc -l`` counts it) and the commit, with a flag
for uncommitted changes.

It then prints the change of each end-to-end median against the previous
``BENCH_*.json`` at the root of the checkout, the one with the highest
number below this file's, and marks each that is worse than its bound in
``BENCHMARK.json``.  The exit code is 1 when a run was not correct, when a
metric is worse than its bound, or when a workload failed more operations
than in the previous file, and 0 otherwise.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2, 3)  # the same for every file, so that files compare run for run


def bench(workload, seed, trace):
    """One ``bench/run.py`` run in a process of its own: its report."""
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0].startswith("python") else argv[0]
    print("running:", " ".join(argv[1:]), file=sys.stderr, flush=True)
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def source_lines():
    files = sorted((ROOT / "src" / "petrisheaf").glob("*.py"))
    lines = {f.name: f.read_bytes().count(b"\n") for f in files}
    return {**lines, "total": sum(lines.values())}


def commit():
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def medians(reports):
    """The median over ``reports`` of each metric of the first."""
    return {
        metric: statistics.median(r["metrics"][metric]["value"] for r in reports)
        for metric in reports[0]["metrics"]
    }


def record():
    out = {}
    for name in (w["name"] for w in SPEC["workloads"]):
        reports = [bench(name, seed, 0) for seed in SEEDS]
        traced = [bench(name, seed, 1) for seed in SEEDS]
        out[name] = {
            "seeds": list(SEEDS),
            "seconds": SPEC["run_seconds"],
            "correct": all(r["correct"] for r in reports + traced),
            "failed": max(r["failed"] for r in reports + traced),
            "end_to_end": medians(reports),
            "runs": reports,
            "per_layer": medians(traced),
            "traced_runs": [{k: r[k] for k in ("correct", "attempted", "failed")} for r in traced],
        }
    return out


def number(path):
    found = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(found.group(1)) if found else None


def previous(path):
    mine = number(path)
    older = [
        p for p in ROOT.glob("BENCH_*.json")
        if number(p) is not None and (mine is None or number(p) < mine)
    ]
    return max(older, key=number, default=None)


def diff(old, new):
    """Lines comparing the end-to-end medians of two BENCH files, and
    whether any metric is worse than its bound."""
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    lines, worse = [], False
    for workload, now in new["workloads"].items():
        then = old["workloads"].get(workload)
        if then is None:
            lines.append(f"{workload}: not in the previous file")
            continue
        for metric, value in now["end_to_end"].items():
            before = then["end_to_end"].get(metric)
            if not before:
                continue
            change = (value - before) / before
            sign = 1 if bounds[metric]["better"] == "higher" else -1
            flag = ""
            if -sign * change > bounds[metric]["bound"]:
                flag, worse = f"  WORSE than its bound {bounds[metric]['bound']:.0%}", True
            lines.append(
                f"{workload:8s} {metric:16s} {before:12.4g} -> {value:12.4g} "
                f"({change:+.1%}){flag}"
            )
        if now["failed"] > then["failed"]:
            lines.append(f"{workload}: failed {then['failed']} -> {now['failed']}")
            worse = True
    return lines, worse


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", help="the name of the BENCH_<n>.json file to write at the root")
    out = ROOT / Path(p.parse_args(argv).out).name
    result = {
        **commit(),
        "python": sys.version.split()[0],
        "src_lines": source_lines(),
        "workloads": record(),
    }
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    status = 0 if all(w["correct"] for w in result["workloads"].values()) else 1
    before = previous(out)
    if before is None:
        print(f"{out.name}: no earlier BENCH file to compare with")
        return status
    lines, worse = diff(json.loads(before.read_text()), result)
    print(f"{before.name} -> {out.name} (end-to-end medians)")
    print("\n".join(lines))
    return 1 if worse else status


if __name__ == "__main__":
    sys.exit(main())
