#!/usr/bin/env python3
"""Time the user-facing jobs in fresh processes and write BENCH_jobs.json.

The jobs are ``structure_table``, ``check_associativity`` and
``check_order_independence`` at each shape, for alpha +1 and -1, and
``cohomology``, which asks every ordered weight pair of the shape for
``poincare(shifted=True)``, ``intersection_cohomology``,
``kernel_contains_both`` and ``odd_normalization``, in that order, and
``k0``, which builds the shape's ``k0_matrix`` and asks it
``is_lower_unitriangular`` and ``det`` (alpha does not apply to these
two: null).
``--jobs`` picks some of them.  Every run is a fresh interpreter that
imports ``arcalg`` from ``<tree>/src`` and nothing else, so every memo
starts empty, as on each ``arcalg`` call.  With two ``--src`` trees
(say a parent checkout and a change), each job runs on both in turn,
and which tree goes first alternates between repetitions.

Per run the file records the commit of the tree, the wall time of the
call alone (interpreter start and imports excluded), the peak RSS right
after the imports and right after the call, and the SHA-256 of the
table's or K0 matrix's ``to_json()`` (for a check, of its witness, null
when it passes, and its ``ok`` too; of the outputs' ``repr``s joined by
newlines, for ``cohomology``).  Both
peaks are the child's own ``VmHWM`` from ``/proc/self/status`` (Linux):
``ru_maxrss`` would carry over the high-water mark of the process that
spawned it.  Medians per (job, shape, alpha, commit) follow the runs.

Usage:
    python scripts/bench_jobs.py [--src TREE [--src TREE]] [--shapes 6,3 8,4]
                                 [--jobs JOB ...] [--repeat 3] [--out BENCH_jobs.json]
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = ("structure_table", "check_associativity", "check_order_independence", "cohomology",
        "k0")
NO_ALPHA = ("cohomology", "k0")

# One run; argv: source directory, job, n, k, alpha (JSON).  Prints one JSON line.
CHILD = """
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
from arcalg.arc_algebra import check_associativity, check_order_independence, structure_table
from arcalg.cohomology import (intersection_cohomology, kernel_contains_both,
                               odd_normalization, poincare)
from arcalg.diagrams import Shape, enumerate_weights
from arcalg.ktheory import k0_matrix
def high_water_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
def cohomology(shape, alpha):
    weights = enumerate_weights(shape)
    return [(poincare(w, v, shifted=True), intersection_cohomology(w, v),
             kernel_contains_both(w, v), odd_normalization(w, v))
            for w in weights for v in weights]
def k0(shape, alpha):
    mat = k0_matrix(shape)
    mat.is_lower_unitriangular()
    mat.det()
    return mat
imported = high_water_mb()
job, shape = sys.argv[2], Shape(int(sys.argv[3]), int(sys.argv[4]))
alpha = json.loads(sys.argv[5])
call = {"structure_table": structure_table, "check_associativity": check_associativity,
        "check_order_independence": check_order_independence, "cohomology": cohomology,
        "k0": k0}[job]
check = job.startswith("check_")
start = time.perf_counter()
result = call(shape, alpha)
wall = time.perf_counter() - start
peak = high_water_mb()
text = (result.to_json() if job in ("structure_table", "k0") else
        result.witness if check else "\\n".join(map(repr, result)))
print(json.dumps({"wall_s": wall, "import_rss_mb": imported, "peak_rss_mb": peak,
                  "ok": result.ok if check else None,
                  "sha256": text and hashlib.sha256(text.encode()).hexdigest()}))
"""


def commit_of(tree: Path) -> str:
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty",
                           "--abbrev=12"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def label(job: str, shape: tuple[int, int], alpha: int | None) -> str:
    return f"{job} {shape}" + ("" if alpha is None else f" alpha {alpha:+d}")


def run_job(tree: Path, job: str, shape: tuple[int, int], alpha: int | None) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tree / "src"), job,
                           str(shape[0]), str(shape[1]), json.dumps(alpha)],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{label(job, shape, alpha)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def parse_shape(text: str) -> tuple[int, int] | None:
    try:
        n, k = (int(part) for part in text.split(","))
    except ValueError:
        return None
    return (n, k) if n >= 1 and 0 <= 2 * k <= n else None


def summarize(runs: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for run in runs:
        key = (run["job"], tuple(run["shape"]), run["alpha"], run["commit"])
        groups.setdefault(key, []).append(run)
    return [{"job": job, "shape": list(shape), "alpha": alpha, "commit": commit,
             "runs": len(group),
             "median_wall_s": statistics.median(r["wall_s"] for r in group),
             "median_import_rss_mb": statistics.median(r["import_rss_mb"] for r in group),
             "median_peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in group),
             "sha256": sorted({r["sha256"] for r in group}, key=str)}
            for (job, shape, alpha, commit), group in groups.items()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="root of a checkout to time (at most two; default: this one)")
    parser.add_argument("--shapes", nargs="+", default=["6,3", "8,4"], metavar="N,K")
    parser.add_argument("--jobs", nargs="+", choices=JOBS, default=list(JOBS), metavar="JOB",
                        help=f"jobs to run, each at every shape (default: all of {', '.join(JOBS)})")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_jobs.json")
    args = parser.parse_args()
    trees = args.src or [ROOT]
    shapes = [parse_shape(text) for text in args.shapes]
    problems = [f"shape {text!r} is not N,K with 0 <= 2K <= N"
                for text, shape in zip(args.shapes, shapes) if shape is None]
    if len(trees) > 2:
        problems.append(f"{len(trees)} --src trees; give at most two")
    problems += [f"--src {tree} has no src/arcalg" for tree in trees
                 if not (tree / "src" / "arcalg").is_dir()]
    if args.repeat < 1:
        problems.append(f"--repeat {args.repeat} runs nothing; it must be at least 1")
    if problems:
        print("\n".join(f"error: {p}" for p in problems), file=sys.stderr)
        return 1
    commits = [commit_of(tree) for tree in trees]

    runs = []
    for shape in shapes:
        for job in (job for job in JOBS if job in args.jobs):
            for alpha in (None,) if job in NO_ALPHA else (1, -1):
                for rep in range(args.repeat):
                    order = range(len(trees)) if rep % 2 == 0 else reversed(range(len(trees)))
                    for t in order:
                        try:
                            measured = run_job(trees[t], job, shape, alpha)
                        except RuntimeError as exc:
                            print(f"error: {exc}", file=sys.stderr)
                            return 1
                        run = {"job": job, "shape": list(shape), "alpha": alpha,
                               "commit": commits[t], "repetition": rep, **measured}
                        runs.append(run)
                        print(f"{label(job, shape, alpha)} {commits[t]}: "
                              f"{run['wall_s']:.3f} s, {run['peak_rss_mb']:.1f} MB "
                              f"({run['import_rss_mb']:.1f} MB after imports)", flush=True)
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "nproc": os.cpu_count(), "commits": commits, "runs": runs,
              "summary": summarize(runs)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
