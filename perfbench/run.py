"""Cold-process benchmark of arcalg: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload algebra62|cohom_k0 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured process is a fresh
interpreter started from ``perfbench/workloads.py``, one at a time, so
the package's memos start empty every time (closed loop, one caller).
Another process is started only while it still fits in ``--seconds``;
at least one always runs.  A set-up-only process warms the file cache
first and is not counted.  Timings are medians over the processes of
the run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` one untraced and one traced process run, and it
carries the per-layer metrics and the tracing overhead.  The line
before it (``detail ...``) adds the workload-specific figures, the
cache sizes and the environment.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS

CHILD = Path(__file__).resolve().parent / "workloads.py"

DEADLINE_S = 170  # a run must end within 180 s

# Layer metrics that come from span counts and self times.
LAYER_CALLS = ("diagrams.weight_to_m", "diagrams.glue", "diagrams.orientations",
               "diagrams.orientation_degree", "diagrams.epsilon", "diagrams.equivalence",
               "arc_algebra.basis", "ktheory.theta_set")
LAYER_SELF = ("diagrams.weight_to_m", "diagrams.glue", "diagrams.orientations",
              "diagrams.orientation_degree", "diagrams.epsilon", "diagrams.equivalence",
              "arc_algebra.structure_table", "arc_algebra.check_associativity",
              "arc_algebra.basis", "cohomology.intersection_cohomology",
              "cohomology.poincare", "cohomology.kernel_contains_both",
              "cohomology.odd_normalization", "ktheory.k0_matrix",
              "ktheory.K0Matrix.det", "cli.main")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def monotonic() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child can subtract
    # the parent's reading taken before it was started.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(args, out_dir: Path, deadline: float, trace: int = 0,
              setup_only: bool = False) -> dict:
    spawned_at = monotonic()
    cmd = [sys.executable, str(CHILD), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--spawned-at", repr(spawned_at), "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    # A fixed hash seed takes string-hash layout out of the run-to-run spread.
    env = dict(os.environ, PYTHONHASHSEED="0")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, env=env) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args.workload} process ran past the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{args.workload} process exited with {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    record["wall_s"] = monotonic() - spawned_at
    return record


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it; else 'unknown'."""
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
    return "unknown"


def environment(args) -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "commit": git_commit(), "seed": args.seed}


def measure(args, out_dir: Path, deadline: float) -> list[dict]:
    """Measured processes that fit in ``--seconds``."""
    start = monotonic()
    run_child(args, out_dir, deadline, setup_only=True)  # warm-up, not counted
    runs = []
    while True:
        runs.append(run_child(args, out_dir, deadline))
        per_run = statistics.median(r["wall_s"] for r in runs)
        if monotonic() + per_run > start + args.seconds:
            break
    return runs


def gate_totals(runs: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    return attempted, len(failures), failures


def workload_figures(workload: str, runs: list[dict]) -> dict:
    """The workload-specific figures named after what they time."""
    med = lambda key: statistics.median(r["steps"][key] for r in runs)  # noqa: E731
    if workload == "algebra62":
        return {"table_plus_s": med("table+1"), "table_minus_s": med("table-1"),
                "assoc_plus_s": med("assoc+1"), "witness_s": med("assoc-1")}
    lat = [x for r in runs for x in r["latencies_ms"]]
    return {"k0_s": med("k0"), "pairs_s": med("pairs"), "op_p50_ms": percentile(lat, 50),
            "op_p99_ms": percentile(lat, 99), "op_samples": len(lat),
            "nonempty_ratio": sum(r["nonempty"] for r in runs) / sum(r["ops"] for r in runs)}


def end_to_end_metrics(runs: list[dict]) -> dict:
    """Name -> (value, unit) of the end-to-end metrics, medians over ``runs``."""
    med = lambda f: statistics.median(f(r) for r in runs)  # noqa: E731
    return {
        "setup_s": (med(lambda r: r["setup_s"]), "s"),
        "run_s": (med(lambda r: r["run_s"]), "s"),
        "ops_per_s": (med(lambda r: r["ops"] / r["ops_s"]), "1/s"),
        "peak_rss_mb": (med(lambda r: r["peak_rss_mb"]), "MB"),
    }


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Name -> (value, unit) of the per-layer metrics of one traced process."""
    layers = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (layers.get(name, (0, 0.0))[0], "count")
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = (layers.get(name, (0, 0.0))[1], "s")
    for name in ("basis", "diagram_of"):
        metrics[f"arc_algebra.{name}.cache_entries"] = (traced["cache_entries"][name], "count")
    # pairs with a nonempty intersection per op; 0 where no pairs are run
    metrics["cohomology.nonempty_ratio"] = (traced["nonempty"] / traced["ops"], "ratio")
    metrics["trace.overhead_s"] = (traced["run_s"] - plain["run_s"], "s")
    return metrics


def end_to_end(args, out_dir: Path, deadline: float) -> tuple[dict, dict, list[dict]]:
    runs = measure(args, out_dir, deadline)
    detail = {"processes": [{"setup_s": r["setup_s"], "run_s": r["run_s"],
                             "ops_per_s": r["ops"] / r["ops_s"], "steps": r["steps"]}
                            for r in runs],
              **workload_figures(args.workload, runs)}
    return end_to_end_metrics(runs), detail, runs


def per_layer(args, out_dir: Path, deadline: float) -> tuple[dict, dict, list[dict]]:
    plain = run_child(args, out_dir, deadline)
    traced = run_child(args, out_dir, deadline, trace=1)
    detail = {"untraced_run_s": plain["run_s"], "traced_run_s": traced["run_s"],
              "spans": {k: {"calls": c, "self_s": s}
                        for k, (c, s) in sorted(traced["layers"].items())}}
    return layer_metrics(plain, traced), detail, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "arcalg" / "__init__.py").is_file():
        print(f"perfbench: no arcalg sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = monotonic()
    out_dir = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        collect = per_layer if args.trace else end_to_end
        metrics, detail, runs = collect(args, out_dir, started + DEADLINE_S)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass
    attempted, failed, failures = gate_totals(runs)
    detail.update(workload=args.workload, trace=args.trace, env=environment(args),
                  attempted=attempted, failed=failed, fail_rate=failed / attempted,
                  failures=failures[:20],
                  cache_entries_at_end=[r["cache_entries"] for r in runs],
                  wall_s=monotonic() - started)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
