"""One cold run of one workload, in the interpreter this file is started in.

    python3 perfbench/workloads.py --workload NAME --seed N --trace 0|1 \
        --spawned-at T --out-dir DIR [--setup-only]

``perfbench/run.py`` starts this file once per measured process, so the
module-level memos of arcalg (``_PRODUCT_CACHE`` and the ``lru_cache``s)
start empty exactly as they do for a user's ``arcalg`` call.  It prints
one JSON object on its last stdout line: set-up time, the time of each
timed step, the outputs' gate results and, when traced, the spans'
calls and self times.  Only public functions of arcalg are timed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import resource
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Each measured process does 2-4 s of work, so a run holds 15-25 of them
# and its medians are taken over many samples of the host's speed.
ALGEBRA_SHAPE = (6, 2)
# SHA-256 of structure_table(Shape(6, 2), alpha).to_json(), recorded at the
# commit that added this benchmark; the CLI writes that text plus "\n".
TABLE_DIGESTS = {
    1: "671a046e864f72d6a48469840db14e6042ad8baf64dd933cd302c884187479f5",
    -1: "3433319e306b0bd87418b85f7e4fcc2a2d7aaabdb1f2e557673246046dde43f1",
}
COHOM_SHAPE = (10, 5)
COHOM_PAIRS = 1000
K0_SHAPE = (10, 5)

WORKLOADS = ("algebra62", "cohom_k0")


def import_arcalg():
    """Import arcalg from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "arcalg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no arcalg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import arcalg
    from arcalg import arc_algebra, cli, cohomology, diagrams, ktheory
    if Path(arcalg.__file__).resolve().parent != SRC / "arcalg":
        raise SystemExit(f"perfbench: imported arcalg from {arcalg.__file__}, not {SRC}")
    return arc_algebra, cli, cohomology, diagrams, ktheory


# ---------------------------------------------------------------------------
# inputs


def sample_pairs(weights: list, seed: int, count: int) -> list[tuple]:
    """``count`` distinct ordered pairs of ``weights``, drawn from ``seed``."""
    n = len(weights)
    picks = random.Random(seed).sample(range(n * n), count)
    return [(weights[p // n], weights[p % n]) for p in picks]


# ---------------------------------------------------------------------------
# gates: each returns None when the output is right, else why it is wrong


def table_gate(path: Path, expected: str) -> str | None:
    """The table file holds the JSON whose SHA-256 is ``expected``."""
    data = path.read_bytes()
    if not data.endswith(b"\n"):
        return f"{path.name}: output does not end with a newline"
    got = hashlib.sha256(data[:-1]).hexdigest()
    if got != expected:
        return f"{path.name}: sha256 {got[:12]}... != recorded {expected[:12]}..."
    return None


_WITNESS = re.compile(r"a=\[(\S+?)\|(\S+?)\|(\S+?)\] b=\[(\S+?)\|(\S+?)\|(\S+?)\] "
                      r"c=\[(\S+?)\|(\S+?)\|(\S+?)\]:")


def witness_gate(arc_algebra, diagrams, witness: str | None) -> str | None:
    """The witness names a basis triple that really fails to associate at alpha -1."""
    match = _WITNESS.match(witness or "")
    if match is None:
        return f"unparsable witness {witness!r}"
    marks = [diagrams.Weight.parse(t) for t in match.groups()]
    elems = []
    for src, tgt, orient in (marks[0:3], marks[3:6], marks[6:9]):
        if orient not in {b.orient for b in arc_algebra.basis(src, tgt)}:
            return f"witness element [{src}|{tgt}|{orient}] is not a basis element"
        elems.append(arc_algebra.AlgebraElement(
            src, tgt, {arc_algebra.BasisElement(src, tgt, orient): 1}))
    a, b, c = elems
    mul = arc_algebra.multiply
    if mul(mul(a, b, -1), c, -1) == mul(a, mul(b, c, -1), -1):
        return f"witness triple associates at alpha -1: {witness}"
    return None


def pair_gate(diagrams, w, v, poin, inter, kernel_ok: bool, odd) -> str | None:
    """Cohomology outputs of one pair agree with the orientation count."""
    count = len(diagrams.orientations(
        diagrams.glue(diagrams.weight_to_m(v), diagrams.weight_to_m(w)), w, v))
    if not kernel_ok:
        return f"{w},{v}: kernel containment fails"
    if not odd.ok:
        return f"{w},{v}: odd normalization fails"
    if poin.total() != count:
        return f"{w},{v}: poincare total {poin.total()} != {count} orientations"
    if (inter is None) != (count == 0):
        return f"{w},{v}: intersection {'empty' if inter is None else 'nonempty'} " \
               f"with {count} orientations"
    return None


# ---------------------------------------------------------------------------
# workloads: set-up, then the timed steps, then the gates


def composable_pairs(arc_algebra, diagrams, shape) -> int:
    """Number of basis pairs (a, b) with a's target equal to b's source."""
    weights = diagrams.enumerate_weights(shape)
    n_src = {w: 0 for w in weights}
    n_tgt = {w: 0 for w in weights}
    for x in weights:
        for y in weights:
            size = len(arc_algebra.basis(x, y))
            n_src[x] += size
            n_tgt[y] += size
    return sum(n_tgt[y] * n_src[y] for y in weights)


class Run:
    """Timing and gate results of one process."""

    def __init__(self) -> None:
        self.steps: dict[str, float] = {}
        self.ops = 0
        self.ops_s = 0.0
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.nonempty = 0

    def gate(self, why: str | None) -> None:
        self.attempted += 1
        if why is not None:
            self.failures.append(why)

    def timed(self, step: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.steps[step] = time.perf_counter() - start
        return out


def setup_algebra62(mods, args):
    out_dir = Path(args.out_dir)
    argvs = {alpha: ["table", "--n", str(ALGEBRA_SHAPE[0]), "--k", str(ALGEBRA_SHAPE[1]),
                     "--alpha", str(alpha), "--format", "json",
                     "--out", str(out_dir / f"table_{alpha:+d}.json")]
             for alpha in (1, -1)}
    return argvs, mods["diagrams"].Shape(*ALGEBRA_SHAPE)


def run_algebra62(mods, inputs, run: Run):
    """Both tables, then the associativity check of the same algebra.

    The tables multiply every composable pair once per alpha and leave the
    products in the package's memo, so the check that follows costs what
    its own driver, the memo lookups and the element arithmetic cost.
    """
    arc_algebra, cli, diagrams = mods["arc_algebra"], mods["cli"], mods["diagrams"]
    argvs, shape = inputs
    codes = {alpha: run.timed(f"table{alpha:+d}", cli.main, argvs[alpha]) for alpha in (1, -1)}
    run.ops_s = run.steps["table+1"] + run.steps["table-1"]
    plus = run.timed("assoc+1", arc_algebra.check_associativity, shape, 1)
    minus = run.timed("assoc-1", arc_algebra.check_associativity, shape, -1)

    def gates():
        for alpha in (1, -1):
            if codes[alpha] != 0:
                run.gate(f"table alpha={alpha:+d}: exit code {codes[alpha]}")
            else:
                run.gate(table_gate(Path(argvs[alpha][-1]), TABLE_DIGESTS[alpha]))
        run.gate(None if plus.ok else f"alpha=+1 associativity fails: {plus.witness}")
        run.gate("alpha=-1 associativity passes" if minus.ok
                 else witness_gate(arc_algebra, diagrams, minus.witness))
        run.ops = 2 * composable_pairs(arc_algebra, diagrams, shape)
    return gates


def setup_cohom_k0(mods, args):
    diagrams = mods["diagrams"]
    weights = diagrams.enumerate_weights(diagrams.Shape(*COHOM_SHAPE))
    return sample_pairs(weights, args.seed, COHOM_PAIRS), diagrams.Shape(*K0_SHAPE)


def run_cohom_k0(mods, inputs, run: Run):
    cohomology, ktheory, diagrams = mods["cohomology"], mods["ktheory"], mods["diagrams"]
    pairs, k0_shape = inputs
    clock = time.perf_counter
    outs = []
    start = clock()
    for w, v in pairs:
        t0 = clock()
        out = (cohomology.poincare(w, v, shifted=True),
               cohomology.intersection_cohomology(w, v),
               cohomology.kernel_contains_both(w, v),
               cohomology.odd_normalization(w, v))
        run.latencies_ms.append((clock() - t0) * 1e3)
        outs.append(out)
    run.steps["pairs"] = run.ops_s = clock() - start
    run.ops = len(pairs)

    def k0():
        mat = ktheory.k0_matrix(k0_shape)
        return mat.is_lower_unitriangular(), mat.det()
    triangular, det = run.timed("k0", k0)

    def gates():
        for (w, v), out in zip(pairs, outs):
            run.gate(pair_gate(diagrams, w, v, *out))
            run.nonempty += out[1] is not None
        run.gate(None if triangular and det == 1 else
                 f"K0{K0_SHAPE}: lower unitriangular {triangular}, det {det}")
    return gates


SETUP = {"algebra62": setup_algebra62, "cohom_k0": setup_cohom_k0}
RUN = {"algebra62": run_algebra62, "cohom_k0": run_cohom_k0}


def cache_entries(arc_algebra) -> dict[str, int]:
    """Entries of the public memos, through ``cache_info()`` where it exists."""
    out = {}
    for name in ("basis", "diagram_of"):
        info = getattr(getattr(arc_algebra, name), "cache_info", None)
        out[name] = info().currsize if info else 0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    arc_algebra, cli, cohomology, diagrams, ktheory = import_arcalg()
    mods = {"arc_algebra": arc_algebra, "cli": cli, "cohomology": cohomology,
            "diagrams": diagrams, "ktheory": ktheory}
    inputs = SETUP[args.workload](mods, args)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    leaked = {k: v for k, v in cache_entries(arc_algebra).items() if v}
    if leaked:
        raise SystemExit(f"perfbench: memos not empty before the timed calls: {leaked}")
    record = {"setup_s": setup_s}
    if not args.setup_only:
        run = Run()
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        try:
            gates = RUN[args.workload](mods, inputs, run)
        finally:
            if tracer:
                tracer.uninstall()
        # Read before the gates, which fill the memos and allocate for themselves.
        caches = cache_entries(arc_algebra)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gates()
        record.update(
            steps=run.steps, run_s=sum(run.steps.values()), ops=run.ops, ops_s=run.ops_s,
            latencies_ms=run.latencies_ms, attempted=run.attempted, failures=run.failures,
            nonempty=run.nonempty, cache_entries=caches, peak_rss_mb=peak_rss_mb)
        if tracer:
            record["layers"] = tracer.log.self_times()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
