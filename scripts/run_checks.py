#!/usr/bin/env python3
"""Desk-scale verification report.

Runs every exhaustive check of ``arcalg check`` (``arcalg.cli._CHECKS``)
at alpha +1, then -1, over a range of shapes, and prints one line per
(shape, check, alpha).  Each alpha table is built once per shape and
shared by the checks that read it, so a check's time includes the build
of the table if no earlier check of its shape and alpha needed it.  The
expected alpha -1 associativity failure prints as FAIL (expected).
Exit code 2 if a check that must pass fails, 1 on a usage error or if
--max-n is below 2.

Usage:
    python scripts/run_checks.py [--max-n 6]
"""
import sys
import time

from arcalg.cli import _Parser, _run_checks
from arcalg.diagrams import Shape


def main() -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=6)
    args = parser.parse_args()
    if args.max_n < 2:
        print(f"error: --max-n {args.max_n} checks no shape; it must be at least 2",
              file=sys.stderr)
        return 1

    shapes = [Shape(n, k) for n in range(2, args.max_n + 1)
              for k in range(1, n // 2 + 1)]
    failed = False
    for shape in shapes:
        for alpha in (1, -1):
            start = time.perf_counter()
            for check, res, verdict in _run_checks(shape, alpha):
                elapsed = time.perf_counter() - start
                label = f"{check.name}({alpha:+d})"
                line = f"({shape.n},{shape.k}) {label:>11}: {verdict}  [{elapsed:6.2f}s]"
                if not res.ok:
                    line += f"  witness: {res.witness}"
                print(line, flush=True)
                failed |= verdict == "FAIL"
                start = time.perf_counter()
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
