#!/usr/bin/env python3
"""Desk-scale verification report.

Runs the exhaustive algebra checks over a range of shapes and prints one
line per (shape, check).  The alpha = +1 and -1 structure tables are
built once per shape and shared by the checks that read them, so a
check's time includes the builds of the tables no earlier check of its
shape needed.  Exit code 2 if anything unexpected fails, 1 if --max-n
is below 2.

Usage:
    python scripts/run_checks.py [--max-n 6]
"""
import argparse
import functools
import sys
import time

from arcalg.arc_algebra import (_associativity, _degree_additivity,
                                check_nested_agreement, check_order_independence,
                                check_unit, structure_table)
from arcalg.diagrams import Shape


def main() -> int:
    parser = argparse.ArgumentParser()
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
        table = functools.cache(functools.partial(structure_table, shape))
        for name, run, expect_ok in [
            ("unit(+1)", lambda s=shape: check_unit(s, 1), True),
            ("unit(-1)", lambda s=shape: check_unit(s, -1), True),
            ("orders(+1)", lambda s=shape: check_order_independence(s, 1), True),
            ("orders(-1)", lambda s=shape: check_order_independence(s, -1), True),
            ("degree(+1)", lambda: _degree_additivity(table(1)), True),
            ("degree(-1)", lambda: _degree_additivity(table(-1)), True),
            ("nested=-1", lambda s=shape: check_nested_agreement(s), True),
            ("assoc(+1)", lambda: _associativity(table(1)), True),
            ("assoc(-1)", lambda: _associativity(table(-1)), None),
        ]:
            t0 = time.perf_counter()
            res = run()
            elapsed = time.perf_counter() - t0
            verdict = "PASS" if res.ok else "FAIL"
            line = f"({shape.n},{shape.k}) {name:>11}: {verdict}  [{elapsed:6.2f}s]"
            if not res.ok:
                line += f"  witness: {res.witness}"
            print(line, flush=True)
            if expect_ok is True and not res.ok:
                failed = True
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
