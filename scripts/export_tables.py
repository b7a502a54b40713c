#!/usr/bin/env python3
"""Dump structure-constant tables and K0 matrices for a range of shapes.

Usage:
    python scripts/export_tables.py --out-dir out [--max-n 6]

Writes, per shape, `table_nK_kK_alpha{+1,-1}.json`, a text dump with
ASCII diagrams, and `k0_*.csv` for the balanced shapes.  Exit code 1
on a usage error or if --max-n is below 2.
"""
import pathlib
import sys

from arcalg.arc_algebra import structure_table
from arcalg.cli import _Parser
from arcalg.diagrams import Shape
from arcalg.ktheory import k0_matrix


def main() -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--max-n", type=int, default=6)
    args = parser.parse_args()
    if args.max_n < 2:
        print(f"error: --max-n {args.max_n} exports no shape; it must be at least 2",
              file=sys.stderr)
        return 1
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for n in range(2, args.max_n + 1):
        for k in range(1, n // 2 + 1):
            shape = Shape(n, k)
            for alpha in (1, -1):
                table = structure_table(shape, alpha)
                stem = f"table_n{n}_k{k}_alpha{alpha:+d}"
                (out / f"{stem}.json").write_text(table.to_json() + "\n")
                (out / f"{stem}.txt").write_text(table.text_dump() + "\n")
            if n == 2 * k:
                mat = k0_matrix(shape)
                (out / f"k0_n{n}_k{k}.csv").write_text(mat.to_csv() + "\n")
                (out / f"k0_n{n}_k{k}.json").write_text(mat.to_json() + "\n")
            print(f"wrote shape ({n},{k})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
