"""Command-line front end.

Subcommands: enumerate, cup, glue, fixedpoints, cohomology, multiply,
table, check, k0.  Output is deterministic (byte-identical across runs
for identical arguments); use --format json for machine-readable output
(all but check) and --out FILE to write to a file instead of stdout.
Exit codes: 0 on success, 1 on a usage or validation error, 2 when a
check that must pass fails (the witness is printed).

``_CHECKS`` is the one list of the exhaustive checks; ``arcalg check``
and ``scripts/run_checks.py`` both run it through ``_run_checks``.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from typing import NamedTuple

from . import arc_algebra, cohomology, ktheory
from .diagrams import (Shape, ValidationError, Weight, diagram_of,
                       enumerate_standard, enumerate_weights, orientations,
                       render_circle_diagram, render_cup, weight_of_tableau,
                       weight_to_C, weight_to_m)


def _shape(args) -> Shape:
    return Shape(args.n, args.k)


def _emit(args, text: str) -> None:
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text + "\n")


def _cmd_enumerate(args) -> int:
    shape = _shape(args)
    if args.standard:
        tabs = enumerate_standard(shape)
        if args.format == "json":
            _emit(args, json.dumps([{"top": list(t.top), "bottom": list(t.bottom),
                                     "weight": str(weight_of_tableau(t))} for t in tabs]))
        else:
            _emit(args, "\n".join(f"{t}  weight {weight_of_tableau(t)}" for t in tabs))
    else:
        ws = enumerate_weights(shape)
        if args.format == "json":
            _emit(args, json.dumps([str(w) for w in ws]))
        else:
            _emit(args, "\n".join(str(w) for w in ws))
    return 0


def _cmd_cup(args) -> int:
    w = Weight.parse(args.weight)
    m, c = weight_to_m(w), weight_to_C(w)
    if args.format == "json":
        _emit(args, json.dumps({"weight": str(w), "m": json.loads(m.to_json()),
                                "C": json.loads(c.to_json())}))
    else:
        _emit(args, f"m({w}):\n{render_cup(m, w)}\nC({w}):\n{render_cup(c, w)}")
    return 0


def _cmd_glue(args) -> int:
    a, b = Weight.parse(args.a), Weight.parse(args.b)
    if a.n != b.n:
        raise ValidationError("weights --a and --b must have equal length")
    z = diagram_of(a, b)
    census = [{"kind": c.kind, "vertices": list(c.vertices)} for c in z.components]
    if args.format == "json":
        _emit(args, json.dumps({"a": str(a), "b": str(b), "components": census,
                                "circles": z.circle_count()}))
    else:
        lines = [render_circle_diagram(z)]
        for c in z.components:
            lines.append(f"{c.kind}: vertices {','.join(map(str, c.vertices))}")
        lines.append(f"circles: {z.circle_count()}")
        _emit(args, "\n".join(lines))
    return 0


def _cmd_fixedpoints(args) -> int:
    shape = _shape(args)
    a, b = Weight.parse(args.a), Weight.parse(args.b)
    for flag, w in (("--a", a), ("--b", b)):
        if (w.n, w.k) != (shape.n, shape.k):
            raise ValidationError(f"weight {flag} {w} has shape ({w.n},{w.k}), "
                                  f"not --n {shape.n} --k {shape.k}")
    z = diagram_of(a, b)
    vs = orientations(z, a, b)
    if args.format == "json":
        _emit(args, json.dumps({"count": len(vs), "orientations": [str(v) for v in vs]}))
    else:
        _emit(args, "\n".join([f"count {len(vs)}"] + [str(v) for v in vs]))
    return 0


def _cmd_cohomology(args) -> int:
    a = Weight.parse(args.a)
    if args.b is not None:
        b = Weight.parse(args.b)
        poin = cohomology.poincare(a, b, shifted=args.shifted)  # glues; the next call reads it
        res = cohomology.intersection_cohomology(a, b)
        if res is None:
            payload = {"empty": True, "poincare": json.loads(poin.to_json())}
            text = "EMPTY intersection"
        else:
            pres, pb = res
            payload = {"empty": False, "generators": list(pres.generators),
                       "dim": pres.dim, "pullback": json.loads(pb.to_json()),
                       "poincare": json.loads(poin.to_json())}
            text = (f"generators {list(pres.generators)}  dim {pres.dim}\n"
                    f"poincare {poin}")
    else:
        pres, pb = cohomology.stable_cohomology(a)
        poin = cohomology.poincare(a, a, shifted=args.shifted)
        payload = {"generators": list(pres.generators), "dim": pres.dim,
                   "pullback": json.loads(pb.to_json()),
                   "poincare": json.loads(poin.to_json())}
        text = f"generators {list(pres.generators)}  dim {pres.dim}\npoincare {poin}"
    _emit(args, json.dumps(payload) if args.format == "json" else text)
    return 0


def _parse_element(spec: str) -> arc_algebra.AlgebraElement:
    parts = spec.split(",")
    if len(parts) not in (2, 3):
        raise ValidationError(f"element spec {spec!r}: use SRC,TGT or SRC,TGT,ORIENT")
    src, tgt = Weight.parse(parts[0]), Weight.parse(parts[1])
    if len(parts) == 3:
        orient = Weight.parse(parts[2])
        els = [b for b in arc_algebra.basis(src, tgt) if b.orient == orient]
        if not els:
            raise ValidationError(f"{parts[2]} does not orient the {src},{tgt} diagram")
        return arc_algebra.AlgebraElement(src, tgt, {els[0]: 1})
    el = arc_algebra.low_element(src, tgt)
    if el is None:
        raise ValidationError(f"Hom({src},{tgt}) is zero")
    return el


def _cmd_multiply(args) -> int:
    a = _parse_element(args.left)
    b = _parse_element(args.right)
    prod = arc_algebra.multiply(a, b, args.alpha)
    if args.format == "json":
        _emit(args, json.dumps({
            "alpha": args.alpha,
            "terms": [{"src": str(t.src), "tgt": str(t.tgt), "orient": str(t.orient),
                       "coeff": c} for t, c in sorted(prod.terms.items(),
                                                      key=lambda i: str(i[0]))],
            "x_form": prod.x_form()}))
    else:
        _emit(args, f"{prod}\nx-form: {prod.x_form()}")
    return 0


def _cmd_table(args) -> int:
    table = arc_algebra.structure_table(_shape(args), args.alpha,
                                        standard_only=args.standard)
    _emit(args, table.to_json() if args.format == "json" else table.text_dump())
    return 0


class _Check(NamedTuple):
    """One exhaustive check: ``run(shape, alpha, table)`` returns its
    CheckResult, calling ``table()`` for the alpha structure table.  It
    runs at the alphas ``must_pass`` lists, and a FAIL at alpha is a
    failure only where ``must_pass[alpha]`` is True.
    """

    name: str
    title: str
    run: Callable[[Shape, int, Callable[[], arc_algebra.StructureTable]],
                  arc_algebra.CheckResult]
    must_pass: dict[int, bool]


_CHECKS = (
    # alpha = -1 is the product that is not associative
    _Check("assoc", "associativity",
           lambda shape, alpha, table: arc_algebra._associativity(table()), {1: True, -1: False}),
    _Check("orders", "order-independence",
           lambda shape, alpha, table: arc_algebra.check_order_independence(shape, alpha),
           {1: True, -1: True}),
    # it compares alpha = -1 products only, whatever alpha it is given
    _Check("nested", "nested-TQFT agreement",
           lambda shape, alpha, table: arc_algebra.check_nested_agreement(shape), {-1: True}),
    _Check("degree", "degree additivity",
           lambda shape, alpha, table: arc_algebra._degree_additivity(table()), {1: True, -1: True}),
    _Check("unit", "unit law",
           lambda shape, alpha, table: arc_algebra._unit(table()), {1: True, -1: True}),
)


def _run_checks(shape: Shape, alpha: int, which: str = "all"):
    """Run the checks of ``_CHECKS`` that ``which`` names and that run at alpha.

    Yields (check, result, verdict) per check, in ``_CHECKS`` order; the
    verdict is PASS, FAIL (a check that must pass failed) or FAIL
    (expected).  The alpha table is built at most once, by the first
    check that reads it, and shared.  ValidationError if ``which`` names
    a check that does not run at alpha.
    """
    checks = [c for c in _CHECKS if which in ("all", c.name) and alpha in c.must_pass]
    if not checks:
        raise ValidationError(f"check {which} does not run at alpha {alpha:+d}")
    table = functools.cache(functools.partial(arc_algebra.structure_table, shape, alpha))
    for check in checks:
        res = check.run(shape, alpha, table)
        verdict = ("PASS" if res.ok else "FAIL" if check.must_pass[alpha]
                   else "FAIL (expected)")
        yield check, res, verdict


def _cmd_check(args) -> int:
    failed = False
    lines = []
    for check, res, verdict in _run_checks(_shape(args), args.alpha, args.which):
        lines.append(f"{check.title}: {verdict}")
        if not res.ok:
            lines.append(f"  witness: {res.witness}")
        failed |= verdict == "FAIL"
    _emit(args, "\n".join(lines))
    return 2 if failed else 0


def _cmd_k0(args) -> int:
    mat = ktheory.k0_matrix(_shape(args))
    if args.format == "json":
        _emit(args, mat.to_json())
    elif args.format == "csv":
        _emit(args, mat.to_csv())
    else:
        lines = ["  ".join(str(w) for w in mat.weights)]
        for w, row in zip(mat.weights, mat.entries):
            lines.append(f"{w}  " + " ".join(f"{x:+d}" if x else " 0" for x in row))
        lines.append(f"det {mat.det()}")
        lines.append(mat.direction)
        _emit(args, "\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: exit code 2 means a check failed."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arcalg",
        description="Cup-diagram combinatorics, cohomology presentations, and the arc algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, shape=False, fmt=("text", "json")):
        if shape:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--format", choices=fmt, default="text")
        p.add_argument("--out", default=None, help="write output to FILE")

    p = sub.add_parser("enumerate", help="list weights or standard tableaux")
    add_common(p, shape=True)
    p.add_argument("--standard", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("cup", help="render m(w) and C(w)")
    add_common(p)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_cup)

    p = sub.add_parser("glue", help="component census of the glued diagram")
    add_common(p)
    p.add_argument("--a", required=True, help="bottom weight")
    p.add_argument("--b", required=True, help="top weight")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("fixedpoints", help="orientations of a glued pair")
    add_common(p, shape=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_fixedpoints)

    p = sub.add_parser("cohomology", help="presentations and Poincare polynomials")
    add_common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--shifted", action="store_true")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("multiply", help="product of two elements")
    add_common(p)
    p.add_argument("--alpha", type=int, choices=(1, -1), default=1)
    p.add_argument("--left", required=True, help="SRC,TGT[,ORIENT]")
    p.add_argument("--right", required=True, help="SRC,TGT[,ORIENT]")
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("table", help="full structure-constant table")
    add_common(p, shape=True)
    p.add_argument("--alpha", type=int, choices=(1, -1), default=1)
    p.add_argument("--standard", action="store_true", dest="standard")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("check", help="exhaustive algebra checks")
    add_common(p, shape=True, fmt=("text",))
    p.add_argument("--alpha", type=int, choices=(1, -1), default=1)
    p.add_argument("--which", choices=(*(c.name for c in _CHECKS), "all"), default="all")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("k0", help="transformation matrix between the two K0 bases")
    add_common(p, shape=True, fmt=("text", "json", "csv"))
    p.set_defaults(func=_cmd_k0)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
