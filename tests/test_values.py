"""The public value types: immutable tuples of their fields, checked on construction."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arcalg import arc_algebra, cohomology, diagrams, ktheory
from arcalg.arc_algebra import (AlgebraElement, BasisElement, CheckResult,
                                check_associativity, clear_caches, idempotent,
                                structure_table)
from arcalg.cohomology import GradedDim, odd_normalization, poincare, stable_cohomology
from arcalg.diagrams import (Shape, ValidationError, Weight, diagram_of, equivalence,
                             tableau_of_weight, weight_to_m)
from arcalg.ktheory import k0_matrix

ROOT = Path(__file__).resolve().parents[1]
X, Y = Weight("v^v^"), Weight("vv^^")

# name -> (build a fresh value, field overrides that must be refused)
VALUES = {
    "Shape": (lambda: Shape(4, 2), [{"k": 3}, {"n": 0}]),
    "Weight": (lambda: Weight("v^v^"),
               [{"marks": ""}, {"marks": "^x"}, {"marks": ["^", "v"]}, {"marks": 12}]),
    "StandardTableau": (lambda: tableau_of_weight(X),
                        [{"bottom": (3,)}, {"top": (2, 4)}, {"top": (), "bottom": (2, 1)}]),
    "CupDiagram": (lambda: weight_to_m(X),
                   [{"cups": ((1, 3),), "rays": (2, 4)}, {"cups": ((1, 2), (2, 3)), "rays": (4,)},
                    {"n": 5}]),
    "Component": (lambda: diagram_of(X, Y).components[0], []),
    "CircleDiagram": (lambda: diagram_of(X, Y), []),
    "EquivalenceData": (lambda: equivalence(weight_to_m(X), weight_to_m(Y)), []),
    "RingPresentation": (lambda: stable_cohomology(X)[0], []),
    "PullbackMap": (lambda: stable_cohomology(X)[1],
                    [{"images": ((),)}, {"images": (((1, 2),), (), (), ())}]),
    "GradedDim": (lambda: poincare(X, Y, shifted=True), []),
    "OddNormalization": (lambda: odd_normalization(X, Y), []),
    "BasisElement": (lambda: BasisElement(X, X, X), []),
    "AlgebraElement": (lambda: idempotent(X),
                       [{"terms": {BasisElement(Y, Y, Y): 1}},  # a term of another Hom
                        {"terms": {BasisElement(X, X, Y): 1}}]),  # Y does not orient X | X
    "StructureTable": (lambda: structure_table(Shape(4, 2)), []),
    "CheckResult": (lambda: check_associativity(Shape(4, 2), -1), []),
    "K0Matrix": (lambda: k0_matrix(Shape(4, 2)), []),
}


def test_every_public_value_type_is_covered():
    public = {name for mod in (diagrams, cohomology, arc_algebra, ktheory)
              for name, obj in vars(mod).items()
              if isinstance(obj, type) and issubclass(obj, tuple) and not name.startswith("_")}
    assert public == set(VALUES)


@pytest.mark.parametrize("name", VALUES)
def test_value_semantics(name):
    build, bads = VALUES[name]
    clear_caches()
    first = build()
    clear_caches()
    second = build()
    assert type(first).__name__ == name and first is not second
    assert first == second and first == tuple(second)
    if name in ("AlgebraElement", "StructureTable"):  # they hold a dict
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
    with pytest.raises(AttributeError):
        setattr(first, first._fields[0], second[0])
    with pytest.raises(AttributeError):
        first.extra = 1
    assert first._replace() == first
    for bad in bads:
        with pytest.raises(ValidationError):
            type(first)(**{**first._asdict(), **bad})
        with pytest.raises(ValidationError):
            first._replace(**bad)


def test_normalizing_types_normalize_through_replace():
    assert GradedDim(1, (0, 2, 0))._replace(coeffs=(0, 0, 1, 0)) == GradedDim(4, (1,))
    cups = weight_to_m(X)._replace(cups=((3, 4), (1, 2))).cups
    assert cups == ((1, 2), (3, 4))
    zero = idempotent(X)._replace(terms={BasisElement(X, X, X): 0})
    assert zero == AlgebraElement(X, X) and zero.is_zero()


def test_graded_dims_do_not_concatenate_or_repeat():
    g, h = GradedDim(0, (1, 1)), GradedDim.one()
    with pytest.raises(TypeError):
        g + h
    with pytest.raises(TypeError):
        2 * g
    assert g * h == g


def test_check_result_truth_is_ok():
    assert CheckResult(True) and not CheckResult(False, "witness")


def test_import_needs_neither_dataclasses_nor_inspect():
    # a fresh interpreter: pytest itself imports both
    code = ("import sys\n"
            "import arcalg.diagrams, arcalg.cohomology, arcalg.arc_algebra, arcalg.ktheory, arcalg.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
