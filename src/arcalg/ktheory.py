"""Grothendieck-group combinatorics: weight order, cup-switch sets, K0 matrix.

The partial order on weights of one shape is suffix dominance (more
downs among the last i marks means larger), generated by turning an
adjacent up-down into down-up.  Switching both endpoint marks of cups of
m(w) produces Theta(w), the fixed points of K_w (``diagrams._switches``);
the transformation matrix expands each twisted class in the line-bundle
basis over Theta(w) with alternating signs.

Theta is taken over the cups of m(w), not of the completed matching
C(w): completing first would put both w' in Theta(w) and w in Theta(w')
for pairs like ^^vv / vv^^, destroying triangularity, and it would break
the pinned 2x2 case ([[1,-1],[0,1]] needs Theta(^v) = {^v}).  Every
m(w)-cup carries down-up, so each switch strictly increases the suffix
order: all of Theta(w) sits weakly above w, and the matrix is
unitriangular in any linear extension (the canonical enumeration lists
weights in decreasing order, making it lower unitriangular).
"""
from __future__ import annotations

import json
import math
from typing import NamedTuple

from .diagrams import (DOWN, Shape, ValidationError, Weight, _switches, _weight_of,
                       enumerate_weights)


def weight_leq(w: Weight, v: Weight) -> bool:
    """Suffix dominance: w <= v iff every suffix of v has at least as many downs."""
    if w.n != v.n or w.k != v.k:
        raise ValidationError(f"weights {w} and {v} have different shapes")
    dw = dv = 0
    for cw, cv in zip(reversed(w.marks), reversed(v.marks)):
        dw += cw == DOWN
        dv += cv == DOWN
        if dv < dw:
            return False
    return True


def length(w: Weight) -> int:
    """Inversion count: pairs i < j with a down at i and an up at j."""
    total = downs = 0
    for c in w.marks:
        if c == DOWN:
            downs += 1
        else:
            total += downs
    return total


def theta_set(w: Weight) -> tuple[Weight, ...]:
    """Weights obtained by switching the marks on any subset of m(w)'s cups."""
    return tuple(_weight_of(u, w.n) for u in _switches(w))


class K0Matrix(NamedTuple):
    """Expansion of the twisted classes over the line-bundle basis.

    ``entries[i][j]`` is the coefficient of the j-th weight's line bundle
    in the i-th weight's twisted class; weights follow the canonical
    enumeration (a linear extension of decreasing suffix dominance), so
    the matrix is lower unitriangular.
    """

    shape: Shape
    weights: tuple[Weight, ...]
    entries: tuple[tuple[int, ...], ...]
    direction: str

    def entry(self, w: Weight, v: Weight) -> int:
        for u in (w, v):
            if u not in self.weights:
                raise ValidationError(f"{u!r} is not a weight of shape "
                                      f"({self.shape.n},{self.shape.k})")
        return self.entries[self.weights.index(w)][self.weights.index(v)]

    def _is_lower_triangular(self) -> bool:
        return not any(any(row[i + 1:]) for i, row in enumerate(self.entries))

    def det(self) -> int:
        """Product of the diagonal; raises unless the matrix is lower triangular."""
        if not self._is_lower_triangular():
            raise ValidationError(f"K0 matrix of shape ({self.shape.n},{self.shape.k}) "
                                  "is not lower triangular")
        return math.prod(row[i] for i, row in enumerate(self.entries))

    def is_lower_unitriangular(self) -> bool:
        return self._is_lower_triangular() and \
            all(row[i] == 1 for i, row in enumerate(self.entries))

    def to_json(self) -> str:
        return json.dumps({"shape": [self.shape.n, self.shape.k],
                           "weights": [str(w) for w in self.weights],
                           "entries": [list(r) for r in self.entries],
                           "direction": self.direction})

    def to_csv(self) -> str:
        lines = ["," + ",".join(str(w) for w in self.weights)]
        for w, row in zip(self.weights, self.entries):
            lines.append(str(w) + "," + ",".join(str(x) for x in row))
        return "\n".join(lines)


def k0_matrix(shape: Shape) -> K0Matrix:
    """entry(w, w') = (-1)**(length(w) - length(w')) on Theta(w), else 0."""
    weights = enumerate_weights(shape)
    index = {_switches(w)[-1]: i for i, w in enumerate(weights)}  # w's up-set comes last
    lengths = [length(w) for w in weights]
    entries = []
    for w, lw in zip(weights, lengths):
        row = [0] * len(weights)
        for u in _switches(w):
            j = index[u]
            row[j] = (-1) ** abs(lw - lengths[j])
        entries.append(tuple(row))
    return K0Matrix(shape, tuple(weights), tuple(entries),
                    "theta moves increase the suffix-dominance order: "
                    "support of row w lies weakly above w (lower triangular "
                    "in the canonical enumeration)")
