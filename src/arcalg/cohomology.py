"""Square-zero ring presentations and pullback maps.

Every ring appearing here is an exterior-style quotient on degree-2
generators x_i with x_i**2 = 0, so a presentation is just an ordered set
of generator indices.  Pullbacks from the ambient n-variable ring send
each x_i to an integer combination of generators; for components and
stable manifolds the image is 0 or a signed single generator, for
pairwise intersections it is the epsilon-transport to the circle's
leftmost representative.

EMPTY intersections are reported as None, mirroring a zero Hom space
rather than a zero ring.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from . import _linalg
from .diagrams import (CIRCLE, CupDiagram, StandardTableau, ValidationError,
                       Weight, diagram_of, epsilon, orientation_degree,
                       orientations, tableau_to_cup, weight_to_m)


@dataclass(frozen=True)
class RingPresentation:
    """C[x_g : g in generators] / (x_g**2), each generator in degree 2."""

    generators: tuple[int, ...]

    @property
    def dim(self) -> int:
        return 2 ** len(self.generators)

    def hilbert(self) -> "GradedDim":
        out = GradedDim.one()
        for _ in self.generators:
            out = out * GradedDim(0, (1, 0, 1))
        return out

    def to_json(self) -> str:
        return json.dumps({"generators": list(self.generators)})


@dataclass(frozen=True)
class PullbackMap:
    """Images of x_1..x_n as signed combinations of the target generators.

    ``images[i-1]`` lists (generator, coefficient) pairs; coefficients
    are always -1 or +1 and absent generators mean coefficient 0.
    """

    n: int
    images: tuple[tuple[tuple[int, int], ...], ...]

    def image(self, i: int) -> tuple[tuple[int, int], ...]:
        return self.images[i - 1]

    def matrix(self, generators: tuple[int, ...]) -> list[list[int]]:
        """Rows indexed by generators, columns by x_1..x_n."""
        gidx = {g: r for r, g in enumerate(generators)}
        mat = [[0] * self.n for _ in generators]
        for i in range(1, self.n + 1):
            for g, coeff in self.image(i):
                mat[gidx[g]][i - 1] = coeff
        return mat

    def to_json(self) -> str:
        return json.dumps({str(i + 1): [list(t) for t in row]
                           for i, row in enumerate(self.images)})


@dataclass(frozen=True)
class GradedDim:
    """Laurent polynomial in q with non-negative integer coefficients."""

    offset: int
    coeffs: tuple[int, ...]

    @staticmethod
    def zero() -> "GradedDim":
        return GradedDim(0, ())

    @staticmethod
    def one() -> "GradedDim":
        return GradedDim(0, (1,))

    def __mul__(self, other: "GradedDim") -> "GradedDim":
        if not self.coeffs or not other.coeffs:
            return GradedDim.zero()
        coeffs = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                coeffs[i + j] += a * b
        return GradedDim(self.offset + other.offset, tuple(coeffs))

    def shift(self, d: int) -> "GradedDim":
        if not self.coeffs:
            return self
        return GradedDim(self.offset + d, self.coeffs)

    def total(self) -> int:
        return sum(self.coeffs)

    def normalized(self) -> "GradedDim":
        coeffs = list(self.coeffs)
        off = self.offset
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            off += 1
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return GradedDim(off if coeffs else 0, tuple(coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedDim):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        return (a.offset, a.coeffs) == (b.offset, b.coeffs)

    def __hash__(self) -> int:
        a = self.normalized()
        return hash((a.offset, a.coeffs))

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            d = self.offset + i
            q = "1" if d == 0 else "q" if d == 1 else f"q^{d}"
            terms.append(q if c == 1 and d != 0 else str(c) if d == 0 else f"{c}*{q}")
        return " + ".join(terms) if terms else "0"

    def to_json(self) -> str:
        return json.dumps({"offset": self.offset, "coeffs": list(self.coeffs)})


# ---------------------------------------------------------------------------


def component_cohomology(s: StandardTableau) -> tuple[RingPresentation, PullbackMap]:
    """Presentation of a component's cohomology: generators at left cup ends."""
    cup = tableau_to_cup(s)
    return _cup_presentation(cup)


def stable_cohomology(w: Weight) -> tuple[RingPresentation, PullbackMap]:
    """Same presentation for a stable manifold, using m(w)."""
    return _cup_presentation(weight_to_m(w))


def _cup_presentation(cup: CupDiagram) -> tuple[RingPresentation, PullbackMap]:
    gens = cup.left_ends()
    images: list[tuple[tuple[int, int], ...]] = []
    for i in range(1, cup.n + 1):
        if i in gens:
            images.append(((i, 1),))
        elif cup.is_matched(i):
            images.append(((cup.sigma(i), -1),))
        else:
            images.append(())
    return RingPresentation(gens), PullbackMap(cup.n, tuple(images))


def intersection_cohomology(w: Weight, wp: Weight) -> tuple[RingPresentation, PullbackMap] | None:
    """Presentation for a pairwise intersection, or None if it is empty.

    Generators are the leftmost points of the circles of the glued
    diagram; the pullback transports x_i along its circle with the sign
    epsilon(i, generator), and kills points on lines.
    """
    if w.shape() != wp.shape():
        raise ValidationError("weights must share a shape")
    z = diagram_of(w, wp)
    if not orientations(z, w, wp):
        return None
    circles = z.circles()
    images: list[tuple[tuple[int, int], ...]] = [()] * w.n
    for comp in circles:
        for i in comp.vertices:
            images[i - 1] = ((comp.leftmost, epsilon(z, i, comp.leftmost)),)
    return (RingPresentation(tuple(c.leftmost for c in circles)),
            PullbackMap(w.n, tuple(images)))


def intrinsic_min_degree(w: Weight, wp: Weight) -> int | None:
    """Smallest orientation degree of the glued diagram; None when empty."""
    z = diagram_of(w, wp)
    degs = [orientation_degree(z, v) for v in orientations(z, w, wp)]
    return min(degs) if degs else None


def poincare(w: Weight, wp: Weight, shifted: bool = False) -> GradedDim:
    """(1 + q^2) per circle, multiplied by q**(minimal degree) if shifted."""
    z = diagram_of(w, wp)
    vs = orientations(z, w, wp)
    if not vs:
        return GradedDim.zero()
    out = RingPresentation(tuple(c.leftmost for c in z.circles())).hilbert()
    if shifted:
        out = out.shift(min(orientation_degree(z, v) for v in vs))
    return out


# ---------------------------------------------------------------------------
# consistency checks used by the acceptance suite


def pullback_is_surjective(pres: RingPresentation, pb: PullbackMap) -> bool:
    mat = pb.matrix(pres.generators)
    return _linalg.rank(mat) == len(pres.generators)


def kernel_contains_both(w: Weight, wp: Weight) -> bool:
    """ker(pullback of the pair) contains ker for w plus ker for wp."""
    pair = intersection_cohomology(w, wp)
    if pair is None:
        return True  # nothing to check; the Hom space is zero
    pres_pair, pb_pair = pair
    rows_pair = pb_pair.matrix(pres_pair.generators)
    for single in (stable_cohomology(w), stable_cohomology(wp)):
        pres, pb = single
        rows = pb.matrix(pres.generators)
        for vec in _linalg.nullspace(rows):
            if not _linalg.in_kernel(rows_pair, vec):
                return False
    return True


@dataclass(frozen=True)
class OddNormalization:
    """Odd representative per circle, with the +/- rescaling signs."""

    choices: tuple[tuple[int, int], ...]  # (leftmost generator, odd vertex)
    ok: bool


def odd_normalization(w: Weight, wp: Weight) -> OddNormalization:
    """Rewrite generators to odd vertices with signs (+1 odd / -1 even).

    Verifies, by exact matrix comparison, that composing the intersection
    pullback with x_g -> a_g * x_odd(g) agrees with the direct
    odd-vertex transport x_i -> a_i * x_odd(i) on every circle point,
    which is the matrix-conjugation form of the bimodule ring
    isomorphism.
    """
    pair = intersection_cohomology(w, wp)
    if pair is None:
        return OddNormalization((), True)
    pres, pb = pair
    z = diagram_of(w, wp)
    choices = []
    for g in pres.generators:
        comp = z.component_of(g)
        odd = next(v for v in comp.vertices if v % 2 == 1)
        choices.append((g, odd))
    odd_of = dict(choices)
    sign = lambda j: 1 if j % 2 == 1 else -1
    ok = True
    for i in range(1, w.n + 1):
        comp = z.component_of(i)
        expected: dict[int, int] = {}
        if comp.kind == CIRCLE:
            g = comp.vertices[0]
            expected[odd_of[g]] = sign(i)
        composed: dict[int, int] = {}
        for g, coeff in pb.image(i):
            composed[odd_of[g]] = composed.get(odd_of[g], 0) + coeff * sign(g)
        composed = {k: v for k, v in composed.items() if v}
        if composed != expected:
            ok = False
    return OddNormalization(tuple(choices), ok)
