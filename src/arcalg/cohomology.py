"""Square-zero ring presentations and pullback maps.

Every ring appearing here is an exterior-style quotient on degree-2
generators x_i with x_i**2 = 0, so a presentation is just an ordered set
of generator indices.  Pullbacks from the ambient n-variable ring send
each x_i to 0 or to one generator with sign +1 or -1: for components and
stable manifolds the generator at the left end of x_i's cup, for
pairwise intersections the epsilon-transport to the circle's leftmost
representative.  So the rank and kernel of a pullback are read off which
generators it hits, with no elimination.

EMPTY intersections are reported as None, mirroring a zero Hom space
rather than a zero ring.

``_glued_intersection`` memoizes the last pairs the pullback functions
glued.  ``poincare`` and ``intrinsic_min_degree`` need no pullback and
glue afresh: one glue per call, which perfbench's tracer test counts.
``diagrams.equivalence`` is unused here; perfbench still traces it.
"""
from __future__ import annotations

import json
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .diagrams import (CIRCLE, CircleDiagram, CupDiagram, StandardTableau,
                       ValidationError, Weight, _Checked, _component_choices, diagram_of,
                       tableau_to_cup, weight_to_m)


class RingPresentation(NamedTuple):
    """C[x_g : g in generators] / (x_g**2), each generator in degree 2."""

    generators: tuple[int, ...]

    @property
    def dim(self) -> int:
        return 2 ** len(self.generators)

    def hilbert(self) -> "GradedDim":
        """(1 + q^2)**c for c generators: q^(2j) has coefficient C(c, j)."""
        c = len(self.generators)
        return GradedDim(0, tuple(0 if d % 2 else comb(c, d // 2) for d in range(2 * c + 1)))

    def to_json(self) -> str:
        return json.dumps({"generators": list(self.generators)})


class _PullbackFields(NamedTuple):
    n: int
    images: tuple[tuple[tuple[int, int], ...], ...]


class PullbackMap(_Checked, _PullbackFields):
    """Images of x_1..x_n, each 0 or one target generator with sign +-1.

    ``images[i-1]`` is ``()`` when x_i maps to 0 and ``((g, s),)`` when
    it maps to s * x_g with s = -1 or +1.
    """

    __slots__ = ()

    def __new__(cls, n: int, images: tuple[tuple[tuple[int, int], ...], ...]) -> "PullbackMap":
        if len(images) != n:
            raise ValidationError(f"{len(images)} images for x_1..x_{n}")
        for i, image in enumerate(images, 1):
            if len(image) > 1 or any(coeff not in (1, -1) for _, coeff in image):
                raise ValidationError(f"x_{i} maps to {list(image)}, not to 0 or +-x_g")
        return tuple.__new__(cls, (n, images))

    def image(self, i: int) -> tuple[tuple[int, int], ...]:
        return self.images[i - 1]

    def to_json(self) -> str:
        return json.dumps({str(i + 1): [list(t) for t in row]
                           for i, row in enumerate(self.images)})


class _GradedDimFields(NamedTuple):
    offset: int
    coeffs: tuple[int, ...]


class GradedDim(_Checked, _GradedDimFields):
    """Laurent polynomial in q with non-negative integer coefficients.

    Stored normalized: ``coeffs`` starts and ends with a nonzero entry,
    and the zero polynomial is offset 0 with no coefficients, so the
    tuple ``==`` and hash compare polynomials.  Tuple ``+`` and repetition
    are switched off: ``g + h`` and ``2 * g`` raise TypeError.
    """

    __slots__ = ()
    __add__ = __rmul__ = None

    def __new__(cls, offset: int, coeffs: tuple[int, ...]) -> "GradedDim":
        nonzero = [i for i, c in enumerate(coeffs) if c]
        if not nonzero:
            return tuple.__new__(cls, (0, ()))
        return tuple.__new__(cls, (offset + nonzero[0],
                                   tuple(coeffs[nonzero[0]:nonzero[-1] + 1])))

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
    images: list[tuple[tuple[int, int], ...]] = [()] * cup.n
    for a, b in cup.cups:
        images[a - 1], images[b - 1] = ((a, 1),), ((a, -1),)
    return RingPresentation(cup.left_ends()), PullbackMap(cup.n, tuple(images))


def intersection_cohomology(w: Weight, wp: Weight) -> tuple[RingPresentation, PullbackMap] | None:
    """Presentation for a pairwise intersection, or None if it is empty.

    Generators are the leftmost points of the circles of the glued
    diagram; the pullback transports x_i along its circle with the sign
    epsilon(i, generator), and kills points on lines.
    """
    return _glued_intersection(w, wp)[1]


def _glued(w: Weight, wp: Weight) -> tuple[CircleDiagram, list[tuple[bool, ...]] | None]:
    """The glued diagram of a pair of one shape, and its components' choices."""
    if w.n != wp.n or w.k != wp.k:
        raise ValidationError("weights must share a shape")
    z = diagram_of(w, wp)
    return z, _component_choices(z, w, wp)


@lru_cache(maxsize=32)
def _glued_intersection(w: Weight, wp: Weight) -> tuple[
        CircleDiagram, tuple[RingPresentation, PullbackMap] | None]:
    """The glued diagram and intersection_cohomology of the pair.

    The intersection is empty exactly when the rays of some line
    contradict each other.  Memoized for the last 32 pairs; ``poincare``
    does not read the memo (see the module docstring).
    """
    z, choices = _glued(w, wp)
    if choices is None:
        return z, None
    circles = z.circles()
    images: list[tuple[tuple[int, int], ...]] = [()] * w.n
    for comp in circles:
        for i in comp.vertices:  # epsilon(z, i, leftmost), read off the circle in hand
            images[i - 1] = ((comp.leftmost, (-1) ** (i + comp.leftmost)),)
    return z, (RingPresentation(tuple(c.leftmost for c in circles)),
               PullbackMap(w.n, tuple(images)))


def _glued_min_degree(w: Weight, wp: Weight) -> tuple[CircleDiagram, int | None]:
    """The glued diagram and its smallest orientation degree (None if empty).

    An arc counts when its left end is up, which for a component is fixed
    by whether its odd points are up; so the smallest degree is the sum,
    over components, of the fewest arcs counted by an allowed choice.
    """
    z, choices = _glued(w, wp)
    if choices is None:
        return z, None
    return z, sum(min(sum(1 for _, a, _b in comp.arcs if (a % 2 == 1) == odd_up)
                      for odd_up in allowed)
                  for comp, allowed in zip(z.components, choices))


def intrinsic_min_degree(w: Weight, wp: Weight) -> int | None:
    """Smallest orientation degree of the glued diagram; None when empty."""
    return _glued_min_degree(w, wp)[1]


def poincare(w: Weight, wp: Weight, shifted: bool = False) -> GradedDim:
    """(1 + q^2) per circle, multiplied by q**(minimal degree) if shifted."""
    z, low = _glued_min_degree(w, wp)
    if low is None:
        return GradedDim.zero()
    out = RingPresentation(tuple(c.leftmost for c in z.circles())).hilbert()
    return out.shift(low) if shifted else out


# ---------------------------------------------------------------------------
# consistency checks used by the acceptance suite


def pullback_is_surjective(pres: RingPresentation, pb: PullbackMap) -> bool:
    """Every generator is hit; the rank is the number of generators hit."""
    hit = {g for image in pb.images for g, _ in image}
    if not hit <= set(pres.generators):
        raise ValidationError(f"pullback hits {sorted(hit)}, not all among "
                              f"the generators {list(pres.generators)}")
    return len(hit) == len(pres.generators)


def kernel_contains_both(w: Weight, wp: Weight) -> bool:
    """ker(pullback of the pair) contains ker for w plus ker for wp.

    The kernel of the pullback for v is spanned by x_r for each ray r of
    m(v) and by x_a + x_b for each cup (a, b): the pair's pullback must
    kill every ray and send x_a to minus the image of x_b.
    """
    pair = intersection_cohomology(w, wp)
    if pair is None:
        return True  # nothing to check; the Hom space is zero
    images = pair[1].images
    return all(not images[r - 1] for v in (w, wp) for r in weight_to_m(v).rays) and all(
        images[a - 1] == tuple((g, -s) for g, s in images[b - 1])
        for v in (w, wp) for a, b in weight_to_m(v).cups)


class OddNormalization(NamedTuple):
    """Odd representative per circle, with the +/- rescaling signs."""

    choices: tuple[tuple[int, int], ...]  # (leftmost generator, odd vertex)
    ok: bool


def odd_normalization(w: Weight, wp: Weight) -> OddNormalization:
    """Rewrite generators to odd vertices with signs a_j (+1 odd / -1 even).

    Composing the intersection pullback with x_g -> a_g * x_odd(g) must
    agree with the direct odd-vertex transport x_i -> a_i * x_odd(i) on
    every circle point and kill every line point, which is the
    matrix-conjugation form of the bimodule ring isomorphism.  One pass
    over the components checks it: a point i of a circle with generator
    g must map to a_i * a_g * x_g, and a point of a line to 0.
    """
    z, pair = _glued_intersection(w, wp)
    if pair is None:
        return OddNormalization((), True)
    images = pair[1].images
    sign = lambda j: 1 if j % 2 == 1 else -1
    choices = []
    ok = True
    for comp in z.components:
        if comp.kind == CIRCLE:
            g = comp.leftmost
            choices.append((g, next(v for v in comp.vertices if v % 2 == 1)))
            ok = ok and all(images[i - 1] == ((g, sign(i) * sign(g)),) for i in comp.vertices)
        else:
            ok = ok and not any(images[i - 1] for i in comp.vertices)
    return OddNormalization(tuple(choices), ok)
