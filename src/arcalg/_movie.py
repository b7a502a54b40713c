"""The surgery movie of a weight triple: its topology, then its labels.

Multiplication stacks two diagrams and contracts the shared middle
diagram one cup or ray at a time (a movie).  Ray columns are joined
first; cups are surgered outermost-first (surgering an inner cup before
an outer one would thread vertical strands through a still-present cup
and destroy planarity, and with it the sign rules).  The movie's
topology is compiled for each weight triple and cup order into a tuple
of events (merge, split, birth of a circle, a circle meeting a line),
or None when a line reconnection kills every product, together with the
movie's twist, the exponent of its alpha = -1 signs.  It names each
component by its lowest node, so a basis element's label set, read once
per Hom space (``arc_algebra._ends``), is a valid start or end of every
movie with no translation.  ``_twist`` reads the twist at the canonical
order off the same walk with no events, for the convolution's alpha =
-1 sign.  A label pass folds the events for each pair of basis elements
of the triple under one of two rule sets:

* Frobenius  Khovanov's Z[X]/(X^2): merge m, split 1 -> X(x)1 + 1(x)X;
  this is the associative ``alpha=+1`` product.  The ``alpha=-1``
  product, the raw geometric rules in z-coordinates (z_i = (-1)**i x_i),
  is non-associative, and each of its rules multiplies every term of a
  step by one sign: (-1)**(left end) at a split or a pinched-off circle,
  (-1)**(ray+1) at a ray closing.  So it is the Frobenius product times
  one sign per movie, read at both ends in z-coordinates.
* nested     the embedded TQFT which dispatches merges/splits on circle
  nesting (m, Delta for disjoint circles; m', Delta' with the outer
  circle first for nested ones).  It is the movie's ``alpha=-1``.

Surgeries touching lines follow the graded rules: a saddle joining or
reconnecting two line segments is the identity when both vanishing arcs
are counter-clockwise (down mark at their left ends) and kills the
product otherwise (mismatched marks or clockwise arcs).
"""
from __future__ import annotations

from functools import lru_cache

from .diagrams import (DOWN, CupDiagram, ValidationError, Weight, _cup_depths, _walk,
                       weight_to_m)


class OrderError(ValidationError):
    """Cup order not compatible with the nesting partial order."""


@lru_cache(maxsize=1024)
def canonical_order(mid: CupDiagram) -> tuple[tuple[int, int], ...]:
    """Outermost cups first; left to right among incomparable ones."""
    depths = _cup_depths(mid)
    return tuple(sorted(mid.cups, key=lambda c: (depths[c], c[0])))


def cup_orders(mid: CupDiagram):
    """All total cup orders processing containing cups before contained ones."""
    def rec(remaining: list, done: list):
        if not remaining:
            yield tuple(done)
            return
        for c in remaining:
            if not any(mid.contains_cup(other, c) for other in remaining):
                yield from rec([o for o in remaining if o != c], done + [c])

    yield from rec(list(mid.cups), [])


def _validate_order(mid: CupDiagram, order) -> tuple[tuple[int, int], ...] | None:
    """``order`` as a tuple of cups, checked against ``mid``; None stays None."""
    if order is None:
        return None
    order = tuple(tuple(c) for c in order)
    if sorted(order) != sorted(mid.cups):
        raise OrderError(f"order {order} does not list the cups of {mid.cups}")
    for pos, cup in enumerate(order):
        for later in order[pos + 1:]:
            if mid.contains_cup(later, cup):
                raise OrderError(f"cup {later} contains {cup} but is surgered after it")
    return order


# ---------------------------------------------------------------------------
# the movie, structural pass: compiled for each (x, y, z, cup order)
#
# Layer 0 holds the first factor (cups of m(x), caps of m(y)), layer 1 the
# second (cups of m(y), caps of m(z)); column c of layer h is node 2c + h.
# No node meets more than two edges, so a component is a path (a line,
# ending in rays) or a cycle (a circle).  Each node keeps its neighbour
# across m(x) or m(z) in slot 0 and the one across m(y) (an arc, or a
# strand left by a ray join or a surgery) in slot 1, -1 for none; an edge
# takes one slot at both of its ends.  Arcs join columns of opposite
# parity and flip the mark, the vertical strands left by the surgeries keep
# both, so along a component the mark flips exactly with the column parity.
# One walker, ``diagrams._walk``, follows these slots for the compiled
# movie and the canonical twist, and a point's cup and cap slots for ``glue``.

# events: a circle born with X (a ray closing or a circle pinched off a
# line; it carries its nested-mode sign), a circle meeting a line, two
# circles merging, a circle splitting
_BIRTH, _KILL, _MERGE, _SPLIT = range(4)


def _slots(x: Weight, y: Weight, z: Weight) -> list[list[int]]:
    """The neighbour slots of the movie's nodes, before any ray join or surgery."""
    nb = [[-1, -1] for _ in range(2 * x.n + 2)]
    my = weight_to_m(y)
    for h, m, slot in ((0, weight_to_m(x), 0), (0, my, 1), (1, my, 1), (1, weight_to_m(z), 0)):
        for a, b in m.cups:
            nb[2 * a + h][slot], nb[2 * b + h][slot] = 2 * b + h, 2 * a + h
    return nb


def _compile_movie(x: Weight, y: Weight, z: Weight,
                   cup_order: tuple[tuple[int, int], ...]) -> tuple | None:
    """The movie's events and twist (mod 2), or None when every product vanishes.

    A line reconnecting through a clockwise or mismatched arc kills every
    product.  m(y)'s ray columns are linked before the one walk that
    registers every component; its cups are then surgered in ``cup_order``,
    and only the components a surgery touches are walked again.  A circle
    of that walk through a ray column was closed by the ray joins and is
    born with X; its smallest ray column r gives the birth's sign and adds
    r + 1 to the twist, as each cup (i, j) that splits a circle or pinches
    one off a line adds i.  A component's id is its lowest node: a circle
    of Hom(x, y) with leftmost point c has id 2c and one of Hom(y, z) id
    2c + 1; after the last surgery every column is a strand, so a circle
    of Hom(x, z) has id 2c again.  A label set has bit ``id`` set for each
    circle carrying X.
    """
    mx, my, mz = weight_to_m(x), weight_to_m(y), weight_to_m(z)
    size = 2 * x.n + 2
    nb = _slots(x, y, z)
    for r in my.rays:  # ray columns are joined before any walk
        nb[2 * r][1], nb[2 * r + 1][1] = 2 * r + 1, 2 * r
    # the only arcs below layer 0 and above layer 1, which no surgery touches
    outer_arcs = ([(2 * a, 2 * b) for a, b in mx.cups],
                  [(2 * a + 1, 2 * b + 1) for a, b in mz.cups])
    forced = {2 * r: x.mark(r) for r in mx.rays}
    forced.update({2 * r + 1: z.mark(r) for r in mz.rays})
    owner = [-1] * size
    comps: list = [None] * size  # per id: nodes (a bitmask), is a line

    def register(start: int) -> int:
        nodes, cycle = _walk(nb, start)
        cid = (nodes & -nodes).bit_length() - 1
        for v in range(cid, size):
            if nodes >> v & 1:
                owner[v] = cid
        comps[cid] = (nodes, not cycle)
        return cid

    def inside(p: int, q: int) -> bool:
        """Whether circle p lies inside circle q.

        A ray shot from node p, down from layer 0 or up from layer 1, meets
        only m(x)'s cups or only m(z)'s caps; p is inside q when it meets
        an odd number of q's.
        """
        nodes = comps[q][0]
        return sum(1 for a, b in outer_arcs[p & 1] if a < p < b and nodes >> a & 1) % 2 == 1

    def down_at(cid: int, v: int) -> bool:
        """Whether line ``cid`` is down at node v, read off its bottom-layer, leftmost ray end."""
        start = min((u for u in forced if comps[cid][0] >> u & 1), key=lambda u: (u & 1, u))
        # bit 1 of a node is the parity of its column
        return (forced[start] == DOWN) != bool((v ^ start) & 2)

    events: list[tuple] = []
    twist = 0
    for v in range(2, size):
        if owner[v] < 0:
            g = register(v)
            nodes, is_line = comps[g]
            rays = [r for r in my.rays if nodes >> 2 * r & 1]
            if rays and not is_line:  # the ray joins closed a circle, born with X
                twist += min(rays) + 1
                events.append((_BIRTH, 1 << g, (-1) ** (min(rays) + 1 + (g >> 1))))

    for i, j in cup_order:
        li, ui, lj, uj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
        a, b = owner[ui], owner[li]
        a_line, b_line = comps[a][1], comps[b][1]
        # read before rewiring: marks where lines meet, nesting of merging circles
        clockwise = a_line and b_line and not (down_at(a, ui) and down_at(b, li))
        inner = 0
        if a != b and not (a_line or b_line):
            inner = 1 << a if inside(a, b) else 1 << b if inside(b, a) else 0
        nb[li][1], nb[lj][1], nb[ui][1], nb[uj][1] = ui, uj, li, lj  # the saddle
        gi = register(ui)
        gj = gi if comps[gi][0] >> uj & 1 else register(uj)
        if a != b:
            if a_line != b_line:
                events.append((_KILL, 1 << (b if a_line else a)))
            elif not a_line:
                events.append((_MERGE, 1 << a, 1 << b, 1 << gi, inner))
            elif clockwise:  # two line segments reconnect
                return None
        elif not a_line:
            if gi == gj:
                raise RuntimeError("self-saddle failed to split a circle (non-planar state)")
            outer = 1 << gj if inside(gi, gj) else 1 << gi if inside(gj, gi) else 0
            events.append((_SPLIT, 1 << a, 1 << gi, 1 << gj, outer))
            twist += i
        else:
            born = [g for g in (gi, gj) if not comps[g][1]]
            if born:  # a circle pinches off the line, born with X
                events.append((_BIRTH, 1 << born[0], (-1) ** (i + (born[0] >> 1))))
                twist += i
            elif clockwise:  # the line reconnects with itself
                return None

    return tuple(events), twist % 2


@lru_cache(maxsize=1024)
def _twist(x: Weight, y: Weight, z: Weight) -> int:
    """Khovanov's split sign: the exponent of the movie's alpha = -1 signs, mod 2.

    The sum of (smallest ray + 1) over the circles that m(y)'s ray joins
    close, plus the left end i of each cup (i, j) of the canonical order
    that splits a circle or pinches one off a line: the compiled movie's
    twist at that order, where the alpha = -1 sign is taken.  Only which
    nodes meet is followed: no label, event or nesting.
    """
    nb = _slots(x, y, z)
    twist = 0
    for r in reversed(weight_to_m(y).rays):  # largest first: a circle closes at its smallest ray
        if _walk(nb, 2 * r)[0] >> 2 * r + 1 & 1:
            twist += r + 1
        nb[2 * r][1], nb[2 * r + 1][1] = 2 * r + 1, 2 * r
    for i, j in canonical_order(weight_to_m(y)):
        li, ui, lj, uj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
        nodes, cycle = _walk(nb, ui)
        nb[li][1], nb[lj][1], nb[ui][1], nb[uj][1] = ui, uj, li, lj  # the saddle
        if nodes >> li & 1 and (cycle or _walk(nb, ui)[1] or _walk(nb, uj)[1]):
            twist += i  # a circle splits, or one pinches off a line
    return twist % 2


# ---------------------------------------------------------------------------
# the movie, label pass: once per basis pair


def _fold(events: tuple, nested: bool, terms: dict[int, int]) -> dict[int, int]:
    """Apply the movie's events to {label bitmask: coeff}.

    Merges use m (X.X = 0) and splits Delta (X -> X(x)X, 1 -> X(x)1 +
    1(x)X); a circle is born with X.  ``nested`` selects the embedded
    TQFT instead: m', under which an X on the inner of two nested circles
    merges to -X; Delta', which negates every term except the one putting
    X on the outer of two nested pieces; and a sign at each birth.
    """
    for event in events:
        kind = event[0]
        if kind == _BIRTH:
            g, f = event[1], event[2] if nested else 1
            terms = {labels | g: c * f for labels, c in terms.items()}
        elif kind == _KILL:
            terms = {labels: c for labels, c in terms.items() if not labels & event[1]}
        else:
            out: dict[int, int] = {}
            if kind == _MERGE:
                _, a, b, g, inner = event
                for labels, c in terms.items():
                    has_a, has_b = labels & a, labels & b
                    if has_a and has_b:
                        continue  # X * X = 0
                    rest = labels & ~(a | b)
                    if has_a or has_b:
                        rest |= g
                        if nested and labels & inner:
                            c = -c  # m': 1 (x) X_inner -> -X
                    out[rest] = out.get(rest, 0) + c
            else:
                _, a, gi, gj, outer = event
                if nested:
                    fx, fi, fj = -1, 1 if gi == outer else -1, 1 if gj == outer else -1
                else:
                    fx = fi = fj = 1
                for labels, c in terms.items():
                    rest = labels & ~a
                    if labels & a:
                        new = ((rest | gi | gj, c * fx),)
                    else:
                        new = ((rest | gi, c * fi), (rest | gj, c * fj))
                    for key, value in new:
                        out[key] = out.get(key, 0) + value
            terms = {labels: c for labels, c in out.items() if c}
        if not terms:
            break
    return terms
