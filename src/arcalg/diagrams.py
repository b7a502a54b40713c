"""Cup diagrams, weight sequences, and two-row tableau combinatorics.

Points sit on a horizontal axis, numbered 1..n.  A cup diagram joins some
of them in non-crossing pairs drawn below the axis and sends the rest
straight down as rays.  Reflecting a second diagram above the axis glues
the two into circles and lines; orientations of those glued diagrams are
the currency of everything downstream (cohomology presentations, the arc
algebra, Grothendieck-group matrices).

All types are immutable ``NamedTuple`` values: they iterate, index and
compare equal like the plain tuple of their fields, hash and compare in
C, and copy with ``_replace``.  The validated ones (``Shape``, ``Weight``,
``StandardTableau``, ``CupDiagram``) check and normalize their fields in
``__new__``, and ``_replace`` goes through it too.  All operations are
pure functions, so everything here is safe to evaluate concurrently.

Conventions fixed once and for all:

* weight marks are ``^`` (up) and ``v`` (down); a shape (n-k, k) weight
  has n-k ups and k downs;
* the canonical enumeration order sorts weights by their reversed mark
  string with ``v`` before ``^``, that is by their up-sets as ints (this
  reproduces the standard w_1..w_6 listing at n=4, k=2);
* equivalence classes live on {0, 1, ..., n}, with 0 standing for the
  trivial subspace.
"""
from __future__ import annotations

import itertools
import json
from functools import lru_cache
from math import comb
from typing import NamedTuple

UP = "^"
DOWN = "v"

_MARK_ALIASES = {"^": UP, "v": DOWN, "∧": UP, "∨": DOWN,
                 "u": UP, "d": DOWN}


class ValidationError(ValueError):
    """Raised when an input violates a structural precondition."""


class _Checked:
    """Base of a value type whose ``__new__`` checks its fields.

    A ``NamedTuple``'s ``_make``, and so its ``_replace``, builds the
    tuple directly; here both go through ``__new__``.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _ShapeFields(NamedTuple):
    n: int
    k: int


class Shape(_Checked, _ShapeFields):
    """Two-row shape (n-k, k): n points total, k cups for standard diagrams."""

    __slots__ = ()

    def __new__(cls, n: int, k: int) -> "Shape":
        if type(n) is not int or type(k) is not int or n < 1 or k < 0 or 2 * k > n:
            raise ValidationError(f"invalid shape: n={n!r}, k={k!r} (need ints 0 <= 2k <= n)")
        return tuple.__new__(cls, (n, k))


class _WeightFields(NamedTuple):
    marks: str


class Weight(_Checked, _WeightFields):
    """A sign sequence of ups and downs, stored as a string over ``^v``."""

    __slots__ = ()

    def __new__(cls, marks: str) -> "Weight":
        # strip leaves a character exactly when some mark is neither up nor down
        if not isinstance(marks, str) or not marks or marks.strip(UP + DOWN):
            raise ValidationError(f"bad weight string {marks!r}: use '^' and 'v'")
        return tuple.__new__(cls, (marks,))

    @staticmethod
    def parse(text: str) -> "Weight":
        """Parse a weight, accepting unicode wedge/vee aliases."""
        if not isinstance(text, str):
            raise ValidationError(f"weight {text!r} is not a string")
        try:
            return Weight("".join(_MARK_ALIASES[c] for c in text.strip()))
        except KeyError as exc:
            raise ValidationError(f"bad mark {exc.args[0]!r} in weight {text!r}") from None

    @property
    def n(self) -> int:
        return len(self.marks)

    @property
    def k(self) -> int:
        return self.marks.count(DOWN)

    def mark(self, i: int) -> str:
        """Mark at point i (1-based); ValidationError off 1..n."""
        try:
            if i > 0:
                return self.marks[i - 1]
        except IndexError:
            pass
        raise ValidationError(f"no point {i} in weight {self.marks}")

    def ups(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self.mark(i) == UP)

    def downs(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self.mark(i) == DOWN)

    def shape(self) -> Shape:
        return Shape(self.n, self.k)

    def is_standard(self) -> bool:
        """Ballot condition: every suffix has at least as many ups as downs.

        Equivalent to strictly decreasing columns of the associated
        row-strict tableau, and to m(w) having the full k cups.
        """
        downs = ups = 0
        for c in reversed(self.marks):
            if c == DOWN:
                downs += 1
            else:
                ups += 1
            if downs > ups:
                return False
        return True

    def __str__(self) -> str:
        return self.marks


class _TableauFields(NamedTuple):
    top: tuple[int, ...]
    bottom: tuple[int, ...]


class StandardTableau(_Checked, _TableauFields):
    """Two-row tableau with strictly decreasing rows (and columns if standard)."""

    __slots__ = ()

    def __new__(cls, top: tuple[int, ...], bottom: tuple[int, ...]) -> "StandardTableau":
        entries = sorted(top + bottom)
        n = len(entries)
        if entries != list(range(1, n + 1)):
            raise ValidationError(f"tableau rows must partition 1..n, got {top}/{bottom}")
        for row in (top, bottom):
            if any(row[i] <= row[i + 1] for i in range(len(row) - 1)):
                raise ValidationError(f"rows must strictly decrease, got {row}")
        if len(bottom) > len(top):
            raise ValidationError("bottom row longer than top row")
        return tuple.__new__(cls, (top, bottom))

    @property
    def n(self) -> int:
        return len(self.top) + len(self.bottom)

    @property
    def k(self) -> int:
        return len(self.bottom)

    def shape(self) -> Shape:
        return Shape(self.n, self.k)

    def is_standard(self) -> bool:
        """Columns strictly decrease when the rows are left-justified."""
        return all(self.top[j] > self.bottom[j] for j in range(self.k))

    def __str__(self) -> str:
        return f"{','.join(map(str, self.top))}/{','.join(map(str, self.bottom))}"


class _CupFields(NamedTuple):
    n: int
    cups: tuple[tuple[int, int], ...]
    rays: tuple[int, ...]


class CupDiagram(_Checked, _CupFields):
    """Non-crossing matching: cups (i, j) with i < j below the axis, rays on the rest."""

    __slots__ = ()

    def __new__(cls, n: int, cups: tuple[tuple[int, int], ...],
                rays: tuple[int, ...]) -> "CupDiagram":
        points = [p for cup in cups for p in cup] + list(rays)
        if sorted(points) != list(range(1, n + 1)):
            raise ValidationError("cups and rays must partition 1..n exactly once")
        for (a, b) in cups:
            if not a < b:
                raise ValidationError(f"cup {(a, b)} must have left < right")
            if (b - a) % 2 == 0:
                raise ValidationError(f"cup {(a, b)} spans an even gap")
        for (a, b), (c, d) in itertools.combinations(cups, 2):
            if a < c < b < d or c < a < d < b:
                raise ValidationError(f"cups {(a, b)} and {(c, d)} cross")
        for r in rays:
            if any(a < r < b for a, b in cups):
                raise ValidationError(f"ray {r} sits inside a cup")
        return tuple.__new__(cls, (n, tuple(sorted(cups)), tuple(sorted(rays))))

    @property
    def k(self) -> int:
        return len(self.cups)

    def left_ends(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.cups)

    def contains_cup(self, outer: tuple[int, int], inner: tuple[int, int]) -> bool:
        return outer[0] < inner[0] and inner[1] < outer[1]

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "cups": [list(c) for c in self.cups],
                           "rays": list(self.rays)})

    @staticmethod
    def from_json(text: str) -> "CupDiagram":
        """The diagram of ``to_json``; ValidationError for anything else."""
        try:
            data = json.loads(text)
            n, cups, rays = data["n"], tuple(map(tuple, data["cups"])), tuple(data["rays"])
            if any(type(p) is not int for p in (n, *rays, *itertools.chain(*cups))):
                raise ValidationError("n, cups and rays must hold ints")
            return CupDiagram(n, cups, rays)
        except ValidationError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"malformed cup diagram: {exc!r}") from None


# ---------------------------------------------------------------------------
# tableaux <-> weights <-> cup diagrams


def weight_of_tableau(s: StandardTableau) -> Weight:
    marks = [UP] * s.n
    for i in s.bottom:
        marks[i - 1] = DOWN
    return Weight("".join(marks))


def tableau_of_weight(w: Weight) -> StandardTableau:
    return StandardTableau(tuple(sorted(w.ups(), reverse=True)),
                           tuple(sorted(w.downs(), reverse=True)))


@lru_cache(maxsize=1024)
def weight_to_m(w: Weight) -> CupDiagram:
    """Greedy cup diagram m(w): repeatedly match adjacent down-up pairs.

    Equivalent to bracket matching with down = open, up = close.  The
    result carries all counter-clockwise cups (down at the left end); the
    unmatched points become rays.  The cup count is k exactly when w is
    standard.
    """
    stack: list[int] = []
    cups = []
    rays = []
    for i in range(1, w.n + 1):
        if w.mark(i) == DOWN:
            stack.append(i)
        elif stack:
            cups.append((stack.pop(), i))
        else:
            rays.append(i)
    rays.extend(stack)
    return CupDiagram(w.n, tuple(cups), tuple(rays))


def weight_to_C(w: Weight) -> CupDiagram:
    """Completion C(w) of m(w) to a diagram with k cups.

    After removing m(w), the leftover marks read ups then downs; the
    leftover downs are matched innermost-first to the nearest leftover up
    on their left, producing clockwise cups nested around each other.
    """
    m = weight_to_m(w)
    spare_ups = [r for r in m.rays if w.mark(r) == UP]
    spare_downs = [r for r in m.rays if w.mark(r) == DOWN]
    if spare_ups and spare_downs and spare_downs[0] < spare_ups[-1]:
        raise RuntimeError("leftover marks not in up-block/down-block order")
    if len(spare_downs) > len(spare_ups):
        raise ValidationError(f"cannot complete {w}: more downs than available ups")
    cups = list(m.cups)
    ups = list(spare_ups)
    for d in spare_downs:
        cups.append((ups.pop(), d))
    rays = tuple(ups)
    return CupDiagram(w.n, tuple(cups), rays)


def tableau_to_cup(s: StandardTableau) -> CupDiagram:
    """Cup diagram of a standard tableau: bottom entries are left cup ends."""
    if not s.is_standard():
        raise ValidationError(f"tableau {s} is not standard (columns must decrease)")
    c = weight_to_m(weight_of_tableau(s))
    if c.k != s.k:
        raise RuntimeError(f"m of standard tableau {s} has {c.k} cups, not {s.k}")
    return c


def cup_to_tableau(c: CupDiagram) -> StandardTableau:
    """Inverse of tableau_to_cup: left cup ends fill the bottom row."""
    bottom = tuple(sorted(c.left_ends(), reverse=True))
    top = tuple(sorted(set(range(1, c.n + 1)) - set(c.left_ends()), reverse=True))
    return StandardTableau(top, bottom)


def enumerate_weights(shape: Shape) -> list[Weight]:
    """All C(n, n-k) weights of the shape, in canonical order: by up-set."""
    n = shape.n
    ups = sorted(sum(1 << i for i in c) for c in itertools.combinations(range(n), n - shape.k))
    return [_weight_of(u, n) for u in ups]


def enumerate_standard(shape: Shape) -> list[StandardTableau]:
    """All standard tableaux, ordered by the canonical order of their weights."""
    tabs = [tableau_of_weight(w) for w in enumerate_weights(shape) if w.is_standard()]
    expected = comb(shape.n, shape.k) - (comb(shape.n, shape.k - 1) if shape.k else 0)
    if len(tabs) != expected:
        raise RuntimeError(f"found {len(tabs)} standard tableaux of {shape}, expected {expected}")
    return tabs


# ---------------------------------------------------------------------------
# orientations


def orients_with_rays(v: Weight, c: CupDiagram, ray_marks: Weight) -> bool:
    """True iff v orients every cup of c and matches ray_marks on its rays.

    With every ray up this is the membership test of the Springer fiber
    component labelled by c.
    """
    if v.n != c.n or ray_marks.n != c.n:
        raise ValidationError("length mismatch")
    return (all(v.mark(a) != v.mark(b) for a, b in c.cups)
            and all(v.mark(r) == ray_marks.mark(r) for r in c.rays))


# ---------------------------------------------------------------------------
# glued circle diagrams

CIRCLE = "circle"
LINE = "line"


class Component(NamedTuple):
    """One circle or line of a glued diagram.

    Arcs are (kind, i, j) with kind ``cap`` (upper diagram) or ``cup``
    (lower diagram); ray ends are recorded separately.
    """

    kind: str
    vertices: tuple[int, ...]
    arcs: tuple[tuple[str, int, int], ...]
    top_rays: tuple[int, ...]
    bottom_rays: tuple[int, ...]

    @property
    def leftmost(self) -> int:
        return self.vertices[0]


class CircleDiagram(NamedTuple):
    """Glued diagram: ``top`` reflected above the axis, ``bottom`` below.

    Components are ordered by leftmost vertex.
    """

    top: CupDiagram
    bottom: CupDiagram
    components: tuple[Component, ...]

    @property
    def n(self) -> int:
        return self.bottom.n

    def circles(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.kind == CIRCLE)

    def component_of(self, i: int) -> Component:
        for c in self.components:
            if i in c.vertices:
                return c
        raise ValidationError(f"point {i} outside 1..n")

    def circle_count(self) -> int:
        return sum(1 for c in self.components if c.kind == CIRCLE)


def _walk(nb: list[list[int]], start: int) -> tuple[int, bool]:
    """The nodes of start's component, as a bitmask, and whether it is a cycle.

    ``nb[v]`` holds v's two neighbours, -1 for none, and every edge takes
    slot 0 at both of its ends or slot 1 at both, so the slots alternate
    along a path.  This one walker serves ``glue``, the compiled movie and
    the twist (:mod:`arcalg._movie`).
    """
    nodes = 1 << start
    for slot in (0, 1):
        v = nb[start][slot]
        while v >= 0 and v != start:
            nodes |= 1 << v
            slot ^= 1
            v = nb[v][slot]
        if v == start:
            return nodes, True
    return nodes, False


def glue(top: CupDiagram, bottom: CupDiagram) -> CircleDiagram:
    """Glue ``top`` (reflected, as caps) onto ``bottom`` (cups).

    Each point keeps its cup partner in slot 0 and its cap partner in
    slot 1, -1 for a ray, and ``_walk`` finds the component of each point
    not yet seen, left to right, so components come in leftmost-vertex
    order.  One pass over a component's points, in order, reads its
    vertices, caps, cups and top and bottom rays off the slots.
    """
    if top.n != bottom.n:
        raise ValidationError(f"cannot glue diagrams on {top.n} and {bottom.n} points")
    n = top.n
    nb = [[-1, -1] for _ in range(n + 1)]
    for slot, m in ((0, bottom), (1, top)):
        for a, b in m.cups:
            nb[a][slot], nb[b][slot] = b, a
    comps = []
    seen = 0
    for start in range(1, n + 1):
        if seen >> start & 1:
            continue
        nodes, cycle = _walk(nb, start)
        seen |= nodes
        verts, caps, cups, top_rays, bottom_rays = [], [], [], [], []
        while nodes:  # lowest set bit first
            low = nodes & -nodes
            nodes ^= low
            v = low.bit_length() - 1
            verts.append(v)
            below, above = nb[v]
            if above > v:
                caps.append(("cap", v, above))
            elif above < 0:
                top_rays.append(v)
            if below > v:
                cups.append(("cup", v, below))
            elif below < 0:
                bottom_rays.append(v)
        comps.append(Component(CIRCLE if cycle else LINE, tuple(verts), tuple(caps + cups),
                               tuple(top_rays), tuple(bottom_rays)))
    return CircleDiagram(top, bottom, tuple(comps))


def diagram_of(src: Weight, tgt: Weight) -> CircleDiagram:
    """The glued diagram of a weight pair: m(src) below, m(tgt) on top."""
    return glue(weight_to_m(tgt), weight_to_m(src))


def orientations(z: CircleDiagram, w_bottom: Weight, w_top: Weight) -> list[Weight]:
    """All weights orienting every arc of z and matching the prescribed rays.

    Rays of the bottom diagram must carry w_bottom's marks, rays of the
    top diagram w_top's.  Every arc joins points of opposite parity, so a
    component is oriented by an up on all its odd points or on all its
    even ones: a circle takes both, a line what its rays force, if they
    agree.  The count is 0, 1 (no circles), or 2**circles.
    """
    if w_bottom.n != z.n or w_top.n != z.n:
        raise ValidationError("weight length does not match diagram")
    per_comp = []  # the up-sets each component may carry
    for comp in z.components:
        odd = sum(1 << v - 1 for v in comp.vertices if v % 2)
        even = sum(1 << v - 1 for v in comp.vertices if not v % 2)
        odd_up = {(w.mark(r) == UP) == (r % 2 == 1)
                  for rays, w in ((comp.bottom_rays, w_bottom), (comp.top_rays, w_top))
                  for r in rays}
        if len(odd_up) > 1:
            return []
        per_comp.append((even, odd) if comp.kind == CIRCLE else (odd if odd_up.pop() else even,))
    return [_weight_of(u, z.n) for u in sorted(map(sum, itertools.product(*per_comp)))]


def orientation_degree(z: CircleDiagram, v: Weight) -> int:
    """Number of arcs (cups and caps) whose left endpoint carries an up."""
    return sum(1 for a, _ in z.top.cups + z.bottom.cups if v.mark(a) == UP)


def epsilon(z: CircleDiagram, i: int, j: int) -> int:
    """0 unless i, j share a circle; else (-1)**(arc path length between them).

    Every arc joins points of opposite parity, so every path from i to j
    has the parity of i + j.
    """
    comp_i = z.component_of(i)
    if comp_i.kind != CIRCLE or j not in comp_i.vertices:
        return 0
    return (-1) ** (i + j)


# ---------------------------------------------------------------------------
# torus-fixed points as up-sets, bit i-1 set for an up at point i: sorted as
# ints, the up-sets of one length come in canonical order

_BITS = str.maketrans(UP + DOWN + "10", "10" + UP + DOWN)  # marks to bits and back


def _weight_of(ups: int, n: int) -> Weight:
    return Weight(f"{ups:0{n}b}"[::-1].translate(_BITS))


@lru_cache(maxsize=1024)
def _switches(w: Weight) -> tuple[int, ...]:
    """Theta(w), the fixed points of K_w, sorted: w with the marks of any
    subset of m(w)'s cups switched.  A switch moves an up left: w comes last."""
    out = [int(w.marks[::-1].translate(_BITS), 2)]
    for a, b in weight_to_m(w).cups:
        out += [u ^ (1 << a - 1 | 1 << b - 1) for u in out]
    if len(set(out)) != len(out):
        raise RuntimeError(f"cup switches of {w} are not distinct")
    return tuple(sorted(out))


def _fixed_points(x: Weight, y: Weight) -> list[tuple[int, int]]:
    """Theta(x) ∩ Theta(y), x and y of one length, sorted, each with its degree.

    They are the fixed points of K_x ∩ K_y and the basis of Hom(x, y).  An
    arc's left end is up when its cup is switched, which changes 2 marks.
    """
    tx, ty = _switches(x), _switches(y)
    common = set(ty)
    return [(u, ((u ^ tx[-1]).bit_count() + (u ^ ty[-1]).bit_count()) // 2)
            for u in tx if u in common]


# ---------------------------------------------------------------------------
# equivalence classes and the rank function


class EquivalenceData(NamedTuple):
    """Classes of the two-diagram relation on {0,..,n} plus the rank function."""

    n: int
    classes: tuple[tuple[int, ...], ...]
    min_reps: tuple[int, ...]
    circle_reps: tuple[int, ...]
    rank: tuple[tuple[int, int], ...]


def _single_relation(c: CupDiagram) -> list[tuple[int, int]]:
    # a ~ the cup partner of a+1 whenever a+1 is on a cup
    partner = {p: q for a, b in c.cups for p, q in ((a, b), (b, a))}
    return [(a, partner[a + 1]) for a in range(c.n) if a + 1 in partner]


def _union_find(n: int, rels: list[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in rels:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for x in range(n + 1):
        groups.setdefault(find(x), []).append(x)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def equivalence(c: CupDiagram, d: CupDiagram) -> EquivalenceData:
    """Joint equivalence of two diagrams, with minimal reps and ranks.

    The minimal representatives are 0 together with the leftmost point of
    every circle and line of the glued diagram; circle_reps are the ones
    on circles.  Ranks: 0 on any class containing a line point (and on the
    class of 0), otherwise one more than the rank of the class of rep - 1.
    """
    if c.n != d.n:
        raise ValidationError("diagrams must have equal n")
    classes = _union_find(c.n, _single_relation(c) + _single_relation(d))
    z = glue(d, c)
    line_points = {v for comp in z.components if comp.kind == LINE for v in comp.vertices}
    circle_points = {v for comp in z.components if comp.kind == CIRCLE for v in comp.vertices}
    min_reps = tuple(cls[0] for cls in classes)
    circle_reps = tuple(r for r in min_reps if r in circle_points)
    rep_of = {}
    for cls in classes:
        for x in cls:
            rep_of[x] = cls[0]
    rank: dict[int, int] = {}
    for rep in sorted(min_reps):
        cls = next(cl for cl in classes if cl[0] == rep)
        if rep == 0 or any(x in line_points for x in cls):
            rank[rep] = 0
            continue
        rank[rep] = rank[rep_of[rep - 1]] + 1
    return EquivalenceData(c.n, classes, min_reps, circle_reps,
                           tuple(sorted(rank.items())))


# ---------------------------------------------------------------------------
# rendering

def _cup_depths(c: CupDiagram) -> dict[tuple[int, int], int]:
    """Number of cups of c properly containing each of its cups."""
    return {cup: sum(1 for other in c.cups if c.contains_cup(other, cup)) for cup in c.cups}


def _arc_rows(c: CupDiagram, left: str, right: str, min_rows: int = 0) -> list[str]:
    """Row d holds the cups of nesting depth d; rays are bars through every row."""
    col = lambda i: 2 * (i - 1)
    depths = _cup_depths(c)
    rows = max(max(depths.values(), default=-1) + 1, min_rows)
    grid = [[" "] * (2 * c.n - 1) for _ in range(rows)]
    for (a, b), dep in depths.items():
        grid[dep][col(a)] = left
        grid[dep][col(b)] = right
        for x in range(col(a) + 1, col(b)):
            grid[dep][x] = "_"
    for r in c.rays:
        for row in grid:
            if row[col(r)] == " ":
                row[col(r)] = "|"
    return ["".join(row) for row in grid]


def render_cup(c: CupDiagram, marks: Weight | None = None) -> str:
    """ASCII picture: a dot row, cups as bracket arcs beneath, rays as bars."""
    if marks is not None and marks.n != c.n:
        raise ValidationError(f"marks {marks} do not fit a diagram on {c.n} points")
    head = " ".join("." if marks is None else marks.mark(i) for i in range(1, c.n + 1))
    lines = [head] + _arc_rows(c, "\\", "/", min_rows=1 if c.rays else 0)
    return "\n".join(line.rstrip() for line in lines if line.strip() or line is lines[0])


def render_circle_diagram(z: CircleDiagram, marks: Weight | None = None) -> str:
    """Caps mirrored above the dot row, cups below."""
    caps = [line.rstrip() for line in reversed(_arc_rows(z.top, "/", "\\")) if line.strip()]
    return "".join(line + "\n" for line in caps) + render_cup(z.bottom, marks)
