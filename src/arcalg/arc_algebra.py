"""The graded convolution / arc algebra on oriented circle diagrams.

A basis element of Hom(x, y) is an orientation of the glued diagram with
m(x) below and m(y) on top.  Circles of a glued diagram carry one of two
orientations; the lower-degree one plays the role of 1 and the higher one
the role of X, with the dictionary "X on a circle = the generator x_i at
the circle's leftmost point i" tying everything to the ring presentations
in :mod:`arcalg.cohomology`.

The product of two basis elements runs the surgery movie of
:mod:`arcalg._movie`, under the Frobenius or the nested rules.

Structure tables run no movie at alpha = +-1.  After the last surgery
every column carries a vertical strand, so the whole cobordism of a
weight triple (x, y, z) is fixed by the components of m(x), m(y) and
m(z) drawn together: the convolution reads every alpha = +1 product of
the triple off per-component counts, once per triple, and alpha = -1 is
that product times (-1)**(pa + pb + twist) with the output parities; the
twist is read off a walk that follows only which nodes of the movie
meet.  The movie serves nested mode, explicit cup orders and
``multiply``, and is the reference the tables are tested against.

Everything is pure.  The exhaustive checks at the bottom scan composable
basis pairs in a fixed order and report the first failure.  Associativity
sums both bracketings over nonzero products only, and still reports the
first failing triple in composable order.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from ._movie import (OrderError, _compile_movie, _fold, _twist, _validate_order,
                     canonical_order, cup_orders)
from .cohomology import _glued_intersection
from .diagrams import (CIRCLE, CircleDiagram, Shape, UP,
                       ValidationError, Weight, diagram_of,
                       enumerate_standard, enumerate_weights, orientation_degree,
                       orientations, render_circle_diagram, weight_of_tableau,
                       weight_sort_key, weight_to_m)


class CompositionError(ValidationError):
    """Product of elements whose middle weights disagree."""


@dataclass(frozen=True)
class BasisElement:
    """Oriented circle diagram: src below, tgt on top, orient a full weight."""

    src: Weight
    tgt: Weight
    orient: Weight

    def diagram(self) -> CircleDiagram:
        return diagram_of(self.src, self.tgt)

    def __str__(self) -> str:
        return f"[{self.src}|{self.tgt}|{self.orient}]"


@lru_cache(maxsize=8192)
def basis(x: Weight, y: Weight) -> tuple[BasisElement, ...]:
    """All basis elements of Hom(x, y), in orientation order: ``_ends(x, y).elements``."""
    return _ends(x, y).elements


def degree(b: BasisElement) -> int:
    """Arcs whose left endpoint carries an up mark; rays contribute nothing."""
    return orientation_degree(b.diagram(), b.orient)


@dataclass
class AlgebraElement:
    """Integer combination of basis elements of one Hom space."""

    src: Weight
    tgt: Weight
    terms: dict[BasisElement, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.terms = {b: c for b, c in self.terms.items() if c != 0}
        for b in self.terms:
            if (b.src, b.tgt) != (self.src, self.tgt):
                raise ValidationError("terms must share src and tgt")

    def is_zero(self) -> bool:
        return not self.terms

    def x_form(self) -> str:
        """Render as a polynomial in the leftmost-point generators."""
        if not self.terms:
            return "0"
        hom = _hom_of(self)
        rendered = []
        for b, c in self.terms.items():
            idxs = tuple(bit.bit_length() // 2 for bit in _bits(hom.labels[hom.index[b]]))
            mono = "*".join(f"x{i}" for i in idxs) or "1"
            rendered.append(((len(idxs), idxs), c, mono))
        parts = []
        for _, c, mono in sorted(rendered):
            sign = "-" if c < 0 else "+"
            coeff = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(f"{sign} {coeff}{mono}")
        return " ".join(parts).removeprefix("+ ")

    def __str__(self) -> str:
        if not self.terms:
            return f"0 [{self.src}->{self.tgt}]"
        return " ".join(f"{c:+d}*{b}" for b, c in sorted(
            self.terms.items(), key=lambda t: weight_sort_key(t[0].orient)))


def idempotent(x: Weight) -> AlgebraElement:
    """Degree-0 element of Hom(x, x); x itself orients its self-glued diagram."""
    e = BasisElement(x, x, x)
    hom = _ends(x, x)
    if d := hom.degrees[hom.index[e]]:
        raise RuntimeError(f"{x} orients its own diagram in degree {d}, not 0")
    return AlgebraElement(x, x, {e: 1})


def low_element(x: Weight, y: Weight) -> AlgebraElement | None:
    """The minimal-degree basis element of Hom(x, y), or None if Hom is zero."""
    hom = _ends(x, y)
    if not hom.elements:
        return None
    return AlgebraElement(x, y, {hom.elements[hom.degrees.index(min(hom.degrees))]: 1})


# ---------------------------------------------------------------------------
# Hom spaces: read once per weight pair


class _Hom(NamedTuple):
    """What the products read of one Hom space.

    Column c is bit 2c of every mask, and a circle is named by its
    leftmost point: a label set has bit 2c set for each circle with
    leftmost point c that carries X (an up mark), and the parity is that
    of the sum of those c.  The first four fields run over the elements
    in basis order.
    """

    elements: tuple[BasisElement, ...]
    labels: tuple[int, ...]
    parities: tuple[int, ...]
    degrees: tuple[int, ...]
    index: dict  # {element: position}
    at: dict  # {label set: position}
    circles: int  # the label set with X on every circle
    parts: tuple[int, ...]  # the columns of each component
    lines: tuple[tuple[int, int], ...]  # the bottom and the top ray ends of each line
    caps: int  # the left ends of the upper diagram's cups


def _hom_of(el: AlgebraElement) -> _Hom:
    """Hom(src, tgt) of ``el``; a term outside its basis raises ValidationError."""
    hom = _ends(el.src, el.tgt)
    for t in el.terms:
        if t not in hom.index:
            raise ValidationError(f"{t} is not a basis element of Hom({el.src}, {el.tgt})")
    return hom


def _mask(columns) -> int:
    """Bit 2c for each column c."""
    return sum(1 << 2 * c for c in columns)


@lru_cache(maxsize=8192)
def _ends(x: Weight, y: Weight) -> _Hom:
    """Hom(x, y), glued once; its orientations come in basis order."""
    z = diagram_of(x, y)
    circles = [comp.leftmost for comp in z.circles()]
    elements, labels, parities, degrees = [], [], [], []
    for v in orientations(z, x, y):
        up = [c for c in circles if v.marks[c - 1] == UP]
        elements.append(BasisElement(x, y, v))
        labels.append(_mask(up))
        parities.append(sum(up) % 2)
        degrees.append(orientation_degree(z, v))
    return _Hom(tuple(elements), tuple(labels), tuple(parities), tuple(degrees),
                {b: i for i, b in enumerate(elements)}, {l: i for i, l in enumerate(labels)},
                _mask(circles), tuple(_mask(comp.vertices) for comp in z.components),
                tuple((_mask(comp.bottom_rays), _mask(comp.top_rays))
                      for comp in z.components if comp.kind != CIRCLE),
                _mask(z.top.left_ends()))


# ---------------------------------------------------------------------------
# the convolution: alpha = +1 read off the components of the weight triple
#
# After the last surgery every column carries a vertical strand, so the
# cobordism of a triple (x, y, z) collapses onto the columns: its
# components are those of the graph whose edges are the cups of m(x), m(y)
# and m(z).  Per component K count s, the cups of m(y) (the saddles); E,
# the rays of m(x) and m(z); ci, the circles of Hom(x, y) and Hom(y, z) in
# K plus the circles that m(y)'s ray joins close (born with X); and co,
# the circles of Hom(x, z).  A circle component (E = 0) is a sphere with
# g = (2 + s - ci - co) / 2 handles: with e = g plus the X's on its input
# circles, the product is 0 if e >= 2, otherwise 2**g times X on every
# output circle (e = 1) or the sum over output circles c of X on every
# output circle but c (e = 0).  A line component is a disc through its ray
# ends: it needs s = E/2 + ci + co - 1 and no X on an input circle, and
# puts X on every output circle.  Every product of the triple lies in
# degree deg a + deg b, or none does.


def _load(labels: int, forbidden: int, free: list[int]) -> int | None:
    """Bit i set where label set ``labels`` puts an X on free component i.

    None when it puts one on a ``forbidden`` circle, or two on one free component.
    """
    if labels & forbidden:
        return None
    load = 0
    for i, mask in enumerate(free):
        count = (labels & mask).bit_count()
        if count > 1:
            return None
        if count:
            load |= 1 << i
    return load


@lru_cache(maxsize=1024)
def _convolution(x: Weight, y: Weight, z: Weight) -> tuple | None:
    """The alpha = +1 products of Hom(x, y) with Hom(y, z), or None if all vanish.

    Returns (loads_a, loads_b, outs).  loads_a[i] is the load of element
    i of Hom(x, y), and None if every product with it vanishes; loads_b
    the same for Hom(y, z).  Loads that share a bit multiply to 0;
    otherwise the product is outs[load_a | load_b], as ((k, coeff), ...)
    with k a position in Hom(x, z), and empty if it is 0.
    """
    hxy, hyz, hxz = _ends(x, y), _ends(y, z), _ends(x, z)
    # the components of the triple join those of Hom(x, y) and Hom(y, z)
    comps = list(hxy.parts)
    for part in hyz.parts:
        rest = []
        for comp in comps:
            if comp & part:
                part |= comp
            else:
                rest.append(comp)
        comps = rest + [part]
    # Lines of Hom(x, y) with both ends on m(y)'s rays, joined at those rays
    # to lines of Hom(y, z) with both ends there, close a circle born with
    # X when every ray of the chain is matched on both sides.
    chains: list[tuple[int, int]] = [(top, 0) for bottom, top in hxy.lines if not bottom]
    for bottom, top in hyz.lines:
        if top:
            continue
        below, above, rest = 0, bottom, []
        for xy, yz in chains:
            if xy & bottom:
                below, above = below | xy, above | yz
            else:
                rest.append((xy, yz))
        chains = rest + [(below, above)]
    born = sum(xy & -xy for xy, yz in chains if xy == yz)
    rays_x, rays_z = sum(b for b, _ in hxy.lines), sum(t for _, t in hyz.lines)

    forbid_a = forbid_b = always = 0  # X on an input circle kills; X always on an output
    free: list[tuple[int, int, int]] = []  # components that take at most one X
    handles = 0
    for comp in comps:
        ma, mb, mo = comp & hxy.circles, comp & hyz.circles, comp & hxz.circles
        s, n_born = (comp & hxy.caps).bit_count(), (comp & born).bit_count()
        ci, co = ma.bit_count() + mb.bit_count() + n_born, mo.bit_count()
        rays = (comp & rays_x).bit_count() + (comp & rays_z).bit_count()
        if rays:
            if n_born or 2 * s != rays + 2 * (ci + co - 1):
                return None
        else:
            g = (2 + s - ci - co) // 2
            if n_born + g > 1:
                return None
            handles += g
            if not n_born + g:
                free.append((ma, mb, mo))
                continue
        forbid_a |= ma
        forbid_b |= mb
        always |= mo

    loads_a = tuple(_load(labels, forbid_a, [ma for ma, _, _ in free]) for labels in hxy.labels)
    loads_b = tuple(_load(labels, forbid_b, [mb for _, mb, _ in free]) for labels in hyz.labels)
    # one element per load: the load fixes its number of X's, hence its degree
    carriers_a, carriers_b = ({load: i for i, load in enumerate(loads) if load is not None}
                              for loads in (loads_a, loads_b))
    outs: list[tuple | None] = [None] * (1 << len(free))  # None until a pair reaches it
    for load_a, i in carriers_a.items():
        for load_b, j in carriers_b.items():
            load = load_a | load_b
            if load_a & load_b or outs[load] is not None:
                continue
            keys = [always]
            for f, (_, _, mo) in enumerate(free):
                if load >> f & 1:
                    keys = [key | mo for key in keys]
                else:
                    keys = [key | mo ^ bit for key in keys for bit in _bits(mo)]
            if keys and not any(outs):
                # one nonzero product decides the degree of every product of the
                # triple: this is the movie's ``zero`` flag
                k = hxz.at.get(keys[0])
                if k is None or hxz.degrees[k] != hxy.degrees[i] + hyz.degrees[j]:
                    return None
            outs[load] = tuple(sorted((hxz.at[key], 1 << handles) for key in keys))
    return (loads_a, loads_b, tuple(outs)) if any(outs) else None


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, each as an int of its own."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# public products


def _multiply_basis(ba: BasisElement, bb: BasisElement, mode: str,
                    cup_order: tuple[tuple[int, int], ...] | None) -> AlgebraElement:
    """Product of two basis elements through the compiled movie (None: canonical order).

    The fold starts at ``ba``'s label set and ``bb``'s shifted into layer
    1, and ends in ``_ends(x, z)``.  Each alpha = -1 rule multiplies every
    term of a step by one sign, so minus mode folds the plus rules, times
    the twist and the parities that turn leftmost-x classes into z-classes
    (z_i = (-1)**i x_i) at both ends.  The twist is taken at the canonical
    order: on movies with handles (first possible at n = 6) the splitting
    cups vary with the order, so a nested product is negated (flipped)
    where the twist at ``cup_order`` differs.
    """
    x, y, z = ba.src, ba.tgt, bb.tgt
    events = _compile_movie(x, y, z, cup_order)
    out: dict[BasisElement, int] = {}
    if events is not None:
        hxy, hyz = _ends(x, y), _ends(y, z)
        ia, ib = hxy.index[ba], hyz.index[bb]
        if mode == "minus":
            odd = hxy.parities[ia] + hyz.parities[ib] + _twist(x, y, z, None)
        else:
            odd = mode == "nested" and cup_order is not None and (
                _twist(x, y, z, cup_order) != _twist(x, y, z, None))
        terms = _fold(events, mode == "nested",
                      {hxy.labels[ia] | hyz.labels[ib] << 1: (-1) ** odd})
        hxz = _ends(x, z) if terms else None
        for labels, c in terms.items():
            try:
                k = hxz.at[labels]
            except KeyError:
                raise RuntimeError(f"the movie {x} | {y} | {z} survives, but Hom({x}, {z}) "
                                   f"has no element with label set {labels:#b}") from None
            out[hxz.elements[k]] = -c if mode == "minus" and hxz.parities[k] else c
    return AlgebraElement(x, z, out)


def clear_caches() -> None:
    """Empty every memo: convolutions, compiled movies, twists, Hom spaces, bases, m(w)
    and the glued pairs of :mod:`arcalg.cohomology` (``_glued_intersection``)."""
    for memo in (_convolution, _compile_movie, _twist, _ends, basis, weight_to_m,
                 _glued_intersection):
        memo.cache_clear()


def _mode(alpha: int, mode: str | None = None) -> str:
    """The rule set of the product at ``alpha``: "plus", "minus", or "nested".

    ``mode`` is None, or "nested" for the embedded TQFT, which agrees with
    alpha = -1 and is only asked for there.
    """
    if alpha not in (1, -1):
        raise ValidationError(f"alpha must be +1 or -1, not {alpha!r}")
    if mode is None:
        return "plus" if alpha == 1 else "minus"
    if mode != "nested" or alpha != -1:
        raise ValidationError(f"mode {mode!r} at alpha {alpha:+d}: "
                              f"the only mode is 'nested', at alpha -1")
    return mode


def _expand(terms: dict, product) -> dict:
    """Sum of coeff * product(t) over ``terms`` = {t: coeff}, zeros dropped.

    ``product(t)`` returns {basis element or its index: coeff}.
    """
    out: dict = defaultdict(int)
    for t, coeff in terms.items():
        for b, c in product(t).items():
            out[b] += coeff * c
    return {b: c for b, c in out.items() if c}


def _compose(a: AlgebraElement, b: AlgebraElement, mode: str, order) -> AlgebraElement:
    if a.tgt != b.src:
        raise CompositionError(f"cannot compose {a.src}->{a.tgt} with {b.src}->{b.tgt}")
    for el in (a, b):
        _hom_of(el)
    cup_order = _validate_order(weight_to_m(a.tgt), order)
    return AlgebraElement(a.src, b.tgt, _expand(a.terms, lambda ba: _expand(
        b.terms, lambda bb: _multiply_basis(ba, bb, mode, cup_order).terms)))


def multiply(a: AlgebraElement, b: AlgebraElement, alpha: int = 1, order=None) -> AlgebraElement:
    """Movie product of a in Hom(x, y) with b in Hom(y, z).

    alpha=+1 gives the associative arc algebra product, alpha=-1 the
    complex-orientation convolution (equal to the embedded nested TQFT).
    ``order`` may fix the cup processing order; it must schedule
    containing cups before contained ones.
    """
    return _compose(a, b, _mode(alpha), order)


def multiply_nested(a: AlgebraElement, b: AlgebraElement, order=None) -> AlgebraElement:
    """Embedded-TQFT product: merge/split maps sensitive to circle nesting."""
    return _compose(a, b, "nested", order)


# ---------------------------------------------------------------------------
# tables and exhaustive checks


@dataclass
class StructureTable:
    shape: Shape
    alpha: int
    weights: tuple[Weight, ...]
    basis: tuple[BasisElement, ...]
    products: dict[tuple[int, int], tuple[tuple[int, int], ...]]

    def index(self, b: BasisElement) -> int:
        return self.basis.index(b)

    def to_json(self) -> str:
        return json.dumps({
            "shape": [self.shape.n, self.shape.k],
            "alpha": self.alpha,
            "weights": [str(w) for w in self.weights],
            "basis": [{"src": str(b.src), "tgt": str(b.tgt), "orient": str(b.orient)}
                      for b in self.basis],
            "products": {f"{i},{j}": [list(t) for t in terms]
                         for (i, j), terms in sorted(self.products.items())},
        })

    @staticmethod
    def from_json(text: str) -> "StructureTable":
        data = json.loads(text)
        basis_ = tuple(BasisElement(Weight.parse(d["src"]), Weight.parse(d["tgt"]),
                                    Weight.parse(d["orient"])) for d in data["basis"])
        products = {}
        for key, terms in data["products"].items():
            i, j = key.split(",")
            products[(int(i), int(j))] = tuple(tuple(t) for t in terms)
        return StructureTable(Shape(*data["shape"]), data["alpha"],
                              tuple(Weight.parse(w) for w in data["weights"]),
                              basis_, products)

    def text_dump(self) -> str:
        lines = [f"shape ({self.shape.n},{self.shape.k})  alpha={self.alpha:+d}  "
                 f"basis size {len(self.basis)}"]
        # one glue per Hom space: the basis runs through them one at a time
        glued = lru_cache(maxsize=1)(diagram_of)
        for idx, b in enumerate(self.basis):
            z = glued(b.src, b.tgt)
            lines.append(f"\n#{idx}  {b}  degree {orientation_degree(z, b.orient)}")
            lines.append(render_circle_diagram(z, b.orient))
        lines.append("\nproducts (i * j = sum of coeff * #k):")
        for (i, j), terms in sorted(self.products.items()):
            rhs = " ".join(f"{c:+d}*#{k}" for k, c in terms) or "0"
            lines.append(f"#{i} * #{j} = {rhs}")
        return "\n".join(lines)


def algebra_basis(shape: Shape, standard_only: bool = False) -> tuple[tuple[Weight, ...], tuple[BasisElement, ...]]:
    if standard_only:
        weights = tuple(weight_of_tableau(s) for s in enumerate_standard(shape))
    else:
        weights = tuple(enumerate_weights(shape))
    return weights, tuple(b for x in weights for y in weights for b in basis(x, y))


def _composable(els: tuple[BasisElement, ...]):
    """Every pair (i, j) of indices into ``els`` with els[i].tgt == els[j].src.

    Pairs come in basis order of their first element, then of their second.
    """
    by_src: dict[Weight, list[int]] = {}
    for j, b in enumerate(els):
        by_src.setdefault(b.src, []).append(j)
    return ((i, j) for i, a in enumerate(els) for j in by_src.get(a.tgt, ()))


def _triple_rows(x: Weight, y: Weight, z: Weight, mode: str,
                 order: tuple[tuple[int, int], ...], index: list[int]) -> list | None:
    """The products of Hom(x, y) with Hom(y, z), or None if all vanish.

    Row i lists (j, ((index[k], coeff), ...)) for element i of Hom(x, y)
    and each element j of Hom(y, z) whose product with it is nonzero.
    ``index`` is the slice of the table's indices that Hom(x, z) takes.
    The convolution decides which triples are live.  Plus mode reads its
    products off it, and minus mode multiplies them by one sign per pair,
    (-1)**(pa + pb + _twist at the canonical ``order``), and negates the
    terms of odd parity, as ``_multiply_basis`` does.  Only nested mode
    compiles the movie, at order None (no flip), for every live pair.
    """
    kernel = _convolution(x, y, z)
    if kernel is None:
        return None
    loads_a, loads_b, outs = kernel
    if mode == "plus":
        shifted = [terms and tuple((index[k], c) for k, c in terms) for terms in outs]
        return [[] if la is None else
                [(j, terms) for j, lb in enumerate(loads_b)
                 if lb is not None and not la & lb and (terms := shifted[la | lb])]
                for la in loads_a]
    hxy, hyz, hxz = _ends(x, y), _ends(y, z), _ends(x, z)
    if mode == "nested":
        return [[(j, terms) for j, b in enumerate(hyz.elements)
                 if (terms := tuple(sorted((index[hxz.index[t]], c) for t, c in
                                           _multiply_basis(a, b, mode, None).terms.items())))]
                for a in hxy.elements]
    twist = _twist(x, y, z, order)
    signed = [terms and (tuple((index[k], -c if hxz.parities[k] else c) for k, c in terms),
                         tuple((index[k], c if hxz.parities[k] else -c) for k, c in terms))
              for terms in outs]
    b_side = list(enumerate(zip(loads_b, hyz.parities)))
    return [[] if la is None else
            [(j, pair[(pa + pb + twist) % 2]) for j, (lb, pb) in b_side
             if lb is not None and not la & lb and (pair := signed[la | lb])]
            for la, pa in zip(loads_a, hxy.parities)]


def structure_table(shape: Shape, alpha: int = 1, standard_only: bool = False,
                    mode: str | None = None) -> StructureTable:
    """All pairwise products of basis elements (zero/uncomposable pairs omitted).

    Weight triples are visited x, then y, then z, and each live triple
    fills its rows; products still come in composable order.
    """
    the_mode = _mode(alpha, mode)
    weights, els = algebra_basis(shape, standard_only)
    # indices[x][y]: the table indices of Hom(x, y), one int object each,
    # shared by every key and term (x, y positions in ``weights``)
    indices: list[list[list[int]]] = []
    position = 0
    for x in weights:
        indices.append([])
        for y in weights:
            size = len(_ends(x, y).elements)
            indices[-1].append(list(range(position, position + size)))
            position += size
    products: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for x, from_x in zip(weights, indices):
        for y, from_y, first in zip(weights, indices, from_x):
            if not first:
                continue
            order = canonical_order(weight_to_m(y))
            live = [(second, rows) for z, second, out in zip(weights, from_y, from_x)
                    if second and (rows := _triple_rows(x, y, z, the_mode, order, out))]
            for i, a in enumerate(first):
                for second, rows in live:
                    for j, terms in rows[i]:
                        products[a, second[j]] = terms
    return StructureTable(shape, alpha, weights, els, products)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _x_form(els: tuple[BasisElement, ...], src: Weight, tgt: Weight, terms) -> str:
    """x-form of the element with ``terms`` = (index into ``els``, coeff) pairs."""
    return AlgebraElement(src, tgt, {els[t]: c for t, c in terms}).x_form()


def check_associativity(shape: Shape, alpha: int = 1) -> CheckResult:
    """(a*b)*c == a*(b*c) over every composable basis triple.

    Both bracketings are summed over nonzero products only; the witness
    is still the first failing triple in composable order.
    """
    return _associativity(structure_table(shape, alpha))


def _associativity(table: StructureTable) -> CheckResult:
    """check_associativity on a built table.

    For each a in basis order, one dict holds (ab)c - a(bc) keyed by
    (b, c, term): (ab)c runs over the nonzero products a*b, each term t of
    a*b and the nonzero products t*c; a(bc) over the nonzero products a*t
    and the products b*c whose support holds t.  The smallest (b, c) with
    a nonzero entry is the first failing triple, as composable order is
    lexicographic in the indices.
    """
    els = table.basis
    rows: list[list] = [[] for _ in els]  # rows[p] = [(q, terms of p*q)]
    cols: list[list] = [[] for _ in els]  # cols[t] = [(p, q, coeff of t in p*q)]
    for (p, q), terms in table.products.items():
        rows[p].append((q, terms))
        for t, c in terms:
            cols[t].append((p, q, c))
    for i in range(len(els)):
        diff: dict[tuple[int, int, int], int] = defaultdict(int)
        for j, ab in rows[i]:
            for t, e in ab:
                for k, tc in rows[t]:
                    for s, d in tc:
                        diff[j, k, s] += e * d
        for t, at in rows[i]:
            for j, k, e in cols[t]:
                for s, d in at:
                    diff[j, k, s] -= e * d
        bad = [key[:2] for key, v in diff.items() if v]
        if bad:
            j, k = min(bad)
            a, b, c = els[i], els[j], els[k]

            def prod(p: int, q: int) -> dict[int, int]:
                return dict(table.products.get((p, q), ()))

            left = _expand(prod(i, j), lambda t: prod(t, k))
            right = _expand(prod(j, k), lambda t: prod(i, t))
            return CheckResult(False,
                               f"a={a} b={b} c={c}: "
                               f"(ab)c={_x_form(els, a.src, c.tgt, left.items())} "
                               f"!= a(bc)={_x_form(els, a.src, c.tgt, right.items())}")
    return CheckResult(True)


def check_order_independence(shape: Shape, alpha: int = 1) -> CheckResult:
    """Products agree across every nesting-compatible cup order."""
    mode = _mode(alpha)
    weights, els = algebra_basis(shape)
    orders = {y: list(cup_orders(weight_to_m(y))) for y in weights}
    for i, j in _composable(els):
        a, b = els[i], els[j]
        ref, *alts = orders[a.tgt]
        if not alts:
            continue
        want = _multiply_basis(a, b, mode, ref)
        for order in alts:
            got = _multiply_basis(a, b, mode, order)
            if got != want:
                return CheckResult(False, f"a={a} b={b} order={order}: "
                                          f"{got.x_form()} != {want.x_form()}")
    return CheckResult(True)


def check_nested_agreement(shape: Shape) -> CheckResult:
    """multiply_nested agrees with multiply(alpha=-1) on every composable pair."""
    return _nested_agreement(structure_table(shape, -1, mode="nested"),
                             structure_table(shape, -1))


def _nested_agreement(nested: StructureTable, minus: StructureTable) -> CheckResult:
    """check_nested_agreement on the built nested and alpha = -1 tables."""
    els = minus.basis
    for i, j in _composable(els):
        lhs, rhs = nested.products.get((i, j), ()), minus.products.get((i, j), ())
        if lhs != rhs:
            a, b = els[i], els[j]
            return CheckResult(False, f"a={a} b={b}: "
                                      f"nested {_x_form(els, a.src, b.tgt, lhs)} "
                                      f"!= alpha=-1 {_x_form(els, a.src, b.tgt, rhs)}")
    return CheckResult(True)


def check_degree_additivity(shape: Shape, alpha: int = 1) -> CheckResult:
    """Nonzero products sit in degree deg(a) + deg(b)."""
    return _degree_additivity(structure_table(shape, alpha))


def _degree_additivity(table: StructureTable) -> CheckResult:
    """check_degree_additivity on a built table."""
    els = table.basis
    # the basis runs over Hom(x, y) for x, then y, in ``table.weights``
    degrees = [d for x in table.weights for y in table.weights for d in _ends(x, y).degrees]
    for (i, j), terms in table.products.items():  # in composable order
        want = degrees[i] + degrees[j]
        for t, _ in terms:
            if degrees[t] != want:
                return CheckResult(False, f"a={els[i]} b={els[j]} term={els[t]}: "
                                          f"degree {degrees[t]} != {want}")
    return CheckResult(True)


def check_unit(shape: Shape, alpha: int = 1) -> CheckResult:
    """Idempotents act as identities: e(src) * b == b == b * e(tgt) for each basis element b."""
    weights, els = algebra_basis(shape)
    for b in els:
        e_left = idempotent(b.src)
        e_right = idempotent(b.tgt)
        one = AlgebraElement(b.src, b.tgt, {b: 1})
        if multiply(e_left, one, alpha) != one or multiply(one, e_right, alpha) != one:
            return CheckResult(False, f"unit law fails at {b}")
    return CheckResult(True)
