"""The graded convolution / arc algebra on oriented circle diagrams.

A basis element of Hom(x, y) is an orientation of the glued diagram with
m(x) below and m(y) on top: a fixed point in Theta(x) ∩ Theta(y), read
off with no glue (``diagrams._fixed_points``).  Circles carry one of two
orientations; the lower-degree one plays the role of 1 and the higher one
the role of X, with the dictionary "X on a circle = the generator x_i at
the circle's leftmost point i" tying everything to the ring presentations
in :mod:`arcalg.cohomology`.

Every product goes through ``_triple_rows``, which gives all products of
one weight triple (x, y, z) at once.  Alpha picks the rules and the cup
order the engine.  At the default order (None) no movie runs.  After the
last surgery every column carries a vertical strand, so the whole
cobordism of the triple is fixed by the components of m(x), m(y) and
m(z) drawn together: the convolution reads every alpha = +1 product of
the triple off per-component counts, and alpha = -1 is that product
times (-1)**(pa + pb + twist) with the output parities; the twist is
read off a walk that follows only which nodes of the movie meet.  An
explicit cup order folds the surgery movie of :mod:`arcalg._movie`, under
the Frobenius rules at +1 and the nested rules at -1, for every pair of
the triple; the movie is the reference the convolution is tested against.

Everything is pure.  The exhaustive checks at the bottom report the first
failure in composable order.  The movie check, cup-order independence,
folds each weight triple once per cup order; at alpha = -1 it holds the
nested rules at every order to the alpha = -1 product, so it also checks
that alpha = -1 is the nested TQFT.  The other checks read an
alpha = +-1 structure table; associativity sums both bracketings over
nonzero products only, and still reports the first failing triple.
"""
from __future__ import annotations

import json
from collections import defaultdict
from functools import lru_cache
from typing import NamedTuple

from ._movie import (OrderError, _compile_movie, _fold, _twist, _validate_order,
                     canonical_order, cup_orders)
from . import cohomology
from .diagrams import (CIRCLE, CircleDiagram, Shape, ValidationError, Weight, _Checked,
                       _fixed_points, _switches, _weight_of, diagram_of, enumerate_standard,
                       enumerate_weights, render_circle_diagram, weight_of_tableau, weight_to_m)


class CompositionError(ValidationError):
    """Product of elements whose middle weights disagree."""


class BasisElement(NamedTuple):
    """Oriented circle diagram: src below, tgt on top, orient a full weight."""

    src: Weight
    tgt: Weight
    orient: Weight

    def diagram(self) -> CircleDiagram:
        return diagram_of(self.src, self.tgt)

    def __str__(self) -> str:
        return f"[{self.src}|{self.tgt}|{self.orient}]"


def basis(x: Weight, y: Weight) -> tuple[BasisElement, ...]:
    """All basis elements of Hom(x, y), in orientation order; ``_ends`` holds them."""
    return _ends(x, y).elements


def degree(b: BasisElement) -> int:
    """Arcs whose left endpoint carries an up mark; ValidationError off the basis."""
    return _ends(b.src, b.tgt).degrees[_position(b.src, b.tgt, b)]


class _ElementFields(NamedTuple):
    src: Weight
    tgt: Weight
    terms: dict[BasisElement, int]


class AlgebraElement(_Checked, _ElementFields):
    """Integer combination of basis elements of one Hom space.

    ``terms`` drops zero coefficients and keeps the rest in basis order (a
    term outside it raises ValidationError); a dict, so elements do not hash.
    """

    __slots__ = ()

    def __new__(cls, src: Weight, tgt: Weight,
                terms: dict[BasisElement, int] | None = None) -> "AlgebraElement":
        at = {_position(src, tgt, b): c for b, c in (terms or {}).items() if c != 0}
        elements = _ends(src, tgt).elements
        return tuple.__new__(cls, (src, tgt, {elements[i]: at[i] for i in sorted(at)}))

    def is_zero(self) -> bool:
        return not self.terms

    def x_form(self) -> str:
        """Render as a polynomial in the leftmost-point generators."""
        if not self.terms:
            return "0"
        hom = _ends(self.src, self.tgt)
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
        return " ".join(f"{c:+d}*{b}" for b, c in self.terms.items())


def idempotent(x: Weight) -> AlgebraElement:
    """Degree-0 element of Hom(x, x); x itself orients its self-glued diagram."""
    e = BasisElement(x, x, x)
    if d := degree(e):
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


def _position(src: Weight, tgt: Weight, b: BasisElement) -> int:
    """Where ``b`` sits in the basis of Hom(src, tgt); ValidationError if nowhere."""
    i = _ends(src, tgt).index.get(b)
    if i is None:
        raise ValidationError(f"{b} is not a basis element of Hom({src}, {tgt})")
    return i


def _mask(columns) -> int:
    """Bit 2c for each column c."""
    return sum(1 << 2 * c for c in columns)


_NO_HOM = _Hom((), (), (), (), {}, {}, 0, (), (), 0)  # every zero Hom space


@lru_cache(maxsize=8192)
def _ends(x: Weight, y: Weight) -> _Hom:
    """Hom(x, y): its basis and degrees are ``_fixed_points``; glued only if nonzero."""
    if x.n != y.n:
        raise ValidationError(f"cannot glue diagrams on {y.n} and {x.n} points")
    if not (points := _fixed_points(x, y)):
        return _NO_HOM
    z = diagram_of(x, y)
    circles = [comp.leftmost for comp in z.circles()]
    elements, labels, parities = [], [], []
    for u, _ in points:
        up = [c for c in circles if u >> c - 1 & 1]
        elements.append(BasisElement(x, y, _weight_of(u, x.n)))
        labels.append(_mask(up))
        parities.append(sum(up) % 2)
    return _Hom(tuple(elements), tuple(labels), tuple(parities), tuple(d for _, d in points),
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
    if not hxz.elements:
        return None
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


def _triple_rows(x: Weight, y: Weight, z: Weight, alpha: int,
                 cup_order: tuple[tuple[int, int], ...] | None, index, _only=None) -> list | None:
    """The products of Hom(x, y) with Hom(y, z), or None where all vanish.

    Row i lists (j, ((index[k], coeff), ...)) for element i of Hom(x, y)
    and each j of Hom(y, z) whose product with it is nonzero, k running
    over Hom(x, z).  ``cup_order`` None reads the convolution; alpha = -1
    multiplies its +1 product by (-1)**(pa + pb + twist at the canonical
    order) and negates odd-parity terms, turning leftmost-x classes into
    z-classes (z_i = (-1)**i x_i) at both ends.  An explicit order folds
    the compiled movie, under the Frobenius rules at +1 and the nested
    rules at -1, for every pair (i, j), or with ``_only`` = (the i's, the
    j's) just for those, leaving the rest zero.  On movies with handles
    (n >= 6) the splitting cups vary with the order, so a nested product is
    negated (flipped) where the movie's twist differs from the canonical one.
    """
    if cup_order is not None:
        if (movie := _compile_movie(x, y, z, cup_order)) is None:
            return None
        events, twist = movie
        sign = -1 if alpha == -1 and cup_order != canonical_order(weight_to_m(y)) and (
            twist != _twist(x, y, z)) else 1  # the flip
        hxy, hyz, hxz = _ends(x, y), _ends(y, z), _ends(x, z)
        rows: list = [[] for _ in hxy.labels]
        firsts, seconds = _only or (range(len(hxy.labels)), range(len(hyz.labels)))
        for i in firsts:
            for j in seconds:
                terms = _fold(events, alpha == -1, {hxy.labels[i] | hyz.labels[j] << 1: sign})
                try:
                    ks = sorted((hxz.at[labels], c) for labels, c in terms.items())
                except KeyError as missing:
                    raise RuntimeError(f"the movie {x} | {y} | {z} survives, but Hom({x}, {z}) "
                                       f"has no element with label set {missing.args[0]:#b}"
                                       ) from None
                if ks:
                    rows[i].append((j, tuple((index[k], c) for k, c in ks)))
        return rows
    if (kernel := _convolution(x, y, z)) is None:
        return None
    loads_a, loads_b, outs = kernel
    if alpha == 1:
        shifted = [terms and tuple((index[k], c) for k, c in terms) for terms in outs]
        return [[] if la is None else
                [(j, terms) for j, lb in enumerate(loads_b)
                 if lb is not None and not la & lb and (terms := shifted[la | lb])]
                for la in loads_a]
    hxy, hyz, hxz = _ends(x, y), _ends(y, z), _ends(x, z)
    twist = _twist(x, y, z)
    signed = [terms and (tuple((index[k], -c if hxz.parities[k] else c) for k, c in terms),
                         tuple((index[k], c if hxz.parities[k] else -c) for k, c in terms))
              for terms in outs]
    b_side = list(enumerate(zip(loads_b, hyz.parities)))
    return [[] if la is None else
            [(j, pair[(pa + pb + twist) % 2]) for j, (lb, pb) in b_side
             if lb is not None and not la & lb and (pair := signed[la | lb])]
            for la, pa in zip(loads_a, hxy.parities)]


def clear_caches() -> None:
    """Empty every memo: convolutions, twists, Hom spaces and their bases, m(w),
    Theta(w) and the glued pairs of :mod:`arcalg.cohomology` (``_PAIRS``)."""
    for memo in (_convolution, _twist, canonical_order, _ends, weight_to_m, _switches):
        memo.cache_clear()
    cohomology._PAIRS.clear()


def _alpha(alpha: int) -> int:
    """``alpha``, if it is the int +1 or -1; ValidationError otherwise."""
    if type(alpha) is not int or alpha not in (1, -1):
        raise ValidationError(f"alpha must be +1 or -1, not {alpha!r}")
    return alpha


def _expand(terms: dict, product) -> dict:
    """Sum of coeff * product(t) over ``terms`` = {t: coeff}, zeros dropped.

    ``product(t)`` returns {basis element or its index: coeff}.
    """
    out: dict = defaultdict(int)
    for t, coeff in terms.items():
        for b, c in product(t).items():
            out[b] += coeff * c
    return {b: c for b, c in out.items() if c}


def _compose(a: AlgebraElement, b: AlgebraElement, alpha: int, order) -> AlgebraElement:
    if a.tgt != b.src:
        raise CompositionError(f"cannot compose {a.src}->{a.tgt} with {b.src}->{b.tgt}")
    coeffs_a = {_ends(a.src, a.tgt).index[t]: c for t, c in a.terms.items()}
    coeffs_b = {_ends(b.src, b.tgt).index[t]: c for t, c in b.terms.items()}
    cup_order = _validate_order(weight_to_m(a.tgt), order)
    rows = _triple_rows(a.src, a.tgt, b.tgt, alpha, cup_order, basis(a.src, b.tgt),
                        (coeffs_a, coeffs_b))
    out: dict[BasisElement, int] = defaultdict(int)
    for i, ca in coeffs_a.items():
        for j, terms in rows[i] if rows else ():
            for t, c in terms:
                out[t] += ca * coeffs_b.get(j, 0) * c
    return AlgebraElement(a.src, b.tgt, out)


def multiply(a: AlgebraElement, b: AlgebraElement, alpha: int = 1, order=None) -> AlgebraElement:
    """Product of a in Hom(x, y) with b in Hom(y, z).

    alpha=+1 gives the associative arc algebra product.  alpha=-1 is the
    +1 product twisted by the sign cochain s(x, y, z) = (-1)**twist and
    the parities of a, b and each output term.  It is not associative:
    (ab)c = ds * a(bc) for c in Hom(z, w), with
    ds = s(x, y, z) * s(x, z, w) * s(y, z, w) * s(x, y, w).  It equals the
    embedded nested TQFT (``multiply_nested``).  At the default ``order``
    the product is read off the convolution; an explicit ``order`` runs
    the movie in that cup processing order, which must schedule
    containing cups before contained ones.
    """
    return _compose(a, b, _alpha(alpha), order)


def multiply_nested(a: AlgebraElement, b: AlgebraElement, order=None) -> AlgebraElement:
    """Embedded-TQFT product, the movie at alpha = -1 (default: the canonical order)."""
    return _compose(a, b, -1, canonical_order(weight_to_m(a.tgt)) if order is None else order)


# ---------------------------------------------------------------------------
# tables and exhaustive checks


class StructureTable(NamedTuple):
    shape: Shape
    alpha: int
    weights: tuple[Weight, ...]
    basis: tuple[BasisElement, ...]
    products: dict[tuple[int, int], tuple[tuple[int, int], ...]]

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
        """The table of ``to_json``; ValidationError for anything else."""
        try:
            data = json.loads(text)
            shape, alpha = Shape(*data["shape"]), data["alpha"]
            weights = tuple(Weight.parse(w) for w in data["weights"])
            basis_ = tuple(BasisElement(Weight.parse(d["src"]), Weight.parse(d["tgt"]),
                                        Weight.parse(d["orient"])) for d in data["basis"])
            products = {}
            for key, terms in data["products"].items():
                i, j = key.split(",")
                products[int(i), int(j)] = tuple((t, c) for t, c in terms)
        except ValidationError:
            raise
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(f"malformed structure table: {exc!r}") from None
        _alpha(alpha)
        if weights not in (_weights(shape, False), _weights(shape, True)):
            raise ValidationError(f"the table's weights are not those of shape "
                                  f"({shape.n},{shape.k})")
        if basis_ != tuple(b for x in weights for y in weights for b in basis(x, y)):
            raise ValidationError("the table's basis is not that of its weights")
        for (i, j), terms in products.items():
            if any(type(v) is not int for term in terms for v in term):
                raise ValidationError(f"product {i},{j}: terms must be [index, coeff] int pairs")
            if not all(0 <= k < len(basis_) for k in (i, j, *(t for t, _ in terms))):
                raise ValidationError(f"product {i},{j} names no element of a basis "
                                      f"of size {len(basis_)}")
            a, b = basis_[i], basis_[j]
            if a.tgt != b.src:
                raise ValidationError(f"product {i},{j}: {a} and {b} do not compose")
            if any(basis_[t][:2] != (a.src, b.tgt) for t, _ in terms):
                raise ValidationError(f"product {i},{j} has a term outside "
                                      f"Hom({a.src}, {b.tgt})")
        return StructureTable(shape, alpha, weights, basis_, products)

    def text_dump(self) -> str:
        lines = [f"shape ({self.shape.n},{self.shape.k})  alpha={self.alpha:+d}  "
                 f"basis size {len(self.basis)}"]
        # one glue per Hom space: the basis runs through them one at a time
        glued = lru_cache(maxsize=1)(diagram_of)
        for idx, b in enumerate(self.basis):
            z = glued(b.src, b.tgt)
            lines.append(f"\n#{idx}  {b}  degree {degree(b)}")
            lines.append(render_circle_diagram(z, b.orient))
        lines.append("\nproducts (i * j = sum of coeff * #k):")
        for (i, j), terms in sorted(self.products.items()):
            rhs = " ".join(f"{c:+d}*#{k}" for k, c in terms) or "0"
            lines.append(f"#{i} * #{j} = {rhs}")
        return "\n".join(lines)


def _weights(shape: Shape, standard_only: bool) -> tuple[Weight, ...]:
    """The weights of a table of ``shape``: all, or those of standard tableaux."""
    if standard_only:
        return tuple(weight_of_tableau(s) for s in enumerate_standard(shape))
    return tuple(enumerate_weights(shape))


def algebra_basis(shape: Shape, standard_only: bool = False) -> tuple[tuple[Weight, ...], tuple[BasisElement, ...]]:
    weights = _weights(shape, standard_only)
    return weights, tuple(b for x in weights for y in weights for b in basis(x, y))


def structure_table(shape: Shape, alpha: int = 1, standard_only: bool = False) -> StructureTable:
    """All pairwise products of basis elements (zero/uncomposable pairs omitted).

    Weight triples are visited x, then y, then z, and each live triple
    fills its rows; products still come in composable order.
    """
    _alpha(alpha)
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
            live = [(second, rows) for z, second, out in zip(weights, from_y, from_x)
                    if second and out and (rows := _triple_rows(x, y, z, alpha, None, out))]
            for i, a in enumerate(first):
                for second, rows in live:
                    for j, terms in rows[i]:
                        products[a, second[j]] = terms
    return StructureTable(shape, alpha, weights, els, products)


class CheckResult(NamedTuple):
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
    """Products agree across every nesting-compatible cup order.

    At alpha = +1 every order's product is held to the first order's.  At
    alpha = -1 the nested rules, with the flip, are folded at every order
    and held to the convolution's, order None, so one pass checks that
    alpha = -1 is the nested TQFT and that it does not depend on the cup
    order.  Each weight triple is folded once per order; pairs are compared
    in composable order, and within a pair order by order.
    """
    _alpha(alpha)
    weights = enumerate_weights(shape)
    # per middle weight, the orders, the reference first
    per_y = {y: [None] * (alpha == -1) + list(cup_orders(weight_to_m(y))) for y in weights}
    for x in weights:
        for y in weights:
            first, (_, *alts) = _ends(x, y).elements, per_y[y]
            if not (first and alts):
                continue
            # per z, each variant's rows of the triple, row i as {j: terms}
            triples = [(z, [[dict(row) for row in
                             _triple_rows(x, y, z, alpha, order, _ends(x, z).elements)
                             or [()] * len(first)] for order in per_y[y]])
                       for z in weights if _ends(y, z).elements]
            for i, a in enumerate(first):
                for z, (want, *gots) in triples:
                    for j, b in enumerate(_ends(y, z).elements):
                        for order, got in zip(alts, gots):
                            if got[i].get(j) != want[i].get(j):
                                got, want = (AlgebraElement(x, z, dict(rows[i].get(j, ())))
                                             for rows in (got, want))
                                return CheckResult(False, f"a={a} b={b} order={order}: "
                                                          f"{got.x_form()} != {want.x_form()}")
    return CheckResult(True)


def check_degree_additivity(shape: Shape, alpha: int = 1) -> CheckResult:
    """Nonzero products sit in degree deg(a) + deg(b)."""
    return _degree_additivity(structure_table(shape, alpha))


def _degree_additivity(table: StructureTable) -> CheckResult:
    """check_degree_additivity on a built table."""
    els = table.basis
    degrees = [degree(b) for b in els]
    for (i, j), terms in table.products.items():  # in composable order
        want = degrees[i] + degrees[j]
        for t, _ in terms:
            if degrees[t] != want:
                return CheckResult(False, f"a={els[i]} b={els[j]} term={els[t]}: "
                                          f"degree {degrees[t]} != {want}")
    return CheckResult(True)


def check_unit(shape: Shape, alpha: int = 1) -> CheckResult:
    """Idempotents act as identities: e(src) * b == b == b * e(tgt) for each basis element b."""
    return _unit(structure_table(shape, alpha))


def _unit(table: StructureTable) -> CheckResult:
    """check_unit on a built table."""
    els, products = table.basis, table.products
    index = {b: i for i, b in enumerate(els)}
    units = {x: index[e] for x in table.weights for e in idempotent(x).terms}
    for t, b in enumerate(els):
        one = ((t, 1),)
        if products.get((units[b.src], t)) != one or products.get((t, units[b.tgt])) != one:
            return CheckResult(False, f"unit law fails at {b}")
    return CheckResult(True)
