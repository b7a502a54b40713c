"""Independent oracles used by the test suite.

Everything here is deliberately written against different machinery than
the package (networkx multigraphs, bit-parallel enumeration, brute-force
closures) so that agreement is a genuine cross-check rather than the
same code run twice.  The exceptions are the package's earlier engines,
kept as references: the surgery movie, against which the compiled movie
is compared step for step, the compiled movie's pair-by-pair table,
against which the tables read off each triple's components are
compared, exact elimination over Fraction with a
Bareiss determinant, against which the pullback ranks, kernels and the
K0 determinant read off their structure are compared, the ordered
scan of every composable triple, against which the sparse associativity
check is compared, and Theta(w) built one cup subset at a time, against
which the up-set memo is compared.  ``is_oriented`` is no oracle: it
names the package's ``orients_with_rays`` with every ray up for the
membership tests.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import networkx as nx

from arcalg.arc_algebra import (AlgebraElement, BasisElement, CheckResult,
                                StructureTable, _triple_rows, algebra_basis,
                                basis, canonical_order, diagram_of)
from arcalg.diagrams import Shape
from arcalg.diagrams import (CIRCLE, DOWN, LINE, UP, Component, CupDiagram,
                             Weight, orients_with_rays, weight_to_m)

# ---------------------------------------------------------------------------
# bit-parallel exhaustive orientation filter: bitmaps over all 2**n mark
# vectors (bit i of the vector index = up at point i+1)


@lru_cache(maxsize=None)
def _bit_mask(n: int, i: int) -> int:
    block = 1 << i
    pattern = ((1 << block) - 1) << block
    out = 0
    step = block * 2
    for r in range((1 << n) // step):
        out |= pattern << (r * step)
    return out


def orientation_count_oracle(w: Weight, wp: Weight) -> int:
    """Count all sign vectors orienting glue(m(wp), m(w)) by sheer enumeration."""
    n = w.n
    bottom, top = weight_to_m(w), weight_to_m(wp)
    valid = (1 << (1 << n)) - 1
    for a, b in list(bottom.cups) + list(top.cups):
        valid &= _bit_mask(n, a - 1) ^ _bit_mask(n, b - 1)
    for r in bottom.rays:
        m = _bit_mask(n, r - 1)
        valid &= m if w.mark(r) == UP else ~m
    for r in top.rays:
        m = _bit_mask(n, r - 1)
        valid &= m if wp.mark(r) == UP else ~m
    valid &= (1 << (1 << n)) - 1
    return bin(valid).count("1")


def orientation_set_oracle(w: Weight, wp: Weight) -> set[str]:
    """Same filter, returning the mark strings (small n only)."""
    n = w.n
    out = set()
    bottom, top = weight_to_m(w), weight_to_m(wp)
    for bits in range(1 << n):
        marks = "".join(UP if bits >> i & 1 else DOWN for i in range(n))
        v = Weight(marks)
        if any(v.mark(a) == v.mark(b) for a, b in list(bottom.cups) + list(top.cups)):
            continue
        if any(v.mark(r) != w.mark(r) for r in bottom.rays):
            continue
        if any(v.mark(r) != wp.mark(r) for r in top.rays):
            continue
        out.add(marks)
    return out


# ---------------------------------------------------------------------------
# union-find component census for glued diagrams


def component_census_oracle(w_bottom: Weight, w_top: Weight) -> list[tuple[str, tuple[int, ...]]]:
    bottom, top = weight_to_m(w_bottom), weight_to_m(w_top)
    parent = {i: i for i in range(1, bottom.n + 1)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in list(bottom.cups) + list(top.cups):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(1, bottom.n + 1):
        groups.setdefault(find(i), []).append(i)
    rays = set(bottom.rays) | set(top.rays)
    out = []
    for verts in groups.values():
        kind = "line" if any(v in rays for v in verts) else "circle"
        out.append((kind, tuple(sorted(verts))))
    return sorted(out, key=lambda t: t[1][0])


def is_oriented(w: Weight, c: CupDiagram) -> bool:
    """True iff w orients c with every ray up: w lies in c's component."""
    return orients_with_rays(w, c, Weight(UP * c.n))


def region_classes_oracle(c: CupDiagram) -> tuple[tuple[int, ...], ...]:
    """The one-diagram classes on {0,..,n}, read as regions below the axis.

    Gap g lies between points g and g+1.  Cups and rays cut the lower
    half-plane into regions, and two gaps share one exactly when the same
    cups span both and no ray falls between them.
    """
    regions: dict[tuple, list[int]] = {}
    for g in range(c.n + 1):
        key = (tuple(cup for cup in c.cups if cup[0] <= g < cup[1]),
               sum(1 for r in c.rays if r <= g))
        regions.setdefault(key, []).append(g)
    return tuple(sorted(tuple(gaps) for gaps in regions.values()))


def nesting_depth_oracle(z) -> list[int]:
    """Depth of every component of a glued diagram, by the earlier parent search.

    The parent of a circle is the narrowest other circle with an odd
    number of caps over its leftmost point; a depth is the length of the
    parent chain, and lines have depth 0.
    """
    comps = z.components
    parents: list[int | None] = []
    for i, c in enumerate(comps):
        if c.kind != CIRCLE:
            parents.append(None)
            continue
        parent = None
        parent_span = None
        for j, d in enumerate(comps):
            if j == i or d.kind != CIRCLE:
                continue
            caps_over = sum(1 for (kind, a, b) in d.arcs
                            if kind == "cap" and a < c.leftmost < b)
            if caps_over % 2 == 1:  # leftmost vertex of c lies inside d
                span = d.vertices[-1] - d.vertices[0]
                if parent_span is None or span < parent_span:
                    parent_span = span
                    parent = j
        parents.append(parent)
    depths = []
    for p in parents:
        d = 0
        while p is not None:
            d += 1
            p = parents[p]
        depths.append(d)
    return depths


def circle_sign_oracle(w_bottom: Weight, w_top: Weight) -> dict[tuple[int, int], int]:
    """(-1)**(shortest arc path from i to j) for all points i, j on one circle.

    The glued diagram is a networkx graph on the points with one edge per
    cup of m(w_bottom) and of m(w_top); a component with no ray is a circle.
    """
    bottom, top = weight_to_m(w_bottom), weight_to_m(w_top)
    g = nx.MultiGraph()
    g.add_nodes_from(range(1, bottom.n + 1))
    g.add_edges_from(list(bottom.cups) + list(top.cups))
    rays = set(bottom.rays) | set(top.rays)
    out = {}
    for comp in nx.connected_components(g):
        if comp & rays:
            continue
        for i, dist in nx.all_pairs_shortest_path_length(g.subgraph(comp)):
            for j, d in dist.items():
                out[(i, j)] = (-1) ** d
    return out


# ---------------------------------------------------------------------------
# direct label-TQFT product (the alpha = +1 oracle): networkx multigraph,
# rays joined up front, cups processed left to right


def _flip(mark: str) -> str:
    return UP if mark == DOWN else DOWN


def _propagate(g: nx.MultiGraph, comp: set, seeds: dict) -> dict:
    """Spread marks over a component: arcs flip, verticals copy."""
    start = next(v for v in comp if v in seeds)
    marks = {start: seeds[start]}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for _, other, data in g.edges(v, data=True):
            want = _flip(marks[v]) if data["kind"] == "arc" else marks[v]
            if other not in marks:
                marks[other] = want
                frontier.append(other)
    return marks


def _circle_trial(verts: list, arcs: list, want_high: bool) -> dict:
    for seed in (DOWN, UP):
        trial = {verts[0]: seed}
        frontier = [verts[0]]
        while frontier:
            vv = frontier.pop()
            for p, q in arcs:
                if vv in (p, q):
                    other = p if vv == q else q
                    if other not in trial:
                        trial[other] = _flip(trial[vv])
                        frontier.append(other)
        ups_left = sum(1 for p, q in arcs if trial[min(p, q)] == UP)
        if (ups_left == len(arcs) // 2 + 1) == want_high:
            return trial
    raise AssertionError("no orientation with the requested parity")


def direct_product_oracle(x: Weight, y: Weight, z: Weight,
                          orient_a: Weight, orient_b: Weight) -> dict[str, int]:
    """Plain Frobenius product of basis elements, as {final orientation: coeff}.

    Implements merge/split/line rules directly on a networkx multigraph
    with labels per circle; returns the result in terms of orientations
    of the final glued diagram (bottom m(x), top m(z)).
    """
    mx, my, mz = weight_to_m(x), weight_to_m(y), weight_to_m(z)
    n = x.n
    g = nx.MultiGraph()
    for i in range(1, n + 1):
        g.add_node(("lo", i))
        g.add_node(("hi", i))
    for a, b in mx.cups:
        g.add_edge(("lo", a), ("lo", b), key="x", kind="arc")
    for a, b in my.cups:
        g.add_edge(("lo", a), ("lo", b), key="mid_cap", kind="arc")
        g.add_edge(("hi", a), ("hi", b), key="mid_cup", kind="arc")
    for a, b in mz.cups:
        g.add_edge(("hi", a), ("hi", b), key="z", kind="arc")
    forced = {("lo", r): x.mark(r) for r in mx.rays}
    forced.update({("hi", r): z.mark(r) for r in mz.rays})
    stub_open = set(my.rays)
    for r in my.rays:
        forced[("lo", r)] = forced[("hi", r)] = y.mark(r)

    def comps():
        return [set(c) for c in nx.connected_components(g)]

    def is_circle(comp):
        for lv, v in comp:
            if lv == "lo" and v in mx.rays:
                return False
            if lv == "hi" and v in mz.rays:
                return False
            if v in stub_open and v in my.rays:
                return False
        return True

    key = frozenset

    # initial labels: the high circles of each factor
    labelled = set()
    for level, m_bot, m_top, orient in (("lo", mx, my, orient_a), ("hi", my, mz, orient_b)):
        gg = nx.MultiGraph()
        gg.add_nodes_from(range(1, n + 1))
        for tag, cups in (("b", m_bot.cups), ("t", m_top.cups)):
            for a, b in cups:
                gg.add_edge(a, b, key=tag)
        for comp in nx.connected_components(gg):
            verts = sorted(comp)
            if any(v in m_bot.rays or v in m_top.rays for v in verts):
                continue
            arcs = [(a, b) for a, b in list(m_bot.cups) + list(m_top.cups) if a in comp]
            ups_left = sum(1 for a, b in arcs if orient.mark(a) == UP)
            if ups_left == len(arcs) // 2 + 1:
                labelled.add(frozenset((level, v) for v in verts))

    terms: dict[frozenset, int] = {frozenset(labelled): 1}

    def retag(update):
        new: dict[frozenset, int] = {}
        for labels, coeff in terms.items():
            for nl, f in update(labels):
                if f:
                    k2 = frozenset(nl)
                    new[k2] = new.get(k2, 0) + coeff * f
        return {k: v for k, v in new.items() if v}

    # rays first
    for r in sorted(my.rays):
        joined = any(("lo", r) in c and ("hi", r) in c for c in comps())
        g.add_edge(("lo", r), ("hi", r), key=f"v{r}", kind="vertical")
        stub_open.discard(r)
        if joined:  # the connection closes a circle, labelled X
            gamma = key(next(c for c in comps() if ("lo", r) in c))

            def upd(labels, gamma=gamma):
                yield labels | {gamma}, 1
            terms = retag(upd)

    # cups left to right
    for a, b in sorted(my.cups):
        ca = next(c for c in comps() if ("hi", a) in c)
        cb = next(c for c in comps() if ("lo", a) in c)
        ka, kb = key(ca), key(cb)
        circ_a, circ_b = is_circle(ca), is_circle(cb)
        marks_a = _propagate(g, ca, forced) if not circ_a else None
        marks_b = _propagate(g, cb, forced) if not circ_b else None
        g.remove_edge(("hi", a), ("hi", b), key="mid_cup")
        g.remove_edge(("lo", a), ("lo", b), key="mid_cap")
        g.add_edge(("lo", a), ("hi", a), key=f"va{a}", kind="vertical")
        g.add_edge(("lo", b), ("hi", b), key=f"vb{b}", kind="vertical")
        if ka != kb:
            if circ_a and circ_b:
                gamma = key(next(c for c in comps() if ("hi", a) in c))

                def upd(labels, ka=ka, kb=kb, gamma=gamma):
                    has = (ka in labels) + (kb in labels)
                    rest = labels - {ka, kb}
                    if has == 2:
                        return
                    yield (rest | {gamma}, 1) if has else (rest, 1)
            elif circ_a or circ_b:
                circle = ka if circ_a else kb

                def upd(labels, circle=circle):
                    if circle not in labels:
                        yield labels, 1
            else:
                ok = marks_a[("hi", a)] == marks_b[("lo", a)] == DOWN

                def upd(labels, ok=ok):
                    if ok:
                        yield labels, 1
        else:
            if circ_a:
                g1 = key(next(c for c in comps() if ("hi", a) in c))
                g2 = key(next(c for c in comps() if ("hi", b) in c))

                def upd(labels, ka=ka, g1=g1, g2=g2):
                    rest = labels - {ka}
                    if ka in labels:
                        yield rest | {g1, g2}, 1
                    else:
                        yield rest | {g1}, 1
                        yield rest | {g2}, 1
            else:
                pieces = {key(next(c for c in comps() if ("hi", a) in c)),
                          key(next(c for c in comps() if ("hi", b) in c))}
                born = [p for p in pieces if is_circle(set(p))]
                if born:
                    gamma = born[0]

                    def upd(labels, gamma=gamma):
                        yield labels | {gamma}, 1
                else:
                    ok = marks_a[("hi", a)] == marks_a[("lo", a)] == DOWN

                    def upd(labels, ok=ok):
                        if ok:
                            yield labels, 1
        terms = retag(upd)

    # read off final orientations
    out: dict[str, int] = {}
    for labels, coeff in terms.items():
        marks: dict[int, str] = {}
        for comp in comps():
            verts = sorted({v for _, v in comp})
            if any(v in mx.rays or v in mz.rays for v in verts):
                cm = _propagate(g, comp, forced)
                for lv, v in comp:
                    marks[v] = cm[(lv, v)]
            else:
                arcs = ([(a, b) for a, b in mx.cups if a in verts] +
                        [(a, b) for a, b in mz.cups if a in verts])
                marks.update(_circle_trial(verts, arcs, key(comp) in labels))
        s = "".join(marks[i] for i in range(1, n + 1))
        out[s] = out.get(s, 0) + coeff
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# reference surgery movie: the package's earlier engine, kept verbatim as a
# differential reference for the compiled movie in arcalg.arc_algebra.  It
# rebuilds every component from scratch after each surgery and tracks labels
# as sets of node sets, so it is slow but easy to read.

def _circle_marks(comp: Component, high: bool) -> dict[int, str]:
    """Marks of the low or high orientation of a circle component."""
    for seed in (DOWN, UP):
        marks = {comp.leftmost: seed}
        frontier = [comp.leftmost]
        while frontier:
            v = frontier.pop()
            for _, a, b in comp.arcs:
                if v in (a, b):
                    other = a if v == b else b
                    want = UP if marks[v] == DOWN else DOWN
                    if other not in marks:
                        marks[other] = want
                        frontier.append(other)
        ups_left = sum(1 for (_, a, _b) in comp.arcs if marks[a] == UP)
        half = len(comp.arcs) // 2
        if (ups_left == half + 1) == high:
            return marks
    raise RuntimeError(f"circle {comp.vertices} has no {'high' if high else 'low'} orientation")


def _is_high(comp: Component, v: Weight) -> bool:
    ups_left = sum(1 for (_, a, _b) in comp.arcs if v.mark(a) == UP)
    return ups_left == len(comp.arcs) // 2 + 1


def _line_marks(comp: Component, w_bottom: Weight, w_top: Weight) -> dict[int, str]:
    """The forced orientation of a line component of a glued diagram."""
    forced = {r: w_bottom.mark(r) for r in comp.bottom_rays}
    forced.update({r: w_top.mark(r) for r in comp.top_rays})
    start, mark = next(iter(forced.items()))
    marks = {start: mark}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for _, a, b in comp.arcs:
            if v in (a, b):
                other = a if v == b else b
                want = UP if marks[v] == DOWN else DOWN
                if other not in marks:
                    marks[other] = want
                    frontier.append(other)
    for r, mk in forced.items():
        if marks.get(r) != mk:
            raise RuntimeError("line marks inconsistent with rays")
    return marks


# bands, bottom to top: cups of m(x), caps of m(y), cups of m(y), caps of m(z)
_B_CUP_X, _B_CAP_MID, _B_CUP_MID, _B_CAP_Z = 0, 1, 2, 3


class _Movie:
    def __init__(self, x: Weight, y: Weight, z: Weight):
        self.x, self.y, self.z = x, y, z
        self.n = x.n
        self.mx, self.my, self.mz = weight_to_m(x), weight_to_m(y), weight_to_m(z)
        self.arcs: set[tuple[int, int, int]] = set()
        for a, b in self.mx.cups:
            self.arcs.add((_B_CUP_X, a, b))
        for a, b in self.my.cups:
            self.arcs.add((_B_CAP_MID, a, b))
            self.arcs.add((_B_CUP_MID, a, b))
        for a, b in self.mz.cups:
            self.arcs.add((_B_CAP_Z, a, b))
        self.verticals: set[int] = set()
        self.stubs: set[int] = set(self.my.rays)

    # -- components ---------------------------------------------------------

    def components(self) -> dict[frozenset, dict]:
        adj: dict[tuple[str, int], list] = {}
        for lv in ("l", "u"):
            for i in range(1, self.n + 1):
                adj[(lv, i)] = []
        for band, a, b in self.arcs:
            lv = "l" if band in (_B_CUP_X, _B_CAP_MID) else "u"
            adj[(lv, a)].append((lv, b))
            adj[(lv, b)].append((lv, a))
        for c in self.verticals:
            adj[("l", c)].append(("u", c))
            adj[("u", c)].append(("l", c))
        ends = {("l", r) for r in self.mx.rays} | {("u", r) for r in self.mz.rays}
        for r in self.stubs:
            ends.add(("l", r))
            ends.add(("u", r))
        out: dict[frozenset, dict] = {}
        seen: set = set()
        for start in adj:
            if start in seen:
                continue
            nodes = set()
            stack = [start]
            while stack:
                v = stack.pop()
                if v in nodes:
                    continue
                nodes.add(v)
                stack.extend(adj[v])
            seen |= nodes
            arcs = frozenset(arc for arc in self.arcs
                             if (("l" if arc[0] in (_B_CUP_X, _B_CAP_MID) else "u"), arc[1]) in nodes)
            kind = LINE if nodes & ends else CIRCLE
            key = frozenset(nodes)
            out[key] = {"nodes": key, "arcs": arcs, "kind": kind}
        return out

    def find(self, comps: dict, node: tuple[str, int]) -> frozenset:
        for key in comps:
            if node in key:
                return key
        raise RuntimeError(f"node {node} not found")

    # -- forced marks on lines ----------------------------------------------

    def mark_at(self, comps: dict, key: frozenset, node: tuple[str, int]) -> str:
        forced: dict[tuple[str, int], str] = {}
        for r in self.mx.rays:
            if ("l", r) in key:
                forced[("l", r)] = self.x.mark(r)
        for r in self.mz.rays:
            if ("u", r) in key:
                forced[("u", r)] = self.z.mark(r)
        for r in self.stubs:
            for lv in ("l", "u"):
                if (lv, r) in key:
                    forced[(lv, r)] = self.y.mark(r)
        if not forced:
            raise RuntimeError("line without a forced end")
        start, mark = next(iter(forced.items()))
        marks = {start: mark}
        frontier = [start]
        arcs = comps[key]["arcs"]
        while frontier:
            v = frontier.pop()
            lv, col = v
            for band, a, b in arcs:
                alv = "l" if band in (_B_CUP_X, _B_CAP_MID) else "u"
                if alv == lv and col in (a, b):
                    other = (alv, a if col == b else b)
                    want = UP if marks[v] == DOWN else DOWN
                    if other not in marks:
                        marks[other] = want
                        frontier.append(other)
            if col in self.verticals:
                other = ("u" if lv == "l" else "l", col)
                if other not in marks:
                    marks[other] = marks[v]
                    frontier.append(other)
        return marks[node]

    # -- nesting test --------------------------------------------------------

    @staticmethod
    def _inside(p: dict, q: dict) -> bool:
        band, i, j = min(p["arcs"])
        t = 2 * i + 1  # doubled coordinates: arc (a, b) covers t iff 2a < t < 2b
        if band in (_B_CUP_X, _B_CUP_MID):  # cup: shoot downward
            hits = sum(1 for (b2, a, c) in q["arcs"] if b2 <= band and 2 * a < t < 2 * c)
        else:  # cap: shoot upward
            hits = sum(1 for (b2, a, c) in q["arcs"] if b2 >= band and 2 * a < t < 2 * c)
        return hits % 2 == 1

    def nested_pair(self, p: dict, q: dict) -> tuple[dict, dict] | None:
        """(outer, inner) when one circle encloses the other, else None."""
        if self._inside(p, q):
            return (q, p)
        if self._inside(q, p):
            return (p, q)
        return None


def _min_col(key: frozenset) -> int:
    return min(col for _, col in key)


def _split_parity(x: Weight, y: Weight, z: Weight,
                  cup_order: tuple[tuple[int, int], ...]) -> int:
    """Parity of the sum of left ends over the splitting and birthing cups.

    Which cups split (rather than merge) depends on the chosen order once
    the movie has positive genus, and the raw geometric sign
    (-1)**(left end) follows the splitting cup around.  This structural
    pass classifies the events without touching labels, so the sign
    drift between two orders can be cancelled exactly.
    """
    mv = _Movie(x, y, z)
    comps = mv.components()
    total = 0
    for r in sorted(mv.my.rays):
        mv.verticals.add(r)
        mv.stubs.discard(r)
    comps = mv.components()
    for i, j in cup_order:
        a_key = mv.find(comps, ("u", i))
        b_key = mv.find(comps, ("l", i))
        was_line = comps[a_key]["kind"] == LINE
        mv.arcs.discard((_B_CUP_MID, i, j))
        mv.arcs.discard((_B_CAP_MID, i, j))
        mv.verticals.add(i)
        mv.verticals.add(j)
        comps = mv.components()
        if a_key == b_key:
            pieces = {mv.find(comps, ("u", i)), mv.find(comps, ("u", j))}
            if not was_line:
                total += i  # circle split
            elif len(pieces) == 2 and any(
                    comps[p]["kind"] == CIRCLE for p in pieces):
                total += i  # a circle pinched off a line
    return total % 2


def _ray_twist(x: Weight, y: Weight, z: Weight) -> int:
    """Parity of the sum of (smallest ray + 1) over the circles the ray joins close.

    These are the exponents of the alpha = -1 signs of ``_ray_step``; the
    ray columns are joined before any cup, so they do not depend on the
    cup order.
    """
    mv = _Movie(x, y, z)
    for r in mv.my.rays:
        mv.verticals.add(r)
        mv.stubs.discard(r)
    rays = set(mv.my.rays)
    return sum(min(col for _, col in key if col in rays) + 1
               for key, comp in mv.components().items()
               if comp["kind"] == CIRCLE and any(col in rays for _, col in key)) % 2


def _run_movie(ba: BasisElement, bb: BasisElement, mode: str,
               cup_order: tuple[tuple[int, int], ...]) -> dict[frozenset[frozenset], int]:
    """Run the surgery movie; returns {set of X-labelled final components: coeff}.

    Labels in minus mode are z-classes; callers convert at the boundary.
    In minus and nested modes the result is renormalized by the split
    parity of the canonical order, making the product independent of the
    chosen cup order also on movies with handles (first possible at
    n = 6), where the splitting cups themselves vary with the order.
    Genus-0 movies have order-invariant split parity, so every
    canonical-order value and every order of the handle-free products is
    left untouched.
    """
    mv = _Movie(ba.src, ba.tgt, bb.tgt)
    comps = mv.components()

    # initial labels: high circles of each factor carry X
    start: set[frozenset] = set()
    coeff = 1
    for b_elt, level in ((ba, "l"), (bb, "u")):
        for comp in b_elt.diagram().components:
            if comp.kind == CIRCLE and _is_high(comp, b_elt.orient):
                key = frozenset((level, v) for v in comp.vertices)
                assert key in comps
                start.add(key)
                if mode == "minus":
                    coeff *= (-1) ** comp.leftmost
    if mode in ("minus", "nested"):
        reference = canonical_order(mv.my)
        if cup_order != reference:
            drift = (_split_parity(ba.src, ba.tgt, bb.tgt, cup_order)
                     + _split_parity(ba.src, ba.tgt, bb.tgt, reference))
            coeff *= (-1) ** drift
    terms: dict[frozenset, int] = {frozenset(start): coeff}

    steps = [("ray", r) for r in sorted(mv.my.rays)] + [("cup", c) for c in cup_order]
    for kind, data in steps:
        if not terms:
            break
        if kind == "ray":
            terms, comps = _ray_step(mv, comps, terms, data, mode)
        else:
            terms, comps = _cup_step(mv, comps, terms, data, mode)
    return terms


def _retag(terms, updater):
    """Rebuild the term dict, letting ``updater`` map each term's label set."""
    out: dict[frozenset, int] = {}
    for labels, coeff in terms.items():
        for new_labels, factor in updater(labels):
            if factor == 0:
                continue
            key = frozenset(new_labels)
            out[key] = out.get(key, 0) + coeff * factor
    return {k: v for k, v in out.items() if v != 0}


def _ray_step(mv: _Movie, comps, terms, r: int, mode: str):
    a_key = mv.find(comps, ("u", r))
    b_key = mv.find(comps, ("l", r))
    mv.verticals.add(r)
    mv.stubs.discard(r)
    new_comps = mv.components()
    if a_key != b_key:
        # joining two stub-ended lines; stub marks agree by construction
        return terms, new_comps
    # the connection closes the line into a circle
    gamma = mv.find(new_comps, ("u", r))
    r_star = min(col for _, col in gamma if col in mv.my.rays)
    if mode == "plus":
        factor = 1
    elif mode == "minus":
        factor = (-1) ** (r_star + 1)
    else:
        factor = (-1) ** (r_star + 1 + _min_col(gamma))

    def upd(labels):
        yield labels | {gamma}, factor

    return _retag(terms, upd), new_comps


def _cup_step(mv: _Movie, comps, terms, cup: tuple[int, int], mode: str):
    i, j = cup
    a_key = mv.find(comps, ("u", i))
    b_key = mv.find(comps, ("l", i))
    a, b = comps[a_key], comps[b_key]

    # marks must be read before rewiring
    if a["kind"] == LINE and b["kind"] == LINE and a_key != b_key:
        mark_u = mv.mark_at(comps, a_key, ("u", i))
        mark_l = mv.mark_at(comps, b_key, ("l", i))
        line_factor = 1 if (mark_u == mark_l == DOWN) else 0
    elif a_key == b_key and a["kind"] == LINE:
        mark_u = mv.mark_at(comps, a_key, ("u", i))
        mark_l = mv.mark_at(comps, a_key, ("l", i))
        line_factor = 1 if (mark_u == mark_l == DOWN) else 0
    else:
        line_factor = None

    mv.arcs.discard((_B_CUP_MID, i, j))
    mv.arcs.discard((_B_CAP_MID, i, j))
    mv.verticals.add(i)
    mv.verticals.add(j)
    new_comps = mv.components()

    if a_key != b_key:
        if a["kind"] == CIRCLE and b["kind"] == CIRCLE:
            gamma = mv.find(new_comps, ("u", i))
            pair = mv.nested_pair(a, b) if mode == "nested" else None

            def upd(labels):
                has_a, has_b = a_key in labels, b_key in labels
                rest = labels - {a_key, b_key}
                if has_a and has_b:
                    return  # X * X = 0
                if not (has_a or has_b):
                    yield rest, 1
                    return
                factor = 1
                if pair is not None:
                    inner_key = pair[1]["nodes"]
                    if (has_a and a_key == inner_key) or (has_b and b_key == inner_key):
                        factor = -1  # m': 1 (x) X_inner -> -X
                yield rest | {gamma}, factor

            return _retag(terms, upd), new_comps

        if LINE in (a["kind"], b["kind"]) and CIRCLE in (a["kind"], b["kind"]):
            circle_key = a_key if a["kind"] == CIRCLE else b_key

            def upd(labels):
                if circle_key in labels:
                    return  # the circle variable dies on the line
                yield labels, 1

            return _retag(terms, upd), new_comps

        # two line segments reconnect; identity only for counter-clockwise arcs
        def upd(labels):
            yield labels, line_factor

        return _retag(terms, upd), new_comps

    # self-saddle
    if a["kind"] == CIRCLE:
        gi = mv.find(new_comps, ("u", i))
        gj = mv.find(new_comps, ("u", j))
        if gi == gj:
            raise RuntimeError("self-saddle failed to split a circle (non-planar state)")
        pair = mv.nested_pair(new_comps[gi], new_comps[gj]) if mode == "nested" else None
        sign = (-1) ** i if mode == "minus" else 1

        def upd(labels):
            rest = labels - {a_key}
            if a_key in labels:
                factor = -1 if mode == "nested" else sign
                yield rest | {gi, gj}, factor
                return
            if mode == "nested":
                if pair is not None:
                    outer_key = pair[0]["nodes"]
                    yield rest | {gi}, 1 if gi == outer_key else -1
                    yield rest | {gj}, 1 if gj == outer_key else -1
                else:
                    yield rest | {gi}, -1
                    yield rest | {gj}, -1
            else:
                yield rest | {gi}, sign
                yield rest | {gj}, sign

        return _retag(terms, upd), new_comps

    # self-saddle on a line: either a circle pinches off or the line reconnects
    pieces = {mv.find(new_comps, ("u", i)), mv.find(new_comps, ("u", j))}
    circle_keys = [k for k in pieces if new_comps[k]["kind"] == CIRCLE]
    if not circle_keys:
        def upd(labels):
            yield labels, line_factor

        return _retag(terms, upd), new_comps

    gamma = circle_keys[0]
    if mode == "plus":
        factor = 1
    elif mode == "minus":
        factor = (-1) ** i
    else:
        factor = (-1) ** (i + _min_col(gamma))

    def upd(labels):
        yield labels | {gamma}, factor

    return _retag(terms, upd), new_comps


def movie_product_oracle(ba: BasisElement, bb: BasisElement, mode: str,
                         cup_order: tuple[tuple[int, int], ...]) -> dict[BasisElement, int]:
    """Product of two basis elements as {basis element: coeff}, zeros dropped."""
    x, z = ba.src, bb.tgt
    raw = _run_movie(ba, bb, mode, cup_order)
    zout = diagram_of(x, z)
    out: dict[BasisElement, int] = {}
    for labels, coeff in raw.items():
        labelled_cols = {frozenset(col for _, col in key_) for key_ in labels}
        marks: dict[int, str] = {}
        for comp in zout.components:
            cols = frozenset(comp.vertices)
            if comp.kind == LINE:
                marks.update(_line_marks(comp, x, z))
            else:
                high = cols in labelled_cols
                marks.update(_circle_marks(comp, high))
                if high and mode == "minus":
                    coeff *= (-1) ** comp.leftmost  # z -> leftmost-x dictionary
        v = Weight("".join(marks[i] for i in range(1, x.n + 1)))
        be = BasisElement(x, z, v)
        out[be] = out.get(be, 0) + coeff
    return {b: c for b, c in out.items() if c}


# ---------------------------------------------------------------------------
# the package's earlier table builder: every composable pair through the movie


def movie_rows_oracle(x: Weight, y: Weight, z: Weight, alpha: int, index) -> list | None:
    """_triple_rows(x, y, z, alpha, None, index) as the compiled movie folds
    it at the canonical cup order, given explicitly: under the Frobenius
    rules at alpha = +1 and the nested ones at -1."""
    return _triple_rows(x, y, z, alpha, canonical_order(weight_to_m(y)), index)


def rows_table(shape: Shape, alpha: int, rows) -> StructureTable:
    """A structure table labelled ``alpha`` whose composable weight triples
    fill their products from ``rows(x, y, z, index)``, a list of
    _triple_rows rows or None."""
    weights, els = algebra_basis(shape)
    index = {b: i for i, b in enumerate(els)}
    products = {}
    for x in weights:
        for y in weights:
            for z in weights:
                first, second = basis(x, y), basis(y, z)
                if first and second:
                    for a, row in zip(first, rows(x, y, z, [index[t] for t in basis(x, z)]) or ()):
                        for j, terms in row:
                            products[(index[a], index[second[j]])] = terms
    return StructureTable(shape, alpha, weights, els, products)


def movie_table_oracle(shape: Shape, alpha: int) -> StructureTable:
    """structure_table(shape, alpha), every weight triple's rows read off
    movie_rows_oracle."""
    return rows_table(shape, alpha, lambda x, y, z, index: movie_rows_oracle(x, y, z, alpha, index))


# ---------------------------------------------------------------------------
# the ordered triple scan: the package's earlier associativity check


def associativity_scan_oracle(table: StructureTable) -> CheckResult:
    """(ab)c == a(bc) over every composable basis triple of ``table``.

    Triples come in basis order of a, then b, then c; each pays both
    bracketings, zero products included, and the first failure is the
    witness.
    """
    els = table.basis
    products = {pair: dict(terms) for pair, terms in table.products.items()}
    by_src: dict[Weight, list[int]] = {}
    for idx, b in enumerate(els):
        by_src.setdefault(b.src, []).append(idx)

    def prod(p: int, q: int) -> dict[int, int]:
        return products.get((p, q), {})

    def expand(terms: dict[int, int], product) -> dict[int, int]:
        out: dict[int, int] = {}
        for t, coeff in terms.items():
            for s, c in product(t).items():
                out[s] = out.get(s, 0) + coeff * c
        return {s: c for s, c in out.items() if c}

    def x_form(src: Weight, tgt: Weight, terms: dict[int, int]) -> str:
        return AlgebraElement(src, tgt, {els[t]: c for t, c in terms.items()}).x_form()

    for i, a in enumerate(els):
        for j in by_src.get(a.tgt, ()):
            for k in by_src.get(els[j].tgt, ()):
                left = expand(prod(i, j), lambda t: prod(t, k))
                right = expand(prod(j, k), lambda t: prod(i, t))
                if left != right:
                    b, c = els[j], els[k]
                    return CheckResult(False, f"a={a} b={b} c={c}: "
                                              f"(ab)c={x_form(a.src, c.tgt, left)} "
                                              f"!= a(bc)={x_form(a.src, c.tgt, right)}")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# brute-force closure of the weight order's generating move


def leq_oracle(w: Weight, v: Weight) -> bool:
    """w <= v iff w is reachable from v by moves turning up-down into down-up."""
    seen = {v.marks}
    frontier = [v.marks]
    while frontier:
        cur = frontier.pop()
        if cur == w.marks:
            return True
        for i in range(len(cur) - 1):
            if cur[i] == UP and cur[i + 1] == DOWN:
                nxt = cur[:i] + DOWN + UP + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return w.marks in seen


# ---------------------------------------------------------------------------
# Theta(w) by switching cup subsets one Weight at a time: the package's
# earlier construction, the reference for its up-set memo


def theta_oracle(w: Weight) -> tuple[Weight, ...]:
    """w with the marks of each subset of m(w)'s cups swapped, in canonical order."""
    cups = weight_to_m(w).cups
    out = []
    for r in range(len(cups) + 1):
        for subset in itertools.combinations(cups, r):
            marks = list(w.marks)
            for a, b in subset:
                marks[a - 1], marks[b - 1] = marks[b - 1], marks[a - 1]
            out.append(Weight("".join(marks)))
    assert len(set(out)) == 2 ** len(cups), f"cup switches of {w} are not distinct"
    # canonical order: reversed marks, down before up
    return tuple(sorted(out, key=lambda v: tuple(c == UP for c in reversed(v.marks))))


# ---------------------------------------------------------------------------
# exact elimination over Fraction and fraction-free Bareiss: the reference
# for the pullback ranks, kernels and the K0 determinant


def pullback_matrix(generators: tuple[int, ...], pb) -> list[list[int]]:
    """Rows indexed by generators, columns by x_1..x_n."""
    gidx = {g: r for r, g in enumerate(generators)}
    mat = [[0] * pb.n for _ in generators]
    for i, image in enumerate(pb.images):
        for g, coeff in image:
            mat[gidx[g]][i] = coeff
    return mat


def rref(rows: list[list[int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank(rows: list[list[int]]) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def nullspace(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel {v : M v = 0} of a matrix with ncols columns."""
    if not rows:
        return [[Fraction(int(i == f)) for i in range(ncols)] for f in range(ncols)]
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -mat[r][f]
        basis.append(v)
    return basis


def in_kernel(rows: list[list[int]], vec: list[Fraction]) -> bool:
    return all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)


def kernel_within_oracle(p_gens, p, q_gens, q) -> bool:
    """ker p is contained in ker q, by elimination over Fraction."""
    rows_q = pullback_matrix(q_gens, q)
    return all(in_kernel(rows_q, vec)
               for vec in nullspace(pullback_matrix(p_gens, p), p.n))


def det_int(mat: list[list[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
