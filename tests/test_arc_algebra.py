import dataclasses
import functools
import importlib
import itertools
import pkgutil

import pytest

import arcalg
from arcalg import arc_algebra
from arcalg.arc_algebra import (AlgebraElement, BasisElement, CompositionError,
                                OrderError, StructureTable, basis,
                                canonical_order, check_associativity,
                                check_degree_additivity, check_nested_agreement,
                                check_order_independence, check_unit, cup_orders,
                                degree, idempotent, low_element, multiply,
                                multiply_nested, structure_table)
from arcalg.cohomology import intersection_cohomology
from arcalg.diagrams import (UP, Shape, ValidationError, Weight, diagram_of,
                             enumerate_standard, enumerate_weights,
                             weight_of_tableau, weight_to_m)
from oracles import (_is_high, associativity_scan_oracle, component_census_oracle,
                     direct_product_oracle, movie_table_oracle)

W = Weight.parse
NXT = W("v^v^")
NESTED = W("vv^^")


def one(x, y, orient=None):
    els = basis(x, y)
    if orient is not None:
        els = [b for b in els if b.orient == W(orient)]
    b = min(els, key=degree)
    return AlgebraElement(x, y, {b: 1})


def weights_of(n, k):
    return enumerate_weights(Shape(n, k))


# tables of the n <= 6 sweeps, built once per test session
built_table = functools.lru_cache(maxsize=None)(structure_table)
SMALL_SHAPES = [Shape(n, k) for n in range(1, 7) for k in range(n // 2 + 1)]


# --- degree -------------------------------------------------------------------

def test_idempotent_degree_zero():
    for w in weights_of(4, 2):
        e = idempotent(w)
        (b,) = e.terms
        assert degree(b) == 0 and b.orient == w


def test_x_form_names_the_high_circles():
    for n in range(1, 8):
        for k in range(n // 2 + 1):
            ws = weights_of(n, k)
            for x, y in itertools.product(ws, repeat=2):
                for b in basis(x, y):
                    high = [f"x{c.leftmost}" for c in b.diagram().circles()
                            if _is_high(c, b.orient)]
                    assert AlgebraElement(x, y, {b: 1}).x_form() == ("*".join(high) or "1")
    arc_algebra.clear_caches()


def test_x_form_reads_the_hom_space_and_glues_nothing(count_glues):
    x = W("v^v^v^")
    everything = AlgebraElement(x, x, {b: 1 for b in basis(x, x)})
    calls = count_glues()
    assert everything.x_form() == "1 + x1 + x3 + x5 + x1*x3 + x1*x5 + x3*x5 + x1*x3*x5"
    assert calls == [0]


def test_x_form_rejects_terms_outside_the_basis():
    stray = AlgebraElement(W("v^"), W("v^"), {BasisElement(W("v^"), W("v^"), W("vv")): 1})
    with pytest.raises(ValidationError, match=r"\[v\^\|v\^\|vv\] is not a basis element "
                                              r"of Hom\(v\^, v\^\)"):
        stray.x_form()


def test_idempotent_reads_its_degree_off_the_hom_space(count_glues):
    ws = weights_of(6, 3)
    for x in ws:
        arc_algebra._ends(x, x)
    calls = count_glues()
    for x in ws:
        assert idempotent(x).terms == {BasisElement(x, x, x): 1}
    assert calls == [0]


def test_single_circle_degrees():
    degs = sorted(degree(b) for b in basis(NXT, NESTED))
    assert degs == [1, 3]
    low = min(basis(NXT, NESTED), key=degree)
    assert str(low.orient) == "v^v^"


def test_hom_dimension_is_two_to_circles():
    for shape in [Shape(4, 2), Shape(5, 2), Shape(6, 3)]:
        ws = weights_of(shape.n, shape.k)
        for x, y in itertools.product(ws, repeat=2):
            z = diagram_of(x, y)
            els = basis(x, y)
            if els:
                assert len(els) == 2 ** z.circle_count()


def test_degree_generating_function_standard_pairs():
    # q**(k-c) * (1+q**2)**c, anchoring the intrinsic degree
    for shape in [Shape(4, 2), Shape(6, 3), Shape(8, 4)]:
        stds = [weight_of_tableau(t) for t in enumerate_standard(shape)]
        for x, y in itertools.product(stds, repeat=2):
            z = diagram_of(x, y)
            c = z.circle_count()
            degs = sorted(degree(b) for b in basis(x, y))
            want = []
            for bits in itertools.product((0, 2), repeat=c):
                want.append(shape.k - c + sum(bits))
            assert degs == sorted(want)


# --- units and composition ------------------------------------------------------

def test_idempotent_is_unit_on_4_2():
    ws = weights_of(4, 2)
    for x, y in itertools.product(ws, repeat=2):
        for b in basis(x, y):
            el = AlgebraElement(x, y, {b: 1})
            for alpha in (1, -1):
                assert multiply(idempotent(x), el, alpha) == el
                assert multiply(el, idempotent(y), alpha) == el


def test_composition_error():
    with pytest.raises(CompositionError):
        multiply(idempotent(NXT), idempotent(NESTED))


def test_terms_outside_the_basis_are_rejected():
    # vv does not orient the ray diagram of v^, so it is no basis element
    stray = AlgebraElement(W("v^"), W("v^"), {BasisElement(W("v^"), W("v^"), W("vv")): 1})
    with pytest.raises(ValidationError, match=r"\[v\^\|v\^\|vv\] is not a basis element"):
        multiply(stray, idempotent(W("v^")))
    with pytest.raises(ValidationError):
        multiply_nested(idempotent(W("v^")), stray)


def test_bad_order_rejected():
    a = one(NESTED, NXT)
    b = one(NXT, NESTED)
    with pytest.raises(OrderError):
        multiply(a, b, 1, order=[(1, 2)])
    a2 = one(NXT, NESTED)
    b2 = one(NESTED, NXT)
    with pytest.raises(OrderError):
        # inner cup (2,3) before the containing (1,4)
        multiply(a2, b2, 1, order=[(2, 3), (1, 4)])


@pytest.mark.parametrize("call", [
    lambda: structure_table(Shape(4, 2), 2),
    lambda: structure_table(Shape(4, 2), 1, mode="bogus"),
    lambda: structure_table(Shape(4, 2), 1, mode="nested"),
    lambda: check_associativity(Shape(4, 2), 0),
    lambda: check_order_independence(Shape(4, 2), 5),
    lambda: check_degree_additivity(Shape(4, 2), 3),
    lambda: multiply(one(NESTED, NXT), one(NXT, NESTED), 2),
], ids=["table-alpha", "table-bogus-mode", "table-nested-plus", "assoc-alpha",
        "orders-alpha", "degree-alpha", "multiply-alpha"])
def test_bad_alpha_or_mode_rejected(call):
    with pytest.raises(ValidationError):
        call()


def test_cup_orders_enumeration():
    assert set(cup_orders(weight_to_m(NXT))) == {((1, 2), (3, 4)), ((3, 4), (1, 2))}
    assert list(cup_orders(weight_to_m(NESTED))) == [((1, 4), (2, 3))]
    assert canonical_order(weight_to_m(NESTED)) == ((1, 4), (2, 3))


# --- the worked multiplication example ------------------------------------------

def test_unit_product_through_side_by_side_middle():
    a = one(NESTED, NXT)
    b = one(NXT, NESTED)
    assert multiply(a, b, 1).x_form() == "x1 + x2"
    assert multiply(a, b, -1).x_form() == "x1 - x2"
    # both cup orders give the same element
    for order in cup_orders(weight_to_m(NXT)):
        assert multiply(a, b, 1, order=order).x_form() == "x1 + x2"
        assert multiply(a, b, -1, order=order).x_form() == "x1 - x2"


def test_unit_product_through_nested_middle():
    a = one(NXT, NESTED)
    b = one(NESTED, NXT)
    assert multiply(a, b, 1).x_form() == "x1 + x3"
    assert multiply(a, b, -1).x_form() == "- x1 - x3"


def test_nested_tqft_matches_alpha_minus_one_on_example():
    a = one(NESTED, NXT)
    b = one(NXT, NESTED)
    assert multiply_nested(a, b) == multiply(a, b, -1)
    assert multiply_nested(b, a) == multiply(b, a, -1)


# --- products anchored in the projective-module model ----------------------------

def test_two_point_algebra():
    s, t = W("v^"), W("^v")
    p = one(s, t)
    q = one(t, s)
    assert degree(next(iter(p.terms))) == 1
    x_elt = AlgebraElement(s, s, {max(basis(s, s), key=degree): 1})
    for alpha in (1, -1):
        assert multiply(q, p, alpha).is_zero()
        assert multiply(x_elt, p, alpha).is_zero()
        assert multiply(p, multiply(q, x_elt, alpha), alpha).is_zero()
    assert multiply(p, q, 1).x_form() == "x1"
    assert multiply(p, q, -1).x_form() == "- x1"
    ee = multiply(x_elt, x_elt, 1)
    assert ee.is_zero()


def test_mixed_composite_with_rays():
    # Hom through an all-ray middle picks up the closed circle with label X
    x = W("v^^")   # shape (3,1)
    t = W("^v^")
    p = low_element(x, t)
    q = low_element(t, x)
    assert p is not None and q is not None
    prod = multiply(p, q, 1)
    (term,) = prod.terms
    assert degree(term) == degree(next(iter(p.terms))) + degree(next(iter(q.terms)))


@pytest.mark.parametrize("shape", [Shape(4, 2), Shape(5, 1), Shape(6, 3)])
def test_low_element_is_the_first_element_of_least_degree(shape):
    for x, y in itertools.product(weights_of(shape.n, shape.k), repeat=2):
        els = basis(x, y)
        want = AlgebraElement(x, y, {min(els, key=degree): 1}) if els else None
        assert low_element(x, y) == want


# --- exhaustive checks ------------------------------------------------------------

@pytest.mark.parametrize("shape", [Shape(2, 1), Shape(3, 1), Shape(4, 2), Shape(5, 2)])
@pytest.mark.parametrize("alpha", [1, -1])
def test_order_independence_small(shape, alpha):
    res = check_order_independence(shape, alpha)
    assert res.ok, res.witness


@pytest.mark.parametrize("shape", [Shape(2, 1), Shape(3, 1), Shape(4, 2), Shape(5, 2)])
@pytest.mark.parametrize("alpha", [1, -1])
def test_degree_additivity_small(shape, alpha):
    res = check_degree_additivity(shape, alpha)
    assert res.ok, res.witness


@pytest.mark.parametrize("shape", [Shape(2, 1), Shape(3, 1), Shape(4, 2), Shape(5, 2)])
def test_nested_agreement_small(shape):
    res = check_nested_agreement(shape)
    assert res.ok, res.witness


@pytest.mark.parametrize("shape", [Shape(2, 1), Shape(3, 1), Shape(4, 2)])
def test_associativity_plus_small(shape):
    res = check_associativity(shape, 1)
    assert res.ok, res.witness


def test_associativity_minus_fails_at_4_2():
    res = check_associativity(Shape(4, 2), -1)
    assert not res.ok
    assert "!=" in res.witness


def test_associativity_witness_is_the_first_failing_triple():
    # triples are visited in basis order of a, then b, then c
    assert check_associativity(Shape(4, 2), -1).witness == (
        "a=[v^v^|vv^^|v^v^] b=[vv^^|v^v^|v^v^] c=[v^v^|vv^^|v^v^]: "
        "(ab)c=- 2*x1 != a(bc)=2*x1")
    assert check_associativity(Shape(5, 2), -1).witness == (
        "a=[^v^v^|^vv^^|^v^v^] b=[^vv^^|^v^v^|^v^v^] c=[^v^v^|^vv^^|^v^v^]: "
        "(ab)c=- 2*x2 != a(bc)=2*x2")
    assert check_associativity(Shape(6, 2), -1).witness == (
        "a=[^^v^v^|^^vv^^|^^v^v^] b=[^^vv^^|^^v^v^|^^v^v^] c=[^^v^v^|^^vv^^|^^v^v^]: "
        "(ab)c=- 2*x3 != a(bc)=2*x3")


# one composable pair through the two-cup middle v^v^, whose product is nonzero
PAIR = tuple(next(iter(one(x, y).terms)) for x, y in ((NESTED, NXT), (NXT, NESTED)))


def _negate(el):
    return AlgebraElement(el.src, el.tgt, {t: -c for t, c in el.terms.items()})


@pytest.mark.parametrize("check, args, corrupt, when, detail", [
    (check_nested_agreement, (), _negate,
     lambda mode, order: mode == "nested", ": nested - x1 + x2 != alpha=-1 x1 - x2"),
    (check_order_independence, (-1,), _negate,
     lambda mode, order: order == ((3, 4), (1, 2)), " order=((3, 4), (1, 2)): - x1 + x2 != x1 - x2"),
    (check_order_independence, (1,), _negate,
     lambda mode, order: order == ((3, 4), (1, 2)), " order=((3, 4), (1, 2)): - x1 - x2 != x1 + x2"),
])
def test_checks_fail_on_one_corrupted_product(monkeypatch, check, args, corrupt, when, detail):
    real = arc_algebra._multiply_basis

    def fake(ba, bb, mode, cup_order):
        prod = real(ba, bb, mode, cup_order)
        return corrupt(prod) if (ba, bb) == PAIR and when(mode, cup_order) else prod

    monkeypatch.setattr(arc_algebra, "_multiply_basis", fake)
    res = check(Shape(4, 2), *args)
    a, b = PAIR
    assert not res.ok
    assert res.witness.startswith(f"a={a} b={b}{detail}"), res.witness


def _corrupt_pair_in_tables(monkeypatch, corrupt):
    """Every table arc_algebra builds carries corrupt(table, terms) as PAIR's product."""
    real = arc_algebra.structure_table

    def fake(*args, **kwargs):
        table = real(*args, **kwargs)
        key = tuple(table.index(b) for b in PAIR)
        return dataclasses.replace(
            table, products={**table.products, key: corrupt(table, table.products[key])})

    monkeypatch.setattr(arc_algebra, "structure_table", fake)


def _add_wrong_degree_term(table, terms):
    a, b = PAIR
    want = degree(a) + degree(b)
    t = table.index(next(t for t in basis(a.src, b.tgt) if degree(t) != want))
    out = dict(terms)
    out[t] = out.get(t, 0) + 1
    return tuple(sorted((k, c) for k, c in out.items() if c))


@pytest.mark.parametrize("alpha", [1, -1])
def test_degree_additivity_fails_on_one_corrupted_product(monkeypatch, alpha):
    _corrupt_pair_in_tables(monkeypatch, _add_wrong_degree_term)
    res = check_degree_additivity(Shape(4, 2), alpha)
    a, b = PAIR
    assert not res.ok
    assert res.witness.startswith(f"a={a} b={b} term=[vv^^|vv^^|"), res.witness


def test_check_associativity_fails_on_one_corrupted_product(monkeypatch):
    _corrupt_pair_in_tables(monkeypatch, lambda table, terms: tuple((k, -c) for k, c in terms))
    res = check_associativity(Shape(4, 2), 1)
    b, c = PAIR
    assert not res.ok
    assert f" b={b} c={c}: " in res.witness, res.witness
    assert res == associativity_scan_oracle(arc_algebra.structure_table(Shape(4, 2), 1))


@pytest.mark.parametrize("alpha", [1, -1])
@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
def test_associativity_matches_the_triple_scan(shape, alpha):
    # check_associativity is _associativity of the freshly built table
    table = built_table(shape, alpha)
    assert arc_algebra._associativity(table) == associativity_scan_oracle(table)


def _flip_first_coefficient(terms):
    (t, c), *rest = terms
    return ((t, -c), *rest)


@pytest.mark.parametrize("alpha", [1, -1])
@pytest.mark.parametrize("shape", [Shape(4, 2), Shape(5, 2)], ids=str)
@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("corrupt", ["flip", "drop"])
def test_associativity_matches_the_triple_scan_on_corrupted_tables(shape, alpha, position, corrupt):
    table = built_table(shape, alpha)
    keys = list(table.products)
    key = keys[{"first": 0, "middle": len(keys) // 2, "last": -1}[position]]
    products = dict(table.products)
    if corrupt == "flip":
        products[key] = _flip_first_coefficient(products[key])
    else:
        del products[key]
    bad = dataclasses.replace(table, products=products)
    want = associativity_scan_oracle(bad)
    assert not want.ok
    assert arc_algebra._associativity(bad) == want


def test_associativity_minus_passes_at_2_1():
    res = check_associativity(Shape(2, 1), -1)
    assert res.ok, res.witness


def test_unit_checks():
    for alpha in (1, -1):
        assert check_unit(Shape(4, 2), alpha).ok


def test_orthogonal_idempotents():
    ws = weights_of(4, 2)
    for x, y in itertools.product(ws, repeat=2):
        if x != y:
            with pytest.raises(CompositionError):
                multiply(idempotent(x), idempotent(y))


def _epsilon(b) -> int:
    """(-1) to the sum of the leftmost points of b's X circles."""
    return (-1) ** sum(c.leftmost for c in b.diagram().circles()
                       if b.orient.mark(c.leftmost) == UP)


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
def test_minus_table_is_the_plus_table_twisted_by_epsilon(shape):
    # Rescaling each basis element b by epsilon(b) turns the alpha -1 table
    # into the alpha +1 table up to one sign per weight triple (x, y, z).
    plus, minus = built_table(shape, 1), built_table(shape, -1)
    els = plus.basis
    eps = [_epsilon(b) for b in els]
    assert minus.products.keys() == plus.products.keys()
    signs: dict = {}
    for (i, j), terms in minus.products.items():
        want = plus.products[(i, j)]
        assert [t for t, _ in terms] == [t for t, _ in want]
        for (t, c), (_, w) in zip(terms, want):
            c *= eps[i] * eps[j] * eps[t]
            assert c in (w, -w)
            triple = (els[i].src, els[i].tgt, els[j].tgt)
            assert signs.setdefault(triple, c // w) == c // w, triple
    assert signs or not plus.products


# --- oracle agreement --------------------------------------------------------------

def test_plus_product_matches_direct_oracle_4_2():
    ws = weights_of(4, 2)
    for x, y, z in itertools.product(ws, repeat=3):
        for a in basis(x, y):
            for b in basis(y, z):
                got = multiply(AlgebraElement(x, y, {a: 1}),
                               AlgebraElement(y, z, {b: 1}), 1)
                want = direct_product_oracle(x, y, z, a.orient, b.orient)
                assert {str(t.orient): c for t, c in got.terms.items()} == want


@pytest.mark.parametrize("kwargs", [{"alpha": 1}, {"alpha": -1}, {"alpha": -1, "mode": "nested"}],
                         ids=["plus", "minus", "nested"])
@pytest.mark.parametrize("shape", [Shape(n, k) for n in range(1, 8) for k in range(n // 2 + 1)],
                         ids=str)
def test_table_matches_the_movie_pair_by_pair(shape, kwargs):
    # alpha +-1 read off each triple's components, nested folded per live triple
    arc_algebra.clear_caches()
    assert structure_table(shape, **kwargs).to_json() == movie_table_oracle(shape, **kwargs).to_json()


@pytest.mark.parametrize("n", range(1, 9))
def test_end_label_sets_match_the_component_census(n):
    # Bit 2c is set for each census circle with leftmost point c that is up;
    # the parity is that of the sum of those c.
    for k in range(n // 2 + 1):
        for x, y in itertools.product(weights_of(n, k), repeat=2):
            hom = arc_algebra._ends(x, y)
            els = basis(x, y)
            census = component_census_oracle(x, y)
            lefts = [verts[0] for kind, verts in census if kind == "circle"]
            assert hom.elements == els
            for i, b in enumerate(els):
                up = [c for c in lefts if b.orient.mark(c) == UP]
                assert (hom.labels[i], hom.parities[i]) == (sum(1 << 2 * c for c in up),
                                                            sum(up) % 2), str(b)
                assert hom.degrees[i] == degree(b) and hom.index[b] == i
            assert hom.at == {labels: i for i, labels in enumerate(hom.labels)}
            assert len(hom.at) == len(els)
            assert hom.circles == sum(1 << 2 * c for c in lefts)
            assert sorted(hom.parts) == sorted(sum(1 << 2 * v for v in verts)
                                               for _, verts in census)
    arc_algebra.clear_caches()


def test_surviving_movie_into_an_empty_hom_space_raises(monkeypatch):
    a, b = one(NESTED, NXT), one(NXT, NESTED)
    assert not multiply(a, b).is_zero()
    real = arc_algebra._ends
    empty = {"elements": (), "labels": (), "parities": (), "degrees": (), "index": {}, "at": {}}
    monkeypatch.setattr(arc_algebra, "_ends", lambda x, y: real(x, y)._replace(**empty)
                        if (x, y) == (NESTED, NESTED) else real(x, y))
    with pytest.raises(RuntimeError, match="survives"):
        multiply(a, b)


# --- memos ---------------------------------------------------------------------------

def _memos() -> tuple:
    """Every module-level memo of the package: each object with ``cache_info``."""
    found = {}
    for info in pkgutil.iter_modules(arcalg.__path__):
        module = importlib.import_module(f"arcalg.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                found[id(value)] = value
    return tuple(found.values())


MEMOS = _memos()


def test_the_scan_finds_every_memo():
    assert {m.__wrapped__.__qualname__ for m in MEMOS} == {
        "_convolution", "_compile_movie", "_twist", "_ends", "basis", "weight_to_m",
        "_glued_intersection"}


def test_clear_caches_empties_every_memo():
    a = one(NESTED, NXT)
    b = one(NXT, NESTED)
    want = multiply(a, b, -1)
    table = structure_table(Shape(4, 2), -1)
    pair = intersection_cohomology(NESTED, NXT)
    assert all(m.cache_info().currsize for m in MEMOS)
    arc_algebra.clear_caches()
    assert [m.cache_info().currsize for m in MEMOS] == [0] * len(MEMOS)
    assert multiply(a, b, -1) == want
    assert structure_table(Shape(4, 2), -1) == table
    assert intersection_cohomology(NESTED, NXT) == pair


def test_memos_are_bounded():
    assert all(m.cache_info().maxsize is not None for m in MEMOS)


def test_plus_and_minus_tables_compile_no_movie():
    arc_algebra.clear_caches()
    for alpha in (1, -1):
        structure_table(Shape(6, 3), alpha)
    assert arc_algebra._compile_movie.cache_info().currsize == 0
    assert arc_algebra._twist.cache_info().currsize > 0
    structure_table(Shape(4, 2), -1, mode="nested")
    assert arc_algebra._compile_movie.cache_info().currsize > 0
    # The nested table runs at the canonical order, which flips no sign,
    # and alpha +1 carries none: neither walks a twist.
    for job in (lambda: structure_table(Shape(6, 3), -1, mode="nested"),
                lambda: check_order_independence(Shape(6, 3), 1)):
        arc_algebra.clear_caches()
        job()
        assert arc_algebra._compile_movie.cache_info().currsize > 0
        assert arc_algebra._twist.cache_info().misses == 0


# --- integrality and tables ----------------------------------------------------------

def test_structure_constants_integral():
    table = structure_table(Shape(4, 2), alpha=1)
    for terms in table.products.values():
        for _, coeff in terms:
            assert isinstance(coeff, int) and coeff != 0


def test_standard_only_table_size():
    table = structure_table(Shape(4, 2), alpha=1, standard_only=True)
    assert len(table.basis) == 12  # 4 + 4 + 2 + 2
    assert len(table.weights) == 2


def test_two_point_table_is_dual_numbers():
    table = structure_table(Shape(2, 1), alpha=1, standard_only=True)
    assert len(table.basis) == 2
    by_deg = sorted(table.basis, key=degree)
    e, x = table.index(by_deg[0]), table.index(by_deg[1])
    assert table.products[(e, e)] == ((e, 1),)
    assert table.products[(e, x)] == ((x, 1),)
    assert table.products[(x, e)] == ((x, 1),)
    assert (x, x) not in table.products  # X * X = 0


def test_table_json_round_trip():
    table = structure_table(Shape(4, 2), alpha=-1)
    again = StructureTable.from_json(table.to_json())
    assert again.shape == table.shape
    assert again.alpha == table.alpha
    assert again.basis == table.basis
    assert again.products == table.products


def test_table_text_dump_mentions_every_element():
    table = structure_table(Shape(2, 1), alpha=1)
    text = table.text_dump()
    for i in range(len(table.basis)):
        assert f"#{i}" in text
