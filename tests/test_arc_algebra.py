import functools
import importlib
import itertools
import json
import pkgutil

import pytest

import arcalg
from arcalg import arc_algebra, cli, cohomology
from arcalg.arc_algebra import (AlgebraElement, BasisElement, CompositionError,
                                OrderError, StructureTable, basis,
                                canonical_order, check_associativity,
                                check_degree_additivity,
                                check_order_independence, check_unit, cup_orders,
                                degree, idempotent, low_element, multiply,
                                multiply_nested, structure_table)
from arcalg.cohomology import intersection_cohomology
from arcalg.diagrams import (UP, Shape, ValidationError, Weight, diagram_of,
                             enumerate_standard, enumerate_weights,
                             weight_of_tableau, weight_to_m)
from arcalg.ktheory import weight_leq
from oracles import (_is_high, associativity_scan_oracle, component_census_oracle,
                     direct_product_oracle, movie_rows_oracle, movie_table_oracle)

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
    # the element is refused when built, so x_form never meets the stray term
    with pytest.raises(ValidationError, match=r"\[v\^\|v\^\|vv\] is not a basis element "
                                              r"of Hom\(v\^, v\^\)"):
        AlgebraElement(W("v^"), W("v^"), {BasisElement(W("v^"), W("v^"), W("vv")): 1})


def test_idempotent_reads_its_degree_off_the_hom_space(count_glues):
    ws = weights_of(6, 3)
    for x in ws:
        arc_algebra._ends(x, x)
    calls = count_glues()
    for x in ws:
        assert idempotent(x).terms == {BasisElement(x, x, x): 1}
    assert calls == [0]


def test_degree_reads_the_hom_space_and_glues_nothing(count_glues):
    els = basis(NXT, NESTED)
    calls = count_glues()
    assert sorted(degree(b) for b in els) == [1, 3]
    assert calls == [0]
    with pytest.raises(ValidationError, match=r"\[v\^v\^\|vv\^\^\|vv\^\^\] is not a basis element"):
        degree(BasisElement(NXT, NESTED, NESTED))


@pytest.mark.parametrize("alpha", [1, -1])
def test_a_table_glues_only_its_nonzero_hom_spaces(count_glues, alpha):
    # Of the 225 weight pairs of (6,2), 103 have a nonzero Hom space; of the
    # 771 triples with Hom(x, y) and Hom(y, z) nonzero, 573 have Hom(x, z) so.
    arc_algebra.clear_caches()
    calls = count_glues()
    structure_table(Shape(6, 2), alpha)
    assert calls == [103]
    assert arc_algebra._convolution.cache_info().misses == 573


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
    with pytest.raises(ValidationError, match=r"\[v\^\|v\^\|vv\] is not a basis element"):
        AlgebraElement(W("v^"), W("v^"), {BasisElement(W("v^"), W("v^"), W("vv")): 1})
    # a basis element of another Hom space is no term of this one
    with pytest.raises(ValidationError, match=r"is not a basis element of Hom\(v\^v\^, vv\^\^\)"):
        AlgebraElement(NXT, NESTED, {BasisElement(NESTED, NXT, NXT): 1})
    # no Hom space joins weights of different lengths, not even a zero one
    with pytest.raises(ValidationError, match="cannot glue diagrams on 4 and 2 points"):
        AlgebraElement(W("v^"), NXT)


def test_terms_come_out_in_basis_order():
    els = basis(NXT, NESTED)
    terms = {b: c for b, c in zip(reversed(els), (2, -1))}
    el = AlgebraElement(NXT, NESTED, terms)
    assert list(el.terms) == list(els) and el.terms == terms
    assert el == AlgebraElement(NXT, NESTED, dict(reversed(terms.items())))
    assert str(el) == "-1*[v^v^|vv^^|^v^v] +2*[v^v^|vv^^|v^v^]"  # as when str sorted them


@pytest.mark.parametrize("product", [
    multiply_nested,
    lambda a, b: multiply(a, b, 1, order=canonical_order(weight_to_m(a.tgt))),
    lambda a, b: multiply(a, b, -1, order=canonical_order(weight_to_m(a.tgt))),
], ids=["nested", "plus-order", "minus-order"])
def test_one_term_factors_fold_once(monkeypatch, product):
    folds = [0]
    real = arc_algebra._fold

    def counted(*args):
        folds[0] += 1
        return real(*args)

    monkeypatch.setattr(arc_algebra, "_fold", counted)
    x = W("v^v^v^")  # Hom(x, x) has 8 elements, so the triple (x, x, x) has 64 pairs
    a = AlgebraElement(x, x, {basis(x, x)[-1]: 1})
    assert len(basis(x, x)) == 8
    product(a, a)
    assert folds == [1]


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
    lambda: check_associativity(Shape(4, 2), 0),
    lambda: check_order_independence(Shape(4, 2), 5),
    lambda: check_degree_additivity(Shape(4, 2), 3),
    lambda: check_unit(Shape(4, 2), 0),
    lambda: multiply(one(NESTED, NXT), one(NXT, NESTED), 2),
    # bool and float pass ``in (1, -1)`` but are no int alpha
    lambda: structure_table(Shape(2, 1), True),
    lambda: structure_table(Shape(2, 1), 1.0),
    lambda: multiply(one(NESTED, NXT), one(NXT, NESTED), -1.0),
    # inner cup (2,3) before the containing (1,4), under the nested rules
    lambda: multiply_nested(one(NXT, NESTED), one(NESTED, NXT), order=[(2, 3), (1, 4)]),
], ids=["table-alpha", "assoc-alpha", "orders-alpha", "degree-alpha", "unit-alpha",
        "multiply-alpha", "table-alpha-bool", "table-alpha-float", "multiply-alpha-float",
        "nested-order"])
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


def _negate(terms):
    return tuple((t, -c) for t, c in terms)


def _corrupt_pair_in_rows(monkeypatch, corrupt, when):
    """``_triple_rows`` gives corrupt(terms) as PAIR's product where when(alpha, cup order)."""
    real = arc_algebra._triple_rows
    a, b = PAIR
    i, j = basis(a.src, a.tgt).index(a), basis(b.src, b.tgt).index(b)

    def fake(x, y, z, alpha, cup_order, index, _only=None):
        rows = real(x, y, z, alpha, cup_order, index, _only)
        if (x, y, z) == (a.src, a.tgt, b.tgt) and when(alpha, cup_order):
            rows[i] = [(k, corrupt(terms) if k == j else terms) for k, terms in rows[i]]
        return rows

    monkeypatch.setattr(arc_algebra, "_triple_rows", fake)


def _nested_movie(alpha, order) -> bool:
    """Whether ``_triple_rows`` folds the nested movie: alpha -1 at an explicit order."""
    return alpha == -1 and order is not None


@pytest.mark.parametrize("check, args, corrupt, when, detail", [
    (check_order_independence, (-1,), _negate,
     _nested_movie, " order=((1, 2), (3, 4)): - x1 + x2 != x1 - x2"),
    (check_order_independence, (-1,), _negate,
     lambda alpha, order: order == ((3, 4), (1, 2)), " order=((3, 4), (1, 2)): - x1 + x2 != x1 - x2"),
    (check_order_independence, (1,), _negate,
     lambda alpha, order: order == ((3, 4), (1, 2)), " order=((3, 4), (1, 2)): - x1 - x2 != x1 + x2"),
])
def test_checks_fail_on_one_corrupted_product(monkeypatch, check, args, corrupt, when, detail):
    a, b = PAIR
    _corrupt_pair_in_rows(monkeypatch, corrupt, when)
    res = check(Shape(4, 2), *args)
    assert not res.ok
    assert res.witness.startswith(f"a={a} b={b}{detail}"), res.witness


def test_order_check_holds_every_order_to_alpha_minus_1(monkeypatch):
    # a nested product negated at every cup order: the orders still agree
    # with each other, and only the alpha = -1 product tells them wrong
    a, b = (AlgebraElement(t.src, t.tgt, {t: 1}) for t in PAIR)
    _corrupt_pair_in_rows(monkeypatch, _negate, _nested_movie)
    products = [multiply_nested(a, b, order) for order in cup_orders(weight_to_m(a.tgt))]
    assert len(products) == 2 and products[0] == products[1] != multiply(a, b, -1)
    assert not check_order_independence(Shape(4, 2), -1).ok


def _corrupt_pair_in_tables(monkeypatch, corrupt, pair=PAIR):
    """Every table arc_algebra builds carries corrupt(table, terms) as pair's product."""
    real = arc_algebra.structure_table

    def fake(*args, **kwargs):
        table = real(*args, **kwargs)
        key = tuple(table.basis.index(b) for b in pair)
        return table._replace(
            products={**table.products, key: corrupt(table, table.products[key])})

    monkeypatch.setattr(arc_algebra, "structure_table", fake)


def _add_wrong_degree_term(table, terms):
    a, b = PAIR
    want = degree(a) + degree(b)
    t = table.basis.index(next(t for t in basis(a.src, b.tgt) if degree(t) != want))
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


def test_a_corrupted_degree_at_alpha_minus_1_fails_arcalg_check(monkeypatch, capsys):
    # the expected associativity failure at alpha = -1 must not hide another one
    _corrupt_pair_in_tables(monkeypatch, _add_wrong_degree_term)
    assert cli.main(["check", "--n", "4", "--k", "2", "--alpha", "-1"]) == 2
    out = capsys.readouterr().out
    assert "associativity: FAIL (expected)\n" in out and "degree additivity: FAIL\n" in out


@pytest.mark.parametrize("alpha", [1, -1])
@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_fails_on_one_corrupted_idempotent_product(monkeypatch, side, alpha):
    b = PAIR[0]
    e = next(iter(idempotent(b.src if side == "left" else b.tgt).terms))
    _corrupt_pair_in_tables(monkeypatch, lambda table, terms: _negate(terms),
                            (e, b) if side == "left" else (b, e))
    assert check_unit(Shape(4, 2), alpha) == (False, f"unit law fails at {b}")


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
    bad = table._replace(products=products)
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


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
def test_minus_associator_is_the_coboundary_of_the_twist(shape):
    # With s(x, y, z) = (-1)**twist at the canonical order, the sign of the
    # triple above, (ab)c = ds * a(bc) for a, b, c through x, y, z, w, where
    # ds = s(x, y, z) * s(x, z, w) * s(y, z, w) * s(x, y, w)
    table = built_table(shape, -1)
    els = table.basis
    s = functools.lru_cache(maxsize=None)(
        lambda x, y, z: (-1) ** arc_algebra._twist(x, y, z))
    by_src: dict = {}
    for k, c in enumerate(els):
        by_src.setdefault(c.src, []).append(k)

    products = {pair: dict(terms) for pair, terms in table.products.items()}

    def prod(p: int, q: int) -> dict:
        return products.get((p, q), {})

    checked = 0
    for i, a in enumerate(els):
        for j in by_src[a.tgt]:
            for k in by_src[els[j].tgt]:
                if not (prod(i, j) or prod(j, k)):
                    continue
                left = arc_algebra._expand(prod(i, j), lambda t: prod(t, k))
                right = arc_algebra._expand(prod(j, k), lambda t: prod(i, t))
                if left or right:
                    x, y, z, w = a.src, a.tgt, els[k].src, els[k].tgt
                    ds = s(x, y, z) * s(x, z, w) * s(y, z, w) * s(x, y, w)
                    assert left == {t: ds * c for t, c in right.items()}, (i, j, k)
                    checked += 1
    assert checked or not table.products


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


SHAPES_TO_7 = [Shape(n, k) for n in range(1, 8) for k in range(n // 2 + 1)]


@pytest.mark.parametrize("alpha", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("shape", SHAPES_TO_7, ids=str)
def test_table_matches_the_movie_pair_by_pair(shape, alpha):
    # alpha +-1 read off each triple's components, against the Frobenius
    # movie at +1 and the nested one at -1
    arc_algebra.clear_caches()
    assert structure_table(shape, alpha).to_json() == movie_table_oracle(shape, alpha).to_json()


@pytest.mark.parametrize("shape", SHAPES_TO_7, ids=str)
def test_nested_rows_match_the_movie_triple_by_triple(shape):
    # the alpha -1 convolution's rows against the nested movie's at the
    # canonical order, dead triples included
    def products(rows):
        return {(i, j): terms for i, row in enumerate(rows or ()) for j, terms in row}

    arc_algebra.clear_caches()
    for x, y, z in itertools.product(enumerate_weights(shape), repeat=3):
        if basis(x, y) and basis(y, z):
            index = range(len(basis(x, z)))
            assert (products(arc_algebra._triple_rows(x, y, z, -1, None, index))
                    == products(movie_rows_oracle(x, y, z, -1, index))), (x, y, z)


@pytest.mark.parametrize("n", range(1, 9))
def test_end_label_sets_match_the_component_census(n):
    # Bit 2c is set for each census circle with leftmost point c that is up;
    # the parity is that of the sum of those c.
    for k in range(n // 2 + 1):
        for x, y in itertools.product(weights_of(n, k), repeat=2):
            hom = arc_algebra._ends(x, y)
            els = basis(x, y)
            if not els:  # a zero Hom space is the one empty record, never glued
                assert hom == arc_algebra._NO_HOM and not hom.circles and not hom.parts
                continue
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
    # at an explicit order the movie runs; at the default order the
    # convolution reads a missing label set as a zero product
    a, b = one(NESTED, NXT), one(NXT, NESTED)
    order = canonical_order(weight_to_m(NXT))
    assert not multiply(a, b, order=order).is_zero()
    real = arc_algebra._ends
    empty = {"elements": (), "labels": (), "parities": (), "degrees": (), "index": {}, "at": {}}
    monkeypatch.setattr(arc_algebra, "_ends", lambda x, y: real(x, y)._replace(**empty)
                        if (x, y) == (NESTED, NESTED) else real(x, y))
    with pytest.raises(RuntimeError, match="survives"):
        multiply(a, b, order=order)


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
        "_convolution", "_twist", "canonical_order", "_ends", "weight_to_m", "_switches"}


def test_clear_caches_empties_every_memo():
    a = one(NESTED, NXT)
    b = one(NXT, NESTED)
    want = multiply(a, b, -1)
    nested = multiply_nested(a, b)  # the only call here that runs the movie
    table = structure_table(Shape(4, 2), -1)
    pair = intersection_cohomology(NESTED, NXT)
    assert all(m.cache_info().currsize for m in MEMOS) and cohomology._PAIRS
    arc_algebra.clear_caches()
    assert [m.cache_info().currsize for m in MEMOS] == [0] * len(MEMOS)
    assert cohomology._PAIRS == {}
    assert multiply(a, b, -1) == want
    assert multiply_nested(a, b) == nested
    assert structure_table(Shape(4, 2), -1) == table
    assert intersection_cohomology(NESTED, NXT) == pair


def test_memos_are_bounded():
    assert all(m.cache_info().maxsize is not None for m in MEMOS)


def test_plus_and_minus_tables_compile_no_movie(monkeypatch):
    compiled = []
    real = arc_algebra._compile_movie
    monkeypatch.setattr(arc_algebra, "_compile_movie",
                        lambda *triple: compiled.append(triple) or real(*triple))
    arc_algebra.clear_caches()
    for alpha in (1, -1):
        structure_table(Shape(6, 3), alpha)
    assert not compiled
    assert arc_algebra._twist.cache_info().currsize > 0
    check_order_independence(Shape(4, 2), -1)
    assert compiled
    # A nested product at the canonical order flips no sign, and alpha +1
    # carries none: neither walks a twist.
    for job in (lambda: multiply_nested(one(NESTED, NXT), one(NXT, NESTED)),
                lambda: check_order_independence(Shape(6, 3), 1)):
        arc_algebra.clear_caches()
        compiled.clear()
        job()
        assert compiled
        assert arc_algebra._twist.cache_info().misses == 0


# --- cellularity -----------------------------------------------------------------------

def _uncellular_term(table):
    """The first term [x|z|nu] of a product [x|y|lambda].[y|z|mu] without lambda <= nu
    and mu <= nu, as (i, j, k), or None."""
    orients = [b.orient for b in table.basis]
    return next(((i, j, k) for (i, j), terms in table.products.items() for k, _ in terms
                 if not (weight_leq(orients[i], orients[k])
                         and weight_leq(orients[j], orients[k]))), None)


@pytest.mark.parametrize("alpha", [1, -1])
@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
def test_products_are_cellular(shape, alpha):
    assert _uncellular_term(built_table(shape, alpha)) is None


@pytest.mark.parametrize("alpha", [1, -1])
def test_cellularity_fails_on_one_corrupted_product(alpha):
    table = built_table(Shape(4, 2), alpha)
    orients = [b.orient for b in table.basis]
    # the first product with a term in its Hom space that lies below a factor
    (i, j), k = next(((i, j), k) for i, j in table.products
                     for k, b in enumerate(table.basis)
                     if (b.src, b.tgt) == (table.basis[i].src, table.basis[j].tgt)
                     and not weight_leq(orients[i], orients[k]))
    terms = dict(table.products[i, j])
    terms[k] = 1
    bad = table._replace(products={**table.products, (i, j): tuple(sorted(terms.items()))})
    assert _uncellular_term(bad) == (i, j, k)


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
    e, x = table.basis.index(by_deg[0]), table.basis.index(by_deg[1])
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


def test_standard_table_json_round_trip():
    table = structure_table(Shape(4, 2), alpha=1, standard_only=True)
    assert StructureTable.from_json(table.to_json()) == table


def _tampered(field, key, value):
    def edit(data):
        data[field][key] = value
        return json.dumps(data)
    return edit


# the (2,1) basis: #0 in Hom(^v, ^v), #1 in Hom(^v, v^), #2 in Hom(v^, ^v),
# #3 and #4 in Hom(v^, v^)
@pytest.mark.parametrize("edit, message", [
    # vv orients no diagram of (2,1): [^v|^v|vv] is no basis element
    (_tampered("basis", 0, {"src": "^v", "tgt": "^v", "orient": "vv"}),
     "basis is not that of its weights"),
    (_tampered("products", "0,9", [[0, 1]]), "product 0,9 names no element"),
    (lambda data: json.dumps({**data, "alpha": 2}), "alpha must be"),
    (lambda data: json.dumps({**data, "alpha": 1.0}), "alpha must be"),
    (_tampered("products", "0,0", [[0]]), "malformed"),
    (_tampered("products", "0,0", [[0, "x"]]), "int pairs"),
    (_tampered("products", "1,1", [[1, 1]]), "do not compose"),
    (_tampered("products", "0,0", [[1, 1]]), r"outside Hom\(\^v, \^v\)"),
    (_tampered("products", "0,0,0", [[0, 1]]), "malformed"),
    (lambda data: json.dumps({k: v for k, v in data.items() if k != "products"}),
     "malformed"),
    (lambda data: json.dumps(data)[:-1], "malformed"),
    (lambda data: json.dumps({**data, "shape": [6, 3]}), r"not those of shape \(6,3\)"),
], ids=["basis", "index", "alpha", "alpha-float", "no-coeff", "coeff-str",
        "not-composable", "outside-hom", "key", "missing-field", "bad-json", "shape"])
def test_table_json_rejects_a_tampered_table(edit, message):
    data = json.loads(structure_table(Shape(2, 1)).to_json())
    with pytest.raises(ValidationError, match=message):
        StructureTable.from_json(edit(data))


def test_table_text_dump_mentions_every_element():
    table = structure_table(Shape(2, 1), alpha=1)
    text = table.text_dump()
    for i in range(len(table.basis)):
        assert f"#{i}" in text
