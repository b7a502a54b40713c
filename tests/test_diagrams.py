import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcalg.diagrams import (CupDiagram, Shape, StandardTableau, ValidationError,
                             Weight, cup_to_tableau, enumerate_standard,
                             enumerate_weights, epsilon, equivalence, glue,
                             orientation_degree, orientations,
                             orients_with_rays, render_cup, tableau_of_weight,
                             tableau_to_cup, weight_of_tableau, weight_to_C,
                             weight_to_m)
from oracles import (circle_sign_oracle, component_census_oracle, is_oriented,
                     nesting_depth_oracle, orientation_set_oracle,
                     region_classes_oracle)

W = Weight.parse


def all_shapes(max_n):
    return [Shape(n, k) for n in range(2, max_n + 1) for k in range(0, n // 2 + 1)]


def weights_of(n, k):
    return enumerate_weights(Shape(n, k))


shapes_strategy = st.sampled_from(all_shapes(8))


@st.composite
def random_weight(draw, max_n=8):
    shape = draw(shapes_strategy)
    return draw(st.sampled_from(weights_of(shape.n, shape.k)))


# --- parsing and basics ----------------------------------------------------

def test_weight_parsing_accepts_unicode():
    assert Weight.parse("∧∨") == W("^v")
    with pytest.raises(ValidationError):
        Weight.parse("^x")


@pytest.mark.parametrize("marks", [["^", "v"], ("^",), 12, None, b"^v"])
def test_weight_rejects_non_strings(marks):
    with pytest.raises(ValidationError):
        Weight(marks)
    with pytest.raises(ValidationError, match=re.escape(f"weight {marks!r} is not a string")):
        Weight.parse(marks)


def test_shape_validation():
    # a float or bool passes the bounds but breaks enumerate_weights later
    for n, k in [(3, 2), (0, 0), (4, -1), (4.0, 2), (True, 0), (4, "2")]:
        with pytest.raises(ValidationError):
            Shape(n, k)


def test_running_example_weights_in_order():
    assert [str(w) for w in weights_of(4, 2)] == \
        ["^^vv", "^v^v", "v^^v", "^vv^", "v^v^", "vv^^"]


def test_weight_counts():
    assert len(weights_of(2, 1)) == 2
    assert len(weights_of(5, 2)) == 10


# --- tableaux <-> cups -----------------------------------------------------

def test_paper_tableau_to_cup():
    nested = StandardTableau((4, 3), (2, 1))
    nxt = StandardTableau((4, 2), (3, 1))
    assert tableau_to_cup(nested).cups == ((1, 4), (2, 3))
    assert tableau_to_cup(nxt).cups == ((1, 2), (3, 4))
    assert cup_to_tableau(tableau_to_cup(nested)) == nested
    assert cup_to_tableau(tableau_to_cup(nxt)) == nxt


def test_single_cup_tableau():
    t = StandardTableau((2,), (1,))
    assert tableau_to_cup(t).cups == ((1, 2),)


def test_cup_to_tableau_with_ray():
    c = CupDiagram(3, ((1, 2),), (3,))
    assert cup_to_tableau(c) == StandardTableau((3, 2), (1,))


def test_five_standard_tableaux_at_5_2():
    tabs = enumerate_standard(Shape(5, 2))
    assert len(tabs) == 5
    expected = {
        ((5, 4, 3), (2, 1)): (((1, 4), (2, 3)), (5,)),
        ((5, 4, 2), (3, 1)): (((1, 2), (3, 4)), (5,)),
        ((5, 3, 2), (4, 1)): (((1, 2), (4, 5)), (3,)),
        ((5, 3, 1), (4, 2)): (((2, 3), (4, 5)), (1,)),
        ((5, 4, 1), (3, 2)): (((2, 5), (3, 4)), (1,)),
    }
    assert {(t.top, t.bottom) for t in tabs} == set(expected)
    for rows, (cups, rays) in expected.items():
        c = tableau_to_cup(StandardTableau(*rows))
        assert (c.cups, c.rays) == (cups, rays)


def test_dominant_weight_sequence():
    w_dom = StandardTableau((3, 2, 1), (5, 4))
    assert str(weight_of_tableau(w_dom)) == "^^^vv"
    # only the last of the five (5,2) diagrams is oriented by it
    oriented = [rows for rows in [((5, 4, 3), (2, 1)), ((5, 4, 2), (3, 1)),
                                  ((5, 3, 2), (4, 1)), ((5, 3, 1), (4, 2)),
                                  ((5, 4, 1), (3, 2))]
                if is_oriented(weight_of_tableau(w_dom),
                               tableau_to_cup(StandardTableau(*rows)))]
    assert oriented == [((5, 4, 1), (3, 2))]


def test_enumerate_standard_counts():
    from math import comb
    for shape in all_shapes(10):
        got = len(enumerate_standard(shape))
        want = comb(shape.n, shape.k) - (comb(shape.n, shape.k - 1) if shape.k else 0)
        assert got == want


@settings(max_examples=150)
@given(random_weight())
def test_round_trip_weight_tableau(w):
    assert weight_of_tableau(tableau_of_weight(w)) == w


def test_round_trip_bijection_up_to_n10():
    for shape in all_shapes(10):
        for t in enumerate_standard(shape):
            c = tableau_to_cup(t)
            assert cup_to_tableau(c) == t
            assert weight_to_m(weight_of_tableau(t)) == c


def test_nonstandard_tableau_rejected_by_tableau_to_cup():
    w_dom = StandardTableau((3, 2, 1), (5, 4))
    assert not w_dom.is_standard()
    with pytest.raises(ValidationError):
        tableau_to_cup(w_dom)


# --- m(w) and C(w) ----------------------------------------------------------

def test_exattract_m_diagrams():
    w = weights_of(4, 2)
    assert weight_to_m(w[0]).rays == (1, 2, 3, 4)
    assert weight_to_m(w[1]).cups == ((2, 3),)
    assert weight_to_m(w[2]).cups == ((1, 2),)
    assert weight_to_m(w[3]).cups == ((3, 4),)
    assert weight_to_m(w[4]).cups == ((1, 2), (3, 4))
    assert weight_to_m(w[5]).cups == ((1, 4), (2, 3))


def test_exattract_C_diagrams():
    w = weights_of(4, 2)
    expect = [((1, 4), (2, 3)), ((1, 4), (2, 3)), ((1, 2), (3, 4)),
              ((1, 2), (3, 4)), ((1, 2), (3, 4)), ((1, 4), (2, 3))]
    assert [weight_to_C(v).cups for v in w] == expect


def test_C_of_fully_matched_weight_is_m():
    assert weight_to_C(W("v^")) == weight_to_m(W("v^"))


@settings(max_examples=200)
@given(random_weight())
def test_m_inside_C_and_C_has_k_cups(w):
    m, c = weight_to_m(w), weight_to_C(w)
    assert set(m.cups) <= set(c.cups)
    assert c.k == w.k
    assert orients_with_rays(w, c, w)  # w orients its own completion
    assert m.k == w.k if w.is_standard() else m.k < w.k


def test_cup_validation():
    with pytest.raises(ValidationError):
        CupDiagram(4, ((1, 3),), (2, 4))  # even span
    with pytest.raises(ValidationError):
        CupDiagram(4, ((1, 4), (2, 5)), ())  # bad points
    with pytest.raises(ValidationError):
        CupDiagram(4, ((1, 2), (2, 3)), (4,))  # reused point
    with pytest.raises(ValidationError):
        CupDiagram(3, ((1, 2), (2, 3)), ())
    with pytest.raises(ValidationError):
        CupDiagram(4, ((1, 4),), (2, 3))  # rays inside a cup
    with pytest.raises(ValidationError):
        CupDiagram(6, ((1, 4), (3, 6)), (2, 5))  # crossing


# --- orientations ----------------------------------------------------------

def test_component_membership_running_example():
    w = weights_of(4, 2)
    nxt = tableau_to_cup(StandardTableau((4, 2), (3, 1)))
    nested = tableau_to_cup(StandardTableau((4, 3), (2, 1)))
    assert [i + 1 for i, v in enumerate(w) if is_oriented(v, nxt)] == [2, 3, 4, 5]
    assert [i + 1 for i, v in enumerate(w) if is_oriented(v, nested)] == [1, 2, 5, 6]


def test_each_component_has_2k_fixed_points():
    for shape in all_shapes(8):
        ws = weights_of(shape.n, shape.k)
        for t in enumerate_standard(shape):
            c = tableau_to_cup(t)
            assert sum(1 for v in ws if is_oriented(v, c)) == 2 ** shape.k


def test_orientation_counts_running_example():
    w = weights_of(4, 2)
    empty, one, two = [], [], []
    for i, j in itertools.combinations(range(6), 2):
        z = glue(weight_to_m(w[j]), weight_to_m(w[i]))
        cnt = len(orientations(z, w[i], w[j]))
        (empty if cnt == 0 else one if cnt == 1 else two).append((i + 1, j + 1))
    assert empty == [(1, 3), (1, 4), (1, 5)]
    assert one == [(1, 2), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4), (3, 6), (4, 6)]
    assert two == [(2, 6), (3, 5), (4, 5), (5, 6)]


def test_orientation_law_and_oracle_small():
    for shape in all_shapes(6):
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws, repeat=2):
            z = glue(weight_to_m(b), weight_to_m(a))
            vs = orientations(z, a, b)
            assert len(vs) in (0, 1, 2 ** z.circle_count())
            assert {str(v) for v in vs} == orientation_set_oracle(a, b)


def test_orientations_of_mixed_shape_pairs_match_oracle():
    # a point that is a ray of both diagrams must carry both weights' marks
    for n in range(1, 7):
        ws = [w for k in range(n // 2 + 1) for w in weights_of(n, k)]
        for a, b in itertools.product(ws, repeat=2):
            if a.k != b.k:
                vs = orientations(glue(weight_to_m(b), weight_to_m(a)), a, b)
                assert {str(v) for v in vs} == orientation_set_oracle(a, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(n, k) for n in range(9, 13) for k in range(n // 2 + 1)]),
       st.data())
def test_orientations_match_oracle_beyond_the_exhaustive_range(nk, data):
    ws = weights_of(*nk)
    a = data.draw(st.sampled_from(ws))
    b = data.draw(st.sampled_from(ws))
    vs = orientations(glue(weight_to_m(b), weight_to_m(a)), a, b)
    assert {str(v) for v in vs} == orientation_set_oracle(a, b)


def test_glue_census_examples():
    nested = tableau_to_cup(StandardTableau((4, 3), (2, 1)))
    nxt = tableau_to_cup(StandardTableau((4, 2), (3, 1)))
    z = glue(nested, nxt)
    assert z.circle_count() == 1 and len(z.components) == 1
    z = glue(nxt, nxt)
    assert [c.vertices for c in z.components] == [(1, 2), (3, 4)]
    # rays-on-top against the nested diagram: two lines, no circles
    z = glue(weight_to_m(W("^^vv")), weight_to_m(W("vv^^")))
    assert [(c.kind, c.vertices) for c in z.components] == \
        [("line", (1, 4)), ("line", (2, 3))]


def test_glue_against_union_find_oracle():
    for shape in [Shape(1, 0), *all_shapes(7)]:
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws, repeat=2):
            bottom, top = weight_to_m(a), weight_to_m(b)
            z = glue(top, bottom)
            got = [(c.kind, c.vertices, c.top_rays, c.bottom_rays) for c in z.components]
            want = [(kind, verts,
                     tuple(r for r in top.rays if r in verts),
                     tuple(r for r in bottom.rays if r in verts))
                    for kind, verts in component_census_oracle(a, b)]
            assert got == want


def test_nesting_forest():
    z = glue(weight_to_m(W("vv^^")), weight_to_m(W("vv^^")))
    depths = [(c.vertices, d) for c, d in zip(z.components, nesting_depth_oracle(z))]
    assert depths == [((1, 4), 0), ((2, 3), 1)]
    z = glue(weight_to_m(W("vvv^^^")), weight_to_m(W("vvv^^^")))
    depths = [(c.vertices, d) for c, d in zip(z.components, nesting_depth_oracle(z))]
    assert depths == [((1, 6), 0), ((2, 5), 1), ((3, 4), 2)]


# --- epsilon ----------------------------------------------------------------

def test_epsilon_basics():
    z = glue(weight_to_m(W("vv^^")), weight_to_m(W("v^v^")))
    assert epsilon(z, 1, 1) == 1
    assert epsilon(z, 1, 2) == -1
    assert epsilon(z, 1, 4) == -1  # both boundary paths have odd length
    assert epsilon(z, 1, 3) == 1
    for i in (0, 5):
        with pytest.raises(ValidationError, match=f"point {i} outside 1..n"):
            epsilon(z, i, 1)


def test_epsilon_path_independence():
    # on every circle the two boundary paths between any two vertices agree
    for shape in all_shapes(8):
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws[:6], ws[:6]):
            z = glue(weight_to_m(b), weight_to_m(a))
            for comp in z.circles():
                arcs = sum(1 for a, b in z.top.cups + z.bottom.cups
                           if a in comp.vertices and b in comp.vertices)
                for i, j in itertools.combinations(comp.vertices, 2):
                    # distance one way plus the other way equals the cycle length
                    e = epsilon(z, i, j)
                    assert e == (-1) ** (i + j)
                assert arcs % 2 == 0


def test_epsilon_matches_shortest_arc_paths():
    for shape in all_shapes(8):
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws, repeat=2):
            z = glue(weight_to_m(b), weight_to_m(a))
            want = circle_sign_oracle(a, b)
            for i, j in itertools.product(range(1, shape.n + 1), repeat=2):
                assert epsilon(z, i, j) == want.get((i, j), 0)


def test_epsilon_zero_cases():
    z = glue(weight_to_m(W("^v^v")), weight_to_m(W("^v^v")))
    assert epsilon(z, 1, 2) == 0  # 1 is on a line
    assert epsilon(z, 2, 3) == -1


# --- equivalence ------------------------------------------------------------

def test_single_diagram_classes():
    nxt = tableau_to_cup(StandardTableau((4, 2), (3, 1)))
    eq = equivalence(nxt, nxt)
    assert eq.classes == ((0, 2, 4), (1,), (3,))


def test_single_diagram_classes_are_regions_below_the_axis():
    expected = {
        ((5, 4, 3), (2, 1)): ((0, 4), (1, 3), (2,), (5,)),
        ((5, 4, 2), (3, 1)): ((0, 2, 4), (1,), (3,), (5,)),
        ((5, 3, 2), (4, 1)): ((0, 2), (1,), (3, 5), (4,)),
        ((5, 3, 1), (4, 2)): ((0,), (1, 3, 5), (2,), (4,)),
        ((5, 4, 1), (3, 2)): ((0,), (1, 5), (2, 4), (3,)),
    }
    for rows, classes in expected.items():
        cup = tableau_to_cup(StandardTableau(*rows))
        assert equivalence(cup, cup).classes == classes
    for shape in all_shapes(8):
        for w in weights_of(shape.n, shape.k):
            cup = weight_to_m(w)
            assert equivalence(cup, cup).classes == region_classes_oracle(cup)


def test_pair_classes_running_example():
    nxt = tableau_to_cup(StandardTableau((4, 2), (3, 1)))
    nested = tableau_to_cup(StandardTableau((4, 3), (2, 1)))
    eq = equivalence(nxt, nested)
    assert eq.classes == ((0, 2, 4), (1, 3))
    assert eq.min_reps == (0, 1)
    assert eq.circle_reps == (1,)


def test_five_point_classes():
    s1 = StandardTableau((5, 4, 3), (2, 1))
    s4 = StandardTableau((5, 3, 1), (4, 2))
    eq = equivalence(tableau_to_cup(s1), tableau_to_cup(s4))
    assert eq.classes == ((0, 4), (1, 3, 5), (2,))
    assert eq.min_reps == (0, 1, 2)
    assert eq.circle_reps == (2,)
    assert dict(eq.rank)[1] == 0 and dict(eq.rank)[2] == 1


def test_min_reps_are_leftmost_points():
    # computed minimal representatives match {0} plus leftmost component points
    for shape in all_shapes(8):
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws, repeat=2):
            c, d = weight_to_m(a), weight_to_m(b)
            eq = equivalence(c, d)
            z = glue(d, c)
            want = tuple(sorted({0} | {comp.leftmost for comp in z.components}))
            assert eq.min_reps == want
            assert len(eq.circle_reps) == z.circle_count()


def test_rank_matches_nesting_depth():
    for shape in all_shapes(7):
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws, repeat=2):
            eq = equivalence(weight_to_m(a), weight_to_m(b))
            z = glue(weight_to_m(b), weight_to_m(a))
            depths = nesting_depth_oracle(z)
            rank = dict(eq.rank)
            for idx, comp in enumerate(z.components):
                if comp.kind != "circle":
                    continue
                cls = next(cl for cl in eq.classes if comp.leftmost in cl)
                rep = cls[0]
                lines = {v for c2 in z.components if c2.kind == "line"
                         for v in c2.vertices}
                if rep == 0 or any(v in lines for v in cls):
                    assert rank[rep] == 0
                else:
                    assert rank[rep] == 1 + depths[idx]


# --- degree -----------------------------------------------------------------

def test_orientation_degree_examples():
    z = glue(weight_to_m(W("vv^^")), weight_to_m(W("v^v^")))
    assert orientation_degree(z, W("v^v^")) == 1
    assert orientation_degree(z, W("^v^v")) == 3


def test_flip_changes_degree_by_two():
    for shape in all_shapes(6):
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws, repeat=2):
            z = glue(weight_to_m(b), weight_to_m(a))
            degs = sorted(orientation_degree(z, v) for v in orientations(z, a, b))
            if degs:
                lo = degs[0]
                assert all((d - lo) % 2 == 0 for d in degs)


# --- serialization and rendering ---------------------------------------------

def test_cup_json_round_trip():
    c = weight_to_m(W("v^v^^v"))
    assert CupDiagram.from_json(c.to_json()) == c
    data = json.loads(c.to_json())
    assert set(data) == {"n", "cups", "rays"}


@pytest.mark.parametrize("text", [
    '{"n": 2}',
    '{"n": 2, "cups": [[1, 2]]',
    '{"n": "2", "cups": [[1, 2]], "rays": []}',
    '{"n": 2, "cups": [[1.0, 2.0]], "rays": []}',
    '{"n": 2, "cups": 12, "rays": []}',
    '{"n": 3, "cups": [[1, 2, 3]], "rays": []}',
    '[2, [[1, 2]], []]',
], ids=["missing", "bad-json", "n-str", "point-float", "cups-int", "cup-triple", "list"])
def test_cup_json_rejects_malformed_input(text):
    with pytest.raises(ValidationError):
        CupDiagram.from_json(text)


@pytest.mark.parametrize("call", [
    lambda: W("^v").mark(0),
    lambda: W("^v").mark(3),
    lambda: W("^v").mark(-1),
    lambda: render_cup(weight_to_m(W("v^")), W("v^v^")),
    lambda: render_cup(weight_to_m(W("v^v^")), W("v^")),
], ids=["mark-0", "mark-past-n", "mark-negative", "render-long-marks", "render-short-marks"])
def test_point_indices_are_checked(call):
    with pytest.raises(ValidationError):
        call()


def test_render_cup_shapes():
    text = render_cup(weight_to_m(W("vv^^")))
    lines = text.splitlines()
    assert lines[0] == ". . . ."
    assert "\\" in text and "/" in text
    assert render_cup(weight_to_m(W("^^vv"))).splitlines()[1] == "| | | |"
