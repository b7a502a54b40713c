import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcalg import diagrams
from arcalg.arc_algebra import basis, clear_caches, degree
from arcalg.diagrams import (Shape, ValidationError, Weight, diagram_of, enumerate_weights,
                             orientation_degree, orientations, weight_to_m)
from arcalg.ktheory import K0Matrix, k0_matrix, length, theta_set, weight_leq
from oracles import det_int, leq_oracle, theta_oracle

W = Weight.parse


def weights_of(n, k):
    return enumerate_weights(Shape(n, k))


def test_generating_move():
    assert weight_leq(W("v^"), W("^v"))
    assert not weight_leq(W("^v"), W("v^"))
    assert weight_leq(W("v^"), W("v^"))


def test_leq_validation():
    with pytest.raises(ValidationError):
        weight_leq(W("v^"), W("v^^"))
    with pytest.raises(ValidationError):
        weight_leq(W("v^"), W("^^"))


@pytest.mark.parametrize("w, v, stray", [("v^", "v^v^", "v^"), ("v^v^", "vv^^^^", "vv^^^^"),
                                         ("v^v^", "^^^^", "^^^^")])
def test_k0_entry_rejects_weights_outside_the_matrix(w, v, stray):
    mat = k0_matrix(Shape(4, 2))
    with pytest.raises(ValidationError, match=re.escape(f"Weight(marks='{stray}') is not "
                                                        "a weight of shape (4,2)")):
        mat.entry(W(w), W(v))


def test_leq_equals_move_closure():
    for nk in [(4, 2), (5, 2), (6, 3)]:
        for w, v in itertools.product(weights_of(*nk), repeat=2):
            assert weight_leq(w, v) == leq_oracle(w, v)


def test_order_axioms():
    ws = weights_of(5, 2)
    for w in ws:
        assert weight_leq(w, w)
    for w, v in itertools.product(ws, repeat=2):
        if weight_leq(w, v) and weight_leq(v, w):
            assert w == v
    for w, v, u in itertools.product(ws, repeat=3):
        if weight_leq(w, v) and weight_leq(v, u):
            assert weight_leq(w, u)


def test_length():
    assert length(W("^^vv")) == 0
    assert length(W("v^")) == 1
    assert length(W("vv^^")) == 4


def test_insertion_parity():
    # inserting a counter-clockwise pair vs a clockwise pair differs by one
    for n in range(1, 9):
        for w in weights_of(n, n // 2):
            for pos in range(w.n + 1):
                vp = Weight(w.marks[:pos] + "v^" + w.marks[pos:])
                vm = Weight(w.marks[:pos] + "^v" + w.marks[pos:])
                assert length(vp) == length(vm) + 1


def test_theta_examples():
    assert {str(v) for v in theta_set(W("v^"))} == {"v^", "^v"}
    assert {str(v) for v in theta_set(W("^v"))} == {"^v"}
    assert len(theta_set(W("v^v^"))) == 4
    assert {str(v) for v in theta_set(W("v^v^"))} == {"v^v^", "^vv^", "v^^v", "^v^v"}


def test_theta_size_is_two_to_cups():
    for nk in [(4, 2), (6, 3), (5, 2)]:
        for w in weights_of(*nk):
            assert len(theta_set(w)) == 2 ** weight_to_m(w).k


def test_theta_moves_increase():
    for nk in [(4, 2), (6, 3), (8, 4)]:
        for w in weights_of(*nk):
            for v in theta_set(w):
                assert weight_leq(w, v)


def test_k0_two_points():
    mat = k0_matrix(Shape(2, 1))
    vs = [W("v^"), W("^v")]
    assert [[mat.entry(a, b) for b in vs] for a in vs] == [[1, -1], [0, 1]]


@pytest.mark.parametrize("nk", [(2, 1), (4, 2), (6, 3), (8, 4)])
def test_k0_matrix_properties(nk):
    mat = k0_matrix(Shape(*nk))
    n_w = len(mat.weights)
    assert mat.det() in (1, -1)
    assert mat.is_lower_unitriangular()
    for i, w in enumerate(mat.weights):
        assert mat.entries[i][i] == 1
        th = set(theta_set(w))
        for j, v in enumerate(mat.weights):
            assert (mat.entries[i][j] != 0) == (v in th)
    # row signs equal (-1)**(number of switched cups)
    for w in mat.weights:
        cups = weight_to_m(w).cups
        for r in range(len(cups) + 1):
            for subset in itertools.combinations(cups, r):
                marks = list(w.marks)
                for a, b in subset:
                    marks[a - 1], marks[b - 1] = marks[b - 1], marks[a - 1]
                assert mat.entry(w, Weight("".join(marks))) == (-1) ** len(subset)


def test_k0_serialization():
    mat = k0_matrix(Shape(4, 2))
    csv = mat.to_csv()
    assert csv.splitlines()[0] == ",^^vv,^v^v,v^^v,^vv^,v^v^,vv^^"
    import json
    data = json.loads(mat.to_json())
    assert data["shape"] == [4, 2]
    assert len(data["entries"]) == 6


@settings(max_examples=60)
@given(st.sampled_from([(n, k) for n in range(2, 9) for k in range(1, n // 2 + 1)]),
       st.data())
def test_theta_switch_preserves_shape(nk, data):
    ws = weights_of(*nk)
    w = data.draw(st.sampled_from(ws))
    for v in theta_set(w):
        assert v.k == w.k and v.n == w.n


@pytest.mark.parametrize("n", range(1, 9))
def test_k0_det_matches_bareiss(n):
    for k in range(n // 2 + 1):
        mat = k0_matrix(Shape(n, k))
        assert mat.det() == det_int([list(r) for r in mat.entries])


def test_det_of_hand_built_matrices():
    # a triangular matrix gives its diagonal product, any other one raises
    mat = k0_matrix(Shape(2, 1))
    assert mat.entries == ((1, 0), (-1, 1))
    lower = K0Matrix(mat.shape, mat.weights, ((2, 0), (5, -3)), mat.direction)
    assert not lower.is_lower_unitriangular()
    assert lower.det() == det_int([[2, 0], [5, -3]]) == -6
    upper = K0Matrix(mat.shape, mat.weights, ((1, -1), (0, 1)), mat.direction)
    assert not upper.is_lower_unitriangular()
    with pytest.raises(ValidationError):
        upper.det()
    with pytest.raises(AttributeError):
        mat.entries = upper.entries


# --- BGG reciprocity: the arc algebra's Hom spaces read off Theta ---------------

def _switched(x, orient):
    """Cups of m(x) whose marks ``orient`` switches from those of x."""
    return sum(1 for a, _ in weight_to_m(x).cups if orient.mark(a) != x.mark(a))


def _hold_hom_spaces(n):
    """Hold every Hom space on n points to its glued diagram and to Theta.

    The basis of Hom(x, y) is the orientations of the glued diagram, in
    order, with their orientation degrees; and it is Theta(x) ∩ Theta(y),
    each element in the degree of the cups it switches:
    C(q) = D(q) D(q)^T with D(q)[x][lambda] = q^(cups switched) on Theta(x).
    """
    for k in range(n // 2 + 1):
        thetas = {w: set(theta_oracle(w)) for w in weights_of(n, k)}
        for (x, tx), (y, ty) in itertools.product(thetas.items(), repeat=2):
            z, els = diagram_of(x, y), basis(x, y)
            assert [b.orient for b in els] == orientations(z, x, y), (str(x), str(y))
            assert {b.orient for b in els} == tx & ty, (str(x), str(y))
            for b in els:
                assert degree(b) == orientation_degree(z, b.orient) == (
                    _switched(x, b.orient) + _switched(y, b.orient)), str(b)


@pytest.mark.parametrize("n", range(1, 9))
def test_hom_spaces_are_theta_intersections_with_switch_degrees(n):
    _hold_hom_spaces(n)


def test_a_corrupted_theta_memo_fails_the_hom_space_check(monkeypatch):
    # Theta(v^v^) without ^v^v, its smallest up-set
    x, real = W("v^v^"), diagrams._switches
    assert theta_oracle(x)[0] == W("^v^v")
    monkeypatch.setattr(diagrams, "_switches", lambda w: real(w)[1:] if w == x else real(w))
    clear_caches()
    try:
        with pytest.raises(AssertionError):
            _hold_hom_spaces(4)
    finally:
        clear_caches()


@pytest.mark.parametrize("n", range(1, 11))
def test_theta_set_matches_the_cup_switch_oracle(n):
    for k in range(n // 2 + 1):
        for w in weights_of(n, k):
            assert theta_set(w) == theta_oracle(w), str(w)
    clear_caches()
