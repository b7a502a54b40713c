import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcalg.diagrams import Shape, ValidationError, Weight, enumerate_weights, weight_to_m
from arcalg.ktheory import K0Matrix, k0_matrix, length, theta_set, weight_leq
from oracles import det_int, leq_oracle

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
