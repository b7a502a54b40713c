"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; stated time budgets are asserted where the criterion carries
one.
"""
import itertools
import time

import pytest

from arcalg import arc_algebra as aa
from arcalg import cohomology as co
from arcalg import ktheory as kt
from arcalg.diagrams import (Shape, StandardTableau, Weight, diagram_of,
                             enumerate_standard, enumerate_weights, glue,
                             orientations, tableau_to_cup, weight_of_tableau,
                             weight_to_C, weight_to_m)
from oracles import direct_product_oracle, is_oriented, orientation_count_oracle

W = Weight.parse


def _report(num, label, t0, limit=None):
    dt = time.time() - t0
    print(f"criterion {num} PASS: {label} ({dt:.2f}s)")
    if limit is not None:
        assert dt < limit, f"criterion {num} exceeded its {limit}s budget ({dt:.2f}s)"


def all_shapes(max_n):
    return [Shape(n, k) for n in range(2, max_n + 1) for k in range(0, n // 2 + 1)]


def test_criterion_1_running_example_fidelity():
    t0 = time.time()
    ws = enumerate_weights(Shape(4, 2))
    assert [str(w) for w in ws] == ["^^vv", "^v^v", "v^^v", "^vv^", "v^v^", "vv^^"]
    w1, w2, w3, w4, w5, w6 = ws

    # m(w_i) and C(w_i)
    assert [weight_to_m(w).cups for w in ws] == \
        [(), ((2, 3),), ((1, 2),), ((3, 4),), ((1, 2), (3, 4)), ((1, 4), (2, 3))]
    assert weight_to_m(w1).rays == (1, 2, 3, 4)
    assert [weight_to_C(w).cups for w in ws] == \
        [((1, 4), (2, 3)), ((1, 4), (2, 3)), ((1, 2), (3, 4)),
         ((1, 2), (3, 4)), ((1, 2), (3, 4)), ((1, 4), (2, 3))]

    # component membership
    nxt = tableau_to_cup(StandardTableau((4, 2), (3, 1)))
    nested = tableau_to_cup(StandardTableau((4, 3), (2, 1)))
    assert [i + 1 for i, w in enumerate(ws) if is_oriented(w, nxt)] == [2, 3, 4, 5]
    assert [i + 1 for i, w in enumerate(ws) if is_oriented(w, nested)] == [1, 2, 5, 6]

    # the three intersection classes
    empty, one, two = [], [], []
    for i, j in itertools.combinations(range(6), 2):
        z = glue(weight_to_m(ws[j]), weight_to_m(ws[i]))
        cnt = len(orientations(z, ws[i], ws[j]))
        (empty if cnt == 0 else one if cnt == 1 else two).append((i + 1, j + 1))
    assert empty == [(1, 3), (1, 4), (1, 5)]
    assert one == [(1, 2), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4), (3, 6), (4, 6)]
    assert two == [(2, 6), (3, 5), (4, 5), (5, 6)]

    # stable-manifold cohomology dimensions and generators
    assert [co.stable_cohomology(w)[0].dim for w in ws] == [1, 2, 2, 2, 4, 4]
    assert [co.stable_cohomology(w)[0].generators for w in ws] == \
        [(), (2,), (1,), (3,), (1, 3), (1, 2)]

    # the four nontrivial intersection presentations
    for (i, j), gens in {(2, 6): (2,), (3, 5): (1,), (4, 5): (3,), (5, 6): (1,)}.items():
        res = co.intersection_cohomology(ws[i - 1], ws[j - 1])
        assert res is not None and res[0].generators == gens

    # the unit products of the convolution example, both alpha
    a = aa.low_element(w6, w5)
    b = aa.low_element(w5, w6)
    assert aa.multiply(a, b, 1).x_form() == "x1 + x2"
    assert aa.multiply(a, b, -1).x_form() == "x1 - x2"
    assert aa.multiply(b, a, 1).x_form() == "x1 + x3"
    assert aa.multiply(b, a, -1).x_form() == "- x1 - x3"

    _report(1, "(4,2) running-example values reproduced exactly", t0, limit=1.0)


def test_criterion_2_orientation_count_law():
    t0 = time.time()
    pairs = 0
    for shape in all_shapes(10):
        ws = enumerate_weights(shape)
        for a, b in itertools.product(ws, repeat=2):
            z = glue(weight_to_m(b), weight_to_m(a))
            cnt = len(orientations(z, a, b))
            assert cnt in (0, 1, 2 ** z.circle_count())
            assert cnt == orientation_count_oracle(a, b)
            pairs += 1
    _report(2, f"orientation counts match the exhaustive filter on {pairs} pairs (n <= 10)",
            t0, limit=60.0)


def test_criterion_3_product_matches_direct_oracle():
    t0 = time.time()
    checked = 0
    for shape in (Shape(4, 2), Shape(6, 3)):
        ws = enumerate_weights(shape)
        for x, y in itertools.product(ws, repeat=2):
            bas_xy = aa.basis(x, y)
            if not bas_xy:
                continue
            for z in ws:
                for a in bas_xy:
                    ea = aa.AlgebraElement(x, y, {a: 1})
                    for b in aa.basis(y, z):
                        got = aa.multiply(ea, aa.AlgebraElement(y, z, {b: 1}), 1)
                        want = direct_product_oracle(x, y, z, a.orient, b.orient)
                        assert {str(t.orient): c for t, c in got.terms.items()} == want
                        checked += 1
        assert aa.check_unit(shape, 1).ok
        assert aa.check_degree_additivity(shape, 1).ok
        for x, y in itertools.product(ws, repeat=2):
            if x != y:
                with pytest.raises(aa.CompositionError):
                    aa.multiply(aa.idempotent(x), aa.idempotent(y))
    _report(3, f"alpha=+1 movie equals the direct TQFT oracle on {checked} pairs; "
               "unit, orthogonality, degree additivity hold", t0, limit=120.0)


def test_criterion_4_alpha_dichotomy():
    t0 = time.time()
    for shape in (Shape(4, 2), Shape(6, 3)):
        res = aa.check_associativity(shape, 1)
        assert res.ok, res.witness
    witness = aa.check_associativity(Shape(4, 2), -1)
    if witness.ok:
        witness = aa.check_associativity(Shape(6, 3), -1)
    assert not witness.ok
    print(f"  alpha=-1 non-associativity witness: {witness.witness}")
    _report(4, "alpha=+1 associative on (4,2) and (6,3); alpha=-1 witness found", t0)


def test_criterion_5_sequence_independence():
    t0 = time.time()
    for shape in all_shapes(6):
        for alpha in (1, -1):
            res = aa.check_order_independence(shape, alpha)
            assert res.ok, f"{shape} alpha={alpha}: {res.witness}"
    _report(5, "products agree across all nesting-compatible cup orders, "
               "both alpha, n <= 6", t0)


def test_criterion_6_embedded_tqft_equivalence():
    t0 = time.time()
    for shape in all_shapes(6):
        res = aa.check_order_independence(shape, -1)
        assert res.ok, f"{shape}: {res.witness}"
    _report(6, "multiply_nested equals multiply(alpha=-1) on all pairs, n <= 6", t0)


def test_criterion_7_grading_law():
    t0 = time.time()
    for shape in (Shape(4, 2), Shape(6, 3), Shape(8, 4)):
        stds = [weight_of_tableau(t) for t in enumerate_standard(shape)]
        for x, y in itertools.product(stds, repeat=2):
            z = glue(weight_to_m(y), weight_to_m(x))
            c = z.circle_count()
            degs = sorted(aa.degree(b) for b in aa.basis(x, y))
            want = sorted(shape.k - c + sum(bits)
                          for bits in itertools.product((0, 2), repeat=c))
            assert degs == want
    _report(7, "Hom degrees generate q^(k-c) (1+q^2)^c on standard pairs "
               "at (4,2), (6,3), (8,4)", t0)


def test_criterion_8_k0_matrix():
    t0 = time.time()
    mat2 = kt.k0_matrix(Shape(2, 1))
    vs = [W("v^"), W("^v")]
    assert [[mat2.entry(a, b) for b in vs] for a in vs] == [[1, -1], [0, 1]]
    for k in (1, 2, 3, 4):
        mat = kt.k0_matrix(Shape(2 * k, k))
        assert mat.det() in (1, -1)
        assert mat.is_lower_unitriangular()
        for i, w in enumerate(mat.weights):
            assert mat.entries[i][i] == 1
            theta = set(kt.theta_set(w))
            for j, v in enumerate(mat.weights):
                assert (mat.entries[i][j] != 0) == (v in theta)
            cups = weight_to_m(w).cups
            for r in range(len(cups) + 1):
                for subset in itertools.combinations(cups, r):
                    marks = list(w.marks)
                    for a, b in subset:
                        marks[a - 1], marks[b - 1] = marks[b - 1], marks[a - 1]
                    assert mat.entry(w, Weight("".join(marks))) == (-1) ** len(subset)
            for v in kt.theta_set(w):
                assert kt.weight_leq(w, v)
    print(f"  direction: {kt.k0_matrix(Shape(4, 2)).direction}")
    _report(8, "K0 matrices for n <= 8 balanced: det +-1, diagonal +1, "
               "support = theta, signs = (-1)^flips, unitriangular", t0)


def test_criterion_9_cohomology_consistency():
    t0 = time.time()
    pairs = 0
    for shape in all_shapes(8):
        ws = enumerate_weights(shape)
        for a, b in itertools.product(ws, repeat=2):
            z = diagram_of(a, b)
            cnt = len(orientations(z, a, b))
            res = co.intersection_cohomology(a, b)
            assert (res is None) == (cnt == 0)
            if res is not None:
                assert res[0].dim == cnt
            assert co.kernel_contains_both(a, b)
            assert co.odd_normalization(a, b).ok
            pairs += 1
    _report(9, f"dims, kernel inclusions, odd-vertex renormalization verified "
               f"on {pairs} pairs (n <= 8)", t0)
