import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcalg import cohomology
from arcalg.arc_algebra import clear_caches
from arcalg.cohomology import (GradedDim, PullbackMap, RingPresentation,
                               component_cohomology, intersection_cohomology,
                               intrinsic_min_degree, kernel_contains_both,
                               odd_normalization, poincare,
                               pullback_is_surjective, stable_cohomology)
from arcalg.diagrams import (Shape, StandardTableau, ValidationError, Weight,
                             diagram_of, enumerate_standard, enumerate_weights,
                             epsilon, equivalence, orientation_degree,
                             orientations, weight_of_tableau, weight_to_m)
from oracles import kernel_within_oracle, pullback_matrix, rank

W = Weight.parse


def weights_of(n, k):
    return enumerate_weights(Shape(n, k))


def all_shapes(max_n):
    return [Shape(n, k) for n in range(2, max_n + 1) for k in range(0, n // 2 + 1)]


# --- presentations -----------------------------------------------------------

def test_component_cohomology_running_example():
    nested = StandardTableau((4, 3), (2, 1))
    nxt = StandardTableau((4, 2), (3, 1))
    pres, pb = component_cohomology(nested)
    assert pres.generators == (1, 2) and pres.dim == 4
    assert pb.image(1) == ((1, 1),)
    assert pb.image(2) == ((2, 1),)
    assert pb.image(3) == ((2, -1),)
    assert pb.image(4) == ((1, -1),)
    pres, _ = component_cohomology(nxt)
    assert pres.generators == (1, 3) and pres.dim == 4


def test_single_cup_component():
    pres, _ = component_cohomology(StandardTableau((2,), (1,)))
    assert pres.generators == (1,) and pres.dim == 2


def test_stable_cohomology_dims_running_example():
    dims = [stable_cohomology(w)[0].dim for w in weights_of(4, 2)]
    assert dims == [1, 2, 2, 2, 4, 4]
    gens = [stable_cohomology(w)[0].generators for w in weights_of(4, 2)]
    assert gens == [(), (2,), (1,), (3,), (1, 3), (1, 2)]


def test_ray_pullback_is_zero():
    _, pb = stable_cohomology(W("^^vv"))
    assert all(pb.image(i) == () for i in range(1, 5))


def test_intersection_presentations_running_example():
    w = weights_of(4, 2)
    # the four nontrivial pairs from the fixed-point example, 0-indexed
    nontrivial = {(1, 5): (2,), (2, 4): (1,), (3, 4): (3,), (4, 5): (1,)}
    for (i, j), gens in nontrivial.items():
        res = intersection_cohomology(w[i], w[j])
        assert res is not None and res[0].generators == gens
    assert intersection_cohomology(w[0], w[2]) is None
    assert intersection_cohomology(w[0], w[3]) is None
    assert intersection_cohomology(w[0], w[4]) is None
    res = intersection_cohomology(w[0], w[1])
    assert res is not None and res[0].generators == () and res[0].dim == 1


def test_intersection_pullback_epsilon_rule():
    w = weights_of(4, 2)
    res = intersection_cohomology(w[4], w[5])  # v^v^ with vv^^: one circle
    assert res is not None
    pres, pb = res
    assert pres.generators == (1,)
    assert pb.image(1) == ((1, 1),)
    assert pb.image(2) == ((1, -1),)
    assert pb.image(3) == ((1, 1),)
    assert pb.image(4) == ((1, -1),)


def test_self_intersection_matches_stable():
    for shape in all_shapes(6):
        for w in weights_of(shape.n, shape.k):
            res = intersection_cohomology(w, w)
            pres, _ = stable_cohomology(w)
            assert res is not None and res[0].generators == pres.generators


# --- dimensions and poincare ---------------------------------------------------

def test_dim_equals_orientation_count():
    for shape in all_shapes(8):
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws, repeat=2):
            z = diagram_of(a, b)
            cnt = len(orientations(z, a, b))
            res = intersection_cohomology(a, b)
            assert (res is None) == (cnt == 0)
            if res is not None:
                assert res[0].dim == cnt


def test_poincare_examples():
    assert poincare(W("vv^^"), W("v^v^"), shifted=True) == GradedDim(1, (1, 0, 1))
    assert poincare(W("v^v^"), W("v^v^")) == GradedDim(0, (1, 0, 2, 0, 1))
    assert poincare(W("^^vv"), W("v^^v")) == GradedDim.zero()
    assert poincare(W("^^vv"), W("^v^v"), shifted=True).total() == 1


def test_poincare_self_gluing():
    for w in weights_of(5, 2):
        k_w = weight_to_m(w).k
        hil = poincare(w, w)
        assert hil.total() == 2 ** k_w


def test_hilbert_series_of_presentation():
    pres, _ = stable_cohomology(W("v^v^"))
    assert pres.hilbert() == GradedDim(0, (1, 0, 2, 0, 1))


def test_graded_dim_str():
    assert str(GradedDim(1, (1, 0, 1))) == "q + q^3"
    assert str(GradedDim.zero()) == "0"
    assert str(GradedDim(0, (2,))) == "2"


def test_graded_dim_is_stored_normalized():
    padded = GradedDim(0, (0, 1, 0))
    assert padded == GradedDim(1, (1,))
    assert hash(padded) == hash(GradedDim(1, (1,)))
    assert padded.to_json() == GradedDim(1, (1,)).to_json()
    assert GradedDim(3, ()) == GradedDim.zero() and GradedDim(3, ()).offset == 0


@pytest.mark.parametrize("c", range(7))
def test_hilbert_is_a_product_of_one_plus_q_squared(c):
    want = GradedDim.one()
    for _ in range(c):
        want = want * GradedDim(0, (1, 0, 1))
    assert RingPresentation(tuple(range(1, c + 1))).hilbert() == want


def test_min_degree_matches_k_minus_c_for_standard():
    for shape in [Shape(4, 2), Shape(6, 3)]:
        tabs = enumerate_standard(shape)
        for s, t in itertools.product(tabs, repeat=2):
            a, b = weight_of_tableau(s), weight_of_tableau(t)
            z = diagram_of(a, b)
            assert intrinsic_min_degree(a, b) == shape.k - z.circle_count()


@pytest.mark.parametrize("n", range(1, 9))
def test_min_degree_matches_the_smallest_orientation_degree(n):
    ws = [Weight("".join(marks)) for marks in itertools.product("^v", repeat=n)]
    for w, v in itertools.product(ws, repeat=2):
        z = diagram_of(w, v)
        low = min((orientation_degree(z, o) for o in orientations(z, w, v)), default=None)
        if w.k != v.k:  # no orientation, and no shared shape
            assert low is None, (str(w), str(v))
            for ask in (intrinsic_min_degree, poincare):
                with pytest.raises(ValidationError, match="share a shape"):
                    ask(w, v)
            continue
        assert intrinsic_min_degree(w, v) == low, (str(w), str(v))
        c = z.circle_count()
        want = GradedDim.zero() if low is None else GradedDim(  # q**low * (1 + q**2)**c
            low, tuple(0 if i % 2 else comb(c, i // 2) for i in range(2 * c + 1)))
        assert poincare(w, v, shifted=True) == want, (str(w), str(v))


@pytest.mark.parametrize("ask", [poincare, intrinsic_min_degree, intersection_cohomology,
                                 kernel_contains_both, odd_normalization],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("pair", [("v^^^", "vv^^"), ("v^^", "v^v^")], ids=["k", "n"])
def test_every_pair_function_rejects_weights_of_two_shapes(ask, pair):
    with pytest.raises(ValidationError, match="weights must share a shape"):
        ask(W(pair[0]), W(pair[1]))


# --- the glued pair, glued once ------------------------------------------------

def _pair_results(a, b):
    return (intersection_cohomology(a, b), kernel_contains_both(a, b), odd_normalization(a, b))


def test_the_three_pullback_functions_glue_a_pair_once(count_glues):
    a, b = W("v^v^v^"), W("vv^v^^")
    clear_caches()
    calls = count_glues()
    _pair_results(a, b)
    assert calls == [1]
    _pair_results(a, b)
    assert calls == [1]
    poincare(a, b)  # reads no memo: one glue of its own
    assert calls == [2]


def test_poincare_then_the_pullback_functions_glue_a_pair_once(count_glues):
    # cohom_k0's order: poincare writes the pair's record, the rest read it
    a, b = W("v^v^v^"), W("vv^v^^")
    clear_caches()
    calls = count_glues()
    poincare(a, b, shifted=True)
    _pair_results(a, b)
    assert intrinsic_min_degree(a, b) == 2  # k = 3, one circle
    assert calls == [1]
    poincare(a, b, shifted=True)
    assert calls == [2]


def test_the_pair_memo_keeps_the_last_32_pairs():
    pairs = list(itertools.product(weights_of(6, 3), repeat=2))
    clear_caches()
    for i, (a, b) in enumerate(pairs):
        (poincare if i % 2 else intersection_cohomology)(a, b)
        assert len(cohomology._PAIRS) == min(i + 1, 32)
    assert list(cohomology._PAIRS) == pairs[-32:]
    poincare(*pairs[0])  # glues the oldest pair out
    assert list(cohomology._PAIRS) == pairs[-31:] + pairs[:1]


def test_memoized_pair_results_equal_the_cold_ones():
    ws = weights_of(6, 3)
    pairs = list(itertools.product(ws, repeat=2))
    cold = {}
    for a, b in pairs:
        clear_caches()
        cold[a, b] = _pair_results(a, b)
    clear_caches()
    # interleaved: each pair's three results asked after other pairs' in between
    for (a, b), (c, d) in zip(pairs, pairs[7:] + pairs[:7]):
        assert intersection_cohomology(a, b) == cold[a, b][0]
        assert kernel_contains_both(c, d) == cold[c, d][1]
        assert odd_normalization(a, b) == cold[a, b][2]
        assert _pair_results(c, d) == cold[c, d]
    clear_caches()
    assert cohomology._PAIRS == {}
    assert {(a, b): _pair_results(a, b) for a, b in pairs} == cold


# --- pullback properties -------------------------------------------------------

def test_pullback_surjective():
    for shape in all_shapes(7):
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws, repeat=2):
            res = intersection_cohomology(a, b)
            if res is not None:
                assert pullback_is_surjective(*res)


def test_kernel_inclusion():
    for shape in all_shapes(7):
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws, repeat=2):
            assert kernel_contains_both(a, b)


def test_odd_normalization():
    for shape in all_shapes(7):
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws, repeat=2):
            res = odd_normalization(a, b)
            assert res.ok
            for gen, odd in res.choices:
                assert odd % 2 == 1


@settings(max_examples=80)
@given(st.sampled_from([(n, k) for n in range(2, 9) for k in range(n // 2 + 1)]),
       st.data())
def test_empty_iff_no_orientation(nk, data):
    ws = weights_of(*nk)
    a = data.draw(st.sampled_from(ws))
    b = data.draw(st.sampled_from(ws))
    z = diagram_of(a, b)
    assert (intersection_cohomology(a, b) is None) == (not orientations(z, a, b))


def test_intersection_generators_are_the_circle_representatives():
    # reference: generators from the equivalence classes, each x_i sent to
    # every generator it has a nonzero epsilon with
    for shape in all_shapes(8):
        ws = weights_of(shape.n, shape.k)
        for a, b in itertools.product(ws, repeat=2):
            res = intersection_cohomology(a, b)
            if res is None:
                continue
            pres, pb = res
            gens = equivalence(weight_to_m(a), weight_to_m(b)).circle_reps
            assert pres.generators == gens
            z = diagram_of(a, b)
            for i in range(1, shape.n + 1):
                assert pb.image(i) == tuple((g, epsilon(z, i, g)) for g in gens
                                            if epsilon(z, i, g))


# --- checks that must fail, rejected maps, and the elimination oracle ----------

def _patch_pair_pullback(monkeypatch, point, image):
    """Make intersection_cohomology send x_point to ``image`` instead."""
    real = cohomology.intersection_cohomology

    def patched(w, wp):
        pres, pb = real(w, wp)
        images = list(pb.images)
        images[point - 1] = image
        return pres, PullbackMap(pb.n, tuple(images))

    monkeypatch.setattr(cohomology, "intersection_cohomology", patched)


def test_kernel_check_fails_when_one_cup_end_flips_sign(monkeypatch):
    # m(v^v^) has the cup (1, 2), so e_1 + e_2 lies in its stable kernel;
    # the one circle of (v^v^, vv^^) sends x_1 -> x_1 and x_2 -> -x_1
    a, b = W("v^v^"), W("vv^^")
    assert intersection_cohomology(a, b)[1].image(2) == ((1, -1),)
    assert kernel_contains_both(a, b)
    _patch_pair_pullback(monkeypatch, 2, ((1, 1),))
    assert not kernel_contains_both(a, b)


def test_kernel_check_fails_when_a_ray_point_is_hit(monkeypatch):
    # 3 is a ray of m(v^^), so e_3 lies in its stable kernel
    a = W("v^^")
    assert intersection_cohomology(a, a)[1].image(3) == ()
    assert kernel_contains_both(a, a)
    _patch_pair_pullback(monkeypatch, 3, ((1, 1),))
    assert not kernel_contains_both(a, a)


def _patch_pair_record(monkeypatch, w, point, image):
    """Keep a record of the pair (w, w) whose pullback sends x_point to ``image``."""
    z, low, (pres, pb) = cohomology._glue_pair(w, w)
    images = list(pb.images)
    images[point - 1] = image
    monkeypatch.setitem(cohomology._PAIRS, (w, w), cohomology._Pair(
        z, low, (pres, PullbackMap(pb.n, tuple(images)))))


@pytest.mark.parametrize("pair, point, image", [
    ("v^^^", 2, ((1, 1),)),  # x_2 -> -x_1 on the circle {1, 2}, flipped
    ("v^v^", 2, ((3, -1),)),  # x_2 sent to the generator of the other circle {3, 4}
    ("v^^^", 3, ((1, 1),)),  # 3 lies on a line, so x_3 must map to 0
], ids=["flipped-sign", "other-circle", "line-point-hit"])
def test_odd_normalization_fails_on_a_corrupted_pullback(monkeypatch, pair, point, image):
    a = W(pair)
    assert odd_normalization(a, a).ok
    _patch_pair_record(monkeypatch, a, point, image)
    assert odd_normalization(a, a).ok is False


@pytest.mark.parametrize("i", [0, 5, -1])
def test_pullback_image_rejects_a_point_outside_1_to_n(i):
    pb = intersection_cohomology(W("v^v^"), W("v^v^"))[1]
    assert pb.image(4) == ((3, -1),)
    with pytest.raises(ValidationError, match=f"x_{i} is not among x_1..x_4"):
        pb.image(i)


def test_surjectivity_fails_on_a_generator_nobody_hits():
    pb = PullbackMap(2, (((1, 1),), ((1, -1),)))
    assert pullback_is_surjective(RingPresentation((1,)), pb)
    assert not pullback_is_surjective(RingPresentation((1, 3)), pb)


@pytest.mark.parametrize("build", [
    lambda: PullbackMap(3, (((1, 1),), ((1, -1),))),
    lambda: PullbackMap(2, (((1, 1), (2, 1)), ())),
    lambda: PullbackMap(2, (((1, 2),), ())),
    lambda: PullbackMap(2, ((), ((1, 0),))),
    lambda: pullback_is_surjective(RingPresentation((1,)),
                                   PullbackMap(2, (((3, 1),), ()))),
], ids=["too-few-images", "two-terms", "coefficient-2", "coefficient-0",
        "generator-outside-presentation"])
def test_malformed_pullbacks_are_rejected(build):
    with pytest.raises(ValidationError):
        build()


def test_kernel_contains_both_matches_elimination_oracle():
    for shape in all_shapes(8):
        ws = weights_of(shape.n, shape.k)
        stable = {w: stable_cohomology(w) for w in ws}
        for a, b in itertools.product(ws, repeat=2):
            pair = intersection_cohomology(a, b)
            want = pair is None or all(
                kernel_within_oracle(pres.generators, pb, pair[0].generators, pair[1])
                for pres, pb in (stable[a], stable[b]))
            assert kernel_contains_both(a, b) == want


def test_pullback_is_surjective_matches_rank():
    for shape in all_shapes(8):
        ws = weights_of(shape.n, shape.k)
        presentations = [stable_cohomology(w) for w in ws]
        presentations += [component_cohomology(s) for s in enumerate_standard(shape)]
        presentations += [res for a, b in itertools.product(ws, repeat=2)
                          if (res := intersection_cohomology(a, b)) is not None]
        for pres, pb in presentations:
            want = rank(pullback_matrix(pres.generators, pb)) == len(pres.generators)
            assert pullback_is_surjective(pres, pb) == want


@settings(max_examples=300)
@given(st.data())
def test_rank_of_random_maps_matches_elimination_oracle(data):
    n = data.draw(st.integers(1, 6))
    points = range(1, n + 1)
    gens = tuple(sorted(data.draw(st.sets(st.sampled_from(list(points)), max_size=3))))
    image = st.sampled_from([()] + [((g, s),) for g in gens for s in (1, -1)])
    p = PullbackMap(n, tuple(data.draw(image) for _ in points))
    pres = RingPresentation(gens)
    assert pullback_is_surjective(pres, p) == (rank(pullback_matrix(gens, p)) == len(gens))
