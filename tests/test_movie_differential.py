"""The compiled movie and the twist walk against the reference movie in ``oracles.py``.

Every composable basis pair, every nesting-compatible cup order and both
alphas are compared for n <= 5 and at (6, 2), and so is every movie at
(6, 3) whose split parity depends on the cup order (movies with handles
first appear there).  The products are read off ``_triple_rows`` at
explicit orders, which fold the compiled movie once per triple; at
alpha = -1 they are held to both the reference's "minus" movie (the +1
movie times the raw signs) and its "nested" one.  The compiled movie's
twist is compared at every order there too, and the canonical twist walk
(``_twist``) at every triple there and at every live triple with n <= 7,
where it must equal the compiled movie's twist at the canonical order.
Hypothesis samples pairs and orders at (6, 3) and (8, 4).  The caches
are cleared first, so that products, twists and bases are computed
afresh rather than read from a memo.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcalg.arc_algebra import (_compile_movie, _convolution, _triple_rows, _twist,
                                basis, canonical_order, clear_caches, cup_orders)
from arcalg.diagrams import Shape, enumerate_weights, weight_to_m
from oracles import _ray_twist, _split_parity, movie_product_oracle

ALPHAS = (1, -1)
# the reference movie's rule sets that each alpha's product must equal
ORACLE_MODES = {1: ("plus",), -1: ("minus", "nested")}


def _agrees(x, y, z, alpha, order, pairs=None) -> None:
    """The triple's products at ``order``, from one ``_triple_rows`` call, against the
    reference movie: at each pair (i, j) of positions in Hom(x, y) and Hom(y, z) of
    ``pairs``, or at every pair if it is None."""
    first, second = basis(x, y), basis(y, z)
    rows = _triple_rows(x, y, z, alpha, order, basis(x, z)) or [[]] * len(first)
    for i, j in pairs or itertools.product(range(len(first)), range(len(second))):
        got = dict(dict(rows[i]).get(j, ()))
        ba, bb = first[i], second[j]
        for mode in ORACLE_MODES[alpha]:
            assert got == movie_product_oracle(ba, bb, mode, order), (str(ba), str(bb), mode,
                                                                       order)


def _compiled_twist_is(x, y, z, order, want) -> None:
    """The compiled movie's twist at ``order`` is ``want`` where the movie survives."""
    movie = _compile_movie(x, y, z, order)
    assert movie is None or movie[1] == want, (x, y, z, order)


@pytest.mark.parametrize("shape", [Shape(n, k) for n in range(1, 6) for k in range(n // 2 + 1)]
                         + [Shape(6, 2)], ids=str)
def test_every_pair_and_order(shape):
    clear_caches()
    ws = enumerate_weights(shape)
    pairs = 0
    for x, y, z in itertools.product(ws, repeat=3):
        if not (basis(x, y) and basis(y, z)):
            continue
        rays = _ray_twist(x, y, z)
        canonical = canonical_order(weight_to_m(y))
        assert _twist(x, y, z) == (rays + _split_parity(x, y, z, canonical)) % 2
        for order in cup_orders(weight_to_m(y)):
            _compiled_twist_is(x, y, z, order, (rays + _split_parity(x, y, z, order)) % 2)
            for alpha in ALPHAS:
                _agrees(x, y, z, alpha, order)
                pairs += len(basis(x, y)) * len(basis(y, z))
    assert pairs > 0


def test_every_movie_whose_split_parity_depends_on_the_order_6_3():
    # Such movies have handles; this is where alpha = -1 renormalizes by
    # the canonical order's parity.
    clear_caches()
    ws = enumerate_weights(Shape(6, 3))
    drifting = 0
    for x, y, z in itertools.product(ws, repeat=3):
        if not (basis(x, y) and basis(y, z)):
            continue
        orders = list(cup_orders(weight_to_m(y)))
        reference = _split_parity(x, y, z, canonical_order(weight_to_m(y)))
        rays = _ray_twist(x, y, z)
        assert _twist(x, y, z) == (rays + reference) % 2
        for order in orders:
            parity = _split_parity(x, y, z, order)
            _compiled_twist_is(x, y, z, order, (rays + parity) % 2)
            if parity == reference:
                continue
            drifting += 1
            for alpha in ALPHAS:
                _agrees(x, y, z, alpha, order)
    assert drifting == 64


@pytest.mark.parametrize("shape", [Shape(n, k) for n in range(1, 8) for k in range(n // 2 + 1)],
                         ids=str)
def test_twist_of_every_live_triple(shape):
    # the alpha = -1 table reads its sign per triple off the walk, at the
    # canonical order, for exactly these triples
    clear_caches()
    ws = enumerate_weights(shape)
    live = 0
    for x, y, z in itertools.product(ws, repeat=3):
        if not (basis(x, y) and basis(y, z)) or _convolution(x, y, z) is None:
            continue
        order = canonical_order(weight_to_m(y))
        assert _twist(x, y, z) == (_ray_twist(x, y, z) + _split_parity(x, y, z, order)) % 2
        # the walk's twist is the compiled movie's at the canonical order
        movie = _compile_movie(x, y, z, order)
        assert movie is not None and movie[1] == _twist(x, y, z)
        live += 1
    assert live > 0


@st.composite
def movies(draw, shape):
    """A weight triple of the shape, an alpha, a valid cup order and one composable
    basis pair of the triple, as positions in Hom(x, y) and Hom(y, z)."""
    ws = enumerate_weights(shape)
    x = draw(st.sampled_from(ws))
    y = draw(st.sampled_from([w for w in ws if basis(x, w)]))
    z = draw(st.sampled_from([w for w in ws if basis(y, w)]))
    order = draw(st.sampled_from(list(cup_orders(weight_to_m(y)))))
    pair = (draw(st.integers(0, len(basis(x, y)) - 1)), draw(st.integers(0, len(basis(y, z)) - 1)))
    return x, y, z, draw(st.sampled_from(ALPHAS)), order, [pair]


@settings(max_examples=150, deadline=None)
@given(movies(Shape(6, 3)))
def test_sampled_pairs_with_handles_6_3(movie):
    clear_caches()
    _agrees(*movie)


@settings(max_examples=60, deadline=None)
@given(movies(Shape(8, 4)))
def test_sampled_pairs_8_4(movie):
    clear_caches()
    _agrees(*movie)
