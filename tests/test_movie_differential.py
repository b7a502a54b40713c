"""The compiled movie and the twist walk against the reference movie in ``oracles.py``.

Every composable basis pair, every nesting-compatible cup order and all
three rule sets are compared for n <= 5 and at (6, 2), and so is every
movie at (6, 3) whose split parity depends on the cup order (movies with
handles first appear there).  The products are read off ``_triple_rows``
at explicit orders, which fold the compiled movie once per triple.  The
walk's twist is compared at every order there too, and at the canonical
order for every live triple with n <= 7, where the twist and the
compiled movie at no order (None) must equal those at the canonical
order.  Hypothesis samples pairs and orders at (6, 3) and (8, 4).  The
caches are cleared first, so that products, compiled movies, twists and
bases are computed afresh rather than read from a memo.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcalg.arc_algebra import (_compile_movie, _convolution, _triple_rows, _twist,
                                basis, canonical_order, clear_caches, cup_orders)
from arcalg.diagrams import Shape, enumerate_weights, weight_to_m
from oracles import _ray_twist, _split_parity, movie_product_oracle

MODES = ("plus", "minus", "nested")


def _agrees(x, y, z, mode, order, pairs=None) -> None:
    """The triple's products at ``order``, from one ``_triple_rows`` call, against the
    reference movie: at each pair (i, j) of positions in Hom(x, y) and Hom(y, z) of
    ``pairs``, or at every pair if it is None."""
    first, second = basis(x, y), basis(y, z)
    rows = _triple_rows(x, y, z, mode, order, basis(x, z)) or [[]] * len(first)
    for i, j in pairs or itertools.product(range(len(first)), range(len(second))):
        got = dict(dict(rows[i]).get(j, ()))
        ba, bb = first[i], second[j]
        assert got == movie_product_oracle(ba, bb, mode, order), (str(ba), str(bb), mode, order)


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
        for order in cup_orders(weight_to_m(y)):
            assert _twist(x, y, z, order) == (rays + _split_parity(x, y, z, order)) % 2
            for mode in MODES:
                _agrees(x, y, z, mode, order)
                pairs += len(basis(x, y)) * len(basis(y, z))
    assert pairs > 0


def test_every_movie_whose_split_parity_depends_on_the_order_6_3():
    # Such movies have handles; this is where the minus and nested modes
    # renormalize by the canonical order's parity.
    clear_caches()
    ws = enumerate_weights(Shape(6, 3))
    drifting = 0
    for x, y, z in itertools.product(ws, repeat=3):
        if not (basis(x, y) and basis(y, z)):
            continue
        orders = list(cup_orders(weight_to_m(y)))
        reference = _split_parity(x, y, z, canonical_order(weight_to_m(y)))
        rays = _ray_twist(x, y, z)
        for order in orders:
            parity = _split_parity(x, y, z, order)
            assert _twist(x, y, z, order) == (rays + parity) % 2
            if parity == reference:
                continue
            drifting += 1
            for mode in MODES:
                _agrees(x, y, z, mode, order)
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
        assert _twist(x, y, z, order) == (_ray_twist(x, y, z) + _split_parity(x, y, z, order)) % 2
        # no cup order is the canonical one
        assert _twist(x, y, z, None) == _twist(x, y, z, order)
        assert _compile_movie(x, y, z, None) == _compile_movie(x, y, z, order)
        live += 1
    assert live > 0


@st.composite
def movies(draw, shape):
    """A weight triple of the shape, a mode, a valid cup order and one composable
    basis pair of the triple, as positions in Hom(x, y) and Hom(y, z)."""
    ws = enumerate_weights(shape)
    x = draw(st.sampled_from(ws))
    y = draw(st.sampled_from([w for w in ws if basis(x, w)]))
    z = draw(st.sampled_from([w for w in ws if basis(y, w)]))
    order = draw(st.sampled_from(list(cup_orders(weight_to_m(y)))))
    pair = (draw(st.integers(0, len(basis(x, y)) - 1)), draw(st.integers(0, len(basis(y, z)) - 1)))
    return x, y, z, draw(st.sampled_from(MODES)), order, [pair]


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
