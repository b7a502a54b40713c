"""Algebra laws on sampled composable elements at n = 8 to 10.

The exhaustive checks stop at n = 6.  Here Hypothesis draws a shape with
8 <= n <= 10 and a chain of weights, each with a nonzero Hom space from
every earlier one, so that products are often nonzero.  Half the chains
use standard weights only, whose movies split and nest circles more
often.  Each element of the chain is every basis element of its Hom
space with a coefficient in 1..3; the products are bilinear, so one
example tests many basis products at once.  The laws are tested through
the public products, and the default-order product (read off the
convolution) against the movie at the canonical order.
"""
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from arcalg.arc_algebra import (AlgebraElement, basis, canonical_order, cup_orders, degree,
                                idempotent, multiply, multiply_nested)
from arcalg.diagrams import (Shape, enumerate_standard, enumerate_weights,
                             weight_of_tableau, weight_to_m)

SHAPES = [Shape(n, k) for n in range(8, 11) for k in (n // 2 - 1, n // 2)]
ALPHAS = st.sampled_from([1, -1])


@st.composite
def chains(draw, length: int):
    """``length`` composable elements."""
    shape = draw(st.sampled_from(SHAPES))
    if draw(st.booleans()):
        ws = [weight_of_tableau(t) for t in enumerate_standard(shape)]
    else:
        ws = enumerate_weights(shape)
    weights = [draw(st.sampled_from(ws))]
    for _ in range(length):
        # never empty: the last weight qualifies
        weights.append(draw(st.sampled_from([w for w in ws
                                             if all(basis(v, w) for v in weights)])))
    return [AlgebraElement(x, y, {b: draw(st.integers(1, 3)) for b in basis(x, y)})
            for x, y in zip(weights, weights[1:])]


def _parts(el: AlgebraElement) -> dict:
    """{degree: the part of ``el`` in that degree}."""
    parts: dict = {}
    for t, c in el.terms.items():
        parts.setdefault(degree(t), {})[t] = c
    return {d: AlgebraElement(el.src, el.tgt, terms) for d, terms in parts.items()}


@settings(max_examples=50, deadline=None)
@given(chains(3))
def test_associativity_plus(chain):
    a, b, c = chain
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@settings(max_examples=50, deadline=None)
@given(chains(2), ALPHAS)
def test_degree_additivity(chain, alpha):
    a, b = chain
    for (d, pa), (e, pb) in itertools.product(_parts(a).items(), _parts(b).items()):
        assert {degree(t) for t in multiply(pa, pb, alpha).terms} <= {d + e}


@settings(max_examples=50, deadline=None)
@given(chains(1), ALPHAS)
def test_unit_law(chain, alpha):
    (a,) = chain
    assert multiply(idempotent(a.src), a, alpha) == a == multiply(a, idempotent(a.tgt), alpha)


@settings(max_examples=50, deadline=None)
@given(chains(2), st.data())
def test_nested_is_alpha_minus_one(chain, data):
    a, b = chain
    order = data.draw(st.sampled_from(list(cup_orders(weight_to_m(a.tgt)))))
    # the convolution: multiply(a, b, -1, order) folds the same nested movie
    assert multiply_nested(a, b, order) == multiply(a, b, -1)


@settings(max_examples=50, deadline=None)
@given(chains(2), ALPHAS)
def test_default_order_is_the_movie_at_the_canonical_order(chain, alpha):
    a, b = chain
    order = canonical_order(weight_to_m(b.src))
    assert multiply(a, b, alpha) == multiply(a, b, alpha, order=order)
