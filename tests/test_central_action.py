"""H*(Fl) acts centrally on the arc algebra, through the pullbacks of ``cohomology``.

In a convolution algebra H*(Fl) acts by restriction, and its left action,
its right action and multiplication in H*(K_x ∩ K_y) agree.  For each
basis element a of Hom(x, y) and each point i:

    (x_i . 1_x) . a = pb_xy(x_i) . a = a . (x_i . 1_y)

pb_xy(x_i) . a puts X on the circle of a with leftmost point g, where
``intersection_cohomology(x, y)`` sends x_i to s * x_g; it is multiplied
by s at alpha = -1 and by 1 at alpha = +1, and it is 0 if x_i maps to 0
or that circle already carries X.  x_i . 1_x is that element for a = 1_x.
This ties ``cohomology``, the geometric side, to ``arc_algebra``, the
algebraic one: the signs of ``cohomology`` are those of the alpha = -1
product, and the crossed pairing (those signs at +1, none at -1) fails.
"""
import itertools

import pytest

from arcalg.arc_algebra import AlgebraElement, BasisElement, _ends, basis, multiply
from arcalg.cohomology import PullbackMap, intersection_cohomology
from arcalg.diagrams import Shape, enumerate_weights


def _act(x, y, i, a, signed, pullback):
    """pb_xy(x_i) . a for the basis element a of Hom(x, y), with the pullback's
    sign if ``signed``."""
    hom = _ends(x, y)
    image = pullback(x, y)[1].image(i)
    labels = hom.labels[hom.index[a]]
    if not image or labels >> 2 * image[0][0] & 1:
        return AlgebraElement(x, y)
    (g, s), = image
    return AlgebraElement(x, y, {hom.elements[hom.at[labels | 1 << 2 * g]]: s if signed else 1})


def _failures(shape, alpha, signed, pullback=intersection_cohomology) -> tuple[int, int]:
    """(the pairs (a, i) where the left action, the pullback and the right action
    do not all agree, all the pairs) over the shape's basis."""
    bad = total = 0
    for x, y in itertools.product(enumerate_weights(shape), repeat=2):
        for a in basis(x, y):
            el = AlgebraElement(x, y, {a: 1})
            for i in range(1, shape.n + 1):
                left = multiply(_act(x, x, i, BasisElement(x, x, x), signed, pullback), el, alpha)
                mid = _act(x, y, i, a, signed, pullback)
                right = multiply(el, _act(y, y, i, BasisElement(y, y, y), signed, pullback), alpha)
                bad += not left == mid == right
                total += 1
    return bad, total


@pytest.mark.parametrize("shape", [Shape(n, k) for n in range(1, 8) for k in range(n // 2 + 1)],
                         ids=str)
def test_pullbacks_act_centrally(shape):
    for alpha in (1, -1):
        bad, total = _failures(shape, alpha, signed=alpha == -1)
        assert bad == 0 and total > 0, (alpha, bad, total)


@pytest.mark.parametrize("alpha", [1, -1])
def test_the_crossed_pairing_fails(alpha):
    # cohomology's signs at +1, or no signs at -1
    assert _failures(Shape(4, 2), alpha, signed=alpha == 1) == (4, 188)


def test_a_corrupted_pullback_fails():
    # one sign flipped, in the first pullback of two distinct weights
    # that sends some x_i to a generator
    shape = Shape(4, 2)
    x, y, i = next((x, y, i) for x, y in itertools.product(enumerate_weights(shape), repeat=2)
                   if x != y and basis(x, y)
                   for i in range(1, shape.n + 1) if intersection_cohomology(x, y)[1].image(i))

    def corrupted(v, w):
        pres, pb = intersection_cohomology(v, w)
        if (v, w) != (x, y):
            return pres, pb
        images = list(pb.images)
        (g, s), = images[i - 1]
        images[i - 1] = ((g, -s),)
        return pres, PullbackMap(pb.n, tuple(images))

    assert _failures(shape, -1, signed=True, pullback=corrupted)[0] > 0
    assert _failures(shape, -1, signed=True) == (0, 188)
