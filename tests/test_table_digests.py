"""Pinned SHA-256 digests of every structure table with n <= 6.

The digests were recorded from the reference movie engine (now in
``oracles.py``) before the movie was compiled per weight triple; any
change to a structure constant, to the basis order or to the JSON layout
shows up here.  The nested TQFT product (``multiply_nested``) agrees
with alpha = -1 for n <= 6, so its table, assembled here from the
alpha = -1 movie rows of each weight triple at the canonical cup order,
shares the alpha = -1 digest.
"""
import hashlib

import pytest

from arcalg.arc_algebra import _triple_rows, canonical_order, clear_caches, structure_table
from arcalg.diagrams import Shape, weight_to_m
from oracles import rows_table

# (n, k): (alpha = +1 digest, alpha = -1 digest)
DIGESTS = {
    (1, 0): ("e8988f658bc01797c95cb9a99385e59ea41ffbf1d7ff06741e4b82dfacb191c2",
             "f8619a0da0e0da96dd4f8b31ce65c7ebec00cca97b0a34bedbb7612d03e7d965"),
    (2, 0): ("0ae60a679977e177a7d49dc8a99db0f9ae84a335d035d4a0c0d16b53c35bc99a",
             "09bf17a80c27660c9dd1c57bf146fc813189b2b47e0e03559eb9fd6cdfb262f4"),
    (2, 1): ("1aa9e05d45e05c6f032f15b108c65e113417e7cef487d4f773f77a1c8ad7a83e",
             "f5e876542d4474e068398405a40bfa9bc227f4542453cc92894580ff5117d9f9"),
    (3, 0): ("c47dd261efaace5e531b5b678bfff00234a66f02594ec97777389f18bfa25cd5",
             "603beef09387f011c11a833dae19a1703d28435097b6edb7c5e83f96d4f5ff47"),
    (3, 1): ("7a861861ae4d744ed4232f6a2f42f02b78aeb63f6df23fe511bf186e09f8ce33",
             "794303f283ccbb8bf667b171e0fd2af9e221c396081fdd14c28fb105cd10ea79"),
    (4, 0): ("57e938a1f80b5f0f26eb1cb0f3900891a4c229b705662d6ca63f267bf5d989c6",
             "3acdbb099370d50bf1a29221304df1db7f670cb354e15f939db9dd284b9a33ad"),
    (4, 1): ("e973936d2c1b95d514a17daa7f16ce6bcfcc2bee67451ae214e6aca99ce58514",
             "98e4d6d477202718ae7ba84331d944bd63ca6cf194ba7fb7425fff1732c222fc"),
    (4, 2): ("bf9cc6ef1fff8b1b32290f31dc44e221a3b3c882b30bd220e233586ae016bbf8",
             "9a06f0a936a003cc8ed9f44e7298a1ed1c250b5759cb30c8cd4a185a3142f427"),
    (5, 0): ("d58b0c20b9fbdcb57cf456d49cc42ea3daabaeb3ba855d695c45f99d2d9f5109",
             "7dd1ffdc76a7b1ed6f9fb5d356aeb7cf415d83aa18f62fee3215eca5625065a8"),
    (5, 1): ("060b3d26c9c63dc0618173fc1e3aff8dcb9243418ac05702ee97c2ec5629dda2",
             "739962d87a14cbcb1bfd87121aae687ab69f4d0cf7dafbcc40f242f7dd916d03"),
    (5, 2): ("0128d2916898708e12009150ee6d6d76d8c97e8872480a69f54b12496fd0e467",
             "5b4763192229ca9cd8fc23690651b8d247a1934b7d7d9c3febcc24623c5f609b"),
    (6, 0): ("7289276cef9b6e97c23ae73b6d45b5ebd2d7c8db7e4edb220cf9252f1f88840f",
             "bd39700adcfce90aca4c1b126fe627c4561ac815902e11a3936e4f2e30dfc225"),
    (6, 1): ("7d91e9b06e74450ac09df6329cabba47663318f706966e849a6eca47f2c09a55",
             "6a1df0dbd5ec800a420f2c2d499da597ef80c6f1f63e5db5192a431f532604d9"),
    (6, 2): ("671a046e864f72d6a48469840db14e6042ad8baf64dd933cd302c884187479f5",
             "3433319e306b0bd87418b85f7e4fcc2a2d7aaabdb1f2e557673246046dde43f1"),
    (6, 3): ("cf221291c39a5ed9f99bad15bcd4714dedea96db841b1791b14201747d5f1928",
             "7a57a7bbe1440c37cd77055daf7804f3a16ed144b84add4a82ee17fd6944d6ae"),
}


def _nested_table(shape: Shape, alpha: int):
    def rows(x, y, z, index):  # the nested movie, at the canonical cup order
        return _triple_rows(x, y, z, -1, canonical_order(weight_to_m(y)), index)

    return rows_table(shape, alpha, rows)


def _digest(table) -> str:
    return hashlib.sha256(table.to_json().encode()).hexdigest()


@pytest.mark.parametrize("n,k", sorted(DIGESTS))
@pytest.mark.parametrize("label,kwargs,which", [
    ("plus", {"alpha": 1}, 0),
    ("minus", {"alpha": -1}, 1),
    ("nested", {"alpha": -1}, 1),
])
def test_table_digest(n, k, label, kwargs, which):
    clear_caches()
    build = _nested_table if label == "nested" else structure_table
    assert _digest(build(Shape(n, k), **kwargs)) == DIGESTS[(n, k)][which], label
