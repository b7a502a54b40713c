"""Pinned SHA-256 digests of the `arcalg k0`, `arcalg cohomology` and
`arcalg table --format text` outputs.

The digests were recorded before the pullback ranks, kernels and the K0
determinant were read off their structure instead of by elimination;
any change to a K0 entry, to the `det` line, to a presentation, to a
pullback image or to a Poincaré polynomial shows up here.  Each
cohomology digest covers the JSON output of every same-shape pair
(``--a A --b B``) followed by every weight alone (``--a A``), in
canonical order.  The table text digests were recorded before ``glue``
walked the two-slot neighbour lists of ``diagrams._walk``.
"""
import contextlib
import hashlib
import io
import itertools

import pytest

from arcalg.cli import main
from arcalg.diagrams import Shape, enumerate_weights

# (n, k): (text, json, csv) digests of `arcalg k0 --n N --k K`
K0_DIGESTS = {
    (1, 0): ("4bfcbe7e1a5e07dfb651cf30d2eecf8f686e150fdc1aec7757cef69ac591c422",
             "c2fe33bd8bfddc4706a271aaeb1fcc340cbc8edd6e786b7439f23bc50669a85c",
             "289e84d6ced1467c6383e126336c11fe4e5dc4f3fa91f5624eeb77347e2e9104"),
    (2, 0): ("4783a979e34ae7de8040076f3167c4a1586078fd2782eb7af81313757b583701",
             "8debc215ef6cb42cba873771a845cde1d473a10b88d3236599ae54c1f58f0810",
             "9e0d71db0000919770d74e7966d40291d485a1e068c5ec24c538b6dc125a15ca"),
    (2, 1): ("36c55d1aa1f6cc118e785c7c14bf54a8f8f1a81989d4519f27f407e307c46ebf",
             "247977347e97f5f33abd7b3e14f167f260f99bdada488545df63fdbab2bf53ff",
             "5662921433ed21c33c05e1f6a01caed9a40d0f4030a40553fe20a400e3485d4b"),
    (3, 0): ("20c95b4b4386c99753f5a65a2ed2120906285de27d1dad43be027c0c793995d6",
             "57789efe29af8f3b2f5de8081fa82c8df1caecd8f93f67e86e7e1cd72c181bb2",
             "8f5cabe6f9c52d1fe355faac1840fcb856dc80e653d6e70e497b6074f82fdac3"),
    (3, 1): ("c27d762f11f3c39413e52712ea9756f2d8b43d41b0fa4b95b265787e0169e292",
             "0cfb0b9c5ebac87c9c80b4c436604dac028c640f380aa94f71c33050fbcb1ec7",
             "702cfa2a9596bdd81d1c0a7c4a35c3c2ee8794a9877df51b5bd76f185614d68b"),
    (4, 0): ("1c16db9c8bf152927ebe6a4dd7e86d8314e4235c2446a3e9792303636ac8fb7c",
             "1c3dae8f70d923a8b0e1fc4ee83d78846a791c3b529f3f06c51004f88fb2bfa9",
             "1af2b6ca6b75971e8a6446b4c0b3a7ec6932d15f81a45ded610b3eeb22bfcb44"),
    (4, 1): ("158cf021e907d19a1013a49ae51033038abdf05c9f92cdcc8bbba49d36a29edc",
             "2c0e6633152584b0de2c4780d52bc286d2dc5168f78d06443b1ea71cab93bc5e",
             "bb4e335b6e9a2b08d38a3b425c5c7f77b62c151019f14b0d1b1107fa33a88d50"),
    (4, 2): ("0655763e3afd397ff36089e033b0397717e11f91c2b3c676aae8ed316bfbba36",
             "1332579c725efabc1ce995cbff0e5c995292b93fce59121ecbef7c74964e5d88",
             "df747ff3188627630d597bccce98282553f46f5595684fdd8e08a97b7d4fc663"),
    (5, 0): ("78602158d7e4e8665e986b4770225ed877aca26ff3592193ff16760f52ffde89",
             "63a33ecd0f5fb6ec81c87e3ca4c0fa227510633254319879351c9aba58f81d95",
             "940fbda28abe0c0b525dd06f4001100a88b4a14e3e4055be47e6413405e2092e"),
    (5, 1): ("794b961d3a63bc8eefd00b7d076a61f273fc17d6a359fa58cfc6f59624c40bee",
             "7dac1ad9580363db06b6a5b3c036576e3ab94c80dce018dc556f86901a405f86",
             "80c8c8a30f8b00f239fd46742828a11a58668f0dcfcdc7ee971014bf73172c2f"),
    (5, 2): ("e98e90c756be679962bb709b6bb9d141c99c461d5d953aaf4ee0097abbe96fe3",
             "e061df1476d449b34e383db0884520ae56c74acd161b24dcb1ee41ef7f7a2691",
             "ed9db93bfa1657e85e130d97ccef82779acdda31776482cc13473f8759e62d04"),
    (6, 0): ("563a7b7125f69be51aac30713ec926db4e6d504e8fc9f1ac1bcd1da86e4f207f",
             "440f37c03f90247803b1b747bdd78f7add46c83a4a3e68f5401ec31c1a471784",
             "5d44ce30c3adbedaed822097618603dece519ef317613627196deedb4893c114"),
    (6, 1): ("04518c565c7473c7a94422b44043dde9898e32bcbd77ab657637835da2cb38a7",
             "6b4084311526d3fa2df9128fb9d3671d9df2fd590150efbfb0979fe6655415dc",
             "072531ec84690c539de26340833dc30a2a0114a6871728111b5594e3f2ddb5ee"),
    (6, 2): ("e1a7e903c5fac1e3b3683ac901117c0d777bcc5d85f7dbdc75d0d0434118572b",
             "762122012dfe74ba82371e0ab061c1c104439e074e61b7269794f6c84eb4a6fc",
             "9daa444ae7d2a056604e797cafb5e629265cf099ff9b0dbe8866421a79a56412"),
    (6, 3): ("03e4d952278a5f22dbf726edf54b7f30a49aa894ab63add3c4fe2e1d91d90778",
             "d85b75c358610f1b38498ee25d7a2ba6f1d776ca7fc059ff42c55d99a9e15d17",
             "feae7705040ea0ea6acf47115701eb532a9bc260a6e07d7f99d583e80ab1bfe6"),
    (7, 0): ("9310529fab7122e544afb7a6ba4c2c1e2e3eea95ba182d5657893b03830dbb07",
             "04370048ac268b43003f0cbffcc791079571add6e67bd01e2421352b0542e5fc",
             "b12f2d63ba2fe4299ca8507bfd38fb49a1ceb6b55ad6f6913881a52baad3f060"),
    (7, 1): ("1ecb8f8c8766dace00e445aa1852ee777ca42a66dde1e816223e4c5c39f532df",
             "6f1e58f5a2431f5a5a5ed9e39d27cee99eee7020aae53d10004f18dbe1293b5d",
             "fafe8a175479f75e53daa9dbad5e01ae27ea261a8f14e34c517a3590ee1d152c"),
    (7, 2): ("5d75009b585a26a52841ccb2cf0b2228725d99cd2884f700aa5175406c3cae96",
             "8ccd38045994925fd1c6349e4f6eb7128ac840093d5936589a9f4e029aeef2e1",
             "f02999f557ae5d2c2bbba3c1492bd6cf7ed9197b7c8e1b605a1d8c67123e3df0"),
    (7, 3): ("cbd3725c2b959dcedeeaa8bfada6446ae030a425986a25e38a39b3494c00c913",
             "d0f98c9750fe9a0789c3a289d4743facd3b606d665e46fa8b8bb9612640f9258",
             "b50fa845b6552966f2ba07b66de624faa3b94d8700ed32a5abefb9374bd8e4ec"),
    (8, 0): ("e6f14365c54c9b8a604b44041baa6785d687ede5777cbcbb14de3e8bff1a1b7a",
             "a43d9d6d15b8ae4325498dfc0d6f7fbfe510105de17a0c99d841597d6999ab05",
             "f7dfd6bef224d8d32992e5db38503ec678c85329604df216e9108bc8c529cc15"),
    (8, 1): ("c91bc2bf864efbb16ed2afed11bf520bc55adb9b919d5007dc656e0a11b9d0af",
             "e934da829986020216274560e722e9d7df56f8bf1b7c95c0b16dc8c8383e216f",
             "05f0967f2ae6a303c83ed9794fae901f1201d13688429eda4efd662db1952c83"),
    (8, 2): ("d5cf726f150ff528e51a73d354c9fc74655a742356ad224f8bd37c5eb608dc37",
             "d826f35a045102bd000e581df696a6b483c3bf4a1f541cb89c547137f843cdb7",
             "bd433d89d71e336d1911b0f7b5f8e0c0b2e5c7e245594d4e324c8c70c6d01483"),
    (8, 3): ("52bb402db560ee213d770dedaecf137ec0d1bc4260455974711be6b478fd0310",
             "7e2d2bbfe23015404ca41db8a596ab2423f7019229673a2c07959744c0857c6a",
             "992a9d74e9f276eb7e836ea12a2834e068cf0300a5813ee8696202d2c36dfff9"),
    (8, 4): ("b3dd12da81a1c8722dd1585fdbdab7ec3b73d1f8b1ffd90f86d15ab5b94748a9",
             "b991767d02731c65b8d81aa059b0d1c38fa425b75d180d2113466995f157b820",
             "416627b051eae5f088f25c172e60cfedf6afa4904fb7eb02fb5b6a2a999afc48"),
}

# (n, k): (plain, --shifted) digests of `arcalg cohomology --format json`
COHOMOLOGY_DIGESTS = {
    (1, 0): ("658ace7d37c6042a81ce55ae5924447ef42ef1ee3434a6c0d132816e5ff63d1d",
             "658ace7d37c6042a81ce55ae5924447ef42ef1ee3434a6c0d132816e5ff63d1d"),
    (2, 0): ("e9a4940eecf5c26dc8984f56613bf0ecb6c10acf679eee6028d3e083d76d68db",
             "e9a4940eecf5c26dc8984f56613bf0ecb6c10acf679eee6028d3e083d76d68db"),
    (2, 1): ("06fcfd6db6eaa2489c2aa648ee93ac0e2454da0e59e8e99b971681b65f94d131",
             "0314eeee07a7ece7bc722aa8afc06d3a8a37ce935992809cba7cea1c8f4f6f6e"),
    (3, 0): ("d0d9e4516d5347c7178b14b447cd6868a4c75aad58de4b016aa2a2a238be51fb",
             "d0d9e4516d5347c7178b14b447cd6868a4c75aad58de4b016aa2a2a238be51fb"),
    (3, 1): ("56501a88fc4bbcf2ce506a458aae74abdc9e43c2eda3f4011f72813e59cc6697",
             "a334ecda8b101e52f1f6471a9ce2bbac8ed34e5484c629c8553ea20eb4fff3ab"),
    (4, 0): ("af42f9878c30b39ee7560e5b975616efd5fe2bbc9f4868cb111133b700a34eb9",
             "af42f9878c30b39ee7560e5b975616efd5fe2bbc9f4868cb111133b700a34eb9"),
    (4, 1): ("42068094211e5c10c1f1407ea7692fd024b4d567aaefd6d53f181da761c2b403",
             "12e6a9dda5d60937bf10c591af609932a99b1f19d3e0a129f6007f8301c6713d"),
    (4, 2): ("b9f299602c5caefcb0d3e389478ecd6788f48c02590fbcffdcecdfea9505617d",
             "d651f4366a277dbd2e60df795ef2c7ac4f2f6e716a060fdc51aa08480fa26625"),
    (5, 0): ("0ec71bfb2b9fec24361fd3b28cb93c1e97b87770706b5f59a0a9a409c26ad09a",
             "0ec71bfb2b9fec24361fd3b28cb93c1e97b87770706b5f59a0a9a409c26ad09a"),
    (5, 1): ("a9db1ecc02ba5eee8149b4aef73234759e7d17b095b5144bd98f30811272bb27",
             "a80123fd5f1dc4f2589da546b4138f21ec14a637ffd33439eda5cf931eea806f"),
    (5, 2): ("c3809f5ba6b9dfac3dcfe7dcfe3856050b71e21ea5a1c9bf4f8c6db591e66de9",
             "4793c51f0c99b81e6a9b8706f41c8af9932f62e4f3f7df2f6cb2c170042fb456"),
    (6, 0): ("364d56c279714411f5a172e125ee99386f02a4265bc1e0094c07d2c7ec2f3891",
             "364d56c279714411f5a172e125ee99386f02a4265bc1e0094c07d2c7ec2f3891"),
    (6, 1): ("ead3117a0a2f7c25f3edf209af07e397c4cb22d88b2c501026de04dab0703de5",
             "e445c98db3a06455f0b882c28eb0a529708e1be7af1cb168a55e1d5c4ff5ebb1"),
    (6, 2): ("90c1ebf7850866822b0c023e188c287df5451613edc555f0fab2576821a23225",
             "a3396785d4fc39cbed025c11e3c605bff597141b7ce13916c5aa04251dd30af1"),
    (6, 3): ("0bf8994f2f21d4f7a2e0c7f50823dfd444c13242163581c2eac169946cd0a438",
             "d60eabfa59640a0883f3caeabef7f31b5204065d706edb7fae6f2d19a478c70f"),
}

# (n, k): (alpha = +1, alpha = -1) digests of `arcalg table --format text`,
# which renders every glued diagram of the basis with its degree
TABLE_TEXT_DIGESTS = {
    (4, 2): ("93649f0fde7d505de4382d67f935027bf2e66524b8672e6c5c5cc0e92d120af0",
             "6c7886fa6e292333bd227c54aa809cdd0c9f536a16b0a955b2a72a22a5ad6cc2"),
    (5, 2): ("492cb54083104c398e5223b77af1335de910ffc7d15f320a17c3e6f6f178b738",
             "2600b42c91f858aa48bee85f8122709c9cb5550ae171eb77f94ae0b70d50d30e"),
}


def _out(*argv: str) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue().encode()


def _k0_digests(n: int, k: int) -> tuple[str, ...]:
    return tuple(hashlib.sha256(_out("k0", "--n", str(n), "--k", str(k),
                                     "--format", fmt)).hexdigest()
                 for fmt in ("text", "json", "csv"))


def _cohomology_digest(n: int, k: int, shifted: bool) -> str:
    ws = [str(w) for w in enumerate_weights(Shape(n, k))]
    extra = ["--shifted"] if shifted else []
    h = hashlib.sha256()
    for a, b in itertools.product(ws, repeat=2):
        h.update(_out("cohomology", "--a", a, "--b", b, "--format", "json", *extra))
    for a in ws:
        h.update(_out("cohomology", "--a", a, "--format", "json", *extra))
    return h.hexdigest()


@pytest.mark.parametrize("n,k", sorted(K0_DIGESTS))
def test_k0_output_digest(n, k):
    assert _k0_digests(n, k) == K0_DIGESTS[(n, k)]


@pytest.mark.parametrize("n,k", sorted(COHOMOLOGY_DIGESTS))
@pytest.mark.parametrize("shifted", [False, True])
def test_cohomology_output_digest(n, k, shifted):
    assert _cohomology_digest(n, k, shifted) == COHOMOLOGY_DIGESTS[(n, k)][shifted]


@pytest.mark.parametrize("n,k", sorted(TABLE_TEXT_DIGESTS))
@pytest.mark.parametrize("alpha", [1, -1])
def test_table_text_digest(n, k, alpha):
    out = _out("table", "--n", str(n), "--k", str(k), "--alpha", str(alpha),
               "--format", "text")
    assert hashlib.sha256(out).hexdigest() == TABLE_TEXT_DIGESTS[(n, k)][alpha < 0]
