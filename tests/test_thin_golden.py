"""The library's thin categories and the functors into them, built by
``thin_category`` and ``thin_functor``, and two composition tables built
from ``composable_rows`` (``parallel_pair`` and a power), against
SHA-256 digests of ``label + key`` recorded when each table was written out
by hand: the shared builders must reproduce them exactly."""
import hashlib

from fincat.core import (
    arrow_category,
    builtin,
    builtin_functor,
    chaotic_category,
    discrete_category,
    free_iso_category,
    parallel_pair_category,
    terminal_category,
)
from fincat.corpus import (
    chain_poset,
    chaotic_collapse,
    corpus_categories,
    cospan_category,
    iso_inclusion_into_chaotic,
    span_category,
    to_terminal_functor,
)
from fincat.counterexamples import build_fy
from fincat.funcat import functor_category
from helpers import default_arrow_test_objects

GOLDEN = {
    "terminal": "53784263aa9f90e00a5507f13a0d42d66cc0e35c1a49a3dcfd9eafa59df8b4fe",
    "arrow": "698fd7e7e08ac1fc45d47c4dc603512f6e85c05f1fa9e3398efb8d6c1564c741",
    "free_iso": "0186e1f579879651c4427258102c016c160e7b0d21549afdc9882b22b701dc71",
    "parallel_pair": "cd5e8a9911958631450008937173373155e8f65e8135b96747d5aa24413cb4ee",
    "span": "958d0e00604c2734d96f1a3c94df251dc31a5a055a9fcff050dcd6d71b349f31",
    "cospan": "7aa6bf7133ac1871528a53a86ca53f87110c07d266a10129ab5c5c0e554ce808",
    "chaotic(0)": "5033535cfde7fd84027a21e464417f9d3eefc5383c4a084074de38c9d5ffa7ca",
    "discrete(0)": "9c26cfc1dc6a2e8dbb5a6c0797db98aba0b8cc290af0b32951d88c4b112ed64e",
    "chain(0)": "8319b2702d402e428d65596fbb4551a1988a53dd6677288e662c20833f2984d1",
    "chaotic(1)": "986b47404f82502147b0909307f0ec8e8369f599f23cd26951f44f581a7c7cc8",
    "discrete(1)": "12d4cb563bb25cfa4aca5598c41a735c8a2eccd11eb2330f8eb2089e494e9cdf",
    "chain(1)": "1ef2a9623f08364a46f9ba175f4490adf46f7dad175a499c01a48291c8f8c0b9",
    "chaotic(2)": "4848ee5b4cff0c05f5572d12c836a28d90214c31b8a408fc4be19aa83aa20edd",
    "discrete(2)": "2fb486b3d39f8608377c83697bde51296af80a940ea299d447e4f7057b56a73f",
    "chain(2)": "f2f6a02794900f8810e37fb1584d99d174db126685c2cb6e1406775011bc0423",
    "chaotic(3)": "01fa450d30b86f2873b5bd4acb188a6b7941ac48c7ca0bf37947e5d9e514e560",
    "discrete(3)": "d8c047340742ddefd0256f60ec6d2ba7432036589e5697a7bf1a4ec5559736ad",
    "chain(3)": "ce799b0872cc06897f21e2d49fb176668bd3bafc93f3208fbb1403be14e606af",
    "chaotic(4)": "00d0bc9c9e3980db5e256fd73a61a7545da86ab459688210e49d7e5fa2fb2978",
    "discrete(4)": "729b3bcd3baff534773132f8bddf2fc13977d23922a80bedbc56d567956e107e",
    "chain(4)": "6da1558589927437827f05174411ffb35ccb5db4167ac4ff931b111ac5df9136",
    "build_fy(0,2)": "0461d18d8e0fa4e78e4f34435ee06762958ce2c68dc8e40a7f8a61a955b094ed",
    "build_fy(0,3)": "e0aaf1b6cd3e613cc750db746e893ae5c3cd0ab9fea3170d0b0c2f97a04d4b40",
    "build_fy(0,4)": "a58a447c7a961b270c3a21e46a18d53ccdf51892fab3fff9c311b74c288cc595",
    "build_fy(1,2)": "876fb0568c92e63f8a21a001845e88ef0cc8e72483ff6187cd57c41d9085b9d5",
    "build_fy(1,3)": "1633354a8e0c63de3bbc113da0cd07457b91537af27363aea542aa4d33e02962",
    "build_fy(1,4)": "65f3cd61f51f20c6d44c59c8ef36a4a48eb091afbc2cdd05c79658a189970ee7",
    "build_fy(2,2)": "b8827fdd6d6e82cf4873ee02c33eb78452486315fd1d67bdace406dc9575253e",
    "build_fy(2,3)": "8bd1f12ece4abac75f45b95dc4de2ec9e6859a1b94a883b4cefef18be6876fb0",
    "build_fy(2,4)": "c14b918ea8af1d1acf5fdec281383703b06fd608ac350c9f2c1e9a0bdbcbefd7",
    "build_fy(3,2)": "7fda777f4e894cc3432634fe901463a4fc0d6c8661a642b8aa6e82b15861a8ab",
    "build_fy(3,3)": "8680e61d016143d5f917d4e8f99a6df7011e611c1aa6766aba1755fdbab1b40a",
    "build_fy(3,4)": "b91d013a2e75a52176ea725c1e165337b981431acf393c0f75072e5b15e97357",
    "build_fy(4,2)": "84e54b45e4b22fdb0186754ce38192b2152275a4c067ec6af618c0cec0c6aa23",
    "build_fy(4,3)": "fc21ae7fd9064769f6ff4590e59f3df4663c7716750257dbc83233ae7c020fd3",
    "build_fy(4,4)": "15c86cc074e26f8aa6c6bd488296cb8235621388b34472bfc191bfb431252630",
    "empty_to_terminal": "078552ffa7487afee2473f7adc09b333a6afae8693fe2f525ac2ab03dbb6841c",
    "point_to_iso": "5b71133562789715c1c43449973173a227a5a8c97f28ab38f1adaf75b503f967",
    "discrete_to_arrow": "1ce454b421ff25116fa8b6453498fef3c54dd0b0f1f811fbf247e1185424ed60",
    "collapse_parallel": "137605b08f6be71faeee7d0a7158c9e2b6f488fbd3481bf4b90b9d5aea20a70d",
    "point_to_arrow_0": "75c41a13d8475fc313783fbc4d7df91f0d753e815826f034ef23fb1e61f19cf0",
    "point_to_arrow_1": "4b56329a205ea1ab08972a1611f12064b557822584e87aaaa6a5aed29918dc74",
    "to_terminal_functor": "226b29b93aa9fac5376a5fd05cea87fcd9445873fd21e2cf2fc5804429066f3c",
    "chaotic_collapse": "cc407403df1e102fd9547825a8bf87186ff58e1049bd576064de62e26cedc3a7",
    "iso_inclusion_into_chaotic": "28f6e65345d0cfe0b64c532a979e7ecdc3a133b9d90f52c2117a834d3d77607a",
    "default_arrow_test_objects": "737fde93022ee123f9c1192052bd9c9b48711ae6585cfd207f316a5173edf02b",
    "power free_iso→chaotic(2)": "7990e4c8803db8c39ee3c0cfe8a101154a1ed3e3ffb9ffafb89e10e3fd1b4028",
}


def constructions():
    """(name, values) for each construction, in a fixed order."""
    yield "terminal", [terminal_category()]
    yield "arrow", [arrow_category()]
    yield "free_iso", [free_iso_category()]
    yield "parallel_pair", [parallel_pair_category()]
    yield "span", [span_category()]
    yield "cospan", [cospan_category()]
    for n in range(5):
        yield f"chaotic({n})", [chaotic_category(n)]
        yield f"discrete({n})", [discrete_category(n)]
        yield f"chain({n})", [chain_poset(n)]
    for k in range(5):
        for alpha in (2, 3, 4):
            f = build_fy(k, alpha)
            S, P = f.source.target, f.source.source
            yield f"build_fy({k},{alpha})", [S, P, f.source, f.target, f.level0, f.level1]
    for name in (
        "empty_to_terminal",
        "point_to_iso",
        "discrete_to_arrow",
        "collapse_parallel",
        "point_to_arrow_0",
        "point_to_arrow_1",
    ):
        yield name, [builtin_functor(name)]
    yield "to_terminal_functor", [
        to_terminal_functor(C) for C in corpus_categories() if C.label != "terminal"
    ]
    yield "chaotic_collapse", [chaotic_collapse()]
    yield "iso_inclusion_into_chaotic", [iso_inclusion_into_chaotic()]
    yield "default_arrow_test_objects", list(default_arrow_test_objects())
    power = functor_category(builtin("free_iso"), builtin("chaotic(2)"))
    yield "power free_iso→chaotic(2)", [power]


def digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update((v.label + v.key).encode())
    return h.hexdigest()


def test_thin_constructions_match_their_recorded_digests():
    assert {name: digest(values) for name, values in constructions()} == GOLDEN
