"""Golden stdout for the CLI commands the benchmark digests do not cover,
and for verify, whose benchmark digest tier-1 would otherwise not see.

Records are NamedTuples, and `json.dumps` turns a tuple into a list
without complaint, so a record that leaks into the output unconverted
would change the bytes silently.  Each digest is the sha256 of the
command's stdout.
"""

import hashlib

import pytest

from afftl.cli import main

DIAGRAM = (
    '{"n": 5, "top": [{"side": "T", "pos": 4}, {"side": "T", "pos": 3}, {"side": "T", "pos": 2}, '
    '{"side": "T", "pos": 1}, {"side": "B", "pos": -1}], "bottom": [{"side": "B", "pos": 0}, '
    '{"side": "B", "pos": 3}, {"side": "B", "pos": 2}, {"side": "T", "pos": 10}, '
    '{"side": "B", "pos": 6}], "loops": 0}'
)

GOLDEN = [
    (["cells", "label", "--n", "4", "--word", "1 3 2 4"],
     "e08efc8037a9eb0362913518718a615e0550d9b2856d4c67b0a91c9b79448059"),
    (["enumerate", "--n", "4", "--max-len", "6"],
     "664945030c561cf419a531e25e25d6ebd56ad3861452beb928e28c594e439684"),
    # unlabelled records at odd n; the flag first, so the id names it
    (["enumerate", "--no-labels", "--n", "5", "--max-len", "8"],
     "dbf8834145dde6e639226c9fb6f4b0da3f9ea428333dcefcf57ada847972aac0"),
    (["eval", "--n", "4", "--word", "1 1"],
     "562d6be63e6c9769a348a47f0e682aaa820e7bbd446b49930886dfefd110dfad"),
    (["involution", "--n", "4", "--word", "2 1 3 2"],
     "97736bbeab2efee2adb7af6dfe2d5d36e97c4f3fdaf49c9e1d7deb6552cf8f39"),
    (["afn", "--n", "5", "--word", "1 3 2 4"],
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    (["cells", "census", "--n", "4", "--max-len", "10", "--format", "md"],
     "37af825123e7112e7238d28cb30d2c60f173afed345f290f3e35b9563859fd60"),
    (["straighten", "--diagram", DIAGRAM],
     "5ca8579c7da5bc30f5cfc9bcfd6874fb588fb7ae39398fafee3ef975f2e81cbb"),
]


# Labelled enumeration and census at horizons the benchmark's n = 6 census
# digest does not reach, odd n included.
LABELLED = [
    (["enumerate", "--n", "6", "--max-len", "8"],
     "337a7e16aeefb99ee0f1bef8886810d43c17d0bbfee6d1f4269c937bd87606b4"),
    (["cells", "census", "--n", "7", "--max-len", "9"],
     "19e1460163d19a7d523d4cadf44e4c31cf71fb93ebf0d7f1b278f1f5241c95a2"),
]


# verify's PASS lines, detail texts included: the benchmark's horizon
# (7 / 8, seed 0), horizons where every check sees a different share of
# the elements, and n = 8, L <= 2, whose neighbour-symmetry line reads
# "29 of 47 cores".
VERIFY = [
    (["verify", "--n", "4", "--max-len", "12"],
     "8190f5a8e5d8c87aaf72c63c40581df178db5d1f4f934515e8af2346d81d0777"),
    (["verify", "--n", "5", "--max-len", "8"],
     "3056b03cdabda521ac73c9eb846f6474fe62810eecf19ab75ccd46425d31bc3e"),
    (["verify", "--n", "8", "--max-len", "2"],
     "8942a39b516d1c3b54269ab7ec1d40805d1f864314c9aeb7ac8a1ae1ef2e00bc"),
    (["verify", "--n", "7", "--max-len", "8", "--seed", "0"],
     "3c3b2e9a5a99b25f309ddaa18f28986cdd781377470d5488f141400529d9e708"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a[:2]) for a, _ in GOLDEN])
def test_stdout_digest(capsys, argv, digest):
    check_digest(capsys, argv, digest)


@pytest.mark.parametrize("argv,digest", LABELLED, ids=[" ".join(a) for a, _ in LABELLED])
def test_labelled_stdout_digest(capsys, argv, digest):
    check_digest(capsys, argv, digest)


@pytest.mark.parametrize("argv,digest", VERIFY, ids=[" ".join(a) for a, _ in VERIFY])
def test_verify_stdout_digest(capsys, argv, digest):
    check_digest(capsys, argv, digest)


def check_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out[:300]
