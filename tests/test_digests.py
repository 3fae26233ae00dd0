"""SHA-256 pins of whole JSON reports, so a refactor cannot move a byte."""

import hashlib
import pathlib

import pytest

from twistparity.cli import main
from twistparity.papercases import GOLDEN_CURVES

PAPERCASES = pathlib.Path(__file__).resolve().parent.parent / "papercases"
DS = (-23, -15, 5, 73, -3003)

# every class of Q_2 and Q_3 carries an h, so all omega values are known
X3_PROFILES = """\
place = 2
h[1] = 0
h[5] = 1
h[-1] = 0
h[-5] = 1
h[2] = 0
h[10] = 1
h[-2] = 1
h[-10] = 0
place = 3
h[1] = 0
h[2] = 1
h[3] = 0
h[6] = 1
"""

# sha256 of the concatenated JSON reports of each run list below
DIGESTS = {
    "character:cubic_1440d1": "0177cd5b04ec541ada95308776aab9d381b70d1bdf005535db1860f24d4cb932",
    "character:g_quintic": "ebbf064c3af7be7eb34310cc7f3143f3dae3e24a4ae27cfae6d262a331b9033c",
    "character:h_quintic": "871a267e3c90aa5f343193e8c0def742ceb85e5fab0e9763c09d2af84466ae12",
    "character:s5_quintic": "a36cba519aaa98c4bc8a9306313e8e203e89ffe305643a09518ccbd8a57702d2",
    "character:x3_minus_2": "2ae21dedb52a1a4e07d22c6637e3efa2b0be1cc03ef577c72a148d6b0a491137",
    "parity:cubic_1440d1": "05579dc7721ea73d3e0621582e8b0a36d67c7e074e94c03042089b3fac0e174c",
    "parity:g_quintic": "979e05e752d54facd3cb4f6f20946de351f3b50635f9c80730b47aee9e68236e",
    "parity:h_quintic": "ec94cafc591bd986161c6135e7e0bf0f77949583f822be559b52fe28f16c2bbb",
    "parity:s5_quintic": "f10c2bbc6873cb4932ed729865543b0351b6a309104550bdd5cc10a3a36b31ef",
    "parity:x3_minus_2": "bbac86fb6c3f1296485e5d32b091b729c54def91b6c37a709a64e5b5df7e2a95",
    "scan:cubic_1440d1": "0ab089d45e703f1bb5fcadb6c0766649205206139c1a1d125d2ec1262bab0f70",
    "scan:g_quintic": "9ed2112b37045bf315f88b44b529703c81769b4ecb7130c4787ecb53397f5d8b",
    "scan:h_quintic": "9c7ef7123dac6630e9e20ecf51049422b8f4d675a66bb17cb90c06be2133d8a8",
    "scan:s5_quintic": "a82fd657e9635ef5d98b4ca2d5b8ccfdd5e5c6feaa47c31c1dacab06ffbd6f4c",
    "scan:x3_minus_2": "716e939167bb7ac881c30c88cba125b90efd5a1e3618572d866a5d252c4bb097",
    "profiled:x3_minus_2": "7652d296b7b10f2fd2a4b62e39e8a6de778b381f28df2f14fb6ffbe24c148d0d",
    "sampled:h_quintic": "c64ac303a60fad0c0a15e83413c9502ab95eef493ab981d01925eae392e39b40",
}


def _runs(key, curve, profiles):
    kind, _ = key.split(":")
    if kind in ("character", "parity"):
        return [[kind, "--curve", curve, "--d", str(d)] for d in DS]
    if kind == "scan":
        return [["scan", "--curve", curve, "--max-norm", "50"]]
    if kind == "sampled":  # no profiles: restricted to the Sigma-trivial twists
        sample = ["scan", "--curve", curve, "--sample", "40", "--bound", "1000000"]
        return [["--seed", seed, *sample] for seed in ("0", "3")]
    return [
        ["parity", "--curve", curve, "--d", "5", "--profiles", profiles],
        ["scan", "--curve", curve, "--max-norm", "50", "--profiles", profiles],
    ]


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_json_reports_are_byte_identical(key, tmp_path, capsys):
    assert sorted({k.split(":")[1] for k in DIGESTS}) == sorted(GOLDEN_CURVES)
    profiles = tmp_path / "x3.profiles"
    profiles.write_text(X3_PROFILES)
    curve = str(PAPERCASES / f"{key.split(':')[1]}.curve")
    h = hashlib.sha256()
    for argv in _runs(key, curve, str(profiles)):
        assert main(["--format", "json", "--cache", str(tmp_path / "c.primecache"), *argv]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == DIGESTS[key]
