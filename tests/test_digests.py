"""SHA-256 pins of whole JSON reports and of text output, so a refactor
cannot move a byte."""

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
    "analyze:cubic_1440d1": "f0f90170af1eb3a57ba3699b8d42ca2693ee97579b338a7ae619d374488e7cfc",
    "analyze:g_quintic": "de12c85fc91383f388f8ab93d1f5e8a2b701ebdc4e438fc8885cb7e32b8acbc9",
    "analyze:h_quintic": "5a1bfdaf667c32ea47f7a0d469b2f80e44a935c1756670267d9636a19bcc07de",
    "analyze:s5_quintic": "50e50d0734ed4b5d0f05fc72560d6b3c21f2253ee6b8c1821d4a34aa41e297fc",
    "analyze:x3_minus_2": "f5687a47de4ac6a1c14e984c43c3b9863ddb748dcd8f8e4dba1dd902f2e1a975",
    "character:cubic_1440d1": "0177cd5b04ec541ada95308776aab9d381b70d1bdf005535db1860f24d4cb932",
    "character:g_quintic": "ebbf064c3af7be7eb34310cc7f3143f3dae3e24a4ae27cfae6d262a331b9033c",
    "character:h_quintic": "871a267e3c90aa5f343193e8c0def742ceb85e5fab0e9763c09d2af84466ae12",
    "character:s5_quintic": "a36cba519aaa98c4bc8a9306313e8e203e89ffe305643a09518ccbd8a57702d2",
    "character:x3_minus_2": "2ae21dedb52a1a4e07d22c6637e3efa2b0be1cc03ef577c72a148d6b0a491137",
    "classify-primes:cubic_1440d1": "12a47d9ed854b6d3149e4a8c15262c23f628bbfa883f9ee5fd472b8d03da0d53",
    "classify-primes:g_quintic": "057883fe12d415f8ec115d0b168558060896a9d9e4bfeae4b23a8f22a80b8114",
    "classify-primes:h_quintic": "5d4909d1e92e67af8661fc3f26f525c90d335e90f21ad5e65a7cfa5eef0916ac",
    "classify-primes:s5_quintic": "a9e631a38851870326997edf13527ecd8e70dfb51f5e82419c21fccbc2e398df",
    "classify-primes:x3_minus_2": "c6667247a1d6f63ddf82a90fcce5945ec648d32a0a17dfb7d92020b4bde50cc2",
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
    "find-twist:cubic_1440d1": "56155d529f784ea6fe5e44d69ace95f77feb8e0691c1d772bf113b9f62727487",
    "profiled-sampled:x3_minus_2": "f273d357c3ef9875868a90e24b286b4b1d20efad831b78ed15468d0417bac066",
    "verify-paper:": "8cf7a7170e6e5084a4bd81164ef45605fc6f9479f6b98193cd43a8351afc2271",
}


# sha256 of the concatenated standard output and standard error, in text
# format, of each run list below; "profiled-parity" is parity --d 5 with
# profiles, and the unprofiled parity runs print the places they miss.
# verify-paper's standard error holds its wall time, so only its standard
# output is hashed
TEXT_DIGESTS = {
    "analyze:cubic_1440d1": "236215a6844733173b439870c6728a526971fcf4631fdb09bf682e8609530c67",
    "analyze:g_quintic": "568e69f5ae387bc4aea0f4e9fe6d7b7ab0f3603fde87020606e811f33a530f9e",
    "analyze:h_quintic": "91fb1241a2af2bf707f8af025ab5d7f706a65aa784a7cd5ed68abce3296c029b",
    "analyze:s5_quintic": "fa025e8fa6d7d7f2e01b94f531bd9623c9314ff8ea2e0a158adab5692c1f7168",
    "analyze:x3_minus_2": "5e12b9895db83081661cf85412d7ae4b42fe2c82731ce87922e1da1b28b8a39a",
    "character:cubic_1440d1": "a2dbd4f7f3246a77b77af0eb64289ac7cc352bb22a73664d8248193a7941e21c",
    "character:g_quintic": "f8ee6781347c9e03ddd152fc418b0e59bbdc5b40668cb1c5c26423ab7b16b956",
    "character:h_quintic": "e3582cd38076978f5bf7a69b80a60657db74814f1c4576da81f76ffe0375669a",
    "character:s5_quintic": "c9a1861479d82a72aaaf30e1a0d4027bf1daf828484a5cc34ed23f1f54c9f2ef",
    "character:x3_minus_2": "f8ee6781347c9e03ddd152fc418b0e59bbdc5b40668cb1c5c26423ab7b16b956",
    "parity:cubic_1440d1": "58a0c441281003924ff457a9397079503ced6ae2bb75e68afe3bf46221209b8d",
    "parity:g_quintic": "402133e79aea5423a946d91dcb4a49608182196bac8a8c9eecec16e12cb129f3",
    "parity:h_quintic": "e3a27a54697117519da7619d0ff623dc227ac30c5208dc506df00727ebb2536a",
    "parity:s5_quintic": "2b67034da176666df2b31e9b825be4ec83ac4237d25c56c5e2318897a177db48",
    "parity:x3_minus_2": "7e7d9f4f76a24f120d3ae3aa9b65bf75b42c95d5a75150e0e4c2489c65c36550",
    "profiled-parity:x3_minus_2": "4a0405a5f0200013ce5f588a16259ee561dc1155ff11d50d33a9f5f7260ab73f",
    "classify-primes:cubic_1440d1": "26efb39971d0c14750b0e7fc85864d6d588b52bdedd39f998561105e284cfb24",
    "classify-primes:g_quintic": "6057fdc75107699572f3577bd6cec43f302068fe552456b5e4be8108feb1014e",
    "classify-primes:h_quintic": "825841b082f47cc35d5e709c83734569b1222518b21dcbe33d35a5f6f2c125a9",
    "classify-primes:s5_quintic": "c1415154e655b4efbf8c4e77e9c443e736589b7f07b14ff011b534b9452d8652",
    "classify-primes:x3_minus_2": "a06dd84d723004e48df11e15c0a695c84445275cc2b94c18e65bbb613a37727d",
    "find-twist:cubic_1440d1": "8991ab047927b801800a432c82a1748f3bbe4decc5db69accf87931358fe48a8",
    "find-twist:h_quintic": "d1285048d18c0225f287dc0950a62d4812e2356e8cb1ec23653915dfa66de422",
    "find-twist:s5_quintic": "12b340176a4cd4fcfa42a787d3b295cefd782a9c81771efdd14a57766d9d09e6",
    "profiled:x3_minus_2": "be739d819cd912cb28822fe96480d4017be87cb445adab1f9e79ee01cb816b5e",
    "profiled-sampled:x3_minus_2": "168b4f3705000f4ecd1e1a71911ecda35e98a442b7a2d95a27afd9f158af3999",
    "sampled:h_quintic": "f804251631d11500f4d3fd7e7286fdc3f5d537f3c0d86a6d24fd673708766b6d",
    "scan:cubic_1440d1": "f0a4329ccef4000a62c452ee098ead2235ec22c5e94de5a0353d979de3fbe6d8",
    "scan:g_quintic": "c4f6f18f3eec3d7d66e31583a223d526de18bb17563912f4027b82631628e50a",
    "scan:h_quintic": "e797578693586c89b4c44af021d6da02d2b8fde77270ddd86d5f8053ebe56c8a",
    "scan:s5_quintic": "25dd31a2b50643edc68afeb5d5e3ae7b15a4850e431614f6fa0f297efc116616",
    "scan:x3_minus_2": "c4f6f18f3eec3d7d66e31583a223d526de18bb17563912f4027b82631628e50a",
    "verify-paper:": "af9552c00a0f234caf71633c8ef60969027816348eb85f0b9eb7da1bb9048794",
}


def _runs(key, curve, profiles):
    kind, _ = key.split(":")
    if kind == "verify-paper":
        return [["verify-paper"]]
    if kind == "analyze":
        return [["analyze", "--curve", curve]]
    if kind == "profiled-parity":
        return [["parity", "--curve", curve, "--d", "5", "--profiles", profiles]]
    if kind == "classify-primes":  # x3_minus_2 has no prime in class 4
        classify = ["classify-primes", "--curve", curve, "--limit", "3000"]
        return [classify, [*classify, "--class", "1"], [*classify, "--class", "4"]]
    if kind == "find-twist":
        return [["find-twist", "--curve", curve, "--direction", way, "--limit", "20000"]
                for way in ("up", "down")]
    if kind == "profiled-sampled":
        return [["scan", "--curve", curve, "--sample", "400", "--bound", "1000000",
                 "--profiles", profiles]]
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


def _digest(key, fmt, tmp_path, capsys, with_stderr=False):
    """sha256 of what the runs of ``key`` print in the format ``fmt``."""
    profiles = tmp_path / "x3.profiles"
    profiles.write_text(X3_PROFILES)
    curve = str(PAPERCASES / f"{key.split(':')[1]}.curve")
    h = hashlib.sha256()
    for argv in _runs(key, curve, str(profiles)):
        assert main(["--format", fmt, "--cache", str(tmp_path / "c.primecache"), *argv]) == 0
        captured = capsys.readouterr()
        h.update(captured.out.encode())
        if with_stderr:
            h.update(captured.err.encode())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_json_reports_are_byte_identical(key, tmp_path, capsys):
    assert sorted({k.split(":")[1] for k in DIGESTS} - {""}) == sorted(GOLDEN_CURVES)
    assert _digest(key, "json", tmp_path, capsys) == DIGESTS[key]


@pytest.mark.parametrize("key", sorted(TEXT_DIGESTS))
def test_text_output_is_byte_identical(key, tmp_path, capsys):
    with_stderr = key != "verify-paper:"
    assert _digest(key, "text", tmp_path, capsys, with_stderr) == TEXT_DIGESTS[key]
