"""File formats and the command-line front end."""

import json
import sys

import pytest

from twistparity.cli import main
from twistparity.errors import ParseError
from twistparity.files import (
    curve_file_text,
    parse_curve_text,
    parse_profiles_text,
    profile_file_text,
)
from twistparity.modular import Place
from twistparity.papercases import GOLDEN_CURVES, curve_x3_minus_2

GOOD_CURVE = """\
# a comment
p = 2
f = [1672, -273, 0, 1]
factor = [19, 1]
factor = [-8, 1]
factor = [-11, 1]
"""

GOOD_PROFILES = """\
place = 2
h[1] = 0
h[5] = 0
h[-1] = 1
h[-5] = unknown
h[2] = 0
h[10] = 0
h[-2] = 0
h[-10] = 0
place = 3
h[1] = 0
h[2] = 0
h[3] = 1
h[6] = 1
"""


def test_curve_file_roundtrip():
    c = parse_curve_text(GOOD_CURVE)
    assert c.degree == 3
    assert len(c.declared_factors) == 3
    again = parse_curve_text(curve_file_text(c, "roundtrip"))
    assert again == c


def test_papercase_files_match_embedded(tmp_path):
    import pathlib

    repo = pathlib.Path(__file__).resolve().parent.parent
    for name, build in GOLDEN_CURVES.items():
        text = (repo / "papercases" / f"{name}.curve").read_text()
        assert parse_curve_text(text) == build()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("f = [1, 0, 1]\n", "missing 'p = 2'"),
        ("p = 2\n", "missing 'f"),
        ("p = 3\nf = [1, 0, 0, 1]\n", "only p = 2"),
        ("p = 2\nf = [1, 0, 1]\n", "odd degree"),
        ("p = 2\nf = [0, 0, 0, 1]\n", "separable"),
        ("p = 2\nf = [1, zz, 0, 1]\n", "bad coefficient"),
        ("p = 2\nf = [2, 0, 0, 1]\nfactor = [1, 1]\n", "do not"),
        ("p = 2\nf = 5\n", "coefficient list"),
        ("p = 2\nq = 1\nf = [2, 0, 0, 1]\n", "unknown key"),
    ],
)
def test_curve_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_curve_text(text)
    assert fragment in str(err.value)


def test_curve_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_curve_text("p = 2\nf = [1, zz, 0, 1]\n")
    assert err.value.line == 2


def test_profile_roundtrip():
    profs = parse_profiles_text(GOOD_PROFILES)
    p2, p3 = Place.finite(2), Place.finite(3)
    assert profs[p2].h(-1) == 1
    assert profs[p2].h(-5) is None
    assert profs[p3].fully_specified()
    again = parse_profiles_text(profile_file_text(profs))
    assert again[p2].table == profs[p2].table
    assert again[p3].table == profs[p3].table


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("h[1] = 0\n", "before any"),
        ("place = 4\n", "not prime"),
        ("place = inf\n", "auto-filled"),
        ("place = 3\nh[4] = 0\n", "not canonical"),
        ("place = 3\nh[1] = 2\n", "must be 0"),
        ("place = 3\nh[2] = -1\n", "nonnegative"),
        ("place = 3\nh[2] = maybe\n", "integer or 'unknown'"),
    ],
)
def test_profile_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_profiles_text(text)
    assert fragment in str(err.value)


@pytest.fixture()
def curve_file(tmp_path):
    path = tmp_path / "c.curve"
    path.write_text(curve_file_text(curve_x3_minus_2()))
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cli_analyze_json(curve_file, capsys):
    rc, out, _ = run_cli(capsys, "--format", "json", "analyze", "--curve", curve_file)
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "analyze"
    assert doc["outputs"]["degree"] == 3
    assert doc["outputs"]["discriminant"] == "-108"
    assert doc["outputs"]["sigma"] == ["inf", "2", "3"]
    assert doc["outputs"]["galois"]["label"] == "Sn_certified"
    assert doc["outputs"]["two_torsion_dim"]["value"] == 0


def test_cli_classify_primes(curve_file, capsys):
    rc, out, _ = run_cli(
        capsys,
        "--format",
        "json",
        "classify-primes",
        "--curve",
        curve_file,
        "--limit",
        "50",
        "--class",
        "0",
    )
    assert rc == 0
    doc = json.loads(out)
    assert [r["l"] for r in doc["outputs"]["primes"]] == [7, 13, 19, 37]


def test_cli_character(curve_file, capsys):
    rc, out, _ = run_cli(
        capsys, "--format", "json", "character", "--d", "73", "--curve", curve_file
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["outputs"]["sigma_trivial"] is True
    assert doc["outputs"]["norm"] == 73
    assert doc["outputs"]["local"]["2"]["behavior"] == "trivial"


def test_cli_parity_with_profiles(curve_file, tmp_path, capsys):
    prof = tmp_path / "p.prof"
    prof.write_text(GOOD_PROFILES)
    rc, out, _ = run_cli(
        capsys,
        "--format",
        "json",
        "parity",
        "--curve",
        curve_file,
        "--d",
        "5",
        "--profiles",
        str(prof),
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["outputs"]["status"] == "exact"
    assert doc["outputs"]["flip"] in (-1, 1)
    assert doc["inputs"]["profiles_provenance"] == "user"


def test_cli_parity_unknown_lists_missing(curve_file, capsys):
    rc, out, _ = run_cli(
        capsys, "--format", "json", "parity", "--curve", curve_file, "--d", "5"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["outputs"]["status"] == "unknown"
    assert doc["outputs"]["missing_places"] == ["2", "3"]


def test_cli_scan_exhaustive_and_restricted(curve_file, capsys):
    rc, out, _ = run_cli(
        capsys, "--format", "json", "scan", "--curve", curve_file, "--max-norm", "20"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["outputs"]["scan"]["mode"] == "sigma_trivial_only"
    assert doc["outputs"]["scan"]["fraction_even"] == "1"


def test_cli_scan_large_max_norm_is_exact(curve_file, capsys):
    rc, out, _ = run_cli(
        capsys, "--format", "json", "scan", "--curve", curve_file, "--max-norm", "200"
    )
    assert rc == 0
    scan = json.loads(out)["outputs"]["scan"]
    assert scan["mode"] == "sigma_trivial_only"
    # generators -1, 2 and the 45 odd primes below 200; their square classes
    # fill all of F_2^6 on Sigma = {inf, 2, 3}, so the kernel has 2^(47-6)
    assert scan["total"] == scan["even_count"] == 2**41
    assert "seed" not in scan


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_cli_scan_max_norm_limited_by_int_str_digits(curve_file, capsys):
    """Exit 3 exactly when the count has more digits than Python prints."""
    default = sys.get_int_max_str_digits()
    # (limit, largest bound whose Sigma-trivial count 2^(k-6) has at most
    # `limit` digits, k-6 there)
    for limit, ok, k in ((4300, 155_203, 14_284), (640, 18_671, 2_126)):
        sys.set_int_max_str_digits(limit)
        try:
            rc, out, _ = run_cli(
                capsys, "--format", "json", "scan", "--curve", curve_file, "--max-norm", str(ok)
            )
            assert rc == 0 and json.loads(out)["outputs"]["scan"]["total"] == 2**k
            rc, out, err = run_cli(capsys, "scan", "--curve", curve_file, "--max-norm", str(ok + 1))
            assert rc == 3 and out == "" and "too long to report" in err
        finally:
            sys.set_int_max_str_digits(default)
    sys.set_int_max_str_digits(0)  # no limit: any bound is reported
    try:
        rc, out, _ = run_cli(capsys, "scan", "--curve", curve_file, "--max-norm", "200000")
        assert rc == 0 and f"characters = {2**17_979}" in out
    finally:
        sys.set_int_max_str_digits(default)


def test_cli_find_twist(curve_file, capsys):
    rc, out, _ = run_cli(
        capsys,
        "--format",
        "json",
        "find-twist",
        "--curve",
        curve_file,
        "--direction",
        "up",
        "--limit",
        "700",
    )
    assert rc == 0
    doc = json.loads(out)
    assert [r["l"] for r in doc["outputs"]["recipes"]] == [433, 457, 601]


def test_cli_usage_and_parse_errors(tmp_path, capsys):
    rc, _, _ = run_cli(capsys, "analyze")  # missing --curve
    assert rc == 1
    bad = tmp_path / "bad.curve"
    bad.write_text("p = 2\nf = [1, 0, 1]\n")
    rc, _, err = run_cli(capsys, "analyze", "--curve", str(bad))
    assert rc == 1 and "odd degree" in err
    rc, _, _ = run_cli(capsys, "analyze", "--curve", str(tmp_path / "absent.curve"))
    assert rc == 1


def test_cli_verify_paper_passes_and_is_deterministic(capsys):
    rc1, out1, _ = run_cli(capsys, "--format", "json", "verify-paper")
    rc2, out2, _ = run_cli(capsys, "--format", "json", "verify-paper")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["outputs"]["all_passed"] is True
    names = [c["name"] for c in doc["outputs"]["checks"]]
    assert "sextic_transformation_identity" in names


def test_cli_verify_paper_text_mentions_quotient(capsys):
    rc, out, _ = run_cli(capsys, "verify-paper")
    assert rc == 0
    assert "PASS" in out
    assert "quotient" in out  # the flagged mismatch is loudly reported


def test_cli_character_without_curve(capsys):
    rc, out, _ = run_cli(capsys, "--format", "json", "character", "--d", "-15")
    assert rc == 0
    doc = json.loads(out)
    assert doc["outputs"]["norm"] == 5
    assert "sigma_trivial" not in doc["outputs"]
    assert set(doc["outputs"]["local"]) == {"inf", "2", "3", "5"}


FULL_PROFILES = GOOD_PROFILES.replace("h[-5] = unknown", "h[-5] = 1")


def test_cli_scan_monte_carlo(curve_file, tmp_path, capsys):
    prof = tmp_path / "p.prof"
    prof.write_text(FULL_PROFILES)
    argv = [
        "--format", "json", "--seed", "11",
        "scan", "--curve", curve_file,
        "--sample", "200", "--bound", "100000", "--profiles", str(prof),
    ]
    rc, out1, _ = run_cli(capsys, *argv)
    assert rc == 0
    doc = json.loads(out1)
    assert doc["outputs"]["scan"]["mode"] == "monte_carlo"
    assert doc["outputs"]["scan"]["total"] == 200
    assert doc["outputs"]["scan"]["seed"] == 11
    rc, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2  # seeded sampling is reproducible


def test_cli_classify_primes_identical_cold_warm_and_poisoned(tmp_path, capsys):
    from twistparity.papercases import curve_s5_quintic

    path = tmp_path / "s5.curve"
    path.write_text(curve_file_text(curve_s5_quintic()))
    cache = tmp_path / "s5.cache"
    argv = ["--format", "json", "--cache", str(cache),
            "classify-primes", "--curve", str(path), "--limit", "2000"]
    rc, cold, _ = run_cli(capsys, *argv)
    assert rc == 0
    filled = cache.read_text()
    rc, warm, _ = run_cli(capsys, *argv)
    assert rc == 0 and warm == cold
    assert cache.read_text() == filled  # the warm run classified nothing anew
    doc = json.loads(cold)
    key, l = doc["inputs"]["curve_hash"], doc["outputs"]["primes"][0]["l"]
    cache.write_text(filled + f"{key} {l} 1,1\n")  # lengths sum to 2 on a quintic
    rc, poisoned, _ = run_cli(capsys, *argv)
    assert rc == 0 and poisoned == cold


def test_cli_threads_flag_removed(curve_file, capsys):
    rc, _, err = run_cli(
        capsys, "--threads=2", "classify-primes", "--curve", curve_file, "--limit", "50"
    )
    assert rc == 1
    assert "unrecognized arguments: --threads" in err


def test_cli_find_twist_emit_json_flag(curve_file, capsys):
    rc, out, _ = run_cli(
        capsys,
        "--format", "json", "find-twist", "--curve", curve_file,
        "--direction", "down", "--limit", "500",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["outputs"]["direction"] == "lower2"
    assert [r["l"] for r in doc["outputs"]["recipes"]] == [433, 457]


def test_cli_find_twist_emit_json_flag_removed(curve_file, capsys):
    rc, _, err = run_cli(
        capsys,
        "find-twist", "--curve", curve_file,
        "--direction", "down", "--limit", "500", "--emit-json",
    )
    assert rc == 1
    assert "unrecognized arguments: --emit-json" in err


def test_cli_analyze_s5_torsion_certified(tmp_path, capsys):
    from twistparity.papercases import curve_s5_quintic

    path = tmp_path / "s5.curve"
    path.write_text(curve_file_text(curve_s5_quintic()))
    rc, out, _ = run_cli(capsys, "--format", "json", "analyze", "--curve", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc["outputs"]["two_torsion_dim"]["value"] == 0
    assert doc["outputs"]["galois"]["label"] == "Sn_certified"
    assert doc["outputs"]["delta_infinity"] == "1"


def test_cache_file_updates_do_not_change_values(curve_file, tmp_path, capsys):
    cache = str(tmp_path / "x.cache")
    rc1, out1, _ = run_cli(
        capsys, "--format", "json", "--cache", cache,
        "classify-primes", "--curve", curve_file, "--limit", "300",
    )
    rc2, out2, _ = run_cli(
        capsys, "--format", "json", "--cache", cache,
        "classify-primes", "--curve", curve_file, "--limit", "300",
    )
    assert rc1 == rc2 == 0
    assert out1 == out2
