"""File formats and the command-line front end."""

import contextlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
import types

import pytest

from twistparity import modular, parity, ratpoly
from twistparity.cli import main
from twistparity.curves import curve_hash
from twistparity.errors import ParseError
from twistparity.files import parse_curve_text, parse_profiles_text
from twistparity.frobenius import sigma_set
from twistparity.modular import local_classes
from twistparity.papercases import GOLDEN_CURVES
from twistparity.primecache import PrimeCache

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


def test_curve_file_parse():
    c = parse_curve_text(GOOD_CURVE)
    assert c.degree == 3
    assert len(c.declared_factors) == 3


def test_papercase_files_match_embedded(tmp_path):
    import pathlib

    repo = pathlib.Path(__file__).resolve().parent.parent
    for name, build in GOLDEN_CURVES.items():
        parsed = parse_curve_text((repo / "papercases" / f"{name}.curve").read_text())
        embedded = build()
        assert curve_hash(parsed) == curve_hash(embedded)
        assert [g.coeffs for g in parsed.declared_factors] == [g.coeffs for g in embedded.declared_factors]


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


def test_profile_file_parse():
    profs = parse_profiles_text(GOOD_PROFILES)
    p2, p3 = 2, 3
    # h tables in local_classes order: (1, 5, -1, -5, 2, 10, -2, -10) and (1, 2, 3, 6)
    assert profs == {p2: (0, 0, 1, None, 0, 0, 0, 0), p3: (0, 0, 1, 1)}


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
        ("place = 3\nh[2] = 1\nplace = 3\nh[3] = 0\n", "duplicate place 3"),
        ("place = 3\nh[2] = 1\nh[2] = 0\n", "duplicate h[2]"),
    ],
)
def test_profile_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_profiles_text(text)
    assert fragment in str(err.value)


def test_profile_parse_error_names_the_line_of_a_nonzero_trivial_h():
    with pytest.raises(ParseError) as err:
        parse_profiles_text("place = 3\nh[1] = 1\nh[2] = 0\nplace = 5\nh[2] = 1\n")
    assert err.value.line == 2


@pytest.fixture()
def curve_file(tmp_path):
    path = tmp_path / "c.curve"
    path.write_text("p = 2\nf = [-2, 0, 0, 1]\n")
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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_value_too_long_to_print_exits_3(tmp_path, capsys, fmt):
    """disc(x^3 + 2^8000) = -27 * 2^16000 has 4,818 digits, over the default 4,300."""
    path = tmp_path / "big.curve"
    path.write_text(f"p = 2\nf = [{2**8000}, 0, 0, 1]\n")
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rc, out, err = run_cli(
            capsys, "--format", fmt, "--cache", str(tmp_path / "c"), "analyze", "--curve", str(path)
        )
    finally:
        sys.set_int_max_str_digits(default)
    assert rc == 3 and out == ""
    assert err.startswith("resource limit:") and "too long to report" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_cli_coefficient_too_long_to_read_exits_3(tmp_path, capsys):
    """A 5,001-digit coefficient is a resource limit, named by line and length, not echoed."""
    path = tmp_path / "big.curve"
    path.write_text("p = 2\nf = [1" + "0" * 5000 + ", 0, 0, 1]\n")
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rc, out, err = run_cli(
            capsys, "--cache", str(tmp_path / "c"), "analyze", "--curve", str(path)
        )
    finally:
        sys.set_int_max_str_digits(default)
    assert rc == 3 and out == ""
    assert err.startswith("resource limit: line 2:") and "5001 digits" in err
    assert len(err) < 200


def test_cli_malformed_long_coefficient_echo_is_bounded(tmp_path, capsys):
    """A 4,001-character token under the digit limit is shown by its ends and its length."""
    path = tmp_path / "bad.curve"
    path.write_text("p = 2\nf = [" + "1" * 4000 + "z, 0, 0, 1]\n")
    rc, out, err = run_cli(capsys, "--cache", str(tmp_path / "c"), "analyze", "--curve", str(path))
    assert rc == 1 and out == ""
    assert err.startswith("error: line 2: bad coefficient") and "(4001 characters)" in err
    assert err.rstrip().endswith("1z' (4001 characters)")
    assert len(err) < 200


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


def test_cli_restricted_scan_sample_makes_no_draws(curve_file, monkeypatch, capsys):
    """Without profiles every kept twist flips +1: the counts are --sample, nothing is drawn."""

    def no_draw(*args, **kwargs):
        raise AssertionError("a restricted sampled scan drew a twist")

    monkeypatch.setattr(parity, "is_squarefree", no_draw)  # what a draw would test
    monkeypatch.setattr(parity, "random", types.SimpleNamespace(Random=no_draw))
    rc, out, _ = run_cli(
        capsys, "--format", "json", "scan", "--curve", curve_file,
        "--sample", "5000", "--bound", str(10**40),
    )
    assert rc == 0
    scan = json.loads(out)["outputs"]["scan"]
    assert scan["mode"] == "monte_carlo_sigma_trivial"
    assert scan["total"] == scan["even_count"] == 5000
    assert (scan["seed"], scan["bound"]) == (0, 10**40)


def _watch_factor_integer(monkeypatch, check):
    """Call check(m) before each factor_integer(m), in every module that binds it."""
    original = modular.factor_integer

    def watched(m):
        check(m)
        return original(m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("twistparity") and getattr(mod, "factor_integer", None) is original:
            monkeypatch.setattr(mod, "factor_integer", watched)


@pytest.mark.parametrize("command, times", [("parity", 0), ("character", 1)])
def test_cli_factors_the_twist_few_times(curve_file, monkeypatch, capsys, command, times):
    """parity reads --d only through its square classes and never factors it;
    character factors it once, for the kernel, the places and the norm."""
    n = 9 * 1000003 * 1000033  # the kernel's primes are past trial division
    calls = []
    _watch_factor_integer(monkeypatch, calls.append)
    rc, out, _ = run_cli(capsys, "--format", "json", command, "--curve", curve_file, "--d", str(n))
    assert rc == 0
    doc = json.loads(out)
    if command == "character":
        assert doc["inputs"]["squarefree_kernel"] == n // 9
        assert doc["outputs"]["norm"] == 1000033
    twist_calls = [m for m in calls if abs(m) in (n, n // 9)]
    assert len(twist_calls) == times, twist_calls


def test_cli_parity_of_a_233_digit_twist_factors_nothing(monkeypatch, capsys):
    """parity answers for the 233-digit d = 10^232 + 7 from its square classes, unfactored."""

    def refuse_large(m):
        if abs(m) > 10**100:
            raise AssertionError(f"factor_integer called on a {len(str(abs(m)))}-digit number")

    _watch_factor_integer(monkeypatch, refuse_large)
    curve = str(PAPERCASES / "x3_minus_2.curve")
    rc, out, _ = run_cli(capsys, "--format", "json", "parity", "--curve", curve, "--d", str(10**232 + 7))
    assert rc == 0
    doc = json.loads(out)
    assert doc["inputs"]["d"] == 10**232 + 7
    # d = 7 mod 8 and d = 2 mod 3: nontrivial at 2 and 3, unknown there without profiles
    assert doc["outputs"]["status"] == "unknown"
    assert doc["outputs"]["missing_places"] == ["2", "3"]
    assert doc["outputs"]["contributions"] == {
        "inf": {"class": 1, "omega": 1},
        "2": {"class": -1, "omega": None},
        "3": {"class": 2, "omega": None},
    }


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_cli_scan_sample_below_one_is_a_usage_error(curve_file, capsys, sample):
    rc, out, err = run_cli(
        capsys, "scan", "--curve", curve_file, "--sample", sample, "--bound", "100"
    )
    assert rc == 1 and out == ""
    assert "argument --sample: must be at least 1" in err


@pytest.mark.parametrize("options, message", [
    ([], "one of the arguments --max-norm --sample is required"),
    (["--max-norm", "20", "--sample", "5", "--bound", "100"],
     "argument --sample: not allowed with argument --max-norm"),
    (["--sample", "5"], "error: --sample needs --bound >= 2"),
    (["--sample", "5", "--bound", "1"], "error: --sample needs --bound >= 2"),
    (["--max-norm", "1"], "error: --max-norm must be >= 2"),
    (["--max-norm", "20", "--bound", "100"], "error: --bound is read only by --sample"),
    (["--max-norm", "20", "--r1-parity", "3"],
     "argument --r1-parity: invalid choice: 3 (choose from 0, 1)"),
])
def test_cli_scan_option_errors_name_the_options(curve_file, capsys, options, message):
    rc, out, err = run_cli(capsys, "scan", "--curve", curve_file, *options)
    assert rc == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("command", ["parity", "character"])
def test_cli_zero_twist_is_a_usage_error(curve_file, capsys, command):
    rc, out, err = run_cli(capsys, command, "--curve", curve_file, "--d", "0")
    assert rc == 1 and out == ""
    assert "argument --d: must be nonzero" in err


def test_cli_classify_primes_identical_cold_warm_and_poisoned(tmp_path, capsys):
    path = tmp_path / "s5.curve"
    path.write_text("p = 2\nf = [-1, -1, 0, 0, 0, 1]\n")
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


def test_cli_find_twist_identical_cold_and_warm(tmp_path, capsys):
    cache = tmp_path / "1440d1.cache"
    path = str(PAPERCASES / "cubic_1440d1.curve")
    runs = {}
    for state in ("cold", "warm"):
        for way in ("up", "down"):
            rc, out, err = run_cli(
                capsys, "--format", "json", "--cache", str(cache), "find-twist",
                "--curve", path, "--direction", way, "--limit", "300000",
            )
            assert (rc, err) == (0, "")
            runs[state, way] = out
        runs[state, "cache"] = cache.read_bytes()
    for way in ("up", "down"):
        assert runs["warm", way] == runs["cold", way]
        assert len(json.loads(runs["cold", way])["outputs"]["recipes"]) > 100
    assert runs["warm", "cache"] == runs["cold", "cache"]  # the warm runs wrote nothing


# runs the command line in its argv with every cache append of a prime above
# 50,000 failing as a full disk does
_FULL_DISK = """\
import sys
from twistparity import cli, primecache

real_put = primecache.PrimeCache.put


def put(self, l, lengths):
    if l > 50_000:
        raise OSError(28, "No space left on device")
    return real_put(self, l, lengths)


primecache.PrimeCache.put = put
sys.exit(cli.main(sys.argv[1:]))
"""


def test_cli_scan_failing_part_way_prints_a_prefix_and_closes_its_cache(tmp_path):
    """A cold scan whose cache appends fail from its second block of primes
    on: exit 1 with the error on stderr, the batches written before it on
    stdout, and the append handle closed, under ResourceWarning as an error."""
    path = str(PAPERCASES / "cubic_1440d1.curve")
    env = dict(os.environ, PYTHONPATH=str(PAPERCASES.parent / "src"))
    full = tmp_path / "full.cache"
    argv = ["--format", "json", "classify-primes", "--curve", path, "--limit", "100000"]
    done = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-c", _FULL_DISK,
         "--cache", str(tmp_path / "c"), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1
    assert done.stderr == "error: [Errno 28] No space left on device\n"
    whole = subprocess.run(
        [sys.executable, "-m", "twistparity.cli", "--cache", str(full), *argv],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    assert 0 < len(done.stdout) < len(whole) and whole.startswith(done.stdout)
    written = [int(l) for l in re.findall(r'"l": (\d+)', done.stdout)]
    assert written and max(written) < 50_000  # the first block, whose appends all succeeded


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_scan_into_a_closed_pipe_ends_quietly(fmt, tmp_path):
    """A reader that takes three lines of an endless scan and closes the
    pipe ends the command with exit 1, nothing on stderr and the cache cut
    after a whole record, under ResourceWarning as an error."""
    cache = tmp_path / "c.cache"
    env = dict(os.environ, PYTHONPATH=str(PAPERCASES.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-W", "error::ResourceWarning", "-m", "twistparity.cli",
         "--format", fmt, "--cache", str(cache), "classify-primes",
         "--curve", str(PAPERCASES / "x3_minus_2.curve"), "--limit", str(10**14)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        for _ in range(3):
            assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert cache.read_bytes().endswith(b"\n")


def _warm_scan_peak(tmp_path, limit, fmt="json"):
    """(peak traced bytes, cache records) of a warm classify-primes to limit
    on 1440D1 in the format fmt, in this process, after a cold one filled
    its cache."""
    cache = tmp_path / f"{fmt}.cache"  # the larger limit reuses the smaller one's records
    argv = ["--format", fmt, "--cache", str(cache), "classify-primes",
            "--curve", str(PAPERCASES / "cubic_1440d1.curve"), "--limit", str(limit)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak, len(cache.read_bytes().splitlines())


def test_warm_scan_memory_grows_by_its_cache_records_not_its_report(tmp_path):
    """From a limit of 10^5 to 4*10^5, both past the first block of 4,096
    primes, a warm scan holds at most 32 more bytes per cached record: the
    records reach stdout as they are read, and the cache holds each in 12
    bytes of arrays."""
    small, big = _warm_scan_peak(tmp_path, 100_000), _warm_scan_peak(tmp_path, 400_000)
    assert big[1] - small[1] > 24_000
    assert (big[0] - small[0]) / (big[1] - small[1]) < 32, (small, big)


def test_warm_text_scan_memory_grows_by_its_cache_records_not_its_lines(tmp_path):
    """As in JSON, a warm text-mode scan from a limit of 10^5 to 4*10^5
    holds at most 32 more bytes per cached record: its lines are written
    in batches as the records are read."""
    small = _warm_scan_peak(tmp_path, 100_000, "text")
    big = _warm_scan_peak(tmp_path, 400_000, "text")
    assert big[1] - small[1] > 24_000
    assert (big[0] - small[0]) / (big[1] - small[1]) < 32, (small, big)


def test_one_cache_file_serves_two_curves(tmp_path, capsys):
    """classify-primes on cubic_1440d1 and x3_minus_2 through one --cache
    reports what each does with a cache of its own; a second run of both
    appends nothing; a junk line after one curve's records cuts the file
    there for the other curve's command; and neither curve reads the
    other's records."""
    names = ("cubic_1440d1", "x3_minus_2")

    def run(name, cache):
        rc, out, err = run_cli(
            capsys, "--format", "json", "--cache", str(cache), "classify-primes",
            "--curve", str(PAPERCASES / f"{name}.curve"), "--limit", "3000",
        )
        assert (rc, err) == (0, "")
        return out

    own = {name: tmp_path / f"{name}.cache" for name in names}
    alone = {name: run(name, own[name]) for name in names}
    shared = tmp_path / "shared.cache"
    assert {name: run(name, shared) for name in names} == alone
    filled = shared.read_bytes()
    assert filled == own["cubic_1440d1"].read_bytes() + own["x3_minus_2"].read_bytes()
    assert {name: run(name, shared) for name in names} == alone
    assert shared.read_bytes() == filled

    shared.write_bytes(own["cubic_1440d1"].read_bytes() + b"junk\n")
    assert run("x3_minus_2", shared) == alone["x3_minus_2"]
    assert shared.read_bytes() == filled

    records = own["cubic_1440d1"].read_bytes().splitlines()
    other = PrimeCache(str(own["cubic_1440d1"]), curve_hash(GOLDEN_CURVES["x3_minus_2"]()))
    assert len(records) > 300
    assert all(other.get(int(line.split()[1])) is None for line in records)


def test_analyze_loads_a_cache_only_to_sample_an_irreducible_f(tmp_path, capsys, monkeypatch):
    """With a cache filled by classify-primes, analyze on a curve with
    declared factors, whose Galois label needs no sample, loads no cache;
    on s5_quintic it loads the cache once."""
    real, loads = PrimeCache._load, []

    def load(self):
        loads.append(self.path)
        return real(self)

    for name, want in [("h_quintic", 0), ("g_quintic", 0), ("cubic_1440d1", 0), ("s5_quintic", 1)]:
        cache, curve = str(tmp_path / f"{name}.cache"), str(PAPERCASES / f"{name}.curve")
        assert run_cli(capsys, "--cache", cache, "classify-primes", "--curve", curve, "--limit", "1000")[0] == 0
        monkeypatch.setattr(PrimeCache, "_load", load)
        loads.clear()
        assert run_cli(capsys, "--cache", cache, "analyze", "--curve", curve)[0] == 0
        monkeypatch.undo()
        assert loads == [cache] * want, name


def test_cli_classify_primes_keeps_the_valid_prefix_of_a_cache_that_is_not_utf8(
    tmp_path, capsys
):
    path = tmp_path / "s5.curve"
    path.write_text("p = 2\nf = [-1, -1, 0, 0, 0, 1]\n")
    cache = tmp_path / "s5.cache"
    argv = ["--cache", str(cache), "classify-primes", "--curve", str(path), "--limit", "200"]
    rc, cold, _ = run_cli(capsys, *argv)
    assert rc == 0
    first = cache.read_bytes().splitlines(keepends=True)[0]
    cache.write_bytes(first + b"\xff\xfe")
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (0, cold, "")
    assert cache.read_bytes().startswith(first)
    cache.read_bytes().decode("utf-8")  # the bad bytes were truncated away


@pytest.mark.parametrize("command", ["analyze", "parity"])
def test_cli_input_file_that_is_not_utf8_is_a_parse_error(curve_file, tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    if command == "analyze":
        bad.write_bytes(b"p = 2  # caf\xe9\nf = [-2, 0, 0, 1]\n")
        argv = ["analyze", "--curve", str(bad)]
    else:
        bad.write_bytes(b"# \xff\nplace = 3\nh[2] = 1\n")
        argv = ["parity", "--curve", curve_file, "--d", "5", "--profiles", str(bad)]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and "not UTF-8" in err and len(err.splitlines()) == 1


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
    path = tmp_path / "s5.curve"
    path.write_text("p = 2\nf = [-1, -1, 0, 0, 0, 1]\n")
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


PAPERCASES = pathlib.Path(__file__).resolve().parent.parent / "papercases"


def _profiles_text(curve, rng, drop):
    """A random h table at every finite place of Sigma, in file form; with
    ``drop`` the last class of the last place has no line, so it is unknown."""
    lines = []
    for place in sigma_set(curve)[1:]:
        lines.append(f"place = {place}")
        lines += [f"h[{k}] = {0 if k == 1 else rng.randint(0, 1)}" for k in local_classes(place)]
    return "\n".join(lines[:-1] if drop else lines) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_CURVES))
def test_cli_builds_each_omega_row_once_per_command(name, tmp_path, monkeypatch, capsys):
    """Every parity-layer command builds the omega tables once: one
    ``_omega_row`` call per place of Sigma."""
    curve = GOLDEN_CURVES[name]()
    prof = tmp_path / "full.prof"
    prof.write_text(_profiles_text(curve, random.Random(name), drop=False))
    calls = []
    build = parity._omega_row

    def counting(*args):
        calls.append(args[1])
        return build(*args)

    monkeypatch.setattr(parity, "_omega_row", counting)
    path = str(PAPERCASES / f"{name}.curve")
    profiled = ["--profiles", str(prof)]
    commands = [
        ["--cache", str(tmp_path / "c.cache"), "analyze", "--curve", path],
        ["parity", "--curve", path, "--d", "-15"],
        ["parity", "--curve", path, "--d", "-15", *profiled],
        ["scan", "--curve", path, "--max-norm", "20"],
        ["scan", "--curve", path, "--max-norm", "20", *profiled],
        ["scan", "--curve", path, "--sample", "20", "--bound", "1000"],
        ["scan", "--curve", path, "--sample", "20", "--bound", "1000", *profiled],
    ]
    for argv in commands:
        calls.clear()
        rc, _, _ = run_cli(capsys, "--format", "json", *argv)
        assert rc == 0
        assert sorted(calls) == list(sigma_set(curve)), argv


@pytest.mark.parametrize(
    "text, command",
    [
        ("place = 5\nh[1] = 0\n", ["parity", "--d", "5"]),
        ("place = 3\nh[2] = 1\nplace = 5\nh[1] = 0\n", ["parity", "--d", "5"]),
        ("place = 5\nh[1] = 0\n", ["scan", "--max-norm", "20"]),
        ("place = 5\nh[1] = 0\n", ["scan", "--sample", "20", "--bound", "1000"]),
    ],
    ids=["parity", "parity-with-a-place-of-sigma", "scan-exact", "scan-sampled"],
)
def test_cli_refuses_a_profile_outside_sigma(text, command, tmp_path, capsys):
    """5 is a good prime of y^2 = x^3 - 2, so a table there would never be
    read: the command exits 1, names the place and Sigma, and prints nothing."""
    prof = tmp_path / "good_prime.prof"
    prof.write_text(text)
    path = str(PAPERCASES / "x3_minus_2.curve")
    rc, out, err = run_cli(
        capsys, "--cache", str(tmp_path / "c.cache"), command[0], "--curve", path,
        *command[1:], "--profiles", str(prof),
    )
    assert (rc, out) == (1, "")
    assert err == "error: the profile at place 5 is never read: it lies outside Sigma = {inf, 2, 3}\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_CURVES))
def test_cli_scan_is_restricted_exactly_when_disparity_is_null(name, tmp_path, capsys):
    """No profiles, full profiles and profiles missing one entry, in both
    scan modes: the scan restricts to Sigma-trivial twists iff disparity is null."""
    curve = GOLDEN_CURVES[name]()
    rng = random.Random(name)
    path = str(PAPERCASES / f"{name}.curve")
    seen = set()
    for kind in ("none", "full", "partial"):
        profiled = []
        if kind != "none":
            prof = tmp_path / f"{kind}.prof"
            prof.write_text(_profiles_text(curve, rng, drop=kind == "partial"))
            profiled = ["--profiles", str(prof)]
        for mode in (["--max-norm", "20"], ["--sample", "30", "--bound", "1000"]):
            for r1 in ("0", "1"):
                rc, out, _ = run_cli(capsys, "--format", "json", "scan", "--curve", path,
                                     *mode, *profiled, "--r1-parity", r1)
                assert rc == 0
                outputs = json.loads(out)["outputs"]
                restricted = outputs["scan"]["mode"] in ("sigma_trivial_only",
                                                         "monte_carlo_sigma_trivial")
                assert restricted == (outputs["disparity"] is None), (kind, mode)
                assert restricted == (kind != "full"), (kind, mode)
                seen.add(restricted)
    assert seen == {True, False}


def _count_remainder_sequences(monkeypatch):
    """A list that grows by one at each remainder sequence ``ratpoly`` builds."""
    calls = []
    original = ratpoly._sturm_sequence

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(ratpoly, "_sturm_sequence", counted)
    return calls


@pytest.mark.parametrize("path", sorted(PAPERCASES.glob("*.curve")), ids=lambda p: p.stem)
def test_cli_analyze_builds_one_remainder_sequence_per_polynomial(path, tmp_path, monkeypatch, capsys):
    """One sequence of f for its discriminant, its signature and, when no
    factor is declared, its integer part, then one per declared factor;
    rational roots, the 2-torsion count and the reducibility test read
    those parts and build none of their own."""
    curve = parse_curve_text(path.read_text(encoding="utf-8"))
    calls = _count_remainder_sequences(monkeypatch)
    rc, _, _ = run_cli(capsys, "--format", "json", "--cache", str(tmp_path / "primes.cache"),
                       "analyze", "--curve", str(path))
    assert rc == 0
    assert calls == [curve.f, *curve.declared_factors], [str(f) for f in calls]


def test_cli_verify_paper_builds_each_remainder_sequence_once(monkeypatch, capsys):
    """Each golden curve is built once: 1 + 3 for each curve with three
    declared factors (h and g quintics, 1440D1) and 1 for the others."""
    calls = _count_remainder_sequences(monkeypatch)
    rc, _, _ = run_cli(capsys, "--format", "json", "verify-paper")
    assert rc == 0
    assert len(calls) == 14, [str(f) for f in calls]
