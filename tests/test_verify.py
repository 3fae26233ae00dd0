"""The built-in verification suite and its mismatch reporting."""

import json
import re

from twistparity import cli, parity, verify
from twistparity.curves import CurveSpec
from twistparity.frobenius import PrimeClass, sigma_set
from twistparity.modular import iter_primes, kronecker_symbol
from twistparity.papercases import TRANSFORM_CONSTANT, curve_g, curve_h, sextic_h0
from twistparity.ratpoly import RatPoly, homogenize
from twistparity.verify import run_paper_verification, transformation_identity

from oracles import frobenius_trace


def test_transformation_identity_quotient_closes_algebraically():
    """lhs * den(quotient) == rhs * num(quotient) as exact polynomials."""
    ident = transformation_identity(curve_h().f)
    lhs = homogenize(sextic_h0(), RatPoly((1, 3)), RatPoly((0, 1)))
    rhs = curve_h().f * TRANSFORM_CONSTANT**2
    if ident["identity_holds"]:
        assert lhs == rhs
        return
    qn = RatPoly((10, 60, 91))
    qd = RatPoly((1, 60, 100))
    assert ident["quotient_numerator"] == str(qn)
    assert ident["quotient_denominator"] == str(qd)
    assert lhs * qd == rhs * qn
    # the mismatch is purely in one quadratic factor: constants agree
    assert 1990170**3 * 65610 == 273 * TRANSFORM_CONSTANT**2


def test_suite_structure_and_names():
    _, out = run_paper_verification(0)
    names = [c["name"] for c in out["checks"]]
    assert names == [
        "two_torsion_dimensions",
        "sextic_transformation_identity",
        "sigma_trivial_parity_preserved",
        "fixed_space_dimension_oracle",
        "disjoint_lagrangian_counts",
        "global_consistency_identity",
    ]
    assert all(c["passed"] for c in out["checks"])
    details = {c["name"]: c["details"] for c in out["checks"]}
    assert details["two_torsion_dimensions"] == {"h_quintic": 2, "g_quintic": 2}
    assert details["fixed_space_dimension_oracle"]["trials"] == 1000
    assert details["disjoint_lagrangian_counts"]["counts"] == [1, 2, 8]
    assert details["sigma_trivial_parity_preserved"]["sampled"] == 200


def test_seed_changes_samples_but_not_verdicts():
    _, a = run_paper_verification(0)
    _, b = run_paper_verification(1)
    assert a["all_passed"] and b["all_passed"]
    da = next(
        c for c in a["checks"] if c["name"] == "sigma_trivial_parity_preserved"
    )["details"]["first_five"]
    db = next(
        c for c in b["checks"] if c["name"] == "sigma_trivial_parity_preserved"
    )["details"]["first_five"]
    assert da != db  # different sample, same conclusion


def test_suite_builds_each_golden_curve_once(monkeypatch):
    # the five golden curves, and C_H once more for the substitution identity
    built = []
    init = CurveSpec.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CurveSpec, "__init__", counting_init)
    run_paper_verification(0)
    assert len(built) <= 6


def test_cli_exit_code_2_on_failed_check(monkeypatch, capsys):
    """A failed check exits 2 in both formats; text mode alone prints the
    wall time, as one line on stderr."""
    wrong = dict(transformation_identity(curve_h().f), quotient_numerator="91*x^2 + 60*x + 11")
    monkeypatch.setattr(verify, "transformation_identity", lambda h: wrong)
    assert cli.main(["verify-paper"]) == 2
    captured = capsys.readouterr()
    assert "[FAIL] sextic_transformation_identity\n" in captured.out
    assert captured.out.endswith("overall: FAIL\n")
    assert re.fullmatch(r"elapsed: \d+\.\d\ds\n", captured.err)
    assert cli.main(["--format", "json", "verify-paper"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["outputs"]["all_passed"] is False
    assert "elapsed:" not in captured.err


def test_cli_exit_code_3_when_sampling_stalls(monkeypatch, capsys):
    monkeypatch.setattr(verify, "sigma_trivial", lambda d, sigma: False)
    assert cli.main(["verify-paper"]) == 3
    assert "sampling stalled" in capsys.readouterr().err


def _report_text(capsys):
    assert cli.main(["--format", "json", "verify-paper"]) == 0
    return capsys.readouterr().out


def test_report_json_is_canonical(capsys):
    text = _report_text(capsys)
    doc = json.loads(text)
    assert doc["command"] == "verify-paper"
    assert doc["tool_version"] == "0.1.0"
    assert _report_text(capsys) == text
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


def test_sigma_trivial_check_fails_on_wrong_good_prime_h(monkeypatch):
    """Check c recomputes the consistency identity, so a wrong h must fail it."""
    right = parity.classify_prime

    def one_too_high(*args, **kwargs):
        pc = right(*args, **kwargs)
        return PrimeClass(pc.l, pc.lengths, pc.i + 1)

    monkeypatch.setattr(parity, "classify_prime", one_too_high)
    _, out = run_paper_verification(0)
    check = next(c for c in out["checks"] if c["name"] == "sigma_trivial_parity_preserved")
    assert check["passed"] is False
    assert check["details"]["violations"]
    assert out["all_passed"] is False


def test_transformation_check_fails_on_a_wrong_quotient(monkeypatch):
    wrong = dict(transformation_identity(curve_h().f), quotient_numerator="91*x^2 + 60*x + 11")
    monkeypatch.setattr(verify, "transformation_identity", lambda h: wrong)
    _, out = run_paper_verification(0)
    check = next(c for c in out["checks"] if c["name"] == "sextic_transformation_identity")
    assert check["passed"] is False
    assert out["all_passed"] is False


def test_jacobian_of_c_g_is_two_copies_of_the_twist_by_3_of_x3_minus_x():
    """a_l(C_G) = 2 (3 | l) a_l(E') with E': y^2 = x^3 - x, by Legendre sums."""
    curve = curve_g()
    e = RatPoly((0, -1, 0, 1))
    good = [l for l in iter_primes(2, 400) if l not in sigma_set(curve)]
    assert len(good) == 76
    for l in good:
        assert frobenius_trace(curve.f, l) == 2 * kronecker_symbol(3, l) * frobenius_trace(e, l), l
