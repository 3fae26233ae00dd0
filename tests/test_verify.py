"""The built-in verification suite and its mismatch reporting."""

import io
import json

from twistparity import cli, parity, verify
from twistparity.frobenius import PrimeClass
from twistparity.papercases import TRANSFORM_CONSTANT, curve_h, sextic_h0
from twistparity.ratpoly import RatPoly, compose_rational
from twistparity.report import Report
from twistparity.verify import run_paper_verification, transformation_identity


def test_transformation_identity_quotient_closes_algebraically():
    """lhs * den(quotient) == rhs * num(quotient) as exact polynomials."""
    ident = transformation_identity()
    lhs = compose_rational(sextic_h0(), RatPoly((1, 3)), RatPoly((0, 1)), 6)
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
    rep = run_paper_verification(seed=0)
    names = [c["name"] for c in rep.outputs["checks"]]
    assert names == [
        "two_torsion_dimensions",
        "sextic_transformation_identity",
        "sigma_trivial_parity_preserved",
        "fixed_space_dimension_oracle",
        "disjoint_lagrangian_counts",
        "global_consistency_identity",
    ]
    assert all(c["passed"] for c in rep.outputs["checks"])
    details = {c["name"]: c["details"] for c in rep.outputs["checks"]}
    assert details["two_torsion_dimensions"] == {"h_quintic": 2, "g_quintic": 2}
    assert details["fixed_space_dimension_oracle"]["trials"] == 1000
    assert details["disjoint_lagrangian_counts"]["counts"] == [1, 2, 8]
    assert details["sigma_trivial_parity_preserved"]["sampled"] == 200


def test_seed_changes_samples_but_not_verdicts():
    a = run_paper_verification(seed=0)
    b = run_paper_verification(seed=1)
    assert a.outputs["all_passed"] and b.outputs["all_passed"]
    da = next(
        c for c in a.outputs["checks"] if c["name"] == "sigma_trivial_parity_preserved"
    )["details"]["first_five"]
    db = next(
        c for c in b.outputs["checks"] if c["name"] == "sigma_trivial_parity_preserved"
    )["details"]["first_five"]
    assert da != db  # different sample, same conclusion


def test_cli_exit_code_2_on_failed_check(monkeypatch, capsys):
    def fake(seed=0):
        return Report(
            command="verify-paper",
            seed=seed,
            outputs={
                "checks": [{"name": "synthetic", "passed": False, "details": {}}],
                "all_passed": False,
            },
        )

    monkeypatch.setattr(cli, "run_paper_verification", fake)
    rc = cli.main(["verify-paper"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in out


def test_cli_exit_code_3_when_sampling_stalls(monkeypatch, capsys):
    monkeypatch.setattr(verify, "sigma_trivial_twist", lambda d, sigma: None)
    assert cli.main(["verify-paper"]) == 3
    assert "sampling stalled" in capsys.readouterr().err


def _report_text(rep):
    buf = io.StringIO()
    rep.write(buf)
    return buf.getvalue()


def test_report_json_is_canonical():
    rep = run_paper_verification(seed=0)
    text = _report_text(rep)
    doc = json.loads(text)
    assert doc["command"] == "verify-paper"
    assert doc["tool_version"] == "0.1.0"
    assert _report_text(rep) == text
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


def test_sigma_trivial_check_fails_on_wrong_good_prime_h(monkeypatch):
    """Check c recomputes the consistency identity, so a wrong h must fail it."""
    right = parity.classify_prime

    def one_too_high(*args, **kwargs):
        pc = right(*args, **kwargs)
        return PrimeClass(pc.l, pc.lengths, pc.i + 1)

    monkeypatch.setattr(parity, "classify_prime", one_too_high)
    rep = run_paper_verification(seed=0)
    check = next(c for c in rep.outputs["checks"] if c["name"] == "sigma_trivial_parity_preserved")
    assert check["passed"] is False
    assert check["details"]["violations"]
    assert rep.outputs["all_passed"] is False


def test_transformation_check_fails_on_a_wrong_quotient(monkeypatch):
    wrong = dict(transformation_identity(), quotient_numerator="91*x^2 + 60*x + 11")
    monkeypatch.setattr(verify, "transformation_identity", lambda: wrong)
    rep = run_paper_verification(seed=0)
    check = next(c for c in rep.outputs["checks"] if c["name"] == "sextic_transformation_identity")
    assert check["passed"] is False
    assert rep.outputs["all_passed"] is False
