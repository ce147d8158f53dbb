import contextlib
import io

import pytest

from cqrate import cli, qcore, selftest
from cqrate.errors import InternalError


def test_run_selftest_unknown_suite():
    with pytest.raises(ValueError, match="unknown suites"):
        selftest.run_selftest(suites=["bogus"])


def test_suite_result_shape():
    res = selftest.suite_fvdg(seed=0, count=20)
    assert res.name == "fvdg"
    assert res.checks == 20
    assert res.passed
    d = res.as_dict()
    assert set(d) == {"name", "checks", "violations", "passed", "details"}


def test_suites_deterministic():
    r1 = selftest.suite_pinsker(seed=5, count=50)
    r2 = selftest.suite_pinsker(seed=5, count=50)
    assert r1 == r2


def test_run_selftest_subset():
    results = selftest.run_selftest(seed=0, suites=["fannes", "ssa"], count=30)
    assert [r.name for r in results] == ["fannes", "ssa"]
    assert all(r.passed for r in results)


def test_suite_ssa_reports_an_internal_error_as_a_violation(monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("conditional mutual information -1 violates strong subadditivity")

    monkeypatch.setattr(qcore, "check_ssa", broken)
    res = selftest.suite_ssa(seed=0, count=3)
    assert res.violations == 3
    assert "strong subadditivity" in res.details[0]


def test_a_state_derived_in_a_suite_that_fails_validation_is_a_violation(monkeypatch):
    # a purify that doubles its amplitudes makes the round trip's state trace 4:
    # a fault inside the suite, reported per instance and as exit 1, not as an
    # input error (exit 2)
    purify = qcore.purify_of_stack
    monkeypatch.setattr(qcore, "purify_of_stack", lambda mats: [2.0 * a for a in purify(mats)])
    res = selftest.suite_purify(seed=0, count=20)
    assert res.violations == 20
    assert res.details[0].startswith("instance 0: density matrix trace 3.99")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["selftest", "--suite", "purify", "--seed", "0"])
    assert rc == 1
    assert "suite purify: 1000 checks, 1000 violations - FAIL" in out.getvalue()
    assert out.getvalue().endswith("selftest: FAIL (1000 checks, seed 0)\n")
