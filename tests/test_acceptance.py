"""Acceptance criteria, one test per check, each printing its pass line.

All arithmetic is exact: every comparison below is an equality over Q.
The slow rank-10 suite (criterion 10) is opt-in via --runslow.  The
printed seven-generator identity (criterion 3d) is implemented exactly as
stated and is a strict expected failure; its analysis is asserted by
criterion 3e and the golden tests.
"""

import random
from itertools import combinations

import pytest

from cliffsys import acceptance
from cliffsys.forms import KForm, canonical_form

from oracles import naive_stabilizer_dim


def _check(fn, name):
    result = acceptance._run(name, fn)
    print(result.line())
    assert result.status == acceptance.PASS, result.detail


def test_criterion_1_construction_suite():
    _check(acceptance.check_construction, "criterion 1 construction")


def test_criterion_2_trace_classes():
    _check(acceptance.check_trace_classes, "criterion 2 trace classes")


def test_criterion_3a_theta_table():
    _check(acceptance.check_theta_table, "criterion 3a theta table")


def test_criterion_3b_tau2_theta():
    _check(acceptance.check_tau2_theta, "criterion 3b tau2(theta) = -2 Omega_L")


def test_criterion_3c_spin8_expansion():
    _check(acceptance.check_spin8_expansion, "criterion 3c psi^B expansion")


@pytest.mark.xfail(
    strict=True,
    reason="printed identity is inconsistent with the displayed generators "
    "(see the golden tests for the verified pure part and mixed residual)",
)
def test_criterion_3d_psi_a_identity_as_printed():
    acceptance.check_psi_a_identity_printed()


def test_criterion_3e_psi_a_identity_pure_part():
    _check(
        acceptance.check_psi_a_identity_pure_part,
        "criterion 3e psi^A identity pure part",
    )


def test_criterion_4_spin9_invariants():
    _check(acceptance.check_spin9_invariants, "criterion 4 Spin(9) invariants")


def test_criterion_4b_spin7_restriction():
    _check(acceptance.check_spin7_restriction, "criterion 4b Spin(7) restriction")


def test_so8_stabilizer_matches_dense_oracle():
    spin7 = canonical_form("Spin7Delta").restrict(range(1, 9))
    volume = KForm.monomial(8, range(1, 9))
    assert acceptance._so8_stabilizer_dim(spin7) == naive_stabilizer_dim(spin7) == 21
    assert acceptance._so8_stabilizer_dim(volume) == naive_stabilizer_dim(volume) == 28
    rng = random.Random(8)
    quadruples = list(combinations(range(1, 9), 4))
    for count in (1, 2, 3, 5, 8, 14, 30, 70):
        terms = [(idx, rng.choice((-3, -2, -1, 1, 2, 3))) for idx in rng.sample(quadruples, count)]
        phi = KForm.from_terms(8, 4, terms)
        assert acceptance._so8_stabilizer_dim(phi) == naive_stabilizer_dim(phi)


def test_criterion_5_lie_algebra_dimensions():
    _check(acceptance.check_lie_dims, "criterion 5 Lie-algebra dimensions")


def test_criterion_6_stabilizer_dimensions():
    _check(acceptance.check_stabilizers, "criterion 6 stabilizer dimensions")


def test_criterion_7_representation_round_trip():
    _check(acceptance.check_round_trip, "criterion 7 representation round trip")


def test_criterion_8_sphere_fields():
    _check(acceptance.check_sphere_fields, "criterion 8 sphere fields")


def test_criterion_9_essentiality_classifier():
    _check(acceptance.check_essentiality, "criterion 9 essentiality classifier")


@pytest.mark.slow
def test_criterion_10_rank10_suite():
    _check(lambda: acceptance.check_e10_suite(), "criterion 10 rank-10 suite")


@pytest.mark.parametrize(
    "expect_failure, status", [(False, acceptance.FAIL), (True, acceptance.XFAIL)]
)
def test_a_check_that_raises_is_reported(expect_failure, status):
    def check():
        raise ValueError("empty minor")

    result = acceptance._run("raising check", check, expect_failure=expect_failure)
    assert result.status == status
    assert result.detail == "ValueError: empty minor"
    assert result.line().startswith(f"{status:5s} raising check: ValueError: empty minor [")


def test_run_all_reports_ok_statuses():
    results = acceptance.run_all(slow=False)
    assert all(r.ok for r in results)
    statuses = {r.name: r.status for r in results}
    assert statuses["criterion 3d psi^A printed identity"] == acceptance.XFAIL
