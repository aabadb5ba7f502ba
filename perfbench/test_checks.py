"""Each benchmark checker accepts a correct output and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench

Correct outputs are produced by cliffsys itself, in the wire format its
command line writes; the corruptions are one flipped coefficient sign, one
dropped term, a dimension off by one and a nonzero action result.
"""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from checks import CheckError
from cliffsys.clifford import build, system_to_json
from cliffsys.exactmat import SignedPermMatrix, matrix_to_json
from cliffsys.forms import canonical_form, form_to_json, lie_action, psi_matrix, tau


def upper_json(psi):
    return {
        "size": psi.size,
        "N": psi.n,
        "entries": [
            {"row": i, "col": j, "form": form_to_json(f)} for (i, j), f in psi.upper_items()
        ],
    }


@pytest.fixture(scope="module")
def spin():
    """tau_4(psi^C), its psi matrix and the C_8 generators, as emitted."""
    psi = psi_matrix("C")
    return {
        "tau4": form_to_json(tau(psi, 4)),
        "upper": checks.parse_form_matrix(upper_json(psi), 9, 16),
        "gens": checks.check_clifford_system(system_to_json(build(8)), 8),
        "spin9": form_to_json(canonical_form("Spin9")),
    }


def flip_sign(data, at=None):
    bad = copy.deepcopy(data)
    term = bad["terms"][len(bad["terms"]) // 2] if at is None else next(
        t for t in bad["terms"] if tuple(t["idx"]) == at)
    term["c"] = term["c"][1:] if term["c"].startswith("-") else "-" + term["c"]
    return bad


def drop_term(data):
    bad = copy.deepcopy(data)
    del bad["terms"][len(bad["terms"]) // 3]
    return bad


# -- rank10: tau_k coefficients, wire format and actions ------------------------------


def check_tau(data, spin, seed=0, samples=8):
    return checks.check_tau_form(data, spin["upper"], 9, 4, 16, 702, random.Random(seed), samples)


def test_tau_form_accepts_program_output(spin):
    terms = check_tau(spin["tau4"], spin, samples=40)
    assert len(terms) == 702


def test_tau_form_rejects_flipped_sign(spin):
    terms = checks.parse_form(spin["tau4"], 16, 8)
    sampled = checks.sample_monomials(terms, 16, random.Random(3), 8)[0]
    with pytest.raises(CheckError, match="permutation expansion"):
        check_tau(flip_sign(spin["tau4"], at=sampled), spin, seed=3)


def test_tau_form_rejects_dropped_term(spin):
    with pytest.raises(CheckError, match="701 terms"):
        check_tau(drop_term(spin["tau4"]), spin)


def test_wire_format_rejects_unsorted_terms(spin):
    bad = copy.deepcopy(spin["tau4"])
    bad["terms"][0], bad["terms"][1] = bad["terms"][1], bad["terms"][0]
    with pytest.raises(CheckError, match="not sorted"):
        checks.parse_form(bad, 16, 8)


def test_brute_force_coefficient_of_absent_monomial_is_zero(spin):
    terms = checks.parse_form(spin["tau4"], 16, 8)
    absent = next(m for m in checks.sample_monomials(terms, 16, random.Random(1), 4) if m not in terms)
    assert checks.tau_coefficient(spin["upper"], 9, 4, absent) == 0


def extra_matrix():
    """A complex structure on R^16 outside Spin(9): adjacent pairs, first
    pair's sign flipped."""
    perm = [i ^ 1 for i in range(16)]
    signs = [1 if i % 2 else -1 for i in range(16)]
    signs[0], signs[1] = 1, -1
    return SignedPermMatrix(16, tuple(perm), tuple(signs))


def readback(spin, form_json):
    from cliffsys.forms import form_from_json

    form = form_from_json(form_json)
    x = extra_matrix()
    gens = build(8).generators
    return {
        "terms": form.num_terms(),
        "invariant": [lie_action(gens[0].mul(gens[b]), form).num_terms() for b in (1, 2)],
        "extra": form_to_json(lie_action(x, form)),
    }, checks.signed_perm(matrix_to_json(x), 16)


def test_actions_accept_program_output(spin):
    result, x = readback(spin, spin["spin9"])
    checks.check_actions(result, checks.parse_form(spin["spin9"], 16, 8), x, 2)


def test_actions_reject_nonzero_invariance_action(spin):
    result, x = readback(spin, spin["spin9"])
    result["invariant"][1] = 3
    with pytest.raises(CheckError, match="not zero"):
        checks.check_actions(result, checks.parse_form(spin["spin9"], 16, 8), x, 2)


def test_actions_reject_extra_action_with_flipped_sign(spin):
    result, x = readback(spin, spin["spin9"])
    result["extra"] = flip_sign(result["extra"])
    with pytest.raises(CheckError, match="naive derivation action"):
        checks.check_actions(result, checks.parse_form(spin["spin9"], 16, 8), x, 2)


def test_naive_action_matches_program_on_non_invariant_element(spin):
    terms = checks.parse_form(spin["spin9"], 16, 8)
    got = checks.parse_form(form_to_json(lie_action(extra_matrix(), canonical_form("Spin9"))), 16, 8)
    assert got and got == checks.naive_action(checks.signed_perm(matrix_to_json(extra_matrix()), 16), terms)


def test_psi_matrix_rejects_non_kaehler_entry():
    data = upper_json(psi_matrix("C"))
    data["entries"][0]["form"]["terms"][0]["c"] = "2"
    with pytest.raises(CheckError, match="non-unit"):
        checks.parse_form_matrix(data, 9, 16)


# -- cli-mix ---------------------------------------------------------------------------------


def test_spin9_accepted(spin):
    assert len(checks.check_invariant_form(spin["spin9"], 16, 8, 702, spin["gens"])) == 702


def test_spin9_rejects_flipped_sign(spin):
    with pytest.raises(CheckError, match="not annihilated"):
        checks.check_invariant_form(flip_sign(spin["spin9"]), 16, 8, 702, spin["gens"])


def test_spin9_rejects_dropped_term(spin):
    with pytest.raises(CheckError, match="701 monomials"):
        checks.check_invariant_form(drop_term(spin["spin9"]), 16, 8, 702, spin["gens"])


def test_spin8_accepted(spin):
    data = form_to_json(canonical_form("Spin8"))
    checks.check_invariant_form(data, 16, 4, 112, spin["gens"][:8])


SELFTEST = """\
PASS  criterion 1 construction: ok [0.14s]
XFAIL criterion 3d psi^A printed identity: differs [0.00s]
PASS  criterion 9 essentiality classifier: ok [0.00s]
"""


def test_selftest_lines():
    checks.check_selftest(SELFTEST)
    with pytest.raises(CheckError):
        checks.check_selftest(SELFTEST.replace("PASS  criterion 9", "FAIL  criterion 9"))
    with pytest.raises(CheckError):
        checks.check_selftest(SELFTEST.replace("XFAIL criterion 3d", "XPASS criterion 3d"))


@pytest.mark.parametrize("m", [1, 4, 9])
def test_clifford_system_accepted_and_dimension_checked(m):
    data = system_to_json(build(m))
    assert len(checks.check_clifford_system(data, m)) == m + 1
    bad = copy.deepcopy(data)
    bad["n"] += 1
    with pytest.raises(CheckError, match="2 delta"):
        checks.check_clifford_system(bad, m)


def test_clifford_system_rejects_flipped_sign():
    data = system_to_json(build(3))
    data["generators"][1]["entries"][0][2] *= -1
    with pytest.raises(CheckError, match="symmetric"):
        checks.check_clifford_system(data, 3)


def test_clifford_system_rejects_column_zero():
    data = {"m": 1, "n": 2, "generators": [
        {"n": 2, "entries": [[1, 0, 1], [2, 1, 1]]},
        {"n": 2, "entries": [[1, 1, 1], [2, 2, -1]]},
    ]}
    with pytest.raises(CheckError, match="outside"):
        checks.check_clifford_system(data, 1)


def test_verify_report():
    good = {"symmetric": True, "involutions": True, "anticommuting": True,
            "irreducibleDimension": True, "firstFailure": None}
    checks.check_verify_report(good)
    with pytest.raises(CheckError):
        checks.check_verify_report(dict(good, irreducibleDimension=False))


def sphere_report(n):
    from cliffsys.spheres import max_vector_fields

    system = max_vector_fields(n)
    return {"n": n, "sigma": system.sigma,
            "fields": [matrix_to_json(j) for j in system.structures],
            "verification": {"algebraic": True, "pointwise": True, "points": 25}}


def test_sphere_fields():
    assert checks.hurwitz_radon_sigma(128) == 15
    assert [checks.hurwitz_radon_sigma(n) for n in (16, 32, 64)] == [8, 9, 11]
    report = sphere_report(32)
    checks.check_sphere_fields(report, 32)
    with pytest.raises(CheckError, match="sigma"):
        checks.check_sphere_fields(dict(report, sigma=8), 32)
    bad = copy.deepcopy(report)
    bad["fields"][1]["entries"][0][2] *= -1
    with pytest.raises(CheckError):
        checks.check_sphere_fields(bad, 32)
    bad = copy.deepcopy(report)
    del bad["fields"][-1]
    with pytest.raises(CheckError, match="8 matrices"):
        checks.check_sphere_fields(bad, 32)


def test_octonion_table():
    from cliffsys.algebras import algebra_table

    grid = algebra_table(8).text_grid()
    checks.check_octonion_table(grid)
    rows = grid.splitlines()
    rows[3] = rows[3].replace(" -j", "  j", 1)
    with pytest.raises(CheckError):
        checks.check_octonion_table("\n".join(rows))


# -- liealg (cli-mix) ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, want", [(2, 1), (3, 3), (8, 0), (9, 0), (10, 1)])
def test_commutant_by_characters(m, want):
    gens = checks.check_clifford_system(system_to_json(build(m)), m)
    assert checks.commutant_by_characters(gens) == want


def test_liealg_report_rejects_off_by_one():
    good = {"spanDim": 45, "bracketClosed": True, "commutantDim": 0, "normalizerDim": 45}
    checks.check_liealg_report(good, 9, 0)
    for key in ("spanDim", "commutantDim", "normalizerDim"):
        with pytest.raises(CheckError, match=key.replace("Dim", "")):
            checks.check_liealg_report(dict(good, **{key: good[key] + 1}), 9, 0)
    with pytest.raises(CheckError, match="bracket"):
        checks.check_liealg_report(dict(good, bracketClosed=False), 9, 0)


def test_decomposition():
    good = {"decomposition": {"pairSpan": 36, "tripleSpan": 84, "orthogonal": True, "totalRank": 120}}
    checks.check_decomposition(good)
    bad = copy.deepcopy(good)
    bad["decomposition"]["tripleSpan"] = 83
    with pytest.raises(CheckError):
        checks.check_decomposition(bad)


# -- tracing ----------------------------------------------------------------------------------


def test_tracing_leaves_stdout_alone_and_writes_spans_and_peak_rss(tmp_path):
    child = Path(__file__).with_name("child.py")
    cmd = [sys.executable, str(child), "cli", "form", "--name", "spin8"]
    plain = subprocess.run(cmd, capture_output=True, check=True).stdout
    spans, rss = tmp_path / "spans.json", tmp_path / "rss.txt"
    traced = subprocess.run(cmd, capture_output=True, check=True,
                            env=dict(os.environ, PERFBENCH_TRACE=str(spans), PERFBENCH_RSS=str(rss))).stdout
    assert traced == plain
    assert int(rss.read_text()) > 1000  # kB
    data = json.loads(spans.read_text())
    paths = {s["path"] for s in data["spans"]}
    assert "cli.main/forms.canonical/forms.tau/kernel.square" in paths
    assert data["counts"]["cli.output_bytes"] == len(plain)
    assert data["launcher_s"] > 0
