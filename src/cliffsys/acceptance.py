"""Acceptance suite: every criterion is exact (zero tolerance) and prints
one line per check via the selftest command.

Statuses: PASS/FAIL, plus XFAIL for the one check that is implemented as
printed but is inconsistent with the displayed generator data (the
seven-generator expansion identity; its pure part is asserted to hold,
the full printed form is asserted to keep failing)."""

from __future__ import annotations

import time
from typing import Callable

from . import _golden as golden
from .clifford import (
    ESSENTIAL,
    NON_ESSENTIAL,
    UNDETERMINED,
    build,
    class_trace,
    classify_essential,
    delta,
    from_representation,
    tilde,
    to_representation,
    verify,
)
from .evencliff import build_e10, involution_span_obstruction, tau4_psi_d
from .exactmat import Record, SignedPermMatrix, pairwise_products
from .forms import KForm, canonical_form, hodge_star, kaehler_matrix, lie_action, psi_matrix, tau
from .liealg import (
    MatrixSpan,
    _SparseEchelon,
    commutant_dim,
    normalizer_dim,
    triple_span_decomposition,
)
from .spheres import hurwitz_radon, max_vector_fields, random_unit_points, verify_pointwise

PASS = "PASS"
FAIL = "FAIL"
XFAIL = "XFAIL"
XPASS = "XPASS"


class CheckResult(Record):
    __slots__ = ("name", "status", "detail", "seconds")

    def line(self) -> str:
        return f"{self.status:5s} {self.name}: {self.detail}"

    @property
    def ok(self) -> bool:
        return self.status in (PASS, XFAIL)


def _run(name: str, fn: Callable[[], str], expect_failure: bool = False) -> CheckResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
        status = XPASS if expect_failure else PASS
        if expect_failure:
            detail = "unexpectedly passed: " + detail
    except AssertionError as exc:
        if expect_failure:
            status = XFAIL
            detail = str(exc)
        else:
            status = FAIL
            detail = str(exc) or "assertion failed"
    except Exception as exc:  # a check that crashes fails; it does not abort the suite
        status = XFAIL if expect_failure else FAIL
        detail = f"{type(exc).__name__}: {exc}"
    return CheckResult(name, status, detail, time.perf_counter() - t0)


_DELTA_ROW = [1, 2, 4, 4, 8, 8, 8, 8, 16, 32, 64, 64, 128, 128, 128, 128]


def check_construction() -> str:
    for m in range(1, 17):
        system = build(m)
        report = verify(system)
        assert report.all_ok(), f"m={m}: {report.first_failure}"
        assert system.n == 2 * delta(m) == 2 * _DELTA_ROW[m - 1], f"m={m}: wrong order"
    return "verify(build(m)) all-true and N = 2 delta(m) for m = 1..16"


def check_trace_classes() -> str:
    for m in range(1, 17):
        tr = class_trace(build(m))
        if m % 4 == 0:
            assert abs(tr) == 2 * delta(m), f"m={m}: |trace| = {abs(tr)}"
        else:
            assert tr == 0, f"m={m}: trace = {tr}"
    for m in (4, 8):
        assert class_trace(tilde(m)) == -class_trace(build(m)), f"tilde({m}) trace"
    return "|trace| = 2 delta(m) for m = 4,8,12,16; 0 otherwise; tilde flips sign"


def check_theta_table() -> str:
    theta = kaehler_matrix(build(4).generators)
    for pair in golden.THETA_TABLE:
        assert theta.entry(*pair) == golden.theta_form(pair), f"theta{pair} differs"
    return "all ten composition 2-forms match the reference table term-for-term"


def check_tau2_theta() -> str:
    theta = kaehler_matrix(build(4).generators)
    t2 = tau(theta, 2)
    assert t2 == golden.tau2_theta_printed(), "tau2(theta) differs from reference"
    assert hodge_star(t2) == t2, "tau2(theta) is not self-dual"
    assert t2 == canonical_form("OmegaL").scale(-2), "tau2(theta) != -2 Omega_L"
    return "tau2(theta) matches the reference and equals -2 Omega_L exactly"


def check_spin8_expansion() -> str:
    assert canonical_form("Spin8") == golden.spin8_printed(), "expansion differs"
    return "quarter of tau2(psi^B) matches all 112 reference monomials"


def check_psi_a_identity_printed() -> str:
    t2a = tau(psi_matrix("A"), 2)
    rhs = golden.psi_a_identity_rhs(tau(psi_matrix("B"), 2))
    assert t2a == rhs, (
        "printed identity differs on the 84 mixed monomials "
        "(inconsistent with the displayed generators; pure part verified separately)"
    )
    return "printed identity holds"


def check_psi_a_identity_pure_part() -> str:
    t2a = tau(psi_matrix("A"), 2)
    rhs = golden.psi_a_identity_rhs(tau(psi_matrix("B"), 2))
    assert golden.pure_part(t2a) == golden.pure_part(rhs), "pure parts differ"
    diff = t2a - rhs
    assert golden.pure_part(diff).is_zero(), "difference is not purely mixed"
    return "identity holds exactly on the unprimed+primed (pure) monomials"


def check_spin9_invariants() -> str:
    assert tau(psi_matrix("C"), 2).is_zero(), "tau2(psi^C) != 0"
    spin9 = canonical_form("Spin9")
    assert spin9.content() == 1, "Spin9 content != 1"
    gens = build(8).generators
    for a in range(9):
        for b in range(a + 1, 9):
            act = lie_action(gens[a].mul(gens[b]), spin9)
            assert act.is_zero(), f"S_{a}{b} does not annihilate the 8-form"
    return "tau2(psi^C) = 0; Spin9 integral gcd 1; invariant under all 36 basis elements"


def check_spin7_restriction() -> str:
    phi = canonical_form("Spin7Delta")
    r1 = phi.restrict(range(1, 9))
    r2 = phi.restrict(range(9, 17))
    assert r1 == r2, "the two summand restrictions differ"
    assert r1.num_terms() == 14 and r1.content() == 1, "restriction is not 14 unit monomials"
    assert hodge_star(r1) == r1, "restriction is not self-dual"
    vol = KForm.monomial(8, range(1, 9))
    assert r1.wedge(r1) == vol.scale(14), "phi ^ phi != 14 vol"
    assert _so8_stabilizer_dim(r1) == 21, "stabilizer is not 21-dimensional"
    return "both summand restrictions equal one self-dual unit form with stabilizer dim 21"


def _so8_stabilizer_dim(phi: KForm) -> int:
    """Dimension of the stabilizer in so(8) of a form on R^8.  The 28 skew
    signed permutations E_i and E_i E_j of the representation of C_8 act on
    phi; their span is all of so(8), which their rank certifies."""
    e = to_representation(build(8)).matrices
    basis = list(e) + pairwise_products(e)
    assert MatrixSpan(basis).rank == 28, "E_i, E_i E_j do not span so(8)"
    ech = _SparseEchelon()
    mono_index: dict[int, int] = {}
    for x in basis:
        act = lie_action(x, phi).mask_items()
        ech.insert({mono_index.setdefault(mask, len(mono_index)): int(c) for mask, c in act})
    return 28 - ech.rank


def check_lie_dims() -> str:
    gens = build(8).generators
    expected = [
        (pairwise_products(build(4).generators), 10),
        (pairwise_products(build(5).generators), 15),
        (pairwise_products(gens[1:8]), 21),
        (pairwise_products(gens[:8]), 28),
        (pairwise_products(gens), 36),
        (pairwise_products(build(9).generators), 45),
    ]
    for mats, want in expected:
        span = MatrixSpan(mats)
        assert span.rank == want, f"span dim {span.rank} != {want}"
        assert span.bracket_closed(), f"span of dim {want} is not bracket-closed"
    d36, d84, orthogonal, total = triple_span_decomposition(gens)
    assert (d36, d84, orthogonal, total) == (36, 84, True, 120), (
        f"decomposition ({d36}, {d84}, {orthogonal}, {total})"
    )
    return "span dims (10, 15, 21, 28, 36, 45) all bracket-closed; 36+84 orthogonal, total 120"


def check_stabilizers() -> str:
    assert commutant_dim(build(2).generators) == 1, "commutant C2"
    assert commutant_dim(build(3).generators) == 3, "commutant C3"
    assert commutant_dim(build(8).generators) == 0, "commutant C8"
    for m, want in [(2, 4), (3, 9), (4, 13), (5, 18), (8, 36)]:
        got = normalizer_dim(build(m).generators)
        assert got == want, f"normalizer C{m}: {got} != {want}"
    return "commutant dims (1, 3, 0); normalizer dims (4, 9, 13, 18, 36)"


def check_round_trip() -> str:
    for m in range(2, 10):
        system = build(m)
        rep = to_representation(system)
        for i, e in enumerate(rep.matrices):
            assert e.mul(e) == -SignedPermMatrix.identity(rep.delta), f"E_{i+1}^2"
            for j in range(i + 1, len(rep.matrices)):
                assert e.anticommutes(rep.matrices[j]), f"E_{i+1}, E_{j+1}"
        assert from_representation(rep).generators == system.generators, f"m={m}"
    return "from(to(build(m))) identical for m = 2..9; all Clifford relations hold"


def check_sphere_fields() -> str:
    for n, want in [(16, 8), (32, 9), (64, 11), (128, 15)]:
        assert hurwitz_radon(n).sigma == want, f"sigma({n})"
        system = max_vector_fields(n)
        system.validate()
        assert len(system.structures) == want
        points = random_unit_points(n, 25, seed=n)
        assert verify_pointwise(system, points), f"pointwise check failed for n={n}"
    for n0 in (1, 2, 4, 8, 16, 32, 64, 128):
        assert delta(hurwitz_radon(n0).sigma + 1) == n0, f"alignment at {n0}"
    return "sigma = (8, 9, 11, 15); 25-point exact verification; table alignment at all eight orders"


def check_essentiality() -> str:
    pattern = {0: NON_ESSENTIAL, 1: UNDETERMINED, 2: UNDETERMINED, 3: ESSENTIAL,
               4: NON_ESSENTIAL, 5: ESSENTIAL, 6: ESSENTIAL, 7: ESSENTIAL}
    for m in range(1, 25):
        assert classify_essential(m) == pattern[m % 8], f"m={m}"
    return "periodic verdicts reproduced for m = 1..24"


def check_e10_suite(jobs: int = 1) -> str:
    e10 = build_e10()
    e10.validate()
    products = e10.pairwise_products()
    span = MatrixSpan(products)
    assert span.rank == 45, f"span {span.rank} != 45"
    assert span.bracket_closed(), "span not bracket-closed"
    assert involution_span_obstruction(), "found 10 anticommuting symmetric involutions"
    t4 = tau4_psi_d(jobs=jobs)
    assert not t4.is_zero(), "tau4(psi^D) = 0"
    for x in products:
        assert lie_action(x, t4).is_zero(), "a span generator does not annihilate tau4"
    assert lie_action(e10.complex_generators[0], t4).is_zero(), "complex structure action"
    return (
        f"45-dim bracket-closed span; tau4(psi^D) has {t4.num_terms()} terms "
        f"(content {t4.content()}), annihilated by all 45 generators and the complex structure"
    )


def run_all(slow: bool = False, jobs: int = 1) -> list[CheckResult]:
    checks: list[CheckResult] = [
        _run("criterion 1 construction", check_construction),
        _run("criterion 2 trace classes", check_trace_classes),
        _run("criterion 3a theta table", check_theta_table),
        _run("criterion 3b tau2(theta) = -2 Omega_L", check_tau2_theta),
        _run("criterion 3c psi^B expansion (112 terms)", check_spin8_expansion),
        _run(
            "criterion 3d psi^A printed identity",
            check_psi_a_identity_printed,
            expect_failure=True,
        ),
        _run("criterion 3e psi^A identity, pure part", check_psi_a_identity_pure_part),
        _run("criterion 4 Spin(9) invariants", check_spin9_invariants),
        _run("criterion 4b Spin(7) restriction", check_spin7_restriction),
        _run("criterion 5 Lie-algebra dimensions", check_lie_dims),
        _run("criterion 6 stabilizer dimensions", check_stabilizers),
        _run("criterion 7 representation round trip", check_round_trip),
        _run("criterion 8 sphere fields", check_sphere_fields),
        _run("criterion 9 essentiality classifier", check_essentiality),
    ]
    if slow:
        checks.append(_run("criterion 10 rank-10 suite (slow)", lambda: check_e10_suite(jobs)))
    return checks
