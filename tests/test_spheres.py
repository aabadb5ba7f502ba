import hashlib
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cliffsys.cli import main
from cliffsys.clifford import delta
from cliffsys.exactmat import SignedPermMatrix
from cliffsys.spheres import (
    VectorFieldSystem,
    hurwitz_radon,
    max_vector_fields,
    random_unit_points,
    verify_pointwise,
)

from oracles import block_diag, fraction_unit_points, fraction_verify_pointwise


def test_hurwitz_radon_values():
    assert hurwitz_radon(16).sigma == 8
    assert hurwitz_radon(2).sigma == 1
    assert hurwitz_radon(32).sigma == 9
    assert hurwitz_radon(64).sigma == 11
    assert hurwitz_radon(128).sigma == 15
    assert hurwitz_radon(16) == (8, 0, 1, 0)


def test_hurwitz_radon_odd_is_degenerate_not_error():
    assert hurwitz_radon(7).sigma == 0
    assert hurwitz_radon(1) == (0, 0, 0, 0)


def test_factorization_reconstructs_n():
    for n in range(1, 300):
        sigma, p, q, k = hurwitz_radon(n)
        assert (2 * k + 1) * 2**p * 16**q == n
        assert 0 <= p <= 3
        assert sigma == 2**p + 8 * q - 1


def test_max_fields_counts_up_to_256():
    for n in range(2, 257, 2):
        hr = hurwitz_radon(n)
        n0 = 2**hr.p * 16**hr.q
        if n0 > 128:  # build() stops at C_16
            message = rf"^power-of-two part {n0} needs C_{hr.sigma + 1}: m must be in 1\.\.16$"
            with pytest.raises(ValueError, match=message):
                max_vector_fields(n)
            continue
        system = max_vector_fields(n)
        assert system.sigma == hr.sigma
        assert len(system.structures) == hr.sigma
        system.validate()


def test_odd_multiples_block_structure():
    system = max_vector_fields(6)
    assert system.sigma == 1
    n01 = SignedPermMatrix.from_dense([[0, -1], [1, 0]])
    assert system.structures[0] == block_diag([n01, n01, n01])
    # n = 80 = 5 * 16: five copies of each field of S^15
    assert max_vector_fields(80).structures == tuple(
        block_diag([e] * 5) for e in max_vector_fields(16).structures)


def test_large_system_from_deepest_build():
    system = max_vector_fields(128)
    assert system.sigma == 15
    system.validate()


def test_table_alignment_identity():
    for n0 in (1, 2, 4, 8, 16, 32, 64, 128):
        assert delta(hurwitz_radon(n0).sigma + 1) == n0


def test_pointwise_verification_examples():
    system = max_vector_fields(16)
    e1 = tuple([Fraction(1)] + [Fraction(0)] * 15)
    pythag = tuple([Fraction(3, 5), Fraction(4, 5)] + [Fraction(0)] * 14)
    assert verify_pointwise(system, [e1, pythag])


def test_pointwise_rejects_non_unit():
    system = max_vector_fields(4)
    with pytest.raises(ValueError):
        verify_pointwise(system, [tuple([Fraction(1, 2)] + [Fraction(0)] * 3)])


def test_pointwise_detects_corrupted_system():
    good = max_vector_fields(16)
    corrupted = VectorFieldSystem(
        16, good.sigma, (good.structures[0],) + (good.structures[0],) + good.structures[2:]
    )
    points = random_unit_points(16, 3, seed=1)
    assert not verify_pointwise(corrupted, points)


def test_random_unit_points_are_exact_units():
    for n in (2, 9, 16):
        for point in random_unit_points(n, 25, seed=n):
            assert len(point) == n
            assert sum(c * c for c in point) == 1


def test_random_unit_points_match_the_fraction_projection():
    for n in (1, 2, 16, 48, 128, 512):
        points = random_unit_points(n, 25, seed=n)
        assert points == fraction_unit_points(n, 25, seed=n)
        assert all(type(c) is Fraction for point in points for c in point)


def test_pointwise_on_25_random_points_all_orders():
    for n in (16, 32, 64, 128, 48, 96, 160):
        system = max_vector_fields(n)
        assert verify_pointwise(system, random_unit_points(n, 25, seed=n))


_fields = lru_cache(maxsize=None)(max_vector_fields)


@st.composite
def field_systems(draw):
    """max_vector_fields(n) for n in {2, 4, 16, 48}, as built or corrupted by
    repeating one J or flipping one sign of one J."""
    n = draw(st.sampled_from((2, 4, 16, 48)))
    system = _fields(n)
    js = list(system.structures)
    kind = draw(st.sampled_from(("built", "repeated", "flipped")))
    if kind == "repeated" and len(js) > 1:
        a, b = draw(st.lists(st.integers(0, len(js) - 1), min_size=2, max_size=2, unique=True))
        js[b] = js[a]
    elif kind != "built":
        a, col = draw(st.integers(0, len(js) - 1)), draw(st.integers(0, n - 1))
        signs = list(js[a].signs)
        signs[col] = -signs[col]
        js[a] = SignedPermMatrix(n, js[a].perm, tuple(signs))
    return VectorFieldSystem(n, system.sigma, tuple(js))


def _written(c: Fraction, form: str):
    if form == "int":
        return c.numerator if c.denominator == 1 else c
    return f"{c.numerator}/{c.denominator}" if form == "str" else c


@st.composite
def points(draw, n):
    """A rational unit point on S^{n-1} by inverse stereographic projection,
    its coordinates written as int, Fraction or "p/q"; now and then made
    non-unit or one coordinate short."""
    t = [Fraction(0)] * (n - 1)
    nonzero = st.fractions(-9, 9, max_denominator=9)
    for i, c in draw(st.dictionaries(st.integers(0, n - 2), nonzero, max_size=6)).items():
        t[i] = c
    norm2 = sum(c * c for c in t)
    x = [2 * c / (1 + norm2) for c in t]
    x.insert(draw(st.integers(0, n - 1)), (1 - norm2) / (1 + norm2))
    defect = draw(st.sampled_from(("unit",) * 8 + ("non-unit", "short")))
    if defect == "non-unit":
        x = [2 * c for c in x]
    elif defect == "short":
        x = x[1:]
    rng = draw(st.randoms(use_true_random=False))
    return [_written(c, rng.choice(("int", "fraction", "str"))) for c in x]


def _outcome(check, system, pts):
    try:
        return check(system, pts)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pointwise_matches_fraction_oracle(data):
    system = data.draw(field_systems())
    pts = data.draw(st.lists(points(system.n), max_size=4))
    assert _outcome(verify_pointwise, system, pts) == _outcome(fraction_verify_pointwise, system, pts)


def test_pointwise_errors_and_first_failure_match_oracle():
    good = max_vector_fields(16)
    corrupted = VectorFieldSystem(16, good.sigma, (good.structures[0],) * 2 + good.structures[2:])
    unit = random_unit_points(16, 1, seed=3)[0]
    non_unit = [2 * c for c in unit]
    for system, pts, expected in [
        (good, [unit, non_unit], "ValueError: point is not a unit vector"),
        (good, [unit, unit[1:]], "ValueError: point dimension mismatch"),
        (good, [[1] + ["0"] * 14 + [Fraction(0)], unit], True),
        (corrupted, [unit, non_unit], False),
        (corrupted, [non_unit, unit], "ValueError: point is not a unit vector"),
        (corrupted, [unit[1:], unit], "ValueError: point dimension mismatch"),
    ]:
        assert _outcome(verify_pointwise, system, pts) == expected
        assert _outcome(fraction_verify_pointwise, system, pts) == expected


@pytest.mark.parametrize("n, digest", [
    (128, "065c71d4338f70855fd30e2c3d17635e06fbd1cfaa95a08cb5e9526b872a215f"),
    (96, "7363667328ef7c35f1f5f39ce4a270391dfd18db2654cffb9f664c71b36b78e7"),
])
def test_sphere_fields_output_is_unchanged(capsys, n, digest):
    """sha256 of `cliffsys sphere-fields --n N` as the Fraction-arithmetic
    check printed it."""
    assert main(["sphere-fields", "--n", str(n)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_validate_rejects_each_broken_system():
    good = max_vector_fields(16)
    js = good.structures
    identity = SignedPermMatrix.identity(16)
    for system, message in [
        (VectorFieldSystem(16, good.sigma + 1, js), "field count mismatch"),
        (VectorFieldSystem(32, good.sigma, js), r"matrices must act on R\^delta"),
        (VectorFieldSystem(16, good.sigma, (identity,) + js[1:]), "not a skew complex structure"),
        (VectorFieldSystem(16, good.sigma, (js[0],) * 2 + js[2:]), "do not anticommute"),
    ]:
        with pytest.raises(ValueError, match=message):
            system.validate()
    good.validate()
