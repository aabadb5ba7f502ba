import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cliffsys.clifford import build
from cliffsys.exactmat import SignedPermMatrix, swap
from cliffsys.forms import (
    FormMatrix,
    KForm,
    _indices_from_mask,
    _sorted_terms,
    canonical_form,
    form_from_json,
    form_to_json,
    form_to_json_text,
    form_to_text,
    hodge_star,
    kaehler_form,
    kaehler_matrix,
    lie_action,
    parse_monomial_token,
    psi_matrix,
    tau,
)

from backends import dispatch_to
from oracles import (
    assert_clean, block_diag, brute_wedge_forms, naive_lie_action, perm_expansion_det)


def random_form(rng, n, k, terms=5, lo=-9, hi=9):
    acc = {}
    for _ in range(terms):
        idx = tuple(sorted(rng.sample(range(1, n + 1), k)))
        acc[idx] = acc.get(idx, 0) + rng.randint(lo, hi)
    return KForm.from_terms(n, k, acc.items())


def random_skew_spm(rng, n):
    # random signed permutation conjugate of a fixed complex structure
    pairs = list(range(n))
    rng.shuffle(pairs)
    perm = [0] * n
    signs = [0] * n
    for a, b in zip(pairs[::2], pairs[1::2]):
        s = rng.choice((1, -1))
        perm[a], signs[a] = b, s
        perm[b], signs[b] = a, -s
    return SignedPermMatrix(n, tuple(perm), tuple(signs))


def test_wedge_simple_monomials():
    e12 = KForm.monomial(4, (1, 2))
    e34 = KForm.monomial(4, (3, 4))
    assert e12.wedge(e34) == KForm.monomial(4, (1, 2, 3, 4))
    assert e12.wedge(e12).is_zero()


def test_wedge_graded_commutativity():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(4, 10)
        ka, kb = rng.randint(1, 3), rng.randint(1, 3)
        a, b = random_form(rng, n, ka), random_form(rng, n, kb)
        ab = a.wedge(b)
        ba = b.wedge(a)
        assert ab == ba.scale((-1) ** (ka * kb))


def test_wedge_matches_bruteforce_oracle(kernel_backends):
    for module in kernel_backends:
        rng = random.Random(43)
        with dispatch_to(module):
            for _ in range(60):
                n = rng.randint(3, 9)
                a = random_form(rng, n, rng.randint(1, 3))
                b = random_form(rng, n, rng.randint(1, 3))
                assert a.wedge(b) == brute_wedge_forms(a, b)


def test_wedge_associativity():
    rng = random.Random(44)
    for _ in range(25):
        n = rng.randint(5, 10)
        a, b, c = (random_form(rng, n, rng.randint(1, 2)) for _ in range(3))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_wedge_degree_above_ambient_is_zero():
    a = KForm.monomial(4, (1, 2, 3))
    b = KForm.monomial(4, (2, 3))
    out = a.wedge(b)
    assert out.is_zero() and out.k == 5


def test_wedge_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        KForm.monomial(4, (1, 2)).wedge(KForm.monomial(6, (1, 2)))


def test_wedge_square_matches_wedge(kernel_backends):
    for module in kernel_backends:
        rng = random.Random(45)
        with dispatch_to(module):
            for _ in range(30):
                n = rng.randint(4, 12)
                a = random_form(rng, n, 2)
                assert a.wedge_square() == a.wedge(a) == brute_wedge_forms(a, a)
            # the zero shortcut: odd degree, or twice the degree past n
            for n, k in ((3, 1), (7, 1), (6, 3), (9, 3), (3, 2)):
                a = random_form(rng, n, k)
                zero = KForm.zero(n, 2 * k)
                assert a.wedge_square() == a.wedge(a) == brute_wedge_forms(a, a) == zero
            constant = KForm(5, 0, {0: Fraction(-5, 2)})
            square = KForm(5, 0, {0: Fraction(25, 4)})
            assert constant.wedge_square() == constant.wedge(constant) == square


def test_kaehler_sign_convention_resolution():
    # the single free sign is pinned by the displayed composition form
    p0, p1 = build(4).generators[:2]
    r_i_on_r8 = p0.mul(p1)
    form = kaehler_form(r_i_on_r8)
    expected = KForm.from_terms(
        8, 2, [((1, 2), -1), ((3, 4), 1), ((5, 6), 1), ((7, 8), -1)]
    )
    assert form == expected


def test_kaehler_of_plane_rotation():
    n01 = SignedPermMatrix.from_dense([[0, -1], [1, 0]])
    assert kaehler_form(n01) == KForm.monomial(2, (1, 2), -1)


def test_kaehler_of_s08():
    gens = build(8).generators
    s08 = gens[0].mul(gens[8])
    form = kaehler_form(s08)
    expected = KForm.from_terms(16, 2, [((a, a + 8), -1) for a in range(1, 9)])
    assert form == expected


def test_kaehler_rejects_non_complex_structure():
    with pytest.raises(ValueError):
        kaehler_form(swap(2))


def test_tau_of_size_two_matrix_is_entry_square():
    rng = random.Random(46)
    phi = random_form(rng, 6, 2)
    psi = FormMatrix(2, 6, {(0, 1): phi})
    assert tau(psi, 2) == phi.wedge(phi)


def test_tau_zero_is_the_constant_one():
    # the sum over the one empty minor, whose determinant is 1
    rng = random.Random(53)
    psi = FormMatrix(3, 6, {(0, 1): random_form(rng, 6, 2), (1, 2): random_form(rng, 6, 2)})
    for matrix in (psi_matrix("C"), psi, FormMatrix(2, 4, {})):
        assert tau(matrix, 0) == KForm(matrix.n, 0, {0: 1})


def test_tau_rejects_odd_or_oversized_k():
    theta = kaehler_matrix(build(4).generators)
    with pytest.raises(ValueError):
        tau(theta, 3)
    with pytest.raises(ValueError):
        tau(theta, 6)


def test_tau_rejects_negative_k():
    for k in (-1, -2):
        with pytest.raises(ValueError, match=r"^k must be >= 0$"):
            tau(psi_matrix("C"), k)


def test_tau2_equals_sum_of_squares_random_matrices():
    rng = random.Random(47)
    for _ in range(10):
        size = rng.randint(2, 5)
        n = rng.randint(4, 8)
        upper = {
            (i, j): random_form(rng, n, 2, terms=3)
            for i in range(size)
            for j in range(i + 1, size)
        }
        psi = FormMatrix(size, n, upper)
        total = KForm.zero(n, 4)
        for (i, j), phi in psi.upper_items():
            total = total + phi.wedge(phi)
        assert tau(psi, 2) == total


@lru_cache(maxsize=None)
def psi_c_minor_by_permutations(rows):
    """The principal psi^C minor on `rows`, expanded over all permutations;
    computed once per run, since two tests check against it."""
    return perm_expansion_det(psi_matrix("C"), rows)


def test_tau4_pfaffian_path_matches_permutation_expansion():
    psi_c = psi_matrix("C")
    for rows in combinations(range(9), 4):
        got = tau(FormMatrix(4, 16, {
            (a, b): psi_c.entry(rows[a], rows[b])
            for a in range(4)
            for b in range(a + 1, 4)
        }), 4)
        assert got == psi_c_minor_by_permutations(rows), rows


def test_hodge_star_basics():
    e1234 = KForm.monomial(8, (1, 2, 3, 4))
    assert hodge_star(e1234) == KForm.monomial(8, (5, 6, 7, 8))
    rng = random.Random(48)
    for _ in range(30):
        n = rng.randint(2, 10)
        k = rng.randint(0, n)
        a = random_form(rng, n, k) if k else KForm(n, 0, {0: rng.randint(1, 5)})
        assert hodge_star(hodge_star(a)) == a.scale((-1) ** (k * (n - k)))


def test_psi_matrix_shapes():
    for family, size in (("A", 7), ("B", 8), ("C", 9)):
        psi = psi_matrix(family)
        assert psi.size == size and psi.n == 16
    psi_c = psi_matrix("C")
    assert len(list(psi_c.upper_items())) == 36
    assert psi_c.entry(4, 4).is_zero()
    assert psi_c.entry(2, 1) == -psi_c.entry(1, 2)
    with pytest.raises(ValueError):
        psi_matrix("D")


def test_canonical_form_names_and_contents():
    spin9 = canonical_form("Spin9")
    assert spin9.k == 8 and spin9.n == 16
    assert spin9.content() == 1
    spin8 = canonical_form("Spin8")
    assert spin8.content() == 1 and spin8.num_terms() == 112
    omega = canonical_form("OmegaL")
    assert omega.content() == 2
    with pytest.raises(ValueError):
        canonical_form("Spin10")


def test_spin9_form_equals_tau4_over_360():
    assert canonical_form("Spin9") == tau(psi_matrix("C"), 4).scale(Fraction(1, 360))


def test_spin9_monomial_count_against_permutation_expansion():
    total = KForm.zero(16, 8)
    for rows in combinations(range(9), 4):
        total = total + psi_c_minor_by_permutations(rows)
    spin9 = canonical_form("Spin9")
    assert total == spin9.scale(360)
    assert spin9.num_terms() == total.num_terms() == 702


def test_lie_action_rotation_invariance_of_area():
    n01 = SignedPermMatrix.from_dense([[0, -1], [1, 0]])
    assert lie_action(n01, KForm.monomial(2, (1, 2))).is_zero()


def test_lie_action_is_a_derivation():
    rng = random.Random(49)
    for _ in range(20):
        n = rng.randint(4, 8)
        x = random_skew_spm(rng, n if n % 2 == 0 else n + 1)
        if x.n != n:
            n = x.n
        a = random_form(rng, n, rng.randint(1, 2))
        b = random_form(rng, n, rng.randint(1, 2))
        lhs = lie_action(x, a.wedge(b))
        rhs = lie_action(x, a).wedge(b) + a.wedge(lie_action(x, b))
        assert lhs == rhs


def test_lie_action_matches_naive_oracle(kernel_backends):
    for module in kernel_backends:
        rng = random.Random(50)
        with dispatch_to(module):
            for _ in range(80):
                n = rng.choice((2, 4, 6, 8))
                if rng.random() < 0.5:
                    x = random_skew_spm(rng, n)
                else:
                    perm = list(range(n))
                    rng.shuffle(perm)
                    signs = tuple(rng.choice((1, -1)) for _ in range(n))
                    x = SignedPermMatrix(n, tuple(perm), signs)
                k = rng.randint(0, min(4, n))
                a = random_form(rng, n, k)
                if rng.random() < 0.5:
                    a = a + random_form(rng, n, k).scale(Fraction(1, rng.randint(2, 7)))
                assert lie_action(x, a) == naive_lie_action(x.dense(), a)


def test_invariance_of_canonical_forms_under_their_families():
    gens = build(8).generators
    spin7 = canonical_form("Spin7Delta")
    spin8 = canonical_form("Spin8")
    spin9 = canonical_form("Spin9")
    for a in range(1, 8):
        for b in range(a + 1, 8):
            assert lie_action(gens[a].mul(gens[b]), spin7).is_zero()
    for a in range(8):
        for b in range(a + 1, 8):
            assert lie_action(gens[a].mul(gens[b]), spin8).is_zero()
    for a in range(9):
        for b in range(a + 1, 9):
            assert lie_action(gens[a].mul(gens[b]), spin9).is_zero()


def test_omega_l_is_sum_of_left_multiplication_squares():
    from cliffsys.algebras import left_mult

    total = KForm.zero(8, 4)
    for u in ("i", "j", "k"):
        lu = left_mult(u, 4)
        omega = kaehler_form(block_diag([lu, lu]))
        total = total + omega.wedge(omega)
    assert canonical_form("OmegaL") == total


def test_restrict():
    a = KForm.from_terms(16, 2, [((1, 2), 3), ((1, 9), 5), ((9, 10), 7)])
    first = a.restrict(range(1, 9))
    second = a.restrict(range(9, 17))
    assert first == KForm.monomial(8, (1, 2), 3)
    assert second == KForm.monomial(8, (1, 2), 7)
    with pytest.raises(ValueError):
        a.restrict([3, 2, 1])


def test_short_notation_round_trip():
    assert form_to_text(KForm.monomial(16, (1, 2, 11, 12), 1)) == "s123'4'"
    assert parse_monomial_token("s123'4'") == (1, 2, 11, 12)
    assert parse_monomial_token("121'2'") == (1, 2, 9, 10)
    form = KForm.from_terms(16, 2, [((1, 10), Fraction(-3, 2))])
    assert form_to_text(form) == "- 3/2*s12'"
    assert form_to_text(KForm.zero(4, 2)) == "0"


def test_form_json_round_trip(kernel_backends):
    rng = random.Random(51)
    for _ in range(25):
        n = rng.randint(3, 12)
        a = random_form(rng, n, rng.randint(1, 3)).scale(Fraction(1, rng.randint(1, 5)))
        data = form_to_json(a)
        assert data["terms"] == sorted(data["terms"], key=lambda t: t["idx"])
        for module in kernel_backends:
            with dispatch_to(module):
                assert form_from_json(data) == a
    spin9 = canonical_form("Spin9")
    for module in kernel_backends:
        with dispatch_to(module):
            assert form_from_json(form_to_json(spin9)) == spin9


@pytest.mark.parametrize(
    "form",
    [
        pytest.param(lambda: canonical_form("Spin9"), id="Spin9"),
        pytest.param(lambda: canonical_form("Spin8"), id="Spin8"),
        pytest.param(lambda: canonical_form("Spin7Delta"), id="Spin7Delta"),
        pytest.param(lambda: canonical_form("OmegaL"), id="OmegaL"),
        pytest.param(lambda: KForm.zero(16, 8), id="zero"),
        pytest.param(lambda: KForm(3, 0, {0: Fraction(-5, 2)}), id="degree-0"),
        pytest.param(
            lambda: random_form(random.Random(52), 12, 3).scale(Fraction(-2, 3)), id="random"
        ),
    ],
)
def test_form_json_text_matches_json_dumps(form, kernel_backends):
    a = form()
    for module in kernel_backends:
        with dispatch_to(module):
            assert form_to_json_text(a) == json.dumps(form_to_json(a), indent=2) + "\n"


def wire(terms, n=4, k=2):
    return {"N": n, "k": k, "terms": [{"idx": idx, "c": c} for idx, c in terms]}


ILL_FORMED_FORM_JSON = [
    pytest.param(wire([([1, 2], "1"), ([1, 2], "2")]), id="duplicate-idx"),
    pytest.param(wire([([1, 2], "1"), ([1, 2], "0")]), id="duplicate-idx-zero"),
    *(
        pytest.param(wire([([1, 2], c)]), id=f"coefficient-{c!r}")
        for c in (
            "1.5", "2.0", ".5", "1e3", "1E3", " 3", "3 ", "\t3", "+3", "1_000", "03", "-0",
            "\u0663", "6/4", "3/1", "-3/1", "0/5", "3/-4", "-3/-4", "3/04", "03/4",
            "3 /4", "3/ 4", "+3/4", "1/0", "3/", "/4", "", "-", "abc", "1/2/3",
            3, 1.5, None, True, [1],
        )
    ),
    pytest.param(wire([([True, 2], "1")]), id="bool-index"),
    pytest.param(wire([([1.0, 2], "1")]), id="float-index"),
    pytest.param(wire([(["1", 2], "1")]), id="string-index"),
    pytest.param(wire([([None, 2], "1")]), id="null-index"),
    pytest.param(wire([([[1], 2], "1")]), id="list-index"),
    pytest.param(wire([([0, 2], "1")]), id="index-0"),
    pytest.param(wire([([1, 5], "1")]), id="index-past-N"),
    pytest.param(wire([([-1, 2], "1")]), id="negative-index"),
    pytest.param(wire([([2, 1], "1")]), id="decreasing"),
    pytest.param(wire([([2, 2], "1")]), id="repeated-index"),
    pytest.param(wire([([1, 2, 3], "1")]), id="wrong-degree"),
    pytest.param(wire([((1, 2), "1")]), id="idx-not-a-list"),
    pytest.param(wire([("12", "1")]), id="idx-a-string"),
    pytest.param({"N": 4, "k": 2, "terms": [{"idx": [1, 2]}]}, id="no-c"),
    pytest.param({"N": 4, "k": 2, "terms": [{"c": "1"}]}, id="no-idx"),
    pytest.param({"N": 4, "k": 2, "terms": [[[1, 2], "1"]]}, id="term-not-an-object"),
    pytest.param({"N": 4, "k": 2, "terms": {}}, id="terms-not-a-list"),
    pytest.param({"N": 4, "k": 2}, id="no-terms"),
    pytest.param({"k": 2, "terms": []}, id="no-N"),
    pytest.param([4, 2, []], id="not-an-object"),
    *(
        pytest.param(wire([], n=n, k=k), id=f"N={n!r}-k={k!r}")
        for n, k in (
            (4.0, 2), ("4", 2), (True, 0), (None, 2), (0, 0), (-4, 2),
            (4, 2.0), (4, "2"), (4, True), (4, None), (4, -2),
        )
    ),
]


@pytest.mark.parametrize("data", ILL_FORMED_FORM_JSON)
def test_form_from_json_rejects_ill_formed_input(data, kernel_backends):
    messages = set()
    for module in kernel_backends:
        with dispatch_to(module), pytest.raises(ValueError) as exc:
            form_from_json(data)
        messages.add(str(exc.value))
    assert len(messages) == 1


def test_form_from_json_accepts_canonical_input(kernel_backends):
    data = wire([([2, 4], "-3/4"), ([1, 2], "12"), ([1, 3], "0"), ([3, 4], "-1")])
    integral = wire([([2, 4], "-3"), ([1, 2], "12"), ([1, 3], "0"), ([3, 4], "-1")])
    for module in kernel_backends:
        with dispatch_to(module):
            form = form_from_json(data)
            assert form == KForm.from_terms(
                4, 2, [((1, 2), 12), ((2, 4), Fraction(-3, 4)), ((3, 4), -1)]
            )
            assert form_from_json(integral) == KForm.from_terms(
                4, 2, [((1, 2), 12), ((2, 4), -3), ((3, 4), -1)]
            )
            assert form_from_json(wire([], n=3, k=5)) == KForm.zero(3, 5)
            assert form_from_json(wire([([], "7")], n=1, k=0)) == KForm(1, 0, {0: 7})


@st.composite
def forms(draw, n=None, k=None, integral=False):
    """Forms on R^n, n up to 70 so that masks pass 64 bits, of any degree
    with integer or rational coefficients; empty ones included.  `n` and
    `k` fix the space, `integral` allows integer coefficients only."""
    n = draw(st.integers(1, 70)) if n is None else n
    k = draw(st.integers(0, min(n, 6))) if k is None else k
    coefficient = st.integers(-(10**30), 10**30)
    if not integral:
        coefficient = st.one_of(coefficient, st.fractions(max_denominator=10**12))
    monomial = st.frozensets(st.integers(1, n), min_size=k, max_size=k)
    terms = draw(st.dictionaries(monomial, coefficient, max_size=12))
    return KForm(n, k, {sum(1 << (i - 1) for i in s): c for s, c in terms.items()})


@settings(max_examples=200, deadline=None)
@given(forms())
def test_form_wire_format_property(kernel_backends, a):
    for module in kernel_backends:
        with dispatch_to(module):
            text = form_to_json_text(a)
            assert text == json.dumps(form_to_json(a), indent=2) + "\n"
            back = form_from_json(json.loads(text))
        assert back == a
        assert_clean(back)


@settings(max_examples=200, deadline=None)
@given(forms())
def test_sorted_masks_are_in_lexicographic_order(a):
    masks = [m for m, _ in a.mask_items()]
    width = (a.n + 7) // 8
    by_tuple = sorted(masks, key=_indices_from_mask)
    assert [m for m, _ in _sorted_terms(a.mask_items(), width)] == by_tuple
    assert [idx for idx, _ in a.terms()] == [_indices_from_mask(m) for m in by_tuple]
    assert [c for _, c in a.terms()] == [dict(a.mask_items())[m] for m in by_tuple]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_linear_structure_is_clean(data):
    integral = data.draw(st.booleans())
    a = data.draw(forms(integral=integral))
    b = data.draw(st.one_of(forms(a.n, a.k, integral), st.just(-a), st.just(a)))
    c = data.draw(st.one_of(
        st.integers(-(10**6), 10**6), st.fractions(max_denominator=10**6),
    ))
    for form in (a + b, a - b, a.scale(c), -a):
        assert_clean(form)
    as_fractions = {m: Fraction(v) for m, v in b.mask_items()}
    assert a == KForm(a.n, a.k, dict(a.mask_items())) == (a + b) - b
    assert (a == b) == ({m: Fraction(v) for m, v in a.mask_items()} == as_fractions)
    assert b == KForm(b.n, b.k, as_fractions)
    assert a.scale(c) == KForm(a.n, a.k, {m: v * c for m, v in a.mask_items()})


def test_scalar_arithmetic_and_content():
    a = KForm.from_terms(4, 2, [((1, 2), 4), ((3, 4), -6)])
    assert a.content() == 2
    half = a.scale(Fraction(1, 2))
    assert half.coefficient((1, 2)) == 2
    third = a.scale(Fraction(1, 3))
    with pytest.raises(ValueError):
        third.content()
    assert (a - a).is_zero()
    assert (-a) + a == KForm.zero(4, 2)


ONE_FORM = KForm(4, 1, {1: 1, 2: Fraction(1, 2)})


@pytest.mark.parametrize("make, error", [
    pytest.param(lambda: KForm(4, 1, {-1: 1}), ValueError, id="negative-mask"),
    pytest.param(lambda: KForm(4, 1, {True: 1}), ValueError, id="bool-mask"),
    pytest.param(lambda: KForm(4, 1, {1.0: 1}), ValueError, id="float-mask"),
    pytest.param(lambda: KForm(True, 1, {1: Fraction(1, 2)}), ValueError, id="bool-n"),
    pytest.param(lambda: KForm(4.0, 1, {1: 1}), ValueError, id="float-n"),
    pytest.param(lambda: KForm(4, True, {1: 1}), ValueError, id="bool-k"),
    pytest.param(lambda: KForm(4, 1.0, {1: 1}), ValueError, id="float-k"),
    pytest.param(lambda: KForm(4, 1, {1: 0.5}), TypeError, id="float-coefficient"),
    pytest.param(lambda: KForm(4, 1, {2: True}), TypeError, id="bool-coefficient"),
    pytest.param(lambda: KForm(4, 1, {2: "1"}), TypeError, id="string-coefficient"),
    pytest.param(lambda: ONE_FORM.scale(0.1), TypeError, id="float-scale"),
    pytest.param(lambda: ONE_FORM.scale(True), TypeError, id="bool-scale"),
    pytest.param(lambda: True * ONE_FORM, TypeError, id="bool-times-form"),
    pytest.param(lambda: ONE_FORM * 0.5, TypeError, id="form-times-float"),
])
def test_checking_constructor_takes_only_what_the_wire_format_carries(make, error):
    with pytest.raises(error):
        make()
    # what it does take goes through the wire format and back
    assert form_from_json(json.loads(form_to_json_text(ONE_FORM))) == ONE_FORM
