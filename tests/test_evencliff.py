import pytest

from cliffsys.clifford import ESSENTIAL, NON_ESSENTIAL, UNDETERMINED, build
from cliffsys.evencliff import (
    EvenCliffordStructure,
    _max_anticommuting,
    build_e10,
    classify,
    involution_span_obstruction,
    psi_d,
    tau4_psi_d,
)
from cliffsys.exactmat import SignedPermMatrix
from cliffsys.forms import kaehler_form, lie_action
from cliffsys.liealg import MatrixSpan

from oracles import dense_symmetry


def test_e10_invariants():
    e10 = build_e10()
    e10.validate()
    assert e10.rank == 10 and e10.n == 32
    assert len(e10.pairwise_products()) == 45


@pytest.mark.parametrize("rank, n, message", [
    (12, 32, r"rank 12 != 10 generators"),
    (10, 64, r"generators must act on R\^64"),
])
def test_validate_checks_rank_and_order(rank, n, message):
    e10 = build_e10()
    structure = EvenCliffordStructure(rank, n, e10.complex_generators, e10.symmetric_generators)
    with pytest.raises(ValueError, match=message):
        structure.validate()


# a change to the complex and symmetric generators (c, s) of build_e10() that
# breaks one relation, and the refusal of validate()
BROKEN_E10 = [
    pytest.param(lambda c, s: ((SignedPermMatrix.identity(32),), s),
                 r"complex generator 0 invalid", id="complex-not-a-complex-structure"),
    pytest.param(lambda c, s: (c, s[:3] + (c[0].mul(s[3]),) + s[4:]),
                 r"symmetric generator 3 invalid", id="symmetric-not-an-involution"),
    pytest.param(lambda c, s: ((s[0].mul(s[1]),), s),
                 r"complex part must commute with involutions", id="complex-not-commuting"),
    pytest.param(lambda c, s: (c, s[:1] + s[:1] + s[2:]),
                 r"involutions 0, 1 do not anticommute", id="involutions-commuting"),
    pytest.param(lambda c, s: (c + c, s),
                 r"a pairwise product is not skew", id="complex-product-not-skew"),
]


@pytest.mark.parametrize("change, message", BROKEN_E10)
def test_validate_refuses_each_broken_relation(change, message):
    e10 = build_e10()
    cplx, sym = change(e10.complex_generators, e10.symmetric_generators)
    structure = EvenCliffordStructure(len(cplx) + len(sym), 32, cplx, sym)
    with pytest.raises(ValueError, match=message):
        structure.validate()


def test_products_are_skew_complex_structures():
    e10 = build_e10()
    cplx = e10.complex_generators[0]
    for s in e10.symmetric_generators:
        product = cplx.mul(s)
        assert dense_symmetry(product.dense()) == -1 and product.is_complex_structure()


def test_product_span_is_45_dim_and_closed():
    span = MatrixSpan(build_e10().pairwise_products())
    assert span.rank == 45
    assert span.bracket_closed()


def test_alternating_rule_at_the_form_level():
    # ordered pairs alternate: the array is skew in every slot, and for the
    # anticommuting involution pairs the rule is a genuine matrix identity
    psi = psi_d()
    for i in range(10):
        for j in range(10):
            assert psi.entry(j, i) == -psi.entry(i, j)
    gens16 = build(8).generators
    for a in range(9):
        for b in range(a + 1, 9):
            assert kaehler_form(gens16[a].mul(gens16[b])) == -kaehler_form(
                gens16[b].mul(gens16[a])
            )


def test_psi_d_shape_and_doubling():
    psi = psi_d()
    assert psi.size == 10 and psi.n == 32
    assert len(list(psi.upper_items())) == 45
    # the (S_0, S_1) entry restricts to the 16-dim form on both halves
    gens16 = build(8).generators
    psi01 = kaehler_form(gens16[0].mul(gens16[1]))
    entry = psi.entry(1, 2)
    assert entry.restrict(range(1, 17)) == psi01
    assert entry.restrict(range(17, 33)) == psi01


def test_involution_span_obstruction():
    assert involution_span_obstruction()


def test_anticommuting_search_finds_the_largest_family():
    # the search reaches 10 where ten exist: the generators of C_9
    assert _max_anticommuting(list(build(9).generators)) == 10
    # the rank-10 candidates are the 18 matrices +-S_alpha: 9 up to sign
    e10 = build_e10()
    candidates = [s for m in list(e10.generators()) + e10.pairwise_products()
                  for s in (m, -m) if dense_symmetry(s.dense()) == 1]
    sym = e10.symmetric_generators
    assert len(candidates) == 18
    assert set(candidates) == set(sym) | {-s for s in sym}
    assert _max_anticommuting(candidates) == 9


def test_classify_records():
    assert classify(10).verdict == ESSENTIAL
    assert classify(12).verdict == ESSENTIAL
    assert classify(16).verdict == ESSENTIAL
    assert classify(9).verdict == NON_ESSENTIAL
    assert classify(4).verdict == ESSENTIAL  # rank 4 = m 3
    assert classify(2).verdict == UNDETERMINED
    with pytest.raises(ValueError):
        classify(1)


@pytest.mark.slow
def test_tau4_psi_d_nonzero_and_invariant():
    t4 = tau4_psi_d()
    assert not t4.is_zero()
    assert t4.k == 8 and t4.n == 32
    assert t4.content() >= 1
    e10 = build_e10()
    for x in e10.pairwise_products():
        assert lie_action(x, t4).is_zero()
    assert lie_action(e10.complex_generators[0], t4).is_zero()
