import pytest

from cliffsys.clifford import ESSENTIAL, NON_ESSENTIAL, UNDETERMINED, build
from cliffsys.evencliff import (
    _max_anticommuting,
    build_e10,
    classify,
    involution_span_obstruction,
    psi_d,
    tau4_psi_d,
)
from cliffsys.exactmat import SKEW_COMPLEX_STRUCTURE
from cliffsys.forms import kaehler_form, lie_action
from cliffsys.liealg import MatrixSpan


def test_e10_invariants():
    e10 = build_e10()
    e10.validate()
    assert e10.rank == 10 and e10.n == 32
    assert len(e10.pairwise_products()) == 45


def test_products_are_skew_complex_structures():
    e10 = build_e10()
    cplx = e10.complex_generators[0]
    for s in e10.symmetric_generators:
        assert cplx.mul(s).classify() == SKEW_COMPLEX_STRUCTURE


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
                  for s in (m, -m) if s.is_symmetric() and s.is_involution()]
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
