import random

from hypothesis import given, settings, strategies as st

from cliffsys.clifford import build
from cliffsys.exactmat import SignedPermMatrix
from cliffsys.liealg import (
    MatrixSpan,
    bracket_closed,
    commutant_dim,
    normalizer_dim,
    span_dim,
    triple_span_decomposition,
)

from oracles import naive_commutant_dim, naive_normalizer_dim, naive_span_dim


def skew_part_family(rng, n, count):
    """Random skew signed perms (pairings with opposite signs)."""
    out = []
    while len(out) < count:
        pairs = list(range(n))
        rng.shuffle(pairs)
        perm = [0] * n
        signs = [0] * n
        for a, b in zip(pairs[::2], pairs[1::2]):
            s = rng.choice((1, -1))
            perm[a], signs[a] = b, s
            perm[b], signs[b] = a, -s
        out.append(SignedPermMatrix(n, tuple(perm), tuple(signs)))
    return out


def test_span_dims_of_proposition_families():
    assert span_dim(build(4).compositions()) == 10
    assert span_dim(build(5).compositions()) == 15
    assert span_dim(build(8).compositions()) == 36
    assert span_dim(build(9).compositions()) == 45


def test_span_dim_matches_naive_oracle():
    rng = random.Random(123)
    for _ in range(30):
        n = rng.choice((4, 6, 8, 12, 16))
        count = rng.randint(1, min(50, 2 * n))
        fam = skew_part_family(rng, n, count)
        assert span_dim(fam) == naive_span_dim(fam)


def test_bracket_closure_of_spin_families():
    gens = build(8).generators
    s_a = [gens[a].mul(gens[b]) for a in range(1, 8) for b in range(a + 1, 8)]
    s_b = [gens[a].mul(gens[b]) for a in range(8) for b in range(a + 1, 8)]
    assert len(s_a) == 21 and bracket_closed(s_a)
    assert len(s_b) == 28 and bracket_closed(s_b)


def test_abelian_pair_is_bracket_closed():
    gens = build(8).generators
    s01 = gens[0].mul(gens[1])
    s23 = gens[2].mul(gens[3])
    assert s01.commutes(s23)
    assert bracket_closed([s01, s23])


def test_not_closed_example():
    gens = build(8).generators
    # two non-commuting compositions whose bracket leaves the 2-dim span
    s01 = gens[0].mul(gens[1])
    s12 = gens[1].mul(gens[2])
    assert not MatrixSpan([s01, s12]).bracket_closed()


def test_contains():
    span = MatrixSpan(build(4).compositions())
    assert span.contains(build(4).composition(0, 3))
    assert span.contains(-build(4).composition(1, 2))


def test_echelon_is_deterministic():
    mats = build(8).compositions()
    a = MatrixSpan(mats)
    b = MatrixSpan(list(mats))
    assert a.rank == b.rank
    assert sorted(a._ech.pivots) == sorted(b._ech.pivots)
    for col in a._ech.pivots:
        assert a._ech.pivots[col] == b._ech.pivots[col]


def test_large_order_spans():
    # order-64 and order-128 composition families stay spin-sized and closed
    span10 = MatrixSpan(build(10).compositions())
    assert span10.rank == 55 and span10.bracket_closed()
    span11 = MatrixSpan(build(11).compositions())
    assert span11.rank == 66 and span11.bracket_closed()


def test_triple_span_decomposition():
    d36, d84, orthogonal, total = triple_span_decomposition()
    assert d36 == 36
    assert d84 == 84
    assert orthogonal
    assert total == 120 == 36 + 84


def test_commutant_dims():
    assert commutant_dim(build(2).generators) == 1
    assert commutant_dim(build(3).generators) == 3
    assert commutant_dim(build(8).generators) == 0


def test_normalizer_dims():
    assert normalizer_dim(build(2).generators) == 4
    assert normalizer_dim(build(3).generators) == 9
    assert normalizer_dim(build(4).generators) == 13
    assert normalizer_dim(build(5).generators) == 18
    assert normalizer_dim(build(8).generators) == 36


@st.composite
def signed_perm_families(draw):
    """1-3 signed permutation matrices of one order 2..6, of no particular
    symmetry; now and then one repeated, negated or not."""
    n = draw(st.integers(2, 6))
    matrix = st.builds(
        lambda perm, signs: SignedPermMatrix(n, tuple(perm), tuple(signs)),
        st.permutations(range(n)),
        st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
    )
    family = draw(st.lists(matrix, min_size=1, max_size=3))
    if draw(st.booleans()):
        p = draw(st.sampled_from(family))
        family.append(p if draw(st.booleans()) else -p)
    return family


@settings(max_examples=150, deadline=None)
@given(signed_perm_families())
def test_stabilizer_dims_match_dense_oracle(family):
    assert commutant_dim(family) == naive_commutant_dim(family)
    assert normalizer_dim(family) == naive_normalizer_dim(family)
