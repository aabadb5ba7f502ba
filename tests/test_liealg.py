import random
from itertools import chain, combinations, permutations, product
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from cliffsys.clifford import build
from cliffsys.exactmat import SignedPermMatrix, pairwise_products
from cliffsys.liealg import (
    MatrixSpan,
    _SignedClasses,
    commutant_dim,
    normalizer_dim,
    triple_span_decomposition,
)

from oracles import (
    dense_mul,
    naive_bracket_closed,
    naive_commutant_dim,
    naive_normalizer_dim,
    naive_span_dim,
)


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
    assert MatrixSpan(pairwise_products(build(4).generators)).rank == 10
    assert MatrixSpan(pairwise_products(build(5).generators)).rank == 15
    assert MatrixSpan(pairwise_products(build(8).generators)).rank == 36
    assert MatrixSpan(pairwise_products(build(9).generators)).rank == 45


def test_span_dim_matches_naive_oracle():
    rng = random.Random(123)
    for _ in range(30):
        n = rng.choice((4, 6, 8, 12, 16))
        count = rng.randint(1, min(50, 2 * n))
        fam = skew_part_family(rng, n, count)
        assert MatrixSpan(fam).rank == naive_span_dim(fam)


def test_bracket_closure_of_spin_families():
    gens = build(8).generators
    s_a = [gens[a].mul(gens[b]) for a in range(1, 8) for b in range(a + 1, 8)]
    s_b = [gens[a].mul(gens[b]) for a in range(8) for b in range(a + 1, 8)]
    assert len(s_a) == 21 and MatrixSpan(s_a).bracket_closed()
    assert len(s_b) == 28 and MatrixSpan(s_b).bracket_closed()


def test_abelian_pair_is_bracket_closed():
    gens = build(8).generators
    s01 = gens[0].mul(gens[1])
    s23 = gens[2].mul(gens[3])
    assert s01.commutes(s23)
    assert MatrixSpan([s01, s23]).bracket_closed()


def test_not_closed_example():
    gens = build(8).generators
    # two non-commuting compositions whose bracket leaves the 2-dim span
    s01 = gens[0].mul(gens[1])
    s12 = gens[1].mul(gens[2])
    assert not MatrixSpan([s01, s12]).bracket_closed()


def skew_signed_perms(n):
    """Every skew signed permutation of order n: a fixed-point-free
    involution of the basis, with a sign on each of its pairs."""
    out = []
    for perm in permutations(range(n)):
        if any(perm[a] == a or perm[perm[a]] != a for a in range(n)):
            continue
        lows = [a for a in range(n) if a < perm[a]]
        for flips in product((1, -1), repeat=len(lows)):
            signs = [0] * n
            for a, s in zip(lows, flips):
                signs[a], signs[perm[a]] = s, -s
            out.append(SignedPermMatrix(n, perm, tuple(signs)))
    return out


def test_bracket_closure_where_pairs_neither_commute_nor_anticommute():
    """On R^6 the skew signed permutations that commute with the complex
    structure K, of pairs (0 1)(2 3)(4 5), span u(3), which is closed; K and
    one of pairs (0 1)(2 4)(3 5) span a plane that is not, though the upper
    triangle of AB + BA lies in it.  In both families some pairs neither
    commute nor anticommute, so their brackets are read from AB and BA."""
    k = SignedPermMatrix(6, (1, 0, 3, 2, 5, 4), (1, -1, 1, -1, 1, -1))
    crossed = SignedPermMatrix(6, (1, 0, 4, 5, 2, 3), (1, -1, 1, -1, -1, 1))
    u3 = [x for x in skew_signed_perms(6) if x.commutes(k)]
    assert len(u3) == 32 and MatrixSpan(u3).rank == 9
    for family, closed in [(u3, True), ([k, crossed], False)]:
        assert any(a._commutation_sign(b) == 0 for a, b in combinations(family, 2))
        assert naive_bracket_closed(family) == closed
        assert MatrixSpan(family).bracket_closed() == closed


def test_contains():
    gens = build(4).generators
    span = MatrixSpan(pairwise_products(build(4).generators))
    assert span.contains(gens[0].mul(gens[3]))
    assert span.contains(-gens[1].mul(gens[2]))


def test_echelon_is_deterministic():
    mats = pairwise_products(build(8).generators)
    a = MatrixSpan(mats)
    b = MatrixSpan(list(mats))
    assert a.rank == b.rank
    assert sorted(a._ech.pivots) == sorted(b._ech.pivots)
    for col in a._ech.pivots:
        assert a._ech.pivots[col] == b._ech.pivots[col]


def test_large_order_spans():
    # order-64 and order-128 composition families stay spin-sized and closed
    span10 = MatrixSpan(pairwise_products(build(10).generators))
    assert span10.rank == 55 and span10.bracket_closed()
    span11 = MatrixSpan(pairwise_products(build(11).generators))
    assert span11.rank == 66 and span11.bracket_closed()


def test_triple_span_decomposition():
    d36, d84, orthogonal, total = triple_span_decomposition(build(8).generators)
    assert d36 == 36
    assert d84 == 84
    assert orthogonal
    assert total == 120 == 36 + 84


# m: (pair span, triple span, trace-orthogonal, rank of the union)
DECOMPOSITIONS = {
    1: (1, 0, True, 1),
    2: (3, 1, True, 4),
    3: (6, 4, True, 10),
    4: (10, 10, False, 10),
    5: (15, 20, True, 35),
    6: (21, 35, True, 56),
    7: (28, 56, True, 84),
    8: (36, 84, True, 120),
    9: (45, 120, True, 165),
}


@pytest.mark.parametrize("m", sorted(DECOMPOSITIONS))
def test_triple_span_decomposition_of_each_system(m):
    gens = build(m).generators
    assert triple_span_decomposition(gens) == DECOMPOSITIONS[m]
    # the same four numbers from dense products and dense row reduction
    dense = [g.dense() for g in gens]
    pairs = [dense_mul(a, b) for a, b in combinations(dense, 2)]
    triples = [dense_mul(dense_mul(a, b), c) for a, b, c in combinations(dense, 3)]
    orthogonal = all(
        sum(map(mul, chain(*p), chain(*t))) == 0 for p in pairs for t in triples
    )
    spans = [naive_span_dim([SignedPermMatrix.from_dense(d) for d in mats])
             for mats in (pairs, triples, pairs + triples)]
    assert DECOMPOSITIONS[m] == (spans[0], spans[1], orthogonal, spans[2])


# the stabilizer dimensions of C_1..C_16; past m = 12 they need --runslow
COMMUTANT_DIMS = (0, 1, 3, 3, 3, 1, 0, 0, 0, 1, 3, 3, 3, 1, 0, 0)
NORMALIZER_DIMS = (1, 4, 9, 13, 18, 22, 28, 36, 45, 56, 69, 81, 94, 106, 120, 136)
STABILIZER_DIMS = [
    pytest.param(m, c, d, marks=[pytest.mark.slow] if m > 12 else [], id=str(m))
    for m, c, d in zip(range(1, 17), COMMUTANT_DIMS, NORMALIZER_DIMS)
]


@pytest.mark.parametrize("m, commutant, normalizer", STABILIZER_DIMS)
def test_commutant_dims(m, commutant, normalizer):
    assert commutant_dim(build(m).generators) == commutant


@pytest.mark.parametrize("m, commutant, normalizer", [
    (9, 0, 45),
    (10, 1, 56),
    (11, 3, 69),
    pytest.param(12, 3, 81, marks=pytest.mark.slow),
])
def test_stabilizer_dims_of_large_systems(m, commutant, normalizer):
    gens = build(m).generators
    assert commutant_dim(gens) == commutant
    assert normalizer_dim(gens) == normalizer


def test_normalizer_depends_only_on_the_span():
    ident = SignedPermMatrix.identity(2)
    assert normalizer_dim([ident]) == normalizer_dim([ident, ident]) == 1
    assert normalizer_dim([ident, -ident]) == 1
    gens = list(build(3).generators)
    assert normalizer_dim(gens) == 9
    assert normalizer_dim(gens + [gens[0]]) == 9
    assert normalizer_dim(gens + [-gens[0]]) == 9
    assert normalizer_dim(gens + [gens[2], gens[1]]) == 9


def test_span_rejects_matrices_that_are_not_skew():
    with pytest.raises(ValueError, match="not skew"):
        MatrixSpan(build(3).generators)
    span = MatrixSpan(pairwise_products(build(3).generators))
    with pytest.raises(ValueError, match="not skew"):
        span.contains(build(3).generators[0])
    with pytest.raises(ValueError, match="not skew"):
        MatrixSpan([SignedPermMatrix.identity(4)])


def test_merging_two_zero_classes_adds_no_rank():
    classes = _SignedClasses(3)
    classes.union(0, 0, -1)  # 2 x_0 = 0
    classes.union(1, 1, -1)  # 2 x_1 = 0
    assert classes.rank == 2
    classes.union(0, 1, 1)
    assert classes.rank == 2
    classes.union(2, 0, -1)  # a free class joins a zero one
    assert classes.rank == 3
    assert classes.substitute({0: 1, 1: 2, 2: 3}) == {}


@pytest.mark.parametrize("m, commutant, normalizer", STABILIZER_DIMS)
def test_normalizer_dims(m, commutant, normalizer):
    # beyond the commutant, the normalizer holds the m(m+1)/2 products P_a P_b, a < b
    assert normalizer - commutant == m * (m + 1) // 2
    assert normalizer_dim(build(m).generators) == normalizer


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


# Conjugation by diag(1, -1, 1, -1) forces x_01 and x_23 to zero, and the
# swap (0 2)(1 3) then merges those two zero classes (in this order only).
ZERO_MERGE = [
    SignedPermMatrix(4, (0, 1, 2, 3), (1, -1, 1, -1)),
    SignedPermMatrix(4, (2, 3, 0, 1), (1, 1, 1, 1)),
]


@st.composite
def structured_families(draw):
    """1-4 matrices of order up to 16: skew complex structures, or up to
    three generators of one of C_1..C_8 in any order; now and then one of
    them repeated or negated."""
    if draw(st.booleans()):
        n = draw(st.sampled_from((2, 4, 8, 16)))
        family = skew_part_family(random.Random(draw(st.integers(0, 2**32))), n,
                                  draw(st.integers(1, 3)))
    else:
        gens = build(draw(st.integers(1, 8))).generators
        family = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        p = draw(st.sampled_from(family))
        family.append(p if draw(st.booleans()) else -p)
    return family


@settings(max_examples=20, deadline=None)
@given(structured_families())
@example(ZERO_MERGE)
@example(ZERO_MERGE[::-1])
@example(build(8).generators[:3])
def test_structured_stabilizer_dims_match_dense_oracle(family):
    assert commutant_dim(family) == naive_commutant_dim(family)
    assert normalizer_dim(family) == naive_normalizer_dim(family)
