from fractions import Fraction

import pytest

from cliffsys.algebras import (
    OCTONION_LABELS,
    algebra_table,
    left_mult,
    right_mult,
    spin9_symmetric,
)
from cliffsys.exactmat import RationalMatrix, SignedPermMatrix, antidiag, cross, swap, diag_split
from cliffsys.spheres import random_unit_points

from oracles import (
    dense_mul,
    dense_right_mult,
    dense_spin9,
    dense_symmetry,
    octonion_conjugate,
    spin9_blocks,
)

ID4 = SignedPermMatrix.identity(4)
ID8 = SignedPermMatrix.identity(8)
IMAGINARY = OCTONION_LABELS[1:]


def test_right_mult_e_is_half_swap():
    assert right_mult("e", 8) == SignedPermMatrix.from_dense([
        [0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, 0, 0, -1],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
    ])


def test_right_mult_unit_is_identity():
    assert right_mult("1", 8) == ID8
    assert left_mult("1", 4) == ID4
    assert left_mult("1", 8) == ID8


def test_right_mult_f_uses_left_quaternionic_block():
    li = SignedPermMatrix.from_dense(  # L^H_i, as displayed
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    )
    assert right_mult("f", 8) == cross(li)


def test_displayed_left_quaternion_multiplications():
    assert left_mult("i", 4) == SignedPermMatrix.from_dense(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    )
    assert left_mult("j", 4) == SignedPermMatrix.from_dense(
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    )
    assert left_mult("k", 4) == SignedPermMatrix.from_dense(
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    )


def test_left_mult_on_j_gives_k():
    # column of e_j in L_i is the product i*j = k
    li = left_mult("i", 8)
    target, sign = li.apply(OCTONION_LABELS.index("j"))
    assert (target, sign) == (OCTONION_LABELS.index("k"), 1)


def test_unknown_labels_rejected():
    with pytest.raises(ValueError):
        right_mult("x", 8)
    with pytest.raises(ValueError):
        left_mult("e", 4)
    with pytest.raises(ValueError):
        right_mult("i", 16)
    # a label outside the subalgebra R, C, H or O, and a dim that is none of them
    for mult in (right_mult, left_mult):
        for dim, u in ((1, "i"), (2, "j"), (4, "e"), (8, "q")):
            with pytest.raises(ValueError, match=f"^unknown basis label '{u}'$"):
                mult(u, dim)
        for dim in (0, 3, 16):
            with pytest.raises(ValueError, match="dim must be 1, 2, 4 or 8"):
                mult("1", dim)


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_multiplications_restrict_to_the_subalgebras(dim):
    """R, C, H, O: x*u and u*x read off the dim-dimensional table."""
    tab = algebra_table(dim)
    for iu, u in enumerate(OCTONION_LABELS[:dim]):
        right, left = right_mult(u, dim), left_mult(u, dim)
        assert right.n == left.n == dim
        for a in range(dim):
            assert right.apply(a) == tab.table[(a, iu)]
            assert left.apply(a) == tab.table[(iu, a)]


def test_table_unit_and_norm():
    tab = algebra_table(8)
    for a in range(8):
        assert tab.table[(0, a)] == (a, 1)
        assert tab.table[(a, 0)] == (a, 1)
    grid = tab.text_grid()
    assert "-1" in grid and grid.count("\n") == 9


def test_imaginary_multiplications_are_skew_complex_structures():
    for u in IMAGINARY:
        for mat in (right_mult(u, 8), left_mult(u, 8)):
            assert dense_symmetry(mat.dense()) == -1
            assert mat.mul(mat) == -ID8
    for u in ("i", "j", "k"):
        for mat in (right_mult(u, 4), left_mult(u, 4)):
            assert dense_symmetry(mat.dense()) == -1
            assert mat.mul(mat) == -ID4


def test_clifford_relation_for_right_multiplications():
    # R_u R_v + R_v R_u = -2 <u,v> Id for imaginary u, v
    for a in range(7):
        for b in range(a + 1, 7):
            ru, rv = right_mult(IMAGINARY[a], 8), right_mult(IMAGINARY[b], 8)
            assert ru.anticommutes(rv)


def test_table_is_alternative():
    tab = algebra_table(8)

    def mul(x, y):
        c, s = tab.table[(x[0], y[0])]
        return (c, x[1] * y[1] * s)

    for a in range(8):
        for b in range(8):
            x, y = (a, 1), (b, 1)
            assert mul(mul(x, x), y) == mul(x, mul(x, y))
            assert mul(mul(y, x), x) == mul(y, mul(x, x))


def test_cayley_dickson_cross_check():
    """The table must match quaternion-pair doubling:
    (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c))."""
    qt = algebra_table(4)

    def qmul(x, y):
        c, s = qt.table[(x[0], y[0])]
        return (c, x[1] * y[1] * s)

    def qconj(x):
        return (x[0], x[1] if x[0] == 0 else -x[1])

    tab = algebra_table(8)
    for a in range(8):
        for b in range(8):
            pa, wa = (a % 4, 1), a >= 4
            pb, wb = (b % 4, 1), b >= 4
            # octonion pair components: x = (p, 0) or (0, p)
            if not wa and not wb:
                c, s = qmul(pa, pb)
                expected = (c, s)
            elif not wa and wb:
                # (a,0)(0,d) = (0, d a)
                c, s = qmul(pb, pa)
                expected = (c + 4, s)
            elif wa and not wb:
                # (0,b)(c,0) = (0, b conj(c))
                c, s = qmul(pa, qconj(pb))
                expected = (c + 4, s)
            else:
                # (0,b)(0,d) = (-conj(d) b, 0)
                c, s = qmul(qconj(pb), pa)
                expected = (c, -s)
            assert tab.table[(a, b)] == expected, (a, b)


def test_block_extension_128_e_matches_doubled_system_composition():
    from cliffsys.clifford import build

    c13 = build(13)
    w12 = c13.generators[12]
    inner = right_mult("e", 8).kron(SignedPermMatrix.identity(16))
    assert w12 == antidiag(inner)


def test_spin9_symmetric_basis_points():
    zero = [Fraction(0)] * 8
    u1 = [Fraction(1)] + [Fraction(0)] * 7
    ui = [Fraction(0), Fraction(1)] + [Fraction(0)] * 6
    s8 = spin9_symmetric(zero, Fraction(1))
    assert type(s8) is RationalMatrix
    assert s8.rows == diag_split(8).dense()
    s0 = spin9_symmetric(u1, Fraction(0))
    assert s0.rows == swap(8).dense()
    from cliffsys.clifford import build

    s1 = build(8).generators[1]
    assert spin9_symmetric(ui, Fraction(0)).rows == s1.dense()


def test_spin9_symmetric_rational_point():
    u = [Fraction(0), Fraction(3, 5)] + [Fraction(0)] * 6
    mat = spin9_symmetric(u, Fraction(4, 5)).rows
    assert dense_symmetry(mat) == 1
    assert dense_mul(mat, mat) == SignedPermMatrix.identity(16).dense()


def test_spin9_symmetric_rejects_non_unit():
    with pytest.raises(ValueError):
        spin9_symmetric([Fraction(1)] + [Fraction(0)] * 7, Fraction(1))


def test_spin9_symmetric_random_unit_points():
    for point in random_unit_points(9, 100, seed=5):
        u, r = list(point[:8]), point[8]
        mat = spin9_symmetric(u, r).rows
        assert dense_symmetry(mat) == 1
        assert dense_mul(mat, mat) == SignedPermMatrix.identity(16).dense()


def _spin9_points(seeds):
    """The 18 signed basis vectors of R^9, then 50 seeded rational unit
    points per seed."""
    points = [tuple(Fraction(sign if i == b else 0) for i in range(9))
              for b in range(9) for sign in (1, -1)]
    for seed in seeds:
        points += random_unit_points(9, 50, seed=seed)
    return points


def test_spin9_symmetric_matches_the_block_oracle():
    points = _spin9_points(range(10))
    assert len(points) == 518
    for point in points:
        u, r = point[:8], point[8]
        assert spin9_symmetric(u, r).rows == dense_spin9(u, r), point


def test_block_oracle_tells_r_u_from_r_ubar():
    """With R_u and R_ubar swapped the oracle differs exactly at the points
    whose imaginary part is nonzero, so it does check which block is which."""
    points = _spin9_points(range(1))
    assert any(any(p[1:8]) for p in points)
    for point in points:
        u, r = point[:8], point[8]
        swapped = spin9_blocks(r, dense_right_mult(u), dense_right_mult(octonion_conjugate(u)))
        assert (swapped != spin9_symmetric(u, r).rows) == any(u[1:]), point


@pytest.mark.parametrize("length", [7, 9])
def test_spin9_symmetric_needs_eight_coordinates(length):
    u = [Fraction(1)] + [Fraction(0)] * (length - 1)  # u*ubar + r^2 = 1 with r = 0
    with pytest.raises(ValueError, match="^octonion needs 8 coordinates$"):
        spin9_symmetric(u, Fraction(0))
