import copy
import pickle
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from cliffsys.exactmat import (
    RationalMatrix,
    SignedPermMatrix,
    antidiag,
    diag_split,
    matrix_from_json,
    matrix_to_json,
    swap,
)
from cliffsys.algebras import AlgebraTable, right_mult
from cliffsys.clifford import CliffordRepresentation, CliffordSystem, VerifyReport
from cliffsys.evencliff import EvenCliffordRecord, EvenCliffordStructure
from cliffsys.spheres import VectorFieldSystem

from oracles import block_diag, dense_kron, dense_mul, dense_symmetry


def random_spm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return SignedPermMatrix(n, tuple(perm), tuple(signs))


N0 = swap(1)
N1 = diag_split(1)
N01 = SignedPermMatrix.from_dense([[0, -1], [1, 0]])


def test_n0_n1_composition_is_complex_structure():
    assert N0.mul(N1) == N01


def test_identity_is_neutral():
    rng = random.Random(7)
    for _ in range(20):
        a = random_spm(rng, rng.choice((2, 4, 8, 16)))
        assert SignedPermMatrix.identity(a.n).mul(a) == a
        assert a.mul(SignedPermMatrix.identity(a.n)) == a


def test_r_i_squares_to_minus_identity_dense_oracle():
    ri = right_mult("i", 8)
    sq = dense_mul(ri.dense(), ri.dense())
    assert sq == [[-1 if i == j else 0 for j in range(8)] for i in range(8)]
    assert ri.mul(ri) == -SignedPermMatrix.identity(8)


def test_signed_perm_closure_random_pairs():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.choice((2, 3, 4, 8, 16, 32, 64, 128, 256))
        a, b = random_spm(rng, n), random_spm(rng, n)
        prod = a.mul(b)
        assert prod.n == n
        assert SignedPermMatrix(n, prod.perm, prod.signs) == prod


def test_mul_matches_dense_oracle_small_orders():
    rng = random.Random(5)
    for n in range(2, 17):
        for _ in range(15):
            a, b = random_spm(rng, n), random_spm(rng, n)
            assert a.mul(b).dense() == dense_mul(a.dense(), b.dense())


def test_transpose_antihomomorphism():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice((2, 4, 8, 16, 32))
        a, b = random_spm(rng, n), random_spm(rng, n)
        assert a.mul(b).transpose() == b.transpose().mul(a.transpose())


def test_mul_rejects_order_mismatch():
    with pytest.raises(ValueError):
        swap(2).mul(swap(4))
    with pytest.raises(ValueError):
        swap(2).anticommutes(swap(4))


def test_classify_examples():
    r_e64 = right_mult("e", 8).kron(SignedPermMatrix.identity(8))
    shift = SignedPermMatrix(3, (1, 2, 0), (1, 1, 1))
    examples = [(swap(2), 1), (N01, -1), (r_e64, -1), (N0.mul(diag_split(1)), -1), (shift, 0)]
    for mat, symmetry in examples:
        assert dense_symmetry(mat.dense()) == symmetry
        assert mat.is_involution() == (symmetry == 1)
        assert mat.is_complex_structure() == (symmetry == -1)


def test_anticommutes():
    pauli = [swap(2), antidiag(N01), diag_split(2)]
    for i in range(3):
        for j in range(3):
            if i == j:
                assert not pauli[i].anticommutes(pauli[j])
            else:
                assert pauli[i].anticommutes(pauli[j])


@st.composite
def signed_perm_pairs(draw):
    """Two signed permutations of one order 1..16; now and then the second
    is a product or sign change of the first, or a commuting diagonal."""
    n = draw(st.integers(1, 16))
    matrix = st.builds(
        lambda perm, signs: SignedPermMatrix(n, tuple(perm), tuple(signs)),
        st.permutations(range(n)),
        st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
    )
    a = draw(matrix)
    b = draw(st.one_of(
        matrix,
        st.just(a),
        st.just(-a),
        st.just(a.mul(a)),
        st.builds(lambda d: d.mul(a), matrix),
        st.builds(lambda signs: SignedPermMatrix(n, tuple(range(n)), tuple(signs)),
                  st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)),
    ))
    return a, b


def _checked(m):
    """`m` as the validating constructor builds it from its fields."""
    return SignedPermMatrix(m.n, tuple(m.perm), tuple(m.signs))


@settings(max_examples=150, deadline=None)
@given(signed_perm_pairs())
def test_closed_operations_give_valid_matrices(pair):
    a, b = pair
    for result in (a.mul(b), b.mul(a), a.transpose(), -a, -(a.mul(b))):
        assert _checked(result) == result
        assert type(result.perm) is tuple and type(result.signs) is tuple
    assert a.mul(b).dense() == dense_mul(a.dense(), b.dense())
    assert a.transpose().dense() == [list(col) for col in zip(*a.dense())]
    assert (-a).dense() == [[-v for v in row] for row in a.dense()]


@settings(max_examples=150, deadline=None)
@given(signed_perm_pairs())
def test_commutation_tests_agree_with_products(pair):
    a, b = pair
    ab, ba = a.mul(b), b.mul(a)
    assert a.commutes(b) == (ab == ba) == b.commutes(a)
    assert a.anticommutes(b) == (ab == -ba) == b.anticommutes(a)
    ident = SignedPermMatrix.identity(a.n)
    assert a.is_involution() == (a.mul(a) == ident) == (a == a.transpose())
    assert a.is_complex_structure() == (a.mul(a) == -ident) == (a == -a.transpose())


def test_square_sign_is_the_symmetry_of_every_small_signed_permutation():
    # a signed permutation is orthogonal, so M^2 = Id iff M^T = M and
    # M^2 = -Id iff M^T = -M: checked on all 4,282 of order 1..5
    for n in range(1, 6):
        ident = SignedPermMatrix.identity(n)
        for perm in permutations(range(n)):
            for signs in product((1, -1), repeat=n):
                a = SignedPermMatrix(n, perm, signs)
                square, symmetry = a.mul(a), dense_symmetry(a.dense())
                assert a.is_involution() == (square == ident) == (symmetry == 1)
                assert a.is_complex_structure() == (square == -ident) == (symmetry == -1)


def test_trace_of_full_generator_product():
    # +-2 delta(8) with delta(8) = 8
    from cliffsys.clifford import build

    prod = None
    for g in build(8).generators:
        prod = g if prod is None else prod.mul(g)
    assert abs(prod.trace()) == 16


def test_block_helpers():
    assert swap(4).dense() == [
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
    ]
    d = block_diag([N01, N01, N01])
    assert d.n == 6
    assert dense_symmetry(d.dense()) == -1 and d.is_complex_structure()


def test_kron():
    k = N01.kron(SignedPermMatrix.identity(3))
    assert k.n == 6
    dense = k.dense()
    for r in range(3):
        assert dense[r][3 + r] == -1
        assert dense[3 + r][r] == 1
    # e_a (x) e_b is basis vector a * q + b: Id_2 (x) A is diag(A, A)
    assert SignedPermMatrix.identity(2).kron(N01) == block_diag([N01, N01])
    rng = random.Random(5)
    for k, n in ((1, 4), (3, 2), (4, 5)):
        a = random_spm(rng, n)
        assert SignedPermMatrix.identity(k).kron(a) == block_diag([a] * k)


@st.composite
def kron_quadruples(draw):
    """(A, B, C, D) with A, C of one order p and B, D of one order q."""
    def matrix(n):
        return st.builds(
            lambda perm, signs: SignedPermMatrix(n, tuple(perm), tuple(signs)),
            st.permutations(range(n)),
            st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
        )
    p = draw(st.integers(1, 6))
    q = draw(st.integers(1, 6))
    return draw(matrix(p)), draw(matrix(q)), draw(matrix(p)), draw(matrix(q))


@given(kron_quadruples())
def test_kron_matches_dense_oracle(quad):
    a, b, c, d = quad
    ab = a.kron(b)
    assert ab.dense() == dense_kron(a.dense(), b.dense())
    # the checking constructor accepts every Kronecker product
    assert SignedPermMatrix(ab.n, ab.perm, ab.signs) == ab
    assert a.kron(b).mul(c.kron(d)) == a.mul(c).kron(b.mul(d))
    assert ab.transpose() == a.transpose().kron(b.transpose())


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        a = random_spm(rng, rng.choice((2, 4, 8, 16)))
        data = matrix_to_json(a)
        assert data["entries"] == sorted(data["entries"])
        assert matrix_from_json(data) == a


def test_json_round_trip_through_text():
    """Every signed permutation the package builds and writes survives its
    wire format as text: the representations, the pinned sphere fields and
    the unit multiplications."""
    import json

    from cliffsys.algebras import OCTONION_LABELS, left_mult
    from cliffsys.clifford import build, to_representation
    from cliffsys.spheres import max_vector_fields
    from test_construction_golden import FIELD_ORDERS

    mats = [e for m in range(2, 17) for e in to_representation(build(m)).matrices]
    mats += [j for n in FIELD_ORDERS for j in max_vector_fields(n).structures]
    mats += [mult(u, dim) for dim in (4, 8) for u in OCTONION_LABELS[:dim]
             for mult in (left_mult, right_mult)]
    for mat in mats:
        assert matrix_from_json(json.loads(json.dumps(matrix_to_json(mat)))) == mat


def test_json_is_one_based():
    data = matrix_to_json(N01)
    assert data == {"n": 2, "entries": [[1, 2, -1], [2, 1, 1]]}


ILL_FORMED_MATRIX_JSON = [
    pytest.param({"n": 2, "entries": [[1, 0, 1], [2, 1, 1]]}, id="column-0"),
    pytest.param({"n": 2, "entries": [[0, 1, 1], [2, 2, 1]]}, id="row-0"),
    pytest.param({"n": 2, "entries": [[1, 3, 1], [2, 1, 1]]}, id="column-past-n"),
    pytest.param({"n": 2, "entries": [[3, 1, 1], [2, 2, 1]]}, id="row-past-n"),
    pytest.param({"n": 2, "entries": [[1, -1, 1], [2, 1, 1]]}, id="negative-column"),
    pytest.param({"n": 2, "entries": [[2, True, 1], [1, 2, 1]]}, id="bool-column"),
    pytest.param({"n": 2, "entries": [[2, 1.0, 1], [1, 2, 1]]}, id="float-column"),
    pytest.param({"n": 2, "entries": [["2", 1, 1], [1, 2, 1]]}, id="string-row"),
    pytest.param({"n": 2, "entries": [[1, 1, 1]]}, id="too-few-entries"),
    pytest.param({"n": 2, "entries": [[1, 1, 1], [2, 2, 1], [2, 2, 1]]}, id="too-many-entries"),
    pytest.param([[1, 1, 1], [2, 2, 1]], id="list-not-dict"),
    pytest.param(2, id="int-not-dict"),
    pytest.param({"entries": [[1, 1, 1], [2, 2, 1]]}, id="missing-n"),
    pytest.param({"n": 2}, id="missing-entries"),
    pytest.param({"n": "2", "entries": [[1, 1, 1], [2, 2, 1]]}, id="string-n"),
    pytest.param({"n": True, "entries": [[1, 1, 1]]}, id="bool-n"),
    pytest.param({"n": 2, "entries": 7}, id="int-entries"),
    pytest.param({"n": 2, "entries": {"1": [1, 1, 1], "2": [2, 2, 1]}}, id="dict-entries"),
    pytest.param({"n": 2, "entries": [[1, 1], [2, 2]]}, id="two-element-entry"),
    pytest.param({"n": 2, "entries": [[1, 1, 1, 1], [2, 2, 1]]}, id="four-element-entry"),
    pytest.param({"n": 2, "entries": [7, [2, 2, 1]]}, id="int-entry"),
    *[pytest.param({"n": 2, "entries": [[1, 1, value], [2, 2, 1]]}, id=f"value-{name}")
      for name, value in (("2", 2), ("0", 0), ("true", True), ("float", 1.0))],
    pytest.param({"n": 2, "entries": [[1, 1, 1], [2, 1, 1]]}, id="repeated-column"),
    pytest.param({"n": 2, "entries": [[1, 1, 1], [1, 2, 1]]}, id="repeated-row"),
]


@pytest.mark.parametrize("data", ILL_FORMED_MATRIX_JSON)
def test_json_rejects_ill_formed_entries(data):
    with pytest.raises(ValueError):
        matrix_from_json(data)


def test_rational_matrix_basics():
    from fractions import Fraction

    rows = [[Fraction(1), Fraction(1, 2), Fraction(0)], [Fraction(-3), Fraction(4), Fraction(5, 7)]]
    a = RationalMatrix(rows)
    assert (a.nrows, a.ncols, a.rows) == (2, 3, rows)
    assert a == RationalMatrix([list(row) for row in rows])
    assert a != RationalMatrix([row[:2] for row in rows]) and a != rows
    for bad in ([], [[]], [[Fraction(1)], [Fraction(1), Fraction(2)]]):
        with pytest.raises(ValueError):
            RationalMatrix(bad)


def test_apply_vector():
    from fractions import Fraction

    vec = [Fraction(3, 5), Fraction(4, 5)]
    assert N01.apply_vector(vec) == [Fraction(-4, 5), Fraction(3, 5)]


# the immutable value classes: class, constructor arguments, arguments of an
# unequal value, repr, a field, and arguments the constructor rejects with
# its message (None where it checks nothing)
P = "SignedPermMatrix(n=2, perm=(1, 0), signs=(1, 1))"
J = "SignedPermMatrix(n=2, perm=(1, 0), signs=(1, -1))"
ODD = "periodic rule for irreducible rank-3 structures"
VALUE_CLASSES = [
    pytest.param(SignedPermMatrix, (2, (1, 0), (1, 1)), (2, (1, 0), (1, -1)), P, "perm",
                 (2, (0, 0), (1, 1)), "targets do not form a permutation",
                 id="SignedPermMatrix"),
    pytest.param(AlgebraTable, (1, ("1",), {(0, 0): (0, 1)}), (1, ("e",), {(0, 0): (0, 1)}),
                 "AlgebraTable(dim=1, labels=('1',), table={(0, 0): (0, 1)})", "table",
                 (3, ("1", "i", "j"), {}), "dim must be 1, 2, 4 or 8", id="AlgebraTable"),
    pytest.param(CliffordSystem, (1, 2, (N0, N1), "n/a"), (1, 2, (N0, N1), "plus"),
                 "CliffordSystem(m=1, n=2, generators=(" + P + ", SignedPermMatrix(n=2, "
                 "perm=(0, 1), signs=(1, -1))), class_tag='n/a')", "generators",
                 (1, 2, (N0,), "n/a"), "need m\\+1 generators", id="CliffordSystem"),
    pytest.param(CliffordRepresentation, (2, (N01,)), (2, (-N01,)),
                 f"CliffordRepresentation(delta=2, matrices=({J},))", "delta",
                 (4, (N01,)), "matrices must act on R\\^delta", id="CliffordRepresentation"),
    pytest.param(VerifyReport, (True, False, True, "generators 0, 1 do not anticommute"),
                 (True, True, True, None),
                 "VerifyReport(symmetric=True, anticommuting=False, irreducible_dimension=True, "
                 "first_failure='generators 0, 1 do not anticommute')", "first_failure", None,
                 None, id="VerifyReport"),
    pytest.param(EvenCliffordStructure, (2, 2, (N01,), (N0,)), (2, 2, (N01,), (N1,)),
                 f"EvenCliffordStructure(rank=2, n=2, complex_generators=({J},), "
                 f"symmetric_generators=({P},))", "rank", None, None,
                 id="EvenCliffordStructure"),
    pytest.param(EvenCliffordRecord, (4, "Essential", ODD), (4, "NonEssential", ODD),
                 f"EvenCliffordRecord(rank=4, verdict='Essential', note='{ODD}')", "verdict",
                 None, None, id="EvenCliffordRecord"),
    pytest.param(VectorFieldSystem, (2, 1, (N01,)), (2, 0, ()),
                 f"VectorFieldSystem(n=2, sigma=1, structures=({J},))", "structures",
                 None, None, id="VectorFieldSystem"),
]


def _also_rejects(name, bad, message, case):
    """The row of VALUE_CLASSES called `name`, with other rejected arguments."""
    row = next(p for p in VALUE_CLASSES if p.id == name)
    return pytest.param(*row.values[:5], bad, message, id=f"{name}-{case}")


# the wire formats carry ints only, so the constructors refuse bools and floats
VALUE_CLASSES += [
    _also_rejects("SignedPermMatrix", (2, (0, 1), (True, -1)), "signs must be", "bool-sign"),
    _also_rejects("SignedPermMatrix", (2, (0, 1), (1.0, -1)), "signs must be", "float-sign"),
    _also_rejects("SignedPermMatrix", (2, (0.0, 1), (1, -1)), "not form a permutation",
                  "float-target"),
    _also_rejects("SignedPermMatrix", (2, (False, True), (1, -1)), "not form a permutation",
                  "bool-target"),
    _also_rejects("SignedPermMatrix", (True, (0,), (1,)), "order must be an int", "bool-order"),
    _also_rejects("SignedPermMatrix", (2.0, (0, 1), (1, -1)), "order must be an int",
                  "float-order"),
    _also_rejects("CliffordSystem", (True, 2, (N0, N1), "n/a"), "m and n must be ints", "bool-m"),
    _also_rejects("CliffordSystem", (1, 2.0, (N0, N1), "n/a"), "m and n must be ints",
                  "float-n"),
]


@pytest.mark.parametrize("cls, args, other, text, field, bad, message", VALUE_CLASSES)
def test_value_classes_compare_hash_print_and_copy_by_fields(
    cls, args, other, text, field, bad, message
):
    value = cls(*args)
    assert value == cls(*args) and not value != cls(*args)
    assert value != cls(*other) and not value == cls(*other)
    lookalike = type("Lookalike", (cls,), {})(*args)
    assert value != lookalike and lookalike != value
    if cls is AlgebraTable:  # it holds a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(*args))
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    # one value per field, whether or not the class has an __init__ of its own
    with pytest.raises(TypeError, match="takes"):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args[:-1])
    if bad is not None:
        with pytest.raises(ValueError, match=message):
            cls(*bad)
