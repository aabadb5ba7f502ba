import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from cliffsys.exactmat import (
    NEITHER,
    SKEW_COMPLEX_STRUCTURE,
    SYMMETRIC_INVOLUTION,
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

from oracles import block_diag, dense_kron, dense_mul


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
    assert swap(2).classify() == SYMMETRIC_INVOLUTION
    assert N01.classify() == SKEW_COMPLEX_STRUCTURE
    r_e64 = right_mult("e", 8).kron(SignedPermMatrix.identity(8))
    assert r_e64.classify() == SKEW_COMPLEX_STRUCTURE
    assert N0.mul(diag_split(1)).classify() == SKEW_COMPLEX_STRUCTURE
    shift = SignedPermMatrix(3, (1, 2, 0), (1, 1, 1))
    assert shift.classify() == NEITHER


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
    assert a.is_involution() == (a.mul(a) == ident)
    assert a.is_complex_structure() == (a.mul(a) == -ident)


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
    assert d.classify() == SKEW_COMPLEX_STRUCTURE


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
]


@pytest.mark.parametrize("data", ILL_FORMED_MATRIX_JSON)
def test_json_rejects_ill_formed_entries(data):
    with pytest.raises(ValueError):
        matrix_from_json(data)


def test_rational_matrix_basics():
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([[0, 1], [1, 0]])
    assert a.mul(b).rows == RationalMatrix.from_rows([[2, 1], [4, 3]]).rows
    assert a.transpose().rows == RationalMatrix.from_rows([[1, 3], [2, 4]]).rows


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
    pytest.param(VerifyReport, (True, True, False, True, "generators 0, 1 do not anticommute"),
                 (True, True, True, True),
                 "VerifyReport(symmetric=True, involutions=True, anticommuting=False, "
                 "irreducible_dimension=True, first_failure='generators 0, 1 do not "
                 "anticommute')", "first_failure", None, None, id="VerifyReport"),
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
    if bad is not None:
        with pytest.raises(ValueError, match=message):
            cls(*bad)
