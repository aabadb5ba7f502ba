"""Exact matrix kernel: signed permutation matrices and dense rational matrices.

Every generator handled by the package has exactly one nonzero entry, equal
to +-1, in each row and column.  Such matrices are closed under products
and Kronecker products, so compositions stay O(n) and exact up to order
256.  They are orthogonal, M^T = M^-1, so M is symmetric exactly when
M^2 = Id and skew exactly when M^2 = -Id: the sign of the square is the
one test of both Clifford relations.  Every block shape of the
construction is one `kron`: sigma_1 (x) A, sigma_3 (x) A, J (x) A,
Id (x) A or A (x) Id.  Dense rational matrices only hold the Spin(9)
involutions at rational points of the sphere.

All values are immutable after construction and every operation is a pure
function, so everything here can be shared freely across threads.
"""

from __future__ import annotations

from itertools import combinations
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # imported where it is used, so signed-permutation work runs without it
    from fractions import Fraction


class Record:
    """Immutable value whose fields are the names in its class's `__slots__`,
    two or more, listed in constructor order.

    The constructor takes exactly one value per field (`TypeError`
    otherwise).  Two records are equal when they are of one class with
    equal fields; the hash and the `Name(field=value, ...)` repr are taken
    over the fields.  A subclass with something to check defines an
    `__init__` that checks its arguments and passes them on to this one;
    copies and pickles call it again.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple of an instance, in one C call
        cls._fields = staticmethod(attrgetter(*cls.__slots__))

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} fields, "
                            f"got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self)


class SignedPermMatrix(Record):
    """Matrix with one entry +-1 per row and column.

    Column a carries the single nonzero, so the matrix maps
    e_a -> signs[a] * e_perm[a] (0-based internally; all external
    formats are 1-based).  The order, targets and signs are ints, not
    bools or floats, as in the wire format.
    """

    __slots__ = ("n", "perm", "signs")

    def __init__(self, n: int, perm: tuple[int, ...], signs: tuple[int, ...]):
        if type(n) is not int:
            raise ValueError("order must be an int")
        if n <= 0:
            raise ValueError("order must be positive")
        if len(perm) != n or len(signs) != n:
            raise ValueError("perm/signs length must equal order")
        if any(type(t) is not int for t in perm) or sorted(perm) != list(range(n)):
            raise ValueError("targets do not form a permutation")
        if any(type(s) is not int or s not in (1, -1) for s in signs):
            raise ValueError("signs must be +-1")
        super().__init__(n, perm, signs)

    @classmethod
    def _trusted(cls, n: int, perm: tuple[int, ...], signs: tuple[int, ...]) -> "SignedPermMatrix":
        """A matrix that takes its fields as they are, unchecked: for results
        of the closed operations (product, Kronecker product, transpose,
        negation) of checked matrices."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "n", n)
        object.__setattr__(mat, "perm", perm)
        object.__setattr__(mat, "signs", signs)
        return mat

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "SignedPermMatrix":
        return SignedPermMatrix(n, tuple(range(n)), (1,) * n)

    @staticmethod
    def from_dense(rows: Sequence[Sequence[int]]) -> "SignedPermMatrix":
        n = len(rows)
        perm = [-1] * n
        signs = [0] * n
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix is not square")
            for j, v in enumerate(row):
                if v == 0:
                    continue
                if v not in (1, -1) or perm[j] != -1:
                    raise ValueError("not a signed permutation matrix")
                perm[j] = i
                signs[j] = v
        return SignedPermMatrix(n, tuple(perm), tuple(signs))

    # -- basic queries ------------------------------------------------------

    def apply(self, col: int) -> tuple[int, int]:
        """Image of basis vector `col` as (target row, sign)."""
        return self.perm[col], self.signs[col]

    def entries(self) -> Iterator[tuple[int, int, int]]:
        """Nonzero entries as (row, col, value), sorted, 0-based."""
        items = [(self.perm[a], a, self.signs[a]) for a in range(self.n)]
        return iter(sorted(items))

    def dense(self) -> list[list[int]]:
        rows = [[0] * self.n for _ in range(self.n)]
        for a in range(self.n):
            rows[self.perm[a]][a] = self.signs[a]
        return rows

    def trace(self) -> int:
        return sum(self.signs[a] for a in range(self.n) if self.perm[a] == a)

    def apply_vector(self, vec: Sequence) -> list:
        """Image of an exact coordinate vector."""
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        out = [0] * self.n
        for a in range(self.n):
            out[self.perm[a]] = self.signs[a] * vec[a]
        return out

    # -- algebra ------------------------------------------------------------

    def mul(self, other: "SignedPermMatrix") -> "SignedPermMatrix":
        """Exact product self @ other (signed permutations are closed)."""
        if self.n != other.n:
            raise ValueError(f"order mismatch: {self.n} != {other.n}")
        sp, ss, op, os_ = self.perm, self.signs, other.perm, other.signs
        perm = tuple([sp[b] for b in op])
        signs = tuple([s * ss[b] for b, s in zip(op, os_)])
        return SignedPermMatrix._trusted(self.n, perm, signs)

    def transpose(self) -> "SignedPermMatrix":
        n = self.n
        perm = [0] * n
        signs = [0] * n
        for a in range(n):
            perm[self.perm[a]] = a
            signs[self.perm[a]] = self.signs[a]
        return SignedPermMatrix._trusted(n, tuple(perm), tuple(signs))

    def __neg__(self) -> "SignedPermMatrix":
        return SignedPermMatrix._trusted(self.n, self.perm, tuple([-s for s in self.signs]))

    def _square_sign(self) -> int:
        """s if the square is s * Id (s = +-1), else 0; read column by column."""
        perm, signs = self.perm, self.signs
        if any(perm[b] != a for a, b in enumerate(perm)):
            return 0
        square = {s * signs[b] for b, s in zip(perm, signs)}
        return square.pop() if len(square) == 1 else 0

    def is_involution(self) -> bool:
        """M^2 = Id; for an orthogonal M that is the same as M^T = M, so this
        is also the symmetry test."""
        return self._square_sign() == 1

    def is_complex_structure(self) -> bool:
        """M^2 = -Id; for an orthogonal M that is the same as M^T = -M, so
        this is also the skewness test."""
        return self._square_sign() == -1

    def _commutation_sign(self, other: "SignedPermMatrix") -> int:
        """s if self @ other = s * other @ self (s = +-1), else 0; read column
        by column, with no product built."""
        if self.n != other.n:
            raise ValueError("order mismatch")
        sp, ss, op, os_ = self.perm, self.signs, other.perm, other.signs
        # column a of self @ other is signs os_[a] * ss[op[a]] at row sp[op[a]]
        if any(sp[b] != op[c] for b, c in zip(op, sp)):
            return 0
        ratio = {s * ss[b] * t * os_[c] for b, s, c, t in zip(op, os_, sp, ss)}
        return ratio.pop() if len(ratio) == 1 else 0

    def anticommutes(self, other: "SignedPermMatrix") -> bool:
        return self._commutation_sign(other) == -1

    def commutes(self, other: "SignedPermMatrix") -> bool:
        return self._commutation_sign(other) == 1

    # -- block constructions --------------------------------------------------

    def kron(self, other: "SignedPermMatrix") -> "SignedPermMatrix":
        """Kronecker product self (x) other: e_a (x) e_b is basis vector
        a * q + b, q = other.n, so each entry s of self becomes the block
        s * other."""
        q, op, os_ = other.n, other.perm, other.signs
        perm = tuple([p * q + b for p in self.perm for b in op])
        signs = tuple([s * t for s in self.signs for t in os_])
        return SignedPermMatrix._trusted(self.n * q, perm, signs)


_SIGMA1 = SignedPermMatrix.from_dense([[0, 1], [1, 0]])
_SIGMA3 = SignedPermMatrix.from_dense([[1, 0], [0, -1]])
_J = SignedPermMatrix.from_dense([[0, -1], [1, 0]])


def cross(a: SignedPermMatrix) -> SignedPermMatrix:
    """[[0, A], [A, 0]], that is sigma_1 (x) A."""
    return _SIGMA1.kron(a)


def split(a: SignedPermMatrix) -> SignedPermMatrix:
    """diag(A, -A), that is sigma_3 (x) A."""
    return _SIGMA3.kron(a)


def swap(half: int) -> SignedPermMatrix:
    """[[0, Id], [Id, 0]] of order 2*half."""
    return cross(SignedPermMatrix.identity(half))


def diag_split(half: int) -> SignedPermMatrix:
    """diag(Id, -Id) of order 2*half."""
    return split(SignedPermMatrix.identity(half))


def antidiag(a: SignedPermMatrix) -> SignedPermMatrix:
    """[[0, -A], [A, 0]], that is J (x) A: a skew complex structure when A
    is one, a symmetric involution when A is a symmetric involution."""
    return _J.kron(a)


def pairwise_products(mats: Sequence[SignedPermMatrix]) -> list[SignedPermMatrix]:
    """The products P_a P_b of `mats` for a < b, in that order."""
    return [a.mul(b) for a, b in combinations(mats, 2)]


# -- JSON wire format ---------------------------------------------------------


def matrix_to_json(m: SignedPermMatrix) -> dict:
    """{"n": N, "entries": [[row, col, value], ...]} with 1-based indices."""
    return {"n": m.n, "entries": [[r + 1, c + 1, v] for r, c, v in m.entries()]}


def matrix_from_json(data: dict) -> SignedPermMatrix:
    """Inverse of `matrix_to_json`; raises ValueError on anything that is not
    a dict whose "entries" list holds exactly n entries [row, col, +-1], with
    int indices in 1..n and "n" an int >= 1 (not a bool)."""
    try:
        n, entries = data["n"], data["entries"]
    except (KeyError, TypeError):
        raise ValueError('signed-perm JSON needs "n" and "entries"') from None
    if type(n) is not int or n < 1:
        raise ValueError("signed-perm JSON order must be a positive integer")
    if type(entries) is not list:
        raise ValueError("signed-perm JSON entries must be a list")
    if len(entries) != n:
        raise ValueError(f"signed-perm JSON needs exactly {n} entries, got {len(entries)}")
    perm = [-1] * n
    signs = [0] * n
    for entry in entries:
        if type(entry) is not list or len(entry) != 3:
            raise ValueError(f"signed-perm JSON entry {entry!r} is not [row, col, value]")
        row, col, value = entry
        for index in (row, col):
            if type(index) is not int or not 1 <= index <= n:
                raise ValueError(f"signed-perm JSON index {index!r} outside 1..{n}")
        if type(value) is not int or value not in (1, -1):
            raise ValueError("signed-perm JSON entries must be +-1")
        if perm[col - 1] != -1:
            raise ValueError("duplicate column in JSON entries")
        perm[col - 1] = row - 1
        signs[col - 1] = value
    return SignedPermMatrix(n, tuple(perm), tuple(signs))


# -- dense rational matrices --------------------------------------------------


class RationalMatrix:
    """Dense matrix of exact rationals; no floating point anywhere.  It only
    carries `algebras.spin9_symmetric`'s result: products and symmetry
    tests of such matrices are the dense oracles in the tests."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: list[list[Fraction]]):
        self.nrows = len(rows)
        if self.nrows == 0:
            raise ValueError("dimensions must be positive")
        self.ncols = len(rows[0])
        if self.ncols == 0 or any(len(r) != self.ncols for r in rows):
            raise ValueError("ragged or empty rows")
        self.rows = rows

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows
