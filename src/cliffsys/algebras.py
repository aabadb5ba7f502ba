"""Multiplication operators of R, C, H and O.

The octonion product is *defined* by the displayed right-multiplication
matrices R_i ... R_h (x * u := R_u x); the basis multiplication table and
all left multiplications are derived from them.  R, C and H are the
subalgebras spanned by the first 1, 2 and 4 basis vectors, so their
operators are the octonionic ones restricted to those coordinates.  A
Cayley-Dickson doubling cross-check lives in the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .exactmat import RationalMatrix, Record, SignedPermMatrix, antidiag, cross, split

if TYPE_CHECKING:  # imported where it is used, so signed-permutation work runs without it
    from fractions import Fraction

OCTONION_LABELS = ("1", "i", "j", "k", "e", "f", "g", "h")

_RH_I = SignedPermMatrix.from_dense(
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
)
_RH_J = SignedPermMatrix.from_dense(
    [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
)
_RH_K = SignedPermMatrix.from_dense(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
)
_LH_I = SignedPermMatrix.from_dense(
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
)
_LH_J = SignedPermMatrix.from_dense(
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
)
_LH_K = SignedPermMatrix.from_dense(
    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
)

_RIGHT8 = {
    "1": SignedPermMatrix.identity(8),
    "i": split(_RH_I),
    "j": split(_RH_J),
    "k": split(_RH_K),
    "e": antidiag(SignedPermMatrix.identity(4)),
    "f": cross(_LH_I),
    "g": cross(_LH_J),
    "h": cross(_LH_K),
}


def _left_from_right(iu: int) -> SignedPermMatrix:
    """L_u, column by column: u * e_a = R_{e_a} u."""
    cols = [_RIGHT8[label].apply(iu) for label in OCTONION_LABELS]
    return SignedPermMatrix(8, tuple(c for c, _ in cols), tuple(s for _, s in cols))


_LEFT8 = {u: _left_from_right(iu) for iu, u in enumerate(OCTONION_LABELS)}


class AlgebraTable(Record):
    """Structure constants e_a * e_b = sign * e_c of a composition algebra."""

    __slots__ = ("dim", "labels", "table")

    def __init__(
        self,
        dim: int,
        labels: tuple[str, ...],
        table: dict[tuple[int, int], tuple[int, int]],
    ):
        if dim not in (1, 2, 4, 8):
            raise ValueError("dim must be 1, 2, 4 or 8")
        for a in range(dim):
            if table[(0, a)] != (a, 1) or table[(a, 0)] != (a, 1):
                raise ValueError("e_1 must be a two-sided unit")
        super().__init__(dim, labels, table)

    def product(self, a: int, b: int) -> tuple[int, int]:
        """Index/sign of e_a * e_b (0-based indices)."""
        return self.table[(a, b)]

    def text_grid(self) -> str:
        """Multiplication table as a text grid, rows = left factor."""
        width = 3
        head = " " * width + " | " + " ".join(l.rjust(width) for l in self.labels)
        lines = [head, "-" * len(head)]
        for a in range(self.dim):
            cells = []
            for b in range(self.dim):
                c, s = self.table[(a, b)]
                cells.append(("-" if s < 0 else "") + self.labels[c])
            lines.append(
                self.labels[a].rjust(width)
                + " | "
                + " ".join(cell.rjust(width) for cell in cells)
            )
        return "\n".join(lines)


@lru_cache(maxsize=None)
def algebra_table(dim: int = 8) -> AlgebraTable:
    """Multiplication table of R, C, H or O, read off the R_u matrices."""
    labels = OCTONION_LABELS[:dim]
    table = {}
    for b, label in enumerate(labels):
        ru = right_mult(label, dim)
        for a in range(dim):
            table[(a, b)] = ru.apply(a)
    return AlgebraTable(dim, labels, table)


def _restrict(operators: dict, u: str, dim: int) -> SignedPermMatrix:
    """The octonionic operator of u on the first `dim` coordinates, the
    subalgebra R, C, H or O that u must belong to."""
    if dim not in (1, 2, 4, 8):
        raise ValueError("dim must be 1, 2, 4 or 8")
    if u not in OCTONION_LABELS[:dim]:
        raise ValueError(f"unknown basis label {u!r}")
    full = operators[u]
    return full if dim == 8 else SignedPermMatrix(dim, full.perm[:dim], full.signs[:dim])


def right_mult(u: str, dim: int = 8) -> SignedPermMatrix:
    """Right multiplication x -> x*u on R, C, H or O (dim 1, 2, 4 or 8)."""
    return _restrict(_RIGHT8, u, dim)


def left_mult(u: str, dim: int = 8) -> SignedPermMatrix:
    """Left multiplication x -> u*x on R, C, H or O (dim 1, 2, 4 or 8)."""
    return _restrict(_LEFT8, u, dim)


def octonion_conjugate(u: Sequence[Fraction]) -> list[Fraction]:
    from fractions import Fraction

    return [Fraction(u[0])] + [-Fraction(c) for c in u[1:]]


def right_mult_general(u: Sequence[Fraction]) -> RationalMatrix:
    """Right multiplication by a general octonion with rational coordinates."""
    from fractions import Fraction

    if len(u) != 8:
        raise ValueError("octonion needs 8 coordinates")
    rows = [[Fraction(0)] * 8 for _ in range(8)]
    for b, coeff in enumerate(u):
        coeff = Fraction(coeff)
        if not coeff:
            continue
        ru = _RIGHT8[OCTONION_LABELS[b]]
        for a in range(8):
            c, s = ru.apply(a)
            rows[c][a] += s * coeff
    return RationalMatrix(rows)


def spin9_symmetric(u: Sequence[Fraction], r: Fraction) -> RationalMatrix:
    """Symmetric involution [[r, R_ubar], [R_u, -r]] of a unit vector u + r.

    u is an octonion with rational coordinates, r a rational, and
    u*ubar + r^2 must equal 1 exactly.
    """
    from fractions import Fraction

    u = [Fraction(c) for c in u]
    r = Fraction(r)
    norm = sum(c * c for c in u) + r * r
    if norm != 1:
        raise ValueError(f"u*ubar + r^2 = {norm} != 1")
    ru = right_mult_general(u)
    rubar = right_mult_general(octonion_conjugate(u))
    rows = []
    for i in range(8):
        rows.append(
            [r if j == i else Fraction(0) for j in range(8)] + list(rubar.rows[i])
        )
    for i in range(8):
        rows.append(list(ru.rows[i]) + [-r if j == i else Fraction(0) for j in range(8)])
    return RationalMatrix(rows)
