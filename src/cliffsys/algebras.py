"""Multiplication operators of R, C, H and O.

The octonion product is *defined* by the three displayed quaternionic
right multiplications R_i, R_j, R_k (x * u := R_u x); everything else is
derived.  The quaternionic left multiplications are read off them, the
octonionic R_u are block matrices of both, and the basis multiplication
table and the octonionic left multiplications are read off the R_u.  R, C
and H are the subalgebras spanned by the first 1, 2 and 4 basis vectors,
so their operators are the octonionic ones restricted to those
coordinates.  A Cayley-Dickson doubling cross-check lives in the test
suite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .exactmat import RationalMatrix, Record, SignedPermMatrix, antidiag, cross, split

if TYPE_CHECKING:  # imported where it is used, so signed-permutation work runs without it
    from fractions import Fraction

OCTONION_LABELS = ("1", "i", "j", "k", "e", "f", "g", "h")


def _left_from_right(right: dict[str, SignedPermMatrix]) -> dict[str, SignedPermMatrix]:
    """The left multiplications L_u of the algebra whose right multiplications
    are `right`, column by column: u * e_a = R_{e_a} u."""
    n = len(right)
    left = {}
    for iu, u in enumerate(right):
        cols = [r.apply(iu) for r in right.values()]
        left[u] = SignedPermMatrix(n, tuple(c for c, _ in cols), tuple(s for _, s in cols))
    return left


_RIGHT4 = {
    "1": SignedPermMatrix.identity(4),
    "i": SignedPermMatrix.from_dense([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]),
    "j": SignedPermMatrix.from_dense([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]),
    "k": SignedPermMatrix.from_dense([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]),
}
_LEFT4 = _left_from_right(_RIGHT4)

_RIGHT8 = {
    "1": SignedPermMatrix.identity(8),
    "i": split(_RIGHT4["i"]),
    "j": split(_RIGHT4["j"]),
    "k": split(_RIGHT4["k"]),
    "e": antidiag(SignedPermMatrix.identity(4)),
    "f": cross(_LEFT4["i"]),
    "g": cross(_LEFT4["j"]),
    "h": cross(_LEFT4["k"]),
}
_LEFT8 = _left_from_right(_RIGHT8)


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


def spin9_symmetric(u: Sequence[Fraction], r: Fraction) -> RationalMatrix:
    """The symmetric involution sum_b x_b P_b of the unit vector
    x = (u_0, ..., u_7, r) of R^9, P_0 .. P_8 the generators of C_8; in
    blocks it is [[r, R_ubar], [R_u, -r]].

    u is an octonion with rational coordinates, r a rational, and
    u*ubar + r^2 must equal 1 exactly.
    """
    from fractions import Fraction

    from .clifford import build

    if len(u) != 8:
        raise ValueError("octonion needs 8 coordinates")
    x = [Fraction(c) for c in u] + [Fraction(r)]
    norm = sum(c * c for c in x)
    if norm != 1:
        raise ValueError(f"u*ubar + r^2 = {norm} != 1")
    rows = [[Fraction(0)] * 16 for _ in range(16)]
    for coeff, p in zip(x, build(8).generators):
        for a, (row, sign) in enumerate(zip(p.perm, p.signs)):
            rows[row][a] += sign * coeff
    return RationalMatrix(rows)
