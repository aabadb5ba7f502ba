"""Quaternion and octonion multiplication operators.

The octonion product is *defined* by the displayed right-multiplication
matrices R_i ... R_h (x * u := R_u x); the basis multiplication table and
all left multiplications are derived from them.  A Cayley-Dickson doubling
cross-check lives in the test suite.
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

_ID4 = SignedPermMatrix.identity(4)

_RIGHT8 = {
    "1": SignedPermMatrix.identity(8),
    "i": split(_RH_I),
    "j": split(_RH_J),
    "k": split(_RH_K),
    "e": antidiag(_ID4),
    "f": cross(_LH_I),
    "g": cross(_LH_J),
    "h": cross(_LH_K),
}

_RIGHT4 = {"1": _ID4, "i": _RH_I, "j": _RH_J, "k": _RH_K}
_LEFT4 = {"1": _ID4, "i": _LH_I, "j": _LH_J, "k": _LH_K}


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
    if dim not in (1, 2, 4, 8):
        raise ValueError("dim must be 1, 2, 4 or 8")
    table: dict[tuple[int, int], tuple[int, int]] = {}
    for b, label in enumerate(OCTONION_LABELS[:dim]):
        ru = _RIGHT8[label]
        for a in range(dim):
            c, s = ru.apply(a)
            if c >= dim:
                raise ValueError(f"dim-{dim} slice is not closed")
            table[(a, b)] = (c, s)
    return AlgebraTable(dim, OCTONION_LABELS[:dim], table)


def _label_index(u: str, dim: int) -> int:
    labels = OCTONION_LABELS[:dim]
    if u not in labels:
        raise ValueError(f"unknown basis label {u!r} for dim {dim}")
    return labels.index(u)


def right_mult(u: str, dim: int = 8) -> SignedPermMatrix:
    """Right multiplication x -> x*u on H (dim 4) or O (dim 8)."""
    if dim == 8:
        return _RIGHT8[u] if u in _RIGHT8 else _bad_label(u)
    if dim == 4:
        return _RIGHT4[u] if u in _RIGHT4 else _bad_label(u)
    raise ValueError("right_mult supports dim 4 and 8")


def left_mult(u: str, dim: int = 8) -> SignedPermMatrix:
    """Left multiplication x -> u*x, derived from the multiplication table."""
    if dim == 4:
        return _LEFT4[u] if u in _LEFT4 else _bad_label(u)
    if dim != 8:
        raise ValueError("left_mult supports dim 4 and 8")
    iu = _label_index(u, 8)
    tab = algebra_table(8)
    perm = [0] * 8
    signs = [0] * 8
    for a in range(8):
        c, s = tab.product(iu, a)
        perm[a] = c
        signs[a] = s
    return SignedPermMatrix(8, tuple(perm), tuple(signs))


def _bad_label(u: str):
    raise ValueError(f"unknown basis label {u!r}")


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
