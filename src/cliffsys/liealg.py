"""Exact Lie-algebra machinery: span dimensions, bracket closure, and the
stabilizer dimensions of Clifford systems.

Skew matrices are vectorized over the strict upper triangle; all rank and
nullity computations run over Q with integer rows (cross-multiplication
elimination with content reduction, deterministic pivoting).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .exactmat import SignedPermMatrix


def _upper_index(n: int):
    idx = {}
    t = 0
    for a in range(n):
        for b in range(a + 1, n):
            idx[(a, b)] = t
            t += 1
    return idx, t


def _vectorize_skew(mat: SignedPermMatrix, idx) -> dict[int, int]:
    """Strict-upper-triangle vector of a signed permutation, as a sparse dict."""
    return {idx[(t, col)]: s for col, (t, s) in enumerate(zip(mat.perm, mat.signs)) if t < col}


class _SparseEchelon:
    """Incremental exact echelon form over Q with integer sparse rows."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Residual of `row` after elimination against the stored pivots."""
        row = {k: v for k, v in row.items() if v}
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row
            a, b = piv[lead], row[lead]
            new: dict[int, int] = {}
            for k, v in row.items():
                new[k] = v * a
            for k, v in piv.items():
                new[k] = new.get(k, 0) - b * v
            row = {k: v for k, v in new.items() if v}
            if row:
                g = gcd(*row.values())
                if g > 1:
                    row = {k: v // g for k, v in row.items()}
        return row

    def insert(self, row: dict[int, int]) -> bool:
        """Reduce and store `row`; True if it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        if row[lead] < 0:
            row = {k: -v for k, v in row.items()}
        self.pivots[lead] = row
        return True


class MatrixSpan:
    """Echelonized rational span of a family of skew matrices."""

    def __init__(self, generators: Sequence[SignedPermMatrix]):
        if not generators:
            raise ValueError("need at least one matrix")
        self.n = generators[0].n
        if any(g.n != self.n for g in generators):
            raise ValueError("matrices must share one order")
        self.generators = list(generators)
        self._idx, self._dim = _upper_index(self.n)
        self._ech = _SparseEchelon()
        for g in generators:
            self._ech.insert(_vectorize_skew(g, self._idx))

    @property
    def rank(self) -> int:
        return self._ech.rank

    def contains(self, mat: SignedPermMatrix) -> bool:
        return not self._ech.reduce(_vectorize_skew(mat, self._idx))

    def bracket_closed(self) -> bool:
        """True iff [A, B] stays in the span for every generator pair.

        [A, B] of skew A, B is skew, so its strict upper triangle, read from
        the signed products AB and BA, determines it."""
        gens = self.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                vec = _vectorize_skew(gens[i].mul(gens[j]), self._idx)
                for k, v in _vectorize_skew(gens[j].mul(gens[i]), self._idx).items():
                    vec[k] = vec.get(k, 0) - v
                if self._ech.reduce(vec):
                    return False
        return True


def span_dim(matrices: Sequence[SignedPermMatrix]) -> int:
    """Exact rank over Q of the vectorized skew family."""
    return MatrixSpan(matrices).rank


def bracket_closed(matrices: Sequence[SignedPermMatrix]) -> bool:
    return MatrixSpan(matrices).bracket_closed()


def triple_span_decomposition() -> tuple[int, int, bool, int]:
    """Spans of the double and triple compositions of the nine R^16
    involutions: returns (dim of pair span, dim of triple span, exact
    trace-orthogonality, rank of the union)."""
    from .clifford import build

    gens = build(8).generators
    pairs = [
        gens[a].mul(gens[b])
        for a in range(9)
        for b in range(a + 1, 9)
    ]
    triples = [
        gens[a].mul(gens[b]).mul(gens[c])
        for a in range(9)
        for b in range(a + 1, 9)
        for c in range(b + 1, 9)
    ]
    span2 = MatrixSpan(pairs)
    span3 = MatrixSpan(triples)
    orthogonal = all(
        p.transpose().mul(t).trace() == 0 for p in pairs for t in triples
    )
    total = MatrixSpan(pairs + triples).rank
    return span2.rank, span3.rank, orthogonal, total


def commutant_dim(matrices: Sequence[SignedPermMatrix]) -> int:
    """dim {X in so(N): X P = P X for every P in `matrices`}."""
    if not matrices:
        raise ValueError("need at least one matrix")
    idx, nvars = _upper_index(matrices[0].n)
    ech = _SparseEchelon()
    for p in matrices:
        seen: set = set()
        for _, _, row in _bracket_rows(p, idx):
            _insert_new(ech, seen, row)
    return nvars - ech.rank


def _bracket_rows(p: SignedPermMatrix, idx):
    """(i, j, row) for every entry of [X, P] = XP - PX, the row holding
    that entry in the upper-triangle variables of a skew X."""
    inv = p.transpose()
    for i in range(p.n):
        for j in range(p.n):
            row: dict[int, int] = {}
            # (XP)_ij = signs[j] X_{i, perm[j]}
            _add_skew_entry(row, idx, i, p.perm[j], p.signs[j])
            # (PX)_ij = signs[inv(i)] X_{inv(i), j}
            _add_skew_entry(row, idx, inv.perm[i], j, -inv.signs[i])
            yield i, j, row


def _insert_new(ech: _SparseEchelon, seen: set, row: dict[int, int]) -> None:
    """Insert a nonzero constraint row unless `seen` holds it up to sign.

    Rows repeat up to sign within one generator (for a symmetric P, the
    (i, j) and (j, i) entries of [X, P] give one row), so `seen` is kept
    per generator: it holds at most N^2 rows, whatever the generator count."""
    items = sorted((k, v) for k, v in row.items() if v)
    if not items:
        return
    if items[0][1] < 0:
        items = [(k, -v) for k, v in items]
    key = tuple(items)
    if key not in seen:
        seen.add(key)
        ech.insert(row)


def _add_skew_entry(row: dict[int, int], idx, a: int, b: int, coeff: int):
    """Add coeff * X_{a b} to a constraint row, X skew in the upper variables."""
    if a == b:
        return
    if a < b:
        key = idx[(a, b)]
        row[key] = row.get(key, 0) + coeff
    else:
        key = idx[(b, a)]
        row[key] = row.get(key, 0) - coeff


def normalizer_dim(matrices: Sequence[SignedPermMatrix]) -> int:
    """dim {X in so(N): [X, P_a] in span(P_0..P_m) for every a}.

    Solved as one linear system in the upper-triangle variables of X plus
    one coefficient per (a, b) pair; the generators are linearly
    independent, so the projection to X is injective.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    idx, nx = _upper_index(matrices[0].n)
    count = len(matrices)
    nvars = nx + count * count
    ech = _SparseEchelon()
    for a_idx, p in enumerate(matrices):
        seen: set = set()
        for i, j, row in _bracket_rows(p, idx):
            # minus the span coefficient c_ab times (P_b)_ij
            for b_idx, q in enumerate(matrices):
                if q.perm[j] == i:
                    key = nx + a_idx * count + b_idx
                    row[key] = row.get(key, 0) - q.signs[j]
            _insert_new(ech, seen, row)
    return nvars - ech.rank
