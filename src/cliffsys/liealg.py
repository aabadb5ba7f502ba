"""Exact Lie-algebra machinery: span dimensions, bracket closure, and the
stabilizer dimensions of Clifford systems.

A skew matrix X of order N is read through its N(N-1)/2 upper variables
x_t = X_ab (a < b), numbered row by row through one flat signed index table.
Ranks run over Q with integer rows in `_SparseEchelon`, the one elimination
routine (content reduction, deterministic pivoting).

The stabilizer systems come from the conjugation X -> P X P^T, which a
signed permutation P turns into a signed permutation of the upper
variables: XP = PX iff X - P X P^T = 0, and [X, P_a] = sum_b c_ab P_b iff
X - P_a X P_a^T = sum_b c_ab P_b P_a^T (as P P^T = Id).  Most rows then
read x_u = +-x_v or 2 x_u = 0; a signed union-find takes those, and the
others are rewritten in its classes and eliminated.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Sequence

from .exactmat import SignedPermMatrix, pairwise_products


def _skew_index(n: int) -> list[int]:
    """Flat signed index table of order n: entry a * n + b is t + 1 when
    (a, b) holds the upper variable x_t, -(t + 1) when (b, a) does, and 0
    on the diagonal; so X_ab of a skew X is sign * x_t."""
    table = [0] * (n * n)
    t = 0
    for a in range(n):
        for b in range(a + 1, n):
            t += 1
            table[a * n + b] = t
            table[b * n + a] = -t
    return table


def _upper_vector(mat: SignedPermMatrix, table: list[int]) -> dict[int, int]:
    """Strict-upper-triangle vector of a signed permutation, as a sparse dict."""
    n = mat.n
    return {
        table[t * n + col] - 1: s
        for col, (t, s) in enumerate(zip(mat.perm, mat.signs))
        if t < col
    }


def _skew_vector(mat: SignedPermMatrix, table: list[int]) -> dict[int, int]:
    if not mat.is_complex_structure():
        raise ValueError("matrix is not skew")
    return _upper_vector(mat, table)


class _SparseEchelon:
    """Incremental exact echelon form over Q with integer sparse rows."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Residual of `row` (no zero entries) after elimination against the
        stored pivots; `row` itself is reduced in place and returned."""
        pivots = self.pivots
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                return row
            a, b = piv[lead], row[lead]
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in piv.items():
                w = row.get(k, 0) - b * v
                if w:
                    row[k] = w
                else:
                    del row[k]
            if row:
                g = gcd(*row.values())
                if g > 1:
                    for k in row:
                        row[k] //= g
        return row

    def insert(self, row: dict[int, int]) -> bool:
        """Reduce and store `row` (no zero entries, consumed); True if it
        increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        if row[lead] < 0:
            for k in row:
                row[k] = -row[k]
        self.pivots[lead] = row
        return True


def _is_unit(row: dict[int, int]) -> bool:
    """True for c x_u = 0, and for c x_u + d x_v = 0 with |c| = |d|."""
    if len(row) == 2:
        c, d = row.values()
        return c == d or c == -d
    return len(row) == 1


class _SignedClasses:
    """Signed union-find over variables x_0 .. x_{size-1}.

    Each variable is +-1 times the root of its class, and a class may be
    forced to zero.  `rank` is the rank of the unit rows taken so far."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.sign = [1] * size
        self.zero = [False] * size  # read at roots only
        self.rank = 0

    def find(self, v: int) -> tuple[int, int]:
        """(root, s) with x_v = s * x_root; compresses the path."""
        parent, sign = self.parent, self.sign
        root, s = v, 1
        while parent[root] != root:
            s *= sign[root]
            root = parent[root]
        total = s
        while parent[v] != root:
            up, sv = parent[v], sign[v]
            parent[v], sign[v] = root, s
            s *= sv
            v = up
        return root, total

    def _force_zero(self, r: int) -> None:
        if not self.zero[r]:
            self.zero[r] = True
            self.rank += 1

    def union(self, u: int, v: int, e: int) -> None:
        """Take the row x_u = e * x_v."""
        ru, su = self.find(u)
        rv, sv = self.find(v)
        if ru == rv:
            if su != e * sv:  # 2 x_ru = 0
                self._force_zero(ru)
        elif not (self.zero[ru] and self.zero[rv]):  # two zero classes add no rank
            self.parent[ru], self.sign[ru] = rv, su * e * sv
            self.zero[rv] = self.zero[rv] or self.zero[ru]
            self.rank += 1

    def take(self, row: dict[int, int]) -> None:
        """Take a unit row (see `_is_unit`)."""
        if len(row) == 1:
            (u,) = row
            self._force_zero(self.find(u)[0])
        else:
            (u, c), (v, d) = row.items()
            self.union(u, v, -1 if c == d else 1)

    def substitute(self, row: dict[int, int]) -> dict[int, int]:
        """`row` rewritten in the roots of its classes, zero classes dropped."""
        out: dict[int, int] = {}
        for v, c in row.items():
            r, s = self.find(v)
            if not self.zero[r]:
                out[r] = out.get(r, 0) + s * c
        return {r: c for r, c in out.items() if c}


class MatrixSpan:
    """Echelonized rational span of a family of skew matrices."""

    def __init__(self, generators: Sequence[SignedPermMatrix]):
        if not generators:
            raise ValueError("need at least one matrix")
        self.n = generators[0].n
        if any(g.n != self.n for g in generators):
            raise ValueError("matrices must share one order")
        self.generators = list(generators)
        self._table = _skew_index(self.n)
        self._ech = _SparseEchelon()
        for g in generators:
            self._ech.insert(_skew_vector(g, self._table))

    @property
    def rank(self) -> int:
        return self._ech.rank

    def contains(self, mat: SignedPermMatrix) -> bool:
        return not self._ech.reduce(_skew_vector(mat, self._table))

    def bracket_closed(self) -> bool:
        """True iff [A, B] stays in the span for every generator pair.

        [A, B] of signed permutations is 0 when they commute and 2AB when
        they anticommute; for any other pair it is skew, so its strict upper
        triangle, read from AB and BA, determines it."""
        gens, table = self.generators, self._table
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                sign = a._commutation_sign(b)
                if sign == 1:
                    continue
                vec = _upper_vector(a.mul(b), table)
                if sign == 0:
                    for k, v in _upper_vector(b.mul(a), table).items():
                        vec[k] = vec.get(k, 0) - v
                    vec = {k: v for k, v in vec.items() if v}
                if self._ech.reduce(vec):
                    return False
        return True


def span_dim(matrices: Sequence[SignedPermMatrix]) -> int:
    """Exact rank over Q of the vectorized skew family."""
    return MatrixSpan(matrices).rank


def bracket_closed(matrices: Sequence[SignedPermMatrix]) -> bool:
    return MatrixSpan(matrices).bracket_closed()


def triple_span_decomposition(
    generators: Sequence[SignedPermMatrix],
) -> tuple[int, int, bool, int]:
    """Spans of the double and triple compositions of a system's
    involutions: returns (dim of pair span, dim of triple span, exact
    trace-orthogonality, rank of the union).  With fewer than three
    involutions there are no triples, and their span is 0."""
    pairs = pairwise_products(generators)
    triples = [a.mul(b).mul(c) for a, b, c in combinations(generators, 3)]
    pair_dim = MatrixSpan(pairs).rank
    triple_dim = MatrixSpan(triples).rank if triples else 0
    # tr(P^T T) is the sum of P_ij T_ij, over the columns where P and T share a row
    orthogonal = all(
        sum(s * u for i, s, j, u in zip(p.perm, p.signs, t.perm, t.signs) if i == j) == 0
        for p in pairs
        for t in triples
    )
    total = MatrixSpan(pairs + triples).rank
    return pair_dim, triple_dim, orthogonal, total


def _conjugation_rows(p: SignedPermMatrix, table: list[int]):
    """The rows of X - P X P^T over the upper variables of a skew X.

    The upper variable x_t of (k, l) goes to the position (i, j) =
    (P k, P l) with the sign s = signs[k] * signs[l], and X_ij = g * x_u
    there; so yields (i * n + j, g, u, s, t), one per t, for the entry
    g x_u - s x_t of X - P X P^T at (i, j).  Each unordered position is hit
    once."""
    n, perm, signs = p.n, p.perm, p.signs
    t = 0
    for k in range(n):
        row, sk = perm[k] * n, signs[k]
        for l in range(k + 1, n):
            pos = row + perm[l]
            v = table[pos]
            if v > 0:
                yield pos, 1, v - 1, sk * signs[l], t
            else:
                yield pos, -1, -v - 1, sk * signs[l], t
            t += 1


def _span_entries(matrices: Sequence[SignedPermMatrix], p: SignedPermMatrix, base: int):
    """{i * n + j: [(base + b, coeff), ...]}: the entries of
    sum_b c_b P_b P^T, the coefficient c_b being the variable base + b."""
    n = p.n
    entries: dict[int, list[tuple[int, int]]] = {}
    for b, q in enumerate(matrices):
        # P_b P^T maps e_{P k} to signs_P[k] signs_b[k] e_{P_b k}
        for i, s, j, u in zip(q.perm, q.signs, p.perm, p.signs):
            entries.setdefault(i * n + j, []).append((base + b, s * u))
    return entries


def _span_symmetry_rows(entries: dict, n: int):
    """Rows on the span coefficients alone that make sum_b c_b P_b P^T
    skew, as X - P X P^T is: each diagonal entry, and the sum of the
    entries at (i, j) and (j, i), vanish."""
    for pos, terms in entries.items():
        i, j = divmod(pos, n)
        mirror = j * n + i
        if i > j and mirror in entries:
            continue  # taken with the mirror
        if i != j:
            terms = terms + entries.get(mirror, [])
        row: dict[int, int] = {}
        for v, c in terms:
            row[v] = row.get(v, 0) + c
        row = {v: c for v, c in row.items() if c}
        if row:
            yield row


def _stabilizer_nullity(matrices: Sequence[SignedPermMatrix], with_span: bool) -> int:
    """Nullity of the stabilizer system of `matrices`: X - P_a X P_a^T = 0,
    or = sum_b c_ab P_b P_a^T with `with_span`, over the upper variables of
    X (then the c_ab).

    The rows are streamed twice, never collected: the unit rows go to the
    signed union-find first, then the others, rewritten in its classes, to
    the echelon."""
    if not matrices:
        raise ValueError("need at least one matrix")
    n = matrices[0].n
    if any(p.n != n for p in matrices):
        raise ValueError("matrices must share one order")
    table = _skew_index(n)
    nx = n * (n - 1) // 2
    count = len(matrices) if with_span else 0
    classes = _SignedClasses(nx + count * count)
    ech = _SparseEchelon()
    for unit_pass in (True, False) if with_span else (True,):
        for a, p in enumerate(matrices):
            entries = _span_entries(matrices, p, nx + a * count) if with_span else {}
            for pos, g, u, s, t in _conjugation_rows(p, table):
                terms = entries.get(pos)
                if terms is None:
                    if unit_pass:
                        classes.union(u, t, g * s)
                elif not unit_pass:
                    # g x_u - s x_t - sum_b c_b (P_b P^T)_ij = 0
                    row = {u: g}
                    row[t] = row.get(t, 0) - s
                    for v, c in terms:
                        row[v] = row.get(v, 0) - c
                    row = classes.substitute(row)
                    if row:
                        ech.insert(row)
            for row in _span_symmetry_rows(entries, n):
                if _is_unit(row):
                    if unit_pass:
                        classes.take(row)
                elif not unit_pass:
                    row = classes.substitute(row)
                    if row:
                        ech.insert(row)
    return nx + count * count - classes.rank - ech.rank


def commutant_dim(matrices: Sequence[SignedPermMatrix]) -> int:
    """dim {X in so(N): X P = P X for every P in `matrices`}."""
    return _stabilizer_nullity(matrices, with_span=False)


def normalizer_dim(matrices: Sequence[SignedPermMatrix]) -> int:
    """dim {X in so(N): [X, P_a] in span(P_0..P_m) for every a}.

    The solutions (X, c) of the stabilizer system project onto these X;
    the kernel of that projection holds, for each a, the c_a with
    sum_b c_ab P_b = 0, so it has dimension count * (count - r), r the
    rank of the P_b as N x N matrices.  Repeated or dependent generators
    therefore leave the dimension unchanged."""
    count = len(matrices)
    return _stabilizer_nullity(matrices, with_span=True) - count * (count - _matrix_rank(matrices))


def _matrix_rank(matrices: Sequence[SignedPermMatrix]) -> int:
    """Rank over Q of the matrices, each read as its N^2 entries."""
    ech = _SparseEchelon()
    for q in matrices:
        n = q.n
        ech.insert({i * n + k: s for k, (i, s) in enumerate(zip(q.perm, q.signs))})
    return ech.rank
