"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: dense integer matrix products,
transposes and direct sums, permutation-sign wedge products, the derivation action letter
by letter, determinants expanded over permutations, rational Gaussian
elimination, and sphere points and sphere-field checks in Fractions.
"""

import random
from fractions import Fraction
from itertools import permutations
from operator import mul

from cliffsys.exactmat import SignedPermMatrix
from cliffsys.forms import KForm


def assert_clean(form):
    """`form` holds exactly what the checking constructor `KForm.__init__`
    makes of its terms: no zero, no Fraction(p, 1)."""
    checked = KForm(form.n, form.k, form._terms)
    assert checked._terms == form._terms
    assert list(map(type, checked._terms.values())) == list(map(type, form._terms.values()))


def dense_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def dense_kron(a, b):
    """The Kronecker product of two dense matrices: entry (i * q + k, j * q + l)
    is a[i][j] * b[k][l], q = len(b)."""
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def dense_symmetry(rows):
    """+1 if the dense matrix equals its transpose, -1 if it equals minus its
    transpose, else 0 (a nonzero matrix is never both)."""
    transpose = [list(col) for col in zip(*rows)]
    if rows == transpose:
        return 1
    return -1 if rows == [[-v for v in row] for row in transpose] else 0


def block_diag(blocks):
    """The direct sum of signed permutation matrices, laid out densely block
    after block down the diagonal: the reference for Id_k (x) A."""
    n = sum(b.n for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        rows += [[0] * offset + row + [0] * (n - offset - b.n) for row in b.dense()]
        offset += b.n
    return SignedPermMatrix.from_dense(rows)


def brute_wedge(idx_a, idx_b, n):
    """e^{idx_a} ^ e^{idx_b} with the sign computed by explicit sorting."""
    merged = list(idx_a) + list(idx_b)
    if len(set(merged)) != len(merged):
        return None
    swaps = 0
    arr = merged[:]
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                swaps += 1
    return tuple(arr), (-1) ** swaps


def brute_wedge_forms(a: KForm, b: KForm) -> KForm:
    acc = {}
    for ia, ca in a.terms():
        for ib, cb in b.terms():
            hit = brute_wedge(ia, ib, a.n)
            if hit is None:
                continue
            idx, sign = hit
            acc[idx] = acc.get(idx, 0) + sign * ca * cb
    return KForm.from_terms(a.n, a.k + b.k, acc.items())


def naive_lie_action(dense_rows, form):
    """The action of the dense matrix X on `form`, from its definition
    (rho(X)a)(v_1, ..., v_k) = -sum_p a(v_1, ..., X v_p, ..., v_k): in each
    monomial, index i_p becomes sum_j X[i_p][j] e^j, one position at a time,
    and the resorted tuple takes the sign of its bubble-sort swaps."""
    acc = {}
    for idx, c in form.terms():
        for p, i in enumerate(idx):
            for j, x in enumerate(dense_rows[i - 1], start=1):
                hit = brute_wedge(idx[:p] + (j,) + idx[p + 1:], (), form.n) if x else None
                if hit is not None:
                    new, sign = hit
                    acc[new] = acc.get(new, 0) - sign * x * c
    return KForm.from_terms(form.n, form.k, acc.items())


def naive_stabilizer_dim(form):
    """dim {X in so(n): rho(X) form = 0}, with X over the dense basis
    E_ab - E_ba, the action by `naive_lie_action` and a dense rank."""
    images = [naive_lie_action(x, form) for x in _skew_basis(form.n)]
    monomials = sorted({idx for act in images for idx, _ in act.terms()})
    vectors = [[act.coefficient(idx) for idx in monomials] for act in images]
    return len(images) - naive_rank(vectors)


def perm_expansion_det(psi, rows):
    """Determinant of a principal minor of a matrix of 2-forms, expanded
    over all permutations (entries of even degree commute)."""
    k = len(rows)
    total = KForm.zero(psi.n, 2 * k)
    for perm in permutations(range(k)):
        swaps = 0
        arr = list(perm)
        for i in range(k):
            for j in range(k - 1 - i):
                if arr[j] > arr[j + 1]:
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
                    swaps += 1
        prod = None
        for i in range(k):
            entry = psi.entry(rows[i], rows[perm[i]])
            prod = entry if prod is None else brute_wedge_forms(prod, entry)
        if prod is None:
            continue
        total = total + prod.scale((-1) ** swaps)
    return total


def naive_span_dim(mats):
    """Rank by dense rational row reduction of the vectorized upper triangles."""
    if not mats:
        return 0
    n = mats[0].n
    vectors = []
    for m in mats:
        dense = m.dense() if hasattr(m, "dense") else m
        vectors.append([dense[a][b] for a in range(n) for b in range(a + 1, n)])
    return naive_rank(vectors)


def naive_rank(vectors):
    """Rank over Q by dense rational row reduction (each pivot row also
    keeps the list of its nonzero columns, the only ones it changes)."""
    pivot_rows = []
    for vec in vectors:
        vec = list(vec)
        for prow, pcol, nonzero in pivot_rows:
            if vec[pcol]:
                f = Fraction(vec[pcol]) / prow[pcol]
                for c in nonzero:
                    vec[c] -= f * prow[c]
        nonzero = [c for c, v in enumerate(vec) if v]
        if nonzero:
            pivot_rows.append((vec, nonzero[0], nonzero))
    return len(pivot_rows)


def _skew_basis(n):
    """E_ab - E_ba for a < b, dense."""
    for a in range(n):
        for b in range(a + 1, n):
            x = [[0] * n for _ in range(n)]
            x[a][b], x[b][a] = 1, -1
            yield x


def _flat_commutator(x, p):
    xp, px = dense_mul(x, p), dense_mul(p, x)
    return [u - v for ru, rv in zip(xp, px) for u, v in zip(ru, rv)]


def _commutator_images(dense):
    """For each basis matrix X of so(N), the flattened [X, P] over all P."""
    return [
        [v for p in dense for v in _flat_commutator(x, p)]
        for x in _skew_basis(len(dense[0]))
    ]


def naive_commutant_dim(mats):
    """dim {X skew: XP = PX for all P}: the nullity of X -> ([X, P])_P,
    one image vector per basis matrix of so(N), ranked densely."""
    images = _commutator_images([m.dense() for m in mats])
    return len(images) - naive_rank(images)


def naive_normalizer_dim(mats):
    """dim {X skew: [X, P_a] in span(P_b) for every a}: the nullity of
    X -> ([X, P_a] mod span(P_b))_a.  That map's rank is the rank of the
    images together with a copy of span(P_b) in every slot a, less the rank
    of those copies; all ranked densely."""
    dense = [m.dense() for m in mats]
    n, count = len(dense[0]), len(dense)
    images = _commutator_images(dense)
    spans = []
    for a in range(count):
        for q in dense:
            vec = [0] * (count * n * n)
            vec[a * n * n:(a + 1) * n * n] = [v for row in q for v in row]
            spans.append(vec)
    return len(images) - (naive_rank(spans + images) - naive_rank(spans))


def fraction_unit_points(n, count, seed):
    """`spheres.random_unit_points` in Fraction arithmetic: t in Q^{n-1} drawn
    from the same generator in the same order, mapped to S^{n-1} by
    t -> (2t, 1 - |t|^2) / (1 + |t|^2)."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        t = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.4 else Fraction(0)
             for _ in range(n - 1)]
        norm2 = sum(c * c for c in t)
        points.append(tuple(2 * c / (1 + norm2) for c in t) + ((1 - norm2) / (1 + norm2),))
    return points


def fraction_verify_pointwise(system, points):
    """The sphere-field check in Fraction arithmetic: at each unit x, J_a x is
    tangent to x and the J_a x are orthonormal; False at the first failure."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    for x in points:
        x = [Fraction(c) for c in x]
        if len(x) != system.n:
            raise ValueError("point dimension mismatch")
        if dot(x, x) != 1:
            raise ValueError("point is not a unit vector")
        images = [j.apply_vector(x) for j in system.structures]
        for a, ja in enumerate(images):
            if dot(ja, x) != 0:
                return False
            for b in range(a, len(images)):
                if dot(ja, images[b]) != (1 if a == b else 0):
                    return False
    return True
