"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: dense integer matrix products,
permutation-sign wedge products, determinants expanded over permutations,
and rational Gaussian elimination.
"""

from fractions import Fraction
from itertools import permutations

from cliffsys.forms import KForm


def assert_clean(form):
    """`form` holds exactly what the checking constructor `KForm.__init__`
    makes of its terms: no zero, no Fraction(p, 1), the right `_ints` flag."""
    checked = KForm(form.n, form.k, form._terms)
    assert checked._terms == form._terms and checked._ints == form._ints
    assert list(map(type, checked._terms.values())) == list(map(type, form._terms.values()))


def dense_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


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
        vectors.append(
            [Fraction(dense[a][b]) for a in range(n) for b in range(a + 1, n)]
        )
    rank = 0
    cols = len(vectors[0])
    pivot_rows = []
    for vec in vectors:
        vec = vec[:]
        for prow, pcol in pivot_rows:
            if vec[pcol]:
                f = vec[pcol] / prow[pcol]
                vec = [v - f * p for v, p in zip(vec, prow)]
        lead = next((c for c in range(cols) if vec[c]), None)
        if lead is not None:
            pivot_rows.append((vec, lead))
            rank += 1
    return rank
